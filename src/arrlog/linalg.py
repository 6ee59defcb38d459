"""Exact linear algebra over the rationals, in integers.

Matrices are lists of integer rows and kernels are primitive integer
vectors; only ``solve_columns`` also takes ``Fraction`` rows, clearing their
denominators first.  Fractions are built only for printed values, by
``rref_columns`` and ``unit_last``.  Every result is a deterministic
function of the input, as the RREF of a matrix is unique.

``kernel_basis`` eliminates modulo the 127-bit moduli of ``_moduli`` in
turn, the primes of ``KERNEL_PRIMES`` first, reducing entries mod m only
where it reads them, and combines the RREF residues by the Chinese remainder
theorem while the pivot columns agree.  After each modulus it reads one
basis vector per free column off the residues modulo the product N of the
moduli so far, rebuilds each over Q by rational reconstruction modulo N and
keeps the basis only if M v = 0 holds exactly over Z for the matrix M and
every vector v, summed over the columns of v's support.  That check is a
certificate (see ``_modular_kernel``), so the result equals exact
elimination's, and the moduli go on until one certifies (see
``_crt_kernels``).

Spans, solutions and RREFs are read off one certified kernel as well: a
kernel_basis vector w is free in its last nonzero column f, the pivots of
the RREF are the columns no vector is free in, and the RREF has -w[c] / w[f]
in column f of the row with pivot c (``rref_columns``).

A decision that reads only a rank needs no reconstruction: ``rank_mod``
and ``kernel_mod`` work modulo one prime, ``WORD_PRIME`` for every caller,
and a rank mod p is at most the rank over Q, so a full column rank mod p is
one over Q and a kernel's dimension mod p bounds its dimension over Q from
above.

Nothing here eliminates over Z: fraction-free elimination, which every
kernel equals, is the reference of the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

Vec = list[int]
Mat = list[Vec]

# the first moduli of kernel_basis (see _moduli): the 18 largest primes
# below 2**127, whose product (about 2**2286) exceeds 2**2203 - 1
KERNEL_PRIMES = tuple(2 ** 127 - c for c in (
    1, 25, 39, 295, 309, 507, 511, 577, 697, 735, 801, 957, 1081, 1105, 1141,
    1201, 1231, 1447))

# the prime of every decision that reads only a rank (see rank_mod), below
# 2**30 so that entries stay small; reconstruction needs KERNEL_PRIMES
WORD_PRIME = 2 ** 30 - 35


def _content(row) -> int:
    """gcd of the entries, with an early exit once it reaches 1."""
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def _int_row(row) -> list[int]:
    """Clear the denominators of ints or Fractions, then the content."""
    den = lcm(*(x.denominator for x in row))
    return _primitive_vec([x.numerator * (den // x.denominator) for x in row])


def _primitive_vec(v: Vec) -> Vec:
    """The integer vector v divided by its content."""
    g = _content(v)
    return [a // g for a in v] if g > 1 else v


def free_column(v) -> int:
    """The index of the last nonzero entry of v: for a kernel_basis vector,
    its free column."""
    return next(i for i in range(len(v) - 1, -1, -1) if v[i])


_ZERO = Fraction(0)


def unit_last(v) -> tuple[Fraction, ...]:
    """v divided by its last nonzero entry, as Fractions (for printing);
    every zero entry is the one _ZERO."""
    last = v[free_column(v)]
    return tuple(Fraction(a, last) if a else _ZERO for a in v)


def kernel_basis(matrix: Mat, ncols: int) -> Mat:
    """Echelon-normalized basis of the right null space of integer rows.

    One primitive integer vector per free column, in increasing column
    order: positive in its free column, its last nonzero entry, and zero in
    every other free column.  Equal inputs give identical bases.  Computed
    modulo the moduli of _moduli, combined by CRT, and certified over Z:
    the first basis _crt_kernels certifies, which always comes.
    """
    return next(basis for _, basis in _crt_kernels(matrix, ncols)
                if basis is not None)


def _moduli():
    """KERNEL_PRIMES, then the odd 2**127 - c, c = 1449, 1451, ..., that
    are coprime to the product of the moduli before them: pairwise coprime,
    but not all prime (see _crt_kernels)."""
    yield from KERNEL_PRIMES
    product = prod(KERNEL_PRIMES)
    c = 1449
    while True:
        m = 2 ** 127 - c
        if gcd(m, product) == 1:
            product *= m
            yield m
        c += 2


def _crt_kernels(rows: Mat, ncols: int):
    """For each modulus of _moduli in turn, the number of moduli whose
    residues are combined so far and the basis _modular_kernel certifies
    from them, or None; [] as soon as a modulus gives full column rank.

    Only the RREF entries in the free columns are kept, as they are all the
    reconstruction reads.  A modulus's residues join the running ones by the
    Chinese remainder theorem while its pivot columns agree with theirs; a
    modulus with other pivots starts the accumulation again.  A composite
    modulus m is skipped where a pivot is not a unit mod m (pow raises
    ValueError).  With unit pivots, elimination mod m is elimination mod
    every prime factor of m, with the same pivots, so the certificate of
    _modular_kernel holds unchanged.

    The sequence ends.  A pivot entry is a ratio of nonzero minors of the
    matrix, so a modulus is skipped, or has pivots other than those over Q,
    only if it shares a prime with such a minor.  There are finitely many
    such primes, and each divides at most one modulus, as the moduli are
    pairwise coprime.  After the last such modulus the accumulation only
    grows, and it certifies once the product passes the reconstruction
    bound.  Wrong pivots before that are refuted by the M v = 0 check.
    """
    columns = pivots = None
    for m in _moduli():
        try:
            echelon, new_pivots = _rref_mod(rows, ncols, m)
        except ValueError:
            continue
        if len(new_pivots) == ncols:
            yield 1, []
            return
        if columns is None:
            columns = [[(i, r[j]) for i, r in enumerate(rows) if r[j]]
                       for j in range(ncols)]
        if new_pivots != pivots:
            pivots = new_pivots
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            residues = [[row[f] for f in free] for row in echelon]
            modulus, count = m, 1
        else:
            inv = pow(modulus, -1, m)
            for res, row in zip(residues, echelon):
                for i, f in enumerate(free):
                    res[i] += modulus * ((row[f] - res[i]) * inv % m)
            modulus *= m
            count += 1
        yield count, _modular_kernel(columns, len(rows), residues, pivots,
                                     free, modulus)


def _rref_mod(rows: Mat, ncols: int, p: int) -> tuple[Mat, list[int]]:
    """Reduced row echelon form modulo p, pivots scaled to 1, every entry
    in [0, p): _echelon_mod, then back-substitution."""
    echelon, pivots = _echelon_mod(rows, ncols, p)
    for i in range(len(echelon) - 1, -1, -1):
        c = pivots[i]
        nonzero = _reduce_tail(echelon[i], c, p)
        for r in echelon[:i]:
            v = r[c] % p
            r[c] = 0
            if v:
                for j, b in nonzero:
                    r[j] -= v * b
    return echelon, pivots


def _echelon_mod(rows: Mat, ncols: int, p: int) -> tuple[Mat, list[int]]:
    """Row echelon form modulo p, pivots scaled to 1, every entry in
    [0, p).  p need not be prime: a pivot that is not a unit mod p raises
    ValueError.

    Each pivot is taken from the sparsest candidate row and only its nonzero
    entries are subtracted, which keeps fill-in and work low; the rank and
    the RREF are unique regardless.  Reduction is lazy: a row update subtracts v * b
    without reducing, and an entry is reduced mod p only when it is read,
    as a candidate for the current column or when its row becomes a pivot
    row.  Entries thus stay below (number of updates) * p**2, and a row that
    vanishes mod p is never a candidate again.
    """
    work = [r for r in ([a % p for a in r] for r in rows) if any(r)]
    echelon: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        candidates = []
        for r in work:
            v = r[col]
            if v:
                v = r[col] = v % p
                if v:
                    candidates.append(r)
        if not candidates:
            continue
        piv = max(candidates, key=lambda r: r.count(0))
        work.remove(piv)
        inv = pow(piv[col], -1, p)
        # entries left of col are zero in every remaining row
        piv[col] = 1
        nonzero = _reduce_tail(piv, col, p, inv)
        for r in work:
            v = r[col]
            if v:
                r[col] = 0
                for j, b in nonzero:
                    r[j] -= v * b
        echelon.append(piv)
        pivots.append(col)
    return echelon, pivots


def rank_mod(rows: Mat, ncols: int, p: int) -> int:
    """The rank of integer rows modulo the prime p: at most their rank over
    Q, since a nonzero minor mod p is a nonzero integer."""
    return len(_echelon_mod(rows, ncols, p)[1])


def kernel_mod(rows: Mat, ncols: int, p: int) -> Mat:
    """A basis of the right null space of integer rows modulo the prime p,
    entries in [0, p): one vector per free column of the RREF, 1 there, 0 in
    the other free columns and minus the RREF entry at each pivot."""
    echelon, pivots = _rref_mod(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(echelon, pivots):
                v[c] = -row[f] % p
            basis.append(v)
    return basis


def _reduce_tail(row: Vec, col: int, p: int, scale: int = 1) -> list[tuple[int, int]]:
    """Reduce the entries of row right of col to scale * entry mod p, in
    place, and return the nonzero ones as (column, entry) pairs."""
    nonzero = []
    for j in range(col + 1, len(row)):
        a = row[j]
        if a:
            a = row[j] = a * scale % p
            if a:
                nonzero.append((j, a))
    return nonzero


def _rational(a: int, m: int, bound: int) -> tuple[int, int] | None:
    """(r, s) with r = s a mod m, |r| <= bound and 0 < s <= bound, if any."""
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound:
        return None
    return r1, s1


def _modular_kernel(columns, nrows: int, residues: Mat, pivots: list[int],
                    free: list[int], modulus: int) -> Mat | None:
    """kernel_basis read off the RREF modulo M = modulus and certified over Z.

    residues[i][j] is the entry of RREF row i (pivot pivots[i]) in column
    free[j], modulo M; columns[c] holds the nonzero (row, entry) pairs of
    column c of the nrows-row matrix.  Each vector is rebuilt by rational
    reconstruction modulo M as integers w over a positive denominator, and
    M w must vanish exactly over Z; None if any fails.  M w is summed over
    the support of w only: its free column and its pivots with a nonzero
    residue.  This is a proof: the pivots are those of the
    RREF modulo a prime p dividing M, and the rank mod p is at most the rank
    over Q, so the verified vectors, one per free column, positive there and
    0 in every other free column, are at least dim ker and independent,
    hence a basis.  Each one's last nonzero entry is in its free column, so
    they are positive multiples of the reversed RREF of the kernel, which is
    unique: the same vectors exact elimination gives.
    """
    half = modulus >> 1
    bound = isqrt(half)
    ncols = len(columns)
    basis = []
    for i, f in enumerate(free):
        # integer numerators w over one running common denominator
        den = 1
        w = [0] * ncols
        filled = []
        for row, c in zip(residues, pivots):
            if c > f:
                break
            x = row[i]
            if not x:
                continue
            y = -x * den % modulus
            if y > half:
                y -= modulus
            if abs(y) > bound:
                rs = _rational(y % modulus, modulus, bound)
                if rs is None:
                    return None
                y, s = rs
                den *= s
                for j in filled:
                    w[j] *= s
            w[c] = y
            filled.append(c)
        w[f] = den
        filled.append(f)
        image = [0] * nrows
        for c in filled:
            b = w[c]
            for r, a in columns[c]:
                image[r] += a * b
        if any(image):
            return None
        basis.append(_primitive_vec(w))
    return basis


def rref_columns(rows: Mat, ncols: int,
                 lead: int) -> tuple[list[int], list[list[Fraction]]] | None:
    """The RREF pivots of integer rows and, for each column f from lead on,
    its entries in the pivot rows, read off one kernel_basis: -w[c] / w[f]
    in the row with pivot c, w the vector free in f.  None if a pivot falls
    at or after lead, so that not every such column is free."""
    kernel = {free_column(w): w for w in kernel_basis(rows, ncols)}
    pivots = [c for c in range(ncols) if c not in kernel]
    if pivots and pivots[-1] >= lead:
        return None
    return pivots, [[Fraction(-kernel[f][c], kernel[f][f]) for c in pivots]
                    for f in range(lead, ncols)]


def solve_columns(cols, rhs) -> list[list[Fraction]] | None:
    """For every b in rhs, the x with sum of x[i] cols[i] = b: the column of
    b in the RREF of [cols | rhs]; None unless every solution is unique,
    that is, unless the pivots are exactly the first len(cols) columns."""
    n = len(cols)
    read = rref_columns([_int_row(r) for r in zip(*cols, *rhs)],
                        n + len(rhs), n)
    if read is None or len(read[0]) != n:
        return None
    return read[1]
