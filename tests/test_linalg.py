"""Exact linear algebra: determinism, rank-nullity, and span building."""

import random
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import oracles
from arrlog import derivation, linalg
from arrlog.arrangement import Arrangement, arrangement
from arrlog.corpus import (FIXTURES, generic, near_pencil, pencil,
                           random_arrangement)
from arrlog.linalg import (KERNEL_PRIMES, WORD_PRIME, _crt_kernels, _int_row,
                           _moduli, _modular_kernel, _rref_mod, kernel_basis,
                           kernel_mod, rank_mod, rref_columns, solve_columns)
from arrlog.poly import line_frame, monomial_count
from oracles import (SpanBuilder, _exact_kernel, echelon_basis, integer_rref,
                     layer_generators, rank, span_contains)
from test_derivation import jacobian_matrix

entries = st.integers(min_value=-30, max_value=30)


matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=1, max_size=5).map(lambda rows: (rows, ncols)))


# products of a tall and a wide factor, so rank deficiency is common; wide
# entries make the first primes fail reconstruction now and then
products = st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 7),
                     st.sampled_from([30, 2 ** 40, 2 ** 200])).flatmap(
    lambda t: st.tuples(
        st.lists(st.lists(st.integers(-t[3], t[3]), min_size=t[1], max_size=t[1]),
                 min_size=t[0], max_size=t[0]),
        st.lists(st.lists(st.integers(-30, 30), min_size=t[2], max_size=t[2]),
                 min_size=t[1], max_size=t[1])))


# small products of a tall and a wide factor, so rows often vanish or agree
# mod p, with every entry shifted by a multiple of p: entries >= p, negative
# entries and nonzero multiples of p, which reduce to 0
def shifted_products(p):
    return st.tuples(st.integers(1, 6), st.integers(1, 4),
                     st.integers(1, 7)).flatmap(lambda t: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=t[1], max_size=t[1]),
                 min_size=t[0], max_size=t[0]),
        st.lists(st.lists(st.integers(-4, 4), min_size=t[2], max_size=t[2]),
                 min_size=t[1], max_size=t[1]),
        st.lists(st.lists(st.integers(-2, 2), min_size=t[2], max_size=t[2]),
                 min_size=t[0], max_size=t[0])).map(lambda f: [
            [sum(a * b for a, b in zip(row, col)) + s * p
             for col, s in zip(zip(*f[1]), shift)]
            for row, shift in zip(f[0], f[2])]))


def attempts(rows, ncols):
    """The (moduli combined, basis or None) of each modulus _crt_kernels
    eliminates modulo without a skip, up to the first certified basis."""
    out = []
    for count, basis in _crt_kernels(rows, ncols):
        out.append((count, basis))
        if basis is not None:
            break
    return out


def primes_needed(rows, ncols):
    """How many moduli the CRT combined into the product that certifies the
    kernel: at most len(KERNEL_PRIMES) while the kernel primes suffice."""
    return attempts(rows, ncols)[-1][0]


def record_kernel_moduli(mp):
    """Wrap linalg._crt_kernels so that every kernel certified from now on
    appends to the returned list how many moduli it was eliminated modulo
    without a skip, the certifying one included."""
    tried = []
    crt_kernels = linalg._crt_kernels

    def counted(rows, ncols):
        for n, (count, basis) in enumerate(crt_kernels(rows, ncols), 1):
            if basis is not None:
                tried.append(n)
            yield count, basis

    mp.setattr(linalg, "_crt_kernels", counted)
    return tried


def scanned_degrees(A, early_stop, monkeypatch):
    """The degrees whose _layer derivation._resolution(A, early_stop) asks
    for: early_stop=True is the scan of classify; False, of
    minimal_resolution."""
    scanned = []
    cached = derivation._layer

    def record(B, k):
        scanned.append(k)
        return cached(B, k)

    with monkeypatch.context() as m:
        m.setattr(derivation, "_layer", record)
        derivation._resolution(A, early_stop)
    return scanned


def rref_oracle(rows, ncols, p):
    """The nonzero rows of the RREF over GF(p), entries in [0, p), and the
    pivot columns, from sympy's DomainMatrix."""
    K = GF(p, symmetric=False)
    reduced, pivots = DomainMatrix([[K(a) for a in r] for r in rows],
                                   (len(rows), ncols), K).rref()
    return ([[K.to_int(a) % p for a in r] for r in reduced.to_list()[:len(pivots)]],
            list(pivots))


def columns_of(rows, ncols):
    """The nonzero (row, entry) pairs of each column, as _crt_kernels
    passes them to _modular_kernel."""
    return [[(i, r[j]) for i, r in enumerate(rows) if r[j]] for j in range(ncols)]


def fraction_kernel(rows, ncols):
    """The kernel basis of the Fraction RREF formulation, and the pivot
    columns: Gauss-Jordan over Q, then one vector per free column with a 1
    there, a 0 in the other free columns and minus the reduced rows' entries
    in that column at their pivots."""
    m = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis, pivots


def unit_rref(matrix, ncols):
    """integer_rref with every row divided by its pivot entry."""
    rows, pivots = integer_rref(matrix, ncols)
    return [[Fraction(a, r[c]) for a in r] for r, c in zip(rows, pivots)], pivots


def test_int_row_clears_denominators_and_content():
    assert _int_row([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert _int_row([4, 6, 8]) == [2, 3, 4]
    assert _int_row([0, 0]) == [0, 0]


def test_rref_identity():
    m = [[2, 0], [0, 5]]
    rows, pivots = unit_rref(m, 2)
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_pivots_are_one_and_columns_cleared():
    m = [[1, 2, 3], [2, 4, 7], [1, 2, 4]]
    rows, pivots = unit_rref(m, 3)
    for r, c in zip(rows, pivots):
        assert r[c] == 1
        for other in rows:
            if other is not r:
                assert other[c] == 0


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_rank_nullity(mn):
    rows, ncols = mn
    r = rank(rows, ncols)
    null = kernel_basis(rows, ncols)
    assert r + len(null) == ncols
    # every kernel vector is annihilated by every row
    for v in null:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_kernel_deterministic_under_row_scaling(mn):
    rows, ncols = mn
    scaled = [[3 * a for a in row] for row in rows]
    assert kernel_basis(rows, ncols) == kernel_basis(scaled, ncols)


@settings(max_examples=25, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_echelon_basis_recovers_kernel_basis(mn, rng):
    rows, ncols = mn
    kernel = kernel_basis(rows, ncols)
    # a scaled, redundant and shuffled spanning set of the same kernel
    spanning = []
    for v in kernel:
        c = rng.choice((-3, -1, 2, 5))
        spanning.append([c * a for a in v])
    if len(kernel) > 1:
        spanning.append([a + b for a, b in zip(kernel[0], kernel[-1])])
    rng.shuffle(spanning)
    assert echelon_basis(spanning, ncols) == kernel


def test_solve_columns_consistent():
    cols = [[1, 1], [1, -1]]
    assert solve_columns(cols, [[3, 1]]) == [[Fraction(2), Fraction(1)]]


def test_solve_columns_inconsistent():
    cols = [[1, 2], [1, 2]]
    assert solve_columns(cols, [[1, 3]]) is None


def test_solve_columns_underdetermined():
    assert solve_columns([[1], [1]], [[1]]) is None


def test_solve_columns_batch():
    cols = [[1, 1, 0], [0, 1, 1]]
    assert solve_columns(cols, [[1, 2, 1], [2, 1, -1], [0, 0, 0]]) == [
        [1, 1], [2, -1], [0, 0]]
    # one right-hand side outside the span spoils the batch
    assert solve_columns(cols, [[1, 2, 1], [1, 0, 0]]) is None
    assert solve_columns(cols, []) == []


@st.composite
def systems(draw):
    """Columns, some scaled by a Fraction, and right-hand sides: integer
    combinations of the columns, each pushed off them by one unit half of
    the time."""
    n, length = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    cols = draw(st.lists(st.lists(small, min_size=length, max_size=length),
                         min_size=n, max_size=n))
    rhs = []
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.lists(small, min_size=n, max_size=n))
        b = [sum(a * col[i] for a, col in zip(x, cols)) for i in range(length)]
        if draw(st.booleans()):
            b[draw(st.integers(0, length - 1))] += 1
        rhs.append(b)
    dens = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return [[Fraction(a, d) for a in col] for col, d in zip(cols, dens)], rhs


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_columns_matches_exact_rref(system):
    cols, rhs = system
    assert solve_columns(cols, rhs) == oracles.solve_columns(cols, rhs)


@pytest.mark.parametrize("cols, rhs, want", [
    ([[1], [1]], [[1]], None),
    ([[1, 2], [1, 2]], [[1, 3]], None),
    ([[1, 2, 0], [1, 3, 0]], [[1, 3, 0], [0, 0, 1]], None),
    ([[1, 2], [2, 4]], [], None),
    ([[1, 2], [0, 1]], [], []),
    ([], [[0, 0]], [[]]),
    ([], [[0, 1]], None),
], ids=["underdetermined", "inconsistent", "one-inconsistent",
        "empty-rhs-dependent", "empty-rhs", "no-columns", "no-columns-off"])
def test_solve_columns_edge_cases_match_exact_rref(cols, rhs, want):
    assert solve_columns(cols, rhs) == oracles.solve_columns(cols, rhs) == want


@settings(max_examples=80, deadline=None)
@given(products, st.data())
def test_rref_columns_match_exact_rref(factors, data):
    left, right = factors
    ncols = len(right[0])
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]
    lead = data.draw(st.integers(0, ncols))
    assert (rref_columns(rows, ncols, lead)
            == oracles.rref_columns(rows, ncols, lead))


_GENERATOR_CASES = (
    [(f.build(), True) for f in FIXTURES]
    + [(near_pencil(n), True) for n in range(4, 13)]
    + [(random_arrangement(n, s), True) for n in range(8, 14) for s in (1, 2)]
    + [(generic(5, seed=3), False), (random_arrangement(8, 1), False)])


def point_layer(A, k):
    """The exact point system of degree k, lifted: (u, v) of each vector of
    U taken to (sum u_i g_i, sum v_i g_i) and lifted by _h0_lift, as
    _ar_kernel does on a layer the sandwich leaves."""
    G, U = derivation._point_system(A, k)
    m, r = monomial_count(3, k), len(G)
    return [derivation._h0_lift(A, derivation._combine(uv[:r], G, m)
                                + derivation._combine(uv[r:], G, m))
            for uv in U]


def in_layer(A, k, v) -> bool:
    """Whether the degree-k vector v lies in D_{H0}(A), checked exactly on
    the per-line conditions: theta(alpha_H0) = 0, and the kept components
    satisfy oracles.h0_conditions."""
    m = monomial_count(3, k)
    alpha = A.lines[0].int_coeffs
    kept = line_frame(alpha)[1:3]
    comps = [v[c * m:(c + 1) * m] for c in range(3)]
    if any(sum(a * comp[j] for a, comp in zip(alpha, comps)) for j in range(m)):
        return False
    ab = comps[kept[0]] + comps[kept[1]]
    return not any(sum(a * b for a, b in zip(row, ab) if a)
                   for row in oracles.h0_conditions(A, k))


@pytest.mark.parametrize(
    "A, early_stop", _GENERATOR_CASES,
    ids=[f"{A.name}-{'classify' if stop else 'minimal'}"
         for A, stop in _GENERATOR_CASES])
def test_generators_match_span_builder(A, early_stop, monkeypatch):
    # in every degree the scan visits, the generators are as many as a
    # SpanBuilder picks; they lie in D_{H0}(A), are independent modulo x,
    # y and z times the layer below, and complete those shifts to the layer
    top = max(scanned_degrees(A, early_stop, monkeypatch))
    data = derivation._resolution(A, early_stop)
    assert [k for k, _ in data.generators] == [
        k for k in range(top + 1) for _ in layer_generators(A, k)]
    for k in range(top + 1):
        ncols = 3 * monomial_count(3, k)
        gens = [list(derivation._h0_lift(A, v))
                for g, v in data.generators if g == k]
        assert all(in_layer(A, k, v) for v in gens), k
        shifts = [derivation._shift_vec(v, k - 1, var)
                  for v in (derivation._ar_kernel(A, k - 1) if k else ())
                  for var in range(3)]
        spanned = echelon_basis(shifts + gens, ncols)
        assert len(spanned) == len(echelon_basis(shifts, ncols)) + len(gens), k
        assert spanned == echelon_basis(derivation._ar_kernel(A, k), ncols), k
    if not early_stop:
        assert len(data.generators) >= 4


def test_span_builder_matches_rank():
    vecs = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    span = SpanBuilder(3)
    grew = [span.add(v) for v in vecs]
    assert span.dim == rank(vecs, 3)
    assert grew == [True, False, True, False]


def test_span_builder_contains():
    span = SpanBuilder(3)
    span.add([1, 0, 1])
    span.add([0, 1, 1])
    assert span_contains(span, [2, 3, 5])
    assert not span_contains(span, [0, 0, 1])


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_span_builder_dim_equals_rank(mn):
    rows, ncols = mn
    span = SpanBuilder(ncols)
    for row in rows:
        span.add(row)
    assert span.dim == rank(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(products)
def test_kernel_basis_equals_exact_elimination(factors):
    left, right = factors
    ncols = len(right[0])
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]
    assert kernel_basis(rows, ncols) == _exact_kernel(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices, products.map(lambda f: (
    [[sum(a * b for a, b in zip(row, col)) for col in zip(*f[1])]
     for row in f[0]], len(f[1][0])))))
def test_kernel_vectors_are_primitive_integer_echelon_vectors(mn):
    rows, ncols = mn
    oracle, pivots = fraction_kernel(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    for path in (kernel_basis, _exact_kernel):
        got = path(rows, ncols)
        assert len(got) == len(free)
        for v, f, want in zip(got, free, oracle):
            assert all(type(a) is int for a in v)
            assert gcd(*v) == 1
            last = max(j for j, a in enumerate(v) if a)
            assert last == f and v[f] > 0
            assert all(v[c] == 0 for c in free if c != f)
            assert v == _int_row(want)


def test_kernel_primes():
    assert all(sympy.isprime(p) for p in KERNEL_PRIMES)
    assert len(set(KERNEL_PRIMES)) == len(KERNEL_PRIMES)
    # at least the range of the Mersenne primes up to 2**2203 - 1 they replace
    assert prod(KERNEL_PRIMES) > 2 ** 2203 - 1


def test_word_prime():
    # prime by trial division, below 2**30 as its name promises
    assert 2 ** 29 < WORD_PRIME < 2 ** 30
    assert all(WORD_PRIME % d for d in range(2, isqrt(WORD_PRIME) + 1))


def test_kernel_of_first_prime_is_refuted():
    # 2**127 - 1 vanishes modulo the first prime, whose one-vector kernel
    # fails M v = 0; the second prime sees rank 1 and decides alone
    rows = [[2 ** 127 - 1]]
    assert attempts(rows, 1) == [(1, None), (1, [])]
    assert kernel_basis(rows, 1) == []


def test_large_coprime_entries_need_second_prime():
    a, b = 2 ** 100 + 277, 2 ** 100 - 1
    rows = [[a, b]]
    assert primes_needed(rows, 2) == 2
    assert kernel_basis(rows, 2) == [[-b, a]]


def test_pivots_that_differ_restart_the_crt():
    # column 0 vanishes modulo the first prime only, so its pivot is column
    # 1; the second prime's pivot is column 0 and starts the residues again.
    # The denominator 2**127 - 1 needs a modulus above 2**255: three primes
    rows = [[2 ** 127 - 1, 1, 1]]
    tried = attempts(rows, 3)
    assert [count for count, _ in tried] == [1, 1, 2, 3]
    assert tried[-1][1] == _exact_kernel(rows, 3)
    assert kernel_basis(rows, 3) == [[-1, 2 ** 127 - 1, 0], [-1, 0, 2 ** 127 - 1]]


HUGE_ENTRIES = [[3 ** 1900, 2 ** 3000 + 1, 0], [0, 0, 1]]


def test_huge_entries_certify_past_the_primes():
    # entries of about 3000 bits need a product of about 6000 bits to be
    # rebuilt, past the 2286 of the primes
    a, b = HUGE_ENTRIES[0][:2]
    assert primes_needed(HUGE_ENTRIES, 3) > len(KERNEL_PRIMES)
    assert kernel_basis(HUGE_ENTRIES, 3) == _exact_kernel(HUGE_ENTRIES, 3)
    assert kernel_basis(HUGE_ENTRIES, 3) == [[-b, a, 0]]


def test_moduli_start_with_the_kernel_primes():
    assert list(islice(_moduli(), len(KERNEL_PRIMES))) == list(KERNEL_PRIMES)


def test_moduli_past_the_primes_are_odd_and_pairwise_coprime():
    moduli = list(islice(_moduli(), len(KERNEL_PRIMES) + 30))
    assert all(m % 2 and m < 2 ** 127 for m in moduli[len(KERNEL_PRIMES):])
    assert all(gcd(m, n) == 1 for i, m in enumerate(moduli)
               for n in moduli[:i])
    # not all prime: 2**127 - 1451 is divisible by 9, but by no earlier
    # modulus
    assert 2 ** 127 - 1451 in moduli and (2 ** 127 - 1451) % 9 == 0


def test_composite_modulus_with_a_non_unit_pivot_is_skipped(monkeypatch):
    # 3**1900 is the first pivot, not a unit modulo 2**127 - 1451: the
    # elimination raises there, and the sequence goes on past it
    tried, skipped = [], []
    rref_mod = linalg._rref_mod

    def recorded(rows, ncols, m):
        tried.append(m)
        try:
            return rref_mod(rows, ncols, m)
        except ValueError:
            skipped.append(m)
            raise

    monkeypatch.setattr(linalg, "_rref_mod", recorded)
    basis = kernel_basis(HUGE_ENTRIES, 3)
    assert skipped == [2 ** 127 - 1451]
    assert tried[-1] != skipped[0]
    assert basis == _exact_kernel(HUGE_ENTRIES, 3)


def test_no_free_column_gives_empty_basis():
    assert kernel_basis([[1, 2], [3, 4]], 2) == []
    assert kernel_basis([], 0) == []


def shuffled(A, seed):
    lines = list(A.lines)
    random.Random(seed).shuffle(lines)
    return Arrangement(tuple(lines), f"{A.name}-shuffled-{seed}")


def transversal_first(n):
    """near_pencil(n) with its transversal z = 0 first, so that it is H0."""
    A = near_pencil(n)
    return Arrangement(A.lines[-1:] + A.lines[:-1],
                       f"{A.name}-transversal-first")


# _ar_kernel reads D_{H0}(A) off the intersection points, and H0 = line 0
# decides which points lie on H0 and which lines need a restriction block:
# shuffled lines; the transversal of a near-pencil as H0 (its pencil lines
# are H0 in the rows above); a pencil, where every line needs a block from
# degree 1 on; lines in general position; a triple point on H0 and one off
# it; and 13 lines, where a kernel combines several primes
POINT_SYSTEM_CASES = (
    [shuffled(f.build(), seed) for f in FIXTURES for seed in (1, 2)]
    + [shuffled(random_arrangement(n, 1), n) for n in (9, 10)]
    + [transversal_first(n) for n in (5, 8, 11)]
    + [pencil(6), generic(6),
       arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, -1], [0, 1, -1],
                    [1, 1, -2]], "triple-points-on-and-off-H0"),
       random_arrangement(13, 1)])


@pytest.mark.parametrize("A, early_stop",
                         [(f.build(), stop) for f in FIXTURES for stop in (True, False)]
                         + [(g(n), True) for n in range(8, 13)
                            for g in (lambda n: random_arrangement(n, 1),
                                      near_pencil)]
                         + [(A, True) for A in POINT_SYSTEM_CASES],
                         ids=lambda x: getattr(x, "name", str(x)))
def test_ar_kernel_equals_exact_path(A, early_stop, monkeypatch):
    # Every layer is a basis of the kernel of the per-line conditions:
    # exact vectors of D_{H0}(A), independent, with the span of that
    # kernel's exact elimination.  The point system, which takes the layers
    # the rank sandwich leaves, lifts to a basis of that kernel in every
    # degree, and the kernel primes must certify each of its kernels: a
    # regression that pushes real kernels past them would still give exact
    # answers, only slowly.  The dimension of D_0(A)_k, pinned from both
    # sides on the Jacobian-syzygy matrix J, is the independent oracle for
    # the D_{H0}(A) conditions: at most 3m minus the rank of J modulo a
    # prime, and at least the kernel_basis vectors of J, with J v = 0 over
    # Z and independent by their distinct free columns.
    scanned = scanned_degrees(A, early_stop, monkeypatch)
    assert scanned
    for k in scanned:
        m = monomial_count(3, k)
        ncols = 2 * m
        rows = [_int_row(r) for r in oracles.h0_conditions(A, k)]
        exact = [derivation._h0_lift(A, v) for v in _exact_kernel(rows, ncols)]
        got = derivation._ar_kernel(A, k)
        assert len(got) == derivation.ar_dim(A, k), k
        assert all(in_layer(A, k, v) for v in got), k
        spanned = echelon_basis(got, 3 * m)
        assert len(spanned) == len(got), k
        assert spanned == echelon_basis(exact, 3 * m), k
        assert primes_needed(rows, ncols) <= len(KERNEL_PRIMES), k
        with monkeypatch.context() as mp:
            tried = record_kernel_moduli(mp)
            lifted = point_layer(A, k)
        assert tried and max(tried) <= len(KERNEL_PRIMES), k
        assert len(lifted) == len(exact), k
        assert echelon_basis(lifted, 3 * m) == spanned, k
        J = jacobian_matrix(A, k)
        syzygies = kernel_basis(J, 3 * m)
        assert all(not any(sum(a * x for a, x in zip(row, v) if x) for row in J)
                   for v in syzygies), k
        assert len({linalg.free_column(v) for v in syzygies}) == len(syzygies)
        upper = 3 * m - len(_rref_mod(J, 3 * m, KERNEL_PRIMES[-1])[1])
        assert len(syzygies) == len(exact) == upper, k


def assert_rref_mod_is_the_oracle(rows, ncols, p):
    echelon, pivots = _rref_mod(rows, ncols, p)
    assert (echelon, pivots) == rref_oracle(rows, ncols, p)
    assert all(0 <= a < p for row in echelon for a in row)


@pytest.mark.parametrize("p", [KERNEL_PRIMES[0], KERNEL_PRIMES[-1]])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_mod_equals_gf_p_oracle(p, data):
    rows = data.draw(shifted_products(p))
    assert_rref_mod_is_the_oracle(rows, len(rows[0]), p)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_and_kernel_mod_word_prime_equal_gf_p_oracle(data):
    # the rank is the oracle's; the kernel has the complementary dimension,
    # vanishes under every row mod p and is independent, being 1 in its own
    # free column and 0 in the others
    p = WORD_PRIME
    rows = data.draw(shifted_products(p))
    ncols = len(rows[0])
    pivots = rref_oracle(rows, ncols, p)[1]
    assert rank_mod(rows, ncols, p) == len(pivots)
    kernel = kernel_mod(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    assert [[v[f] for f in free] for v in kernel] == [
        [int(f == g) for g in free] for f in free]
    assert all(0 <= a < p for v in kernel for a in v)
    assert all(sum(a * x for a, x in zip(row, v)) % p == 0
               for row in rows for v in kernel)


@pytest.mark.parametrize("p", [KERNEL_PRIMES[0], KERNEL_PRIMES[-1]])
def test_rref_mod_never_pivots_on_a_multiple_of_p(p):
    # column 0 holds only nonzero multiples of p.  Row 2 is -row 1 mod p in
    # columns 1 and 2, so the update by row 1 leaves -p, unreduced, in column
    # 2; column 3 then takes the pivot, and the -p never reaches the output
    rows = [[p, 1, 2, 3], [-3 * p, p - 1, p - 2, 5], [2 * p, 0, 0, p]]
    assert _rref_mod(rows, 4, p) == (
        [[0, 1, 2, 0], [0, 0, 0, 1]], [1, 3])
    assert_rref_mod_is_the_oracle(rows, 4, p)


@pytest.mark.parametrize("p", [KERNEL_PRIMES[0], KERNEL_PRIMES[-1]])
@pytest.mark.parametrize("A", [g(n) for n in range(8, 13)
                               for g in (lambda n: random_arrangement(n, 1),
                                         near_pencil)],
                         ids=lambda x: getattr(x, "name", str(x)))
def test_rref_mod_of_top_ar_layer_equals_gf_p_oracle(A, p, monkeypatch):
    k = max(scanned_degrees(A, True, monkeypatch))
    assert_rref_mod_is_the_oracle(oracles.h0_conditions(A, k),
                                  2 * monomial_count(3, k), p)


def test_modular_kernel_refutes_an_error_in_a_column_one_row_touches():
    # columns 0 and 1 are each touched by one row only; the kernel is
    # (-2, -3, 1) and the RREF entries in the free column 2 are (2, 3).  An
    # all-zero row changes nothing
    p = KERNEL_PRIMES[0]
    for rows in ([[1, 0, 2], [0, 1, 3]], [[1, 0, 2], [0, 0, 0], [0, 1, 3]]):
        columns = columns_of(rows, 3)
        assert _modular_kernel(columns, len(rows), [[2], [3]], [0, 1], [2],
                               p) == [[-2, -3, 1]]
        # a wrong entry at pivot 0, and a wrong zero there, which leaves
        # column 0 out of the vector's support
        for wrong in ([[5], [3]], [[0], [3]]):
            assert _modular_kernel(columns, len(rows), wrong, [0, 1], [2],
                                   p) is None
        assert kernel_basis(rows, 3) == [[-2, -3, 1]]


def test_modular_kernel_of_no_rows_is_the_unit_vectors():
    p = KERNEL_PRIMES[0]
    units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _modular_kernel(columns_of([], 3), 0, [], [], [0, 1, 2], p) == units
    assert kernel_basis([], 3) == units
