"""Two-variable multiarrangements and their derivation modules.

The induced structure of an arrangement on one of its lines weights each
restricted point by (number of lines through it) - 1.  The derivation module
of such a weighted arrangement is always free of rank 2 with exponents
summing to the total multiplicity (Ziegler 1989); this module computes its
graded layers, its exponents, and a basis certified by Saito's determinant
(Saito 1980).

Layer k of D(M) is the kernel of its divisibility conditions: for each form
of weight m, the Taylor coefficients of order below m of its value at the
form's zero, read along a coordinate axis transversal to it, one product per
entry (_divisibility_rows).  A single vector is checked against the same
conditions with no row built, by synthetic division at each form's zero
(_taylor_divisible).

Two derivations in closed form, psi and phi_i (_closed_form), products of
the forms built one linear form per step (_product), bound the least
exponent e1 from above by U.  Nearly always one rank modulo
linalg.WORD_PRIME shows layer U - 1 to be zero, which gives e1 = U with no
kernel; otherwise one certified layer below half the total decides.  The
basis takes psi or phi_i as its first vector when it has degree e1 < e2,
and as its second, reduced in place against the shifts of the first, when
the other has degree e2 (basis); certified layers give the rest.

The path runs on integers from the restricted lines to the printed basis:
the forms are canonicalised by LinearForm.from_ints, phi_i and Saito's
target share the cofactor product of phi_i (_cofactor), and each basis
vector keeps the primitive integer vector it was certified as
(Derivation2.int_vector), which saito_check reads; Fractions appear only in
the printed derivations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import comb

from . import linalg
from .arrangement import Arrangement, LinearForm
from .poly import HomPoly, LineFrame, line_frame, restrict_lines


class FreenessCertificateFailure(AssertionError):
    """The least exponent breaks its bounds, a closed-form derivation fails
    its divisibility conditions, or no pair of layer vectors passes Saito's
    determinant certificate.

    Mathematically impossible for a 2-variable multiarrangement; raised only
    on an implementation bug.
    """


class LinearForm2(LinearForm):
    """A nonzero binary linear form, stored as LinearForm3 stores a line."""

    nvars = 2


def _compare_forms(fm, gm) -> int:
    """Order (LinearForm2, weight) pairs as their forms' coeffs tuples, by
    cross-multiplying int_coeffs, whose first nonzero entry is positive:
    (0, 1) first, then every (a, b) with a > 0 by increasing b / a."""
    (a, b), (c, d) = fm[0].int_coeffs, gm[0].int_coeffs
    if not (a and c):
        return bool(a) - bool(c)
    return (b * c > d * a) - (b * c < d * a)


_BY_FORM = cmp_to_key(_compare_forms)


@dataclass(frozen=True)
class Multiarrangement2:
    """Pairwise non-proportional binary forms with positive multiplicities."""

    forms: tuple[LinearForm2, ...]
    mult: tuple[int, ...]

    def __post_init__(self):
        if len(self.forms) != len(self.mult):
            raise ValueError("forms and multiplicities differ in length")
        if any(m < 1 for m in self.mult):
            raise ValueError("multiplicities must be positive")
        if len(set(self.forms)) != len(self.forms):
            raise ValueError("proportional forms in a multiarrangement")
        # hashed once, not per lru_cache lookup: a hash walks every form
        object.__setattr__(self, "_hash", hash((self.forms, self.mult)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def total(self) -> int:
        return sum(self.mult)

    def to_json(self) -> dict:
        return {"forms": [f.to_json() for f in self.forms], "mult": list(self.mult)}


def multiarrangement(pairs) -> Multiarrangement2:
    """Build from (coefficients, multiplicity) pairs, sorted canonically."""
    items = sorted(((LinearForm2.make(c), m) for c, m in pairs), key=_BY_FORM)
    return Multiarrangement2(tuple(f for f, _ in items), tuple(m for _, m in items))


@dataclass(frozen=True)
class Derivation2:
    """p * d/du + q * d/dv in the two restriction coordinates.

    basis also keeps the primitive integer vector it certified, the
    concatenated (p, q) up to a nonzero constant, for saito_check; it takes
    no part in equality, hashing or printing."""

    p: HomPoly
    q: HomPoly
    int_vector: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.p.degree != self.q.degree or self.p.nvars != 2 or self.q.nvars != 2:
            raise ValueError("components must be binary forms of equal degree")

    @classmethod
    def from_vector(cls, v, int_vector=None) -> "Derivation2":
        """From the concatenated coefficient vectors of p and q."""
        m = len(v) // 2
        return cls(HomPoly(2, m - 1, tuple(v[:m])), HomPoly(2, m - 1, tuple(v[m:])),
                   int_vector)

    @property
    def degree(self) -> int:
        return self.p.degree

    def coeff_vector(self) -> list[Fraction]:
        return list(self.p.coeffs) + list(self.q.coeffs)


@dataclass(frozen=True)
class Exponents:
    """e1 <= e2, and the route of exponents to e1: "bound" or "layer"."""

    e1: int
    e2: int
    route: str | None = field(default=None, compare=False, repr=False)

    def as_pair(self) -> tuple[int, int]:
        return (self.e1, self.e2)


@lru_cache(maxsize=8192)
def ziegler_restriction(A: Arrangement, H: int) -> tuple[Multiarrangement2, LineFrame]:
    """Induced weighted arrangement on line H, plus the frame it is read in,
    poly.line_frame of H.

    Every other line restricts by poly.restrict_lines to a binary form, a
    nonzero multiple of its restriction in that parametrization, so its
    canonical LinearForm2 is the same; proportional restrictions are grouped
    and each group's cardinality (the point multiplicity minus one) becomes
    the weight.  The weights count the |A| - 1 other lines, so they sum to
    |A| - 1.
    """
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    beta = A.lines[H].int_coeffs
    others = A.lines[:H] + A.lines[H + 1:]
    counts = Counter(LinearForm2.from_ints(ell) for ell in restrict_lines(
        beta, [f.int_coeffs for f in others]))
    items = sorted(counts.items(), key=_BY_FORM)
    M = Multiarrangement2(tuple(f for f, _ in items), tuple(m for _, m in items))
    return M, line_frame(beta)


def _divisibility_rows(M: Multiarrangement2, k: int) -> list[list[int]]:
    """Linear conditions on the coefficient vector (p, q) of a derivation of
    degree k, expressing that each form's power divides its value.

    A form l = a u + b v of weight m, in its integer scaling, has l^m
    dividing g = a p + b q exactly when g's Taylor coefficients of order
    i < m vanish at a zero of l along an axis transversal to it.  Here the
    axis is a coordinate axis, so each entry is one product:
    - b != 0: r = (b, -a) is the zero and e_v the axis, l(e_v) = b; the t^i
      coefficient of g(b, -a + t) takes C(j, i) b^(k-j) (-a)^(j-i) from
      u^(k-j) v^j for j >= i, and nothing for j < i;
    - b = 0: l = u, and the condition is that g = p has no monomial of
      u-degree below m: row i is 1 at p's column j = k - i.
    The entry goes a times into p's block and b times into q's.

    Any transversal axis gives the same conditions over Q: the i < m Taylor
    coefficients at a zero of l span the m-dimensional annihilator of
    l^m S_(k-m) in the dual of S_k (all of it when m > k, with the k + 1
    rows taken), whatever the axis.  So each form's rows span the same space
    as along d = (a, b) (tests/oracles.py's divisibility_rows_along_ab, with
    the same number of rows), the kernel is the same space and
    linalg.kernel_basis returns the same unique echelon basis, and the
    closed-form check (_taylor_divisible, these rows' dot products) accepts
    and rejects the same vectors over Z as those rows.  A full
    rank modulo WORD_PRIME is a full rank over Q either way; should a rank
    modulo p fall short where the other would not (the two row sets differ
    by a triangular change of basis), exponents takes the certified layer,
    which gives the same e1.
    """
    rows: list[list[int]] = []
    for form, m in zip(M.forms, M.mult):
        a, b = form.int_coeffs
        for i in range(min(m, k + 1)):
            c = [0] * (k + 1)
            if b:
                for j in range(i, k + 1):
                    c[j] = comb(j, i) * b ** (k - j) * (-a) ** (j - i)
            else:
                c[k - i] = 1
            rows.append([a * x for x in c] + [b * x for x in c])
    return rows


@lru_cache(maxsize=8192)
def _deriv_kernel(M: Multiarrangement2, k: int):
    rows = _divisibility_rows(M, k)
    return tuple(tuple(v) for v in linalg.kernel_basis(rows, 2 * (k + 1)))


def _free_pattern(k: int, e1: int, e2: int) -> int:
    return max(0, k - e1 + 1) + max(0, k - e2 + 1)


def multiples(vec, ncomp: int, d: int) -> list[list]:
    """u^(d-i) v^i * vec for i = 0..d; vec is ncomp concatenated binary forms."""
    m = len(vec) // ncomp
    comps = [list(vec[c * m: (c + 1) * m]) for c in range(ncomp)]
    return [[x for comp in comps for x in [0] * i + comp + [0] * (d - i)]
            for i in range(d + 1)]


def _mul2(a, b) -> list:
    """Product of two binary forms given as coefficient vectors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _det(theta1, theta2) -> list:
    """The determinant p1 q2 - q1 p2 of a pair of derivations, each vector
    the concatenated (p, q)."""
    m1, m2 = len(theta1) // 2, len(theta2) // 2
    return [x - y for x, y in zip(_mul2(theta1[:m1], theta2[m2:]),
                                  _mul2(theta1[m1:], theta2[:m2]))]


def _minors_certify(theta1, theta2, target) -> bool:
    """True iff the determinant of the pair is a nonzero constant times
    target."""
    det = _det(theta1, theta2)
    lead = next((i for i, t in enumerate(target) if t), None)
    if len(det) != len(target) or lead is None or not det[lead]:
        return False
    # det = (det[lead] / target[lead]) * target, without dividing
    return all(d * target[lead] == t * det[lead] for d, t in zip(det, target))


def _times_power(P, form: LinearForm2, m: int) -> list[int]:
    """P times the integer-scaled form a u + b v to the m-th power, one
    linear form per step: the u^(n-j) v^j coefficient of P (a u + b v) is
    a P_j + b P_(j-1)."""
    a, b = form.int_coeffs
    for _ in range(m):
        P = [a * x + b * y for x, y in zip((*P, 0), (0, *P))]
    return P


def _product(M: Multiarrangement2, powers) -> list[int]:
    """The product of M's integer-scaled forms, each to its entry of
    powers."""
    P = [1]
    for f, m in zip(M.forms, powers):
        P = _times_power(P, f, m)
    return P


@lru_cache(maxsize=8192)
def _cofactor(M: Multiarrangement2) -> tuple[int, tuple[int, ...]] | None:
    """(i, Q) for the first form l_i of greatest weight and the product
    Q = prod_(j != i) l_j^(m_j), shared by phi_i (_closed_form) and
    _saito_target; None when M has no form."""
    i = max(range(len(M.mult)), key=M.mult.__getitem__, default=None)
    if i is None:
        return None
    return i, tuple(_product(M, [0 if j == i else m for j, m in enumerate(M.mult)]))


@lru_cache(maxsize=8192)
def _saito_target(M: Multiarrangement2) -> tuple[int, ...]:
    """The defining polynomial of M up to a nonzero constant: the product of
    its integer-scaled forms, each repeated by its multiplicity, read as
    _cofactor's Q times l_i^(m_i).  Built once for basis and saito_check,
    and a tuple, as the cache shares it."""
    if not M.forms:
        return (1,)
    i, Q = _cofactor(M)
    return tuple(_times_power(Q, M.forms[i], M.mult[i]))


def _closed_form(M: Multiarrangement2, k: int) -> list[int] | None:
    """A nonzero element of D(M)_k known in closed form, or None.

    - psi = (prod l_j^(m_j - 1)) (u d/du + v d/dv), of degree 1 + |m| - s
      for s forms: psi(l_j) = (prod l^(m - 1)) l_j, which l_j^(m_j)
      divides;
    - phi_i = (prod_(j != i) l_j^(m_j)) (b_i d/du - a_i d/dv), l_i = a_i u
      + b_i v a form of greatest weight, of degree |m| - m_i: phi_i(l_i) =
      0, and phi_i(l_j) carries the factor l_j^(m_j) for j != i.

    psi is taken when both have degree k.
    """
    if k == 1 + M.total - len(M.forms):
        P = _product(M, [m - 1 for m in M.mult])
        return P + [0, 0] + P
    cofactor = _cofactor(M)
    if cofactor is None or k != M.total - M.mult[cofactor[0]]:
        return None
    i, Q = cofactor
    a, b = M.forms[i].int_coeffs
    return [b * c for c in Q] + [-a * c for c in Q]


def _taylor_divisible(M: Multiarrangement2, v) -> bool:
    """True iff every row of _divisibility_rows(M, k) is zero on v, the
    concatenated (p, q) of degree k, with no row built.

    Row i of l = a u + b v dotted with v is the i-th entry of its form's
    Taylor conditions on g = a p + b q:
    - b != 0: sum_j g_j C(j, i) b^(k-j) (-a)^(j-i), the t^i coefficient of
      G(t) = sum_j g_j b^(k-j) t^j at t = -a, which is the remainder of the
      i-th synthetic division of G by t + a: Horner from the top, whose
      running values are the quotient's coefficients, divided again;
    - b = 0: l = u, and g = p's coefficient of u-degree i.
    Each is exactly its integer dot product, so this accepts and rejects
    the same vectors over Z as the rows."""
    k = len(v) // 2 - 1
    p, q = v[:k + 1], v[k + 1:]
    for form, m in zip(M.forms, M.mult):
        a, b = form.int_coeffs
        n = min(m, k + 1)
        if not b:
            if any(p[k + 1 - n:]):
                return False
            continue
        G, power = [], 1  # G's coefficients from t^k down
        for x, y in zip(reversed(p), reversed(q)):
            G.append((a * x + b * y) * power)
            power *= b
        for i in range(n):
            r = 0
            for j in range(k + 1 - i):
                r = G[j] = G[j] - a * r
            if r:
                return False
    return True


def _checked_closed_form(M: Multiarrangement2, k: int):
    """_closed_form(M, k), checked against every divisibility condition over
    Z by synthetic division (_taylor_divisible; FreenessCertificateFailure
    if zero or outside D(M)) and primitive."""
    v = _closed_form(M, k)
    if v is not None and (not any(v) or not _taylor_divisible(M, v)):
        raise FreenessCertificateFailure(
            f"the closed-form derivation of degree {k} is not in D(M)")
    return v and linalg._primitive_vec(v)


def _layer_vectors(M: Multiarrangement2, k: int, closed: bool):
    """Layer k: the checked closed form if closed, then the kernel, lazily."""
    v = _checked_closed_form(M, k) if closed else None
    yield from () if v is None else (v,)
    yield from _deriv_kernel(M, k)


def _theta1(M: Multiarrangement2, e1: int, e2: int):
    """The first of _layer_vectors(M, e1, e1 < e2): psi or phi_i when one
    has degree e1 < e2, as layer e1 is then one-dimensional (its free
    pattern), else the certified layer's; unit_last prints either alike."""
    return next(_layer_vectors(M, e1, e1 < e2))


def basis(M: Multiarrangement2) -> tuple[Derivation2, Derivation2]:
    """Certified homogeneous basis (degrees e1 <= e2), through unit_last.

    theta1 spans layer e1 of exponents(M) (_theta1).  theta2 is the first
    vector w of the certified layer e2 with a nonzero determinant against
    theta1, the first outside W = S_d theta1, d = e2 - e1: in a free module
    of rank 2, theta1, of least degree, is a basis element, so v = a theta1
    + b theta2' for a basis (theta1, theta2'), det(theta1, v) = b
    det(theta1, theta2'), and v is in W iff b = 0.

    It is read off the first vector of _layer_vectors(M, e2, e1 < e2) with
    a nonzero determinant, reduced against the shifts u^(d-i) v^i theta1
    from the highest down: each shift's last nonzero column c is cleared,
    then the content.  With L theta1's last nonzero entry, a step scales
    the candidate by L, when L != 1, and subtracts its entry in c times the
    shift on theta1's support, the 2(e1 + 1) entries where the shift can
    be nonzero; no shift is built.  The c are distinct, the set C, and
    free columns of the layer's kernel_basis other than w's, as the kernel
    vectors before w lie in W; so w is zero on C.  Layer e2 is W + <w>, and W is triangular
    on C with a nonzero diagonal, so the layer's vectors zero on C form a
    line, which holds w and the nonzero reduced candidate: unit_last prints
    both alike, and a kernel vector comes out unchanged.  The pair is a
    basis iff its determinant is a nonzero constant times the defining
    polynomial (Saito 1980), checked; FreenessCertificateFailure otherwise.
    Each Derivation2 keeps the vector certified as its int_vector.
    """
    e1, e2 = exponents(M).as_pair()
    theta1 = _theta1(M, e1, e2)
    layer = _layer_vectors(M, e2, e1 < e2)
    theta2 = next((v for v in layer if any(_det(theta1, v))), None)
    if theta2 is None:
        raise FreenessCertificateFailure("no independent second basis vector")
    theta2, m1, m2 = list(theta2), e1 + 1, e2 + 1
    f = linalg.free_column(theta1)
    last, c0 = theta1[f], f + (e2 - e1 if f >= m1 else 0)
    for i in range(e2 - e1, -1, -1):
        t = theta2[c0 + i]
        if t:
            if last != 1:
                theta2 = [last * x for x in theta2]
            for j in range(m1):
                theta2[i + j] -= t * theta1[j]
                theta2[m2 + i + j] -= t * theta1[m1 + j]
    theta2 = linalg._primitive_vec(theta2)
    if not _minors_certify(theta1, theta2, _saito_target(M)):
        raise FreenessCertificateFailure("basis candidates fail the determinant certificate")
    return tuple(Derivation2.from_vector(linalg.unit_last(v), tuple(v))
                 for v in (theta1, theta2))


@lru_cache(maxsize=8192)
def exponents(M: Multiarrangement2) -> Exponents:
    """The degrees (e1 <= e2) of a basis, e2 = |m| - e1, as D(M) is free of
    rank 2 with e1 + e2 = |m| (Ziegler 1989).

    U = min(|m| // 2, |m| - max m, 1 + |m| - s), s the number of forms,
    bounds e1 from above: psi and phi_i (_closed_form) are nonzero elements
    of degrees 1 + |m| - s and |m| - m_i, and e1 <= e2.  A nonzero layer
    below U would make layer U - 1 nonzero, D(M) being a module, so e1 = U
    when U = 0 or when the divisibility conditions of degree U - 1 have
    full column rank 2U modulo WORD_PRIME, a full rank over Q (see
    linalg.rank_mod); no kernel is computed.  Generic exponents are as
    balanced as these bounds allow (Wakefield and Yuzvinsky 2007), and
    nearly every restriction takes this path, route "bound".

    Otherwise one certified layer decides, route "layer", as in
    criteria._external_splitting: in K = (|m| - 1) // 2 < |m| / 2 <= e2 the
    free pattern is max(0, K - e1 + 1), and e1 <= |m| // 2 <= K + 1, so e1
    = K + 1 - dim _deriv_kernel(M, K).  FreenessCertificateFailure unless
    0 <= e1 <= U, which also refuses an e1 above |m| / 2, as U <= |m| // 2.
    """
    total = M.total
    U = min(total // 2, total - max(M.mult, default=0), 1 + total - len(M.forms))
    if U == 0 or linalg.rank_mod(_divisibility_rows(M, U - 1), 2 * U,
                                 linalg.WORD_PRIME) == 2 * U:
        return Exponents(U, total - U, "bound")
    K = (total - 1) // 2
    e1 = K + 1 - len(_deriv_kernel(M, K))
    if not 0 <= e1 <= U:
        raise FreenessCertificateFailure(
            f"layer {K} gives e1 = {e1} against the bound {U} for total {total}")
    return Exponents(e1, total - e1, "layer")


def saito_check(theta1: Derivation2, theta2: Derivation2,
                M: Multiarrangement2) -> bool:
    """Saito's criterion: the pair is a basis iff its determinant is a nonzero
    constant times the defining polynomial (with multiplicities).  Scaling
    either derivation by a nonzero constant scales the determinant alike, so
    both are checked as integer vectors: the int_vector basis certified, and
    for a derivation built elsewhere its coefficients' primitive integer
    vector."""
    return _minors_certify(*(
        linalg._int_row(theta.coeff_vector()) if theta.int_vector is None
        else theta.int_vector for theta in (theta1, theta2)), _saito_target(M))
