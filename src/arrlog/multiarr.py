"""Two-variable multiarrangements and their derivation modules.

The induced structure of an arrangement on one of its lines weights each
restricted point by (number of lines through it) - 1.  The derivation module
of such a weighted arrangement is always free of rank 2 with exponents
summing to the total multiplicity (Ziegler 1989); this module computes its
graded layers, its exponents, and a basis certified by Saito's determinant
(Saito 1980).

Two derivations in closed form, psi and phi_i (_closed_form), bound the
least exponent e1 from above by U.  Nearly always one rank modulo
linalg.WORD_PRIME shows layer U - 1 to be zero, which gives e1 = U with no
kernel; otherwise one certified layer below half the total decides.  The
basis takes psi or phi_i as its first vector when it has degree e1 < e2,
and certified layers for the rest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache, reduce
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
    """p * d/du + q * d/dv in the two restriction coordinates."""

    p: HomPoly
    q: HomPoly

    def __post_init__(self):
        if self.p.degree != self.q.degree or self.p.nvars != 2 or self.q.nvars != 2:
            raise ValueError("components must be binary forms of equal degree")

    @classmethod
    def from_vector(cls, v) -> "Derivation2":
        """From the concatenated coefficient vectors of p and q."""
        m = len(v) // 2
        return cls(HomPoly(2, m - 1, tuple(v[:m])), HomPoly(2, m - 1, tuple(v[m:])))

    @property
    def degree(self) -> int:
        return self.p.degree

    def coeff_vector(self) -> list[Fraction]:
        return list(self.p.coeffs) + list(self.q.coeffs)


@dataclass(frozen=True)
class Exponents:
    e1: int
    e2: int

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
    the weight.
    """
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    beta = A.lines[H].int_coeffs
    others = A.lines[:H] + A.lines[H + 1:]
    counts = Counter(LinearForm2.make(ell) for ell in restrict_lines(
        beta, [f.int_coeffs for f in others]))
    items = sorted(counts.items(), key=_BY_FORM)
    M = Multiarrangement2(tuple(f for f, _ in items), tuple(m for _, m in items))
    assert M.total == len(A) - 1
    return M, line_frame(beta)


def _divisibility_rows(M: Multiarrangement2, k: int) -> list[list[int]]:
    """Linear conditions on the coefficient vector (p, q) of a derivation of
    degree k, expressing that each form's power divides its value.

    A form l = a u + b v of weight m has l^m dividing g = a p + b q exactly
    when the t^i coefficients of g(r + t d) vanish for i < m, where
    r = (-b, a) spans l = 0 and d = (a, b) is transversal to it.  The column
    of u^(k-j) v^j in p (resp. q) thus contributes a (resp. b) times the t^i
    coefficient of (-b + a t)^(k-j) (a + b t)^j.  The form is taken in its
    integer scaling, which changes no condition.
    """
    rows: list[list[int]] = []
    for form, m in zip(M.forms, M.mult):
        a, b = form.int_coeffs
        for i in range(min(m, k + 1)):
            row = [0] * (2 * (k + 1))
            for j in range(k + 1):
                c = sum(comb(k - j, s) * a ** s * (-b) ** (k - j - s)
                        * comb(j, i - s) * b ** (i - s) * a ** (j - i + s)
                        for s in range(max(0, i - j), min(i, k - j) + 1))
                row[j], row[k + 1 + j] = a * c, b * c
            rows.append(row)
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


def _product(M: Multiarrangement2, powers) -> list[int]:
    """The product of M's integer-scaled forms, each to its entry of
    powers."""
    return reduce(_mul2, (f.int_coeffs for f, m in zip(M.forms, powers)
                          for _ in range(m)), [1])


def _saito_target(M: Multiarrangement2) -> list[int]:
    """The defining polynomial of M up to a nonzero constant: the product of
    its integer-scaled forms, each repeated by its multiplicity."""
    return _product(M, M.mult)


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
    i = max(range(len(M.mult)), key=M.mult.__getitem__, default=None)
    if i is None or k != M.total - M.mult[i]:
        return None
    Q = _product(M, [0 if j == i else m for j, m in enumerate(M.mult)])
    a, b = M.forms[i].int_coeffs
    return [b * c for c in Q] + [-a * c for c in Q]


def _theta1(M: Multiarrangement2, e1: int, e2: int):
    """A vector spanning layer e1, which is one-dimensional when e1 < e2 (its
    free pattern): psi or phi_i when one has degree e1 < e2 (_closed_form),
    checked against every divisibility condition of degree e1 over Z and
    made primitive; otherwise the first vector of the certified layer.
    Either spans the layer, so unit_last prints them alike."""
    v = _closed_form(M, e1) if e1 < e2 else None
    if v is None:
        return _deriv_kernel(M, e1)[0]
    if not any(v) or any(sum(r * x for r, x in zip(row, v))
                         for row in _divisibility_rows(M, e1)):
        raise FreenessCertificateFailure(
            f"the closed-form derivation of degree {e1} is not in D(M)")
    return linalg._primitive_vec(v)


@lru_cache(maxsize=8192)
def basis(M: Multiarrangement2) -> tuple[Derivation2, Derivation2]:
    """Certified homogeneous basis (degrees e1 <= e2), through unit_last.

    theta1 spans layer e1 of exponents(M) (_theta1), and theta2 is the
    first vector of layer e2 with a nonzero determinant against theta1.
    That is the first vector outside the multiples S theta1: in a free
    module of rank 2, theta1, of least degree, is a basis element, so v = a
    theta1 + b theta2' for a basis (theta1, theta2'), det(theta1, v) = b
    det(theta1, theta2'), and v is in S theta1 iff b = 0.  The pair is a
    basis iff its determinant is a nonzero constant times the defining
    polynomial (Saito 1980), which is checked; FreenessCertificateFailure
    otherwise.
    """
    e1, e2 = exponents(M).as_pair()
    theta1 = _theta1(M, e1, e2)
    theta2 = next((v for v in _deriv_kernel(M, e2) if any(_det(theta1, v))), None)
    if theta2 is None:
        raise FreenessCertificateFailure("no independent second basis vector")
    if not _minors_certify(theta1, theta2, _saito_target(M)):
        raise FreenessCertificateFailure("basis candidates fail the determinant certificate")
    return tuple(Derivation2.from_vector(linalg.unit_last(v))
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
    nearly every restriction takes this path.

    Otherwise one certified layer decides, as in
    criteria._external_splitting: in K = (|m| - 1) // 2 < |m| / 2 <= e2 the
    free pattern is max(0, K - e1 + 1), and e1 <= |m| // 2 <= K + 1, so e1
    = K + 1 - dim _deriv_kernel(M, K).  FreenessCertificateFailure unless
    0 <= e1 <= U, which also refuses an e1 above |m| / 2, as U <= |m| // 2.
    """
    total = M.total
    U = min(total // 2, total - max(M.mult, default=0), 1 + total - len(M.forms))
    if U == 0 or linalg.rank_mod(_divisibility_rows(M, U - 1), 2 * U,
                                 linalg.WORD_PRIME) == 2 * U:
        return Exponents(U, total - U)
    K = (total - 1) // 2
    e1 = K + 1 - len(_deriv_kernel(M, K))
    if not 0 <= e1 <= U:
        raise FreenessCertificateFailure(
            f"layer {K} gives e1 = {e1} against the bound {U} for total {total}")
    return Exponents(e1, total - e1)


def saito_check(theta1: Derivation2, theta2: Derivation2,
                M: Multiarrangement2) -> bool:
    """Saito's criterion: the pair is a basis iff its determinant is a nonzero
    constant times the defining polynomial (with multiplicities).  Scaling
    either derivation by a nonzero constant scales the determinant alike, so
    both are checked as primitive integer vectors."""
    return _minors_certify(linalg._int_row(theta1.coeff_vector()),
                           linalg._int_row(theta2.coeff_vector()),
                           _saito_target(M))
