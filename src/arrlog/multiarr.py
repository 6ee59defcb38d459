"""Two-variable multiarrangements and their derivation modules.

The induced structure of an arrangement on one of its lines weights each
restricted point by (number of lines through it) - 1.  The derivation module
of such a weighted arrangement is always free of rank 2; this module computes
its graded layers, exponents, and a basis certified by Saito's determinant
(Saito 1980; Ziegler 1989 for multiarrangements) through rank2_basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache, reduce
from math import comb

from . import linalg
from .arrangement import Arrangement, LinearForm
from .poly import HomPoly, LineParam, restrict, restriction_param


class FreenessCertificateFailure(AssertionError):
    """No pair of layer vectors passes Saito's determinant certificate.

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
def ziegler_restriction(A: Arrangement, H: int) -> tuple[Multiarrangement2, LineParam]:
    """Induced weighted arrangement on line H, plus the parametrization used,
    restriction_param of H.

    Every other line restricts by poly.restrict to a binary form, a nonzero
    multiple of its restriction in that parametrization, so its canonical
    LinearForm2 is the same; proportional restrictions are grouped and each
    group's cardinality (the point multiplicity minus one) becomes the
    weight.
    """
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    beta = A.lines[H].int_coeffs
    others = A.lines[:H] + A.lines[H + 1:]
    counts = Counter(LinearForm2.make(ell) for ell in restrict(
        beta, [f.int_coeffs for f in others], 1))
    items = sorted(counts.items(), key=_BY_FORM)
    M = Multiarrangement2(tuple(f for f, _ in items), tuple(m for _, m in items))
    assert M.total == len(A) - 1
    return M, restriction_param(beta)


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


def rank2_basis(layer, total: int, target) -> tuple[tuple, tuple]:
    """Basis of a free rank-2 module of derivations (p, q) with degrees
    summing to total; layer(k) is the echelon basis in degree k.

    theta1 is the first vector of the first nonzero layer e1 <= total // 2,
    theta2 the first of layer total - e1 with a nonzero determinant against
    theta1.  That is the first vector outside the multiples S theta1: in a
    free module of rank 2, theta1, of least degree, is a basis element, so
    v = a theta1 + b theta2' for a basis (theta1, theta2'), det(theta1, v)
    = b det(theta1, theta2'), and v is in S theta1 iff b = 0.  The pair is
    a basis iff its determinant is a nonzero constant times target, which
    is checked; FreenessCertificateFailure otherwise.
    """
    for e1 in range(total // 2 + 1):
        first = layer(e1)
        if first:
            break
    else:
        raise FreenessCertificateFailure(f"no exponent pair found for total {total}")
    theta1 = first[0]
    theta2 = next((v for v in layer(total - e1) if any(_det(theta1, v))), None)
    if theta2 is None:
        raise FreenessCertificateFailure("no independent second basis vector")
    if not _minors_certify(theta1, theta2, target):
        raise FreenessCertificateFailure("basis candidates fail the determinant certificate")
    return theta1, theta2


def _saito_target(M: Multiarrangement2) -> list[int]:
    """The defining polynomial of M up to a nonzero constant: the product of
    its integer-scaled forms, each repeated by its multiplicity."""
    return reduce(_mul2, (f.int_coeffs
                          for f, m in zip(M.forms, M.mult) for _ in range(m)), [1])


@lru_cache(maxsize=8192)
def basis(M: Multiarrangement2) -> tuple[Derivation2, Derivation2]:
    """Certified homogeneous basis (degrees e1 <= e2): rank2_basis with
    Saito's determinant against the defining polynomial, through unit_last."""
    return tuple(Derivation2.from_vector(linalg.unit_last(v)) for v in rank2_basis(
        lambda k: _deriv_kernel(M, k), M.total, _saito_target(M)))


def exponents(M: Multiarrangement2) -> Exponents:
    """The degrees (e1 <= e2) of the certified basis."""
    theta1, theta2 = basis(M)
    return Exponents(theta1.degree, theta2.degree)


def saito_check(theta1: Derivation2, theta2: Derivation2,
                M: Multiarrangement2) -> bool:
    """Saito's criterion: the pair is a basis iff its determinant is a nonzero
    constant times the defining polynomial (with multiplicities)."""
    return _minors_certify(theta1.coeff_vector(), theta2.coeff_vector(),
                           _saito_target(M))
