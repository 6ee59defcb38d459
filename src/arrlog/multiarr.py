"""Two-variable multiarrangements and their derivation modules.

The induced structure of an arrangement on one of its lines weights each
restricted point by (number of lines through it) - 1.  The derivation module
of such a weighted arrangement is always free of rank 2; this module computes
its graded dimensions, exponents, and an explicit certified basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import linalg
from .arrangement import Arrangement, _canonical
from .poly import (HomPoly, LineParam, linear, monomial_count, product,
                   restriction_param, substitute_line)


class FreenessCertificateFailure(AssertionError):
    """The graded dimension sequence violates the rank-2 free pattern.

    Mathematically impossible for a 2-variable multiarrangement; raised only
    on an implementation bug.
    """


@dataclass(frozen=True, order=True)
class LinearForm2:
    """A nonzero binary linear form, first nonzero coefficient scaled to 1."""

    coeffs: tuple[Fraction, Fraction]

    @classmethod
    def make(cls, coeffs) -> "LinearForm2":
        return cls(_canonical(coeffs, 2))

    def poly(self) -> HomPoly:
        return linear(2, self.coeffs)


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

    @property
    def total(self) -> int:
        return sum(self.mult)

    def defining_poly(self) -> HomPoly:
        return product((f.poly() for f, m in zip(self.forms, self.mult)
                        for _ in range(m)), 2)

    def to_json(self) -> dict:
        def enc(c: Fraction):
            return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

        return {"forms": [[enc(c) for c in f.coeffs] for f in self.forms],
                "mult": list(self.mult)}

    @classmethod
    def from_json(cls, doc: dict) -> "Multiarrangement2":
        forms = tuple(LinearForm2.make([Fraction(str(v)) for v in row])
                      for row in doc["forms"])
        return cls(forms, tuple(int(m) for m in doc["mult"]))


def multiarrangement(pairs) -> Multiarrangement2:
    """Build from (coefficients, multiplicity) pairs, sorted canonically."""
    items = sorted((LinearForm2.make(c), m) for c, m in pairs)
    return Multiarrangement2(tuple(f for f, _ in items), tuple(m for _, m in items))


@dataclass(frozen=True)
class Derivation2:
    """p * d/du + q * d/dv in the two restriction coordinates."""

    p: HomPoly
    q: HomPoly

    def __post_init__(self):
        if self.p.degree != self.q.degree or self.p.nvars != 2 or self.q.nvars != 2:
            raise ValueError("components must be binary forms of equal degree")

    @property
    def degree(self) -> int:
        return self.p.degree

    def apply(self, form: HomPoly) -> HomPoly:
        """Value on a linear form a*u + b*v."""
        a, b = form.coefficient((1, 0)), form.coefficient((0, 1))
        return self.p.scale(a) + self.q.scale(b)

    def coeff_vector(self) -> list[Fraction]:
        return list(self.p.coeffs) + list(self.q.coeffs)


@dataclass(frozen=True)
class Exponents:
    e1: int
    e2: int

    def as_pair(self) -> tuple[int, int]:
        return (self.e1, self.e2)


def ziegler_restriction(A: Arrangement, H: int) -> tuple[Multiarrangement2, LineParam]:
    """Induced weighted arrangement on line H, plus the parametrization used.

    Every other line restricts to a binary form; proportional restrictions
    are grouped and each group's cardinality (the point multiplicity minus
    one) becomes the weight.  The parametrization is restriction_param of H.
    """
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    param = restriction_param(A.lines[H].coeffs)
    counts: dict[LinearForm2, int] = {}
    for i, form in enumerate(A.lines):
        if i == H:
            continue
        restricted = substitute_line(form.poly(), param)
        key = LinearForm2.make((restricted.coefficient((1, 0)),
                                restricted.coefficient((0, 1))))
        counts[key] = counts.get(key, 0) + 1
    items = sorted(counts.items())
    M = Multiarrangement2(tuple(f for f, _ in items), tuple(m for _, m in items))
    assert M.total == len(A) - 1
    return M, param


def _divisibility_rows(M: Multiarrangement2, k: int) -> list[list[int]]:
    """Linear conditions on the coefficient vector (p, q) of a derivation of
    degree k, expressing that each form's power divides its value.

    A form l = a u + b v of weight m has l^m dividing g = a p + b q exactly
    when the t^i coefficients of g(r + t d) vanish for i < m, where
    r = (-b, a) spans l = 0 and d = (a, b) is transversal to it.  The column
    of u^(k-j) v^j in p (resp. q) thus contributes a (resp. b) times the t^i
    coefficient of (-b + a t)^(k-j) (a + b t)^j.  The form is first scaled
    to integer coefficients, which changes no condition.
    """
    rows: list[list[int]] = []
    for form, m in zip(M.forms, M.mult):
        den = lcm(*(c.denominator for c in form.coeffs))
        a, b = (int(c * den) for c in form.coeffs)
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


def deriv_space(M: Multiarrangement2, k: int) -> list[Derivation2]:
    """Deterministic basis of the degree-k layer of the derivation module."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    out = []
    for v in _deriv_kernel(M, k):
        p = HomPoly(2, k, tuple(v[: k + 1]))
        q = HomPoly(2, k, tuple(v[k + 1:]))
        out.append(Derivation2(p, q))
    return out


def deriv_dim(M: Multiarrangement2, k: int) -> int:
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return len(_deriv_kernel(M, k))


def _free_pattern(k: int, e1: int, e2: int) -> int:
    return max(0, k - e1 + 1) + max(0, k - e2 + 1)


def rank2_exponents(dim, total: int) -> tuple[int, int]:
    """The degrees (e1 <= e2, e1 + e2 = total) of a free graded module of
    rank 2, read off its graded dimensions dim(k).

    e1 is the first degree up to total // 2 with dim(e1) > 0 and
    e2 = total - e1; the free pattern is then certified on every degree up
    to e2 + 1.
    """
    e1 = next((k for k in range(total // 2 + 1) if dim(k) > 0), None)
    if e1 is None:
        raise FreenessCertificateFailure(f"no exponent pair found for total {total}")
    e2 = total - e1
    for k in range(e2 + 2):
        got = dim(k)
        want = _free_pattern(k, e1, e2)
        if got != want:
            raise FreenessCertificateFailure(
                f"dimension {got} at degree {k} does not match free pattern "
                f"{want} for exponents ({e1},{e2})")
    return e1, e2


def exponents(M: Multiarrangement2) -> Exponents:
    """The unique pair (e1 <= e2) matching the graded dimension sequence."""
    return Exponents(*rank2_exponents(lambda k: deriv_dim(M, k), M.total))


def basis(M: Multiarrangement2) -> tuple[Derivation2, Derivation2]:
    """Certified homogeneous basis (degrees e1 and e2).

    The first vector is the first echelon kernel vector at degree e1; the
    second is the first degree-e2 kernel vector independent of the
    polynomial multiples of the first.
    """
    exp = exponents(M)
    e1, e2 = exp.e1, exp.e2
    theta1 = deriv_space(M, e1)[0]
    span = linalg.SpanBuilder(2 * (e2 + 1))
    for mono in _monomial_polys(e2 - e1):
        span.add(Derivation2(mono * theta1.p, mono * theta1.q).coeff_vector())
    theta2 = None
    for cand in deriv_space(M, e2):
        if not span.contains(cand.coeff_vector()):
            theta2 = cand
            break
    if theta2 is None:
        raise FreenessCertificateFailure("no independent second basis vector")
    if not saito_check(theta1, theta2, M):
        raise FreenessCertificateFailure("basis candidates fail the determinant certificate")
    return theta1, theta2


def _monomial_polys(d: int) -> list[HomPoly]:
    out = []
    for i in range(monomial_count(2, d)):
        coeffs = [Fraction(0)] * monomial_count(2, d)
        coeffs[i] = Fraction(1)
        out.append(HomPoly(2, d, tuple(coeffs)))
    return out


def saito_check(theta1: Derivation2, theta2: Derivation2,
                M: Multiarrangement2) -> bool:
    """Determinant certificate: the pair is a basis iff the determinant of
    their component matrix is a nonzero scalar multiple of the defining
    polynomial (with multiplicities)."""
    if theta1.degree + theta2.degree != M.total:
        return False
    det = theta1.p * theta2.q - theta1.q * theta2.p
    if det.is_zero:
        return False
    Q = M.defining_poly()
    scalar = None
    for cd, cq in zip(det.coeffs, Q.coeffs):
        if (cq == 0) != (cd == 0):
            return False
        if cq != 0:
            if scalar is None:
                scalar = cd / cq
            elif cd / cq != scalar:
                return False
    return scalar is not None and scalar != 0
