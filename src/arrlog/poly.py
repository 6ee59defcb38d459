"""Dense homogeneous polynomials in 2 or 3 variables over the rationals,
and restriction to a line.

A polynomial of degree d is a coefficient vector indexed by the degree-d
monomials in graded-lexicographic order (largest exponent on the first
variable first).  All downstream computations work degree by degree, so a
dense per-degree vector feeds the exact linear solver directly.

Every restriction of a ternary form to a line goes through
line_restriction, the integer matrix that evaluates it at the points
sP + tQ of the line, or restrict, that matrix applied to some forms: the
line blocks of the point system of D_H0(A) and the property-[P] image
vectors.  Lines restricted to a line need no matrix: restrict_lines reads
each off two 2 x 2 minors, for the weighted arrangement on a member line,
a deletion's lowered weight and the points where an external line meets
the arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

VAR_NAMES = ("x", "y", "z")


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Degree-d exponent tuples in graded-lexicographic order."""
    if nvars not in (2, 3):
        raise ValueError("only 2 or 3 variables are supported")
    if nvars == 2:
        return tuple((degree - j, j) for j in range(degree + 1))
    out = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            out.append((i, j, degree - i - j))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_table(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


def monomial_count(nvars: int, degree: int) -> int:
    return comb(degree + nvars - 1, nvars - 1)


def monomial_index(exps: tuple[int, ...], degree: int, nvars: int) -> int:
    if len(exps) != nvars or any(e < 0 for e in exps) or sum(exps) != degree:
        raise ValueError(f"bad exponent tuple {exps} for degree {degree}")
    return _index_table(nvars, degree)[tuple(exps)]


_ZERO = Fraction(0)


class CertificationFailure(AssertionError):
    """An exact identity that the mathematics guarantees failed to hold."""


@dataclass(frozen=True)
class HomPoly:
    """Homogeneous polynomial: dense grlex coefficient vector at one degree."""

    nvars: int
    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != monomial_count(self.nvars, self.degree):
            raise ValueError("coefficient vector has the wrong length")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_like(other)
        return HomPoly(self.nvars, self.degree,
                       tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        self._check_like(other)
        return HomPoly(self.nvars, self.degree,
                       tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "HomPoly":
        c = Fraction(c)
        return HomPoly(self.nvars, self.degree, tuple(c * a for a in self.coeffs))

    def _check_like(self, other: "HomPoly"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("nvars/degree mismatch")

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.coeffs[monomial_index(tuple(exps), self.degree, self.nvars)]

    def __str__(self) -> str:
        names = VAR_NAMES[: self.nvars]
        terms = []
        for m, c in zip(monomials(self.nvars, self.degree), self.coeffs):
            if not c:
                continue
            mono = "".join(
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e
            )
            if not mono:
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        s = terms[0]
        for t in terms[1:]:
            s += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return s


def from_terms(nvars: int, degree: int, terms: dict) -> HomPoly:
    coeffs = [_ZERO] * monomial_count(nvars, degree)
    for exps, c in terms.items():
        coeffs[monomial_index(tuple(exps), degree, nvars)] += Fraction(c)
    return HomPoly(nvars, degree, tuple(coeffs))


def linear(nvars: int, coefficients) -> HomPoly:
    cs = [Fraction(c) for c in coefficients]
    if len(cs) != nvars:
        raise ValueError("wrong number of coefficients")
    terms = {}
    for i, c in enumerate(cs):
        e = [0] * nvars
        e[i] = 1
        terms[tuple(e)] = c
    return from_terms(nvars, 1, terms)


@dataclass(frozen=True)
class LineParam:
    """Coordinates on a line a*x + b*y + c*z = 0: the coordinate eliminated
    and the two it retains, (u, v) in increasing index order."""

    eliminated: int

    @property
    def retained(self) -> tuple[int, int]:
        r = [i for i in range(3) if i != self.eliminated]
        return (r[0], r[1])


def restriction_param(coefficients) -> LineParam:
    """Parametrization of a line used for every restriction: the eliminated
    coordinate has the largest-magnitude coefficient, ties preferring z, then
    y, then x."""
    return LineParam(max(range(3), key=lambda i: (abs(coefficients[i]), i)))


@lru_cache(maxsize=256)
def line_restriction(beta: tuple[int, ...],
                     k: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The (k + 1) x C(k + 2, 2) integer matrix sending a degree-k monomial
    x^mu to its coefficients at the points sP + tQ of the line with
    primitive integer form beta, a tuple; row r holds the coefficient of
    s^(k - r) t^r.  Column mu is returned as (r0, lead, xs): the entries
    lead * xs[j] in rows r0 + j.  The matrix is cached, as every point
    system of a syzygy layer and every restriction of a form to a line
    reads it.

    P = beta_f e_u - beta_u e_f and Q = beta_f e_v - beta_v e_f for the
    coordinate f that restriction_param(beta) eliminates, so x^mu becomes
    beta_f^(mu_u + mu_v) s^mu_u t^mu_v (-beta_u s - beta_v t)^mu_f: lead is
    the power of beta_f, r0 = mu_v, and xs is the binomial expansion, which
    depends on mu_f alone.  On the line, (s, t) = (u, v) / beta_f in
    restriction_param's coordinates, so a restricted form is beta_f^k times
    the one in those coordinates.
    """
    f = restriction_param(beta).eliminated
    u, v = (i for i in range(3) if i != f)
    pu = [(-beta[u]) ** j for j in range(k + 1)]
    pv = [(-beta[v]) ** j for j in range(k + 1)]
    expansions = [tuple(comb(c, j) * pu[c - j] * pv[j] for j in range(c + 1))
                  for c in range(k + 1)]
    leads = [beta[f] ** (k - c) for c in range(k + 1)]
    return tuple((mu[v], leads[mu[f]], expansions[mu[f]])
                 for mu in monomials(3, k))


def restrict(beta, forms, k: int) -> list[list[int]]:
    """The degree-k ternary forms with integer coefficient vectors forms at
    the points sP + tQ of the line beta, one line_restriction applied to
    each: the k + 1 coefficients of s^k, s^(k - 1) t, ..., t^k."""
    matrix = line_restriction(tuple(beta), k)
    outs = []
    for coeffs in forms:
        out = [0] * (k + 1)
        for y, (r0, lead, xs) in zip(coeffs, matrix):
            if y:
                y *= lead
                for r, x in enumerate(xs, r0):
                    out[r] += y * x
        outs.append(out)
    return outs


def restrict_lines(beta, alphas) -> list[list[int]]:
    """The integer linear forms alphas at the points sP + tQ of the line
    beta, as (coefficient of s, coefficient of t): restrict(beta, alphas, 1)
    with no matrix built.  P = beta_f e_u - beta_u e_f and Q = beta_f e_v -
    beta_v e_f, as in line_restriction, so alpha(sP + tQ) has the minors
    beta_f alpha_u - beta_u alpha_f and beta_f alpha_v - beta_v alpha_f."""
    f = restriction_param(beta).eliminated
    u, v = (i for i in range(3) if i != f)
    bf, bu, bv = beta[f], beta[u], beta[v]
    return [[bf * a[u] - bu * a[f], bf * a[v] - bv * a[f]] for a in alphas]
