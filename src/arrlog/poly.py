"""Dense homogeneous polynomials in 2 or 3 variables over the rationals,
and restriction to a line.

A polynomial of degree d is a coefficient vector indexed by the degree-d
monomials in graded-lexicographic order (largest exponent on the first
variable first).  All downstream computations work degree by degree, so a
dense per-degree vector feeds the exact linear solver directly.

Every line is read in one frame, line_frame: the coordinate it
eliminates, the two it keeps and the integer points P, Q that span it.  No
other module derives them.  Every restriction of a ternary form to a line
goes through line_restriction, the integer matrix that evaluates it at the
points sP + tQ of the line, or restrict, that matrix applied to some forms:
the line blocks of the point system of D_H0(A) and the property-[P] image
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
from typing import NamedTuple

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


class LineFrame(NamedTuple):
    """The frame of a line beta . x = 0: the coordinate f it eliminates,
    the two it keeps, u < v, and the points P = beta_f e_u - beta_u e_f and
    Q = beta_f e_v - beta_v e_f, which span the line; sP + tQ has
    (u, v) = beta_f (s, t)."""

    f: int
    u: int
    v: int
    P: tuple[int, int, int]
    Q: tuple[int, int, int]


def line_frame(beta) -> LineFrame:
    """The frame every restriction to the line beta uses: f is the coordinate
    of largest |beta_f|, ties preferring z, then y, then x."""
    b0, b1, b2 = beta
    a0, a1, a2 = abs(b0), abs(b1), abs(b2)
    if a2 >= a1 and a2 >= a0:
        return LineFrame(2, 0, 1, (b2, 0, -b0), (0, b2, -b1))
    if a1 >= a0:
        return LineFrame(1, 0, 2, (b1, -b0, 0), (0, -b2, b1))
    return LineFrame(0, 1, 2, (-b1, b0, 0), (-b2, 0, b0))


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

    With P and Q of line_frame(beta), x^mu becomes
    beta_f^(mu_u + mu_v) s^mu_u t^mu_v (-beta_u s - beta_v t)^mu_f: lead is
    the power of beta_f, r0 = mu_v, and xs is the binomial expansion, which
    depends on mu_f alone.  On the line, (s, t) = (u, v) / beta_f in the
    frame's coordinates, so a restricted form is beta_f^k times the one in
    those coordinates.
    """
    f, u, v, _, _ = line_frame(beta)
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
    with no matrix built.  With P and Q of line_frame(beta), alpha(sP + tQ)
    has the minors beta_f alpha_u - beta_u alpha_f and
    beta_f alpha_v - beta_v alpha_f."""
    f, u, v, _, _ = line_frame(beta)
    bf, bu, bv = beta[f], beta[u], beta[v]
    return [[bf * a[u] - bu * a[f], bf * a[v] - bv * a[f]] for a in alphas]
