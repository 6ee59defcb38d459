"""Central line arrangements in the projective plane.

An arrangement is a finite set of pairwise non-proportional linear forms in
x, y, z with rational coefficients.  This module holds the combinatorial
layer: the intersection points with multiplicities, per-line point counts,
the global Tjurina number, the degree-two quotient of the characteristic
polynomial, balancedness, and the (n, r) normal form of that quotient.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .linalg import _int_row, unit_last
from .poly import HomPoly, linear


class ParseError(ValueError):
    """Malformed input document."""


class ZeroForm(ParseError):
    """A line was given by the zero linear form."""


class DuplicateLine(ParseError):
    """Two input lines are proportional, hence equal in the projective plane."""


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form up to a nonzero scalar, stored once: as its
    primitive integer vector with first nonzero entry positive, which
    decides equality and hashing.  Subclasses set nvars."""

    int_coeffs: tuple[int, ...]

    @classmethod
    def make(cls, coeffs):
        """The form of nvars ints or Fractions; ParseError on another count,
        ZeroForm on the zero form."""
        if len(coeffs) != cls.nvars:
            raise ParseError(f"expected {cls.nvars} coefficients, got {len(coeffs)}")
        v = _int_row(coeffs)
        lead = next((c for c in v if c), 0)
        if not lead:
            raise ZeroForm("zero linear form")
        return cls(tuple(v) if lead > 0 else tuple(-c for c in v))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The Fractions scaled to first nonzero coefficient 1, for printing."""
        lead = next(c for c in self.int_coeffs if c)
        return tuple(Fraction(c, lead) for c in self.int_coeffs)

    def to_json(self) -> list:
        """coeffs as JSON: ints where integral, "p/q" strings otherwise."""
        return [int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                for c in self.coeffs]


class LinearForm3(LinearForm):
    """A line in P^2."""

    nvars = 3

    def poly(self) -> HomPoly:
        return linear(3, self.coeffs)

    def __str__(self) -> str:
        return str(self.poly())


@dataclass(frozen=True)
class Arrangement:
    """Nonempty sequence of pairwise distinct lines, with an optional name."""

    lines: tuple[LinearForm3, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.lines:
            raise ParseError("an arrangement needs at least one line")
        if len(set(self.lines)) != len(self.lines):
            raise DuplicateLine("proportional lines in input")
        # hashed once, not per lru_cache lookup: a hash walks every form
        object.__setattr__(self, "_hash", hash(self.lines))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.lines)

    def index_of(self, form: LinearForm3) -> int | None:
        try:
            return self.lines.index(form)
        except ValueError:
            return None


def arrangement(rows, name=None) -> Arrangement:
    return Arrangement(tuple(LinearForm3.make(r) for r in rows), name)


# ---------------------------------------------------------------------------
# parsing

_NUM_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
_INT_RE = re.compile(r"-?[0-9]+")


def ascii_int(text: str) -> int | None:
    """The integer text writes in the ASCII digits 0-9 only, with an
    optional minus sign, else None; int() would also take other Unicode
    digits, underscores, a plus sign and surrounding blanks."""
    return int(text) if _INT_RE.fullmatch(text) else None


def _parse_number(v):
    if isinstance(v, bool):
        raise ParseError(f"not a number: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str) and _NUM_RE.match(v.strip()):
        try:
            return Fraction(v.strip())
        except ZeroDivisionError:
            raise ParseError(f"zero denominator: {v!r}") from None
    raise ParseError(f"malformed rational: {v!r}")


# a factored expression's tokens: a parenthesized factor, a bare variable,
# separators, or anything else, an error
_FACTORED_TOKEN = re.compile(r"\(([^()]*)\)|([xyz])|[\s*]+|(.)", re.S)
# a linear factor: terms, each an optional integer (ASCII digits only) and
# a variable, with a sign between terms and optionally before the first
_LINEAR_FACTOR = re.compile(
    r"\s*[+-]?\s*[0-9]*\s*[xyz](\s*[+-]\s*[0-9]*\s*[xyz])*\s*")
_TERM = re.compile(r"([+-]?)\s*([0-9]*)\s*([xyz])")


def parse_factored(text: str) -> list[LinearForm3]:
    """Parse a product of linear factors in x, y, z with integer coefficients.

    Factors are bare variables or parenthesized linear forms, optionally
    separated by '*', e.g. "xyz(x+4y)(x+5y+z)(y+z)".  Inside parentheses a
    sign separates the terms, each an optional integer and a variable:
    "(xy)", "(2x3y)", "(x+)" and "(x--y)" are rejected.
    """
    forms = []
    for token in _FACTORED_TOKEN.finditer(text):
        body, var, bad = token.groups()
        if bad is not None:
            raise ParseError("unbalanced parenthesis" if bad == "(" else
                             f"unexpected character {bad!r} at position {token.start()}")
        if var:
            forms.append(LinearForm3.make([int(var == v) for v in "xyz"]))
        elif body is not None:
            if not _LINEAR_FACTOR.fullmatch(body):
                raise ParseError(f"malformed linear factor ({body}): a sign "
                                 "separates terms, each an optional integer "
                                 "and a variable")
            coeffs = [0, 0, 0]
            for sign, digits, v in _TERM.findall(body):
                coeffs["xyz".index(v)] += int(sign + (digits or "1"))
            forms.append(LinearForm3.make(coeffs))
    if not forms:
        raise ParseError("empty factored expression")
    return forms


def parse_arrangement(document) -> Arrangement:
    """Parse an input document: a JSON string/bytes or an already-loaded dict.

    Exactly one of "lines" (rows of three numbers, ints or "p/q" strings) or
    "factored" (a product of linear factors) must be present.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e}") from None
        except UnicodeDecodeError as e:
            raise ParseError(f"input is not valid UTF-8: {e}") from None
    if not isinstance(document, dict):
        raise ParseError("input document must be a JSON object")
    name = document.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError('"name" must be a string')
    has_lines = "lines" in document
    has_factored = "factored" in document
    if has_lines == has_factored:
        raise ParseError('exactly one of "lines" / "factored" must be present')
    if has_factored:
        if not isinstance(document["factored"], str):
            raise ParseError('"factored" must be a string')
        forms = parse_factored(document["factored"])
    else:
        rows = document["lines"]
        if not isinstance(rows, list) or not rows:
            raise ParseError('"lines" must be a nonempty list of coefficient rows')
        forms = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ParseError(f"coefficient row must have 3 entries: {row!r}")
            forms.append(LinearForm3.make([_parse_number(v) for v in row]))
    return Arrangement(tuple(forms), name)


def to_document(A: Arrangement) -> dict:
    doc = {"lines": [l.to_json() for l in A.lines]}
    if A.name:
        doc["name"] = A.name
    return doc


# ---------------------------------------------------------------------------
# intersection points

@dataclass(frozen=True)
class FlatPoint:
    """An intersection point, stored as its primitive integer vector with
    last nonzero entry positive, and the sorted indices of its lines."""

    int_point: tuple[int, int, int]
    incident_lines: tuple[int, ...]

    @property
    def point(self) -> tuple[Fraction, Fraction, Fraction]:
        """The Fractions scaled to last nonzero coordinate 1, for printing."""
        return unit_last(self.int_point)

    @property
    def multiplicity(self) -> int:
        return len(self.incident_lines)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


@lru_cache(maxsize=4096)
def intersection_points(A: Arrangement) -> tuple[FlatPoint, ...]:
    """All pairwise intersection points, each pair covered exactly once: the
    one place that computes a point, as the primitive cross product of two
    lines (FlatPoint.int_point).  Sorted by FlatPoint.point, whose Fractions
    are built once per point, so the output is deterministic."""
    by_point: dict[tuple, set[int]] = {}
    lines = A.lines
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a, b, c = _cross(lines[i].int_coeffs, lines[j].int_coeffs)
            g = gcd(a, b, c) if (c or b or a) > 0 else -gcd(a, b, c)
            by_point.setdefault((a // g, b // g, c // g), set()).update((i, j))
    pts = [FlatPoint(p, tuple(sorted(s))) for p, s in by_point.items()]
    pts.sort(key=lambda fp: fp.point)
    return tuple(pts)


def n_H(A: Arrangement, H: int) -> int:
    """Number of distinct intersection points on line H."""
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    return sum(1 for X in intersection_points(A) if H in X.incident_lines)


def tjurina(A: Arrangement) -> int:
    """Global Tjurina number of the curve the lines define: the sum of
    (m_p - 1)^2 over the intersection points, since an ordinary m-fold point
    is quasi-homogeneous and its Tjurina number is its Milnor number."""
    return sum((X.multiplicity - 1) ** 2 for X in intersection_points(A))


# ---------------------------------------------------------------------------
# characteristic polynomial data

@dataclass(frozen=True)
class CharPolyData:
    """chi(A,t)/(t-1) = t^2 - (|A|-1) t + b2_0, with exact integer data."""

    size: int
    b2_0: int

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return (1, -(self.size - 1), self.b2_0)

    def value(self, t: int) -> int:
        return t * t - (self.size - 1) * t + self.b2_0


class LatticeError(AssertionError):
    """Internal cross-check between lattice routes failed."""


def _chi_via_moebius(A: Arrangement) -> tuple[int, int, int, int]:
    """Coefficients of chi(A,t) by Moebius recursion over the flats."""
    pts = intersection_points(A)
    m = len(A)
    mu_lines = [-1] * m
    mu_points = {X: -(1 + sum(mu_lines[i] for i in X.incident_lines)) for X in pts}
    # t^3 - m t^2 + (sum of point Moebius values) t [+ origin term if essential]
    c1 = sum(mu_points.values())
    # the origin is a rank-3 flat exactly when the lines do not share a point
    concurrent = len(pts) == 1 and pts[0].multiplicity == m
    if m <= 2 or concurrent:
        c0 = 0
    else:
        c0 = -(1 - m + c1)
    return (1, -m, c1, c0)


@lru_cache(maxsize=4096)
def chi0(A: Arrangement) -> CharPolyData:
    """Quadratic quotient of the characteristic polynomial by (t - 1).

    Computed from the closed form over the point multiplicities and
    cross-checked against the Moebius recursion on the lattice, once per
    arrangement.
    """
    m = len(A)
    pts = intersection_points(A)
    b2_0 = sum(X.multiplicity - 1 for X in pts) - (m - 1)
    # cross-check: divide the Moebius-route chi by (t - 1)
    c3, c2, c1, c0 = _chi_via_moebius(A)
    # synthetic division by (t - 1)
    q2 = c3
    q1 = c2 + q2
    q0 = c1 + q1
    rem = c0 + q0
    if rem != 0 or (q2, q1, q0) != (1, -(m - 1), b2_0):
        raise LatticeError(
            f"characteristic polynomial routes disagree: "
            f"moebius {(c3, c2, c1, c0)} vs closed form b2_0={b2_0}")
    return CharPolyData(size=m, b2_0=b2_0)


# ---------------------------------------------------------------------------
# balancedness and the (n, r) normal form

@dataclass(frozen=True)
class BalancedReport:
    balanced: bool
    violations: tuple[tuple[int, FlatPoint], ...]


def is_balanced(A: Arrangement) -> BalancedReport:
    """True iff every induced multiplicity m(X)-1 is at most (|A|-1)/2.

    Violations are returned as (line, point) pairs: the point X together
    with each line through it whose restriction carries the oversized weight.
    """
    m = len(A)
    bad = []
    for X in intersection_points(A):
        if 2 * (X.multiplicity - 1) > m - 1:
            for H in X.incident_lines:
                bad.append((H, X))
    return BalancedReport(balanced=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class NRForm:
    """chi0 written as (t - n)(t - n - r) + c with n, r >= 0 and 2n + r = |A| - 1."""

    n: int
    r: int
    c: int


def nr_form(A: Arrangement) -> NRForm:
    """Normal form of chi0: the largest n with nonnegative residual.

    The residual c = b2_0 - n(n + r) decreases as n grows toward
    (|A| - 1)/2, so the largest n keeping c >= 0 is well defined (n = 0
    always qualifies).
    """
    data = chi0(A)
    s = data.size - 1
    best = None
    for n in range(s // 2 + 1):
        c = data.b2_0 - n * (s - n)
        if c >= 0:
            best = NRForm(n=n, r=s - 2 * n, c=c)
    assert best is not None
    return best

