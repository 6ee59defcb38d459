"""Dense exact linear algebra over the rationals.

Matrices are lists of rows; every entry is a ``fractions.Fraction`` (plain
ints are accepted and coerced).  Elimination is fraction-free: each row is
scaled to integers, pivots are chosen by smallest bit-size among the nonzero
candidates, and rows are reduced by their gcd after every elimination step.
The reduced row echelon form of a matrix is unique, so every result here is
a deterministic function of the input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = list[Fraction]
Mat = list[Vec]


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
    """Clear denominators and divide by the content, keeping the sign."""
    if all(isinstance(x, int) for x in row):
        ints = list(row)
    else:
        fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
        lcm = 1
        for x in fracs:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        ints = [int(x * lcm) for x in fracs]
    g = _content(ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _reduce_rows(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Forward elimination to row echelon form over the integers.

    Returns the nonzero echelon rows and their pivot columns.  Pivot rows are
    chosen by smallest absolute pivot entry (bit-size), which keeps the
    intermediate integers small; the final RREF is unique regardless.
    """
    work = [r for r in rows if any(r)]
    echelon: list[list[int]] = []
    pivots: list[int] = []
    col = 0
    while work and col < ncols:
        candidates = [r for r in work if r[col] != 0]
        if not candidates:
            col += 1
            continue
        piv = min(candidates, key=lambda r: abs(r[col]).bit_length())
        work.remove(piv)
        p = piv[col]
        nxt = []
        for r in work:
            v = r[col]
            if v != 0:
                r = [p * a - v * b for a, b in zip(r, piv)]
                g = _content(r)
                if g > 1:
                    r = [a // g for a in r]
            if any(r):
                nxt.append(r)
        work = nxt
        echelon.append(piv)
        pivots.append(col)
        col += 1
    return echelon, pivots


def rref(matrix: Mat, ncols: int) -> tuple[Mat, list[int]]:
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    echelon, pivots = _reduce_rows([_int_row(r) for r in matrix], ncols)
    # Back-substitution, still fraction-free.
    for i in range(len(echelon) - 1, -1, -1):
        c = pivots[i]
        for j in range(i):
            v = echelon[j][c]
            if v != 0:
                p = echelon[i][c]
                row = [p * a - v * b for a, b in zip(echelon[j], echelon[i])]
                g = _content(row)
                if g > 1:
                    row = [a // g for a in row]
                echelon[j] = row
    out = []
    for row, c in zip(echelon, pivots):
        p = Fraction(row[c])
        out.append([Fraction(a) / p for a in row])
    return out, pivots


def rank(matrix: Mat, ncols: int) -> int:
    _, pivots = _reduce_rows([_int_row(r) for r in matrix], ncols)
    return len(pivots)


def kernel_basis(matrix: Mat, ncols: int) -> Mat:
    """Echelon-normalized basis of the right null space.

    One basis vector per free column, in increasing column order, with a 1 in
    the free column and the pivot entries solved from the RREF.  Equal inputs
    give identical bases.
    """
    reduced, pivots = rref(matrix, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def echelon_basis(vectors, ncols: int) -> Mat:
    """The basis kernel_basis returns for the span of the given vectors.

    That is the RREF of the span read with the columns reversed: each vector
    has a 1 in its last nonzero column, where the others have a 0, and the
    vectors come in increasing order of that column.
    """
    reduced, _ = rref([list(reversed(v)) for v in vectors], ncols)
    return [row[::-1] for row in reversed(reduced)]


def solve_unique(matrix: Mat, rhs: Vec, ncols: int) -> Vec | None:
    """Solve M x = rhs when the solution is unique; None if inconsistent.

    Raises ValueError if the system is underdetermined.
    """
    aug = [list(r) + [b] for r, b in zip(matrix, rhs)]
    reduced, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    x = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row[ncols]
    return x


class SpanBuilder:
    """Incrementally built row space, for ranks of growing vector families.

    Rows are kept in integer echelon form (not fully reduced); adding a
    vector reduces it against the current rows and records it when a new
    pivot appears.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, list[int]] = {}  # pivot column -> row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vec) -> list[int]:
        """Reduce vec against the span; zero vector iff vec is in the span.

        The leading nonzero column only moves right during reduction, so the
        scan never restarts.
        """
        row = _int_row(vec)
        rows = self.rows
        i = 0
        while i < self.ncols:
            v = row[i]
            if v == 0:
                i += 1
                continue
            other = rows.get(i)
            if other is None:
                return row
            p = other[i]
            row = [p * a - v * b for a, b in zip(row, other)]
            g = _content(row)
            if g > 1:
                row = [a // g for a in row]
            i += 1
        return row

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def add(self, vec) -> bool:
        """Add vec to the span; True if the dimension grew."""
        row = self.residual(vec)
        piv = next((c for c, a in enumerate(row) if a != 0), None)
        if piv is None:
            return False
        self.rows[piv] = row
        return True
