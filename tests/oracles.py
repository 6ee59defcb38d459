"""Reference implementations that the tests compare arrlog against.

Each one reaches a result by a slower, more direct route than the library
does: the Fraction coefficients of a linear form, the intersection points
grouped pair by pair in Fractions, dense Fraction
polynomials and their products, restriction by substitution, the Jacobian
of the defining polynomial and its syzygies, D_H(A) as explicit
derivations, the restricted gradient along an external line and its
coefficient matrix, the syzygy layers by their per-line conditions and exact
ranks, membership in a layer by restriction to every line, the kept
values of a derivation on H0 by restriction to it, the derivation
layers of a weighted arrangement and its exponents by a scan of them,
kernels, spans, solutions and RREFs by fraction-free elimination over Z
(integer_rref, _exact_kernel and SpanBuilder), where arrlog reads them
off a kernel certified modulo 127-bit moduli, the bound on a syzygy layer
from the whole point system modulo a prime, with no line peeled, the new
generators of a syzygy layer, the relations of given generators in one
degree, deletion of a line, the span rule for the second basis vector of a
free module of rank 2, and supersolvable arrangements, whose exponents are
known.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, lcm

from arrlog import linalg
from arrlog.arrangement import Arrangement, LinearForm3, _cross, chi0
from arrlog.derivation import (_ar_kernel, _combine, _h0_incidence,
                               _point_row, _shift_vec, _uv_rows,
                               dh_projection)
from arrlog.multiarr import (Derivation2, Exponents, FreenessCertificateFailure,
                             Multiarrangement2, _deriv_kernel, _mul2,
                             exponents, multiples, ziegler_restriction)
from arrlog.poly import (CertificationFailure, HomPoly, _index_table,
                         from_terms, line_restriction, linear,
                         monomial_count, monomials, restrict)

# ---------------------------------------------------------------------------
# linear forms


def canonical(coeffs, n: int) -> tuple:
    """The n coefficients as Fractions divided by the first nonzero one,
    computed in Fractions throughout; LinearForm3 and LinearForm2 derive
    theirs from the primitive integer vector instead."""
    cs = [Fraction(c) for c in coeffs]
    assert len(cs) == n
    lead = next(c for c in cs if c != 0)
    return tuple(c / lead for c in cs)


# ---------------------------------------------------------------------------
# intersection points


def intersection_points_reference(A: Arrangement) -> list[tuple[tuple, tuple]]:
    """(point, incident lines) for each intersection point of A, sorted by
    point: the cross product of each pair of lines, scaled in Fractions to
    last nonzero coordinate 1, groups the pairs.  intersection_points groups
    them by the primitive integer point instead and builds the Fractions
    once per point."""
    by_point: dict[tuple, set[int]] = {}
    for i, j in combinations(range(len(A)), 2):
        p = _cross(A.lines[i].int_coeffs, A.lines[j].int_coeffs)
        last = next(c for c in reversed(p) if c)
        by_point.setdefault(tuple(Fraction(c, last) for c in p), set()).update((i, j))
    return sorted((p, tuple(sorted(s))) for p, s in by_point.items())


# ---------------------------------------------------------------------------
# dense polynomials in Fractions


def zero(nvars: int, degree: int) -> HomPoly:
    return HomPoly(nvars, degree, (Fraction(0),) * monomial_count(nvars, degree))


def one(nvars: int) -> HomPoly:
    return HomPoly(nvars, 0, (Fraction(1),))


def poly_mul(p: HomPoly, q: HomPoly) -> HomPoly:
    """Exact product; bilinear, degree adds.  0 * q is the zero polynomial."""
    if p.nvars != q.nvars:
        raise ValueError("nvars mismatch")
    d = p.degree + q.degree
    out = [Fraction(0)] * monomial_count(p.nvars, d)
    table = _index_table(p.nvars, d)
    qm = [(m, c) for m, c in zip(monomials(q.nvars, q.degree), q.coeffs) if c]
    for mp, cp in zip(monomials(p.nvars, p.degree), p.coeffs):
        if not cp:
            continue
        for mq, cq in qm:
            out[table[tuple(a + b for a, b in zip(mp, mq))]] += cp * cq
    return HomPoly(p.nvars, d, tuple(out))


def product(polys, nvars: int = 3) -> HomPoly:
    acc = one(nvars)
    for p in polys:
        acc = poly_mul(acc, p)
    return acc


def diff(p: HomPoly, var: int) -> HomPoly:
    """Exact partial derivative; degree drops by one."""
    if p.degree == 0:
        raise ValueError("cannot differentiate a constant homogeneous form")
    out = [Fraction(0)] * monomial_count(p.nvars, p.degree - 1)
    table = _index_table(p.nvars, p.degree - 1)
    for m, c in zip(monomials(p.nvars, p.degree), p.coeffs):
        e = m[var]
        if c and e:
            low = list(m)
            low[var] -= 1
            out[table[tuple(low)]] += c * e
    return HomPoly(p.nvars, p.degree - 1, tuple(out))


def evaluate(p: HomPoly, point) -> Fraction:
    total = Fraction(0)
    for m, c in zip(monomials(p.nvars, p.degree), p.coeffs):
        if c:
            term = c
            for v, e in zip(point, m):
                term *= Fraction(v) ** e
            total += term
    return total


def var_shift(p: HomPoly, var: int) -> HomPoly:
    """Multiply by the given coordinate variable."""
    d = p.degree + 1
    out = [Fraction(0)] * monomial_count(p.nvars, d)
    table = _index_table(p.nvars, d)
    for m, c in zip(monomials(p.nvars, p.degree), p.coeffs):
        if c:
            e = list(m)
            e[var] += 1
            out[table[tuple(e)]] = c
    return HomPoly(p.nvars, d, tuple(out))


def divide_linear(p: HomPoly, coefficients) -> HomPoly:
    """Exact quotient of a 3-variable form by the linear form with the given
    coefficients; CertificationFailure if the remainder is nonzero."""
    cs = [Fraction(c) for c in coefficients]
    e = eliminated(cs)
    rem = dict(zip(monomials(3, p.degree), p.coeffs))
    quot = {}
    # peel off the terms divisible by the eliminated coordinate, highest
    # power first; each step cancels its term and changes only lower powers
    for m in sorted(rem, key=lambda m: -m[e]):
        if rem[m] and m[e]:
            low = tuple(a - (i == e) for i, a in enumerate(m))
            quot[low] = t = rem[m] / cs[e]
            for i in range(3):
                rem[tuple(a + (j == i) for j, a in enumerate(low))] -= t * cs[i]
    if any(rem.values()):
        raise CertificationFailure(f"{p} is not divisible by {linear(3, cs)}")
    return from_terms(3, p.degree - 1, quot)


def defining_poly(A: Arrangement) -> HomPoly:
    """The product of the integer-scaled forms of the lines."""
    return product((linear(3, l.int_coeffs) for l in A.lines), 3)


def multi_defining_poly(M: Multiarrangement2) -> HomPoly:
    """The product of the forms, each repeated by its multiplicity."""
    return product((linear(2, f.coeffs) for f, m in zip(M.forms, M.mult)
                    for _ in range(m)), 2)


# ---------------------------------------------------------------------------
# restriction by substitution in Fractions, the oracle for poly.restrict

def eliminated(coefficients) -> int:
    """The coordinate that poly.line_frame eliminates, by the rule as first
    written: the largest |coefficient|, ties preferring z, then y, then x."""
    return max(range(3), key=lambda i: (abs(coefficients[i]), i))


@dataclass(frozen=True)
class LineParam:
    """A line solved for its coordinate `eliminated`, which equals
    expr[0] * u + expr[1] * v on the line, (u, v) the retained
    coordinates in increasing index order."""

    eliminated: int
    expr: tuple[Fraction, Fraction]

    @property
    def retained(self) -> tuple[int, int]:
        u, v = (i for i in range(3) if i != self.eliminated)
        return u, v


def line_param(coefficients, eliminated_coordinate=None) -> LineParam:
    """Solve the line for one coordinate, by default the one
    poly.line_frame eliminates."""
    cs = [Fraction(c) for c in coefficients]
    e = (eliminated(cs) if eliminated_coordinate is None
         else eliminated_coordinate)
    if cs[e] == 0:
        raise ValueError("cannot eliminate a variable with zero coefficient")
    u, v = (i for i in range(3) if i != e)
    return LineParam(e, (-cs[u] / cs[e], -cs[v] / cs[e]))


def substitute_line(p: HomPoly, param: LineParam) -> HomPoly:
    """Restrict a 3-variable form to the line, in the retained coordinates:
    (c0 u + c1 v)^e expanded by the binomial theorem for each monomial."""
    d = p.degree
    out = [Fraction(0)] * (d + 1)
    table = _index_table(2, d)
    u, v = param.retained
    c0, c1 = param.expr
    for m, c in zip(monomials(3, d), p.coeffs):
        if not c:
            continue
        e = m[param.eliminated]
        for t in range(e + 1):
            w = (c0 ** (e - t)) * (c1 ** t)  # 0^0 == 1
            if w:
                out[table[(m[u] + e - t, m[v] + t)]] += c * w * comb(e, t)
    return HomPoly(2, d, tuple(out))


# ---------------------------------------------------------------------------
# the Jacobian and explicit derivations

def jacobian(A: Arrangement) -> tuple[HomPoly, HomPoly, HomPoly, HomPoly]:
    """(f, f_x, f_y, f_z) for f = defining_poly(A), after asserting the
    Euler identity x f_x + y f_y + z f_z = |A| f."""
    f = defining_poly(A)
    fx, fy, fz = diff(f, 0), diff(f, 1), diff(f, 2)
    euler = var_shift(fx, 0) + var_shift(fy, 1) + var_shift(fz, 2)
    if euler != f.scale(len(A)):
        raise CertificationFailure("Euler identity failed")
    return f, fx, fy, fz


def restricted_gradient(A: Arrangement, form: LinearForm3) -> list[list[int]]:
    """(f_x, f_y, f_z) at the points sP + tQ of the line beta, with P, Q as
    in poly.line_restriction and f the product of the integer-scaled
    alpha_j, as coefficient vectors: g_c = sum_j alpha_j,c prod_(i != j)
    l_i, l_i = alpha_i(sP + tQ), by products of binary forms.  The
    coefficient-space formulation of criteria._external_splitting."""
    ells = restrict(form.int_coeffs, [line.int_coeffs for line in A.lines], 1)
    rests = [reduce(_mul2, ells[:j] + ells[j + 1:], [1]) for j in range(len(ells))]
    return [[sum(line.int_coeffs[c] * r[i] for line, r in zip(A.lines, rests))
             for i in range(len(A))] for c in range(3)]


def splitting_rows(A: Arrangement, form: LinearForm3, k: int) -> list[list[int]]:
    """The coefficient matrix of S_k^3 -> S_(k + |A| - 1), (a, b, c) ->
    a g_0 + b g_1 + c g_2 for g = restricted_gradient: column j of
    component c is s^(k - j) t^j g_c."""
    cols = [m for gc in restricted_gradient(A, form) for m in multiples(gc, 1, k)]
    return [list(r) for r in zip(*cols)]


@dataclass(frozen=True)
class Derivation3:
    """a * d/dx + b * d/dy + c * d/dz with homogeneous components.

    A Jacobian syzygy is the derivation (a, b, c) with a f_x + b f_y + c f_z = 0.
    """

    a: HomPoly
    b: HomPoly
    c: HomPoly

    @classmethod
    def from_vector(cls, v, k: int) -> "Derivation3":
        """From the concatenated degree-k coefficient vectors of a, b, c."""
        m = monomial_count(3, k)
        return cls(HomPoly(3, k, tuple(v[:m])), HomPoly(3, k, tuple(v[m:2 * m])),
                   HomPoly(3, k, tuple(v[2 * m:])))

    @property
    def degree(self) -> int:
        return self.a.degree

    @property
    def components(self) -> tuple[HomPoly, HomPoly, HomPoly]:
        return (self.a, self.b, self.c)

    def coeff_vector(self) -> list[Fraction]:
        return list(self.a.coeffs) + list(self.b.coeffs) + list(self.c.coeffs)

    def apply_linear(self, coeffs) -> HomPoly:
        return (self.a.scale(coeffs[0]) + self.b.scale(coeffs[1])
                + self.c.scale(coeffs[2]))


def shift_vec(v, k: int, var: int) -> list:
    """A degree-k derivation coefficient vector times a coordinate, through
    Derivation3 and var_shift."""
    return [c for comp in Derivation3.from_vector(v, k).components
            for c in var_shift(comp, var).coeffs]


def ar_basis(A: Arrangement, k: int) -> list[Derivation3]:
    """Basis of the degree-k Jacobian syzygies.

    theta in D(A) has theta(f) = g f with g = sum of theta(alpha_K) / alpha_K,
    so |A| theta - g theta_E annihilates f; on D_{H0}(A) this map is the
    isomorphism onto D_0(A).
    """
    n = len(A)
    out = []
    for v in _ar_kernel(A, k):
        theta = Derivation3.from_vector(v, k)
        g = zero(3, k - 1)
        for form in A.lines:
            g = g + divide_linear(theta.apply_linear(form.coeffs), form.coeffs)
        out.append(Derivation3(*(c.scale(n) - var_shift(g, i)
                                 for i, c in enumerate(theta.components))))
    return out


def echelon_basis(vectors, ncols: int) -> list[list[int]]:
    """The basis kernel_basis returns for the span of the given integer
    vectors: the RREF of the span read with the columns reversed, each row
    made primitive and positive in its pivot, the last nonzero column."""
    reduced, pivots = integer_rref([list(reversed(v)) for v in vectors], ncols)
    return [linalg._primitive_vec(row[::-1] if row[c] > 0 else [-a for a in reversed(row)])
            for row, c in zip(reversed(reduced), reversed(pivots))]


def dh_kernel(A: Arrangement, H: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Degree-k layer of D_H(A), in the echelon form kernel_basis gives:
    echelon_basis of dh_projection."""
    return tuple(tuple(v) for v in echelon_basis(
        dh_projection(A, H, k), 3 * monomial_count(3, k)))


def dh_basis(A: Arrangement, H: int, k: int) -> list[Derivation3]:
    """Integer basis of the degree-k derivations preserving every line and
    annihilating the defining form of line H."""
    return [Derivation3.from_vector(v, k) for v in dh_kernel(A, H, k)]


def in_dh(A: Arrangement, H: int, theta: Derivation3) -> bool:
    """Membership test for an explicitly given derivation: theta(alpha_H)
    is zero, and every other theta(alpha_K) restricts to zero on line K."""
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    if not theta.apply_linear(A.lines[H].coeffs).is_zero:
        return False
    for K, form in enumerate(A.lines):
        if K == H:
            continue
        beta = form.int_coeffs
        value = theta.apply_linear(beta).coeffs
        if any(restrict(beta, [value], theta.degree)[0]):
            return False
    return True


def h0_conditions(A: Arrangement, k: int) -> list[list[int]]:
    """The conditions defining D_{H0}(A)_k, H0 = line 0, on the two
    components of theta that poly.line_frame(alpha_H0) keeps.

    theta(alpha_H0) = 0 gives the eliminated component e as
    theta_e = -(sum of alpha_i theta_i, i != e) / alpha_e, so alpha_e
    theta(alpha_K) = sum of (alpha_e beta_i - beta_e alpha_i) theta_i over
    the kept i, for every other line K with form beta.  That value vanishes
    on K exactly when its line_restriction(beta, k) vanishes.  Columns are
    the degree-k monomials of the first kept component, then of the second:
    (|A| - 1)(k + 1) rows, where derivation._ar_kernel solves a smaller
    system from the intersection points.
    """
    m = monomial_count(3, k)
    rows: list[list[int]] = []
    for _, beta, (w0, w1) in _h0_incidence(A)[2]:
        block = [[0] * (2 * m) for _ in range(k + 1)]
        for col, (r0, lead, xs) in enumerate(line_restriction(beta, k)):
            a0, a1 = w0 * lead, w1 * lead
            for r, x in enumerate(xs, r0):
                if x:
                    block[r][col], block[r][m + col] = a0 * x, a1 * x
        rows.extend(block)
    return rows


def in_module(A: Arrangement, vecs, k: int) -> bool:
    """Whether every degree-k derivation given lies in D_{H0}(A), by
    restriction: theta(alpha_H0) = 0, and the line_restriction of
    theta(alpha_K) to every other line K is zero."""
    m = monomial_count(3, k)
    comps = [[v[c * m:(c + 1) * m] for c in range(3)] for v in vecs]
    alpha, *others = (line.int_coeffs for line in A.lines)
    if any(any(_combine(alpha, cs, m)) for cs in comps):
        return False
    return not any(any(r) for beta in others
                   for r in restrict(beta, [_combine(beta, cs, m) for cs in comps], k))


def kept_values_by_restriction(A: Arrangement, vec, d: int) -> list[int]:
    """The two kept components of a degree-d derivation at the d + 1 points
    of derivation._h0_points, point by point: restricted to H0 by
    line_restriction, whose row r is the coefficient of s^(d - r) t^r at
    sP + tQ, then evaluated at (s, t) = (1, j) for j <= d, which is the
    point P + jQ."""
    alpha = A.lines[0].int_coeffs
    m = monomial_count(3, d)
    forms = restrict(alpha, [vec[i * m:(i + 1) * m]
                             for i in line_param(alpha).retained], d)
    return [sum(c * j ** r for r, c in enumerate(form) if c)
            for j in range(d + 1) for form in forms]


def rank(matrix, ncols: int) -> int:
    """Rank of integer rows, by exact elimination over Z."""
    _, pivots = _reduce_rows([linalg._primitive_vec(r) for r in matrix], ncols)
    return len(pivots)


def ar_dim_by_rank(A: Arrangement, k: int) -> int:
    """dim D_{H0}(A)_k from the exact rank of h0_conditions."""
    ncols = 2 * monomial_count(3, k)
    return ncols - rank(h0_conditions(A, k), ncols)


def off_h0_rows(A: Arrangement, k: int) -> list[list[int]]:
    """E_k: the degree-k monomials at the intersection points off H0."""
    return [_point_row(P, k) for P, _ in _h0_incidence(A)[0]]


def point_bound_unpeeled(A: Arrangement, k: int) -> int:
    """len(U) of derivation._point_system(A, k, WORD_PRIME), with no line
    peeled: the dimension over F_p, p = WORD_PRIME, of the point system's
    kernel, through a kernel of all of E_k modulo p."""
    p = linalg.WORD_PRIME
    m = monomial_count(3, k)
    G = linalg.kernel_mod([_point_row(P, k, p) for P, _ in _h0_incidence(A)[0]],
                          m, p)
    return 2 * len(G) - linalg.rank_mod(_uv_rows(A, k, G), 2 * len(G), p)


# ---------------------------------------------------------------------------
# weighted arrangements on a line

def deriv_space(M: Multiarrangement2, k: int) -> list[Derivation2]:
    """Basis of the degree-k layer of the derivation module."""
    return [Derivation2.from_vector(v) for v in _deriv_kernel(M, k)]


def deriv_dim(M: Multiarrangement2, k: int) -> int:
    return len(_deriv_kernel(M, k))


def exponents_by_scan(M: Multiarrangement2) -> Exponents:
    """The exponents of D(M): e1 the first degree up to |m| // 2 with a
    nonzero certified layer, and e2 = |m| - e1 (Ziegler 1989)."""
    for e1 in range(M.total // 2 + 1):
        if _deriv_kernel(M, e1):
            return Exponents(e1, M.total - e1)
    raise FreenessCertificateFailure(f"no exponent pair found for total {M.total}")


def quick_defect(A: Arrangement, H: int) -> tuple[int, tuple[int, int]]:
    """Defect b2^0 - e1 e2 of the restriction onto line H and its exponents
    (e1, e2), from that restriction itself."""
    M, _ = ziegler_restriction(A, H)
    e1, e2 = exponents(M).as_pair()
    return chi0(A).b2_0 - e1 * e2, (e1, e2)


# ---------------------------------------------------------------------------
# kernels, spans and RREFs by exact elimination


def _reduce_rows(rows, ncols: int):
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
                r = linalg._primitive_vec([p * a - v * b for a, b in zip(r, piv)])
            if any(r):
                nxt.append(r)
        work = nxt
        echelon.append(piv)
        pivots.append(col)
        col += 1
    return echelon, pivots


def integer_rref(matrix, ncols: int):
    """The reduced row echelon form of integer rows up to one integer factor
    per row, with its pivot columns: row i is row[pivots[i]] times the
    reduced row, so a caller divides only the entries it reads."""
    echelon, pivots = _reduce_rows(matrix, ncols)
    # Back-substitution, still fraction-free.
    for i in range(len(echelon) - 1, -1, -1):
        c = pivots[i]
        for j in range(i):
            v = echelon[j][c]
            if v != 0:
                p = echelon[i][c]
                echelon[j] = linalg._primitive_vec(
                    [p * a - v * b for a, b in zip(echelon[j], echelon[i])])
    return echelon, pivots


def _exact_kernel(rows, ncols: int):
    """linalg.kernel_basis by exact elimination: with d_i the pivot entry of
    row i of integer_rref and D the lcm of those of the rows nonzero in the
    free column f, the vector is D at f and -D row_i[f] / d_i at each
    pivot."""
    reduced, pivots = integer_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        hits = [(row, c) for row, c in zip(reduced, pivots) if row[free]]
        den = lcm(*(row[c] for row, c in hits))
        v = [0] * ncols
        v[free] = den
        for row, c in hits:
            v[c] = -row[free] * (den // row[c])
        basis.append(linalg._primitive_vec(v))
    return basis


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

    def residual(self, row):
        """Reduce the integer vector row against the span; zero vector iff
        row is in the span.

        The leading nonzero column only moves right during reduction, so the
        scan never restarts.
        """
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
            row = linalg._primitive_vec([p * a - v * b for a, b in zip(row, other)])
            i += 1
        return row

    def add(self, vec) -> bool:
        """Add vec to the span; True if the dimension grew."""
        row = self.residual(vec)
        piv = next((c for c, a in enumerate(row) if a != 0), None)
        if piv is None:
            return False
        self.rows[piv] = row
        return True


def span_contains(span: SpanBuilder, vec) -> bool:
    """Whether the integer vector vec lies in the span."""
    return not any(span.residual(vec))


def layer_generators(A: Arrangement, k: int) -> list[tuple[int, ...]]:
    """The new minimal generators of degree k of D_{H0}(A): the vectors of
    _ar_kernel(A, k) that grow a SpanBuilder holding x, y and z times every
    vector of _ar_kernel(A, k - 1), added in that order."""
    span = SpanBuilder(3 * monomial_count(3, k))
    if k:
        for v in _ar_kernel(A, k - 1):
            for var in range(3):
                span.add(_shift_vec(v, k - 1, var))
    return [v for v in _ar_kernel(A, k) if span.add(v)]


def relation_vectors(A: Arrangement, gens, r: int) -> list[list[int]]:
    """Integer kernel of the evaluation map from degree-r combinations of the
    given generators onto the module; one coefficient block per generator."""
    blocks = [monomial_count(3, r - g) for g, _ in gens]
    ncols = sum(blocks)
    nrows = 3 * monomial_count(3, r)
    cols: list[list[int]] = []
    for g, vec in gens:
        for mono in monomials(3, r - g):
            v = vec
            d = g
            for var in range(3):
                for _ in range(mono[var]):
                    v = _shift_vec(v, d, var)
                    d += 1
            cols.append(list(v))
    matrix = [[cols[c][rw] for c in range(ncols)] for rw in range(nrows)]
    return linalg.kernel_basis(matrix, ncols)


def rref_columns(rows, ncols: int, lead: int):
    """linalg.rref_columns by integer_rref: the pivots, and the entries of
    each column from lead on over the pivot rows, each row divided by its
    pivot entry; None if a pivot falls at or after lead."""
    reduced, pivots = integer_rref(rows, ncols)
    if pivots and pivots[-1] >= lead:
        return None
    return pivots, [[Fraction(row[f], row[c]) for row, c in zip(reduced, pivots)]
                    for f in range(lead, ncols)]


def solve_columns(cols, rhs):
    """linalg.solve_columns by one integer_rref of [cols | rhs]: unique
    solutions exactly when the pivots are the first len(cols) columns."""
    n = len(cols)
    rows, pivots = integer_rref(
        [linalg._int_row(r) for r in zip(*cols, *rhs)], n + len(rhs))
    if pivots != list(range(n)):
        return None
    return [[Fraction(row[j], row[i]) for i, row in enumerate(rows)]
            for j in range(n, n + len(rhs))]


def image_vectors(A: Arrangement, H: int, k: int, thetas):
    """criteria._image_vectors for the given D_H(A)_k basis thetas, by one
    integer_rref of the rows [reversed theta | its restriction to H]."""
    beta = A.lines[H].int_coeffs
    f = eliminated(beta)
    m = monomial_count(3, k)
    kept = restrict(beta, [theta[c * m:(c + 1) * m] for theta in thetas
                           for c in range(3) if c != f], k)
    rows = [list(t[::-1]) + a + b
            for t, a, b in zip(thetas, kept[::2], kept[1::2])]
    reduced, pivots = integer_rref(rows, 3 * m)
    if len(pivots) != len(rows):
        raise CertificationFailure(f"dependent D_H basis at line {H}, degree {k}")
    scale = beta[f] ** k
    return tuple(tuple(Fraction(x, row[c] * scale) for x in row[3 * m:])
                 for row, c in zip(reversed(reduced), reversed(pivots)))


def without(A: Arrangement, index: int) -> Arrangement:
    """The arrangement with line index deleted."""
    if not 0 <= index < len(A):
        raise IndexError("line index out of range")
    return Arrangement(A.lines[:index] + A.lines[index + 1:])


def supersolvable(b: int, extra: int, seed: int) -> Arrangement:
    """A supersolvable arrangement, its lines shuffled by seed: b random
    lines off P = (0:0:1), the line through P and each point where two of
    them meet, and extra more lines through P.

    Every intersection point off P lies on one of its m lines through P, so
    P is a modular point of multiplicity m, and A is free with exponents
    (1, m - 1, |A| - m); its Jacobian syzygies have exponents (m - 1,
    |A| - m).  Deleting a line off P leaves P modular with the same m."""
    rng = random.Random(seed)
    off: list[LinearForm3] = []
    while len(off) < b:
        form = LinearForm3.make((rng.randint(-5, 5), rng.randint(-5, 5),
                                 rng.randint(1, 5)))
        if form not in off:
            off.append(form)
    through = []
    for K, L in combinations(off, 2):
        X = _cross(K.int_coeffs, L.int_coeffs)
        form = LinearForm3.make((X[1], -X[0], 0))
        if form not in through:
            through.append(form)
    while extra:
        form = LinearForm3.make((rng.randint(-5, 5), rng.randint(1, 5), 0))
        if form not in through:
            through.append(form)
            extra -= 1
    lines = off + through
    rng.shuffle(lines)
    return Arrangement(tuple(lines), f"supersolvable-{b}-{len(lines)}-{seed}")


def span_rule_theta2(layer, total: int):
    """The second basis vector of a free module of rank 2 by the span rule:
    the first vector of layer total - e1 outside the SpanBuilder of the
    multiples of theta1, the first vector of the first nonzero layer e1."""
    e1 = next(k for k in range(total // 2 + 1) if layer(k))
    theta1 = layer(e1)[0]
    span = SpanBuilder(2 * (total - e1 + 1))
    for m in multiples(theta1, 2, total - 2 * e1):
        span.add(m)
    return next(v for v in layer(total - e1) if not span_contains(span, v))
