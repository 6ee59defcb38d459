"""Reference implementations that the tests compare arrlog against.

Each one reaches a result by a slower, more direct route than the library
does: the Fraction coefficients of a linear form, dense Fraction
polynomials and their products, restriction by substitution, the Jacobian
of the defining polynomial and its syzygies, D_H(A) as explicit
derivations, the syzygy layers by their per-line conditions and exact
ranks, the derivation layers of a weighted arrangement, spans,
solutions and RREFs by exact elimination (SpanBuilder and integer_rref),
the new generators of a syzygy layer, deletion of a line, and the span
rule for the second basis vector of a free module of rank 2.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from arrlog import linalg, poly
from arrlog.arrangement import Arrangement, chi0
from arrlog.derivation import (_ar_kernel, _h0_incidence, _shift_vec,
                               dh_projection)
from arrlog.multiarr import (Derivation2, Multiarrangement2, _deriv_kernel,
                             exponents, multiples, ziegler_restriction)
from arrlog.poly import (CertificationFailure, HomPoly, _index_table,
                         from_terms, line_restriction, linear,
                         monomial_count, monomials, restrict,
                         restriction_param)

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
    e = restriction_param(cs).eliminated
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

@dataclass(frozen=True)
class LineParam(poly.LineParam):
    """The eliminated coordinate equals expr[0] * u + expr[1] * v on the
    line, (u, v) the retained coordinates."""

    expr: tuple[Fraction, Fraction]


def line_param(coefficients, eliminated=None) -> LineParam:
    """Solve the line for one coordinate, by default the one
    restriction_param eliminates."""
    cs = [Fraction(c) for c in coefficients]
    if eliminated is None:
        eliminated = restriction_param(cs).eliminated
    if cs[eliminated] == 0:
        raise ValueError("cannot eliminate a variable with zero coefficient")
    others = [i for i in range(3) if i != eliminated]
    return LineParam(eliminated,
                     (-cs[others[0]] / cs[eliminated], -cs[others[1]] / cs[eliminated]))


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
    reduced, pivots = linalg.integer_rref([list(reversed(v)) for v in vectors], ncols)
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
    components of theta that restriction_param(alpha_H0) keeps.

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


def rank(matrix, ncols: int) -> int:
    """Rank of integer rows, by exact elimination over Z."""
    _, pivots = linalg._reduce_rows([linalg._primitive_vec(r) for r in matrix],
                                    ncols)
    return len(pivots)


def ar_dim_by_rank(A: Arrangement, k: int) -> int:
    """dim D_{H0}(A)_k from the exact rank of h0_conditions."""
    ncols = 2 * monomial_count(3, k)
    return ncols - rank(h0_conditions(A, k), ncols)


# ---------------------------------------------------------------------------
# weighted arrangements on a line

def deriv_space(M: Multiarrangement2, k: int) -> list[Derivation2]:
    """Basis of the degree-k layer of the derivation module."""
    return [Derivation2.from_vector(v) for v in _deriv_kernel(M, k)]


def deriv_dim(M: Multiarrangement2, k: int) -> int:
    return len(_deriv_kernel(M, k))


def quick_defect(A: Arrangement, H: int) -> tuple[int, tuple[int, int]]:
    """Defect b2^0 - e1 e2 of the restriction onto line H and its exponents
    (e1, e2), from that restriction itself."""
    M, _ = ziegler_restriction(A, H)
    e1, e2 = exponents(M).as_pair()
    return chi0(A).b2_0 - e1 * e2, (e1, e2)


# ---------------------------------------------------------------------------
# spans and RREFs by exact elimination


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


def rref_columns(rows, ncols: int, lead: int):
    """linalg.rref_columns by integer_rref: the pivots, and the entries of
    each column from lead on over the pivot rows, each row divided by its
    pivot entry; None if a pivot falls at or after lead."""
    reduced, pivots = linalg.integer_rref(rows, ncols)
    if pivots and pivots[-1] >= lead:
        return None
    return pivots, [[Fraction(row[f], row[c]) for row, c in zip(reduced, pivots)]
                    for f in range(lead, ncols)]


def solve_columns(cols, rhs):
    """linalg.solve_columns by one integer_rref of [cols | rhs]: unique
    solutions exactly when the pivots are the first len(cols) columns."""
    n = len(cols)
    rows, pivots = linalg.integer_rref(
        [linalg._int_row(r) for r in zip(*cols, *rhs)], n + len(rhs))
    if pivots != list(range(n)):
        return None
    return [[Fraction(row[j], row[i]) for i, row in enumerate(rows)]
            for j in range(n, n + len(rhs))]


def image_vectors(A: Arrangement, H: int, k: int, thetas):
    """criteria._image_vectors for the given D_H(A)_k basis thetas, by one
    integer_rref of the rows [reversed theta | its restriction to H]."""
    beta = A.lines[H].int_coeffs
    f = restriction_param(beta).eliminated
    m = monomial_count(3, k)
    kept = restrict(beta, [theta[c * m:(c + 1) * m] for theta in thetas
                           for c in range(3) if c != f], k)
    rows = [list(t[::-1]) + a + b
            for t, a, b in zip(thetas, kept[::2], kept[1::2])]
    reduced, pivots = linalg.integer_rref(rows, 3 * m)
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
