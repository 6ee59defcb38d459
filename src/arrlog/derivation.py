"""The graded module of Jacobian syzygies of an arrangement.

For a defining polynomial f (product of the lines), the syzygies
(a, b, c) with a f_x + b f_y + c f_z = 0 form a rank-2 graded module D_0(A)
whose minimal free resolution has length at most one.  Everything here is
read off degree by degree from certified layers: graded dimensions, minimal
generators, relation degrees (recovered from the Hilbert data of the free
relation module), and the classification free / nearly free / plus-one
generated.

The syzygies are not solved from the Jacobian matrix.  Ziegler's splittings
D(A) = S theta_E + D_0(A) = S theta_E + D_H(A) (Ziegler 1989,
"Multiarrangements of hyperplanes and their freeness") give graded
S-linear isomorphisms D_0(A) = D_H(A) for every line H, so the module is
computed as D_{H0}(A), H0 = line 0, from its own defining conditions:
theta(alpha_H0) = 0, and theta(alpha_K) vanishes on every other line K.

Most layers are certified with no kernel over Q.  Both kept components of
theta vanish at every intersection point off H0, and a form of degree d
that vanishes at more than d points of a line is divisible by its form
(Bezout).  So peeling off, one by one, lines through many of those points
proves the low layers zero, usually every one below the minimal degree,
with no elimination at all (_empty_through).  The other layers go through
the rank sandwich of _layer: Ziegler's sequence bounds a layer from
above by the layer below and the certified restriction exponents on H0, or
the point system (_point_system) solved modulo a prime does, and alpha_H0
times the layer below, with shifts and point derivations g_v d_v whose
restrictions to H0 are independent modulo a prime, bounds it from below.
Every chosen point derivation is checked exactly against its closed form,
which lies in the module, by one evaluation of each component
(_is_closed_form): at the Kronecker point (1, T, T^(k + 1)), with T above
every coefficient of their difference, a degree-k form takes the value
sum c_E T^E over distinct exponents E, zero only when every c_E is.  Each
decision of the sandwich reads only a rank, and the rank of an integer
matrix modulo any prime is at most its rank over Q, so one word-size prime
(linalg.WORD_PRIME) serves them all.  The point
derivations, g_v the product of the lines that miss the intersection point
v, span the top layers of generic arrangements (Yuzvinsky 1991: D_0(A) is
generated in degree |A| - 2), and the lowest nonzero layer of a random one,
at a triple point.  A layer whose bounds do not meet is solved from the
same point system over Q: one kernel of the monomials at the points that
the peeled lines leave serves both kept components, and a small second
system in its coordinates takes one row per point on H0 and a restriction
block only for the lines with at most k points.  Both kernels are certified
over Z by linalg.kernel_basis as any other, and since the two systems
define D_{H0}(A) exactly, the certificate covers the module itself.  Either
way a layer is a certified basis, and everything read off it depends only
on its span.

The scan keeps of each layer only what it reads (_Layer): its dimension,
its own vectors (the chosen candidates, or the point system's basis), and
their kept values at the k + 1 points of H0 of _h0_points.  Every value is
read one way, a form dotted with the monomials at a point (_evaluate); no
vector is restricted to H0.  The alpha_H0 multiples are never formed:
_ar_kernel builds a whole basis on demand, for dh_projection.  The shifts
of the next layer take the kept values carried, with one more evaluation
each at one more point of H0, both as candidates of the sandwich and as
columns of _new_generators, so a layer stores no row for them.

The new generators of a layer are the basis vectors outside x, y and z
times the layer below, and all of them are read off the layer's
restriction to H0 (_new_generators).  The derivations of the layer that
vanish on H0 are alpha_H0 times the layer below, which lies in those
shifts, so a vector lies in the shifts plus other vectors exactly when its
restriction lies in theirs.  One small kernel of the kept values at k + 1
points of H0, of the shifts and of the layer vectors not known to lie in
their span, gives the new generators as its pivots, and their number must
be the dimension the shifts leave.

The scan ends with a proof, not with more layers: _spans_module shows
from a determinant and the global Tjurina number that at most three
generators found span all of D_{H0}(A).  Only minimal_resolution reaches
four or more generators, and it ends at degree |A| - 1: Schenck (2003,
"Elementary modifications and line configurations in P^2") bounds
reg D_0(A) <= |A| - 2 for an arrangement that is not a pencil, so no
generator lies above degree |A| - 2 and no relation above |A| - 1.  A
complete resolution must pass the rank, degree-sum and Tjurina identities,
and one of four or more generators the degree bound, or the run raises
CertificationFailure.  However the scan ends, the Tjurina number must lie
within the du Plessis-Wall bounds for the minimal degree found.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, filterfalse
from math import comb, prod

from . import linalg
from .arrangement import Arrangement, ascii_int, intersection_points, tjurina
from .multiarr import _free_pattern, exponents, ziegler_restriction
from .poly import (CertificationFailure, _index_table, line_frame,
                   monomial_count, monomials, restrict, restrict_lines)

MAX_DEGREE_ENV = "ARRLOG_MAX_DEGREE"


class DegreeCapError(ValueError):
    """The degree cap set in the environment is not a nonnegative integer."""


@lru_cache(maxsize=1024)
def _h0_incidence(A: Arrangement) -> tuple[list, list, list]:
    """The intersection points of A as D_{H0}(A) reads them, H0 = line 0.

    Returns, for each intersection point off H0, its integer point
    (FlatPoint.int_point) and the lines through it; for each point Q on H0,
    (Q, w) with w the weights of one other line through Q; and for each
    line K != H0, (t_K, beta_K, w_K): the number of intersection points on
    K, its integer form and its weights.  The weights of a line with form
    beta are its restriction to H0, w = beta(P), beta(Q) for the points P
    and Q of line_frame(alpha_H0) (poly.restrict_lines).  A theta in
    D_{H0}(A) is (theta_u P + theta_v Q) / alpha_f (_h0_lift), so
    alpha_f theta(beta) = w0 theta_u + w1 theta_v.  Lines through one point
    of H0 have proportional weights, as their restrictions share a zero,
    and lines through two different points have independent ones.
    """
    forms = [line.int_coeffs for line in A.lines]
    weights = restrict_lines(forms[0], forms)
    count = [0] * len(A)
    off, on = [], []
    for X in intersection_points(A):
        i, j = X.incident_lines[:2]
        for K in X.incident_lines:
            count[K] += 1
        if i == 0:
            on.append((X.int_point, weights[j]))
        else:
            off.append((X.int_point, X.incident_lines))
    return off, on, [(count[K], forms[K], weights[K]) for K in range(1, len(A))]


def _h0_lift(A: Arrangement, v) -> tuple[int, ...]:
    """The derivation in D_{H0}(A) with the given kept components, their
    coefficient vectors a and b concatenated: aP + bQ for the points P and
    Q of line_frame(alpha_H0), as the concatenated coefficient vectors of
    its three components, scaled to a primitive integer vector.  P and Q
    lie on H0, so it kills alpha_H0."""
    _, _, _, P, Q = line_frame(A.lines[0].int_coeffs)
    m = len(v) // 2
    return tuple(linalg._primitive_vec([p * a + q * b for p, q in zip(P, Q)
                                        for a, b in zip(v[:m], v[m:])]))


def _point_row(P, k: int, p: int | None = None) -> list[int]:
    """The degree-k monomials at the integer point P, in monomials order;
    congruent to them modulo p, and below p**3, if p is given."""
    powers = [[pow(c, i, p) for i in range(k + 1)] for c in P]
    return [powers[0][i] * powers[1][j] * powers[2][l]
            for i, j, l in monomials(3, k)]


def _evaluate(forms, at) -> list[int]:
    """Each form, a coefficient vector, at the point whose monomials are at
    (_point_row)."""
    return [sum(c * t for c, t in zip(form, at) if c) for form in forms]


def _combine(coeffs, vectors, m: int) -> list[int]:
    """The integer combination sum of coeffs[i] vectors[i] of length m."""
    out = [0] * m
    for c, v in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] += c * x
    return out


def _h0_points(A: Arrangement, count: int) -> list[tuple[int, ...]]:
    """count integer points of H0 = line 0, pairwise distinct in P^2: P + jQ
    for j < count, with P and Q the independent points of H0 of
    line_frame(alpha_H0)."""
    _, _, _, P, Q = line_frame(A.lines[0].int_coeffs)
    return [tuple(a + j * b for a, b in zip(P, Q)) for j in range(count)]


def _times_form(poly, d: int, form) -> list[int]:
    """A degree-d form, as its coefficient vector, times a linear form."""
    out = [0] * monomial_count(3, d + 1)
    for var, a in enumerate(form):
        if a:
            for idx, c in zip(_shift_table(d, var), poly):
                if c:
                    out[idx] += a * c
    return out


def _form_product(forms) -> list[int]:
    """The coefficient vector of a product of linear forms."""
    poly = [1]
    for d, form in enumerate(forms):
        poly = _times_form(poly, d, form)
    return poly


def _point_derivation(A: Arrangement, v, missing, k: int) -> list[int]:
    """theta_v = g_v d_v in D_{H0}(A), g_v the product of the lines missing
    the point v (their indices, increasing), projected along theta_E when
    H0 misses v: theta_v - alpha_H0(v) (g_v / alpha_H0) theta_E.  The
    concatenated degree-k coefficient vectors of its three components."""
    forms = [A.lines[K].int_coeffs for K in missing]
    if not missing or missing[0]:
        g = _form_product(forms)
        return [c * x for c in v for x in g]
    # g_v = alpha_H0 h_v, and the projection is h_v (alpha_H0 d_v -
    # alpha_H0(v) theta_E)
    alpha, h = forms[0], _form_product(forms[1:])
    a = sum(x * y for x, y in zip(alpha, v))
    return [x for i in range(3) for x in _times_form(
        h, k - 1, [v[i] * alpha[j] - (a if j == i else 0) for j in range(3)])]


def _point_values(forms, v, missing, P) -> list[int]:
    """The three components of the point derivation of _point_derivation at
    the point P, from its closed form, forms the integer forms of the lines:
    g(P) v_c when H0 passes through v, g the product of the missing forms,
    and h(P) (alpha_H0(P) v_c - alpha_H0(v) P_c) when H0 misses v, h the
    product of the missing forms other than alpha_H0."""
    x, y, z = P
    projected = missing and not missing[0]
    g = 1
    for K in missing[1:] if projected else missing:
        a, b, c = forms[K]
        g *= a * x + b * y + c * z
    if not projected:
        return [g * c for c in v]
    a, b, c = forms[0]
    at_v, at_P = a * v[0] + b * v[1] + c * v[2], a * x + b * y + c * z
    return [g * (at_P * c - at_v * p) for c, p in zip(v, P)]


def _closed_form_bound(forms, v, missing) -> int:
    """A bound on the absolute value of every coefficient of the closed form
    of _point_values: the coefficients of a product of linear forms sum to
    at most the product of their l1 norms in absolute value, times |v|_inf,
    or, when H0 misses v, times the l1 norm of alpha_H0 v_c - alpha_H0(v)
    x_c, at most |alpha_H0|_1 |v|_inf + |alpha_H0(v)|."""
    size = max(map(abs, v))
    if missing and not missing[0]:
        alpha, missing = forms[0], missing[1:]
        size = (sum(map(abs, alpha)) * size
                + abs(sum(a * c for a, c in zip(alpha, v))))
    return prod(sum(map(abs, forms[K])) for K in missing) * size


@lru_cache(maxsize=None)
def _kronecker_order(k: int) -> tuple[tuple[int, ...], ...]:
    """The indices of the degree-k monomials grouped by the power of z,
    highest first, each group by the power of y, highest first."""
    table = _index_table(3, k)
    return tuple(tuple(table[(k - l - j, j, l)] for j in range(k - l, -1, -1))
                 for l in range(k, -1, -1))


def _kronecker(poly, k: int, b: int) -> int:
    """The degree-k form poly at (1, T, T^(k + 1)), T = 2^b, where x^i y^j
    z^l takes the value T^(j + (k + 1) l): Horner's rule in T within each
    power of z, then in T^(k + 1) across them."""
    step = b * (k + 1)
    total = 0
    for group in _kronecker_order(k):
        inner = 0
        for idx in group:
            inner = (inner << b) + poly[idx]
        total = (total << step) + inner
    return total


def _is_closed_form(A: Arrangement, vec, v, missing, k: int) -> bool:
    """Whether the degree-k vector vec is the point derivation of v and the
    lines missing it, coefficient by coefficient, by one evaluation of each
    of its three components against _point_values at the Kronecker point
    X = (1, T, T^(k + 1)).  If so, vec lies in D_{H0}(A).

    The monomial x^i y^j z^l of degree k takes the value T^(j + (k + 1) l)
    at X, and these exponents are distinct, as j <= k.  With T = 2^b above
    max |vec| plus _closed_form_bound, every coefficient c_E of the
    difference of vec and the closed form, at exponent E, has |c_E| <=
    T - 1.  A nonzero difference, whose highest nonzero term has
    |c_E T^E| >= T^E > (T - 1)(1 + T + ... + T^(E - 1)), takes a nonzero
    value at X.  So equal values at X mean equal polynomials: the check
    fixes one polynomial, and any other vector fails it, also one of
    D_{H0}(A) with the same kept values.

    The closed form lies in D_{H0}(A).  theta_v = g_v d_v takes alpha_K to
    g_v alpha_K(v), zero when K passes through v, and else divisible by
    alpha_K, a factor of g_v.  When H0 misses v, g_v = alpha_H0 h_v, and
    theta_v - alpha_H0(v) h_v theta_E takes alpha_K to
    h_v (alpha_H0 alpha_K(v) - alpha_H0(v) alpha_K), as theta_E(alpha_K) =
    alpha_K by Euler's formula: zero for K = H0, a multiple of alpha_K when
    K passes through v, and else divisible by alpha_K, a factor of h_v."""
    forms = [line.int_coeffs for line in A.lines]
    b = (max(map(abs, vec)) + _closed_form_bound(forms, v, missing)).bit_length()
    T = 1 << b
    m = monomial_count(3, k)
    return ([_kronecker(vec[c * m:(c + 1) * m], k, b) for c in range(3)]
            == _point_values(forms, v, missing, (1, T, T ** (k + 1))))


def _kept_values(A: Arrangement, vectors, d: int) -> list[list[int]]:
    """The two kept components of each degree-d derivation at the d + 1
    points of _h0_points, point by point, with the monomials at each point
    computed once for all the derivations."""
    kept = line_frame(A.lines[0].int_coeffs)[1:3]
    m = monomial_count(3, d)
    rows = [_point_row(P, d) for P in _h0_points(A, d + 1)]
    out = []
    for vec in vectors:
        forms = [vec[i * m:(i + 1) * m] for i in kept]
        out.append([x for at in rows for x in _evaluate(forms, at)])
    return out


def _grows(echelon: list, row, p: int) -> bool:
    """Whether row is independent modulo p of the echelon rows, (pivot, row)
    pairs each zero at the earlier pivots and 1 at its own; if so, it joins
    them."""
    r = [x % p for x in row]
    for c, piv in echelon:
        a = r[c]
        if a:
            r = [(x - a * y) % p for x, y in zip(r, piv)]
    c = next((i for i, x in enumerate(r) if x), None)
    if c is None:
        return False
    inv = pow(r[c], -1, p)
    echelon.append((c, [x * inv % p for x in r]))
    return True


class _Layer(tuple):
    """Layer k of D_{H0}(A) as the scan keeps it (_layer): a tuple of its
    own vectors, those that alpha_H0 times layer k - 1 does not give, with
    - `dim`, dim D_{H0}(A)_k;
    - `rows`, the kept values of each own vector at the k + 1 points of
      _h0_points(A, k + 1), which _shift_candidates of layer k + 1 extends
      by one point;
    - `columns`, how many trailing own vectors are not known to lie in x, y
      and z times layer k - 1, each a column of _new_generators.
    A sandwiched layer's own vectors are its chosen shifts, then its chosen
    point derivations, the vectors that take a column, and its dimension is
    that of layer k - 1 plus their number.  A point-system layer's own
    vectors are its whole basis, and each takes a column.  Both kinds are
    read alike: the shifts' kept values, which _new_generators also needs,
    come from layer k - 1 (_shift_candidates), so no layer stores them."""

    def __new__(cls, vectors=(), dim: int = 0, rows=(), columns: int = 0):
        layer = super().__new__(cls, vectors)
        layer.dim = dim
        layer.rows = rows
        layer.columns = columns
        return layer


def _shift_candidates(A: Arrangement, k: int, prev: _Layer, points):
    """x, y and z times each own vector of the layer prev below whose
    restriction to H0 is nonzero, each as (its kept values at the k + 1
    points, a builder of its degree-k coefficient vector).  The kept values
    of a vector of prev are the rows it carries, at the first k points,
    and one evaluation at the last.  The alpha_H0 multiples in layer k - 1
    vanish on H0, and so do their shifts: prev does not hold them."""
    kept = line_frame(A.lines[0].int_coeffs)[1:3]
    m = monomial_count(3, k - 1)
    at = _point_row(points[-1], k - 1)
    for theta, carried in zip(prev, prev.rows):
        values = list(carried) + _evaluate(
            [theta[i * m:(i + 1) * m] for i in kept], at)
        if any(values):
            for var in range(3):
                yield ([points[j // 2][var] * x for j, x in enumerate(values)],
                       lambda theta=theta, var=var: _shift_vec(theta, k - 1, var))


def _candidates(A: Arrangement, k: int, prev: _Layer, points):
    """Derivations in D_{H0}(A)_k, each as (its kept values at points, a
    builder of its coefficient vector, and (v, missing) for a point
    derivation, else None): the shift candidates of _shift_candidates, then
    the point derivations of degree k, one for each intersection point v of
    multiplicity |A| - k, missing the lines that miss it
    (_point_derivation), with the kept values of their closed form
    (_point_values)."""
    kept = line_frame(A.lines[0].int_coeffs)[1:3]
    for row, build in _shift_candidates(A, k, prev, points):
        yield row, build, None
    forms = [line.int_coeffs for line in A.lines]
    n = len(A)
    for X in intersection_points(A):
        if X.multiplicity != n - k:
            continue
        v = X.int_point
        missing = [K for K in range(n) if K not in X.incident_lines]
        row = []
        for P in points:
            values = _point_values(forms, v, missing, P)
            row += [values[c] for c in kept]
        yield (row, lambda v=v, missing=missing: _point_derivation(A, v, missing, k),
               (v, missing))


def _sandwich(A: Arrangement, k: int) -> _Layer | None:
    """Layer k of D_{H0}(A) when the rank sandwich of _layer is tight, else
    None.

    Its own vectors are the candidates chosen greedily, in _candidates'
    order, while their kept values at k + 1 points of H0 grow in rank
    modulo WORD_PRIME, until that rank reaches the free pattern of the
    exponents of the restriction to H0, or, once the candidates run out,
    the dimension of layer k - 1 plus that rank reaches the dimension of
    the point system's kernel modulo WORD_PRIME (_point_system); with
    alpha_H0 times layer k - 1 they are a basis.  Every chosen point
    derivation must be its closed form (_is_closed_form), which lies in
    D_{H0}(A) and takes the values it was ranked by, or
    CertificationFailure is raised.  Each own vector is
    stored primitive, and its ranked row, divided by the same content, is
    stored as its kept values.
    """
    prev = _layer(A, k - 1) if k else _Layer()
    exp = exponents(ziegler_restriction(A, 0)[0])
    target = _free_pattern(k, exp.e1, exp.e2)
    if not target:
        return _Layer((), prev.dim)
    points = _h0_points(A, k + 1)
    echelon: list = []
    chosen = []
    for row, build, point in _candidates(A, k, prev, points):
        if _grows(echelon, row, linalg.WORD_PRIME):
            chosen.append((row, build(), point))
            if len(echelon) == target:
                break
    else:
        if prev.dim + len(echelon) != len(
                _point_system(A, k, linalg.WORD_PRIME)[1]):
            return None
    derived = [(vec, point) for _, vec, point in chosen if point]
    if not all(_is_closed_form(A, vec, *point, k) for vec, point in derived):
        raise CertificationFailure(
            f"a point derivation of degree {k} is not its closed form")
    vectors, rows = [], []
    for row, vec, _ in chosen:
        g = linalg._content(vec)
        vectors.append(tuple(linalg._primitive_vec(vec)))
        rows.append(tuple(x // g for x in row) if g > 1 else tuple(row))
    return _Layer(vectors, prev.dim + len(vectors), tuple(rows), len(derived))


@lru_cache(maxsize=8192)
def _layer(A: Arrangement, k: int) -> _Layer:
    """Layer k of D_{H0}(A), the degree-k derivations theta with
    theta(alpha_H0) = 0 that keep every line (H0 = line 0), as the scan of
    _resolution reads it: its dimension, and the vectors of a certified
    basis that are not alpha_H0 times layer k - 1 (see _Layer), as
    primitive integer vectors, the concatenated coefficient vectors of the
    three components.  Which basis is not part of the contract: every
    caller reads only the span of a layer.

    Ziegler's splittings D(A) = S theta_E + D_0(A) = S theta_E + D_H0(A)
    make D_{H0}(A) isomorphic to the Jacobian syzygies D_0(A) as a graded
    S-module, so the resolution and classification read off these layers
    are those of D_0(A).

    Every decision of the sandwich below reads only a rank modulo a prime
    p, never a value over Q, and any prime is sound for it: a nonzero minor
    modulo p is a nonzero integer, so the rank of an integer matrix modulo p
    is at most its rank over Q.  So all of them use one word-size prime,
    WORD_PRIME.

    The layers through _empty_through(A) are zero, by Bezout's theorem and
    no rank.  The kept components a and b of theta vanish at every
    intersection point off H0 (see _point_system).  Let g be a form of
    degree d that vanishes at those points.  If a line K holds more than d
    of them, g restricted to K is a binary form of degree d with more than
    d zeros, so alpha_K divides g, and g / alpha_K, of degree d - 1,
    vanishes at the points off K.  _peel takes such lines greedily: K_i
    through c_i of the points that K_0, ..., K_(i-1) leave.  When
    c_i > k - i for every i <= k, a degree-k form that vanishes at the
    points off H0 is divisible by k + 1 linear forms, so it is zero, and so
    are a, b and theta_e, which they fix.  That condition for k implies it
    for every k' < k, so the empty layers found form a prefix; each layer
    above it takes the route below.

    Any other layer is _sandwich's when this rank sandwich is tight:
    - Above.  Ziegler's sequence 0 -> D_{H0}(A)(-1) -> D_{H0}(A) ->
      D(A^H0, m^H0), the first map multiplication by alpha_H0 and the
      second restriction to H0 (Ziegler 1989), gives dim D_k <= dim D_(k-1)
      + dim D(A^H0, m^H0)_k.  The restriction is free of rank 2 with the
      exponents (e1, e2) of multiarr.exponents, so the second term is
      _free_pattern(k, e1, e2).
    - Above, when the candidates run out below that bound.  D_k has the
      dimension of the kernel over Q of the point system with the lines of
      _peeled(A, k) peeled off, so that kernel's dimension modulo p
      (_point_system(A, k, p)) is at least dim D_k.
    - Below.  alpha_H0 times a basis of D_(k-1) is independent and
      restricts to zero on H0.  A derivation of D_{H0}(A)_k restricts to
      zero iff its two kept components vanish on H0, that is, at k + 1
      distinct points of H0.  Derivations of D_{H0}(A)_k whose kept values
      there are independent modulo a prime are independent over Q (a
      rational dependence, made primitive, survives modulo p), and so
      independent modulo alpha_H0 D_(k-1).  With the alpha_H0 multiples
      they are dim D_(k-1) + (their rank) independent vectors of D_k.
    When an upper bound meets the lower one, those vectors are a basis.  The
    candidates are x, y and z times layer k - 1, which lie in the module,
    and the point derivations, each checked exactly to be its closed form,
    which lies in the module, by one evaluation per component.
    The layer keeps only the candidates chosen: the alpha_H0 multiples are
    never formed, and _ar_kernel builds them when a whole basis is asked
    for.  Otherwise the layer is the point system solved over Q, (u, v) of
    each vector of U taken to (sum u_i g_i, sum v_i g_i) and lifted by
    _h0_lift, with its kept values computed once.
    """
    if k <= _empty_through(A):
        return _Layer()
    layer = _sandwich(A, k)
    if layer is not None:
        return layer
    G, U = _point_system(A, k)
    m, r = monomial_count(3, k), len(G)
    vectors = [_h0_lift(A, _combine(uv[:r], G, m) + _combine(uv[r:], G, m))
               for uv in U]
    return _Layer(vectors, len(vectors),
                  tuple(map(tuple, _kept_values(A, vectors, k))), len(vectors))


@lru_cache(maxsize=8192)
def _ar_kernel(A: Arrangement, k: int) -> tuple[tuple[int, ...], ...]:
    """A certified basis of D_{H0}(A)_k, as primitive integer vectors:
    alpha_H0 times _ar_kernel(A, k - 1), then the own vectors of
    _layer(A, k), or those alone when they are the whole layer (see
    _Layer).  Built on demand, for the projections of dh_projection; the
    scan reads _layer."""
    layer = _layer(A, k)
    if layer.dim == len(layer):
        return tuple(layer)
    alpha = A.lines[0].int_coeffs
    return tuple(tuple(linalg._primitive_vec(_times_linear(theta, k - 1, alpha)))
                 for theta in _ar_kernel(A, k - 1)) + tuple(layer)


@lru_cache(maxsize=1024)
def _peel(A: Arrangement) -> tuple[tuple[int, int], ...]:
    """The lines that peel the intersection points off H0, greedily: pairs
    (K_i, c_i), K_i the line through the most points that K_0, ..., K_(i-1)
    leave, the first such line on a tie, and c_i the number of those points
    on it, until none is left.  The counts do not increase."""
    off = _h0_incidence(A)[0]
    count = [0] * len(A)
    for _, lines in off:
        for K in lines:
            count[K] += 1
    peel = []
    while off:
        c = max(count)
        K = count.index(c)
        peel.append((K, c))
        for _, lines in off:
            if K in lines:
                for L in lines:
                    count[L] -= 1
        off = [(P, lines) for P, lines in off if K not in lines]
    return tuple(peel)


def _peeled(A: Arrangement, k: int) -> int:
    """The number j <= k + 1 of leading lines of _peel(A) with c_i > k - i:
    alpha_(K_0) ... alpha_(K_(j-1)) divides every degree-k form that vanishes
    at the intersection points off H0 (see _layer)."""
    j = 0
    for i, (_, c) in enumerate(_peel(A)[:k + 1]):
        if c <= k - i:
            break
        j += 1
    return j


@lru_cache(maxsize=1024)
def _empty_through(A: Arrangement) -> int:
    """The largest k with c_i > k - i for every i <= k, (K_i, c_i) the lines
    of _peel(A), or -1: D_{H0}(A)_j = 0 for every j <= k, by Bezout's
    theorem alone (see _layer)."""
    k = -1
    while _peeled(A, k + 1) > k + 1:
        k += 1
    return k


def _point_system(A: Arrangement, k: int, p: int | None = None):
    """The point system of D_{H0}(A)_k as (G, U), with the lines of
    _peeled(A, k) peeled off: G the forms Pi g', Pi = alpha_(K_0) ...
    alpha_(K_(j-1)) the product of the j lines peeled and g' in a kernel of
    E', the degree-(k - j) monomials at the intersection points off H0 that
    those lines miss, and U a kernel of _uv_rows(A, k, G).  Both kernels are
    linalg.kernel_basis's, certified over Q, or linalg.kernel_mod's modulo
    the prime p when p is given.

    Let a and b be the kept components of theta and w_K the weights of a
    line K != H0 (_h0_incidence), so that theta keeps K iff w_K . (a, b)
    vanishes on K.  At a point off H0, two lines through it meet H0 in
    different points, so their weights are independent and a and b vanish
    there.  A degree-k form vanishes at those points iff it is Pi g' with
    g' vanishing at the points that the peeled lines leave (Bezout, see
    _layer): no g' when j = k + 1, as E' has no column, and every
    degree-(k - j) form when no point is left.  With a = sum u_i g_i and
    b = sum v_i g_i, theta then keeps every line iff (u, v) solves
    _uv_rows: one row for each point Q on H0, where the weights of the
    lines through Q are proportional, and the restriction block of
    w_K . (a, b) to each line K with at most k intersection points.  On a
    line K with t_K >= k + 1, w_K . (a, b) restricted to K is a binary form
    of degree k that vanishes at t_K points, those of K off H0 and K cap
    H0, so it is zero with no block.

    Over Q, (u, v) -> (sum u_i g_i, sum v_i g_i) lifted by _h0_lift takes U
    onto a basis of D_{H0}(A)_k, and both kernels are certified (M v = 0
    over Z).  Modulo p, (G, U) solves in turn the integer matrix of E' on
    a' and on b' above the rows of _uv_rows in (Pi a', Pi b'), whose kernel
    over Q has dimension dim D_{H0}(A)_k, and its rank modulo p is at most
    that over Q (see _layer): len(U) is an upper bound.
    """
    j = _peeled(A, k)
    peel = _peel(A)[:j]
    peeled = {K for K, _ in peel}
    d = k - j

    kernel = (linalg.kernel_basis if p is None
              else lambda rows, ncols: linalg.kernel_mod(rows, ncols, p))
    G = kernel([_point_row(P, d, p) for P, lines in _h0_incidence(A)[0]
                if peeled.isdisjoint(lines)], monomial_count(3, d))
    for i, (K, _) in enumerate(peel):
        G = [_times_form(g, d + i, A.lines[K].int_coeffs) for g in G]
    return G, kernel(_uv_rows(A, k, G), 2 * len(G))


def _uv_rows(A: Arrangement, k: int, G) -> list[list[int]]:
    """The second system of _point_system, on (u, v) with a = sum u_i g_i
    and b = sum v_i g_i for the vectors g_i of G, exact or modulo a prime:
    one row per point on H0, and the restriction block of each line with at
    most k points, as integer rows."""
    _, on, lines = _h0_incidence(A)
    # (weights, the value of each g_i) per condition
    conditions = [(w, _evaluate(G, _point_row(Q, k))) for Q, w in on]
    for t, beta, w in lines:
        if t < k + 1:
            conditions.extend((w, values) for values in zip(*restrict(beta, G, k)))
    return [[w0 * x for x in values] + [w1 * x for x in values]
            for (w0, w1), values in conditions]


def ar_dim(A: Arrangement, k: int) -> int:
    """Dimension of the degree-k layer of the syzygy module."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return _layer(A, k).dim


@lru_cache(maxsize=None)
def _shift_table(k: int, var: int) -> tuple[int, ...]:
    """The degree-(k + 1) index of each degree-k monomial times x_var."""
    table = _index_table(3, k + 1)
    return tuple(table[tuple(e + (i == var) for i, e in enumerate(mu))]
                 for mu in monomials(3, k))


def _times_linear(v, k: int, form) -> list[int]:
    """A degree-k derivation coefficient vector times a linear form."""
    m = monomial_count(3, k)
    return [x for c in range(3) for x in _times_form(v[c * m:(c + 1) * m], k, form)]


def _shift_vec(v, k: int, var: int) -> list[int]:
    """Multiply a degree-k derivation coefficient vector by a coordinate."""
    return _times_linear(v, k, [int(i == var) for i in range(3)])


@dataclass(frozen=True)
class ResolutionShape:
    """Minimal generator degrees and relation degrees (multisets, sorted)."""

    generator_degrees: tuple[int, ...]
    relation_degrees: tuple[int, ...]
    complete: bool = True
    cap_hit: bool = False


@dataclass(frozen=True)
class _ResolutionData:
    shape: ResolutionShape
    generators: tuple[tuple[int, tuple[int, ...]], ...]  # (degree, vector)


def default_degree_cap(A: Arrangement) -> int:
    """The degree bound when the environment sets none."""
    return 2 * len(A)


def degree_cap(A: Arrangement) -> int:
    env = os.environ.get(MAX_DEGREE_ENV)
    if env is None:
        return default_degree_cap(A)
    cap = ascii_int(env)
    if cap is None:
        raise DegreeCapError(f"{MAX_DEGREE_ENV}={env!r} is not an integer")
    if cap < 0:
        raise DegreeCapError(f"{MAX_DEGREE_ENV}={env!r} is negative")
    return cap


def _rank_two(A: Arrangement, gens) -> bool:
    """Whether det[theta_E, theta_i, theta_j] is a nonzero form for some pair
    of the given derivations.

    That determinant has degree D = 1 + g_i + g_j.  Set z = 1 and a nonzero
    form of degree D is a nonzero polynomial of degree at most D in x and in
    y, which cannot vanish on all of {0..D}^2, so the grid of the largest D
    decides for every pair.  Determinants of derivations of A vanish on its
    lines, so points off the lines are tried first.
    """
    degs = sorted(g for g, _ in gens)
    top = 1 + degs[-1] + degs[-2]
    forms = [line.int_coeffs for line in A.lines]

    def off(P):
        return all(f[0] * P[0] + f[1] * P[1] + f[2] for f in forms)

    parts = []
    for g, v in gens:
        m = monomial_count(3, g)
        parts.append((g, [v[:m], v[m:2 * m], v[2 * m:]]))
    grid = [(a, b) for a in range(top + 1) for b in range(top + 1)]
    pairs = list(combinations(range(len(gens)), 2))
    for a, b in chain(filter(off, grid), filterfalse(off, grid)):
        vals = [_evaluate(comps, _point_row((a, b, 1), g)) for g, comps in parts]
        for i, j in pairs:
            u, w = vals[i], vals[j]
            if (a * (u[1] * w[2] - u[2] * w[1]) + b * (u[2] * w[0] - u[0] * w[2])
                    + u[0] * w[1] - u[1] * w[0]):
                return True
    return False


def _spans_module(A: Arrangement, gens, rels) -> bool:
    """Whether the module N spanned by at most three generators is all of
    D_{H0}(A), given their relation degrees rels as the scan found them,
    with len(gens) - len(rels) = 2 and degree sums differing by |A| - 1.

    Precondition, not checked here: rels are the relation degrees
    _resolution counted for these same generators.  Others of the same
    degrees can pass with a wrong relation degree (theta_2 = x theta_1,
    say), since some pair keeps rank 2 and the identity sees only degrees.

    N has rank 2 when _rank_two holds.  With two generators N is then free;
    with three, its relation module is reflexive of rank 1, hence free, and
    generated in the degree found.  Either way N has projective dimension at
    most one, so depth N >= 2.  The Tjurina identity
    sum d_i^2 - sum r_j^2 = 2 tau - (|A| - 1)^2 makes the Hilbert polynomial
    of N that of D_0(A), so D_0(A)/N has finite length, and depth N >= 2
    forces it to be zero.  Two generators of rank 2 whose degrees sum to
    |A| - 1 are a basis by Saito's criterion, so a failed identity there is
    a failed certificate.
    """
    n = len(A)
    tau_ok = (sum(g * g for g, _ in gens) - sum(r * r for r in rels)
              == 2 * tjurina(A) - (n - 1) ** 2)
    if len(gens) == 3 and not tau_ok:
        return False
    if not _rank_two(A, gens):
        return False
    if not tau_ok:
        raise CertificationFailure(
            f"free basis in degrees {sorted(g for g, _ in gens)} fails the "
            f"Tjurina identity (tau = {tjurina(A)}) for {n} lines")
    return True


def _check_du_plessis_wall(A: Arrangement, r: int) -> None:
    """Raise CertificationFailure unless the global Tjurina number lies in
    the bounds of du Plessis and Wall (1999) for d = |A| lines and mdr r:
    (d - 1)(d - r - 1) <= tau <= (d - 1)(d - r - 1) + r^2, the upper bound
    lower by C(2r + 2 - d, 2) when 2r >= d.  Pencils (r = 0) are exempt."""
    if not r:
        return
    d, tau = len(A), tjurina(A)
    low = (d - 1) * (d - r - 1)
    high = low + r * r - (comb(2 * r + 2 - d, 2) if 2 * r >= d else 0)
    if not low <= tau <= high:
        raise CertificationFailure(
            f"tau = {tau} is outside the du Plessis-Wall bounds [{low}, "
            f"{high}] for mdr {r} and {d} lines")


def _new_generators(A: Arrangement, k: int, prev: _Layer, layer: _Layer):
    """The new generators of layer k above the nonzero layer prev: the
    vectors of layer outside S plus the vectors before them, S the span of
    x, y and z times prev, read off their restriction to H0.

    S contains alpha_H0 theta = sum alpha_i x_i theta for every theta of
    D_(k-1), and alpha_H0 D_(k-1) is the kernel of the restriction to H0
    on D_k, by Ziegler's sequence (see _layer).  So for any span W in
    D_k, v lies in S + W iff its restriction lies in that of S + W, and a
    derivation of D_k restricts to zero iff its kept components vanish at
    k + 1 points of H0.  The new generators are thus the layer columns that
    are pivots of one kernel_basis of the kept values there of [shifts of
    prev | layer vectors].  On H0, x_e = -(alpha_i0 x_i0 + alpha_i1 x_i1) /
    alpha_e, so x_e theta restricts into the span of the other two shifts
    of theta and takes no column.  Nor does a layer vector known to lie in
    S, its `columns` last own vectors aside (see _Layer): on a sandwiched
    layer only the chosen point derivations take one (the alpha_H0
    multiples and the chosen shifts lie in S), and on a point-system layer
    every vector does, each with the kept values the layer carries.  The
    shifts' kept values are those of _shift_candidates, which extends the
    values that prev carries by one point.  With no column, there is no
    new generator and no kernel runs.  The pivots among the shifts count
    the rank r of the restriction of S, so dim S = dim D_(k-1) + r, and
    dim D_k - dim S new generators must come out, or CertificationFailure
    is raised.
    """
    if not layer.columns:
        return ()
    first = len(layer) - layer.columns
    # the rows of _shift_candidates cycle through x, y and z times theta
    f = line_frame(A.lines[0].int_coeffs).f
    candidates = _shift_candidates(A, k, prev, _h0_points(A, k + 1))
    cols = [row for i, (row, _) in enumerate(candidates) if i % 3 != f] + \
        list(layer.rows[first:])
    free = {linalg.free_column(w) for w in linalg.kernel_basis(
        [list(r) for r in zip(*cols)], len(cols))}
    shifts = len(cols) - layer.columns
    rank = shifts - sum(1 for c in free if c < shifts)
    new = [v for c, v in enumerate(layer[first:], shifts) if c not in free]
    if len(new) != layer.dim - prev.dim - rank:
        raise CertificationFailure(f"generator extraction mismatch at degree {k}")
    return new


def _resolution(A: Arrangement, early_stop: bool) -> _ResolutionData:
    """The minimal generators and relation degrees of D_{H0}(A), scanned
    degree by degree from the certified layers of _layer.

    The new generators of layer k are the whole layer when layer k - 1 is
    zero, and else are read off the layer's restriction to H0
    (_new_generators).  Relations are counted from the Hilbert function,
    and the scan ends with the proofs of _spans_module or at Schenck's
    bound.
    """
    cap = degree_cap(A)
    n = len(A)
    gens: list[tuple[int, tuple[int, ...]]] = []
    rels: list[int] = []
    prev = _Layer()
    k = 0
    partial = False
    cap_hit = False
    while True:
        layer = _layer(A, k)
        dim = layer.dim
        # no shifts below a zero layer k - 1: the whole layer is its own
        # vectors, and new
        new = _new_generators(A, k, prev, layer) if prev.dim else layer
        gens.extend((k, v) for v in new)
        # Hilbert value of the relation module at this degree: the free cover
        # by the generators found so far is surjective in degrees <= k, and
        # the relation module is free (resolution length <= 1), so its new
        # generators are recovered from the dimension count alone.
        cover = sum(comb(k - g + 2, 2) for g, _ in gens if g <= k)
        d_k = cover - dim
        if d_k < 0:
            raise CertificationFailure(f"negative relation dimension at degree {k}")
        rho = d_k - sum(comb(k - r + 2, 2) for r in rels if r <= k)
        if rho < 0:
            raise CertificationFailure(f"relation recovery failed at degree {k}")
        rels.extend([k] * rho)
        if early_stop and (len(gens) > 3 or len(rels) > 1):
            partial = True
            break
        # once the shape is rank-2 consistent, at most three generators are
        # proved to span the module by _spans_module; a failed check means
        # more structure ahead, so the scan goes on.  Four or more end at
        # degree n - 1: by Schenck (2003) reg D_0(A) <= n - 2 unless A is a
        # pencil (free, two generators), so the scan has seen every
        # generator and relation, and the checks below certify the shape
        gd = [g for g, _ in gens]
        if len(gd) > 3:
            if k >= n - 1:
                break
        elif (gd and len(gd) - len(rels) == 2 and sum(gd) - sum(rels) == n - 1
              and _spans_module(A, gens, rels)):
            break
        if k >= cap:
            cap_hit = True
            break
        prev = layer
        k += 1
    gd = [g for g, _ in gens]
    if gd:
        _check_du_plessis_wall(A, min(gd))
    complete = not partial and not cap_hit
    if complete:
        if len(gd) - len(rels) != 2 or sum(gd) - sum(rels) != n - 1:
            raise CertificationFailure(
                f"resolution shape {sorted(gd)} / {sorted(rels)} fails the "
                f"rank/degree certificate for {n} lines")
        if (sum(g * g for g in gd) - sum(r * r for r in rels)
                != 2 * tjurina(A) - (n - 1) ** 2):
            raise CertificationFailure(
                f"resolution shape {sorted(gd)} / {sorted(rels)} fails the "
                f"Tjurina identity (tau = {tjurina(A)}) for {n} lines")
        if len(gd) > 3 and max(gd) > n - 2:
            raise CertificationFailure(
                f"generator of degree {max(gd)} above Schenck's regularity "
                f"bound {n - 2} for {n} lines")
    shape = ResolutionShape(tuple(sorted(g for g, _ in gens)),
                            tuple(sorted(rels)), complete, cap_hit)
    return _ResolutionData(shape, tuple(gens))


@lru_cache(maxsize=1024)
def minimal_resolution(A: Arrangement) -> ResolutionShape:
    """Generator and relation degrees of the full minimal resolution."""
    return _resolution(A, early_stop=False).shape


@dataclass(frozen=True)
class Classification:
    verdict: str  # "free" | "nearly-free" | "plus-one-generated" | "other"
    exponents: tuple[int, int] | None
    level: int | None
    mdr: int | None
    nu: int | None
    shape: ResolutionShape

    @property
    def is_free(self) -> bool:
        return self.verdict == "free"

    @property
    def is_plus_one(self) -> bool:
        """Plus-one generated in the wide sense (nearly free included)."""
        return self.verdict in ("nearly-free", "plus-one-generated")

    def to_json(self) -> dict:
        doc: dict = {"verdict": self.verdict}
        if self.exponents is not None:
            doc["exponents"] = list(self.exponents)
        if self.level is not None:
            doc["level"] = self.level
        doc["mdr"] = self.mdr
        if self.nu is not None:
            doc["nu"] = self.nu
        doc["generators"] = list(self.shape.generator_degrees)
        doc["relations"] = list(self.shape.relation_degrees)
        doc["cap_hit"] = self.shape.cap_hit
        return doc


@lru_cache(maxsize=2048)
def classify(A: Arrangement) -> Classification:
    """Classification read off the certified resolution shape.

    Free: two generators and no relation.  Plus-one generated: three
    generators a <= b <= d and one relation, of degree d + 1; reported as
    nearly free when b = d, with nu = d - b + 1.  Anything else, and an
    incomplete shape, is other.

    The shape is what _spans_module and the Hilbert count of _resolution
    certify, and it decides alone: the relation of a plus-one generated
    shape always has a nonzero linear form as its coefficient on some
    degree-d generator, so no kernel recomputes it.  D_0(A) is a direct
    summand of D(A), hence torsion-free and reflexive.  Suppose the relation
    missed every degree-d generator.  If b < d, then D_0(A) = <theta_1,
    theta_2> + S theta_3, and the summand <theta_1, theta_2> is reflexive of
    rank 1, so free, yet needs two minimal generators.  If b = d, the
    relation would be r_1 theta_1 = 0 with r_1 != 0, which torsion-freeness
    forbids.
    """
    shape = _resolution(A, early_stop=True).shape
    gd, rd = shape.generator_degrees, shape.relation_degrees
    if shape.complete and len(gd) == 2 and not rd:
        return Classification("free", gd, None, gd[0], None, shape)
    if shape.complete and len(gd) == 3 and rd == (gd[2] + 1,):
        a, b, d = gd
        verdict = "nearly-free" if b == d else "plus-one-generated"
        return Classification(verdict, (a, b), d, a, d - b + 1, shape)
    return Classification("other", None, None, min(gd, default=None), None,
                          shape)


# ---------------------------------------------------------------------------
# derivations vanishing on one line

def dh_projection(A: Arrangement, H: int, k: int) -> list[list[int]]:
    """Integer basis of D_H(A)_k: the _ar_kernel vectors mapped by
    theta -> theta - (theta(alpha_H) / alpha_H) theta_E.

    By Ziegler's splitting D(A) = S theta_E + D_H(A), that map, defined on
    all of D(A), projects along S theta_E; it takes the basis of D_{H0}(A)
    isomorphically onto D_H(A), degree by degree.  alpha_H is scaled to a
    primitive integer form, so by Gauss's lemma the quotient of the integer
    form theta(alpha_H) is integral: it is peeled off by exact integer
    division, and a nonzero remainder raises CertificationFailure.
    """
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    alpha = A.lines[H].int_coeffs
    e = line_frame(alpha).f
    monos = monomials(3, k)
    m = len(monos)
    table = _index_table(3, k)
    # the terms x^mu of theta(alpha_H) divisible by x_e, highest power
    # first: peeling one off puts rem[mu] / alpha_e into the quotient at
    # mu - e_e and changes only mu and lower powers, at mu - e_e + e_c
    steps = [(j, [table[tuple(a - (i == e) + (i == c) for i, a in enumerate(mu))]
                  for c in range(3)])
             for j, mu in sorted(enumerate(monos), key=lambda jm: -jm[1][e])
             if mu[e]]
    out = []
    for vec in _ar_kernel(A, k):
        theta = list(vec)
        rem = [sum(a * theta[c * m + j] for c, a in enumerate(alpha))
               for j in range(m)]
        for j, shifted in steps:
            if rem[j]:
                q, r = divmod(rem[j], alpha[e])
                if r:
                    break  # rem[j] stays nonzero
                for c, idx in enumerate(shifted):
                    rem[idx] -= q * alpha[c]
                    theta[c * m + idx] -= q
        if any(rem):
            raise CertificationFailure(
                f"theta(alpha_{H}) is not divisible by alpha_{H}")
        out.append(theta)
    return out
