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
Every chosen point derivation is built from its closed form, which lies in
the module, by one evaluation of each kept component (_point_pair): at the
Kronecker point (1, T, T^(k + 1)), with T / 2 above every coefficient, a
degree-k form takes the value sum c_E T^E over distinct exponents E, and
its balanced base-T digits are its coefficients.  Each
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
their kept values at the k + 1 points of H0 of _h0_points.  A vector is
kept as (a, b) = (theta_u, theta_v) in H0's frame line_frame(alpha_H0),
as theta(alpha_H0) = 0 fixes theta_f.  Every value is read one way, a
form dotted with the monomials at a point (_evaluate); no vector is
restricted to H0.  The alpha_H0 multiples are never formed: _ar_kernel
builds a whole basis on demand, for dh_projection, the one lift to three
components (_h0_lift).  The shifts of the next layer take the kept values
carried, with one more evaluation each at one more point of H0, both as
candidates of the sandwich and as columns of _new_generators, so a layer
stores no row for them.

The new generators of a layer are the basis vectors outside the span S of
the linear forms times the layer below, and all of them are read off the
layer's restriction to H0 (_new_generators).  The derivations of the layer
that vanish on H0 are alpha_H0 times the layer below, which lies in S, so
a vector lies in S plus other vectors exactly when its restriction lies in
theirs.  On H0, with (u, v) the coordinates of line_frame(alpha_H0) and f
the third, alpha_f x_f = -(alpha_u x_u + alpha_v x_v), so the restriction
of S is spanned by x_u and x_v times the layer below, the only shifts
_shift_candidates yields.  On a sandwiched layer the sandwich's own
modular echelon mostly decides them: the restriction of S is S'_1 times
that of the layer below, S' the coordinate ring of H0, which lies in the
free restriction D(A^H0, m^H0) with exponents (e1, e2), so the shifts'
rank over Q is at most B = min(s, _free_pattern(k, e1, e2) - [e1 = k] -
[e2 = k]), s the number of shifts.  When the shifts chosen modulo a prime
reach B, they restrict to a basis of S's restriction, and every chosen
point derivation is a new generator with no kernel (_sandwich marks the
layer `proved`).  Every other layer takes one small kernel of the kept
values at k + 1 points of H0, of those shifts and of the layer vectors not
known to lie in S, which gives the new generators as its pivots, and their
number must be the dimension S leaves.

The scan ends with a proof, not with more layers: _spans_module shows
from a determinant and the global Tjurina number that at most three
generators found span all of D_{H0}(A).  When the lowest nonzero layer,
of degree d, gives one generator, a point derivation of degree |A| - 1 - d
may be its Saito partner (_saito_partner): one value of each closed form
at a point off the lines shows det[theta_E, theta, theta_v] nonzero, and
_spans_module proves the pair a basis, with no layer in between read.
Only minimal_resolution reaches
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
from .poly import (CertificationFailure, line_frame, monomial_count, monomials,
                   restrict, restrict_lines)

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


def _index(j: int, l: int) -> int:
    """The index of x^i y^j z^l in monomials(3, i + j + l) (see poly)."""
    return (j + l) * (j + l + 1) // 2 + l


def _times_form(poly, d: int, form) -> list[int]:
    """A degree-d coefficient vector times the linear form (a, b, c): a x keeps
    each index, b y and c z move block s (see poly) by s + 1 and s + 2 places."""
    a, b, c = form
    out = [a * t for t in poly] + [0] * (d + 2)
    if b or c:
        for s in range(1, d + 2):
            for i in range(s * (s - 1) // 2, s * (s + 1) // 2):
                if t := poly[i]:
                    out[i + s] += b * t
                    out[i + s + 1] += c * t
    return out


def _point_values(forms, v, missing, P, kept) -> list[int]:
    """The kept pair of the point derivation of v at the point P, from its
    closed form (see _point_pair), forms the integer forms of the lines,
    missing the indices of those that miss v, increasing, and kept the
    coordinates u and v of line_frame(alpha_H0): g(P) v_c when H0 passes
    through v, g the product of the missing forms, and h(P) (alpha_H0(P)
    v_c - alpha_H0(v) P_c) when H0 misses v, h the product of the missing
    forms other than alpha_H0."""
    x, y, z = P
    projected = missing and not missing[0]
    g = 1
    for K in missing[1:] if projected else missing:
        a, b, c = forms[K]
        g *= a * x + b * y + c * z
    if not projected:
        return [g * v[c] for c in kept]
    a, b, c = forms[0]
    at_v, at_P = a * v[0] + b * v[1] + c * v[2], a * x + b * y + c * z
    return [g * (at_P * v[c] - at_v * P[c]) for c in kept]


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
def _digit_starts(k: int, width: int) -> tuple[int, ...]:
    """For each degree-k monomial x^i y^j z^l, in monomials order, the byte
    at which the digit of T^(j + (k + 1) l) starts, T = 2^(8 width)."""
    return tuple(width * (j + (k + 1) * l) for _, j, l in monomials(3, k))


def _digits(value: int, k: int, width: int) -> list[int]:
    """The coefficients, in monomials order, of the degree-k form whose
    value at (1, T, T^(k + 1)) is value, T = 2^(8 width), when each has
    absolute value below T / 2 (see _point_pair): with T / 2 added to each
    of the (k + 1)^2 balanced base-T digits of value, each digit fills its
    width bytes with no carry, and a coefficient is the digit at its
    _digit_starts less T / 2."""
    n = (k + 1) ** 2
    data = (value + int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
            ).to_bytes(n * width, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(data[s:s + width], "little") - half
            for s in _digit_starts(k, width)]


def _point_pair(forms, v, missing, k: int, kept) -> list[int]:
    """The kept pair of the point derivation of v, decoded from its values
    at the Kronecker point X = (1, T, T^(k + 1)) (_point_values), forms,
    missing and kept as there, as two degree-k coefficient vectors
    concatenated.

    The point derivation is theta_v = g_v d_v, g_v the product of the lines
    that miss v, projected along theta_E when H0 misses v: theta_v -
    alpha_H0(v) h_v theta_E, g_v = alpha_H0 h_v.  It lies in D_{H0}(A).
    theta_v takes alpha_K to g_v alpha_K(v), zero when K passes through v,
    and else divisible by alpha_K, a factor of g_v.  When H0 misses v, the
    projection takes alpha_K to h_v (alpha_H0 alpha_K(v) - alpha_H0(v)
    alpha_K), as theta_E(alpha_K) = alpha_K by Euler's formula: zero for
    K = H0, a multiple of alpha_K when K passes through v, and else
    divisible by alpha_K, a factor of h_v.  It kills alpha_H0, so its kept
    pair fixes it (_h0_lift): g_v (v_u, v_v), or h_v (alpha_H0 v_c -
    alpha_H0(v) x_c) for c = u, v.

    The decode returns exactly that pair.  At X the monomial x^i y^j z^l of
    degree k takes the value T^(j + (k + 1) l), and these exponents are
    distinct and below (k + 1)^2, as j <= k.  So a component with
    coefficients c_E at exponent E takes the value sum c_E T^E, c_E = 0 at
    the exponents no monomial takes.  With T = 2^b, b = 8 width, the least
    whole number of bytes with T > 2 _closed_form_bound, every |c_E| <
    T / 2, so adding T / 2 to every digit gives digits c_E + T / 2 in
    [1, T - 1] with no carry: the base-T expansion of one integer, which
    is unique.  _digits reads each c_E back from its digit."""
    width = (_closed_form_bound(forms, v, missing).bit_length() + 8) // 8
    T = 1 << 8 * width
    return [c for value in _point_values(forms, v, missing, (1, T, T ** (k + 1)),
                                         kept)
            for c in _digits(value, k, width)]


def _kept_values(A: Arrangement, vectors, d: int) -> list[list[int]]:
    """Both halves of each degree-d kept pair at the d + 1 points of
    _h0_points, point by point, with the monomials at each point computed
    once for all the pairs."""
    m = monomial_count(3, d)
    rows = [_point_row(P, d) for P in _h0_points(A, d + 1)]
    return [[x for at in rows for x in _evaluate((vec[:m], vec[m:]), at)]
            for vec in vectors]


def _grows(echelon: list, row, p: int) -> bool:
    """Whether row is independent modulo p of the echelon rows; if so, it
    joins them.  Each echelon row is kept as (pivot, tail): the row is zero
    before its pivot, where it is 1, and at the earlier pivots, so only its
    tail from the pivot on is stored and subtracted.  As in
    linalg._echelon_mod, reduction is lazy: row is reduced modulo p on
    entry, and an entry only where it is read, so entries stay below
    (len(echelon) + 1) p**2.  The number of rows that join is a rank modulo
    p, at most the rank over Q of the rows offered (see _layer): that is
    the r that _sandwich compares with its bound B."""
    r = [x % p for x in row]
    for c, tail in echelon:
        a = r[c] % p
        if a:
            r[c:] = [x - a * y for x, y in zip(r[c:], tail)]
    c = next((i for i, x in enumerate(r) if x % p), None)
    if c is None:
        return False
    inv = pow(r[c], -1, p)
    echelon.append((c, [x * inv % p for x in r[c:]]))
    return True


class _Layer(tuple):
    """Layer k of D_{H0}(A) as the scan keeps it (_layer): a tuple of its
    own kept pairs, those that alpha_H0 times layer k - 1 does not give, with
    - `dim`, dim D_{H0}(A)_k;
    - `rows`, the kept values of each own vector at the k + 1 points of
      _h0_points(A, k + 1), which _shift_candidates of layer k + 1 extends
      by one point;
    - `columns`, how many trailing own vectors are not known to lie in the
      span of x, y and z times layer k - 1, each a column of
      _new_generators.
    A sandwiched layer's own vectors are its chosen shifts, x_u or x_v
    times own vectors of layer k - 1 (_shift_candidates), then its chosen
    point derivations, the vectors that take a column, and its dimension is
    that of layer k - 1 plus their number.  A point-system layer's own
    vectors are its whole basis, and each takes a column.  Both kinds are
    read alike: the shifts' kept values, which _new_generators also needs,
    come from layer k - 1 (_shift_candidates), so no layer stores them.
    - `route`, the route of _layer that certified it: "peel", "ziegler",
      "point bound" or "point system";
    - `proved`, whether _sandwich proved every vector that takes a column a
      new generator: its chosen shifts met the bound B on the rank of the
      restriction of x, y and z times layer k - 1 (see _sandwich), so
      _new_generators returns those vectors with no kernel.  Only _sandwich
      sets it; every other layer, one built elsewhere included, is False
      and goes through the kernel of _new_generators and its count check."""

    def __new__(cls, vectors=(), dim: int = 0, rows=(), columns: int = 0,
                route: str = "peel", *, proved: bool = False):
        layer = super().__new__(cls, vectors)
        layer.dim = dim
        layer.rows = rows
        layer.columns = columns
        layer.route = route
        layer.proved = proved
        return layer


def _shift_candidates(A: Arrangement, k: int, prev: _Layer, points):
    """x_u and x_v times each own vector of the layer prev below whose
    restriction to H0 is nonzero, (u, v) the coordinates that
    line_frame(alpha_H0) keeps, each as (its kept values at the k + 1
    points, a builder of its degree-k kept pair).  The kept values
    of a vector of prev are the rows it carries, at the first k points,
    and one evaluation at the last.  The alpha_H0 multiples in layer k - 1
    vanish on H0, and so do their shifts: prev does not hold them.

    These are the only shifts: on H0, alpha_f x_f = -(alpha_u x_u +
    alpha_v x_v) with alpha_f != 0, so x_f theta restricts into the span
    of x_u theta and x_v theta and adds to no rank over Q.  The rule is
    sound for any prime: if alpha_f vanishes modulo WORD_PRIME, the shifts'
    rank modulo it may fall short, and a short rank only sends the layer
    to the point system's bound (_sandwich), never to a wrong basis."""
    m = monomial_count(3, k - 1)
    at = _point_row(points[-1], k - 1)
    kept = line_frame(A.lines[0].int_coeffs)[1:3]
    # x_var at each point, once for each kept component's value there
    scales = [(var, [P[var] for P in points for _ in range(2)]) for var in kept]
    for theta, carried in zip(prev, prev.rows):
        values = list(carried) + _evaluate((theta[:m], theta[m:]), at)
        if any(values):
            for var, scale in scales:
                yield ([s * x for s, x in zip(scale, values)],
                       lambda theta=theta, var=var: _shift_vec(theta, k - 1, var))


def _derivation_points(A: Arrangement, k: int):
    """(v, missing) for each point derivation of degree k: v an intersection
    point of multiplicity |A| - k, and missing the indices of the lines that
    miss it, increasing (see _point_values)."""
    n = len(A)
    for X in intersection_points(A):
        if X.multiplicity == n - k:
            yield X.int_point, [K for K in range(n) if K not in X.incident_lines]


def _candidates(A: Arrangement, k: int, prev: _Layer, points):
    """Derivations in D_{H0}(A)_k, each as (its kept values at points, a
    builder of its kept pair, and (v, missing) for a point
    derivation, else None): the shift candidates of _shift_candidates, then
    the point derivations of degree k (_derivation_points), with the kept
    values of their closed form (_point_values) and that closed form's
    pair, decoded from its values at the Kronecker point (_point_pair), as
    builder."""
    kept = line_frame(A.lines[0].int_coeffs)[1:3]
    for row, build in _shift_candidates(A, k, prev, points):
        yield row, build, None
    forms = [line.int_coeffs for line in A.lines]
    for v, missing in _derivation_points(A, k):
        row = [x for P in points for x in _point_values(forms, v, missing, P, kept)]
        yield (row, lambda v=v, missing=missing: _point_pair(forms, v, missing, k, kept),
               (v, missing))


def _sandwich(A: Arrangement, k: int) -> _Layer | None:
    """Layer k of D_{H0}(A) when the rank sandwich of _layer is tight, else
    None.

    Its own vectors are the candidates chosen greedily, in _candidates'
    order, while their kept values at k + 1 points of H0 grow in rank
    modulo WORD_PRIME, until that rank reaches the free pattern of the
    exponents of the restriction to H0 (route "ziegler"), or, once the
    candidates run out, the dimension of layer k - 1 plus that rank
    reaches the dimension of the point system's kernel modulo WORD_PRIME
    (_point_system; route "point bound"); with alpha_H0 times layer k - 1
    they are a basis.  Every chosen point derivation is its closed form,
    decoded from its values at the Kronecker point (_point_pair), which
    lies in D_{H0}(A) and takes the values it was ranked by.  Each own
    vector is stored primitive, and its ranked row, divided by the same
    content, is stored as its kept values.

    The layer is marked `proved` when its chosen point derivations are
    proved new generators, which spares _new_generators its kernel.  Let s
    be the number of shift candidates, r the number chosen, and S the span
    of x, y and z times layer k - 1.  The shifts come first, so all of
    them were offered whenever a point derivation was chosen.  On H0 the
    shifts restrict to S'_1 I, S' the coordinate ring of H0 and I the
    restriction of D_(k-1), which lies in D(A^H0, m^H0)_(k-1) =
    S'_(k-1-e1) eta1 + S'_(k-1-e2) eta2 (see _layer).  So their rank over
    Q is at most
        B = min(s, _free_pattern(k, e1, e2) - [e1 = k] - [e2 = k]),
    as S'_1 S'_(k-1-e) has dimension k - e + 1 for e < k and is zero for
    e = k.  It is at least r, a rank modulo WORD_PRIME of the shifts (see
    _grows).  If r = B, the chosen shifts restrict to a basis of the
    restriction of S.  The vectors chosen restrict to r + t independent
    vectors, t the number of point derivations, in the restriction of D_k,
    of dimension dim D_k - dim D_(k-1) = r + t, as the sandwich is tight.
    So each point derivation lies outside S plus the vectors before it: all
    t are new generators, and dim D_k - dim S = t.
    """
    prev = _layer(A, k - 1) if k else _Layer()
    exp = exponents(ziegler_restriction(A, 0)[0])
    target = _free_pattern(k, exp.e1, exp.e2)
    if not target:
        return _Layer((), prev.dim, route="ziegler")
    points = _h0_points(A, k + 1)
    echelon: list = []
    chosen = []
    shifts = 0
    for row, build, point in _candidates(A, k, prev, points):
        shifts += point is None
        if _grows(echelon, row, linalg.WORD_PRIME):
            chosen.append((row, build(), point))
            if len(echelon) == target:
                break
    else:
        if prev.dim + len(echelon) != len(
                _point_system(A, k, linalg.WORD_PRIME)[1]):
            return None
    derived = sum(1 for *_, point in chosen if point)
    vectors, rows = [], []
    for row, vec, _ in chosen:
        g = linalg._content(vec)
        vectors.append(tuple(linalg._primitive_vec(vec)))
        rows.append(tuple(x // g for x in row) if g > 1 else tuple(row))
    bound = min(shifts, target - (exp.e1 == k) - (exp.e2 == k))
    return _Layer(vectors, prev.dim + len(vectors), tuple(rows), derived,
                  "ziegler" if len(echelon) == target else "point bound",
                  proved=bool(derived) and len(chosen) - derived == bound)


@lru_cache(maxsize=8192)
def _layer(A: Arrangement, k: int) -> _Layer:
    """Layer k of D_{H0}(A), the degree-k derivations theta with
    theta(alpha_H0) = 0 that keep every line (H0 = line 0), as the scan of
    _resolution reads it: its dimension, and the vectors of a certified
    basis that are not alpha_H0 times layer k - 1 (see _Layer), as
    primitive kept pairs (see the module docstring).  Which basis is not
    part of the contract: every caller reads only the span of a layer.

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
    for every k' < k, so the empty layers found form a prefix (route
    "peel"); each layer above it takes the routes below.

    Any other layer is _sandwich's when this rank sandwich is tight:
    - Above.  Ziegler's sequence 0 -> D_{H0}(A)(-1) -> D_{H0}(A) ->
      D(A^H0, m^H0), the first map multiplication by alpha_H0 and the
      second restriction to H0 (Ziegler 1989), gives dim D_k <= dim D_(k-1)
      + dim D(A^H0, m^H0)_k.  The restriction is free of rank 2 with the
      exponents (e1, e2) of multiarr.exponents, so the second term is
      _free_pattern(k, e1, e2) (route "ziegler").
    - Above, when the candidates run out below that bound.  D_k has the
      dimension of the kernel over Q of the point system with the lines of
      _peeled(A, k) peeled off, so that kernel's dimension modulo p
      (_point_system(A, k, p)) is at least dim D_k (route "point bound").
    - Below.  alpha_H0 times a basis of D_(k-1) is independent and
      restricts to zero on H0.  A derivation of D_{H0}(A)_k restricts to
      zero iff its two kept components vanish on H0, that is, at k + 1
      distinct points of H0.  Derivations of D_{H0}(A)_k whose kept values
      there are independent modulo a prime are independent over Q (a
      rational dependence, made primitive, survives modulo p), and so
      independent modulo alpha_H0 D_(k-1).  With the alpha_H0 multiples
      they are dim D_(k-1) + (their rank) independent vectors of D_k.
    When an upper bound meets the lower one, those vectors are a basis.  The
    candidates are x_u and x_v times layer k - 1, (u, v) the coordinates
    that line_frame(alpha_H0) keeps, which lie in the module and whose
    restrictions span that of x_f times it too (_shift_candidates), and
    the point derivations, each decoded from one evaluation per component
    of its closed form, which lies in the module (_point_pair).
    The layer keeps only the candidates chosen (see _Layer).  Otherwise the
    layer is the point system solved over Q, (u, v) of each vector of U
    taken to the kept pair (sum u_i g_i, sum v_i g_i), with its kept values
    computed once (route "point system").  The layer records its route
    (see _Layer).
    """
    if k <= _empty_through(A):
        return _Layer(route="peel")
    layer = _sandwich(A, k)
    if layer is not None:
        return layer
    G, U = _point_system(A, k)
    m, r = monomial_count(3, k), len(G)
    vectors = [tuple(linalg._primitive_vec(
        _combine(uv[:r], G, m) + _combine(uv[r:], G, m))) for uv in U]
    return _Layer(vectors, len(vectors),
                  tuple(map(tuple, _kept_values(A, vectors, k))), len(vectors),
                  "point system")


@lru_cache(maxsize=8192)
def _ar_kernel(A: Arrangement, k: int) -> tuple[tuple[int, ...], ...]:
    """A certified basis of D_{H0}(A)_k, as primitive integer vectors of
    three components: alpha_H0 times _ar_kernel(A, k - 1), then the own
    vectors of _layer(A, k) lifted by _h0_lift, or those alone when they are
    the whole layer (see _Layer).  Built on demand, for the projections of
    dh_projection; the scan reads _layer."""
    layer = _layer(A, k)
    own = tuple(_h0_lift(A, v) for v in layer)
    if layer.dim == len(layer):
        return own
    alpha = A.lines[0].int_coeffs
    return tuple(tuple(linalg._primitive_vec(_times_linear(theta, k - 1, alpha)))
                 for theta in _ar_kernel(A, k - 1)) + own


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


def _times_linear(v, k: int, form) -> list[int]:
    """A degree-k derivation coefficient vector times a linear form."""
    m = monomial_count(3, k)
    return [x for c in range(3) for x in _times_form(v[c * m:(c + 1) * m], k, form)]


def _shift_vec(v, k: int, var: int) -> list[int]:
    """Degree-k components times x, y or z, with no multiplication: each
    component, or each of its blocks (see poly), padded with zeros."""
    m = monomial_count(3, k)
    out = []
    for comp in (v[i:i + m] for i in range(0, len(v), m)):
        if not var:
            out += [*comp, *[0] * (k + 2)]
            continue
        out.append(0)
        for s in range(k + 1):
            block = comp[s * (s + 1) // 2:(s + 1) * (s + 2) // 2]
            out += [*block, 0] if var == 1 else [0, *block]
    return out


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
    of the given derivations, kept pairs (a, b) and (a', b').

    They lift to aP + bQ and a'P + b'Q (_h0_lift), and the points of
    line_frame(alpha_H0) have P x Q = +-alpha_f alpha_H0, alpha_f != 0, so
    the determinant is +-alpha_f alpha_H0 (a b' - a' b): the test is the form
    a b' - a' b, of degree D = g_i + g_j.  Set z = 1 and a nonzero form of
    degree D is a nonzero polynomial of degree at most D in x and in y,
    which cannot vanish on all of {0..D}^2, so the grid of the largest D
    decides for every pair.  Determinants of derivations of A vanish on its
    lines, so points off the lines are tried first.
    """
    degs = sorted(g for g, _ in gens)
    top = degs[-1] + degs[-2]
    forms = [line.int_coeffs for line in A.lines]

    def off(P):
        return all(f[0] * P[0] + f[1] * P[1] + f[2] for f in forms)

    parts = []
    for g, v in gens:
        m = monomial_count(3, g)
        parts.append((g, (v[:m], v[m:])))
    grid = [(x, y) for x in range(top + 1) for y in range(top + 1)]
    pairs = list(combinations(range(len(gens)), 2))
    for x, y in chain(filter(off, grid), filterfalse(off, grid)):
        vals = [_evaluate(halves, _point_row((x, y, 1), g)) for g, halves in parts]
        for i, j in pairs:
            (a, b), (c, d) = vals[i], vals[j]
            if a * d - b * c:
                return True
    return False


def _saito_partner(A: Arrangement, k: int, theta):
    """The kept pair of a point derivation of degree |A| - 1 - k that makes
    det[theta_E, theta, theta_v] nonzero, theta a degree-k kept pair of
    D_{H0}(A), or None when no point derivation does.

    The candidates are the point derivations theta_v of the points v of
    multiplicity k + 1 (_derivation_points), each in D_{H0}(A) by its
    closed form (_point_pair).  The determinant has degree |A|, and every
    alpha_K divides it, as theta_E, theta and theta_v all take alpha_K
    into the ideal of alpha_K: it is c Q(A).  It is +-alpha_f alpha_H0
    times the form a b' - a' b of the two kept pairs (see _rank_two), so at
    a point P off every line it vanishes iff c = 0.  Such a P lies in
    {0..|A|}^2 x {1}, as Q(x, y, 1) is a nonzero polynomial of degree at
    most |A| in x and in y.  So one value of each closed form at P decides,
    and only the first theta_v with a b' - a' b nonzero there is decoded.
    By Saito's criterion, theta and it are then a basis, which
    _resolution still proves by _spans_module alone."""
    n = len(A)
    forms = [line.int_coeffs for line in A.lines]
    P = next((x, y, 1) for x in range(n + 1) for y in range(n + 1)
             if all(a * x + b * y + c for a, b, c in forms))
    kept = line_frame(forms[0])[1:3]
    m = monomial_count(3, k)
    a, b = _evaluate((theta[:m], theta[m:]), _point_row(P, k))
    for v, missing in _derivation_points(A, n - 1 - k):
        c, d = _point_values(forms, v, missing, P, kept)
        if a * d - b * c:
            return _point_pair(forms, v, missing, n - 1 - k, kept)
    return None


def _spans_module(A: Arrangement, gens, rels) -> bool:
    """Whether the module N spanned by at most three generators is all of
    D_{H0}(A), given their relation degrees rels as the scan found them,
    with len(gens) - len(rels) = 2 and degree sums differing by |A| - 1.

    Precondition, not checked here but guarded by the CI step "Relation
    degrees reach _spans_module only from _resolution": rels are the
    relation degrees _resolution counted for these same generators, or
    none for two generators, a scanned one and its Saito partner
    (_saito_partner).  Three generators of the same degrees can pass with
    a wrong relation degree (theta_2 = x theta_1, say), since some pair
    keeps rank 2 and the identity sees only degrees; two of rank 2 cannot.

    N has rank 2 when _rank_two holds, a 2 x 2 form in the kept pairs (see
    there).  With two generators N is then free;
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
    x, y and z times layer k - 1, read off their restriction to H0.

    S contains alpha_H0 theta = sum alpha_i x_i theta for every theta of
    D_(k-1), and alpha_H0 D_(k-1) is the kernel of the restriction to H0
    on D_k, by Ziegler's sequence (see _layer).  So for any span W in
    D_k, v lies in S + W iff its restriction lies in that of S + W, and a
    derivation of D_k restricts to zero iff its kept components vanish at
    k + 1 points of H0.  The new generators are thus the layer columns that
    are pivots of one kernel_basis of the kept values there of [shifts of
    prev | layer vectors], a column for every shift _shift_candidates
    yields: their restrictions span that of S.  No layer vector known to
    lie in S takes a column, its `columns` last own vectors aside (see
    _Layer): on a sandwiched layer only the chosen point derivations take
    one (the alpha_H0 multiples and the chosen shifts lie in S), and on a
    point-system layer every vector does, each with the kept values the
    layer carries.  The shifts' kept values are those of _shift_candidates,
    which extends the values that prev carries by one point.  With no column, there is no
    new generator and no kernel runs.  The pivots among the shifts count
    the rank r of the restriction of S, so dim S = dim D_(k-1) + r, and
    dim D_k - dim S new generators must come out, or CertificationFailure
    is raised.

    A layer marked `proved` runs none of this: _sandwich's modular echelon
    met the bound B on the rank of S's restriction, so its chosen shifts
    restrict to a basis of it, and every chosen point derivation, its
    restriction independent of theirs and of the others', is a new
    generator (see _sandwich).  The kernel would find each of them a pivot,
    in the same order.  Every other layer, a sandwiched one below its bound
    included, takes the kernel and its count check.
    """
    if not layer.columns:
        return ()
    first = len(layer) - layer.columns
    if layer.proved:
        return list(layer[first:])
    cols = [row for row, _ in _shift_candidates(
        A, k, prev, _h0_points(A, k + 1))] + list(layer.rows[first:])
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

    When the lowest nonzero layer, of degree k, gives one generator and
    k < |A| - 1 - k <= cap, _saito_partner looks for a point derivation of
    degree |A| - 1 - k that makes a free basis with it.  The pair ends the
    scan only if _spans_module proves it, and then it is the shape the
    scan would reach at degree |A| - 1 - k: a free module's layers in
    between give no generator and no relation.  When no point derivation
    passes, or the cap lies below |A| - 1 - k, the scan goes on as before.
    The layers it skips are built on demand by their readers (_layer).
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
        # the lowest nonzero layer gives one generator and no relation: a
        # point derivation of degree n - 1 - k may complete it to a free
        # basis (_saito_partner), which ends the scan with no layer between
        if gd == [k] and k < n - 1 - k <= cap:
            partner = _saito_partner(A, k, gens[0][1])
            if partner is not None and _spans_module(
                    A, gens + [(n - 1 - k, partner)], rels):
                gens.append((n - 1 - k, partner))
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
    # the terms x^mu of theta(alpha_H) divisible by x_e, highest power
    # first: peeling one off puts rem[mu] / alpha_e into the quotient at
    # mu - e_e and changes only mu and lower powers, at mu - e_e + e_c
    steps = [(j, [_index(mu[1] - (e == 1) + (c == 1), mu[2] - (e == 2) + (c == 2))
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
