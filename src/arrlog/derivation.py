"""The graded module of Jacobian syzygies of an arrangement.

For a defining polynomial f (product of the lines), the syzygies
(a, b, c) with a f_x + b f_y + c f_z = 0 form a rank-2 graded module D_0(A)
whose minimal free resolution has length at most one.  Everything here is
read off degree by degree with exact kernels: graded dimensions, minimal
generators, relation degrees (recovered from the Hilbert data of the free
relation module), and the classification free / nearly free / plus-one
generated.

The syzygies are not solved from the Jacobian matrix.  Ziegler's splittings
D(A) = S theta_E + D_0(A) = S theta_E + D_H(A) (Ziegler 1989,
"Multiarrangements of hyperplanes and their freeness") give graded
S-linear isomorphisms D_0(A) = D_H(A) for every line H, so the module is
computed as D_{H0}(A), H0 = line 0, from its own defining conditions:
theta(alpha_H0) = 0, and theta(alpha_K) vanishes on every other line K.
Those conditions are solved from the intersection points of A: both kept
components of theta vanish at every point off H0, so one kernel of the
monomials at those points serves both, and a small second system in its
coordinates takes one row per point on H0 and a restriction block only for
the lines with at most k points (see _ar_kernel).  Both kernels are
certified over Z by linalg.kernel_basis as any other, and since the two
systems define D_{H0}(A) exactly, the certificate covers the module itself.

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
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, filterfalse
from math import comb

from . import linalg
from .arrangement import Arrangement, _cross, intersection_points, tjurina
from .poly import (CertificationFailure, _index_table, monomial_count,
                   monomials, restrict, restriction_param)

MAX_DEGREE_ENV = "ARRLOG_MAX_DEGREE"


class DegreeCapError(ValueError):
    """The degree cap set in the environment is not a nonnegative integer."""


def _h0_frame(A: Arrangement) -> tuple[list[int], int, list[int]]:
    """The integer-scaled form of line 0, the component of theta that
    restriction_param eliminates for it, and the two it keeps."""
    alpha = A.lines[0].int_coeffs
    e = restriction_param(alpha).eliminated
    return alpha, e, [i for i in range(3) if i != e]


@lru_cache(maxsize=1024)
def _h0_incidence(A: Arrangement) -> tuple[list, list, list]:
    """The intersection points of A as D_{H0}(A) reads them, H0 = line 0.

    Returns the primitive integer points off H0; for each point Q on H0,
    (Q, w) with w the weights of one other line through Q; and for each
    line K != H0, (t_K, beta_K, w_K): the number of intersection points on
    K, its integer form and its weights.  The weights of a line with form
    beta are w = (alpha_e beta_i - beta_e alpha_i for the kept i), so that
    alpha_e theta(beta) = w0 theta_i0 + w1 theta_i1 for theta in D_{H0}(A),
    as theta(alpha_H0) = 0 fixes its eliminated component to
    theta_e = -(alpha_i0 theta_i0 + alpha_i1 theta_i1) / alpha_e.  They are
    the coefficients of the line through K cap H0 and the point e_e, which
    is off H0 as alpha_e != 0: lines through one point of H0 have
    proportional weights, and lines through two different points have
    independent ones.
    """
    alpha, e, kept = _h0_frame(A)
    forms = [line.int_coeffs for line in A.lines]
    weights = [tuple(alpha[e] * beta[i] - beta[e] * alpha[i] for i in kept)
               for beta in forms]
    count = [0] * len(A)
    off, on = [], []
    for X in intersection_points(A):
        i, j = X.incident_lines[:2]
        for K in X.incident_lines:
            count[K] += 1
        P = linalg._primitive_vec(list(_cross(forms[i], forms[j])))
        if i == 0:
            on.append((P, weights[j]))
        else:
            off.append(P)
    return off, on, [(count[K], forms[K], weights[K]) for K in range(1, len(A))]


def _h0_lift(A: Arrangement, v) -> tuple[int, ...]:
    """The derivation in D_{H0}(A) with the given kept components (their
    coefficient vectors, concatenated), as the concatenated coefficient
    vectors of its three components, scaled to a primitive integer vector."""
    alpha, e, (i0, i1) = _h0_frame(A)
    m = len(v) // 2
    comps = [None] * 3
    comps[i0] = [alpha[e] * a for a in v[:m]]
    comps[i1] = [alpha[e] * b for b in v[m:]]
    comps[e] = [-alpha[i0] * a - alpha[i1] * b for a, b in zip(v[:m], v[m:])]
    return tuple(linalg._primitive_vec([c for comp in comps for c in comp]))


def _point_row(P, k: int) -> list[int]:
    """The degree-k monomials at the integer point P, in monomials order."""
    powers = [[c ** i for i in range(k + 1)] for c in P]
    return [powers[0][i] * powers[1][j] * powers[2][l]
            for i, j, l in monomials(3, k)]


def _combine(coeffs, vectors, m: int) -> list[int]:
    """The integer combination sum of coeffs[i] vectors[i] of length m."""
    out = [0] * m
    for c, v in zip(coeffs, vectors):
        if c:
            for j, x in enumerate(v):
                if x:
                    out[j] += c * x
    return out


@lru_cache(maxsize=8192)
def _ar_kernel(A: Arrangement, k: int) -> tuple[tuple[int, ...], ...]:
    """Basis of D_{H0}(A)_k, the degree-k derivations theta with
    theta(alpha_H0) = 0 that keep every line (H0 = line 0).

    Ziegler's splittings D(A) = S theta_E + D_0(A) = S theta_E + D_H0(A)
    make D_{H0}(A) isomorphic to the Jacobian syzygies D_0(A) as a graded
    S-module, so the resolution and classification read off this basis are
    those of D_0(A).

    Let a and b be the kept components of theta and w_K the weights of a
    line K != H0 with form beta_K, so that theta keeps K iff w_K . (a, b)
    vanishes on K: iff line_restriction(beta_K, k) takes it to zero, k + 1
    rows per line.  The basis is kernel_basis of those (|A| - 1)(k + 1)
    per-line rows, lifted to all three components and scaled to primitive
    integer vectors.  It is computed from the intersection points of A
    (_h0_incidence) instead:
    - At a point P off H0, the lines K, K' through P meet H0 in different
      points, so w_K and w_K' are independent and a(P) = b(P) = 0.  So a
      and b lie in the span of G = kernel_basis(E), E the matrix of the
      degree-k monomials at the points off H0: a = sum u_i g_i and
      b = sum v_i g_i.
    - (u, v) then solves one row w_K . (a, b)(Q) = 0 for each point Q on
      H0, K any other line through Q (their weights are proportional), and
      the restriction block of w_K . (a, b) to K for each line K with
      t_K < k + 1 intersection points.
    Conversely, on a line K with t_K >= k + 1, w_K . (a, b) restricted to K
    is a binary form of degree k that vanishes at t_K points: those of K
    off H0 and K cap H0.  So it is zero, and the other lines carry their
    own block.  The two systems have the same solutions, and both kernels
    are certified by kernel_basis (M v = 0 over Z), so this basis is
    certified as the kernel of the per-line rows would be.

    The basis is also the same, vector for vector, with no elimination over
    Q.  Each g_i is positive in its free column f_i, its last nonzero entry,
    and zero at every other f_j.  So on the columns f_i of a and of b,
    (a, b) is (u, v) scaled by the positive g_i[f_i], in the same order, and
    the last nonzero entry of (a, b) is the image of that of (u, v).  The
    kernel_basis of the (u, v) system, each vector positive in its last
    nonzero column and zero in the others', thus maps to vectors of the same
    kind: up to positive factors, the reversed RREF of the layer that
    kernel_basis of the per-line rows returns.  _h0_lift makes them primitive.
    """
    off, on, lines = _h0_incidence(A)
    m = monomial_count(3, k)
    G = linalg.kernel_basis([_point_row(P, k) for P in off], m)
    # (weights, the value of each g_i) per condition
    conditions = []
    for Q, w in on:
        at = _point_row(Q, k)
        conditions.append((w, [sum(c * t for c, t in zip(g, at) if c) for g in G]))
    for t, beta, w in lines:
        if t < k + 1:
            conditions.extend((w, values) for values in zip(*restrict(beta, G, k)))
    rows = [[w0 * x for x in values] + [w1 * x for x in values]
            for (w0, w1), values in conditions]
    r = len(G)
    return tuple(_h0_lift(A, _combine(uv[:r], G, m) + _combine(uv[r:], G, m))
                 for uv in linalg.kernel_basis(rows, 2 * r))


def ar_dim(A: Arrangement, k: int) -> int:
    """Dimension of the degree-k layer of the syzygy module."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return len(_ar_kernel(A, k))


@lru_cache(maxsize=None)
def _shift_table(k: int, var: int) -> tuple[int, ...]:
    """The degree-(k + 1) index of each degree-k monomial times x_var."""
    table = _index_table(3, k + 1)
    return tuple(table[tuple(e + (i == var) for i, e in enumerate(mu))]
                 for mu in monomials(3, k))


def _shift_vec(v, k: int, var: int) -> list[int]:
    """Multiply a degree-k derivation coefficient vector by a coordinate."""
    m, m1 = monomial_count(3, k), monomial_count(3, k + 1)
    out = [0] * (3 * m1)
    for c in range(3):
        for idx, a in zip(_shift_table(k, var), v[c * m:(c + 1) * m]):
            out[c * m1 + idx] = a
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
    # ASCII digits only: int() would also take other Unicode digits,
    # underscores, a plus sign and surrounding blanks
    if not re.fullmatch(r"-?[0-9]+", env):
        raise DegreeCapError(f"{MAX_DEGREE_ENV}={env!r} is not an integer")
    cap = int(env)
    if cap < 0:
        raise DegreeCapError(f"{MAX_DEGREE_ENV}={env!r} is negative")
    return cap


def _values(vec, g: int, a: int, b: int) -> list[int]:
    """The three components of a degree-g derivation at the point (a, b, 1)."""
    m = monomial_count(3, g)
    at = _point_row((a, b, 1), g)
    return [sum(c * t for c, t in zip(vec[i * m:(i + 1) * m], at) if c)
            for i in range(3)]


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

    grid = [(a, b) for a in range(top + 1) for b in range(top + 1)]
    pairs = list(combinations(range(len(gens)), 2))
    for a, b in chain(filter(off, grid), filterfalse(off, grid)):
        vals = [_values(v, g, a, b) for g, v in gens]
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


def _resolution(A: Arrangement, early_stop: bool) -> _ResolutionData:
    cap = degree_cap(A)
    n = len(A)
    e = _h0_frame(A)[1]
    gens: list[tuple[int, tuple[int, ...]]] = []
    rels: list[int] = []
    prev: tuple = ()
    k = 0
    partial = False
    cap_hit = False
    while True:
        basis = _ar_kernel(A, k)
        dim = len(basis)
        # the pivots of [x, y, z times layer k - 1 | layer k], the columns
        # no kernel vector is free in, count the dimension the shifts cover
        # and, among the basis, are the new generators.  theta(alpha_H0) = 0
        # fixes component e from the other two, in the shifts as in the
        # layer, so its rows are left out: they add nothing to the kernel
        cols = [_shift_vec(v, k - 1, var) for v in prev for var in range(3)]
        shifts = len(cols)
        cols += basis
        m = monomial_count(3, k)
        rows = [list(r) for r in zip(*cols)]
        del rows[e * m:(e + 1) * m]
        free = {linalg.free_column(w)
                for w in linalg.kernel_basis(rows, len(cols))}
        covered = sum(1 for c in range(shifts) if c not in free)
        gamma = dim - covered
        if gamma < 0:
            raise CertificationFailure(f"span exceeds layer dimension at degree {k}")
        if gamma:
            new = [v for c, v in enumerate(basis, shifts) if c not in free]
            if len(new) != gamma:
                raise CertificationFailure(f"generator extraction mismatch at degree {k}")
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
        prev = basis
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


@lru_cache(maxsize=1024)
def _classification_resolution(A: Arrangement) -> _ResolutionData:
    return _resolution(A, early_stop=True)


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


def _other(shape: ResolutionShape) -> Classification:
    md = min(shape.generator_degrees) if shape.generator_degrees else None
    return Classification("other", None, None, md, None, shape)


@lru_cache(maxsize=2048)
def classify(A: Arrangement) -> Classification:
    """Classification from the resolution shape.

    Free: two generators, no relation.  Plus-one generated: three generators
    a <= b <= d with one relation of degree d + 1 whose coefficient on a
    top-degree generator is a nonzero linear form; reported as nearly free
    when b = d.  Everything else (including a degenerate relation) is other.
    """
    data = _classification_resolution(A)
    shape = data.shape
    gd = shape.generator_degrees
    rd = shape.relation_degrees
    if not shape.complete:
        return _other(shape)
    if len(gd) == 2 and not rd:
        return Classification("free", gd, None, gd[0], None, shape)
    if len(gd) == 3 and len(rd) == 1:
        a, b, d = gd
        if rd[0] != d + 1:
            return _other(shape)
        kernel = relation_vectors(A, data.generators, d + 1)
        if len(kernel) != 1:
            raise CertificationFailure("relation space dimension mismatch")
        rel = kernel[0]
        # coefficient blocks, in generator order
        offset = 0
        top_ok = False
        for g, _ in data.generators:
            size = monomial_count(3, d + 1 - g)
            block = rel[offset:offset + size]
            if g == d and any(block):
                top_ok = True
            offset += size
        if not top_ok:
            return _other(shape)
        nu = d - b + 1
        verdict = "nearly-free" if b == d else "plus-one-generated"
        return Classification(verdict, (a, b), d, a, nu, shape)
    return _other(shape)


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
    e = restriction_param(alpha).eliminated
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
