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
That system has (|A| - 1)(k + 1) rows and 2 C(k + 2, 2) columns in degree
k, against C(k + |A| + 1, 2) x 3 C(k + 2, 2) for the Jacobian matrix, and
its kernel entries are about half as long.  Its kernels are certified over
Z by linalg.kernel_basis as any other, and since those conditions define
D_{H0}(A) exactly, the certificate covers the module itself.

The scan ends with a proof, not with more layers: _spans_module shows
from a determinant and the global Tjurina number that at most three
generators found span all of D_{H0}(A).  Only minimal_resolution reaches
four or more generators, and there exact ranks of the later layers decide.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, filterfalse
from math import comb

from . import linalg
from .arrangement import Arrangement, tjurina
from .poly import (CertificationFailure, _index_table, line_restriction,
                   monomial_count, monomials, restriction_param)

MAX_DEGREE_ENV = "ARRLOG_MAX_DEGREE"


class DegreeCapError(ValueError):
    """The degree cap set in the environment is not a nonnegative integer."""


def _h0_frame(A: Arrangement) -> tuple[list[int], int, list[int]]:
    """The integer-scaled form of line 0, the component of theta that
    restriction_param eliminates for it, and the two it keeps."""
    alpha = A.lines[0].int_coeffs
    e = restriction_param(alpha).eliminated
    return alpha, e, [i for i in range(3) if i != e]


def _h0_conditions(A: Arrangement, k: int) -> list[list[int]]:
    """The conditions defining D_{H0}(A)_k, H0 = line 0, on the two
    components of theta that restriction_param(alpha_H0) keeps.

    theta(alpha_H0) = 0 gives the eliminated component e as
    theta_e = -(sum of alpha_i theta_i, i != e) / alpha_e, so alpha_e
    theta(alpha_K) = sum of (alpha_e beta_i - beta_e alpha_i) theta_i over
    the kept i, for every other line K with form beta.  That value vanishes
    on K exactly when its line_restriction(beta, k) vanishes.  Forms are
    taken in their integer scaling, which changes no condition.  Columns are the
    degree-k monomials of the first kept component, then of the second.
    """
    alpha, e, kept = _h0_frame(A)
    m = monomial_count(3, k)
    rows: list[list[int]] = []
    for form in A.lines[1:]:
        beta = form.int_coeffs
        w0, w1 = (alpha[e] * beta[i] - beta[e] * alpha[i] for i in kept)
        block = [[0] * (2 * m) for _ in range(k + 1)]
        for col, (r0, lead, xs) in enumerate(line_restriction(beta, k)):
            a0, a1 = w0 * lead, w1 * lead
            for r, x in enumerate(xs, r0):
                if x:
                    block[r][col], block[r][m + col] = a0 * x, a1 * x
        rows.extend(block)
    return rows


def _h0_lift(A: Arrangement, v) -> tuple[int, ...]:
    """The derivation in D_{H0}(A) with the given kept components (a kernel
    vector of _h0_conditions), integer-scaled, as the concatenated
    coefficient vectors of its three components."""
    alpha, e, (i0, i1) = _h0_frame(A)
    m = len(v) // 2
    comps = [None] * 3
    comps[i0] = [alpha[e] * a for a in v[:m]]
    comps[i1] = [alpha[e] * b for b in v[m:]]
    comps[e] = [-alpha[i0] * a - alpha[i1] * b for a, b in zip(v[:m], v[m:])]
    return tuple(linalg._int_row([c for comp in comps for c in comp]))


@lru_cache(maxsize=8192)
def _ar_kernel(A: Arrangement, k: int) -> tuple[tuple[int, ...], ...]:
    """Basis of D_{H0}(A)_k, the degree-k derivations theta with
    theta(alpha_H0) = 0 that keep every line (H0 = line 0).

    Ziegler's splittings D(A) = S theta_E + D_0(A) = S theta_E + D_H0(A)
    make D_{H0}(A) isomorphic to the Jacobian syzygies D_0(A) as a graded
    S-module, so the resolution and classification read off this basis are
    those of D_0(A).  The basis is kernel_basis of _h0_conditions, certified
    there by M v = 0 over Z; the conditions define D_{H0}(A)_k exactly, so
    nothing else needs checking.  Each vector is lifted to all three
    components and scaled to a primitive integer vector.
    """
    rows = _h0_conditions(A, k)
    return tuple(_h0_lift(A, v)
                 for v in linalg.kernel_basis(rows, 2 * monomial_count(3, k)))


@lru_cache(maxsize=8192)
def _ar_quick_dim(A: Arrangement, k: int) -> int:
    """dim D_{H0}(A)_k (= dim D_0(A)_k) from the rank of its conditions."""
    ncols = 2 * monomial_count(3, k)
    return ncols - linalg.rank(_h0_conditions(A, k), ncols)


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
    at = [a ** i * b ** j for i, j, _ in monomials(3, g)]
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


def _resolution(A: Arrangement, early_stop: bool) -> _ResolutionData:
    cap = degree_cap(A)
    n = len(A)
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
        # and, among the basis, are the new generators
        cols = [_shift_vec(v, k - 1, var) for v in prev for var in range(3)]
        shifts = len(cols)
        cols += basis
        free = {linalg.free_column(w) for w in linalg.kernel_basis(
            [list(r) for r in zip(*cols)], len(cols))}
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
        # proved to span the module by _spans_module; four or more are
        # checked against exact ranks of the layers up to two past every
        # generator and relation degree.  A failed check means more
        # structure ahead, so the scan goes on.
        gd = [g for g, _ in gens]
        shape_ok = (gens and len(gd) - len(rels) == 2
                    and sum(gd) - sum(rels) == n - 1)
        target = (max(gd) if gd else 0) + (max(rels) if rels else 0) + 2
        if shape_ok:
            if len(gd) <= 3:
                done = _spans_module(A, gens, rels)
            else:
                done = all(
                    _ar_quick_dim(A, kk)
                    == (sum(comb(kk - g + 2, 2) for g in gd)
                        - sum(comb(kk - r + 2, 2) for r in rels))
                    for kk in range(k + 1, min(target, cap) + 1))
            if done:
                cap_hit = target > cap
                break
        if k >= cap:
            cap_hit = True
            break
        prev = basis
        k += 1
    complete = not partial and not cap_hit
    if complete:
        gd = [g for g, _ in gens]
        if len(gd) - len(rels) != 2 or sum(gd) - sum(rels) != n - 1:
            raise CertificationFailure(
                f"resolution shape {sorted(gd)} / {sorted(rels)} fails the "
                f"rank/degree certificate for {n} lines")
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
