"""Everything built on the restriction map from the arrangement's derivations
to the derivation module of the induced weighted arrangement on one line:
image/cokernel dimensions, defects, the near-freeness witness scan, splitting
types along arbitrary admissible lines, the property-[P] decision, and the
umbrella validator that checks the whole battery of structural identities on
a single arrangement.

Property [P] works in integers up to its last step: the D_H(A) basis is
restricted at the integer points of line H inside the elimination that
yields it (its pivots all fall in the basis columns, as it is independent),
and the factor beta_f^k those points introduce is divided out once at the
end, so the witnesses come out exactly as in the coordinates of
poly.line_frame; see _image_vectors.

An external line is restricted once, in _meeting_points: the forms l_i of
A's lines on it, whose zeros are the |A| points where it meets A.  They
decide admissibility (the zeros are distinct), and give every row its
splitting type is ranked from: one interpolation condition per point,
with no product and no value of the gradient; see _external_splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg
from .arrangement import (Arrangement, LinearForm3, chi0, intersection_points,
                          is_balanced, n_H, nr_form, to_document)
from .derivation import (ar_dim, classify, default_degree_cap, degree_cap,
                         dh_projection)
from .multiarr import (Derivation2, LinearForm2, Multiarrangement2,
                       _free_pattern, basis, exponents,
                       multiples, ziegler_restriction)
from .poly import (CertificationFailure, HomPoly, LineFrame, line_frame,
                   monomial_count, restrict, restrict_lines)
from .rng import XorShift64


EXTERNAL_ATTEMPTS = 100  # seeded candidates drawn per external line


class ConsistencyFailure(AssertionError):
    """Two provably-equal quantities disagreed (internal error)."""


class InadmissibleLine(ValueError):
    """External line through a singular point; splitting type out of scope."""


class NotApplicable(ValueError):
    """The requested invariant is undefined for this verdict."""


# ---------------------------------------------------------------------------
# the restriction map on derivations

@dataclass(frozen=True)
class ZieglerMapData:
    H: int
    exponents: tuple[int, int]
    domain_dims: tuple[int, ...]
    codomain_dims: tuple[int, ...]
    image_dims: tuple[int, ...]

    @property
    def coker_dims(self) -> tuple[int, ...]:
        return tuple(c - i for c, i in zip(self.codomain_dims, self.image_dims))

    @property
    def coker_total(self) -> int:
        return sum(self.coker_dims)


@lru_cache(maxsize=2048)
def _image_vectors(A: Arrangement, H: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """The restrictions to line H of a basis of D_H(A)_k, the reversed RREF
    of the dh_projection vectors P_i with each vector divided by its last
    nonzero entry, as the concatenated coefficients of their two kept
    components, u and v of poly.line_frame(beta).

    The rows [rev(P_i) | R(P_i)], R the poly.restrict of both kept components,
    are carried through that one elimination, read off linalg.rref_columns:
    the P_i are independent, so every pivot falls in the first 3m columns
    and the rest of each row is T R(P) = R(T P), the restriction of that
    basis vector.  R works at the integer points sP + tQ, which scales a
    degree-k form by beta_f^k; dividing that out once, at the end, gives the
    restrictions in the frame's coordinates.
    """
    beta = A.lines[H].int_coeffs
    f, u, v, _, _ = line_frame(beta)
    m = monomial_count(3, k)
    thetas = dh_projection(A, H, k)
    kept = restrict(beta, [theta[c * m:(c + 1) * m] for theta in thetas
                           for c in (u, v)], k)
    rows = [t[::-1] + a + b for t, a, b in zip(thetas, kept[::2], kept[1::2])]
    read = linalg.rref_columns(rows, 3 * m + 2 * (k + 1), 3 * m)
    if read is None or len(read[0]) != len(rows):
        raise CertificationFailure(f"dependent D_H basis at line {H}, degree {k}")
    scale = beta[f] ** k
    return tuple(tuple(x / scale for x in row) for row in zip(*read[1]))[::-1]


def ziegler_map(A: Arrangement, H: int) -> ZieglerMapData:
    """Per-degree domain/codomain/image dimensions of the restriction map
    from D_H(A) onto the derivations of the weighted arrangement on line H.

    Ziegler's exact sequence 0 -> D_H(A)(-1) -> D_H(A) -> D(A^H, m^H), the
    first map multiplication by alpha_H (Ziegler 1989), says the kernel in
    degree k is alpha_H D_H(A)_(k-1).  With D_H(A) = D_0(A) as graded modules
    and h(k) = ar_dim(A, k), the domain is h(k) and the image h(k) - h(k - 1)
    on every line; the codomain is the free pattern of exponents(M).  No
    derivation is restricted.

    Degrees 0..e2 are always computed; the scan continues while the cokernel
    is nonzero (it vanishes for good once zero past e2, since the codomain is
    generated in degrees <= e2), hard-capped by the default degree cap.  The
    user's cap bounds only the resolution: a cokernel cut short by it would
    be reported as an internal failure.
    """
    M, _ = ziegler_restriction(A, H)
    exp = exponents(M)
    cap = max(default_degree_cap(A), exp.e2)
    dom, cod, img = [], [], []
    k = 0
    while True:
        dom.append(ar_dim(A, k))
        cod.append(_free_pattern(k, exp.e1, exp.e2))
        img.append(dom[-1] - (dom[-2] if k else 0))
        if k >= exp.e2 and cod[-1] == img[-1]:
            break
        if k >= cap:
            raise ConsistencyFailure(
                f"cokernel of the restriction map at line {H} did not "
                f"vanish by degree {cap}")
        k += 1
    return ZieglerMapData(H, exp.as_pair(), tuple(dom), tuple(cod), tuple(img))


@dataclass(frozen=True)
class DefectReport:
    H: int
    exponents: tuple[int, int]
    defect: int
    coker_total: int
    coker_by_degree: tuple[int, ...]

    def to_json(self) -> dict:
        return {"H": self.H, "exponents": list(self.exponents),
                "defect": self.defect, "coker_total": self.coker_total,
                "coker_by_degree": list(self.coker_by_degree)}


def yoshinaga_defect(A: Arrangement, H: int) -> DefectReport:
    """Defect b2^0 - e1 e2 of the restriction onto line H, cross-checked
    against the cokernel total ziegler_map reads off the Hilbert function
    (Yoshinaga 2005), and each degree's image against 0 and the codomain,
    since a one-degree error in the Hilbert function leaves the total alone."""
    data = ziegler_map(A, H)
    e1, e2 = data.exponents
    defect = chi0(A).b2_0 - e1 * e2
    if defect != data.coker_total or not all(
            0 <= i <= c for i, c in zip(data.image_dims, data.codomain_dims)):
        raise ConsistencyFailure(
            f"defect {defect} vs cokernel {data.coker_dims} at line {H}")
    return DefectReport(H, data.exponents, defect, data.coker_total,
                        data.coker_dims)


def _deletion_defect(A: Arrangement, H: int) -> tuple[int, tuple[int, int]]:
    """The defect b2^0 - e1 e2 of the deletion A' = A minus line H along its
    line 0 (L = line 0 of A, or line 1 when H = 0) and the exponents
    (e1, e2) of that restriction, read off A's own data.

    - Deleting H lowers by one the multiplicity of each of the n_H points
      on H (a double point drops out of the sum) and |A| by one, so
      b2^0(A') = b2^0(A) - n_H + 1.
    - L keeps its parametrization, and the other lines of A' are those of
      A but H, so the restriction Md of A' to L is M =
      ziegler_restriction(A, L) with the weight of the point p = H meet L
      lowered by one; a form whose weight reaches 0 is dropped.
    - Md is free of rank 2 like every restriction, and its exponents are
      exponents(Md), nearly always from one rank modulo WORD_PRIME.  They
      interlace with M's: D(M) is in D(Md), as lower weights impose weaker
      conditions, and l_p D(Md) is in D(M), as the factor l_p restores the
      weight at p, so Md has (e1 - 1, e2) or sorted (e1, e2 - 1).  The
      tests check this; nothing here relies on it.
    """
    L = 1 if H == 0 else 0
    M, _ = ziegler_restriction(A, L)
    p = LinearForm2.from_ints(restrict_lines(A.lines[L].int_coeffs,
                                             [A.lines[H].int_coeffs])[0])
    lowered = [(f, m - (f == p)) for f, m in zip(M.forms, M.mult)]
    Md = Multiarrangement2(tuple(f for f, m in lowered if m),
                           tuple(m for _, m in lowered if m))
    exp = exponents(Md).as_pair()
    return chi0(A).b2_0 - n_H(A, H) + 1 - exp[0] * exp[1], exp


# ---------------------------------------------------------------------------
# splitting types

@dataclass(frozen=True)
class SplittingType:
    line: int | LinearForm3
    e1: int
    e2: int

    def as_pair(self) -> tuple[int, int]:
        return (self.e1, self.e2)

    def to_json(self) -> dict:
        if isinstance(self.line, int):
            where: object = self.line
        else:
            where = [str(c) for c in self.line.coeffs]
        return {"line": where, "exponents": [self.e1, self.e2]}


@lru_cache(maxsize=256)
def _meeting_points(A: Arrangement, form: LinearForm3) -> tuple | None:
    """Where the line meets A: the forms l_i = alpha_i(sP + tQ) = a_i s +
    b_i t of the integer-scaled alpha_i of A on it, by
    poly.restrict_lines, or None when the line is not admissible.

    On the line, l_i = 0 exactly when it is line i, and l_i, l_j share
    their zero exactly when the line passes through the point where lines
    i and j meet; so the line is admissible iff every l_i is nonzero and
    their zeros (b_i, -a_i), compared in lowest terms with s > 0, or
    s = 0 < t, are distinct.  The forms give _external_splitting its rows,
    one at each unreduced zero (b_i, -a_i).  Cached, as verify reads each
    line it draws twice: once to admit it and once for its splitting type.
    """
    ells = restrict_lines(form.int_coeffs, [line.int_coeffs for line in A.lines])
    zeros = set()
    for a, b in ells:
        g = gcd(a, b)
        if not g:
            return None
        if b < 0 or (b == 0 and a > 0):
            g = -g
        zeros.add((b // g, -a // g))
    if len(zeros) < len(ells):
        return None
    return tuple(map(tuple, ells))


def is_admissible(A: Arrangement, form: LinearForm3) -> bool:
    """True if the line is not in A and passes through no intersection
    point: the |A| points where it meets A are distinct (_meeting_points)."""
    return _meeting_points(A, form) is not None


def _external_splitting(A: Arrangement, form: LinearForm3) -> SplittingType:
    """The degrees e1 <= e2 of a basis of the syzygies of g = (f_x, f_y,
    f_z) on the line beta, f the product of the integer-scaled alpha_i,
    from one rank modulo WORD_PRIME or, when that rank is not full, one
    certified kernel; InadmissibleLine if beta is not admissible.

    An admissible line meets no singular point of f, so g has no common
    zero on it; by Hilbert-Burch its syzygy module is then free of rank 2
    with e1 + e2 = |A| - 1.  In the degree K = (|A| - 3) // 2, the last
    below the count bound 3(K + 1) > K + |A|, e2 >= (|A| - 1) / 2 > K, so
    the kernel of S_K^3 -> S_(K + |A| - 1) has dimension max(0, K - e1 + 1)
    and e1 = K + 1 - dim, as e1 <= (|A| - 1) / 2 <= K + 1.  With K < 0
    (|A| <= 2), e1 = 0.

    The kernel is read off |A| interpolation conditions.  The points P, Q
    and the coordinate f of poly.line_frame(beta) make P, Q and e_f a basis
    of Q^3, as beta_f != 0; write theta = aP + bQ + c e_f with a, b, c in
    S_K, and psi = s b - t a in S_(K + 1).  On the line X = sP + tQ,
    phi = f(X) = prod l_i with l_i = a_i s + b_i t, and grad f . P,
    grad f . Q are d phi / ds, d phi / dt.  At the zero r_i = (b_i, -a_i)
    of l_i, taken as it is (not in lowest terms, unlike the zeros that
    _meeting_points compares), only the i-th term of grad f survives, so
    grad f = alpha_i pi_i with pi_i = prod_(j != i) l_j(r_i), nonzero on an
    admissible line, and theta . grad f = pi_i (psi + alpha_i,f c) there.
    The row of r_i is therefore the monomials s^(K + 1 - j) t^j at r_i,
    then alpha_i,f times the s^(K - j) t^j: N is |A| x (2K + 3).
    Its kernel is the syzygies':
    - (a, b, c) -> (psi, c) maps S_K^3 onto S_(K + 1) x S_K, with kernel
      the multiples e X, e in S_(K - 1);
    - if (psi, c) is in ker N, any preimage theta has theta . grad f
      vanishing at the |A| simple roots of phi, so it is phi q, and by
      Euler's formula X . grad f = |A| phi, so theta - (q / |A|) X is a
      syzygy with the same (psi, c);
    - a syzygy with psi = c = 0 is e X with |A| e phi = 0, so it is zero.
    So dim = 2K + 3 - rank N.  A full column rank modulo a prime is one
    over Q (see linalg.rank_mod), so then dim = 0 with no kernel; most
    admissible lines have it.
    """
    ells = _meeting_points(A, form)
    if ells is None:
        raise InadmissibleLine(f"{form} passes through an intersection point")
    n = len(A)
    k = (n - 3) // 2
    if k < 0:
        return SplittingType(form, 0, n - 1)
    f = line_frame(form.int_coeffs).f
    rows = []
    for (a, b), line in zip(ells, A.lines):
        ss, ts = [1], [1]
        for _ in range(k + 1):
            ss.append(ss[-1] * b)
            ts.append(ts[-1] * -a)
        af = line.int_coeffs[f]
        rows.append([ss[k + 1 - j] * ts[j] for j in range(k + 2)]
                    + [af * ss[k - j] * ts[j] for j in range(k + 1)])
    ncols = 2 * k + 3
    full = linalg.rank_mod(rows, ncols, linalg.WORD_PRIME) == ncols
    e1 = k + 1 - (0 if full else len(linalg.kernel_basis(rows, ncols)))
    return SplittingType(form, e1, n - 1 - e1)


def splitting_type(A: Arrangement, line: int | LinearForm3) -> SplittingType:
    """Splitting type along a line: for members, the exponents of the induced
    weighted arrangement; for admissible external lines, the first degree e1
    with a syzygy of the restricted Jacobian row and e2 = |A| - 1 - e1
    (Hilbert-Burch, as the row has no common zero there)."""
    if isinstance(line, int):
        M, _ = ziegler_restriction(A, line)
        exp = exponents(M)
        return SplittingType(line, exp.e1, exp.e2)
    form = line if isinstance(line, LinearForm3) else LinearForm3.make(line)
    if form in A.lines:
        return splitting_type(A, A.index_of(form))
    return _external_splitting(A, form)


def random_external_lines(A: Arrangement, count: int, seed: int) -> list[LinearForm3]:
    """Seeded admissible external lines with coefficients in [-9, 9]."""
    rng = XorShift64(seed)
    out: list[LinearForm3] = []
    seen = set(A.lines)
    for _ in range(count):
        for _ in range(EXTERNAL_ATTEMPTS):
            coeffs = tuple(rng.randint(-9, 9) for _ in range(3))
            if not any(coeffs):
                continue
            form = LinearForm3.from_ints(coeffs)
            if form in seen:
                continue
            if is_admissible(A, form):
                out.append(form)
                seen.add(form)
                break
        else:
            break  # budget exhausted; return what we have
    return out


# ---------------------------------------------------------------------------
# splitting range

@dataclass(frozen=True)
class SplittingRange:
    r0: int
    r0_prime: int
    candidates: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {"r0": self.r0, "r0_prime": self.r0_prime,
                "candidates": [list(c) for c in self.candidates]}


def splitting_range(A: Arrangement) -> SplittingRange:
    """Candidate splitting types from the classification data (defined only
    for the plus-one generated / nearly free verdicts)."""
    cls = classify(A)
    if cls.shape.cap_hit:
        raise NotApplicable(_CAP_REASON.format(degree_cap(A)))
    if not cls.is_plus_one:
        raise NotApplicable(f"splitting range undefined for verdict {cls.verdict}")
    md = cls.mdr
    nu = cls.nu
    n = len(A)
    r0 = min(md, (n - 1) // 2)
    r0p = max(md - nu, 0)
    cands = tuple((r, n - 1 - r) for r in range(r0, r0p - 1, -1))
    return SplittingRange(r0, r0p, cands)


# ---------------------------------------------------------------------------
# property [P]

@dataclass(frozen=True)
class PropertyPResult:
    holds: str | None  # None | "variant1"
    H: int
    alpha: HomPoly | None = None          # linear form on the line
    alpha_lifted: tuple[Fraction, ...] | None = None  # same form in x,y,z
    theta1: str | None = None

    def to_json(self) -> dict:
        doc: dict = {"holds": self.holds, "H": self.H}
        if self.alpha is not None:
            doc["alpha"] = str(self.alpha)
            doc["alpha_lifted"] = [str(c) for c in self.alpha_lifted]
            doc["theta1"] = self.theta1
        return doc


def _im_coords(A: Arrangement, H: int, th1: Derivation2, th2: Derivation2,
               k: int) -> list[tuple[HomPoly | None, HomPoly | None]]:
    """Basis-coordinates (p, q) with v = p*theta1 + q*theta2, one pair per
    nonzero image vector at degree k; a None block means that degree is too
    low.

    linalg.solve_columns solves them all with one kernel of [multiples of
    theta1 and theta2 | every image vector].  The multiples are independent,
    since the pair is a basis, and every image vector lies in their span,
    since the image is in the free module; so the pivots are exactly the
    first n1 + n2 columns, and anything else is a ConsistencyFailure.
    """
    e1, e2 = th1.degree, th2.degree
    n1 = k - e1 + 1 if k >= e1 else 0
    n2 = k - e2 + 1 if k >= e2 else 0
    cols = [m for base in (th1, th2) if k >= base.degree
            for m in multiples(base.coeff_vector(), 2, k - base.degree)]
    vecs = [v for v in _image_vectors(A, H, k) if any(v)]
    if not vecs:
        return []
    sols = linalg.solve_columns(cols, vecs)
    if sols is None:
        raise ConsistencyFailure(
            f"restricted derivation outside the free module at line {H}")
    return [(HomPoly(2, k - e1, tuple(sol[:n1])) if n1 else None,
             HomPoly(2, k - e2, tuple(sol[n1:])) if n2 else None)
            for sol in sols]


def _lift(alpha: HomPoly, frame: LineFrame) -> tuple[Fraction, ...]:
    """The linear form alpha on the line, in the frame's coordinates u and
    v, as a form in x, y and z: its coefficients are those of u and v."""
    _, u, v, _, _ = frame
    out = [Fraction(0)] * 3
    out[u], out[v] = alpha.coeffs
    return tuple(out)


def property_P(A: Arrangement, H: int) -> PropertyPResult:
    """Decide whether some basis of the restriction's derivation module and
    some nonzero linear form witness a proper image containing one basis
    vector and a linear multiple of the other.

    The image dimensions img(k) = h(k) - h(k - 1) of ziegler_map decide
    first.  With e1 < e2 and img(e1) > 0, theta1 spans D(M)_e1 and lies in
    the image, so the image holds S theta1, which is all of D(M)_(e2 + 1)
    with a zero theta2-coordinate: [P] holds iff img(e2 + 1) > e2 - e1 + 2.
    A zero image in degree e1 (and in e1 + 1 when e1 < e2) leaves no
    witness either.  Image vectors are built only to find the witness.
    """
    if not 0 <= H < len(A):
        raise IndexError("line index out of range")
    M, frame = ziegler_restriction(A, H)
    exp = exponents(M)
    e1, e2 = exp.e1, exp.e2
    if chi0(A).b2_0 - e1 * e2 <= 0:
        return PropertyPResult(None, H)  # the map is surjective

    def img(k: int) -> int:
        return ar_dim(A, k) - (ar_dim(A, k - 1) if k else 0)

    if e1 < e2 and img(e1):
        if img(e2 + 1) <= e2 - e1 + 2:
            return PropertyPResult(None, H)
        # a linear theta2-coordinate one past the top degree
        th1, th2 = basis(M)
        for p, q in _im_coords(A, H, th1, th2, e2 + 1):
            if q is not None and not q.is_zero:
                return PropertyPResult("variant1", H, q, _lift(q, frame),
                                       str_derivation(th2))
        raise ConsistencyFailure(
            f"image dimensions hold property [P] at line {H}, but no image "
            f"vector has a theta2-coordinate")
    if not img(e1) and (e1 == e2 or not img(e1 + 1)):
        return PropertyPResult(None, H)
    th1, th2 = basis(M)
    if e1 < e2:
        # theta1 not in the image: need theta2 reachable exactly and a linear
        # multiple of theta1 in the image
        has_theta2 = any(q is not None and not q.is_zero
                         for _, q in _im_coords(A, H, th1, th2, e2))
        if not has_theta2:
            return PropertyPResult(None, H)
        # look for a nonzero combination of image elements with vanishing
        # theta2-coordinate; its theta1-coordinate is the linear witness
        coords = _im_coords(A, H, th1, th2, e1 + 1)
        if not coords:
            return PropertyPResult(None, H)
        if e1 + 1 < e2:
            combos = [[Fraction(1)] + [Fraction(0)] * (len(coords) - 1)]
        else:
            qmat = [linalg._int_row([c[1].coeffs[j] for c in coords])
                    for j in range(e1 + 1 - e2 + 1)]
            combos = [linalg.unit_last(v)
                      for v in linalg.kernel_basis(qmat, len(coords))]
        for combo in combos:
            p = None
            for w, (pc, _) in zip(combo, coords):
                term = pc.scale(w)
                p = term if p is None else p + term
            if p is not None and not p.is_zero:
                return PropertyPResult("variant1", H, p, _lift(p, frame),
                                       str_derivation(th1))
        return PropertyPResult(None, H)
    # e1 == e2: pick the basis vector inside the image, then proceed as above
    for p0, q0 in _im_coords(A, H, th1, th2, e1):
        c1 = p0.coeffs[0] if p0 is not None else Fraction(0)
        c2 = q0.coeffs[0] if q0 is not None else Fraction(0)
        for p, q in _im_coords(A, H, th1, th2, e1 + 1):
            # coordinate on the completed second basis vector
            if c1 != 0:
                adj = (q - p.scale(c2 / c1)) if q is not None else None
                partner = str_derivation(th2)
            else:
                adj = p
                partner = str_derivation(th1)
            if adj is not None and not adj.is_zero:
                return PropertyPResult("variant1", H, adj, _lift(adj, frame),
                                       partner)
        break  # the image layer has dimension <= 1 when the map is not onto
    return PropertyPResult(None, H)


def str_derivation(t: Derivation2) -> str:
    return f"({t.p})*d/du + ({t.q})*d/dv"


# ---------------------------------------------------------------------------
# umbrella validator

@dataclass(frozen=True)
class Check:
    id: str
    status: str  # pass | fail | na | one-sided
    detail: str

    def to_json(self) -> dict:
        return {"id": self.id, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class TheoremReport:
    arrangement: Arrangement
    classification: object
    lines: tuple[DefectReport, ...]
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def check(self, check_id: str) -> Check:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)

    def to_json(self) -> dict:
        return {"arrangement": to_document(self.arrangement),
                "classification": self.classification.to_json(),
                "lines": [{"H": d.H, "exponents": list(d.exponents),
                           "defect": d.defect, "n_H": n_H(self.arrangement, d.H),
                           "coker_by_degree": list(d.coker_by_degree)}
                          for d in self.lines],
                "checks": [c.to_json() for c in self.checks]}


# checks whose statement involves the verdict, exponents or level; a run
# stopped at the degree cap has no verdict, so they cannot be decided, nor
# can splitting_range, and both give _CAP_REASON
_READS_CLASSIFICATION = frozenset(
    "thm1.2 thm1.3 thm1.5 thm1.6 thm1.7 thm2.3 thm2.8 prop3.2 prop3.5 cor3.6 "
    "thm4.3 lemma4.4 cor4.5 prop4.6 prop4.7".split())
_CAP_REASON = "resolution stopped at the degree cap {}"


def _sorted_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def verify(A: Arrangement, seed: int = 1, external_count: int = 20) -> TheoremReport:
    """Run the full battery of structural checks on one arrangement."""
    n = len(A)
    cls = classify(A)
    chi = chi0(A)
    b2 = chi.b2_0
    nr = nr_form(A)
    bal = is_balanced(A)
    defects = tuple(yoshinaga_defect(A, H) for H in range(n))
    nhs = [n_H(A, H) for H in range(n)]
    z_exps = [d.exponents for d in defects]
    checks: list[Check] = []

    free = cls.is_free
    nf = cls.verdict == "nearly-free"
    pog_wide = cls.is_plus_one  # nearly free or plus-one generated
    if pog_wide:
        a, b = cls.exponents
        d_lvl = cls.level
    externals = random_external_lines(A, external_count, seed)
    ext_types = [_external_splitting(A, f) for f in externals]
    all_types = ([_sorted_pair(*e) for e in z_exps]
                 + [st.as_pair() for st in ext_types])

    def add(cid: str, status: str, detail: str):
        checks.append(Check(cid, status, detail))

    # free arrangements restrict with their own exponents, surjectively
    if free:
        fa, fb = cls.exponents
        bad = [H for H, e in enumerate(z_exps) if _sorted_pair(*e) != (fa, fb)]
        bad += [d.H for d in defects if d.coker_total != 0]
        add("thm1.2", "fail" if bad else "pass",
            f"free({fa},{fb}); deviating lines {sorted(set(bad))}" if bad
            else f"all restrictions have exponents ({fa},{fb}) and zero cokernel")
    else:
        add("thm1.2", "na", "not free")

    # defect zero exactly in the free case (yoshinaga_defect has already
    # matched each defect with its cokernel, or raised)
    zero_lines = [d.H for d in defects if d.defect == 0]
    iff_ok = (len(zero_lines) == n) if free else (not zero_lines)
    add("thm1.3", "pass" if iff_ok else "fail",
        f"defects {[d.defect for d in defects]}; free={free}")

    # defect-1 witness scan vs the nearly-free verdict
    witness = next((d.H for d in defects if d.defect == 1), None)
    if witness is None:
        ext_w = next((f for f, st in zip(externals, ext_types)
                      if b2 - st.e1 * st.e2 == 1), None)
        witness = ext_w
    if witness is not None:
        add("thm1.5", "pass" if nf else "fail",
            f"defect-1 witness {witness}; verdict {cls.verdict}")
    elif nf:
        add("thm1.5", "fail", "nearly free but no defect-1 line found in A")
    else:
        add("thm1.5", "one-sided",
            "no defect-1 witness in the finite scan; verdict not nearly free")

    # property [P] holds somewhere iff plus-one generated (wide sense)
    p_hold = None
    for H in range(n):
        res = property_P(A, H)
        if res.holds:
            p_hold = res
            break
    add("thm1.6", "pass" if (p_hold is not None) == pog_wide else "fail",
        f"property holds at H={p_hold.H if p_hold else None}; "
        f"verdict {cls.verdict}")

    # nearly free: restriction exponents drop one from (a,b)
    if nf:
        allowed = {_sorted_pair(a - 1, b), _sorted_pair(a, b - 1)}
        bad = [H for H, e in enumerate(z_exps) if _sorted_pair(*e) not in allowed]
        add("thm1.7", "fail" if bad else "pass",
            f"exponents {z_exps} vs allowed {sorted(allowed)}")
    else:
        add("thm1.7", "na", "not nearly free")

    # free case point-count dichotomy
    if free:
        fa, fb = cls.exponents
        n0, r = fa, fb - fa
        bad = [H for H, v in enumerate(nhs) if not (v <= n0 + 1 or v == n0 + r + 1)]
        add("thm2.3", "fail" if bad else "pass",
            f"n_H values {nhs}, bounds n+1={n0 + 1}, n+r+1={n0 + r + 1}")
    else:
        add("thm2.3", "na", "not free")

    # heavy lines force the restriction exponents
    bad = [H for H in range(n)
           if 2 * nhs[H] >= n + 1
           and _sorted_pair(*z_exps[H]) != _sorted_pair(n - nhs[H], nhs[H] - 1)]
    add("prop2.5", "fail" if bad else "pass",
        f"heavy lines {[H for H in range(n) if 2 * nhs[H] >= n + 1]}")

    # balanced restrictions have close exponents
    bad = []
    for H, d in enumerate(defects):
        M, _ = ziegler_restriction(A, H)
        if max(M.mult, default=0) * 2 <= n - 1 and len(M.forms) > 2:
            e1, e2 = d.exponents
            if e2 - e1 > nhs[H] - 2:
                bad.append(H)
    add("thm2.7", "fail" if bad else "pass", f"violations {bad}")

    # deletion two-of-three
    violations = []
    applicable = False
    for H in range(n) if n >= 2 else ():
        del_defect, del_exp = _deletion_defect(A, H)
        s1 = del_defect == 0
        if s1:
            ab = del_exp
        elif nf:
            ab = (cls.exponents[0] - 1, cls.exponents[1] - 1)
        else:
            continue
        da, db = ab
        s2 = nf and _sorted_pair(*cls.exponents) == _sorted_pair(da + 1, db + 1)
        s3 = nhs[H] == db + 2
        held = [s for s in (s1, s2, s3) if s]
        if len(held) >= 2:
            applicable = True
            if not (s1 and s2 and s3):
                violations.append((H, s1, s2, s3))
    if not applicable:
        add("thm2.8", "na", "no line with two of the three conditions")
    else:
        add("thm2.8", "fail" if violations else "pass",
            f"violations {violations}")

    # point-count gap under the residual-1 normal form
    if nr.c == 1 and nr.r != 2:
        bad = [H for H, v in enumerate(nhs) if nr.n + 1 < v < nr.n + nr.r + 1]
        add("prop3.1", "fail" if bad else "pass",
            f"n={nr.n}, r={nr.r}; gap violations {bad}")
    else:
        add("prop3.1", "na", "normal form residual is not 1 (or r = 2)")

    # balanced + matching point count forces near-freeness
    if (bal.balanced and nr.c == 1 and nr.r != 2
            and any(nr.r == v - 2 for v in nhs)):
        add("prop3.2", "pass" if nf else "fail",
            f"balanced, r={nr.r}=n_H-2 for some H; verdict {cls.verdict}")
    else:
        add("prop3.2", "na", "hypotheses not met")

    # nearly free point-count ceiling
    if nf:
        over = [H for H, v in enumerate(nhs) if v > b + 1]
        generic4 = (n == 4 and all(p.multiplicity == 2
                                   for p in intersection_points(A)))
        strict = generic4 or any(v < b + 1 for v in nhs)
        add("prop3.5", "fail" if over or not strict else "pass",
            f"n_H {nhs}, ceiling {b + 1}, generic4={generic4}")
        tops = [H for H, v in enumerate(nhs) if v == b + 1]
        pair_bad = []
        pts = intersection_points(A)
        for i in range(len(tops)):
            for j in range(i + 1, len(tops)):
                pt = next(p for p in pts
                          if tops[i] in p.incident_lines and tops[j] in p.incident_lines)
                if pt.multiplicity != 2:
                    pair_bad.append((tops[i], tops[j]))
        add("cor3.6", "fail" if pair_bad else "pass",
            f"lines at ceiling {tops}; non-double meets {pair_bad}")
    else:
        add("prop3.5", "na", "not nearly free")
        add("cor3.6", "na", "not nearly free")

    # every splitting type sums to |A| - 1
    bad_sum = [t for t in all_types if t[0] + t[1] != n - 1]
    add("prop4.1", "fail" if bad_sum else "pass",
        f"{len(all_types)} splitting types checked")

    # plus-one generated: splitting types live in a 3-element set
    if pog_wide:
        allowed = {_sorted_pair(a - 1, b), _sorted_pair(a, b - 1),
                   _sorted_pair(a + b - d_lvl - 1, d_lvl)}
        bad = [t for t in all_types if t not in allowed]
        add("thm4.3", "fail" if bad else "pass",
            f"types {sorted(set(all_types))} vs allowed {sorted(allowed)}")
    else:
        add("thm4.3", "na", "not plus-one generated")

    # with b < d the extreme restriction type occurs at most once
    if pog_wide and b < d_lvl:
        extreme = _sorted_pair(a + b - d_lvl - 1, d_lvl)
        hits = [H for H, e in enumerate(z_exps) if _sorted_pair(*e) == extreme]
        add("lemma4.4", "fail" if len(hits) > 1 else "pass",
            f"lines with extreme type {extreme}: {hits}")
        tops = [H for H, v in enumerate(nhs) if v == d_lvl + 1]
        add("cor4.5", "fail" if len(tops) > 1 else "pass",
            f"lines with n_H = {d_lvl + 1}: {tops}")
    else:
        add("lemma4.4", "na", "level equals the top exponent (or not POG)")
        add("cor4.5", "na", "level equals the top exponent (or not POG)")

    # plus-one generated point-count ceiling and value list
    if pog_wide:
        over = [H for H, v in enumerate(nhs) if v > d_lvl + 1]
        add("prop4.6", "fail" if over else "pass",
            f"n_H {nhs}, ceiling {d_lvl + 1}")
        allowed_vals = {a, a + 1, b, b + 1, d_lvl + 1}
        bad = [H for H, v in enumerate(nhs) if v >= a and v not in allowed_vals]
        add("prop4.7", "fail" if bad else "pass",
            f"n_H {nhs} vs allowed {sorted(allowed_vals)}")
    else:
        add("prop4.6", "na", "not plus-one generated")
        add("prop4.7", "na", "not plus-one generated")

    if cls.shape.cap_hit:
        reason = _CAP_REASON.format(degree_cap(A))
        checks = [Check(c.id, "na", reason) if c.id in _READS_CLASSIFICATION
                  else c for c in checks]
    return TheoremReport(A, cls, defects, tuple(checks))
