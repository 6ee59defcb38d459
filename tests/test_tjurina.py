"""The global Tjurina number against the syzygy resolution: the classical
lattice facts as oracles, and the certificate that ends the scan.

tau = sum of (m_p - 1)^2 over the intersection points.  With d = |A| and
r = mdr, du Plessis and Wall (1999) bound (d - 1)(d - r - 1) <= tau <=
(d - 1)(d - r - 1) + r^2, the upper bound dropping by C(2r + 2 - d, 2)
when 2r >= d.  Dimca (2017) and Dimca-Sticlaru: A is free iff tau reaches
(d - 1)(d - r - 1) + r^2, and nearly free iff tau is one below it.  The
Hilbert polynomial of the Milnor algebra is the constant tau, so a complete
resolution satisfies sum d_i^2 - sum r_j^2 = 2 tau - (d - 1)^2.

A scan whose lowest nonzero layer gives one generator may end there, with
a point derivation of degree |A| - 1 - mdr as its Saito partner
(derivation._saito_partner): the partner must change no shape, fire only
on free inputs, lie in the module by restriction to every line, and give
a determinant that is a nonzero multiple of the defining polynomial,
recomputed with SymPy.
"""

import json
from math import comb

import pytest
from sympy import Poly, symbols

import oracles
from arrlog import criteria, derivation, linalg, multiarr
from arrlog.arrangement import parse_arrangement, tjurina, to_document
from arrlog.cli import main
from arrlog.corpus import (FIXTURES, generic, near_pencil, pencil,
                           random_arrangement, random_corpus)
from arrlog.criteria import verify
from arrlog.derivation import (MAX_DEGREE_ENV, _ar_kernel, _layer,
                               _resolution, _shift_vec, _spans_module,
                               classify, degree_cap, minimal_resolution)
from arrlog.poly import CertificationFailure
from arrlog.poly import monomials
from oracles import ar_dim_by_rank
from test_census import SUPERSOLVABLE, _census_pairs, _free_deletions
from test_criteria import A3, B3
from test_linalg import record_kernel_moduli, scanned_degrees, without_partner


def _arrangements():
    out = [f.build() for f in FIXTURES]
    out += random_corpus(100, 8, 42)
    out += [near_pencil(n) for n in range(4, 13)]
    out += [random_arrangement(n, s) for n in range(8, 13) for s in (1, 2)]
    return out


ARRANGEMENTS = _arrangements()
# minimal_resolution ends these at degree |A| - 1 with four or more generators
MANY_GENERATORS = ([generic(n, seed=s) for n in (5, 6, 7) for s in (1, 3)]
                   + [random_arrangement(8, 1)])


def _complete(A):
    """The classification's resolution data, when it is complete."""
    data = _resolution(A, early_stop=True)
    return data if data.shape.complete else None


def _hilbert(gd, rd, k):
    """Hilbert function at k of the module presented by free generators in
    degrees gd and free relations in degrees rd."""
    return (sum(comb(max(k - g + 2, 0), 2) for g in gd)
            - sum(comb(max(k - r + 2, 0), 2) for r in rd))


def _certifies(A, gens, rels) -> bool:
    try:
        return _spans_module(A, gens, rels)
    except CertificationFailure:
        return False


@pytest.mark.parametrize("A, tau", [
    (pencil(5), 16), (generic(6, seed=1), 15), (near_pencil(7), 25 + 6),
    (parse_arrangement({"factored": "xyz(x-y)(x-z)(y-z)"}), 4 * 4 + 3),
])
def test_tjurina_known_values(A, tau):
    # pencil: one point of multiplicity n; generic: C(n, 2) double points;
    # near-pencil: one (n - 1)-fold point and n - 1 double points; A3: four
    # triple and three double points
    assert tjurina(A) == tau


def _complete_shapes():
    for A in ARRANGEMENTS:
        data = _complete(A)
        if data is not None:
            yield A, data.shape
    for A in MANY_GENERATORS:
        shape = minimal_resolution(A)
        assert shape.complete and len(shape.generator_degrees) > 3, A.name
        yield A, shape


def test_tjurina_identity_on_complete_resolutions():
    seen = 0
    for A, shape in _complete_shapes():
        gd, rd = shape.generator_degrees, shape.relation_degrees
        d = len(A)
        assert (sum(g * g for g in gd) - sum(r * r for r in rd)
                == 2 * tjurina(A) - (d - 1) ** 2), A.name
        seen += 1
    assert seen >= 50


def test_du_plessis_wall_bounds_and_the_tjurina_characterisations():
    verdicts = set()
    for A in ARRANGEMENTS:
        cls = classify(A)
        r, d, tau = cls.mdr, len(A), tjurina(A)
        if not r:  # pencils are exempt; None: no generator below the cap
            continue
        low = (d - 1) * (d - r - 1)
        top = low + r * r
        high = top - comb(2 * r + 2 - d, 2) if 2 * r >= d else top
        assert low <= tau <= high, (A.name, r, tau)
        assert (tau == top) == (cls.verdict == "free"), (A.name, r, tau)
        assert (tau == top - 1) == (cls.verdict == "nearly-free"), (A.name, r)
        verdicts.add(cls.verdict)
    assert verdicts == {"free", "nearly-free", "plus-one-generated", "other"}


def test_exact_ranks_agree_with_the_certified_end():
    # the exact ranks the scan used to end with must find every layer where
    # the certified resolution predicts it, up to the old tail's last degree:
    # two past the largest generator and relation degrees
    for A, shape in _complete_shapes():
        gd, rd = shape.generator_degrees, shape.relation_degrees
        target = max(gd) + (max(rd) if rd else 0) + 2
        for k in range(min(target, degree_cap(A)) + 1):
            assert ar_dim_by_rank(A, k) == _hilbert(gd, rd, k), (A.name, k)


def test_certificate_passes_on_the_found_generators():
    for A in ARRANGEMENTS:
        data = _complete(A)
        if data is not None:
            assert _spans_module(A, list(data.generators),
                                 data.shape.relation_degrees), A.name


def test_certificate_fails_on_a_degree_off_by_one():
    for A in ARRANGEMENTS:
        data = _complete(A)
        if data is None:
            continue
        gens, rels = list(data.generators), data.shape.relation_degrees
        for i, (g, v) in enumerate(gens):
            for g2 in (g - 1, g + 1):
                if g2 >= 0:
                    bad = gens[:i] + [(g2, v)] + gens[i + 1:]
                    assert not _certifies(A, bad, rels), (A.name, i, g2)


def test_certificate_fails_on_a_coordinate_multiple():
    # theta_j replaced by x^(g_j - g_i) theta_i, of theta_j's degree.  Only
    # two generators lose rank 2 this way; with three, the relation degrees
    # the certificate takes are those the scan found for its generators
    mutated = 0
    for A in ARRANGEMENTS:
        data = _complete(A)
        if data is None or len(data.generators) != 2:
            continue
        gens = list(data.generators)
        for i, j in ((0, 1), (1, 0)):
            (gi, v), (gj, _) = gens[i], gens[j]
            if gj < gi:
                continue
            for var in range(3):
                w, k = v, gi
                while k < gj:
                    w, k = _shift_vec(w, k, var), k + 1
                bad = list(gens)
                bad[j] = (gj, tuple(w))
                assert not _spans_module(A, bad, ()), (A.name, j, var)
                mutated += 1
    assert mutated >= 30


def _kernel_moduli(monkeypatch) -> list:
    """How many moduli each kernel certified from now on took
    (record_kernel_moduli), with every cache that could skip one cleared."""
    tried = record_kernel_moduli(monkeypatch)
    for cached in (_layer, _ar_kernel, classify, minimal_resolution,
                   criteria._image_vectors, criteria._meeting_points,
                   multiarr._deriv_kernel, multiarr.exponents):
        cached.cache_clear()
    return tried


def test_classify_calls_no_exact_rank(monkeypatch):
    # verify, classify included, does not eliminate exactly: generators,
    # solves and RREFs are all read off certified kernels, and every kernel
    # certifies within the kernel primes, so a regression that pushes real
    # kernels past them fails here instead of only slowing down
    tried = _kernel_moduli(monkeypatch)
    for A in random_corpus(100, 8, 42):
        verify(A)
    assert tried and max(tried) <= len(linalg.KERNEL_PRIMES)


def test_minimal_resolution_calls_no_exact_rank(monkeypatch):
    tried = _kernel_moduli(monkeypatch)
    for A in ([generic(n) for n in (5, 6, 7)] + [random_arrangement(8, 1)]
              + random_corpus(100, 8, 42)):
        minimal_resolution(A)
    assert tried and max(tried) <= len(linalg.KERNEL_PRIMES)


def _forced_tau_mismatch(monkeypatch):
    monkeypatch.setattr(derivation, "tjurina", lambda A: tjurina(A) + 1)
    classify.cache_clear()


def test_free_basis_with_a_tau_mismatch_raises(monkeypatch):
    _forced_tau_mismatch(monkeypatch)
    with pytest.raises(CertificationFailure, match="Tjurina identity"):
        classify(near_pencil(6))


@pytest.mark.parametrize("shift, message", [(-1, "Tjurina identity"),
                                            (1, "du Plessis-Wall")])
def test_many_generators_with_a_tau_mismatch_raise(shift, message,
                                                   monkeypatch):
    # generic(5) has tau = 10 at the du Plessis-Wall top for mdr 3: one less
    # stays inside the bounds and only the identity on the complete
    # resolution, four generators in degree 3, catches it
    A = generic(5, seed=3)
    monkeypatch.setattr(derivation, "tjurina", lambda B: tjurina(B) + shift)
    minimal_resolution.cache_clear()
    with pytest.raises(CertificationFailure, match=message):
        minimal_resolution(A)


def test_free_basis_with_a_tau_mismatch_exits_3(tmp_path, capsys,
                                                monkeypatch):
    _forced_tau_mismatch(monkeypatch)
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"factored": "xyz(x-y)(x-z)(y-z)"}))
    code = main(["classify", str(path)])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err.startswith("CertificationFailure:")


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("A, cap", [(random_arrangement(8, 1), None),
                                    (near_pencil(6), "2")],
                         ids=["stopped-early", "stopped-at-cap"])
def test_tau_outside_du_plessis_wall_raises_and_exits_3(A, cap, side, tmp_path,
                                                       capsys, monkeypatch):
    # runs that no Tjurina identity ends: seven generators stop the
    # classify scan early; a cap of 2 stops near_pencil(6) after its
    # degree-1 generator, before the second one at degree 4
    r, d = classify(A).mdr, len(A)
    low = (d - 1) * (d - r - 1)
    high = low + r * r - (comb(2 * r + 2 - d, 2) if 2 * r >= d else 0)
    assert low <= tjurina(A) <= high
    if cap is not None:
        monkeypatch.setenv(MAX_DEGREE_ENV, cap)
    tau = low - 1 if side == "below" else high + 1
    monkeypatch.setattr(derivation, "tjurina", lambda B: tau)
    classify.cache_clear()
    with pytest.raises(CertificationFailure, match="du Plessis-Wall"):
        classify(A)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(to_document(A)))
    code = main(["classify", str(path)])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err.startswith("CertificationFailure:")
    assert "du Plessis-Wall" in out.err


# ---------------------------------------------------------------------------
# the Saito partner that ends the scan of a free arrangement at mdr


def _recorded_partners(mp):
    """Wrap derivation._saito_partner in the monkeypatch context mp; the
    list returned fills with (A, k, theta, partner) for each call that
    finds a partner."""
    found = []
    partner = derivation._saito_partner

    def record(A, k, theta):
        got = partner(A, k, theta)
        if got is not None:
            found.append((A, k, theta, got))
        return got

    mp.setattr(derivation, "_saito_partner", record)
    return found


def _saito_multiple(A, pairs):
    """det[theta_E, theta_1, theta_2] divided by the defining polynomial
    Q(A), in SymPy, for the kept pairs theta_1 and theta_2 of degrees g_1
    and g_2, given as (g, pair) and lifted by derivation._h0_lift; None
    when Q(A) does not divide it."""
    x, y, z = gens = symbols("x y z")

    def component(coeffs, g):
        return Poly.from_dict(dict(zip(monomials(3, g), coeffs)), *gens)

    rows = [[Poly(x, *gens), Poly(y, *gens), Poly(z, *gens)]]
    for g, pair in pairs:
        theta, m = derivation._h0_lift(A, pair), len(monomials(3, g))
        rows.append([component(theta[c * m:(c + 1) * m], g) for c in range(3)])
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    Q = Poly(1, *gens)
    for line in A.lines:
        u, v, w = line.int_coeffs
        Q *= Poly(u * x + v * y + w * z, *gens)
    quotient, remainder = det.div(Q)
    return None if not remainder.is_zero else quotient


@pytest.mark.parametrize("n", range(4, 13))
def test_a_near_pencils_scan_stops_at_its_degree_1_generator(n, monkeypatch):
    # near_pencil(n) is free with exponents (1, n - 2): its degree-1
    # generator and the point derivation of a double point, of degree
    # n - 2, pass Saito's criterion, so neither scan reads a layer above 1
    A = near_pencil(n)
    for early_stop in (True, False):
        assert max(scanned_degrees(A, early_stop, monkeypatch, partner=True)) == 1
    cls = classify.__wrapped__(A)
    assert (cls.verdict, cls.exponents) == ("free", (1, n - 2))


_PARTNER_SETS = {
    "fixtures": lambda: [f.build() for f in FIXTURES],
    "corpus": lambda: random_corpus(100, 8, 42),
    "census": lambda: [B for pair in _census_pairs() for B in pair],
    "free deletions": lambda: [B for _, _, B, _ in _free_deletions()],
    "supersolvable": lambda: [oracles.supersolvable(*entry)
                              for entry in SUPERSOLVABLE],
    "near-pencils": lambda: [near_pencil(n) for n in range(3, 20)],
}
# on how many inputs of each set the partner ends both scans: 72 of the
# 165 free census orbits, each twice, and 324 of the 745 free deletions
_PARTNER_FIRES = {"fixtures": 0, "corpus": 0, "census": 144,
                  "free deletions": 324, "supersolvable": 1,
                  "near-pencils": 16}


@pytest.mark.parametrize("name", sorted(_PARTNER_SETS))
def test_the_saito_partner_is_a_free_basis_and_changes_no_shape(name,
                                                                monkeypatch):
    # classify and minimal_resolution give what they give with no partner.
    # Wherever the partner ends a scan, the input is free with exponents
    # (k, |A| - 1 - k) by the scan with no partner; the partner lies in
    # D_{H0}(A) by restriction to every line (oracles.in_module); and with
    # theta_E and the generator of degree k its determinant is a nonzero
    # multiple of Q(A), so the pair passes Saito's criterion
    fired = 0
    for A in _PARTNER_SETS[name]():
        with monkeypatch.context() as mp:
            without_partner(mp)
            want = (classify.__wrapped__(A), minimal_resolution.__wrapped__(A))
        with monkeypatch.context() as mp:
            found = _recorded_partners(mp)
            got = (classify.__wrapped__(A), minimal_resolution.__wrapped__(A))
        assert got == want, A.name
        if not found:
            continue
        # both scans end with the same partner
        assert len(found) == 2 and found[0][1:] == found[1][1:], A.name
        fired += 1
        n = len(A)
        _, k, theta, partner = found[0]
        assert (want[0].verdict, want[0].exponents) == ("free", (k, n - 1 - k)), \
            A.name
        assert oracles.in_module(A, [derivation._h0_lift(A, partner)], n - 1 - k), \
            A.name
        quotient = _saito_multiple(A, [(k, theta), (n - 1 - k, partner)])
        assert quotient is not None and quotient.is_ground, A.name
        assert not quotient.is_zero, A.name
    assert fired == _PARTNER_FIRES[name]


def test_a_candidate_with_a_zero_determinant_is_passed_over(monkeypatch):
    # near_pencil(8)'s degree-1 generator is z d_w, w = (0:0:1) the centre
    # of its pencil, through which H0 passes.  g d_w, g a product of six
    # lines, has a zero 2 x 2 form with it at every point, so the partner
    # passes it over for the next candidate, and alone it gives none
    A = near_pencil(8)
    theta, = _layer(A, 1)
    forms = [line.int_coeffs for line in A.lines]
    kept = derivation.line_frame(forms[0])[1:3]
    real = list(derivation._derivation_points(A, 6))
    fake = ((0, 0, 1), list(range(1, 7)))
    monkeypatch.setattr(derivation, "_derivation_points",
                        lambda B, k: iter([fake] + real))
    assert derivation._saito_partner(A, 1, theta) == derivation._point_pair(
        forms, *real[0], 6, kept)
    monkeypatch.setattr(derivation, "_derivation_points",
                        lambda B, k: iter([fake]))
    assert derivation._saito_partner(A, 1, theta) is None


@pytest.mark.parametrize("A", [near_pencil(6), near_pencil(12), A3, B3],
                         ids=lambda A: A.name or f"{len(A)} lines")
def test_a_cap_below_the_partners_degree_ends_with_cap_hit(A, monkeypatch):
    # the partner needs its degree d2 = |A| - 1 - mdr within the cap: at a
    # cap of d2 the scan ends at mdr, complete, and at d2 - 1 it runs to
    # the cap and stops there with the mdr generator alone
    d1, d2 = classify(A).exponents
    for cap, complete in ((d2, True), (d2 - 1, False)):
        monkeypatch.setenv(MAX_DEGREE_ENV, str(cap))
        with monkeypatch.context() as mp:
            found = _recorded_partners(mp)
            shapes = [classify.__wrapped__(A).shape,
                      minimal_resolution.__wrapped__(A)]
        assert bool(found) == complete, cap
        for shape in shapes:
            assert (shape.complete, shape.cap_hit) == (complete, not complete), cap
            assert shape.generator_degrees == ((d1, d2) if complete else (d1,)), cap
        scanned = scanned_degrees(A, True, monkeypatch, partner=True)
        assert max(scanned) == (d1 if complete else cap), cap
