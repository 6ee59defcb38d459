"""The global Tjurina number against the syzygy resolution: the classical
lattice facts as oracles, and the certificate that ends the scan.

tau = sum of (m_p - 1)^2 over the intersection points.  With d = |A| and
r = mdr, du Plessis and Wall (1999) bound (d - 1)(d - r - 1) <= tau <=
(d - 1)(d - r - 1) + r^2, the upper bound dropping by C(2r + 2 - d, 2)
when 2r >= d.  Dimca (2017) and Dimca-Sticlaru: A is free iff tau reaches
(d - 1)(d - r - 1) + r^2, and nearly free iff tau is one below it.  The
Hilbert polynomial of the Milnor algebra is the constant tau, so a complete
resolution satisfies sum d_i^2 - sum r_j^2 = 2 tau - (d - 1)^2.
"""

import json
from math import comb

import pytest

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
from oracles import ar_dim_by_rank
from test_linalg import record_kernel_moduli


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
