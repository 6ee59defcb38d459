"""Acceptance suite: one test per criterion, exact arithmetic throughout.

The shared corpus (all six fixtures plus 100 seeded random arrangements with
3-8 lines) is verified once at module scope and reused by criteria 4, 5, 6
and 8.  A one-line verdict per criterion is printed in the terminal summary
(see conftest.py).
"""

import pytest

from arrlog.arrangement import LinearForm3, chi0, n_H
from arrlog.corpus import FIXTURES, fixture, near_pencil, random_corpus
from arrlog.criteria import property_P, verify, yoshinaga_defect
from arrlog.derivation import classify
from arrlog.multiarr import (Derivation2, exponents, saito_check,
                             ziegler_restriction)
from oracles import Derivation3, from_terms, in_dh, linear, poly_mul, zero

Z = LinearForm3.make([0, 0, 1])
SEED = 42  # corpus seed; matches the documented reproducible batch run


@pytest.fixture(scope="module")
def fixture_reports():
    return {f.name: verify(f.build(), seed=1, external_count=20)
            for f in FIXTURES}


@pytest.fixture(scope="module")
def corpus_reports():
    return [verify(A, seed=1, external_count=20)
            for A in random_corpus(100, 8, SEED)]


def all_reports(fixture_reports, corpus_reports):
    return list(fixture_reports.values()) + corpus_reports


def test_fixture_runtime_budget(tmp_path):
    """Every named fixture completes a full verification in under 5 seconds,
    measured cold in a fresh interpreter."""
    import json
    import subprocess
    import sys
    import time

    for f in FIXTURES:
        path = tmp_path / f"{f.name}.json"
        path.write_text(json.dumps(f.document()))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "arrlog.cli", "verify", str(path)],
            capture_output=True, text=True)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, (f.name, proc.stderr)
        assert elapsed < 5.0, (f.name, elapsed)


def test_criterion_1_fixture_classifications():
    expected_levels = {"nf6": 3, "pog6a": 4, "pog6b": 4, "generic4": 2,
                       "pog6c": 4, "pog7": 5}
    for f in FIXTURES:
        cls = classify(f.build())
        assert cls.verdict == f.verdict, f.name
        assert cls.exponents == f.exponents, f.name
        assert cls.level == f.level == expected_levels[f.name], f.name


def test_criterion_2_ziegler_exponents():
    def exps(A, H):
        M, _ = ziegler_restriction(A, H)
        return exponents(M).as_pair()

    A = fixture("pog6a").build()
    assert exps(A, A.index_of(Z)) == (1, 4)
    B = fixture("pog6b").build()
    assert all(exps(B, H) == (2, 3) for H in range(6))
    G = fixture("generic4").build()
    assert all(exps(G, H) == (1, 2) for H in range(4))
    C = fixture("pog6c").build()
    assert exps(C, C.index_of(Z)) == (2, 3)
    D = fixture("pog7").build()
    assert exps(D, D.index_of(Z)) == (2, 4)
    # nf6 point counts: the ceiling value 4 = level + 1 is attained by more
    # than one line (x + 5y + z among them)
    N = fixture("nf6").build()
    assert n_H(N, N.index_of(LinearForm3.make([1, 5, 1]))) == 4
    assert sum(1 for H in range(6) if n_H(N, H) == 4) >= 2


def test_criterion_3_witness_data():
    # explicit degree-(2,3) basis of the restriction of pog6c onto z = 0
    C = fixture("pog6c").build()
    iz = C.index_of(Z)
    M, _ = ziegler_restriction(C, iz)
    d1 = Derivation2(from_terms(2, 2, {(2, 0): 1}),
                     from_terms(2, 2, {(1, 1): 1}))
    d2 = Derivation2(from_terms(2, 3, {(2, 1): 2}),
                     from_terms(2, 3, {(2, 1): 1, (1, 2): 2, (0, 3): -1}))
    assert saito_check(d1, d2, M)
    # explicit degree-3 member of D_H: y(x+z)(x d/dx + (y+2z) d/dy)
    pref = poly_mul(linear(3, (0, 1, 0)), linear(3, (1, 0, 1)))
    th = Derivation3(poly_mul(pref, linear(3, (1, 0, 0))),
                     poly_mul(pref, linear(3, (0, 1, 2))),
                     zero(3, 3))
    assert in_dh(C, iz, th)
    res = property_P(C, iz)
    assert res.holds == "variant1"
    # alpha proportional to y
    assert res.alpha_lifted[0] == 0 and res.alpha_lifted[2] == 0
    assert res.alpha_lifted[1] != 0

    # explicit degree-(2,4) basis of the restriction of pog7 onto z = 0
    D = fixture("pog7").build()
    izd = D.index_of(Z)
    MD, _ = ziegler_restriction(D, izd)
    e1 = Derivation2(from_terms(2, 2, {(1, 1): 1}),
                     from_terms(2, 2, {(0, 2): 1}))
    p2 = poly_mul(poly_mul(linear(2, (1, 0)), linear(2, (1, 4))),
                  from_terms(2, 2, {(2, 0): 1, (1, 1): -7, (0, 2): -12}))
    q2 = poly_mul(poly_mul(from_terms(2, 2, {(0, 2): -1}), linear(2, (1, 4))),
                  linear(2, (7, 11)))
    assert saito_check(e1, Derivation2(p2, q2), MD)
    # explicit degree-3 member of D_H: (y+z)(x+4y+z)(x d/dx + y d/dy)
    pref2 = poly_mul(linear(3, (0, 1, 1)), linear(3, (1, 4, 1)))
    th2 = Derivation3(poly_mul(pref2, linear(3, (1, 0, 0))),
                      poly_mul(pref2, linear(3, (0, 1, 0))),
                      zero(3, 3))
    assert in_dh(D, izd, th2)
    res = property_P(D, izd)
    assert res.holds == "variant1"
    # alpha proportional to x + 4y
    lead = res.alpha_lifted[0]
    assert lead != 0
    assert [c / lead for c in res.alpha_lifted] == [1, 4, 0]


def test_criterion_4_defect_consistency(fixture_reports, corpus_reports):
    for rep in all_reports(fixture_reports, corpus_reports):
        name = rep.arrangement.name
        assert rep.check("thm1.3").status == "pass", name
        free = rep.classification.verdict == "free"
        for d in rep.lines:
            assert d.defect == d.coker_total >= 0, name
            assert (d.defect == 0) == free, name


def test_criterion_5_property_equivalence(fixture_reports, corpus_reports):
    for rep in all_reports(fixture_reports, corpus_reports):
        assert rep.check("thm1.6").status == "pass", rep.arrangement.name


def test_criterion_6_splitting_membership(fixture_reports, corpus_reports):
    for rep in all_reports(fixture_reports, corpus_reports):
        name = rep.arrangement.name
        assert rep.check("prop4.1").status == "pass", name
        for cid in ("thm4.3", "lemma4.4", "cor4.5"):
            assert rep.check(cid).status != "fail", name
    # the plus-one generated fixtures exercise the membership set directly
    for name in ("nf6", "pog6a", "pog6b", "generic4", "pog6c", "pog7"):
        assert fixture_reports[name].check("thm4.3").status == "pass"
    for name in ("pog6a", "pog6b", "pog6c", "pog7"):  # b < level
        assert fixture_reports[name].check("lemma4.4").status == "pass"
        assert fixture_reports[name].check("cor4.5").status == "pass"


def test_criterion_7_free_family():
    for n in range(4, 9):
        A = near_pencil(n)
        cls = classify(A)
        assert cls.verdict == "free"
        assert cls.exponents == (1, n - 2)
        for H in range(n):
            rep = yoshinaga_defect(A, H)
            assert tuple(sorted(rep.exponents)) == (1, n - 2)
            assert rep.defect == 0
        assert chi0(A).b2_0 == 1 * (n - 2)


def test_criterion_8_combinatorial_validators(fixture_reports, corpus_reports):
    ids = ("thm2.3", "prop2.5", "thm2.7", "thm2.8", "prop3.1", "prop3.2",
           "prop3.5", "cor3.6", "prop4.6", "prop4.7")
    for rep in all_reports(fixture_reports, corpus_reports):
        for cid in ids:
            assert rep.check(cid).status != "fail", \
                (rep.arrangement.name, cid, rep.check(cid).detail)
