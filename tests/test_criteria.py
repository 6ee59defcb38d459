"""Restriction map, defects, splitting types, property decisions, validator."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from arrlog import criteria, linalg
from arrlog.arrangement import (Arrangement, LinearForm3, _cross, chi0,
                                intersection_points, parse_arrangement)
from arrlog.cli import main
from arrlog.corpus import (FIXTURES, fixture, generic, near_pencil, pencil,
                           random_arrangement, random_corpus)
from arrlog.criteria import (ConsistencyFailure, InadmissibleLine,
                             NotApplicable, PropertyPResult, is_admissible,
                             property_P, random_external_lines, splitting_range,
                             splitting_type, str_derivation, verify,
                             yoshinaga_defect, ziegler_map)
from arrlog.derivation import ar_dim
from arrlog.multiarr import basis, exponents, ziegler_restriction
from arrlog.poly import CertificationFailure, monomial_count
from oracles import (SpanBuilder, deriv_dim, deriv_space, dh_basis, jacobian,
                     line_param, quick_defect, span_contains, substitute_line,
                     without)
from test_multiarr import rank2_exponents

Z = LinearForm3.make([0, 0, 1])


def _oracle_map_dims(A, H, k):
    """(domain, codomain, image) of the restriction map in degree k, computed
    directly: a basis of D_H(A)_k restricted onto line H and ranked, and the
    codomain from the kernel of the divisibility conditions."""
    M, _ = ziegler_restriction(A, H)
    param = line_param(A.lines[H].coeffs)
    u, v = param.retained
    span = SpanBuilder(2 * (k + 1))
    dom = dh_basis(A, H, k)
    for theta in dom:
        comps = theta.components
        span.add(linalg._int_row(substitute_line(comps[u], param).coeffs
                                 + substitute_line(comps[v], param).coeffs))
    return len(dom), deriv_dim(M, k), span.dim


A3 = parse_arrangement({"name": "A3", "factored": "xyz(x-y)(x-z)(y-z)"})
B3 = parse_arrangement({"name": "B3",
                        "factored": "xyz(x-y)(x+y)(x-z)(x+z)(y-z)(y+z)"})
_ORACLE_INPUTS = (
    [f.build() for f in FIXTURES] + [A3, B3]
    + [near_pencil(n) for n in range(3, 9)]
    + [pencil(1), pencil(2), random_arrangement(9, 1)])


@pytest.mark.parametrize("A", _ORACLE_INPUTS, ids=lambda A: A.name)
def test_ziegler_map_matches_restricted_basis(A):
    # Ziegler's exact sequence gives every dimension from the Hilbert
    # function; the oracle restricts an explicit basis instead
    for H in range(len(A)):
        data = ziegler_map(A, H)
        got = list(zip(data.domain_dims, data.codomain_dims, data.image_dims))
        assert got == [_oracle_map_dims(A, H, k) for k in range(len(got))]


def _oracle_image_vectors(A, H, k):
    """dh_basis(A, H, k), each vector divided by its last nonzero entry,
    restricted to line H by substitute_line."""
    param = line_param(A.lines[H].coeffs)
    u, v = param.retained
    out = []
    for t in dh_basis(A, H, k):
        last = next(c for c in reversed(t.coeff_vector()) if c)
        comps = [c.scale(Fraction(1, last)) for c in t.components]
        out.append(substitute_line(comps[u], param).coeffs
                   + substitute_line(comps[v], param).coeffs)
    return tuple(out)


_IMAGE_INPUTS = (
    [f.build() for f in FIXTURES]
    + [Arrangement(tuple(reversed(f.build().lines)), f"{f.name}-reversed")
       for f in FIXTURES]
    + [A3, B3] + [near_pencil(n) for n in range(3, 9)]
    + [random_arrangement(9, 1)])


@pytest.mark.parametrize("A", _IMAGE_INPUTS, ids=lambda A: A.name)
def test_image_vectors_match_restricted_dh_basis(A):
    # the integer path carries the restriction through the elimination that
    # yields dh_basis and divides beta_f^k out at the end; it must give the
    # same Fractions as restricting the basis itself
    for H in range(len(A)):
        for k in range(len(A)):
            got = criteria._image_vectors(A, H, k)
            assert got == _oracle_image_vectors(A, H, k), (H, k)
            assert all(type(x) is Fraction for v in got for x in v)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([f.build() for f in FIXTURES]), st.integers(0, 3),
       st.data())
def test_image_vectors_match_exact_rref(A, k, data):
    # any integer rows in place of the D_H(A)_k basis: the reversed RREF read
    # off one kernel must be the one integer_rref gives, and a dependent
    # family must fail in both
    H = data.draw(st.integers(0, len(A) - 1))
    m3 = 3 * monomial_count(3, k)
    thetas = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=m3, max_size=m3), max_size=4))
    if thetas and data.draw(st.booleans()):
        thetas.append([a - 2 * b for a, b in zip(thetas[0], thetas[-1])])
    try:
        want = oracles.image_vectors(A, H, k, thetas)
    except CertificationFailure:
        want = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "dh_projection",
                   lambda A, H, k: [list(t) for t in thetas])
        if want is None:
            with pytest.raises(CertificationFailure, match="dependent D_H basis"):
                criteria._image_vectors.__wrapped__(A, H, k)
        else:
            assert criteria._image_vectors.__wrapped__(A, H, k) == want


def test_dependent_dh_basis_fails(monkeypatch):
    A = fixture("pog7").build()
    thetas = criteria.dh_projection(A, 0, 4)
    assert len(thetas) > 1
    monkeypatch.setattr(criteria, "dh_projection",
                        lambda A, H, k: thetas + thetas[1:])
    with pytest.raises(CertificationFailure, match="dependent D_H basis"):
        criteria._image_vectors.__wrapped__(A, 0, 4)


def test_image_vector_outside_the_free_module_fails(monkeypatch):
    A = fixture("pog7").build()
    H = A.index_of(Z)
    assert property_P(A, H).holds == "variant1"
    M, _ = ziegler_restriction(A, H)
    real = criteria._image_vectors

    def perturbed(A, H, k):
        vecs = real(A, H, k)
        if not vecs:
            return vecs
        # shift the first vector by a unit vector outside D(M)_k
        span = SpanBuilder(2 * (k + 1))
        for theta in deriv_space(M, k):
            span.add(theta.coeff_vector())
        for j in range(2 * (k + 1)):
            v = tuple(c + (i == j) for i, c in enumerate(vecs[0]))
            if not span_contains(span, linalg._int_row(v)):
                return (v,) + vecs[1:]
        raise AssertionError(f"D(M)_{k} is everything")

    monkeypatch.setattr(criteria, "_image_vectors", perturbed)
    with pytest.raises(ConsistencyFailure, match="outside the free module"):
        property_P(A, H)


def _oracle_external_splitting(A, form):
    """(e1, e2) along an external line from the restricted Jacobian partials:
    one rank per degree of the map (a, b, c) -> a f_x + b f_y + c f_z on the
    line, read off by the free dimension pattern."""
    param = line_param(form.coeffs)
    parts = [linalg._int_row(substitute_line(p, param).coeffs)
             for p in jacobian(A)[1:]]

    def dim(k):
        cols = [[0] * j + part + [0] * (k - j)
                for part in parts for j in range(k + 1)]
        return 3 * (k + 1) - oracles.rank([list(r) for r in zip(*cols)],
                                          3 * (k + 1))

    return rank2_exponents(dim, len(A) - 1)


_EXTERNAL_INPUTS = ([f.build() for f in FIXTURES] + [A3, B3]
                    + [near_pencil(n) for n in range(3, 7)]
                    + [pencil(1), pencil(2)]
                    + [random_arrangement(9, 1), random_arrangement(10, 1)])


@pytest.mark.parametrize("A", _EXTERNAL_INPUTS, ids=lambda A: A.name)
def test_external_splitting_matches_jacobian_rank_scan(A):
    forms = random_external_lines(A, 20, 42)
    assert forms
    for form in forms:
        got = criteria._external_splitting(A, form).as_pair()
        assert got == _oracle_external_splitting(A, form), form


def test_external_splitting_computes_no_kernel_at_the_count_bound(monkeypatch):
    # a balanced line: only the last layer below the count bound, K = 2, is
    # computed; it has no syzygy, so e1 = K + 1, the first layer past the
    # bound, which has one by counting alone
    A = random_arrangement(7, 1)
    real = linalg.kernel_basis
    degrees = []

    def recording(matrix, ncols):
        degrees.append(ncols // 3 - 1)
        return real(matrix, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    got = criteria._external_splitting(A, LinearForm3.make([1, 2, 3]))
    assert got.as_pair() == (3, 3)
    assert degrees == [2]
    assert all(3 * (k + 1) <= k + len(A) for k in degrees)


@pytest.mark.parametrize("A", _EXTERNAL_INPUTS, ids=lambda A: A.name)
def test_restricted_gradient_is_the_scaled_restricted_jacobian(A):
    # the point sP + tQ is (u, v) = beta_f (s, t) in restriction_param's
    # coordinates, so a degree |A| - 1 restriction scales by beta_f^(|A| - 1)
    for form in random_external_lines(A, 20, 42):
        beta = linalg._int_row(form.coeffs)
        param = line_param(beta)
        scale = beta[param.eliminated] ** (len(A) - 1)
        want = [[scale * c for c in substitute_line(p, param).coeffs]
                for p in jacobian(A)[1:]]
        assert criteria._restricted_gradient(A, form) == want, form


def test_yoshinaga_cross_check_catches_a_wrong_hilbert_function(monkeypatch):
    A = fixture("generic4").build()
    assert yoshinaga_defect(A, 0).coker_by_degree == (0, 1, 0)
    real = criteria.ar_dim
    # one extra dimension at degree 2, where the map is onto: the image
    # would outgrow the codomain there
    monkeypatch.setattr(criteria, "ar_dim",
                        lambda B, k: real(B, k) + (k == 2))
    with pytest.raises(ConsistencyFailure):
        yoshinaga_defect(A, 0)


def test_ziegler_map_free_surjective():
    A = near_pencil(5)
    for H in range(5):
        data = ziegler_map(A, H)
        assert data.coker_total == 0
        assert data.exponents == (1, 3)


def test_defect_generic4():
    A = fixture("generic4").build()
    for H in range(4):
        rep = yoshinaga_defect(A, H)
        assert rep.defect == 1
        assert rep.coker_total == 1
        assert rep.coker_by_degree == (0, 1, 0)
        assert rep.exponents == (1, 2)


def test_defect_fixtures():
    A = fixture("nf6").build()
    assert [yoshinaga_defect(A, H).defect for H in range(6)] == [1] * 6
    B = fixture("pog6a").build()
    zi = B.index_of(Z)
    assert yoshinaga_defect(B, zi).defect == chi0(B).b2_0 - 1 * 4


def test_defect_matches_b2_minus_product():
    for name in ("nf6", "pog6b", "pog7"):
        A = fixture(name).build()
        b2 = chi0(A).b2_0
        for H in range(len(A)):
            rep = yoshinaga_defect(A, H)
            e1, e2 = rep.exponents
            assert rep.defect == b2 - e1 * e2 >= 0


def _oracle_is_free_by_defect(A):
    """Freeness via the defect of a single restriction (zero iff free)."""
    return quick_defect(A, 0)[0] == 0


def _oracle_free_exponents_by_defect(A):
    """(e1, e2) of any restriction when the arrangement is free, else None."""
    defect, exp = quick_defect(A, 0)
    return exp if defect == 0 else None


def test_free_by_defect():
    assert _oracle_is_free_by_defect(near_pencil(6))
    assert not _oracle_is_free_by_defect(fixture("nf6").build())
    assert _oracle_free_exponents_by_defect(near_pencil(6)) == (1, 4)
    assert _oracle_free_exponents_by_defect(fixture("generic4").build()) is None


# inputs of the deletion and property-[P] oracle tests, built per test
_DELETION_INPUTS = {
    "fixtures": lambda: [f.build() for f in FIXTURES],
    "corpus-42": lambda: random_corpus(100, 8, 42),
    "ladder": lambda: [B for n in range(8, 13)
                       for B in (random_arrangement(n, 1), near_pencil(n))],
    # two lines (M' is empty), e1 = 0 on a pencil and on a near-pencil's
    # heavy line, and a double point whose weight drops to 0
    "edge": lambda: [pencil(2), pencil(3), near_pencil(4),
                     fixture("generic4").build()],
}


@pytest.mark.parametrize("inputs", _DELETION_INPUTS)
def test_deletion_defect_matches_the_deleted_arrangement(inputs):
    # the deletion read off A's restriction along L must be what building
    # A minus H and restricting it along its line 0 gives
    for A in _DELETION_INPUTS[inputs]():
        for H in range(len(A)):
            Ad = without(A, H)
            defect, exp = criteria._deletion_defect(A, H)
            assert (defect, exp) == quick_defect(Ad, 0), (A.name, H)
            assert ((exp if defect == 0 else None)
                    == _oracle_free_exponents_by_defect(Ad)), (A.name, H)


def test_deletion_edge_cases_reach_their_branches():
    # two lines: the restriction is one simple point, so M' is empty
    M, _ = ziegler_restriction(pencil(2), 1)
    assert M.mult == (1,)
    assert criteria._deletion_defect(pencil(2), 0) == (0, (0, 0))
    # a pencil restricts with e1 = 0; no kernel decides
    assert exponents(ziegler_restriction(pencil(3), 1)[0]).e1 == 0
    assert criteria._deletion_defect(pencil(3), 0) == (0, (0, 1))
    # generic4: every point is double, so the lowered weight drops to 0
    A = fixture("generic4").build()
    assert set(ziegler_restriction(A, 0)[0].mult) == {1}
    assert criteria._deletion_defect(A, 1) == (0, (1, 1))


def test_splitting_member_lines():
    A = fixture("pog6b").build()
    for H in range(6):
        assert splitting_type(A, H).as_pair() == (2, 3)
    B = fixture("pog6a").build()
    assert splitting_type(B, B.index_of(Z)).as_pair() == (1, 4)


def test_splitting_by_form_resolves_members():
    A = fixture("pog6a").build()
    st = splitting_type(A, Z)
    assert st.as_pair() == (1, 4)
    assert st.line == A.index_of(Z)


def test_splitting_external_generic4():
    A = fixture("generic4").build()
    for form in random_external_lines(A, 3, seed=7):
        st = splitting_type(A, form)
        assert sorted(st.as_pair()) == [1, 2]


def _oracle_is_admissible(A, form):
    """The line is not in A and no intersection point lies on it, each point
    tested by a Fraction dot product."""
    return form not in A.lines and not any(
        sum(c * p for c, p in zip(form.coeffs, pt.point)) == 0
        for pt in intersection_points(A))


_ADMISSIBLE_INPUTS = (_EXTERNAL_INPUTS
                      + [random_arrangement(n, s) for n in (3, 5, 8, 10)
                         for s in (1, 2) if (n, s) != (10, 1)])


@pytest.mark.parametrize("A", _ADMISSIBLE_INPUTS, ids=lambda A: A.name)
def test_is_admissible_matches_point_evaluation(A):
    rng = random.Random(len(A))

    def rand_point():
        return [rng.randint(-9, 9) for _ in range(3)]

    # the lines of A, lines through an intersection point and a random
    # point, and random lines
    candidates = [line.coeffs for line in A.lines]
    for pt in intersection_points(A):
        candidates.append(_cross(pt.point, rand_point()))
    candidates += [rand_point() for _ in range(40)]
    verdicts = set()
    for coeffs in candidates:
        if not any(coeffs):
            continue
        form = LinearForm3.make(coeffs)
        want = _oracle_is_admissible(A, form)
        assert is_admissible(A, form) == want, form
        verdicts.add(want)
    assert verdicts == {True, False}


def test_splitting_inadmissible():
    A = fixture("generic4").build()
    # x + y passes through the intersection point of x and y
    bad = LinearForm3.make([1, 1, 0])
    assert not is_admissible(A, bad)
    with pytest.raises(InadmissibleLine):
        splitting_type(A, bad)


def test_random_external_lines_admissible_and_deterministic():
    A = fixture("nf6").build()
    lines1 = random_external_lines(A, 5, seed=3)
    lines2 = random_external_lines(A, 5, seed=3)
    assert lines1 == lines2
    assert len(lines1) == 5
    for form in lines1:
        assert is_admissible(A, form)


def test_splitting_range():
    sr = splitting_range(fixture("pog6a").build())
    assert (sr.r0, sr.r0_prime) == (2, 1)
    assert sr.candidates == ((2, 3), (1, 4))
    sr = splitting_range(fixture("pog7").build())
    assert sr.candidates == ((3, 3), (2, 4), (1, 5))
    sr = splitting_range(fixture("generic4").build())
    assert sr.candidates == ((1, 2),)
    sr = splitting_range(fixture("nf6").build())
    assert sr.candidates == ((2, 3),)


def test_splitting_range_not_applicable():
    with pytest.raises(NotApplicable):
        splitting_range(near_pencil(5))
    with pytest.raises(NotApplicable):
        splitting_range(generic(5, seed=3))


def test_property_p_witnesses():
    C = fixture("pog6c").build()
    res = property_P(C, C.index_of(Z))
    assert res.holds == "variant1"
    # alpha is proportional to y
    lifted = res.alpha_lifted
    assert lifted[0] == 0 and lifted[2] == 0 and lifted[1] != 0
    D = fixture("pog7").build()
    res = property_P(D, D.index_of(Z))
    assert res.holds == "variant1"
    lead = res.alpha_lifted[0]
    assert lead != 0
    assert [c / lead for c in res.alpha_lifted] == [1, 4, 0]


def _oracle_property_P(A, H):
    """property_P decided by image vectors alone, with no dimension test."""
    M, param = ziegler_restriction(A, H)
    e1, e2 = exponents(M).as_pair()
    if chi0(A).b2_0 - e1 * e2 <= 0:
        return PropertyPResult(None, H)
    th1, th2 = basis(M)

    def coords(k):
        return criteria._im_coords(A, H, th1, th2, k)

    def found(alpha, partner):
        return PropertyPResult("variant1", H, alpha,
                               criteria._lift(alpha, param),
                               str_derivation(partner))

    if e1 < e2:
        if coords(e1):
            for _, q in coords(e2 + 1):
                if q is not None and not q.is_zero:
                    return found(q, th2)
            return PropertyPResult(None, H)
        if not any(q is not None and not q.is_zero for _, q in coords(e2)):
            return PropertyPResult(None, H)
        low = coords(e1 + 1)
        if not low:
            return PropertyPResult(None, H)
        if e1 + 1 < e2:
            combos = [[Fraction(1)] + [Fraction(0)] * (len(low) - 1)]
        else:
            combos = [linalg.unit_last(v) for v in linalg.kernel_basis(
                [linalg._int_row([c[1].coeffs[j] for c in low])
                 for j in range(e1 - e2 + 2)], len(low))]
        for combo in combos:
            p = None
            for w, (pc, _) in zip(combo, low):
                p = pc.scale(w) if p is None else p + pc.scale(w)
            if p is not None and not p.is_zero:
                return found(p, th1)
        return PropertyPResult(None, H)
    for p0, q0 in coords(e1):
        c1 = p0.coeffs[0] if p0 is not None else Fraction(0)
        c2 = q0.coeffs[0] if q0 is not None else Fraction(0)
        for p, q in coords(e1 + 1):
            if c1 != 0:
                adj, partner = (q - p.scale(c2 / c1)) if q is not None else None, th2
            else:
                adj, partner = p, th1
            if adj is not None and not adj.is_zero:
                return found(adj, partner)
        break
    return PropertyPResult(None, H)


_PROPERTY_P_INPUTS = {
    "fixtures": _DELETION_INPUTS["fixtures"],
    "corpus-42": _DELETION_INPUTS["corpus-42"],
    "random-9-10": lambda: [random_arrangement(n, s)
                            for n in (9, 10) for s in (1, 2)],
}


@pytest.mark.parametrize("inputs", _PROPERTY_P_INPUTS)
def test_property_p_dimension_decision_matches_the_vector_path(inputs):
    for A in _PROPERTY_P_INPUTS[inputs]():
        for H in range(len(A)):
            assert (property_P(A, H).to_json()
                    == _oracle_property_P(A, H).to_json()), (A.name, H)


def test_property_p_dimensions_without_a_witness_fail(tmp_path, capsys,
                                                      monkeypatch):
    # pog6a along line 2 restricts with (1, 4) and img(1) = 0; a Hilbert
    # function raised by one from degree 1 on makes img(1) = 1 and img(5) =
    # 7 > 4 - 1 + 2, so the dimensions hold [P], and the vector path is made
    # to find no image vector in degree 5
    A = fixture("pog6a").build()
    assert exponents(ziegler_restriction(A, 2)[0]).as_pair() == (1, 4)
    monkeypatch.setattr(criteria, "ar_dim",
                        lambda B, k: ar_dim(B, k) + (k >= 1))
    monkeypatch.setattr(criteria, "_im_coords", lambda *args: [])
    with pytest.raises(ConsistencyFailure, match="no image vector"):
        property_P(A, 2)
    path = tmp_path / "pog6a.json"
    path.write_text(json.dumps(fixture("pog6a").document()))
    assert main(["property-p", str(path), "--line", "2"]) == 3
    assert "no image vector" in capsys.readouterr().err


def test_property_p_negative_on_free():
    A = near_pencil(5)
    for H in range(5):
        assert property_P(A, H).holds is None


def test_property_p_holds_somewhere_iff_plus_one():
    for name in ("nf6", "pog6a", "pog6b", "generic4"):
        A = fixture(name).build()
        assert any(property_P(A, H).holds for H in range(len(A)))
    B = generic(5, seed=3)
    assert classify_verdict(B) == "other"
    assert not any(property_P(B, H).holds for H in range(len(B)))


def classify_verdict(A):
    from arrlog.derivation import classify
    return classify(A).verdict


def test_verify_fixture_statuses():
    rep = verify(fixture("nf6").build(), seed=1, external_count=5)
    status = {c.id: c.status for c in rep.checks}
    assert rep.ok
    assert status["thm1.3"] == "pass"
    assert status["thm1.5"] == "pass"
    assert status["thm1.6"] == "pass"
    assert status["thm1.7"] == "pass"
    assert status["prop3.5"] == "pass"
    assert status["cor3.6"] == "pass"
    assert status["lemma4.4"] == "na"  # level equals the top exponent


def test_verify_pog_statuses():
    rep = verify(fixture("pog6a").build(), seed=1, external_count=5)
    status = {c.id: c.status for c in rep.checks}
    assert rep.ok
    assert status["thm4.3"] == "pass"
    assert status["lemma4.4"] == "pass"
    assert status["cor4.5"] == "pass"
    assert status["prop4.6"] == "pass"
    assert status["prop4.7"] == "pass"


def test_verify_free_statuses():
    rep = verify(near_pencil(6), seed=1, external_count=5)
    status = {c.id: c.status for c in rep.checks}
    assert rep.ok
    assert status["thm1.2"] == "pass"
    assert status["thm2.3"] == "pass"


def test_verify_report_json_shape():
    rep = verify(fixture("generic4").build(), seed=1, external_count=3)
    doc = rep.to_json()
    assert set(doc) == {"arrangement", "classification", "lines", "checks"}
    assert len(doc["lines"]) == 4
    for entry in doc["lines"]:
        assert set(entry) == {"H", "exponents", "defect", "n_H",
                              "coker_by_degree"}
    for chk in doc["checks"]:
        assert set(chk) == {"id", "status", "detail"}
        assert chk["status"] in {"pass", "fail", "na", "one-sided"}


def test_verify_deterministic():
    import json

    A = fixture("generic4").build()
    d1 = json.dumps(verify(A, seed=9, external_count=4).to_json())
    d2 = json.dumps(verify(A, seed=9, external_count=4).to_json())
    assert d1 == d2
