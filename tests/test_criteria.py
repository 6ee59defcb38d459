"""Restriction map, defects, splitting types, property decisions, validator."""

import random
from fractions import Fraction

import pytest

from arrlog import criteria, linalg
from arrlog.arrangement import (Arrangement, LinearForm3, _cross, chi0,
                                intersection_points, parse_arrangement)
from arrlog.corpus import (FIXTURES, fixture, generic, near_pencil, pencil,
                           random_arrangement)
from arrlog.criteria import (ConsistencyFailure, InadmissibleLine,
                             NotApplicable, is_admissible, is_free_by_defect,
                             free_exponents_by_defect,
                             nearly_free_by_criterion, property_P,
                             random_external_lines, splitting_range,
                             splitting_type, verify, yoshinaga_defect,
                             ziegler_map)
from arrlog.derivation import dh_basis, jacobian
from arrlog.multiarr import deriv_dim, deriv_space, ziegler_restriction
from test_multiarr import rank2_exponents
from test_poly import line_param, substitute_line

Z = LinearForm3.make([0, 0, 1])


def _oracle_map_dims(A, H, k):
    """(domain, codomain, image) of the restriction map in degree k, computed
    directly: a basis of D_H(A)_k restricted onto line H and ranked, and the
    codomain from the kernel of the divisibility conditions."""
    M, _ = ziegler_restriction(A, H)
    param = line_param(A.lines[H].coeffs)
    u, v = param.retained
    span = linalg.SpanBuilder(2 * (k + 1))
    dom = dh_basis(A, H, k)
    for theta in dom:
        comps = theta.components
        span.add(list(substitute_line(comps[u], param).coeffs)
                 + list(substitute_line(comps[v], param).coeffs))
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
    """dh_basis(A, H, k) restricted to line H by substitute_line."""
    param = line_param(A.lines[H].coeffs)
    u, v = param.retained
    return tuple(substitute_line(t.components[u], param).coeffs
                 + substitute_line(t.components[v], param).coeffs
                 for t in dh_basis(A, H, k))


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
        span = linalg.SpanBuilder(2 * (k + 1))
        for theta in deriv_space(M, k):
            span.add(theta.coeff_vector())
        for j in range(2 * (k + 1)):
            v = tuple(c + (i == j) for i, c in enumerate(vecs[0]))
            if not span.contains(v):
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
             for p in jacobian(A).partials]

    def dim(k):
        cols = [[0] * j + part + [0] * (k - j)
                for part in parts for j in range(k + 1)]
        return 3 * (k + 1) - linalg.rank([list(r) for r in zip(*cols)],
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
    # a balanced line: every layer k with 3(k + 1) <= k + |A| has no syzygy,
    # and the first one past that bound has one by counting alone
    A = random_arrangement(7, 1)
    real = linalg.kernel_basis
    degrees = []

    def recording(matrix, ncols):
        degrees.append(ncols // 3 - 1)
        return real(matrix, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", recording)
    got = criteria._external_splitting(A, LinearForm3.make([1, 2, 3]))
    assert got.as_pair() == (3, 3)
    assert degrees == [0, 1, 2]
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
                for p in jacobian(A).partials]
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


def test_free_by_defect():
    assert is_free_by_defect(near_pencil(6))
    assert not is_free_by_defect(fixture("nf6").build())
    assert free_exponents_by_defect(near_pencil(6)) == (1, 4)
    assert free_exponents_by_defect(fixture("generic4").build()) is None


def test_nearly_free_by_criterion():
    assert nearly_free_by_criterion(fixture("nf6").build()) == 0
    assert nearly_free_by_criterion(near_pencil(5)) is None


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
