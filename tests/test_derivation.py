"""Jacobian syzygies, minimal resolutions, and the classification."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlog import arrangement, derivation
from arrlog.arrangement import Arrangement, parse_arrangement
from arrlog.corpus import (fixture, generic, near_pencil, pencil,
                           random_arrangement)
from arrlog.corpus import FIXTURES
from arrlog.criteria import verify
from arrlog.derivation import (_ar_kernel, _shift_vec, ar_dim, classify,
                               dh_projection, minimal_resolution)
from arrlog.linalg import _int_row, kernel_basis
from arrlog.poly import (CertificationFailure, HomPoly, monomial_count,
                         monomials, restrict)
from oracles import (Derivation3, ar_basis, dh_basis, dh_kernel, in_dh,
                     jacobian, line_param, linear, poly_mul, rank, shift_vec,
                     substitute_line, zero)


def jacobian_matrix(A, k):
    """The map (a, b, c) -> a f_x + b f_y + c f_z on degree-k triples.  Its
    kernel is D_0(A)_k: the independent reference for _ar_kernel."""
    index = {m: i for i, m in enumerate(monomials(3, k + len(A) - 1))}
    cols = []
    for part in jacobian(A)[1:]:
        assert all(c.denominator == 1 for c in part.coeffs)
        for mu in monomials(3, k):
            col = [0] * len(index)
            for m, c in zip(monomials(3, len(A) - 1), part.coeffs):
                if c:
                    col[index[tuple(a + b for a, b in zip(mu, m))]] = int(c)
            cols.append(col)
    return [list(r) for r in zip(*cols)]


def test_jacobian_euler_identity():
    # jacobian() asserts x f_x + y f_y + z f_z = |A| f internally
    f, *partials = jacobian(fixture("nf6").build())
    assert f.degree == 6
    assert all(p.degree == 5 for p in partials)


def test_ar_dim_base_cases():
    assert ar_dim(arrangement([[1, 0, 0]]), 0) == 2
    A = fixture("generic4").build()
    assert [ar_dim(A, k) for k in range(4)] == [0, 0, 3, 8]
    C = fixture("pog6c").build()
    assert [ar_dim(C, k) for k in range(4)] == [0, 0, 0, 2]


def test_ar_basis_elements_are_syzygies():
    A = fixture("generic4").build()
    partials = jacobian(A)[1:]
    for s in ar_basis(A, 2):
        total = zero(3, 2 + len(A) - 1)
        for comp, part in zip(s.components, partials):
            total = total + poly_mul(comp, part)
        assert total.is_zero


def test_ar_rank_matches_sympy():
    for name, k in (("generic4", 2), ("nf6", 3)):
        A = fixture(name).build()
        m = jacobian_matrix(A, k)
        ncols = 3 * monomial_count(3, k)
        assert rank(m, ncols) == sympy.Matrix(m).rank()


def test_mdr():
    assert classify(fixture("generic4").build()).mdr == 2
    assert classify(fixture("pog7").build()).mdr == 3
    assert classify(near_pencil(5)).mdr == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 25), st.data())
def test_times_form_is_the_product_with_the_linear_form(d, data):
    n = monomial_count(3, d)
    coeff = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6))
    poly = data.draw(st.lists(coeff, min_size=n, max_size=n))
    a, b, c = data.draw(st.tuples(*[st.integers(-7, 7)] * 3))
    p = HomPoly(3, d, tuple(map(Fraction, poly)))
    for form in ((a, b, c), (a, 0, 0), (0, b, 0), (0, 0, c), (1, 0, 0)):
        assert (derivation._times_form(poly, d, form)
                == list(poly_mul(p, linear(3, form)).coeffs)), form


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 25), st.data())
def test_shift_vec_is_the_shift_of_each_component(k, data):
    m = 3 * monomial_count(3, k)
    v = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=m, max_size=m))
    for var in range(3):
        assert _shift_vec(v, k, var) == shift_vec(v, k, var), var


def test_minimal_resolution_shapes():
    cases = {
        "pencil": (pencil(3), (0, 2), ()),
        "near-pencil-5": (near_pencil(5), (1, 3), ()),
        "generic4": (fixture("generic4").build(), (2, 2, 2), (3,)),
        "nf6": (fixture("nf6").build(), (3, 3, 3), (4,)),
        "pog7": (fixture("pog7").build(), (3, 4, 5), (6,)),
        "generic5": (generic(5, seed=3), (3, 3, 3, 3), (4, 4)),
    }
    for A, gens, rels in cases.values():
        shape = minimal_resolution(A)
        assert shape.generator_degrees == gens
        assert shape.relation_degrees == rels
        assert shape.complete and not shape.cap_hit


def test_minimal_resolution_random_8():
    # its tail degrees cost most of the time while they were ranks of the
    # Jacobian-syzygy matrix
    shape = minimal_resolution(random_arrangement(8, 1))
    assert shape.generator_degrees == (6,) * 7
    assert shape.relation_degrees == (7,) * 5
    assert shape.complete and not shape.cap_hit


def test_classify_random_13():
    # its degree-11 syzygy kernel needs three primes combined by CRT
    doc = classify(random_arrangement(13, 1)).to_json()
    assert doc["generators"] == [10] + [11] * 10
    assert doc["verdict"] == "other" and not doc["cap_hit"]


def test_resolution_rank_degree_certificate():
    for builder in (lambda: fixture("pog6a").build(), lambda: near_pencil(6),
                    lambda: generic(5, seed=3)):
        A = builder()
        shape = minimal_resolution(A)
        gd, rd = shape.generator_degrees, shape.relation_degrees
        assert len(gd) - len(rd) == 2
        assert sum(gd) - sum(rd) == len(A) - 1


def test_classify_fixtures():
    expected = {
        "nf6": ("nearly-free", (3, 3), 3, 1),
        "pog6a": ("plus-one-generated", (3, 3), 4, 2),
        "pog6b": ("plus-one-generated", (3, 3), 4, 2),
        "generic4": ("nearly-free", (2, 2), 2, 1),
        "pog6c": ("plus-one-generated", (3, 3), 4, 2),
        "pog7": ("plus-one-generated", (3, 4), 5, 2),
    }
    for name, (verdict, exps, level, nu) in expected.items():
        cls = classify(fixture(name).build())
        assert cls.verdict == verdict
        assert cls.exponents == exps
        assert cls.level == level
        assert cls.nu == nu
        assert cls.mdr == exps[0]
        assert cls.is_plus_one


def test_classify_free_cases():
    for n in (3, 4, 5):
        cls = classify(near_pencil(n))
        assert cls.verdict == "free"
        assert cls.exponents == (1, n - 2)
        assert cls.level is None and cls.nu is None
    cls = classify(arrangement([[1, 0, 0]]))
    assert cls.verdict == "free" and cls.exponents == (0, 0)
    cls = classify(arrangement([[1, 0, 0], [0, 1, 0]]))
    assert cls.verdict == "free" and cls.exponents == (0, 1)


def test_classify_other():
    cls = classify(generic(5, seed=3))
    assert cls.verdict == "other"
    assert cls.exponents is None
    assert cls.mdr == 3


def test_classify_json():
    doc = classify(fixture("pog7").build()).to_json()
    assert doc["verdict"] == "plus-one-generated"
    assert doc["exponents"] == [3, 4]
    assert doc["level"] == 5
    assert doc["mdr"] == 3
    assert doc["nu"] == 2
    assert doc["generators"] == [3, 4, 5]
    assert doc["relations"] == [6]
    assert doc["cap_hit"] is False


def test_degree_cap_override(monkeypatch):
    monkeypatch.setenv("ARRLOG_MAX_DEGREE", "1")
    # an arrangement not used anywhere else, so no cached resolution exists
    A = arrangement([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 5]])
    cls = classify(A)
    assert cls.verdict == "other"
    assert cls.shape.cap_hit
    assert not cls.shape.complete


@pytest.fixture
def fresh_resolutions():
    """Clear the cached resolutions before and after a test that sets a
    degree cap, so none computed under one cap is read under another."""
    cached = (minimal_resolution, classify)
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


@pytest.mark.parametrize("cap", ["4", "5"])
def test_certified_end_below_the_cap_is_not_capped(cap, monkeypatch,
                                                   fresh_resolutions):
    # near_pencil(6) is free with exponents (1, 4), proved at degree 4;
    # generic(5) ends at degree |A| - 1 = 4 with four generators
    monkeypatch.setenv("ARRLOG_MAX_DEGREE", cap)
    cls = classify(near_pencil(6))
    assert (cls.verdict, cls.exponents) == ("free", (1, 4))
    assert cls.shape.complete and not cls.shape.cap_hit
    shape = minimal_resolution(generic(5, seed=3))
    assert shape.generator_degrees == (3, 3, 3, 3)
    assert shape.relation_degrees == (4, 4)
    assert shape.complete and not shape.cap_hit


def test_cap_below_the_certified_end_is_capped(monkeypatch, fresh_resolutions):
    monkeypatch.setenv("ARRLOG_MAX_DEGREE", "3")
    cls = classify(near_pencil(6))
    assert cls.verdict == "other"
    assert cls.shape.cap_hit and not cls.shape.complete
    shape = minimal_resolution(generic(5, seed=3))
    assert shape.cap_hit and not shape.complete


def _direct_dh_kernel(A, H, k):
    """D_H(A) in degree k solved from its defining conditions: theta(alpha_H)
    is zero, and theta(alpha_K) vanishes on K for every other line K."""
    ncols = 3 * monomial_count(3, k)
    columns = []
    for j in range(ncols):
        theta = Derivation3.from_vector([int(i == j) for i in range(ncols)], k)
        conds = list(theta.apply_linear(A.lines[H].coeffs).coeffs)
        for K, form in enumerate(A.lines):
            if K != H:
                first = next(i for i, c in enumerate(form.coeffs) if c)
                value = theta.apply_linear(form.coeffs)
                conds += substitute_line(value, line_param(form.coeffs, first)).coeffs
        columns.append(conds)
    rows = [_int_row(r) for r in zip(*columns)]
    return tuple(tuple(v) for v in kernel_basis(rows, ncols))


def test_dh_kernel_matches_direct_conditions():
    for fx in FIXTURES:
        A = fx.build()
        for H in range(len(A)):
            for k in range(len(A)):
                assert dh_kernel(A, H, k) == _direct_dh_kernel(A, H, k)


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda f: f.name)
def test_ar_kernel_on_reversed_lines(fx):
    # every fixture starts with x = 0; reversed, line 0 is no coordinate
    # line, so the eliminated component is rebuilt from the kept ones
    A = fx.build()
    R = Arrangement(tuple(reversed(A.lines)))
    partials = jacobian(R)[1:]
    for k in range(len(R)):
        for v in _ar_kernel(R, k):
            assert in_dh(R, 0, Derivation3.from_vector(v, k))
        for s in ar_basis(R, k):
            total = zero(3, k + len(R) - 1)
            for comp, part in zip(s.components, partials):
                total = total + poly_mul(comp, part)
            assert total.is_zero
    assert classify(R).to_json() == classify(A).to_json()


def test_dh_basis_members():
    A = fixture("nf6").build()
    for theta in dh_basis(A, 2, 3):
        assert in_dh(A, 2, theta)


def test_in_dh_negative():
    A = fixture("nf6").build()
    theta = Derivation3(linear(3, (1, 0, 0)), linear(3, (0, 1, 0)),
                        linear(3, (0, 0, 1)))
    assert not in_dh(A, 0, theta)


def test_dh_bad_index():
    A = fixture("nf6").build()
    theta = dh_basis(A, 5, 3)[0]
    assert in_dh(A, 5, theta)
    # a negative index must not wrap round to the last line
    for H in (-1, 6, 7):
        with pytest.raises(IndexError, match="line index out of range"):
            dh_basis(A, H, 1)
        with pytest.raises(IndexError, match="line index out of range"):
            in_dh(A, H, theta)
        with pytest.raises(IndexError, match="line index out of range"):
            dh_projection(A, H, 3)


@pytest.mark.parametrize("beta", [(0, 0, 1), (1, -3, 2), (2, 2, 1), (7, -4, 9),
                                  (-5, 1, 3)])
def test_line_restriction_is_the_scaled_substitution(beta):
    # at sP + tQ, (u, v) = beta_f (s, t) in the coordinates of line_frame
    # restrict applies line_restriction, so on a unit vector it is one column
    param = line_param(beta)
    for k in range(5):
        m = monomial_count(3, k)
        units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
        want = [[beta[param.eliminated] ** k * c
                 for c in substitute_line(HomPoly(3, k, unit), param).coeffs]
                for unit in units]
        assert restrict(beta, units, k) == want, k


def test_dh_projection_rejects_a_non_multiple(monkeypatch):
    # theta = x d/dy has theta(y) = x, which y does not divide
    A = parse_arrangement({"factored": "xy(x+y+z)"})
    H = next(i for i, line in enumerate(A.lines)
             if _int_row(line.coeffs) == [0, 1, 0])
    m = monomial_count(3, 1)
    theta = [0] * (3 * m)
    theta[m + monomials(3, 1).index((1, 0, 0))] = 1
    monkeypatch.setattr(derivation, "_ar_kernel", lambda A, k: (tuple(theta),))
    with pytest.raises(CertificationFailure, match="not divisible"):
        dh_projection(A, H, 1)


# known answers (Orlik-Terao, Arrangements of Hyperplanes, 1992): the
# reflection arrangements A3 and B3 and every near-pencil are free

@pytest.mark.parametrize("factored, exps", [
    ("xyz(x-y)(x-z)(y-z)", (2, 3)),
    ("xyz(x-y)(x+y)(x-z)(x+z)(y-z)(y+z)", (3, 5)),
])
def test_reflection_arrangements_free(factored, exps):
    A = parse_arrangement({"factored": factored})
    cls = classify(A)
    assert (cls.verdict, cls.exponents) == ("free", exps)
    assert verify(A).ok


@pytest.mark.parametrize("n", range(3, 13))
def test_near_pencil_free(n):
    cls = classify(near_pencil(n))
    assert (cls.verdict, cls.exponents) == ("free", (1, n - 2))
