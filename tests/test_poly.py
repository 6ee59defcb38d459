"""Dense homogeneous polynomials: ordering, arithmetic, restriction."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlog import derivation, linalg
from arrlog.arrangement import _cross
from arrlog.corpus import FIXTURES, random_corpus
from arrlog.poly import (CertificationFailure, HomPoly, from_terms, line_frame,
                         linear, monomial_count, monomial_index, monomials,
                         restrict, restrict_lines)
from oracles import (diff, divide_linear, eliminated, evaluate, line_param,
                     poly_mul, product, substitute_line, zero)
from test_census import _census_pairs


def test_monomial_order_three_vars_degree_two():
    assert monomials(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                               (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert monomial_index((2, 0, 0), 2, 3) == 0
    assert monomial_index((0, 0, 2), 2, 3) == 5


def test_monomial_order_two_vars():
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomial_index((1, 1), 2, 2) == 1


def test_monomial_count():
    assert monomial_count(3, 2) == 6
    assert monomial_count(2, 4) == 5


def test_bad_exponent_tuple():
    with pytest.raises(ValueError):
        monomial_index((1, 0, 0), 2, 3)


def test_linear_and_str():
    p = linear(3, (1, -2, 0))
    assert str(p) == "x - 2*y"
    assert p.coefficient((1, 0, 0)) == 1
    assert p.coefficient((0, 1, 0)) == -2


def test_mul_small():
    x = linear(3, (1, 0, 0))
    y = linear(3, (0, 1, 0))
    xy = poly_mul(x, y)
    assert xy.degree == 2
    assert xy.coefficient((1, 1, 0)) == 1
    assert sum(1 for c in xy.coeffs if c) == 1


def rand_poly(rng, nvars, degree):
    n = monomial_count(nvars, degree)
    return HomPoly(nvars, degree,
                   tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
def test_mul_agrees_with_evaluation(d1, d2, rng):
    p = rand_poly(rng, 3, d1)
    q = rand_poly(rng, 3, d2)
    pq = poly_mul(p, q)
    for _ in range(4):
        pt = [rng.randint(-4, 4) for _ in range(3)]
        assert evaluate(pq, pt) == evaluate(p, pt) * evaluate(q, pt)


def test_mul_by_zero():
    z = zero(3, 1)
    p = linear(3, (1, 2, 3))
    assert poly_mul(z, p).is_zero


def test_product():
    p = product([linear(3, (1, 0, 0)), linear(3, (0, 1, 0)),
                 linear(3, (0, 0, 1))], 3)
    assert p.coefficient((1, 1, 1)) == 1


def test_diff():
    p = from_terms(3, 2, {(2, 0, 0): 1, (1, 1, 0): 3})
    px = diff(p, 0)
    assert px.coefficient((1, 0, 0)) == 2
    assert px.coefficient((0, 1, 0)) == 3
    with pytest.raises(ValueError):
        diff(from_terms(3, 0, {(0, 0, 0): 1}), 0)


def test_substitute_line_vanishing():
    # the defining form restricts to zero on its own line
    coeffs = (1, 2, 3)
    param = line_param(coeffs, 2)
    assert substitute_line(linear(3, coeffs), param).is_zero


def test_substitute_line_example():
    # restrict x^2 to x + y = 0 eliminating x: x = -u where (u, v) = (y, z)
    param = line_param((1, 1, 0), 0)
    p = from_terms(3, 2, {(2, 0, 0): 1})
    r = substitute_line(p, param)
    assert r.coefficient((2, 0)) == 1
    assert r.coefficient((1, 1)) == 0
    assert r.coefficient((0, 2)) == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.randoms(use_true_random=False))
def test_substitute_line_agrees_with_evaluation(d, rng):
    p = rand_poly(rng, 3, d)
    param = line_param((2, 3, 5), 2)  # z = -(2x + 3y)/5
    r = substitute_line(p, param)
    for _ in range(4):
        u, v = rng.randint(-4, 4), rng.randint(-4, 4)
        zval = param.expr[0] * u + param.expr[1] * v
        assert evaluate(r, (u, v)) == evaluate(p, (u, v, zval))


def test_line_param_retained():
    param = line_param((1, 1, 1), 1)
    assert param.eliminated == 1
    assert param.retained == (0, 2)
    with pytest.raises(ValueError):
        line_param((1, 0, 1), 1)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_line_frame():
    # largest magnitude wins; ties prefer z, then y
    assert line_frame((1, -3, 2)).f == 1
    assert line_frame((2, 2, 1)).f == 1
    assert line_frame((1, 1, 1)).f == 2
    # every line of the fixtures, the seed-42 corpus and the census orbits,
    # and every nonzero beta in [-3, 3]^3
    arrangements = ([f.build() for f in FIXTURES] + random_corpus(100, 8, 42)
                    + [A for A, _ in _census_pairs()])
    cube = [b for b in itertools.product(range(-3, 4), repeat=3) if any(b)]
    betas = {line.int_coeffs for A in arrangements for line in A.lines}
    betas.update(cube)
    for beta in betas:
        f, u, v, P, Q = line_frame(beta)
        assert f == eliminated(beta) and (u, v) == line_param(beta).retained
        assert P == tuple(beta[f] * (i == u) - beta[u] * (i == f) for i in range(3))
        assert Q == tuple(beta[f] * (i == v) - beta[v] * (i == f) for i in range(3))
        assert _dot(beta, P) == _dot(beta, Q) == 0, beta
        cross = _cross(P, Q)
        assert cross in (tuple(beta[f] * b for b in beta),
                         tuple(-beta[f] * b for b in beta)), beta
        assert restrict_lines(beta, cube) == [[_dot(a, P), _dot(a, Q)]
                                              for a in cube], beta
    # the lift of kept components (a, b) on H0 is aP + bQ made primitive,
    # a derivation that kills alpha_H0
    rng = random.Random(1)
    for A in arrangements:
        alpha = A.lines[0].int_coeffs
        _, _, _, P, Q = line_frame(alpha)
        for k in range(3):
            m = monomial_count(3, k)
            a = [rng.randint(-5, 5) for _ in range(m)]
            b = [rng.randint(-5, 5) for _ in range(m)]
            theta = derivation._h0_lift(A, a + b)
            want = [p * x + q * y for p, q in zip(P, Q) for x, y in zip(a, b)]
            assert theta == tuple(linalg._primitive_vec(want)), A.name
            assert not any(_dot(alpha, theta[j::m]) for j in range(m)), A.name


# lines whose largest |coefficient| is tied or sits beside zero entries, so
# that line_frame's tie rule picks the eliminated coordinate
_TIED_LINES = [(1, 1, 1), (-1, 1, -1), (2, -2, 1), (0, 3, -3), (-4, 0, 4),
               (5, 0, 0), (0, -2, 0), (0, 0, 7), (3, -3, 0), (1, 0, -1)]
_COEFF = st.integers(-4, 4)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(_TIED_LINES),
                 st.tuples(_COEFF, _COEFF, _COEFF).filter(any)),
       st.lists(st.tuples(*[st.integers(-9, 9)] * 3), max_size=6))
def test_restrict_lines_is_restrict_in_degree_one(beta, alphas):
    assert restrict_lines(beta, alphas) == restrict(beta, alphas, 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.randoms(use_true_random=False))
def test_divide_linear_recovers_factor(d, rng):
    q = rand_poly(rng, 3, d)
    coeffs = (Fraction(2, 3), -1, 4)
    assert divide_linear(poly_mul(q, linear(3, coeffs)), coeffs) == q


def test_divide_linear_rejects_non_multiple():
    # x^2 + y^2 does not vanish on x + y = 0
    with pytest.raises(CertificationFailure):
        divide_linear(from_terms(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1}), (1, 1, 0))
    # a nonzero constant is divisible by no linear form
    with pytest.raises(CertificationFailure):
        divide_linear(from_terms(3, 0, {(0, 0, 0): 5}), (0, 0, 1))

