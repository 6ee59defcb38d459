"""Weighted binary arrangements: dimensions, exponents, certified bases."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlog import linalg
from arrlog.arrangement import LinearForm3
from arrlog.corpus import (FIXTURES, fixture, pencil, random_arrangement,
                           random_corpus)
from arrlog.multiarr import (_BY_FORM, Derivation2, FreenessCertificateFailure,
                             LinearForm2, Multiarrangement2, _deriv_kernel,
                             _free_pattern, _saito_target, basis, exponents,
                             multiarrangement, multiples, rank2_basis,
                             saito_check, ziegler_restriction)
from arrlog.poly import from_terms, restriction_param
from oracles import (deriv_dim, deriv_space, echelon_basis, evaluate,
                     line_param, multi_defining_poly, span_rule_theta2,
                     substitute_line)


def test_linear_form2_int_coeffs():
    f = LinearForm2.make([Fraction(-3, 4), Fraction(1, 6)])
    assert f.coeffs == (1, Fraction(-2, 9))
    assert f.int_coeffs == (9, -2)
    assert LinearForm2.make([0, -4]).int_coeffs == (0, 1)
    for g in (LinearForm2.make([9, -2]), LinearForm2.make([-18, 4])):
        assert g == f and hash(g) == hash(f) == hash((f.int_coeffs,))
    assert repr(f) == "LinearForm2(int_coeffs=(9, -2))"
    with pytest.raises(TypeError):
        f < g


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20))
                .filter(any), max_size=8))
def test_forms_sort_by_int_coeffs_as_by_coeffs(pairs):
    # cross-multiplied int_coeffs give the order of the Fraction tuples,
    # which sets the printed order of a restriction's forms
    items = [(LinearForm2.make(c), i) for i, c in enumerate(pairs)]
    assert (sorted(items, key=_BY_FORM)
            == sorted(items, key=lambda fm: fm[0].coeffs))


def rank2_exponents(dim, total: int) -> tuple[int, int]:
    """Oracle: the degrees (e1 <= e2, e1 + e2 = total) of a free graded
    module of rank 2, read off its graded dimensions dim(k).

    e1 is the first degree up to total // 2 with dim(e1) > 0 and
    e2 = total - e1; the free pattern is then checked on every degree up to
    e2 + 1.
    """
    e1 = next((k for k in range(total // 2 + 1) if dim(k) > 0), None)
    if e1 is None:
        raise FreenessCertificateFailure(f"no exponent pair found for total {total}")
    e2 = total - e1
    for k in range(e2 + 2):
        got = dim(k)
        want = _free_pattern(k, e1, e2)
        if got != want:
            raise FreenessCertificateFailure(
                f"dimension {got} at degree {k} does not match free pattern "
                f"{want} for exponents ({e1},{e2})")
    return e1, e2


def test_multiarrangement_validation():
    with pytest.raises(ValueError):
        Multiarrangement2((LinearForm2.make([1, 0]),), (0,))
    with pytest.raises(ValueError):
        Multiarrangement2((LinearForm2.make([1, 0]),), (1, 2))
    with pytest.raises(ValueError):
        multiarrangement([([1, 0], 1), ([2, 0], 1)])


def test_multiarrangement_hash_is_the_field_hash():
    M = multiarrangement([([1, 0], 2), ([Fraction(1, 3), -1], 1), ([0, 1], 3)])
    N = Multiarrangement2(M.forms, M.mult)
    assert N == M and N is not M
    assert hash(N) == hash(M) == hash((M.forms, M.mult))
    assert M != Multiarrangement2(M.forms, (2, 1, 4))


def test_deriv_dim_base_cases():
    empty = Multiarrangement2((), ())
    assert deriv_dim(empty, 0) == 2
    single = multiarrangement([([1, 0], 1)])
    assert [deriv_dim(single, k) for k in range(3)] == [1, 3, 5]


def test_coordinate_cross_basis():
    M = multiarrangement([([1, 0], 1), ([0, 1], 1)])
    exp = exponents(M)
    assert exp.as_pair() == (1, 1)
    t1, t2 = basis(M)
    # the Euler-like pair x d/du, y d/dv up to order
    comps = sorted((str(t.p), str(t.q)) for t in (t1, t2))
    assert comps == [("0", "y"), ("x", "0")]


def test_ziegler_restriction_pog7():
    A = fixture("pog7").build()
    H = A.index_of(LinearForm3.make([0, 0, 1]))
    M, param = ziegler_restriction(A, H)
    assert param.eliminated == 2
    assert M.to_json() == {"forms": [[0, 1], [1, -1], [1, 0], [1, 1], [1, 4]],
                           "mult": [2, 1, 1, 1, 1]}
    assert M.total == len(A) - 1


def test_ziegler_restriction_total():
    for name in ("nf6", "pog6a", "generic4"):
        A = fixture(name).build()
        for H in range(len(A)):
            M, _ = ziegler_restriction(A, H)
            assert M.total == len(A) - 1


def _oracle_ziegler_restriction(A, H):
    """The weighted arrangement on line H, each other line restricted by
    substitution in Fractions and grouped by its canonical form."""
    param = line_param(A.lines[H].coeffs)
    counts = {}
    for i, form in enumerate(A.lines):
        if i != H:
            key = LinearForm2.make(substitute_line(form.poly(), param).coeffs)
            counts[key] = counts.get(key, 0) + 1
    return multiarrangement((f.coeffs, m) for f, m in counts.items())


_RESTRICTION_INPUTS = [f.build() for f in FIXTURES] + random_corpus(20, 8, 42)


@pytest.mark.parametrize("A", _RESTRICTION_INPUTS, ids=lambda A: A.name)
def test_ziegler_restriction_matches_substitution(A):
    for H in range(len(A)):
        M, param = ziegler_restriction(A, H)
        assert M == _oracle_ziegler_restriction(A, H), H
        assert M.to_json() == _oracle_ziegler_restriction(A, H).to_json()
        assert param == restriction_param(A.lines[H].coeffs)


@pytest.mark.parametrize("A", _RESTRICTION_INPUTS, ids=lambda A: A.name)
def test_saito_target_is_a_multiple_of_the_defining_poly(A):
    for H in range(len(A)):
        M, _ = ziegler_restriction(A, H)
        target = _saito_target(M)
        want = multi_defining_poly(M).coeffs
        assert all(type(c) is int for c in target)
        lead = next(i for i, c in enumerate(want) if c)
        scale = Fraction(target[lead]) / want[lead]
        assert scale and [scale * c for c in want] == target, H


def test_exponents_fixture_restrictions():
    A = fixture("pog6b").build()
    for H in range(6):
        M, _ = ziegler_restriction(A, H)
        assert exponents(M).as_pair() == (2, 3)
    A = fixture("pog6a").build()
    H = A.index_of(LinearForm3.make([0, 0, 1]))
    M, _ = ziegler_restriction(A, H)
    assert exponents(M).as_pair() == (1, 4)


def test_pencil_restriction():
    A = pencil(5)
    M, _ = ziegler_restriction(A, 0)
    assert len(M.forms) == 1
    assert M.mult == (4,)
    assert exponents(M).as_pair() == (0, 4)


# weighted forms with small coefficients; pairs with a zero form are dropped
# and proportional forms merge, so the result may be empty
RAW_WEIGHTED_FORMS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                        st.integers(1, 3)),
                              min_size=1, max_size=4)


def _from_raw(raw) -> Multiarrangement2 | None:
    pairs = {}
    for a, b, m in raw:
        if a == 0 and b == 0:
            continue
        pairs[LinearForm2.make([a, b])] = m
    if not pairs:
        return None
    forms = sorted(pairs, key=lambda f: f.coeffs)
    return Multiarrangement2(tuple(forms), tuple(pairs[f] for f in forms))


def _fixture_restrictions():
    restrictions = set()
    for fx in FIXTURES:
        A = fx.build()
        restrictions.update(ziegler_restriction(A, H)[0] for H in range(len(A)))
    return sorted(restrictions, key=repr)


def _assert_exponents_match_pattern(M: Multiarrangement2):
    # the dimension-pattern scan is the oracle for the determinant certificate
    oracle = rank2_exponents(lambda k: deriv_dim(M, k), M.total)
    assert exponents(M).as_pair() == oracle, M


def test_exponents_match_dimension_pattern_on_fixture_restrictions():
    for M in _fixture_restrictions():
        _assert_exponents_match_pattern(M)


@settings(max_examples=15, deadline=None)
@given(RAW_WEIGHTED_FORMS)
def test_free_pattern_identity(raw):
    M = _from_raw(raw)
    if M is not None:
        _assert_exponents_match_pattern(M)


U, V = sympy.symbols("u v")


def _sympy_kernel(M: Multiarrangement2, k: int):
    """Degree-k layer solved by sympy, independently of the Taylor rows:
    a p + b q must leave remainder 0 modulo each l^m = (a u + b v)^m.  A
    single generator is a Groebner basis of its ideal, so the remainder of
    the division is zero exactly on the multiples."""
    ps = sympy.symbols(f"p0:{k + 1}")
    qs = sympy.symbols(f"q0:{k + 1}")
    p = sum(c * U ** (k - j) * V ** j for j, c in enumerate(ps))
    q = sum(c * U ** (k - j) * V ** j for j, c in enumerate(qs))
    eqs = []
    for form, m in zip(M.forms, M.mult):
        a, b = (sympy.Rational(c.numerator, c.denominator) for c in form.coeffs)
        gens = (U, V) if a else (V, U)  # lead with a variable the form uses
        _, rem = sympy.reduced(sympy.expand(a * p + b * q),
                               [sympy.expand((a * U + b * V) ** m)],
                               *gens, order="lex")
        eqs.extend(sympy.Poly(rem, U, V).coeffs())
    matrix, _ = sympy.linear_eq_to_matrix(eqs, ps + qs)
    null = [linalg._int_row([Fraction(int(x.p), int(x.q)) for x in vec])
            for vec in matrix.nullspace()]
    return tuple(tuple(v) for v in echelon_basis(null, 2 * (k + 1)))


def _assert_kernels_match_sympy(M: Multiarrangement2):
    for k in range(M.total + 2):
        assert _deriv_kernel(M, k) == _sympy_kernel(M, k), (M, k)


def test_deriv_kernel_matches_sympy_on_fixture_restrictions():
    for M in _fixture_restrictions():
        _assert_kernels_match_sympy(M)


@settings(max_examples=15, deadline=None)
@given(RAW_WEIGHTED_FORMS)
def test_deriv_kernel_matches_sympy(raw):
    M = _from_raw(raw)
    if M is not None:
        _assert_kernels_match_sympy(M)


def test_rank2_exponents_certificate():
    assert rank2_exponents(lambda k: max(0, k - 1) + max(0, k - 2), 5) == (2, 3)
    with pytest.raises(FreenessCertificateFailure):
        rank2_exponents(lambda k: 0, 5)  # no nonzero degree up to total // 2
    with pytest.raises(FreenessCertificateFailure):
        rank2_exponents(lambda k: k, 4)  # dimension 3 at degree 3, not 4


def test_multiples():
    # (u + 2v, 3u) times u^2, u v, v^2
    assert multiples([1, 2, 3, 0], 2, 2) == [[1, 2, 0, 0, 3, 0, 0, 0],
                                             [0, 1, 2, 0, 0, 3, 0, 0],
                                             [0, 0, 1, 2, 0, 0, 3, 0]]


def _layers(M: Multiarrangement2):
    return lambda k: _deriv_kernel(M, k)


def test_rank2_basis_rejects_a_multiple_of_theta1():
    M = multiarrangement([([1, 0], 3), ([0, 1], 1), ([1, 1], 1)])
    e1, e2 = exponents(M).as_pair()
    assert (e1, e2) == (2, 3)
    layers = _layers(M)
    theta1 = layers(e1)[0]
    mult = multiples(theta1, 2, e2 - e1)[0]

    def only_multiples(k):
        return [mult] if k == e2 else layers(k)

    with pytest.raises(FreenessCertificateFailure):
        rank2_basis(only_multiples, M.total, multi_defining_poly(M).coeffs)

    # equal degrees: the layer's second vector replaced by a scalar multiple
    M = multiarrangement([([1, 0], 2), ([0, 1], 1), ([1, 1], 1)])
    assert exponents(M).as_pair() == (2, 2)
    theta1 = _deriv_kernel(M, 2)[0]

    def doubled(k):
        return [theta1, [3 * c for c in theta1]] if k == 2 else _deriv_kernel(M, k)

    with pytest.raises(FreenessCertificateFailure):
        rank2_basis(doubled, M.total, multi_defining_poly(M).coeffs)


def test_rank2_basis_rejects_a_perturbed_target():
    M = multiarrangement([([1, 0], 2), ([0, 1], 1), ([1, 1], 1)])
    target = list(multi_defining_poly(M).coeffs)
    theta1, theta2 = rank2_basis(_layers(M), M.total, target)
    assert (Derivation2.from_vector(theta1), Derivation2.from_vector(theta2)) \
        == basis(M)
    for i in range(len(target)):
        bad = list(target)
        bad[i] += 1
        with pytest.raises(FreenessCertificateFailure):
            rank2_basis(_layers(M), M.total, bad)


_BASIS_INPUTS = ([f.build() for f in FIXTURES]
                 + [random_arrangement(n, 1) for n in range(10, 14)])


@pytest.mark.parametrize("A", _BASIS_INPUTS, ids=lambda A: A.name)
def test_rank2_basis_theta2_is_the_first_outside_the_span(A):
    # the determinant rule picks the vector the span rule did
    for H in range(len(A)):
        M, _ = ziegler_restriction(A, H)
        layers = _layers(M)
        _, theta2 = rank2_basis(layers, M.total, _saito_target(M))
        assert theta2 == span_rule_theta2(layers, M.total), H


def test_basis_certified():
    A = fixture("nf6").build()
    for H in range(len(A)):
        M, _ = ziegler_restriction(A, H)
        t1, t2 = basis(M)
        exp = exponents(M)
        assert (t1.degree, t2.degree) == exp.as_pair()
        assert saito_check(t1, t2, M)


def test_saito_negative_wrong_degrees():
    M = multiarrangement([([1, 0], 1), ([0, 1], 1)])
    t1, t2 = basis(M)
    assert not saito_check(t1, t1, M)  # degenerate determinant


def test_saito_negative_wrong_poly():
    M = multiarrangement([([1, 0], 1), ([0, 1], 1)])
    # determinant x^2 is nonzero but not proportional to the product x*y
    bad1 = Derivation2(from_terms(2, 1, {(1, 0): 1}),
                       from_terms(2, 1, {}))
    bad2 = Derivation2(from_terms(2, 1, {}),
                       from_terms(2, 1, {(1, 0): 1}))
    assert not saito_check(bad1, bad2, M)


def test_deriv_space_members_divisible():
    M = multiarrangement([([1, 0], 2), ([1, 1], 1)])
    exp = exponents(M)
    for theta in deriv_space(M, exp.e2):
        # the value on each form, rewritten in that form's coordinates,
        # must vanish to the prescribed order; spot-check by evaluation
        for form, m in zip(M.forms, M.mult):
            a, b = form.coeffs
            val = theta.p.scale(a) + theta.q.scale(b)
            # points on the line a*u + b*v = 0
            pt = (-b, a)
            assert evaluate(val, pt) == 0


def test_multiplicity_monotonicity():
    base = [([1, 0], 1), ([0, 1], 1), ([1, 1], 1)]
    M1 = multiarrangement(base)
    M2 = multiarrangement([([1, 0], 2), ([0, 1], 1), ([1, 1], 1)])
    for k in range(5):
        assert deriv_dim(M2, k) <= deriv_dim(M1, k)
