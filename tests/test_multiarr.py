"""Weighted binary arrangements: dimensions, exponents, certified bases."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlog import linalg, multiarr
from arrlog.arrangement import LinearForm3, arrangement
from arrlog.corpus import (FIXTURES, fixture, near_pencil, pencil,
                           random_arrangement, random_corpus)
from arrlog.multiarr import (_BY_FORM, Derivation2, FreenessCertificateFailure,
                             LinearForm2, Multiarrangement2, _closed_form,
                             _deriv_kernel, _free_pattern, _saito_target,
                             basis, exponents, multiarrangement, multiples,
                             saito_check, ziegler_restriction)
from arrlog.poly import from_terms, line_frame
from oracles import (deriv_dim, deriv_space, echelon_basis, evaluate,
                     exponents_by_scan, line_param, multi_defining_poly,
                     span_rule_theta2, substitute_line, supersolvable)
from test_census import CENSUS_LINES, SUPERSOLVABLE, _orbit_representatives


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
    M, frame = ziegler_restriction(A, H)
    assert frame.f == 2
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
        M, frame = ziegler_restriction(A, H)
        assert M == _oracle_ziegler_restriction(A, H), H
        assert M.to_json() == _oracle_ziegler_restriction(A, H).to_json()
        assert frame == line_frame(A.lines[H].int_coeffs)


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


def test_rank2_basis_rejects_a_multiple_of_theta1(monkeypatch):
    M = multiarrangement([([1, 0], 3), ([0, 1], 1), ([1, 1], 1)])
    e1, e2 = exponents(M).as_pair()
    assert (e1, e2) == (2, 3)
    theta1 = _deriv_kernel(M, e1)[0]
    mult = multiples(theta1, 2, e2 - e1)[0]

    def only_multiples(N, k):
        return [mult] if k == e2 else _deriv_kernel(N, k)

    with monkeypatch.context() as mp:
        mp.setattr(multiarr, "_deriv_kernel", only_multiples)
        with pytest.raises(FreenessCertificateFailure):
            basis.__wrapped__(M)

    # equal degrees: the layer's second vector replaced by a scalar multiple
    M = multiarrangement([([1, 0], 2), ([0, 1], 1), ([1, 1], 1)])
    assert exponents(M).as_pair() == (2, 2)
    theta1 = _deriv_kernel(M, 2)[0]

    def doubled(N, k):
        return [theta1, [3 * c for c in theta1]] if k == 2 else _deriv_kernel(N, k)

    with monkeypatch.context() as mp:
        mp.setattr(multiarr, "_deriv_kernel", doubled)
        with pytest.raises(FreenessCertificateFailure):
            basis.__wrapped__(M)


def test_rank2_basis_rejects_a_perturbed_target(monkeypatch):
    M = multiarrangement([([1, 0], 2), ([0, 1], 1), ([1, 1], 1)])
    target = _saito_target(M)
    assert basis.__wrapped__(M) == basis(M)
    for i in range(len(target)):
        bad = list(target)
        bad[i] += 1
        monkeypatch.setattr(multiarr, "_saito_target", lambda N: bad)
        with pytest.raises(FreenessCertificateFailure):
            basis.__wrapped__(M)


_BASIS_INPUTS = ([f.build() for f in FIXTURES]
                 + [random_arrangement(n, 1) for n in range(10, 14)])


@pytest.mark.parametrize("A", _BASIS_INPUTS, ids=lambda A: A.name)
def test_rank2_basis_theta2_is_the_first_outside_the_span(A):
    # the determinant rule picks the vector the span rule did
    for H in range(len(A)):
        M, _ = ziegler_restriction(A, H)
        theta2 = span_rule_theta2(lambda k: _deriv_kernel(M, k), M.total)
        assert basis(M)[1] == Derivation2.from_vector(linalg.unit_last(theta2)), H


def test_basis_certified():
    A = fixture("nf6").build()
    for H in range(len(A)):
        M, _ = ziegler_restriction(A, H)
        t1, t2 = basis(M)
        exp = exponents(M)
        assert (t1.degree, t2.degree) == exp.as_pair()
        assert saito_check(t1, t2, M)


def _scaled(theta, c):
    return Derivation2(theta.p.scale(c), theta.q.scale(c))


@pytest.mark.parametrize("c1, c2", [(Fraction(-3, 7), 5),
                                    (Fraction(1, 6), Fraction(-4, 9))])
def test_saito_check_is_scale_invariant(c1, c2):
    # saito_check clears denominators to primitive integer vectors; a basis
    # scaled by nonzero constants stays one, and a degenerate pair does not
    # become one
    A = fixture("nf6").build()
    for H in range(len(A)):
        M, _ = ziegler_restriction(A, H)
        t1, t2 = basis(M)
        assert saito_check(_scaled(t1, c1), _scaled(t2, c2), M)
        assert not saito_check(_scaled(t1, c1), _scaled(t1, c2), M)
        assert not saito_check(_scaled(t1, c1), _scaled(t2, 0), M)


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


def _census_arrangements():
    return [arrangement([list(v) for i, v in enumerate(CENSUS_LINES)
                         if mask >> i & 1], f"census-{mask}")
            for mask in _orbit_representatives()]


def _supersolvable_arrangements():
    return [supersolvable(*args) for args in SUPERSOLVABLE]


def _restrictions(arrangements):
    return {ziegler_restriction(A, H)[0]
            for A in arrangements for H in range(len(A))}


def test_exponents_are_the_degrees_of_the_certified_basis():
    # exponents gives the degrees of the basis that Saito's determinant
    # certifies, on every restriction of the fixtures, the seed-42 corpus,
    # the ladder, the census and the supersolvable arrangements
    arrangements = ([f.build() for f in FIXTURES] + random_corpus(100, 8, 42)
                    + [random_arrangement(n, 1) for n in range(8, 13)]
                    + [near_pencil(n) for n in range(8, 13)]
                    + _census_arrangements() + _supersolvable_arrangements())
    restrictions = _restrictions(arrangements)
    assert len(restrictions) > 1000
    for M in restrictions:
        theta1, theta2 = basis(M)
        assert exponents(M).as_pair() == (theta1.degree, theta2.degree), M


def test_supersolvable_restrictions_have_the_arrangements_exponents():
    # a free arrangement with exponents (1, m - 1, |A| - m) restricts to
    # every one of its lines with exponents (m - 1, |A| - m) (Ziegler 1989)
    seen = set()
    for A in _supersolvable_arrangements():
        m = sum(1 for line in A.lines if not line.int_coeffs[2])
        want = tuple(sorted((m - 1, len(A) - m)))
        for H in range(len(A)):
            assert exponents(ziegler_restriction(A, H)[0]).as_pair() == want, (A.name, H)
        seen.add(want[0])
    assert min(seen) == 2 and max(seen) == 5


def test_exponents_compute_no_layer(monkeypatch):
    # exponents reads e1 off one rank modulo WORD_PRIME, with no kernel, and
    # basis runs layer e2 only, plus layer e1 when e1 = e2 or when theta1
    # has no closed form
    real = linalg.kernel_basis
    degrees = []

    def kernel(matrix, ncols):
        degrees.append(ncols // 2 - 1)
        return real(matrix, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", kernel)
    closed = 0
    for A in [f.build() for f in FIXTURES] + [random_arrangement(12, 1)]:
        for H in range(len(A)):
            M, _ = ziegler_restriction(A, H)
            for cached in (_deriv_kernel, exponents, basis):
                cached.cache_clear()
            del degrees[:]
            e1, e2 = exponents(M).as_pair()
            assert degrees == [], (A.name, H)
            basis(M)
            if e1 < e2 and _closed_form(M, e1) is not None:
                closed += 1
                assert degrees == [e2], (A.name, H)
            else:
                assert degrees == sorted({e1, e2}), (A.name, H)
    # 38 of the 47 lines; 4 have e1 = e2, and 5 of nf6, pog6a and pog6c
    # have weights (2, 2, 1), e1 = 2 and psi, phi_i of degree 3
    assert closed == 38


def test_exponents_raise_without_a_nonzero_layer(monkeypatch):
    # with the rank modulo WORD_PRIME short, the certified layer in degree
    # K = (|m| - 1) // 2 must give 0 <= e1 <= U; an implementation whose
    # layer is empty (e1 = K + 1 > U) or too large (e1 < 0) is refused,
    # not answered
    monkeypatch.setattr(linalg, "rank_mod", lambda rows, ncols, p: 0)
    three = [([1, 0], 3), ([0, 1], 1), ([1, 1], 1)]  # U = 2, K = 2
    two = [([1, 0], 3), ([0, 1], 1)]  # U = 1, K = 1
    for pairs, dim, match in [(three, 0, "e1 = 3 against the bound 2 for total 5"),
                              (two, 0, "e1 = 2 against the bound 1 for total 4"),
                              (three, 4, "e1 = -1 against the bound 2")]:
        M = multiarrangement(pairs)
        monkeypatch.setattr(multiarr, "_deriv_kernel",
                            lambda N, k, dim=dim: ((0,) * 2 * (k + 1),) * dim)
        with pytest.raises(FreenessCertificateFailure, match=match):
            exponents.__wrapped__(M)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
                min_size=3, max_size=6, unique_by=LinearForm2.make),
       st.lists(st.integers(1, 5), min_size=6, max_size=6))
def test_exponents_match_the_scan(coeffs, weights):
    M = multiarrangement(zip(coeffs, weights))
    assert exponents.__wrapped__(M) == exponents_by_scan(M), M


# weighted arrangements whose layer U - 1 is nonzero over Q, so that no
# prime gives its conditions full rank: (forms, weights, exponents, U)
_FALLBACK_INPUTS = [
    ([(0, 1), (1, -2), (1, -1), (1, 0)], (1, 4, 3, 4), (5, 7), 6),
    ([(0, 1), (1, 0), (1, 2), (1, 4)], (1, 3, 5, 3), (5, 7), 6),
    ([(0, 1), (3, -4), (1, -1), (3, -2)], (3, 5, 3, 5), (7, 9), 8),
]


@pytest.mark.parametrize("forms, weights, want, bound", _FALLBACK_INPUTS)
def test_exponents_fall_back_to_one_certified_layer(forms, weights, want, bound,
                                                    monkeypatch):
    M = multiarrangement(zip(forms, weights))
    assert deriv_dim(M, bound - 1) > 0 and deriv_dim(M, bound) > 0
    real, layers = _deriv_kernel, []

    def spy(N, k):
        layers.append(k)
        return real(N, k)

    monkeypatch.setattr(multiarr, "_deriv_kernel", spy)
    assert exponents.__wrapped__(M).as_pair() == want
    assert layers == [(M.total - 1) // 2]
    assert exponents_by_scan(M).as_pair() == want


def test_exponents_edge_cases():
    # one line: an empty restriction, total 0; two lines: one simple point;
    # a pencil: one point of weight n - 1, where phi of degree 0 gives U = 0
    one_line = arrangement([[1, 0, 0]], "one line")
    for A, want in [(one_line, (0, 0)), (pencil(2), (0, 1)),
                    (pencil(5), (0, 4)), (near_pencil(6), (1, 4))]:
        for H in range(len(A)):
            M, _ = ziegler_restriction(A, H)
            assert exponents(M).as_pair() == exponents_by_scan(M).as_pair(), (A.name, H)
        assert exponents(ziegler_restriction(A, 0)[0]).as_pair() == want, A.name


def test_closed_form_theta1_is_the_layer_vector(monkeypatch):
    # psi or phi_i of degree e1 < e2 spans the one-dimensional layer e1, so
    # it prints as its certified kernel vector; changing any one coefficient
    # takes it out of D(M), and the divisibility check refuses it
    arrangements = ([f.build() for f in FIXTURES] + _census_arrangements()
                    + random_corpus(100, 8, 42))
    closed = 0
    for M in sorted(_restrictions(arrangements), key=repr):
        e1, e2 = exponents(M).as_pair()
        v = _closed_form(M, e1) if e1 < e2 else None
        if v is None:
            continue
        closed += 1
        assert (linalg.unit_last(multiarr._theta1(M, e1, e2))
                == linalg.unit_last(_deriv_kernel(M, e1)[0])), M
        support = [j for j, x in enumerate(v) if x]
        for j in range(len(v)):
            if support == [j]:
                continue  # v plus the j-th unit vector is a multiple of v
            bad = list(v)
            bad[j] += 1
            with monkeypatch.context() as mp:
                mp.setattr(multiarr, "_closed_form", lambda N, k: bad)
                with pytest.raises(FreenessCertificateFailure):
                    multiarr._theta1(M, e1, e2)
    assert closed > 100
