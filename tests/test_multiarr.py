"""Weighted binary arrangements: dimensions, exponents, certified bases."""

import random
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
                             LinearForm2, Multiarrangement2, _checked_closed_form,
                             _closed_form, _det, _deriv_kernel,
                             _divisibility_rows, _free_pattern, _layer_vectors,
                             _product, _saito_target, _taylor_divisible,
                             _theta1, basis, exponents, multiarrangement,
                             multiples, saito_check, ziegler_restriction)
from arrlog.poly import HomPoly, line_frame
from oracles import (basis_by_kernel, deriv_dim, deriv_space,
                     divisibility_rows_along_ab, echelon_basis, evaluate,
                     exponents_by_scan, from_terms, line_param,
                     multi_defining_poly, product_by_mul2, rank,
                     restriction_by_make, rows_kill, span_rule_theta2,
                     substitute_line, supersolvable, theta2_by_multiples)
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


def test_ziegler_restriction_is_the_make_built_one():
    # restricted lines canonicalised by LinearForm2.from_ints give the
    # weighted arrangement that make gives
    for A in [f.build() for f in FIXTURES] + random_corpus(100, 8, 42):
        for H in range(len(A)):
            M, _ = ziegler_restriction.__wrapped__(A, H)
            assert M == restriction_by_make(A, H), (A.name, H)
            assert hash(M) == hash(restriction_by_make(A, H))


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
            key = LinearForm2.make(
                substitute_line(HomPoly(3, 1, form.coeffs), param).coeffs)
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
        assert scale and tuple(scale * c for c in want) == target, H


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


def _closed_form_verdict(M: Multiarrangement2, k: int, v):
    """_checked_closed_form(M, k) with v as the closed form, or "refused"."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiarr, "_closed_form", lambda N, d: v)
        try:
            return _checked_closed_form(M, k)
        except FreenessCertificateFailure:
            return "refused"


# two to six pairwise non-proportional forms, (1, 0) and (0, 1) among the
# candidates, and weights up to 5, above k + 1 in the low degrees
FORMS_AND_WEIGHTS = (
    st.lists(st.sampled_from([(1, 0), (0, 1)])
             | st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
             min_size=2, max_size=6, unique_by=LinearForm2.make),
    st.lists(st.integers(1, 5), min_size=6, max_size=6))


@settings(max_examples=40, deadline=None)
@given(*FORMS_AND_WEIGHTS)
def test_divisibility_rows_span_the_rows_along_ab(coeffs, weights):
    # the rows along a coordinate axis and along d = (a, b) have the same
    # rank and kernel over Q
    M = multiarrangement(zip(coeffs, weights))
    for k in range(M.total + 2):
        rows, ref = _divisibility_rows(M, k), divisibility_rows_along_ab(M, k)
        ncols = 2 * (k + 1)
        assert len(rows) == len(ref) and rank(rows, ncols) == rank(ref, ncols), (M, k)
        assert linalg.kernel_basis(rows, ncols) == linalg.kernel_basis(ref, ncols), (M, k)


def _psi_and_phis(M: Multiarrangement2):
    """psi and every phi_i (not only one of greatest weight), built by
    products of _mul2: each lies in D(M)."""
    P = product_by_mul2(M, [m - 1 for m in M.mult])
    yield P + [0, 0] + P
    for i, (a, b) in enumerate(f.int_coeffs for f in M.forms):
        Q = product_by_mul2(M, [0 if j == i else m for j, m in enumerate(M.mult)])
        yield [b * c for c in Q] + [-a * c for c in Q]


@settings(max_examples=40, deadline=None)
@given(*FORMS_AND_WEIGHTS, st.integers(0, 2 ** 32))
def test_closed_form_check_is_the_rows_verdict(coeffs, weights, seed):
    # the closed-form check by synthetic division accepts exactly the
    # vectors that every divisibility row kills, along a coordinate axis
    # and along (a, b): psi, each phi_i, the layer's kernel vectors, each
    # with its first, last or a random coefficient bumped, random vectors
    # and zero; _checked_closed_form refuses the rest and zero
    rng = random.Random(seed)
    M = multiarrangement(zip(coeffs, weights))
    members = list(_psi_and_phis(M))
    for k in range(M.total + 2):
        n = 2 * (k + 1)
        rows, ref = _divisibility_rows(M, k), divisibility_rows_along_ab(M, k)
        vectors = ([v for v in members if len(v) == n]
                   + [list(v) for v in _deriv_kernel(M, k)])
        for v in list(vectors):
            j = rng.randrange(n)
            vectors += [[v[0] + 1] + v[1:], v[:-1] + [v[-1] - 1],
                        v[:j] + [v[j] + rng.choice((-2, -1, 1, 2))] + v[j + 1:]]
        vectors += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)] + [[0] * n]
        for w in vectors:
            want = rows_kill(rows, w)
            assert rows_kill(ref, w) == want == _taylor_divisible(M, w), (M, k, w)
            verdict = linalg._primitive_vec(w) if want and any(w) else "refused"
            assert _closed_form_verdict(M, k, w) == verdict, (M, k, w)
        assert all(rows_kill(rows, v) for v in members if len(v) == n), (M, k)


@settings(max_examples=60, deadline=None)
@given(*FORMS_AND_WEIGHTS, st.lists(st.integers(0, 4), min_size=6, max_size=6))
def test_product_is_the_fold_of_mul2(coeffs, weights, powers):
    # a linear form per step gives the products of _mul2, and so the same
    # closed forms and Saito targets
    M = multiarrangement(zip(coeffs, weights))
    powers = powers[:len(M.forms)]
    assert _product(M, powers) == product_by_mul2(M, powers), (M, powers)
    assert _saito_target.__wrapped__(M) == tuple(product_by_mul2(M, M.mult)), M


@pytest.mark.parametrize("pairs", [
    [([1, 0], 2), ([0, 1], 2), ([1, 1], 1)],   # two forms of greatest weight
    [([1, -2], 3), ([3, 1], 3), ([2, 5], 3)],  # all of greatest weight
    [([2, 3], 4)],                             # one form
    []])                                       # no form
def test_saito_target_is_the_fold_of_mul2(pairs):
    # the target is the cofactor of phi_i times l_i^(m_i), the product of
    # every form to its weight; phi_i from that cofactor is in D(M)
    M = multiarrangement(pairs)
    assert _saito_target.__wrapped__(M) == tuple(product_by_mul2(M, M.mult)), M
    if M.forms:
        i = M.mult.index(max(M.mult))
        a, b = M.forms[i].int_coeffs
        Q = product_by_mul2(M, [0 if j == i else m for j, m in enumerate(M.mult)])
        k = M.total - M.mult[i]
        if k != 1 + M.total - len(M.forms):
            assert _closed_form(M, k) == [b * c for c in Q] + [-a * c for c in Q]
            assert _checked_closed_form(M, k)


def test_divisibility_rows_of_u_are_its_low_u_degrees():
    # on line 0 of near_pencil(5), u = (1, 0) has weight 3 and v = (0, 1)
    # weight 1; v's rows are zero on p, so a bump of p in a column of
    # u-degree below 3 is refused by u's rows alone
    M, _ = ziegler_restriction(near_pencil(5), 0)
    assert [f.int_coeffs for f in M.forms] == [(0, 1), (1, 0)] and M.mult == (1, 3)
    for k in (1, 3):
        v = _closed_form(M, k)
        assert _checked_closed_form(M, k) == linalg._primitive_vec(v), k
        for j in range(max(0, k - 2), k + 1):
            bad = list(v)
            bad[j] += 1
            assert _closed_form_verdict(M, k, bad) == "refused", (k, j)


def test_saito_target_is_built_once_per_restriction():
    M, _ = ziegler_restriction(random_arrangement(10, 1), 0)
    for cached in (_deriv_kernel, exponents, _saito_target):
        cached.cache_clear()
    assert saito_check(*basis(M), M)
    assert _saito_target.cache_info().misses == 1


def test_theta2_reduction_is_that_of_the_multiples():
    # theta2 reduced in place, on theta1's support only, is the primitive
    # vector the reduction against the full shifts gives; some drawn cases
    # take a step with theta1's last entry not +-1, which scales theta2
    nonunit = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
                    min_size=2, max_size=6, unique_by=LinearForm2.make),
           st.lists(st.integers(1, 3), min_size=6, max_size=6))
    def check(coeffs, weights):
        M = multiarrangement(zip(coeffs, weights))
        e1, e2 = exponents(M).as_pair()
        theta1 = _theta1(M, e1, e2)
        theta2 = next(v for v in _layer_vectors(M, e2, e1 < e2) if any(_det(theta1, v)))
        want, steps = theta2_by_multiples(theta1, theta2, e2 - e1)
        t1, t2 = basis(M)
        assert t1.int_vector == tuple(theta1) and t2.int_vector == tuple(want), M
        if steps and abs(theta1[linalg.free_column(theta1)]) != 1:
            nonunit.append(M)

    check()
    assert nonunit


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


# one weighted arrangement for each way basis finds its two vectors
_BRANCH_INPUTS = {
    # theta1 = psi, and phi_i has degree e2
    "psi-phi": [([1, 0], 1), ([0, 1], 1), ([1, 1], 1), ([1, 2], 1)],
    # theta1 = phi_i, and psi has degree e2
    "phi-psi": [([1, 0], 3), ([0, 1], 1), ([1, 1], 1)],
    # theta1 from the certified layer, and psi has degree e2
    "kernel-psi": [([1, 0], 2), ([0, 1], 2), ([1, 1], 1)],
    # theta1 = psi, and no closed form has degree e2
    "kernel-e2": [([1, 0], 2), ([0, 1], 2), ([1, 1], 1), ([1, 2], 1), ([1, 3], 1)],
    # e1 = e2: both from the certified layer
    "equal": [([1, 0], 2), ([0, 1], 2), ([1, 1], 2)],
}


@pytest.mark.parametrize("name, want, layers", [
    ("psi-phi", (1, 3), []), ("phi-psi", (2, 3), []),
    ("kernel-psi", (2, 3), [2]), ("kernel-e2", (3, 4), [4]),
    ("equal", (3, 3), [3, 3])])
def test_basis_branches(name, want, layers, monkeypatch):
    M = multiarrangement(_BRANCH_INPUTS[name])
    assert exponents(M).as_pair() == want
    real, seen = _deriv_kernel, []

    def kernel(N, k):
        seen.append(k)
        return real(N, k)

    monkeypatch.setattr(multiarr, "_deriv_kernel", kernel)
    got = basis(M)
    assert seen == layers
    assert got == tuple(Derivation2.from_vector(v) for v in basis_by_kernel(M))
    assert saito_check(*got, M)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
                min_size=2, max_size=6, unique_by=LinearForm2.make),
       st.lists(st.integers(1, 4), min_size=6, max_size=6))
def test_basis_is_that_of_the_kernel_rule(coeffs, weights):
    # theta2 reduced from a closed form prints as the kernel's first vector
    # outside S theta1
    M = multiarrangement(zip(coeffs, weights))
    want = tuple(Derivation2.from_vector(v) for v in basis_by_kernel(M))
    assert basis(M) == want, M


def test_rank2_basis_rejects_a_multiple_of_theta1(monkeypatch):
    # no closed form has degree e2, so the certified layer e2 is read
    M = multiarrangement(_BRANCH_INPUTS["kernel-e2"])
    e1, e2 = exponents(M).as_pair()
    assert (e1, e2) == (3, 4) and _closed_form(M, e2) is None
    theta1 = multiarr._theta1(M, e1, e2)
    mult = multiples(theta1, 2, e2 - e1)[0]

    def only_multiples(N, k):
        return [mult] if k == e2 else _deriv_kernel(N, k)

    with monkeypatch.context() as mp:
        mp.setattr(multiarr, "_deriv_kernel", only_multiples)
        with pytest.raises(FreenessCertificateFailure):
            basis(M)

    # a closed form of degree e2 in S theta1 is passed over for the layer,
    # and one outside D(M) is refused
    M = multiarrangement(_BRANCH_INPUTS["phi-psi"])
    e1, e2 = exponents(M).as_pair()
    theta1 = multiarr._theta1(M, e1, e2)
    psi, want = _closed_form(M, e2), basis(M)
    real_closed, real_kernel, layers = _closed_form, _deriv_kernel, []

    def kernel(N, k):
        layers.append(k)
        return real_kernel(N, k)

    for bad, ok in [(multiples(theta1, 2, e2 - e1)[1], True),
                    (psi[:1] + [psi[1] + 1] + psi[2:], False)]:
        with monkeypatch.context() as mp:
            mp.setattr(multiarr, "_closed_form",
                       lambda N, k, bad=bad: bad if k == e2 else real_closed(N, k))
            mp.setattr(multiarr, "_deriv_kernel", kernel)
            if ok:
                assert basis(M) == want and layers == [e2]
            else:
                with pytest.raises(FreenessCertificateFailure, match=f"degree {e2} is not"):
                    basis(M)

    # equal degrees: the layer's second vector replaced by a scalar multiple
    M = multiarrangement([([1, 0], 2), ([0, 1], 1), ([1, 1], 1)])
    assert exponents(M).as_pair() == (2, 2)
    theta1 = _deriv_kernel(M, 2)[0]

    def doubled(N, k):
        return [theta1, [3 * c for c in theta1]] if k == 2 else _deriv_kernel(N, k)

    with monkeypatch.context() as mp:
        mp.setattr(multiarr, "_deriv_kernel", doubled)
        with pytest.raises(FreenessCertificateFailure):
            basis(M)


def test_rank2_basis_rejects_a_perturbed_target(monkeypatch):
    M = multiarrangement([([1, 0], 2), ([0, 1], 1), ([1, 1], 1)])
    target = _saito_target(M)
    assert saito_check(*basis(M), M)
    for i in range(len(target)):
        bad = list(target)
        bad[i] += 1
        monkeypatch.setattr(multiarr, "_saito_target", lambda N: bad)
        with pytest.raises(FreenessCertificateFailure):
            basis(M)


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


def test_saito_check_reads_the_certified_vectors(monkeypatch):
    # basis's pair carries the primitive integer vectors it certified, which
    # take no part in equality, hashing or repr; saito_check reads them, and
    # clears denominators only for a pair rebuilt from its components, with
    # the same verdict
    calls = []
    real = linalg._int_row
    monkeypatch.setattr(linalg, "_int_row", lambda row: calls.append(1) or real(row))
    for A in _BASIS_INPUTS:
        for H in range(len(A)):
            M, _ = ziegler_restriction(A, H)
            t1, t2 = basis(M)
            r1, r2 = Derivation2(t1.p, t1.q), Derivation2(t2.p, t2.q)
            assert (r1, r2) == (t1, t2) and r1.int_vector is None
            assert hash(r1) == hash(t1) and repr(r2) == repr(t2)
            for t in (t1, t2):
                v = list(t.int_vector)
                assert linalg._primitive_vec(v) == v
                assert real(t.coeff_vector()) in (v, [-c for c in v]), (A.name, H)
            del calls[:]
            for pair, reads, want in [((t1, t2), 0, True), ((r1, r2), 2, True),
                                      ((t1, r2), 1, True), ((t1, t1), 0, False),
                                      ((r1, t1), 1, False)]:
                assert saito_check(*pair, M) == want, (A.name, H)
                assert len(calls) == reads
                del calls[:]


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
    # basis runs layer e1 when e1 = e2 or when theta1 has no closed form,
    # and layer e2 only when no closed form has degree e2 > e1
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
            for cached in (_deriv_kernel, exponents):
                cached.cache_clear()
            del degrees[:]
            exp = exponents(M)
            assert (degrees, exp.route) == ([], "bound"), (A.name, H)
            e1, e2 = exp.as_pair()
            basis(M)
            if e1 < e2 and _closed_form(M, e1) is not None:
                closed += 1
                assert _closed_form(M, e2) is not None and degrees == [], (A.name, H)
            else:
                assert degrees == [e1], (A.name, H)
    # 38 of the 47 lines run no kernel: theta1 and theta2 are psi and
    # phi_i.  4 have e1 = e2 and run layer e1 once; 5 of nf6, pog6a and
    # pog6c have weights (2, 2, 1), e1 = 2 and psi, phi_i of degree 3, and
    # run layer 2 only
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
def test_exponents_fall_back_to_one_certified_layer(forms, weights, want, bound):
    M = multiarrangement(zip(forms, weights))
    assert deriv_dim(M, bound - 1) > 0 and deriv_dim(M, bound) > 0
    exp = exponents.__wrapped__(M)
    assert (exp.as_pair(), exp.route) == (want, "layer")
    assert exponents_by_scan(M) == exp


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
