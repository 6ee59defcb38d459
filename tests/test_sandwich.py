"""The rank sandwich that certifies a syzygy layer without a kernel.

derivation._sandwich bounds dim D_{H0}(A)_k from above by Ziegler's
sequence, or by the point system's kernel modulo a prime (_point_system),
and from below by alpha_H0 times the layer below plus point derivations
and shifts whose restrictions to H0 are independent modulo a prime; the
layers through _empty_through are zero by Bezout's theorem, as the lines
of _peel cut the points off H0 out, with no elimination.  These tests pin
which route a layer takes, that the route gives the layer the per-line
conditions define, that the empty prefix and the modular bound are sound
against exact ranks, that peeling lines leaves the bound as it is, and
that a point derivation which is not its closed form fails the
certificate.  That check evaluates each component once, at a Kronecker
point (1, T, T^(k + 1)) with T a power of two above every coefficient of
the difference, and no smaller power is sound; it accepts each point
derivation and rejects every other vector, also one of D_{H0}(A) with the
same kept values.  What run time no longer checks by restriction, the tests
do: every chosen point derivation passes the restriction oracle
(oracles.in_module), with its stored kept values.  The new
generators that _resolution reads off every layer's restriction to H0 must
be those that grow an exact span of x, y and z times the layer below
(oracles.layer_generators), and a tampered layer must fail their count.
The scan's layers (_layer) keep only their own vectors and their kept
values on H0: the values carried must be those of the vectors, the scan
must never build a whole basis (_ar_kernel), and the whole basis built on
demand must be the layer the conditions define.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from arrlog import derivation, linalg, multiarr
from arrlog.arrangement import Arrangement
from arrlog.corpus import (FIXTURES, near_pencil, random_arrangement,
                           random_corpus)
from arrlog.linalg import _int_row
from arrlog.poly import (CertificationFailure, line_frame, monomial_count,
                         monomials)
from oracles import _exact_kernel, echelon_basis, h0_conditions
from test_census import SUPERSOLVABLE, _census_pairs
from test_criteria import A3, B3
from test_linalg import in_layer, point_layer, scanned_degrees


def exact_layer(A, k):
    """echelon_basis of the kernel of the per-line conditions, lifted."""
    m = monomial_count(3, k)
    rows = [_int_row(r) for r in h0_conditions(A, k)]
    return echelon_basis([derivation._h0_lift(A, v)
                          for v in _exact_kernel(rows, 2 * m)], 3 * m)


def point_bound(A, k):
    """The dimension of the point system's kernel modulo WORD_PRIME, the
    upper bound of _sandwich once its candidates run out."""
    return len(derivation._point_system(A, k, linalg.WORD_PRIME)[1])


def alone(name, A, k, monkeypatch, bounded=None):
    """derivation.<name>(A, k), for _sandwich or _layer, recomputed from
    the cached layers below it, with its own layer and empty prefix
    uncached, and without a kernel over Q: the exact point system and
    kernel_basis raise.  The degrees of the point system's modular calls are
    appended to bounded."""
    for j in range(k):
        derivation._layer(A, j)
    multiarr.exponents(multiarr.ziegler_restriction(A, 0)[0])
    fn = getattr(derivation, name)
    fn = getattr(fn, "__wrapped__", fn)
    point_system = derivation._point_system
    bounded = [] if bounded is None else bounded

    def forbidden(*args):
        raise AssertionError("a kernel ran")

    def modular(B, j, p=None):
        if p is None:
            forbidden()
        bounded.append(j)
        return point_system(B, j, p)

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "kernel_basis", forbidden)
        mp.setattr(derivation, "_point_system", modular)
        mp.setattr(derivation, "_empty_through",
                   derivation._empty_through.__wrapped__)
        return fn(A, k)


def whole(A, k, layer):
    """The basis of D_{H0}(A)_k that _ar_kernel builds on layer k, which
    must be the layer computed alone."""
    cached = derivation._layer(A, k)
    assert (tuple(layer), layer.dim) == (tuple(cached), cached.dim), k
    return derivation._ar_kernel(A, k)


def test_top_layer_of_a_random_arrangement_needs_no_kernel(monkeypatch):
    A = random_arrangement(12, 1)
    top = len(A) - 2
    assert derivation.classify(A).shape.generator_degrees[-1] == top
    layer = alone("_sandwich", A, top, monkeypatch)
    # the layer has new generators, so point derivations were chosen
    assert layer.columns
    assert echelon_basis(whole(A, top, layer), 3 * monomial_count(3, top)) \
        == exact_layer(A, top)


@pytest.mark.parametrize("n", range(8, 13))
def test_every_layer_of_a_random_arrangement_needs_no_kernel(n, monkeypatch):
    # the peel proves every layer below mdr empty; with a
    # triple point (n >= 10) the mdr layer, k = n - 3, is its point
    # derivation, certified by the modular point system; the top layer,
    # k = n - 2, reaches Ziegler's bound
    A = random_arrangement(n, 1)
    gd = derivation.classify(A).shape.generator_degrees
    mdr, top = gd[0], gd[-1]
    assert top == n - 2
    assert mdr == (n - 2 if n < 10 else n - 3)
    assert derivation._empty_through(A) == mdr - 1
    bounded = []
    for k in range(top + 1):
        layer = alone("_layer", A, k, monkeypatch, bounded)
        assert (layer.dim == 0) == (k < mdr), k
        assert echelon_basis(whole(A, k, layer), 3 * monomial_count(3, k)) \
            == exact_layer(A, k)
    assert bounded == ([] if mdr == top else [mdr])


def test_every_layer_of_a_near_pencil_needs_no_kernel(monkeypatch):
    A = near_pencil(8)
    gd = derivation.classify(A).shape.generator_degrees
    assert gd == (1, 6)
    # the points off H0, a line of the pencil, lie on the transversal: it
    # peels them all, which empties degree 0 alone, and every layer
    # above it takes the sandwich
    assert derivation._peel(A) == ((len(A) - 1, len(A) - 2),)
    assert derivation._empty_through.__wrapped__(A) == 0
    bounded = []
    for k in range(max(gd) + 1):
        layer = alone("_sandwich", A, k, monkeypatch, bounded)
        # new generators in degrees 1 and 6 only, and never from shifts
        assert (not layer.columns) == (k not in gd), k
        assert echelon_basis(whole(A, k, layer), 3 * monomial_count(3, k)) \
            == exact_layer(A, k)
    # each layer reaches Ziegler's bound
    assert bounded == []


@pytest.mark.parametrize("A, k", [(A3, 2), (B3, 3)], ids=["A3", "B3"])
def test_generators_that_are_no_point_derivations_fall_back(A, k):
    # the generator of A3 in degree 2 and of B3 in degree 3 is not in the
    # span of point derivations and shifts, so the sandwich is not tight
    assert k in derivation.classify(A).shape.generator_degrees
    assert derivation._sandwich(A, k) is None
    layer = derivation._ar_kernel(A, k)
    m = 3 * monomial_count(3, k)
    lifted = point_layer(A, k)
    assert len(layer) == len(lifted)
    assert echelon_basis(layer, m) == echelon_basis(lifted, m)
    assert echelon_basis(layer, m) == exact_layer(A, k)
    # the modular bound is the layer's dimension, which the candidates miss
    assert point_bound(A, k) == len(layer)


def _alpha_h0_multiples(A, k):
    """alpha_H0 x_e^(k - 1) d_e and alpha_H0 x^(k - 1) d_w with
    alpha_H0(w) = 0, as degree-k vectors.  Added to a point derivation,
    they leave its values on H0 alone, where alpha_H0 vanishes, and take it
    out of D_{H0}(A): the first fails theta(alpha_H0) = 0, the second the
    condition of a line K with alpha_K(w) != 0."""
    alpha = A.lines[0].int_coeffs
    e = line_frame(alpha).f

    def times_alpha(direction, var):
        power = [int(mu[var] == k - 1) for mu in monomials(3, k - 1)]
        poly = derivation._times_form(power, k - 1, alpha)
        return [d * x for d in direction for x in poly]

    w = [alpha[1], -alpha[0], 0] if alpha[0] or alpha[1] else [1, 0, 0]
    assert not sum(a * b for a, b in zip(alpha, w))
    return {"theta(alpha_H0)": times_alpha([int(i == e) for i in range(3)], e),
            "a line": times_alpha(w, 0)}


@pytest.mark.parametrize("below", [0, 1], ids=["top", "mdr"])
@pytest.mark.parametrize("kind", ["coefficient", "theta(alpha_H0)", "a line",
                                  "zero"])
def test_a_perturbed_point_derivation_fails_the_certificate(kind, below,
                                                            monkeypatch):
    # one coefficient up by 1; an alpha_H0 multiple added, which only the
    # exact check against the lines sees; and the zero vector, which lies in
    # D_{H0}(A) but does not take the values it was ranked by.  The top
    # layer reaches Ziegler's bound, and the mdr layer below it the modular
    # point system
    A = random_arrangement(12, 1)
    degree = len(A) - 2 - below
    change = _alpha_h0_multiples(A, degree).get(kind)
    original = derivation._point_derivation

    def perturbed(B, v, missing, k):
        vec = original(B, v, missing, k)
        if kind == "zero":
            return [0] * len(vec)
        if kind == "coefficient":
            j = next(i for i, x in enumerate(vec) if x)
            vec[j] += 1
        else:
            vec = [a + b for a, b in zip(vec, change)]
            assert derivation._kept_values(B, [vec], k) == \
                derivation._kept_values(B, [original(B, v, missing, k)], k)
        assert not in_layer(B, k, vec)
        return vec

    # the layers below are cached unperturbed first
    alone("_sandwich", A, degree, monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(derivation, "_point_derivation", perturbed)
        with pytest.raises(CertificationFailure, match="point derivation"):
            alone("_sandwich", A, degree, monkeypatch)


def _point_candidates(A):
    """Every point derivation of A as _candidates yields it, in every degree
    k that has one: (k, its ranked row, its vector, (v, missing))."""
    for k in range(len(A) - 1):
        points = derivation._h0_points(A, k + 1)
        for row, build, point in derivation._candidates(
                A, k, derivation._Layer(), points):
            yield k, row, build(), point


_MEMBERS = [random_arrangement(10, 1), near_pencil(8), A3, B3]


@lru_cache(maxsize=None)
def _member_candidates():
    return [(A, *c) for A in _MEMBERS for c in _point_candidates(A)]


def _base_bits(A, vec, v, missing):
    """The b of the check's T = 2^b: the bit length of max |vec| plus the
    bound on the closed form's coefficients."""
    forms = [line.int_coeffs for line in A.lines]
    return (max(map(abs, vec))
            + derivation._closed_form_bound(forms, v, missing)).bit_length()


def _below(A, k):
    """alpha_H0 times each vector of layer k - 1: in D_{H0}(A)_k, and zero
    on H0."""
    alpha = A.lines[0].int_coeffs
    return [derivation._times_linear(theta, k - 1, alpha)
            for theta in derivation._ar_kernel(A, k - 1)] if k else []


def test_the_closed_form_check_accepts_every_point_derivation():
    # every point derivation, of a point on H0 or off it, is its closed
    # form, lies in D_{H0}(A), and takes at the points of H0 the kept values
    # it is ranked by
    projected = set()
    for A, k, row, vec, (v, missing) in _member_candidates():
        assert derivation._is_closed_form(A, vec, v, missing, k), (A.name, k)
        assert oracles.in_module(A, [vec], k), (A.name, k)
        assert [row] == derivation._kept_values(A, [vec], k), (A.name, k)
        projected.add(bool(missing) and not missing[0])
    assert projected == {False, True}


def _perturbed(A, k, vec, v, missing):
    """Vectors other than vec, by kind: one coefficient, the first nonzero,
    a middle one or the last, changed by +-1 or by +-(T - 1); each alpha_H0
    multiple of _alpha_h0_multiples added; the zero vector; and vec plus
    alpha_H0 times a vector of layer k - 1."""
    T = 1 << _base_bits(A, vec, v, missing)
    first = next(j for j, x in enumerate(vec) if x)
    out = []
    for j in sorted({first, len(vec) // 2, len(vec) - 1}):
        for d in (1, -1, T - 1, 1 - T):
            w = list(vec)
            w[j] += d
            out.append(("coefficient", w))
    if k:
        out += [(kind, [a + b for a, b in zip(vec, change)])
                for kind, change in _alpha_h0_multiples(A, k).items()]
    out.append(("zero", [0] * len(vec)))
    out += [("layer below", [a + b for a, b in zip(vec, w)])
            for w in _below(A, k)]
    return out


def test_the_closed_form_check_rejects_every_other_vector():
    # vec plus alpha_H0 times a vector of layer k - 1 lies in D_{H0}(A) and
    # takes the kept values of vec, so neither a check against the lines nor
    # the kept values refuse it: the check fixes the one polynomial
    kinds = set()
    for A, k, row, vec, (v, missing) in _member_candidates():
        for kind, w in _perturbed(A, k, vec, v, missing):
            assert not derivation._is_closed_form(A, w, v, missing, k), \
                (A.name, k, kind)
            if kind == "layer below":
                assert oracles.in_module(A, [w], k), (A.name, k)
                assert derivation._kept_values(A, [w], k) == [row]
            kinds.add(kind)
    assert kinds == {"coefficient", "theta(alpha_H0)", "a line", "zero",
                     "layer below"}


def test_the_check_evaluates_at_its_power_of_two(monkeypatch):
    # each component is evaluated once, at T = 2^b with b the bit length of
    # max |vec| plus _closed_form_bound
    kronecker = derivation._kronecker
    bits = []

    def recording(poly, k, b):
        bits.append(b)
        return kronecker(poly, k, b)

    monkeypatch.setattr(derivation, "_kronecker", recording)
    for A, k, _, vec, (v, missing) in _member_candidates():
        bits.clear()
        assert derivation._is_closed_form(A, vec, v, missing, k)
        assert bits == [_base_bits(A, vec, v, missing)] * 3, (A.name, k)


@pytest.mark.parametrize("beta", [(0, 0, 1), (0, 0, 2), (0, 3, 0), (-5, 0, 0)])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_a_restricted_coefficient_reaches_the_evaluation_base(beta, k):
    # the evaluation base T = 2^b of the check must exceed every coefficient
    # of the difference of a vector and the closed form C.  With H0 through
    # v and the k missing forms all beta = beta_f x_f, g_v = beta_f^k x_f^k
    # is one monomial, and C has a coefficient at the bound B = |beta|_1^k
    # |v|_inf.  vec = -C, with max |vec| = B, differs from C by M = 2B
    # there, and T is the least power of two above M.  At T / 2 <= M the
    # nonzero form (T / 2) x^k - x^(k - 1) y, its coefficients at most M,
    # vanishes: no smaller power of two is sound
    m = monomial_count(3, k)
    forms = [(1, 1, 1)] + [beta] * k
    missing = list(range(1, k + 1))
    for v in [(1, 0, 0), (2, -3, 1), (0, 0, -5)]:
        C = [c * x for c in v for x in derivation._form_product([beta] * k)]
        bound = derivation._closed_form_bound(forms, v, missing)
        assert max(map(abs, C)) == bound \
            == sum(map(abs, beta)) ** k * max(map(abs, v))
        vec = [-x for x in C]
        M = max(abs(a - c) for a, c in zip(vec, C))
        assert M == max(map(abs, vec)) + bound
        b = M.bit_length()
        assert 1 << (b - 1) <= M < 1 << b
        T = 1 << b
        at = derivation._point_values(forms, v, missing, (1, T, T ** (k + 1)))
        assert at == [derivation._kronecker(C[c * m:(c + 1) * m], k, b)
                      for c in range(3)]
        assert at != [derivation._kronecker(vec[c * m:(c + 1) * m], k, b)
                      for c in range(3)]
        if k:
            D = [0] * m
            D[0], D[1] = 1 << (b - 1), -1
            assert monomials(3, k)[:2] == ((k, 0, 0), (k - 1, 1, 0))
            assert derivation._kronecker(D, k, b - 1) == 0
            assert derivation._kronecker(D, k, b) != 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_closed_form_check_is_equality(data):
    # a point derivation perturbed along a direction u with alpha_H0(u) =
    # 0, so that only the lines decide for the module; by an alpha_H0
    # multiple; by alpha_H0 times a vector of layer k - 1; by one
    # coefficient as large as the base; or not at all.  The check accepts
    # exactly the vector itself, and only vectors of D_{H0}(A)
    A, k, _, vec, (v, missing) = data.draw(
        st.sampled_from(_member_candidates()), label="candidate")
    w = list(vec)
    m = monomial_count(3, k)
    kind = data.draw(st.sampled_from(["along H0", "alpha_H0", "layer below",
                                      "base", "none"]))
    j = data.draw(st.integers(0, m - 1), label="monomial")
    if kind == "along H0":
        alpha = A.lines[0].int_coeffs
        u = [alpha[1], -alpha[0], 0] if alpha[0] or alpha[1] else [1, 0, 0]
        d = data.draw(st.integers(-3, 3) | st.sampled_from([2 ** 64, -2 ** 64]))
        for c in range(3):
            w[c * m + j] += d * u[c]
    elif kind == "alpha_H0" and k:
        changes = sorted(_alpha_h0_multiples(A, k).items())
        change = data.draw(st.sampled_from(changes), label="multiple")[1]
        w = [a + b for a, b in zip(w, change)]
    elif kind == "layer below" and _below(A, k):
        below = _below(A, k)
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(below),
                                    max_size=len(below)), label="coeffs")
        w = [a + b for a, b in zip(w, derivation._combine(coeffs, below, 3 * m))]
    elif kind == "base":
        T = 1 << _base_bits(A, vec, v, missing)
        d = data.draw(st.sampled_from([T - 1, 1 - T, T, -T]), label="change")
        w[data.draw(st.integers(0, 2), label="component") * m + j] += d
    got = derivation._is_closed_form(A, w, v, missing, k)
    assert got == (w == vec)
    if got:
        assert oracles.in_module(A, [w], k)


# ---------------------------------------------------------------------------
# new generators read off the restriction to H0


def _ladder(seed):
    """The random and near-pencil arrangements of 8 to 12 lines, each with
    its lines shuffled by seed, which puts another line first as H0."""
    rng = random.Random(seed)
    out = []
    for n in range(8, 13):
        for A in (random_arrangement(n, 1), near_pencil(n)):
            lines = list(A.lines)
            rng.shuffle(lines)
            out.append(Arrangement(tuple(lines), f"{A.name}-shuffled-{seed}"))
    return out


def _supersolvable():
    """The supersolvable arrangements of SUPERSOLVABLE, 6 to 17 lines, each
    with and without its first line off the modular point (0:0:1)."""
    out = []
    for b, extra, seed in SUPERSOLVABLE:
        A = oracles.supersolvable(b, extra, seed)
        H = next(i for i, line in enumerate(A.lines) if line.int_coeffs[2])
        out += [A, oracles.without(A, H)]
    return out


_INPUT_SETS = {
    "ladder": lambda: [A for seed in (1, 2, 3) for A in _ladder(seed)],
    "census": lambda: [A for A, _ in _census_pairs()],
    "fixtures": lambda: [f.build() for f in FIXTURES],
    "corpus": lambda: random_corpus(100, 8, 42),
    "supersolvable": _supersolvable,
}
# the kinds of layer each set brings to _new_generators (see _kind)
_ALL_KINDS = {"sandwich", "point system", None}
_KINDS = {"ladder": {"sandwich", None}, "census": _ALL_KINDS,
          "fixtures": {"sandwich", None}, "corpus": _ALL_KINDS,
          "supersolvable": _ALL_KINDS}


def _by_point_system(A, k):
    """Whether layer k of A has own vectors and is the point system solved
    over Q: each of them takes a column (see derivation._Layer), and the
    rank sandwich is not tight."""
    layer = derivation._layer(A, k)
    return (len(layer) == layer.columns > 0
            and derivation._sandwich(A, k) is None)


def _kind(A, k):
    """How _new_generators reads layer k of A: None when no vector needs a
    column, else the route that certified the layer."""
    if not derivation._layer(A, k).columns:
        return None
    return "point system" if _by_point_system(A, k) else "sandwich"


_SWEEP = {"ladder": lambda: _ladder(1) + _ladder(2),
          "fixtures": _INPUT_SETS["fixtures"],
          "A3, B3": lambda: [A3, B3],
          "corpus": _INPUT_SETS["corpus"]}


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_chosen_point_derivations_pass_the_restriction_oracle(name,
                                                              monkeypatch):
    # at run time each chosen point derivation is compared with its closed
    # form only; here, in both scans of _resolution, each lies in D_{H0}(A)
    # by restriction to every line, and the row its layer stores is the
    # kept values of its stored vector
    chosen = 0
    for A in _SWEEP[name]():
        for early_stop in (True, False):
            for k in scanned_degrees(A, early_stop, monkeypatch):
                layer = derivation._layer(A, k)
                if _by_point_system(A, k):
                    continue
                first = len(layer) - layer.columns
                assert oracles.in_module(A, layer[first:], k), (A.name, k)
                kept = derivation._kept_values(A, layer[first:], k)
                assert list(layer.rows[first:]) == list(map(tuple, kept)), \
                    (A.name, k)
                chosen += layer.columns
    assert chosen


@pytest.mark.parametrize("name", sorted(_INPUT_SETS))
def test_new_generators_equal_the_span_oracle(name, monkeypatch):
    # in both scans of _resolution, classify's and minimal_resolution's,
    # every layer above a nonzero one gives the vectors that grow an exact
    # span of x, y and z times the layer below, vector for vector
    extract = derivation._new_generators
    kinds = set()

    def checked(A, k, prev, layer):
        new = extract(A, k, prev, layer)
        assert list(new) == oracles.layer_generators(A, k), (A.name, k)
        kinds.add(_kind(A, k))
        return new

    monkeypatch.setattr(derivation, "_new_generators", checked)
    for A in _INPUT_SETS[name]():
        for early_stop in (True, False):
            derivation._resolution(A, early_stop)
    # which layers met the extraction: sandwiched ones with point
    # derivations, point-system ones above a nonzero layer, and sandwiched
    # ones with no vector outside the shifts
    assert kinds == _KINDS[name]


@pytest.mark.parametrize("kind", ["sandwich", "point system"])
def test_a_tampered_layer_fails_the_generator_count(kind, monkeypatch):
    # kept values of zero put every layer vector that takes a column into
    # the span of the shifts: none is a pivot, so fewer new generators come
    # out than the dimension the shifts leave.  Both kinds of layer are
    # tampered through the kept values they carry
    tampered = 0
    for A in _INPUT_SETS["supersolvable"]():
        for k in scanned_degrees(A, True, monkeypatch)[1:]:
            layer, prev = derivation._layer(A, k), derivation._layer(A, k - 1)
            if (not prev.dim or _kind(A, k) != kind
                    or not derivation._new_generators(A, k, prev, layer)):
                continue
            zero = tuple((0,) * len(row) for row in layer.rows)
            layer = derivation._Layer(layer, layer.dim, zero, layer.columns)
            with pytest.raises(CertificationFailure, match="extraction mismatch"):
                derivation._new_generators(A, k, prev, layer)
            tampered += 1
    assert tampered


def test_the_leading_alpha_h0_multiples_vanish_on_h0():
    # the scan's layer keeps none of the alpha_H0 multiples that lead the
    # whole basis of a sandwiched layer: alpha_H0 times the layer below,
    # zero on H0.  Every vector it keeps was chosen for its kept values,
    # which are not zero, and follows them in the whole basis
    for A in _ladder(2):
        for k in range(len(A) - 1):
            layer, basis = derivation._layer(A, k), derivation._ar_kernel(A, k)
            multiples = layer.dim - len(layer)
            assert len(basis) == layer.dim, (A.name, k)
            assert basis[multiples:] == tuple(layer), (A.name, k)
            if derivation._sandwich(A, k) is None:
                assert multiples == 0
                continue
            assert multiples == derivation._layer(A, k - 1).dim
            values = [any(row) for row in derivation._kept_values(A, basis, k)]
            assert values == [False] * multiples + [True] * len(layer), \
                (A.name, k)


# ---------------------------------------------------------------------------
# the scan's layers: own vectors, carried kept values, no whole basis


@pytest.mark.parametrize("name", sorted(_INPUT_SETS))
def test_carried_kept_values_are_those_of_the_own_vectors(name, monkeypatch):
    # in every layer classify scans, on each input and each of its
    # one-line deletions, the kept values a layer carries for each own
    # vector are _kept_values of it at the layer's k + 1 points of H0:
    # _shift_candidates extends them by one point, and _sandwich divides
    # the ranked row by the content it divides the vector by.  _kept_values
    # evaluates at those points, and restricting to H0 first gives the same
    inputs = _INPUT_SETS[name]()
    inputs += [oracles.without(A, H) for A in inputs for H in range(len(A))]
    sandwiched = 0
    for A in inputs:
        for k in scanned_degrees(A, True, monkeypatch):
            layer = derivation._layer(A, k)
            assert len(layer.rows) == len(layer) <= layer.dim, (A.name, k)
            kept = derivation._kept_values(A, layer, k)
            assert list(layer.rows) == list(map(tuple, kept)), (A.name, k)
            assert kept == [oracles.kept_values_by_restriction(A, v, k)
                            for v in layer], (A.name, k)
            if not _by_point_system(A, k):
                sandwiched += len(layer)
    assert sandwiched


@pytest.mark.parametrize("A", [random_arrangement(12, 1), near_pencil(10)],
                         ids=lambda A: A.name)
def test_scaled_candidates_leave_the_layer_as_it_is(A, monkeypatch):
    # every candidate is primitive: a shift of a primitive vector, or a
    # point derivation (Gauss's lemma).  Scaled by 6, the shifts reach the
    # content division, and every sandwiched layer must keep the same
    # primitive vectors and the same kept values
    candidates = derivation._candidates

    def scaled(B, k, prev, points):
        for row, build, point in candidates(B, k, prev, points):
            if not point:
                row = [6 * x for x in row]
                build = lambda build=build: [6 * x for x in build()]
            yield row, build, point

    checked = 0
    for k in scanned_degrees(A, True, monkeypatch):
        want = derivation._layer(A, k)
        if len(want) == want.columns:
            continue
        with monkeypatch.context() as mp:
            mp.setattr(derivation, "_candidates", scaled)
            got = alone("_sandwich", A, k, monkeypatch)
        assert (tuple(got), got.rows, got.dim) == \
            (tuple(want), want.rows, want.dim), k
        checked += 1
    assert checked


def test_classify_never_builds_a_whole_basis(monkeypatch):
    # the scan reads each layer's dimension and own vectors: with every
    # layer computed afresh, classify on the ladder and on near-pencils of
    # 8 to 20 lines gives the same verdicts with _ar_kernel raising
    inputs = ([random_arrangement(n, 1) for n in range(8, 13)]
              + _INPUT_SETS["ladder"]() + [near_pencil(n) for n in range(8, 21)])

    def forbidden(A, k):
        raise AssertionError("a whole basis was built")

    derivation._layer.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(derivation, "_ar_kernel", forbidden)
        got = [derivation.classify.__wrapped__(A) for A in inputs]
    assert got == [derivation.classify(A) for A in inputs]


def assert_modular_bounds_are_sound(A, monkeypatch):
    """_empty_through(A) lies below mdr, and point_bound is at least the
    exact dimension of the per-line conditions in every degree classify
    scans, the empty prefix included."""
    mdr = derivation.classify(A).mdr
    assert mdr is not None, A.name
    assert derivation._empty_through(A) < mdr, A.name
    for k in scanned_degrees(A, True, monkeypatch):
        assert point_bound(A, k) >= oracles.ar_dim_by_rank(A, k), \
            (A.name, k)


def test_modular_bounds_are_sound_on_the_census(monkeypatch):
    for A, _ in _census_pairs():
        assert_modular_bounds_are_sound(A, monkeypatch)


def test_modular_bounds_are_sound_on_the_corpus(monkeypatch):
    for A in random_corpus(100, 8, 42):
        assert_modular_bounds_are_sound(A, monkeypatch)


# ---------------------------------------------------------------------------
# the empty prefix and the point bound, by lines peeled off the points off H0


@pytest.mark.parametrize("name", ["census", "corpus", "ladder"])
def test_the_empty_prefix_has_an_injective_e(name):
    # no nonzero form of degree _empty_through(A) vanishes at the points
    # off H0: E there has full column rank over Q, by exact elimination
    checked = 0
    for A in _INPUT_SETS[name]():
        k = derivation._empty_through(A)
        if k >= 0:
            m = monomial_count(3, k)
            assert oracles.rank(oracles.off_h0_rows(A, k), m) == m, A.name
            checked += 1
    assert checked


@pytest.mark.parametrize("name", ["census", "corpus", "ladder"])
def test_peeling_lines_leaves_the_point_bound_as_it_is(name, monkeypatch):
    # in every degree classify scans, the empty prefix included, the bound
    # with the lines of _peeled(A, k) taken out equals the one from all of
    # E_k; some degrees peel lines, though fewer than k + 1
    peeled = 0
    for A in _INPUT_SETS[name]():
        for k in scanned_degrees(A, True, monkeypatch):
            assert point_bound(A, k) == oracles.point_bound_unpeeled(A, k), \
                (A.name, k)
            peeled += 0 < derivation._peeled(A, k) <= k
    assert peeled


def test_the_empty_prefix_runs_no_elimination(monkeypatch):
    inputs = _ladder(1) + [f.build() for f in FIXTURES] + [A3, B3]
    want = [derivation._empty_through(A) for A in inputs]
    assert max(want) > 0

    def forbidden(*args):
        raise AssertionError("an elimination ran")

    for name in ("rank_mod", "kernel_mod", "kernel_basis"):
        monkeypatch.setattr(linalg, name, forbidden)
    for name in ("_h0_incidence", "_peel", "_empty_through"):
        monkeypatch.setattr(derivation, name,
                            getattr(derivation, name).__wrapped__)
    assert [derivation._empty_through(A) for A in inputs] == want


def test_the_peel_takes_the_line_through_the_most_points_left():
    # each line peeled is the first through the most points off H0 that
    # the lines before it miss, and together they take every point
    for A in _ladder(3) + [f.build() for f in FIXTURES]:
        left = derivation._h0_incidence(A)[0]
        for K, c in derivation._peel(A):
            counts = [sum(L in lines for _, lines in left) for L in range(len(A))]
            assert (K, c) == (counts.index(max(counts)), max(counts)), A.name
            left = [(P, lines) for P, lines in left if K not in lines]
        assert not left
