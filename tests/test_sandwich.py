"""The rank sandwich that certifies a syzygy layer without a kernel.

derivation._sandwich bounds dim D_{H0}(A)_k from above by Ziegler's
sequence, or by the point system's kernel modulo a prime (_point_bound),
and from below by alpha_H0 times the layer below plus point derivations
and shifts whose restrictions to H0 are independent modulo a prime; the
layers below _empty_through are zero by one full column rank modulo a
prime.  These tests pin which route a layer takes, that the route gives the
layer the per-line conditions define, that both modular bounds are sound
against exact ranks, and that a point derivation which is not in D_{H0}(A)
fails the certificate.
"""

import pytest

import oracles
from arrlog import derivation, linalg, multiarr
from arrlog.corpus import near_pencil, random_arrangement, random_corpus
from arrlog.linalg import _int_row
from arrlog.poly import CertificationFailure, monomial_count, monomials
from oracles import _exact_kernel, echelon_basis, h0_conditions
from test_census import _census_pairs
from test_criteria import A3, B3
from test_linalg import in_layer, scanned_degrees


def exact_layer(A, k):
    """echelon_basis of the kernel of the per-line conditions, lifted."""
    m = monomial_count(3, k)
    rows = [_int_row(r) for r in h0_conditions(A, k)]
    return echelon_basis([derivation._h0_lift(A, v)
                          for v in _exact_kernel(rows, 2 * m)], 3 * m)


def alone(name, A, k, monkeypatch, bounded=None):
    """derivation.<name>(A, k), for _sandwich or _ar_kernel, recomputed from
    the cached layers below it, with its own sandwich and empty prefix
    uncached, and without a kernel over Q: the point system and
    kernel_basis raise.  The degrees _point_bound is asked for are appended
    to bounded."""
    for j in range(k):
        derivation._ar_kernel(A, j)
    multiarr.exponents(multiarr.ziegler_restriction(A, 0)[0])
    fn = getattr(derivation, name).__wrapped__
    point_bound = derivation._point_bound
    bounded = [] if bounded is None else bounded

    def forbidden(*args):
        raise AssertionError("a kernel ran")

    def bound(B, j):
        bounded.append(j)
        return point_bound(B, j)

    with monkeypatch.context() as mp:
        mp.setattr(derivation, "_point_system", forbidden)
        mp.setattr(linalg, "kernel_basis", forbidden)
        mp.setattr(derivation, "_point_bound", bound)
        mp.setattr(derivation, "_sandwich", derivation._sandwich.__wrapped__)
        mp.setattr(derivation, "_empty_through",
                   derivation._empty_through.__wrapped__)
        return fn(A, k)


def test_top_layer_of_a_random_arrangement_needs_no_kernel(monkeypatch):
    A = random_arrangement(12, 1)
    top = len(A) - 2
    assert derivation.classify(A).shape.generator_degrees[-1] == top
    basis, from_shifts = alone("_sandwich", A, top, monkeypatch)
    # the layer has new generators, so point derivations were chosen
    assert not from_shifts
    assert echelon_basis(basis, 3 * monomial_count(3, top)) == exact_layer(A, top)


@pytest.mark.parametrize("n", range(8, 13))
def test_every_layer_of_a_random_arrangement_needs_no_kernel(n, monkeypatch):
    # the layers below mdr are empty by one full column rank of E; with a
    # triple point (n >= 10) the mdr layer, k = n - 3, is its point
    # derivation, certified by _point_bound; the top layer, k = n - 2,
    # reaches Ziegler's bound
    A = random_arrangement(n, 1)
    gd = derivation.classify(A).shape.generator_degrees
    mdr, top = gd[0], gd[-1]
    assert top == n - 2
    assert mdr == (n - 2 if n < 10 else n - 3)
    assert derivation._empty_through(A) == mdr - 1
    bounded = []
    for k in range(top + 1):
        layer = alone("_ar_kernel", A, k, monkeypatch, bounded)
        assert (len(layer) == 0) == (k < mdr), k
        assert echelon_basis(layer, 3 * monomial_count(3, k)) == exact_layer(A, k)
    assert bounded == ([] if mdr == top else [mdr])


def test_every_layer_of_a_near_pencil_needs_no_kernel(monkeypatch):
    A = near_pencil(8)
    gd = derivation.classify(A).shape.generator_degrees
    assert gd == (1, 6)
    # the points off H0, a line of the pencil, lie on the transversal, so
    # no degree has an injective E and every layer takes the sandwich
    assert derivation._empty_through.__wrapped__(A) == -1
    bounded = []
    for k in range(max(gd) + 1):
        basis, from_shifts = alone("_sandwich", A, k, monkeypatch, bounded)
        # new generators in degrees 1 and 6 only, and never from shifts
        assert from_shifts == (k not in gd), k
        assert echelon_basis(basis, 3 * monomial_count(3, k)) == exact_layer(A, k)
    # each layer reaches Ziegler's bound
    assert bounded == []


@pytest.mark.parametrize("A, k", [(A3, 2), (B3, 3)], ids=["A3", "B3"])
def test_generators_that_are_no_point_derivations_fall_back(A, k):
    # the generator of A3 in degree 2 and of B3 in degree 3 is not in the
    # span of point derivations and shifts, so the sandwich is not tight
    assert k in derivation.classify(A).shape.generator_degrees
    assert derivation._sandwich(A, k) is None
    layer = derivation._ar_kernel(A, k)
    assert layer == derivation._point_system(A, k)
    assert echelon_basis(layer, 3 * monomial_count(3, k)) == exact_layer(A, k)
    # the modular bound is the layer's dimension, which the candidates miss
    assert derivation._point_bound(A, k) == len(layer)


def _alpha_h0_multiples(A, k):
    """alpha_H0 x_e^(k - 1) d_e and alpha_H0 x^(k - 1) d_w with
    alpha_H0(w) = 0, as degree-k vectors.  Added to a point derivation,
    they leave its values on H0 alone, where alpha_H0 vanishes, and take it
    out of D_{H0}(A): the first fails theta(alpha_H0) = 0, the second the
    condition of a line K with alpha_K(w) != 0."""
    alpha, e, _ = derivation._h0_frame(A)

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
    # layer reaches Ziegler's bound, and the mdr layer below it _point_bound
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
            assert derivation._kept_values(B, vec, k, k + 1) == \
                derivation._kept_values(B, original(B, v, missing, k), k, k + 1)
        assert not in_layer(B, k, vec)
        return vec

    # the layers below are cached unperturbed first
    alone("_sandwich", A, degree, monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(derivation, "_point_derivation", perturbed)
        with pytest.raises(CertificationFailure, match="point derivation"):
            alone("_sandwich", A, degree, monkeypatch)


def test_in_module_accepts_the_point_derivations():
    A = random_arrangement(12, 1)
    top = len(A) - 2
    basis, _ = derivation._sandwich(A, top)
    assert derivation._in_module(A, basis, top)
    assert all(in_layer(A, top, v) for v in basis)


def assert_modular_bounds_are_sound(A, monkeypatch):
    """_empty_through(A) lies below mdr, and _point_bound is at least the
    exact dimension of the per-line conditions in every degree classify
    scans, the empty prefix included."""
    mdr = derivation.classify(A).mdr
    assert mdr is not None, A.name
    assert derivation._empty_through(A) < mdr, A.name
    for k in scanned_degrees(A, True, monkeypatch):
        assert derivation._point_bound(A, k) >= oracles.ar_dim_by_rank(A, k), \
            (A.name, k)


def test_modular_bounds_are_sound_on_the_census(monkeypatch):
    for A, _ in _census_pairs():
        assert_modular_bounds_are_sound(A, monkeypatch)


def test_modular_bounds_are_sound_on_the_corpus(monkeypatch):
    for A in random_corpus(100, 8, 42):
        assert_modular_bounds_are_sound(A, monkeypatch)
