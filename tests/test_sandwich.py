"""The rank sandwich that certifies a syzygy layer without a kernel.

derivation._sandwich bounds dim D_{H0}(A)_k from above by Ziegler's
sequence and from below by alpha_H0 times the layer below plus point
derivations and shifts whose restrictions to H0 are independent modulo a
prime.  These tests pin which route a layer takes, that the route gives the
layer the per-line conditions define, and that a point derivation which is
not in D_{H0}(A) fails the certificate.
"""

import pytest

from arrlog import derivation, linalg, multiarr
from arrlog.corpus import near_pencil, random_arrangement
from arrlog.linalg import _exact_kernel, _int_row
from arrlog.poly import CertificationFailure, monomial_count, monomials
from oracles import echelon_basis, h0_conditions
from test_criteria import A3, B3
from test_linalg import in_layer


def exact_layer(A, k):
    """echelon_basis of the kernel of the per-line conditions, lifted."""
    m = monomial_count(3, k)
    rows = [_int_row(r) for r in h0_conditions(A, k)]
    return echelon_basis([derivation._h0_lift(A, v)
                          for v in _exact_kernel(rows, 2 * m)], 3 * m)


def sandwich_alone(A, k, monkeypatch):
    """_sandwich(A, k) recomputed with every layer below it cached and
    without a kernel of any kind: the point system and kernel_basis raise."""
    for j in range(k):
        derivation._ar_kernel(A, j)
    multiarr.exponents(multiarr.ziegler_restriction(A, 0)[0])

    def forbidden(*args):
        raise AssertionError("a kernel ran")

    with monkeypatch.context() as mp:
        mp.setattr(derivation, "_point_system", forbidden)
        mp.setattr(linalg, "kernel_basis", forbidden)
        return derivation._sandwich.__wrapped__(A, k)


def test_top_layer_of_a_random_arrangement_needs_no_kernel(monkeypatch):
    A = random_arrangement(12, 1)
    top = len(A) - 2
    assert derivation.classify(A).shape.generator_degrees[-1] == top
    basis, from_shifts = sandwich_alone(A, top, monkeypatch)
    # the layer has new generators, so point derivations were chosen
    assert not from_shifts
    assert echelon_basis(basis, 3 * monomial_count(3, top)) == exact_layer(A, top)


def test_every_layer_of_a_near_pencil_needs_no_kernel(monkeypatch):
    A = near_pencil(8)
    gd = derivation.classify(A).shape.generator_degrees
    assert gd == (1, 6)
    for k in range(max(gd) + 1):
        basis, from_shifts = sandwich_alone(A, k, monkeypatch)
        # new generators in degrees 1 and 6 only, and never from shifts
        assert from_shifts == (k not in gd), k
        assert echelon_basis(basis, 3 * monomial_count(3, k)) == exact_layer(A, k)


@pytest.mark.parametrize("A, k", [(A3, 2), (B3, 3)], ids=["A3", "B3"])
def test_generators_that_are_no_point_derivations_fall_back(A, k):
    # the generator of A3 in degree 2 and of B3 in degree 3 is not in the
    # span of point derivations and shifts, so the sandwich is not tight
    assert k in derivation.classify(A).shape.generator_degrees
    assert derivation._sandwich(A, k) is None
    layer = derivation._ar_kernel(A, k)
    assert layer == derivation._point_system(A, k)
    assert echelon_basis(layer, 3 * monomial_count(3, k)) == exact_layer(A, k)


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


@pytest.mark.parametrize("kind", ["coefficient", "theta(alpha_H0)", "a line",
                                  "zero"])
def test_a_perturbed_point_derivation_fails_the_certificate(kind, monkeypatch):
    # one coefficient up by 1; an alpha_H0 multiple added, which only the
    # exact check against the lines sees; and the zero vector, which lies in
    # D_{H0}(A) but does not take the values it was ranked by
    A = random_arrangement(12, 1)
    top = len(A) - 2
    change = _alpha_h0_multiples(A, top).get(kind)
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

    sandwich_alone(A, top, monkeypatch)
    with monkeypatch.context() as mp:
        mp.setattr(derivation, "_point_derivation", perturbed)
        with pytest.raises(CertificationFailure, match="point derivation"):
            derivation._sandwich.__wrapped__(A, top)


def test_in_module_accepts_the_point_derivations():
    A = random_arrangement(12, 1)
    top = len(A) - 2
    basis, _ = derivation._sandwich(A, top)
    assert derivation._in_module(A, basis, top)
    assert all(in_layer(A, top, v) for v in basis)
