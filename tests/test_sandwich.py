"""The rank sandwich that certifies a syzygy layer without a kernel.

derivation._sandwich bounds dim D_{H0}(A)_k from above by Ziegler's
sequence, or by the point system's kernel modulo a prime (_point_system),
and from below by alpha_H0 times the layer below plus point derivations
and shifts whose restrictions to H0 are independent modulo a prime; the
layers through _empty_through are zero by Bezout's theorem, as the lines
of _peel cut the points off H0 out, with no elimination.  These tests pin
which route a layer takes, that the route gives the layer the per-line
conditions define, that the route each layer records is the bound that
met, that the empty prefix and the modular bound are sound against exact
ranks, that peeling lines leaves the bound as it is, and
that each point derivation is its closed form.  It is decoded from one
evaluation of each kept component at a Kronecker point (1, T, T^(k + 1)),
with T / 2 a power of two above every coefficient: every form with its
coefficients below T / 2 reads back from its value there, and no fewer
bytes per digit are sound; the decoded pair must be the product of its
lines' coefficient vectors (oracles.point_derivation).  What run time does not
check by restriction, the tests do: every point derivation, and every
chosen one, lifted from its kept pair (lifted), passes the restriction
oracle (oracles.in_module), with its stored kept values.  The new
generators that _resolution reads off every layer's restriction to H0 must
be those that grow an exact span of x, y and z times the layer below
(oracles.layer_generators), and a tampered layer must fail their count.
Where the sandwich's chosen shifts meet its bound B on their rank, the
layer is marked proved and no kernel runs: a marked layer must give what
the kernel gives on it unmarked, B must bound the exact rank over Q of the
shifts, and classify on the ladder must run no exact kernel.
The shifts that the sandwich ranks and the extraction takes as columns
are x_u and x_v times the layer below, (u, v) the coordinates H0's frame
keeps: two per vector, and the third, never formed, restricts into their
span.
The scan's layers (_layer) keep only their own vectors and their kept
values on H0: the values carried must be those of the vectors, the scan
must never build a whole basis (_ar_kernel), and the whole basis built on
demand must be the layer the conditions define.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from arrlog import derivation, linalg, multiarr
from arrlog.arrangement import Arrangement
from arrlog.corpus import (FIXTURES, near_pencil, pencil, random_arrangement,
                           random_corpus)
from arrlog.linalg import _int_row
from arrlog.poly import (CertificationFailure, line_frame, monomial_count,
                         monomials)
from oracles import _exact_kernel, echelon_basis, h0_conditions
from test_census import SUPERSOLVABLE, _census_pairs, _weyl_members
from test_criteria import A3, B3
from test_linalg import point_layer, scanned_degrees, without_partner


def exact_layer(A, k):
    """echelon_basis of the kernel of the per-line conditions, lifted."""
    m = monomial_count(3, k)
    rows = [_int_row(r) for r in h0_conditions(A, k)]
    return echelon_basis([derivation._h0_lift(A, v)
                          for v in _exact_kernel(rows, 2 * m)], 3 * m)


def lifted(A, pairs):
    """Kept pairs, as the scan stores them, lifted to the three components
    that the oracles read (derivation._h0_lift)."""
    return [derivation._h0_lift(A, v) for v in pairs]


def kept_pair(A, theta, k):
    """The kept pair of a degree-k derivation of three components: its
    components u and v in line_frame(alpha_H0), concatenated."""
    m = monomial_count(3, k)
    return [x for c in line_frame(A.lines[0].int_coeffs)[1:3]
            for x in theta[c * m:(c + 1) * m]]


def point_bound(A, k):
    """The dimension of the point system's kernel modulo WORD_PRIME, the
    upper bound of _sandwich once its candidates run out."""
    return len(derivation._point_system(A, k, linalg.WORD_PRIME)[1])


def alone(name, A, k, monkeypatch):
    """derivation.<name>(A, k), for _sandwich or _layer, recomputed from
    the cached layers below it, with its own layer and empty prefix
    uncached, and without a kernel over Q: kernel_basis, which the exact
    point system calls, raises."""
    for j in range(k):
        derivation._layer(A, j)
    multiarr.exponents(multiarr.ziegler_restriction(A, 0)[0])
    fn = getattr(derivation, name)
    fn = getattr(fn, "__wrapped__", fn)

    def forbidden(*args):
        raise AssertionError("a kernel ran")

    with monkeypatch.context() as mp:
        mp.setattr(linalg, "kernel_basis", forbidden)
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
    routes = []
    for k in range(top + 1):
        layer = alone("_layer", A, k, monkeypatch)
        assert (layer.dim == 0) == (k < mdr), k
        assert echelon_basis(whole(A, k, layer), 3 * monomial_count(3, k)) \
            == exact_layer(A, k)
        routes.append(layer.route)
    assert routes == (["peel"] * mdr + ["point bound"] * (top - mdr)
                      + ["ziegler"])


def test_every_layer_of_a_near_pencil_needs_no_kernel(monkeypatch):
    A = near_pencil(8)
    gd = derivation.classify(A).shape.generator_degrees
    assert gd == (1, 6)
    # the points off H0, a line of the pencil, lie on the transversal: it
    # peels them all, which empties degree 0 alone, and every layer
    # above it takes the sandwich
    assert derivation._peel(A) == ((len(A) - 1, len(A) - 2),)
    assert derivation._empty_through.__wrapped__(A) == 0
    for k in range(max(gd) + 1):
        layer = alone("_sandwich", A, k, monkeypatch)
        # new generators in degrees 1 and 6 only, and never from shifts
        assert (not layer.columns) == (k not in gd), k
        assert echelon_basis(whole(A, k, layer), 3 * monomial_count(3, k)) \
            == exact_layer(A, k)
        # each layer reaches Ziegler's bound
        assert layer.route == "ziegler", k


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


def _point_candidates(A):
    """Every point derivation of A as _candidates yields it, in every degree
    k that has one: (k, its ranked row, its vector, (v, missing))."""
    for k in range(len(A) - 1):
        points = derivation._h0_points(A, k + 1)
        for row, build, point in derivation._candidates(
                A, k, derivation._Layer(), points):
            yield k, row, build(), point


_MEMBERS = [random_arrangement(10, 1), near_pencil(8), A3, B3]


def test_the_decoded_pair_is_the_closed_form():
    # every point derivation of _MEMBERS, of pencils (k = 0) and of the
    # seed-42 corpus, of a point on H0 or off it: the pair decoded from its
    # values at the Kronecker point is the product of its lines'
    # coefficient vectors, lies in D_{H0}(A), and takes at the points of H0
    # the kept values it is ranked by
    inputs = (_MEMBERS + [pencil(n) for n in range(3, 7)]
              + random_corpus(100, 8, 42))
    kinds = set()
    for A in inputs:
        for k, row, vec, (v, missing) in _point_candidates(A):
            where = (A.name, k)
            assert vec == oracles.point_derivation(A, v, missing, k), where
            assert oracles.in_module(A, lifted(A, [vec]), k), where
            assert [row] == derivation._kept_values(A, [vec], k), where
            # (a pencil's degree 0, H0 misses v)
            kinds.add((not k, bool(missing) and not missing[0]))
    assert kinds == {(True, False), (False, False), (False, True)}


def _decoded_at(forms, v, missing, k, kept, width):
    """The pair that _point_pair decodes, at the given width in bytes in
    place of its own, or None when the values overflow the digits."""
    T = 1 << 8 * width
    values = derivation._point_values(forms, v, missing, (1, T, T ** (k + 1)),
                                      kept)
    try:
        return [c for value in values
                for c in derivation._digits(value, k, width)]
    except OverflowError:
        return None


@pytest.mark.parametrize("beta", [(0, 0, 1), (0, 0, 2), (0, 3, 0), (-5, 0, 0)])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_a_restricted_coefficient_reaches_the_evaluation_base(beta, k,
                                                              monkeypatch):
    # the decode's base T = 2^(8 width) must have T / 2 above every
    # coefficient of the closed form C.  With H0 through v and the k missing
    # forms all beta = beta_f x_f, g_v = beta_f^k x_f^k is one monomial, and
    # C has a coefficient at the bound B = |beta|_1^k |v|_inf, in a kept
    # component when H0 keeps the coordinate of |v|_inf.  The decode reads
    # both components at the fewest bytes with T / 2 > B, and gives C; every
    # fewer bytes, T / 2 <= B, which v = (0, 200, 7) reaches even at k = 0,
    # read another form or overflow the digits
    digits = derivation._digits
    widths = []

    def recording(value, k, width):
        widths.append(width)
        return digits(value, k, width)

    missing = list(range(1, k + 1))
    short = 0
    for alpha, v in [((1, 1, 1), (1, 0, 0)), ((1, 1, 1), (2, -3, 1)),
                     ((1, 0, 0), (0, 0, -5)), ((1, 1, 1), (0, 200, 7))]:
        forms = [alpha] + [beta] * k
        kept = line_frame(alpha)[1:3]
        C = [v[c] * x for c in kept for x in oracles.form_product([beta] * k)]
        bound = derivation._closed_form_bound(forms, v, missing)
        assert max(map(abs, C)) == bound \
            == sum(map(abs, beta)) ** k * max(map(abs, v))
        widths.clear()
        with monkeypatch.context() as mp:
            mp.setattr(derivation, "_digits", recording)
            assert derivation._point_pair(forms, v, missing, k, kept) == C
        width = widths[0]
        assert widths == [width] * 2 and 1 << (8 * width - 1) > bound
        for w in range(1, width):
            assert 1 << (8 * w - 1) <= bound
            assert _decoded_at(forms, v, missing, k, kept, w) != C
            short += 1
    assert short


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_digits_read_back_every_form_below_half_the_base(data):
    # any degree-k form whose coefficients lie in [-T / 2, T / 2),
    # T = 2^(8 width), the ends included, is read back from its value at
    # (1, T, T^(k + 1)), summed here term by term
    k = data.draw(st.integers(0, 6), label="k")
    width = data.draw(st.integers(1, 3), label="width")
    half = 1 << (8 * width - 1)
    coeff = st.integers(-half, half - 1) | st.sampled_from([-half, half - 1, 0])
    m = monomial_count(3, k)
    form = data.draw(st.lists(coeff, min_size=m, max_size=m), label="form")
    T = 1 << 8 * width
    value = sum(c * T ** (j + (k + 1) * l)
                for c, (_, j, l) in zip(form, monomials(3, k)))
    assert derivation._digits(value, k, width) == form


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
# the routes of the layers each set brings to _new_generators, None for
# a layer with no vector that takes a column
_KINDS = {"ladder": {"ziegler", None},
          "fixtures": {"ziegler", "point bound", None},
          "census": {"ziegler", "point bound", "point system", None},
          "corpus": {"ziegler", "point system", None},
          "supersolvable": {"ziegler", "point system", None}}


def test_deformed_weyl_generators_take_the_point_system():
    # Yoshinaga's theorem gives the exponents of each Catalan and Shi
    # deformation of A2, B2, C2 and G2 (oracles.deformed_weyl); on each
    # member of at most 22 lines, the layers that fall back to the exact
    # point system are exactly the generator degrees
    for A, exps in _weyl_members(22):
        cls = derivation.classify(A)
        assert (cls.verdict, cls.exponents) == ("free", exps), A.name
        routed = {k for k in range(exps[1] + 1)
                  if derivation._layer(A, k).route == "point system"}
        assert routed == set(exps), A.name


def _scanned_layers(A, monkeypatch):
    """(k, layer k, layer k - 1) for every degree k that either scan of
    _resolution reads, layer -1 the empty _Layer()."""
    degrees = set(scanned_degrees(A, True, monkeypatch)) | set(
        scanned_degrees(A, False, monkeypatch))
    return [(k, derivation._layer(A, k),
             derivation._layer(A, k - 1) if k else derivation._Layer())
            for k in sorted(degrees)]


def test_each_layer_records_the_route_that_certified_it(monkeypatch):
    # the one test that derives a route again, on every layer either scan
    # reads: each route's bound is met, or the sandwich is not tight
    inputs = (_ladder(1) + _INPUT_SETS["census"]() + _INPUT_SETS["corpus"]()
              + [A for A, _ in _weyl_members(22)])
    seen = set()
    for A in inputs:
        e1, e2 = multiarr.exponents(multiarr.ziegler_restriction(A, 0)[0]).as_pair()
        for k, layer, prev in _scanned_layers(A, monkeypatch):
            route, where = layer.route, (A.name, k)
            seen.add(route)
            if route == "peel":
                assert k <= derivation._empty_through(A) and layer.dim == 0, where
            elif route == "ziegler":
                assert layer.dim == prev.dim + multiarr._free_pattern(k, e1, e2), where
            elif route == "point bound":
                assert layer.dim == point_bound(A, k), where
            else:
                assert route == "point system", where
                assert derivation._sandwich(A, k) is None, where
                assert layer.columns == len(layer) > 0, where
    assert seen == {"peel", "ziegler", "point bound", "point system"}


_SWEEP = {"ladder": lambda: _ladder(1) + _ladder(2),
          "fixtures": _INPUT_SETS["fixtures"],
          "A3, B3": lambda: [A3, B3],
          "corpus": _INPUT_SETS["corpus"]}


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_chosen_point_derivations_pass_the_restriction_oracle(name,
                                                              monkeypatch):
    # at run time each chosen point derivation is decoded from its closed
    # form only; here, in both scans of _resolution, each lifts into
    # D_{H0}(A) by restriction to every line, and the row its layer stores
    # is the kept values of its stored pair
    chosen = 0
    for A in _SWEEP[name]():
        for k, layer, _ in _scanned_layers(A, monkeypatch):
            if layer.route == "point system":
                continue
            first = len(layer) - layer.columns
            assert oracles.in_module(A, lifted(A, layer[first:]), k), (A.name, k)
            kept = derivation._kept_values(A, layer[first:], k)
            assert list(layer.rows[first:]) == list(map(tuple, kept)), (A.name, k)
            chosen += layer.columns
    assert chosen


@pytest.mark.parametrize("name", sorted(_INPUT_SETS))
def test_new_generators_equal_the_span_oracle(name, monkeypatch):
    # in both scans of _resolution, classify's and minimal_resolution's,
    # every layer above a nonzero one gives the vectors that grow an exact
    # span of x, y and z times the layer below, vector for vector once
    # lifted; with no Saito partner, the scans read the layers it skips
    extract = derivation._new_generators
    kinds = set()

    def checked(A, k, prev, layer):
        new = extract(A, k, prev, layer)
        assert lifted(A, new) == oracles.layer_generators(A, k), (A.name, k)
        kinds.add(layer.route if layer.columns else None)
        return new

    monkeypatch.setattr(derivation, "_new_generators", checked)
    without_partner(monkeypatch)
    for A in _INPUT_SETS[name]():
        for early_stop in (True, False):
            derivation._resolution(A, early_stop)
    # which layers met the extraction: sandwiched ones with point
    # derivations, by the route of their bound, point-system ones above a
    # nonzero layer, and sandwiched ones with no vector outside the shifts
    assert kinds == _KINDS[name]


def test_shift_candidates_are_the_two_kept_coordinates(monkeypatch):
    # every layer the scans of _resolution read, on the ladder, A3, B3 and
    # the deformed Weyl members of at most 22 lines: _shift_candidates
    # yields x_u and x_v times each own vector of the layer below whose
    # restriction to H0 is nonzero, (u, v) the coordinates line_frame
    # keeps, and the shift by the third, f, which it never forms, restricts
    # into their span: alpha_f row_f = -(alpha_u row_u + alpha_v row_v) in
    # integers, row_f read off the shifted vector itself
    inputs = _ladder(1) + [A3, B3] + [A for A, _ in _weyl_members(22)]
    assert len(inputs) == 10 + 2 + 16
    shifted = 0
    for A in inputs:
        alpha = A.lines[0].int_coeffs
        f, u, v, _, _ = line_frame(alpha)
        for k, _, prev in _scanned_layers(A, monkeypatch)[1:]:
            rows = [row for row, _ in derivation._shift_candidates(
                A, k, prev, derivation._h0_points(A, k + 1))]
            own = [theta for theta in prev
                   if any(oracles.kept_values_by_restriction(A, theta, k - 1))]
            assert len(rows) == 2 * len(own), (A.name, k)
            for theta, row_u, row_v in zip(own, rows[::2], rows[1::2]):
                row_f, = derivation._kept_values(
                    A, [derivation._shift_vec(theta, k - 1, f)], k)
                assert [alpha[f] * c for c in row_f] == [
                    -(alpha[u] * a + alpha[v] * b)
                    for a, b in zip(row_u, row_v)], (A.name, k)
            shifted += len(own)
    assert shifted


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
            if (not prev.dim
                    or (layer.route == "point system") != (kind == "point system")
                    or not derivation._new_generators(A, k, prev, layer)):
                continue
            zero = tuple((0,) * len(row) for row in layer.rows)
            layer = derivation._Layer(layer, layer.dim, zero, layer.columns)
            with pytest.raises(CertificationFailure, match="extraction mismatch"):
                derivation._new_generators(A, k, prev, layer)
            tampered += 1
    assert tampered


# the sets on which _sandwich proves new generators: the shuffled ladder,
# random arrangements of 8 to 12 lines at seeds 1 to 3, near-pencils of 8
# to 20 lines, the seed-42 corpus and the deformed Weyl members of at most
# 22 lines
_PROOF_SETS = {
    "ladder": lambda: (_INPUT_SETS["ladder"]()
                       + [random_arrangement(n, seed) for seed in (1, 2, 3)
                          for n in range(8, 13)]),
    "near-pencils": lambda: [near_pencil(n) for n in range(8, 21)],
    "corpus": _INPUT_SETS["corpus"],
    "weyl": lambda: [A for A, _ in _weyl_members(22)],
}
# how each set's layers with a column above a nonzero one reach their new
# generators: by _sandwich's proof, by the kernel on a sandwiched layer
# below its bound, or by the kernel on a point-system layer.  The deformed
# Weyl members have their generators in point-system layers alone
_EXTRACTION_KINDS = {"ladder": {"proof"}, "near-pencils": {"proof"},
                     "corpus": {"proof", "sandwich kernel", "point system"},
                     "weyl": {"point system"}}


def test_the_proof_gives_the_kernels_answer(monkeypatch):
    # in both scans of _resolution, every layer marked proved gives the new
    # generators that the kernel gives on the same layer without the mark;
    # every other layer with a column, point-system layers included, still
    # runs the kernel
    kernel = linalg.kernel_basis
    calls = 0

    def counted(rows, ncols):
        nonlocal calls
        calls += 1
        return kernel(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    for name, inputs in _PROOF_SETS.items():
        kinds = set()
        for A in inputs():
            for k, layer, prev in _scanned_layers(A, monkeypatch):
                if not (prev.dim and layer.columns):
                    continue
                where, before = (name, A.name, k), calls
                new = derivation._new_generators(A, k, prev, layer)
                if layer.proved:
                    assert calls == before and layer.route != "point system", where
                    unmarked = derivation._Layer(layer, layer.dim, layer.rows,
                                                 layer.columns, layer.route)
                    assert new == derivation._new_generators(
                        A, k, prev, unmarked), where
                    kinds.add("proof")
                else:
                    assert calls == before + 1, where
                    kinds.add("point system" if layer.route == "point system"
                              else "sandwich kernel")
        assert kinds == _EXTRACTION_KINDS[name], name


def test_the_shift_bound_holds_over_q(monkeypatch):
    # on every sandwiched layer with a column above a nonzero one, the
    # exact rank over Q of the shift rows is at most _sandwich's
    # B = min(s, _free_pattern(k, e1, e2) - [e1 = k] - [e2 = k]), and on a
    # marked layer it is the number r of shifts chosen
    marked = 0
    for inputs in _PROOF_SETS.values():
        for A in inputs():
            e1, e2 = multiarr.exponents(
                multiarr.ziegler_restriction(A, 0)[0]).as_pair()
            for k, layer, prev in _scanned_layers(A, monkeypatch):
                if not (prev.dim and layer.columns) or layer.route == "point system":
                    continue
                rows = [row for row, _ in derivation._shift_candidates(
                    A, k, prev, derivation._h0_points(A, k + 1))]
                bound = min(len(rows), multiarr._free_pattern(k, e1, e2)
                            - (e1 == k) - (e2 == k))
                exact = oracles.rank(rows, 2 * (k + 1)) if rows else 0
                assert exact <= bound, (A.name, k)
                if layer.proved:
                    assert exact == len(layer) - layer.columns == bound, (A.name, k)
                    marked += 1
    assert marked


def test_the_ladder_runs_no_exact_kernel(monkeypatch):
    # with every layer computed afresh, classify on random arrangements of
    # 8 to 12 lines and near-pencils of 8 to 20 gives the cached verdicts
    # with linalg.kernel_basis raising: every layer is sandwiched, and
    # each one with new generators is proved
    inputs = [A for name in ("ladder", "near-pencils")
              for A in _PROOF_SETS[name]()]
    want = [derivation.classify(A) for A in inputs]

    def forbidden(*args):
        raise AssertionError("an exact kernel ran")

    derivation._layer.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "kernel_basis", forbidden)
        got = [derivation.classify.__wrapped__(A) for A in inputs]
    assert got == want


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
            assert basis[multiples:] == tuple(lifted(A, layer)), (A.name, k)
            if layer.route == "point system":
                assert multiples == 0
                continue
            assert multiples == derivation._layer(A, k - 1).dim
            values = [any(row) for row in derivation._kept_values(
                A, [kept_pair(A, theta, k) for theta in basis], k)]
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
            if layer.route != "point system":
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
