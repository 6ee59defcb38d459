"""Restriction map, defects, splitting types, property decisions, validator."""

import json
import random
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from arrlog import criteria, linalg
from arrlog.arrangement import (Arrangement, LinearForm3, _cross, chi0,
                                intersection_points, parse_arrangement)
from arrlog.cli import main
from arrlog.corpus import (FIXTURES, fixture, generic, near_pencil, pencil,
                           random_arrangement, random_corpus)
from arrlog.criteria import (ConsistencyFailure, InadmissibleLine,
                             NotApplicable, PropertyPResult, is_admissible,
                             property_P, random_external_lines, splitting_range,
                             splitting_type, str_derivation, verify,
                             yoshinaga_defect, ziegler_map)
from arrlog.derivation import ar_dim
from arrlog.multiarr import basis, exponents, ziegler_restriction
from arrlog.poly import (CertificationFailure, line_frame, monomial_count,
                         restrict, restrict_lines)
from oracles import (SpanBuilder, deriv_dim, deriv_space, dh_basis, jacobian,
                     line_param, quick_defect, span_contains, substitute_line,
                     without)
from test_census import _free_deletions
from test_multiarr import rank2_exponents

Z = LinearForm3.make([0, 0, 1])


def _oracle_map_dims(A, H, k):
    """(domain, codomain, image) of the restriction map in degree k, computed
    directly: a basis of D_H(A)_k restricted onto line H and ranked, and the
    codomain from the kernel of the divisibility conditions."""
    M, _ = ziegler_restriction(A, H)
    param = line_param(A.lines[H].coeffs)
    u, v = param.retained
    span = SpanBuilder(2 * (k + 1))
    dom = dh_basis(A, H, k)
    for theta in dom:
        comps = theta.components
        span.add(linalg._int_row(substitute_line(comps[u], param).coeffs
                                 + substitute_line(comps[v], param).coeffs))
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
    """dh_basis(A, H, k), each vector divided by its last nonzero entry,
    restricted to line H by substitute_line."""
    param = line_param(A.lines[H].coeffs)
    u, v = param.retained
    out = []
    for t in dh_basis(A, H, k):
        last = next(c for c in reversed(t.coeff_vector()) if c)
        comps = [c.scale(Fraction(1, last)) for c in t.components]
        out.append(substitute_line(comps[u], param).coeffs
                   + substitute_line(comps[v], param).coeffs)
    return tuple(out)


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([f.build() for f in FIXTURES]), st.integers(0, 3),
       st.data())
def test_image_vectors_match_exact_rref(A, k, data):
    # any integer rows in place of the D_H(A)_k basis: the reversed RREF read
    # off one certified kernel must be the one exact elimination
    # (oracles.integer_rref) gives, and a dependent family must fail in both
    H = data.draw(st.integers(0, len(A) - 1))
    m3 = 3 * monomial_count(3, k)
    thetas = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=m3, max_size=m3), max_size=4))
    if thetas and data.draw(st.booleans()):
        thetas.append([a - 2 * b for a, b in zip(thetas[0], thetas[-1])])
    try:
        want = oracles.image_vectors(A, H, k, thetas)
    except CertificationFailure:
        want = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "dh_projection",
                   lambda A, H, k: [list(t) for t in thetas])
        if want is None:
            with pytest.raises(CertificationFailure, match="dependent D_H basis"):
                criteria._image_vectors.__wrapped__(A, H, k)
        else:
            assert criteria._image_vectors.__wrapped__(A, H, k) == want


def test_dependent_dh_basis_fails(monkeypatch):
    A = fixture("pog7").build()
    thetas = criteria.dh_projection(A, 0, 4)
    assert len(thetas) > 1
    monkeypatch.setattr(criteria, "dh_projection",
                        lambda A, H, k: thetas + thetas[1:])
    with pytest.raises(CertificationFailure, match="dependent D_H basis"):
        criteria._image_vectors.__wrapped__(A, 0, 4)


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
        span = SpanBuilder(2 * (k + 1))
        for theta in deriv_space(M, k):
            span.add(theta.coeff_vector())
        for j in range(2 * (k + 1)):
            v = tuple(c + (i == j) for i, c in enumerate(vecs[0]))
            if not span_contains(span, linalg._int_row(v)):
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
             for p in jacobian(A)[1:]]

    def dim(k):
        cols = [[0] * j + part + [0] * (k - j)
                for part in parts for j in range(k + 1)]
        return 3 * (k + 1) - oracles.rank([list(r) for r in zip(*cols)],
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
    # a balanced line: only the last layer below the count bound, K = 2, is
    # computed; it has no syzygy, so e1 = K + 1, the first layer past the
    # bound, which has one by counting alone.  Its full column rank modulo
    # the word prime proves that, so no kernel runs
    A = random_arrangement(7, 1)
    real_rank, real_kernel = linalg.rank_mod, linalg.kernel_basis
    ranked, kernels = [], []

    def rank(matrix, ncols, p):
        ranked.append((len(matrix), ncols))
        return real_rank(matrix, ncols, p)

    def kernel(matrix, ncols):
        kernels.append(ncols)
        return real_kernel(matrix, ncols)

    monkeypatch.setattr(linalg, "rank_mod", rank)
    monkeypatch.setattr(linalg, "kernel_basis", kernel)
    got = criteria._external_splitting(A, LinearForm3.make([1, 2, 3]))
    assert got.as_pair() == (3, 3)
    # |A| rows, one per point where the line meets A, and 2K + 3 columns
    assert ranked == [(7, 2 * 2 + 3)]
    assert kernels == []
    ks = [(ncols - 3) // 2 for _, ncols in ranked]
    assert all(3 * (k + 1) <= k + len(A) for k in ks)


def _evaluation_matrices(monkeypatch) -> list:
    """The (rows, ncols) that _external_splitting ranks modulo WORD_PRIME
    from now on, one per call with |A| >= 3."""
    real_rank = linalg.rank_mod
    ranked = []

    def rank(matrix, ncols, p):
        ranked.append((matrix, ncols))
        return real_rank(matrix, ncols, p)

    monkeypatch.setattr(linalg, "rank_mod", rank)
    return ranked


def _psi_c(form, k, theta) -> list[Fraction]:
    """The coordinates (psi, c) of _external_splitting's N for theta in
    S_k^3, a coefficient vector in the column order of
    oracles.splitting_rows: theta = aP + bQ + c e_f and psi = s b - t a,
    the k + 2 coefficients of psi, then the k + 1 of c."""
    beta = form.int_coeffs
    f, u, v, _, _ = line_frame(beta)
    comps = [theta[c * (k + 1):(c + 1) * (k + 1)] for c in range(3)]
    a = [Fraction(x) / beta[f] for x in comps[u]]
    b = [Fraction(x) / beta[f] for x in comps[v]]
    c = [z + beta[u] * x + beta[v] * y for x, y, z in zip(a, b, comps[f])]
    psi = [(b[m] if m <= k else 0) - (a[m - 1] if m else 0)
           for m in range(k + 2)]
    return psi + c


def _lift(A, form, k, w) -> list[Fraction]:
    """The syzygy theta in S_k^3 with _psi_c(theta) = w, for w in the
    kernel of N, as _external_splitting's docstring builds it: any preimage
    theta, then theta - (q / |A|) X with theta . grad f = phi q.  Asserts
    that the division is exact and that theta is an exact kernel vector of
    oracles.splitting_rows."""
    n = len(A)
    beta = form.int_coeffs
    f, u, v, _, _ = line_frame(beta)
    psi, c = w[:k + 2], w[k + 2:]
    b = psi[:k + 1]
    a = [0] * k + [-psi[k + 1]]
    comps = [None] * 3
    comps[u] = [beta[f] * x for x in a]
    comps[v] = [beta[f] * y for y in b]
    comps[f] = [z - beta[u] * x - beta[v] * y for x, y, z in zip(a, b, c)]
    rows = oracles.splitting_rows(A, form, k)

    def apply(theta):
        return [sum(x * y for x, y in zip(row, theta)) for row in rows]

    values = apply([x for comp in comps for x in comp])
    ells = criteria._meeting_points(A, form)
    phi = [1]
    for ell in ells:
        phi = [sum(phi[m - j] * ell[j] for j in (0, 1) if 0 <= m - j < len(phi))
               for m in range(len(phi) + 1)]
    # values = phi q, q of degree k - 1, divided from the first nonzero
    # coefficient of phi
    lead = next(m for m, x in enumerate(phi) if x)
    q = []
    for m in range(k):
        rest = values[lead + m] - sum(phi[lead + j] * q[m - j]
                                      for j in range(1, m + 1) if lead + j <= n)
        q.append(Fraction(rest) / phi[lead])
    assert values == [sum(phi[j] * q[m - j] for j in range(n + 1) if 0 <= m - j < k)
                      for m in range(len(values))], (A.name, form)
    # X = sP + tQ, so q X has q s beta_f at u, q t beta_f at v and
    # -q (beta_u s + beta_v t) at f
    qs, qt = q + [Fraction(0)], [Fraction(0)] + q
    comps[u] = [x - beta[f] * y / n for x, y in zip(comps[u], qs)]
    comps[v] = [x - beta[f] * y / n for x, y in zip(comps[v], qt)]
    comps[f] = [x + (beta[u] * y + beta[v] * z) / n
                for x, y, z in zip(comps[f], qs, qt)]
    theta = [x for comp in comps for x in comp]
    assert not any(apply(theta)), (A.name, form)
    return theta


def _check_meeting_rows(A, form, k, values) -> list[int]:
    """Check the rows values that _external_splitting ranked along form
    against the coefficient matrix C of oracles.splitting_rows, and return
    the i whose zero has s = 0 or t = 0, where all but one of the monomials
    in each block vanish.

    Row i sits at the zero r_i = (b_i, -a_i) of l_i = alpha_i(sP + tQ) =
    a_i s + b_i t, not reduced: the monomials s^(k + 1 - j) t^j at r_i, then
    alpha_i,f times the s^(k - j) t^j.  For every column of C, a basis
    vector theta of S_k^3, C theta at r_i is pi_i times the row dotted
    with (psi, c) of theta, pi_i = prod_(j != i) l_j(r_i) nonzero.
    """
    n = len(A)
    ells = criteria._meeting_points(A, form)
    assert len(values) == n and all(len(row) == 2 * k + 3 for row in values)
    f = line_frame(form.int_coeffs).f
    coeffs = oracles.splitting_rows(A, form, k)
    top = len(coeffs) - 1
    ncols = 3 * (k + 1)
    units = [_psi_c(form, k, [int(c == j) for c in range(ncols)])
             for j in range(ncols)]
    corners = []
    for i, ((a, b), row, line) in enumerate(zip(ells, values, A.lines)):
        s, t = b, -a
        assert (s, t) != (0, 0), (form, i)
        want = ([s ** (k + 1 - j) * t ** j for j in range(k + 2)]
                + [line.int_coeffs[f] * s ** (k - j) * t ** j
                   for j in range(k + 1)])
        assert row == want, (form, i)
        pi = prod(c * s + d * t for j, (c, d) in enumerate(ells) if j != i)
        assert pi, (form, i)
        at = [sum(r[col] * s ** (top - m) * t ** m for m, r in enumerate(coeffs))
              for col in range(ncols)]
        assert at == [pi * sum(x * y for x, y in zip(row, unit))
                      for unit in units], (form, i)
        if not s or not t:
            corners.append(i)
    return corners


def test_word_prime_rank_of_external_splittings_matches_the_kernel(monkeypatch):
    # the full column rank modulo WORD_PRIME that spares _external_splitting
    # its kernel holds exactly where kernel_basis finds no syzygy, on every
    # external line that verify checks for the fixtures and the corpus; the
    # kernel of the interpolation matrix N it ranks has the dimension of the
    # coefficient matrix's, and each of its vectors lifts to a syzygy
    ranked = _evaluation_matrices(monkeypatch)
    dims, corners = [], 0
    for A in [f.build() for f in FIXTURES] + random_corpus(100, 8, 42):
        k = (len(A) - 3) // 2
        if k < 0:
            continue
        ncols = 3 * (k + 1)
        for form in random_external_lines(A, 20, 42):
            rows = oracles.splitting_rows(A, form, k)
            dim = len(linalg.kernel_basis(rows, ncols))
            full = linalg.rank_mod(rows, ncols, linalg.WORD_PRIME) == ncols
            assert full == (dim == 0), (A.name, form)
            del ranked[:]
            assert criteria._external_splitting(A, form).e1 == k + 1 - dim
            [(values, width)] = ranked
            assert width == 2 * k + 3 and len(values) == len(A)
            got = linalg.kernel_basis(values, width)
            assert len(got) == dim, (A.name, form)
            # every kernel vector of N is (psi, c) of an exact syzygy
            for w in got:
                assert _psi_c(form, k, _lift(A, form, k, w)) == w, (A.name, form)
            corners += bool(_check_meeting_rows(A, form, k, values))
            dims.append(dim)
    # both branches are compared, and most lines need no kernel
    assert 0 < dims.count(0) < len(dims)
    assert dims.count(0) > len(dims) // 2
    # some line meets A where s or t vanishes
    assert corners


def test_a_short_rank_external_splitting_takes_the_kernel_of_its_values(monkeypatch):
    # the near-pencil on 6 lines has a syzygy in degree K = 1 along 2,3,5:
    # the interpolation matrix falls short of full rank modulo the word
    # prime, and kernel_basis runs on that same matrix, whose one kernel
    # vector lifts to the syzygy
    A, form = near_pencil(6), LinearForm3.make([2, 3, 5])
    ranked = _evaluation_matrices(monkeypatch)
    real_kernel = linalg.kernel_basis
    kernels = []

    def kernel(matrix, ncols):
        kernels.append(matrix)
        return real_kernel(matrix, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", kernel)
    assert criteria._external_splitting(A, form).as_pair() == (1, 4)
    [(values, ncols)] = ranked
    assert ncols == 5 and kernels == [values]
    # the lines x = 0 and y = 0 meet it where s = 0 and t = 0
    assert _check_meeting_rows(A, form, 1, values) == [0, 1]
    [w] = real_kernel(values, ncols)
    theta = _lift(A, form, 1, w)
    assert any(theta) and _psi_c(form, 1, theta) == w
    assert len(real_kernel(oracles.splitting_rows(A, form, 1), 6)) == 1


_SCALE_INPUTS = ([random_arrangement(n, s) for n in range(9, 21) for s in (1, 2, 3)]
                 + [near_pencil(n) for n in range(3, 16)])


def test_interpolation_kernels_match_the_coefficient_matrix_at_scale(monkeypatch):
    # N's kernel has the coefficient matrix's dimension on the 20 lines
    # verify draws for random arrangements of 9 to 20 lines and near-pencils
    # of 3 to 15, far more short ranks than the corpus holds
    ranked = _evaluation_matrices(monkeypatch)
    short = 0
    for A in _SCALE_INPUTS:
        k = (len(A) - 3) // 2
        forms = random_external_lines(A, 20, 42)
        assert len(forms) == 20, A.name
        for form in forms:
            del ranked[:]
            e1 = criteria._external_splitting(A, form).e1
            [(values, width)] = ranked
            dim = len(linalg.kernel_basis(values, width))
            want = 3 * (k + 1) - oracles.rank(oracles.splitting_rows(A, form, k),
                                              3 * (k + 1))
            assert dim == want and e1 == k + 1 - dim, (A.name, form)
            short += dim > 0
    assert short > 200


@pytest.mark.parametrize("n", range(3, 9))
def test_a_pencil_splits_as_0_and_n_minus_1_along_every_admissible_line(n):
    # the lines of pencil(n) all pass through (0, 0, 1), so d/dz is a
    # constant syzygy of the Jacobian row, and e1 = 0 on every line
    A = pencil(n)
    forms = random_external_lines(A, 20, 42)
    assert len(forms) == 20
    for form in forms:
        assert splitting_type(A, form).as_pair() == (0, n - 1), form


def test_at_degree_zero_the_rows_are_the_lines(monkeypatch):
    # with |A| = 3 or 4, K = 0 and the row of line alpha is (alpha . Q,
    # -alpha . P, alpha_f), which has a kernel exactly when A is a pencil
    ranked = _evaluation_matrices(monkeypatch)
    inputs = ([pencil(3), pencil(4), near_pencil(3), near_pencil(4),
               generic(3), generic(4)]
              + [random_arrangement(n, s) for n in (3, 4) for s in (1, 2, 3)])
    verdicts = set()
    for A in inputs:
        is_pencil = len(intersection_points(A)) == 1
        for form in random_external_lines(A, 5, 42):
            f, _, _, P, Q = line_frame(form.int_coeffs)
            del ranked[:]
            e1 = criteria._external_splitting(A, form).e1
            [(values, ncols)] = ranked
            assert ncols == 3
            assert values == [[sum(map(mul, alpha, Q)), -sum(map(mul, alpha, P)),
                               alpha[f]]
                              for alpha in (line.int_coeffs for line in A.lines)]
            assert (e1 == 0) == is_pencil, (A.name, form)
        verdicts.add(is_pencil)
    assert verdicts == {True, False}


def test_restrict_lines_is_restrict_on_every_pair_of_lines():
    for A in [f.build() for f in FIXTURES] + [A3, B3] + random_corpus(100, 8, 42):
        alphas = [line.int_coeffs for line in A.lines]
        for beta in alphas:
            assert restrict_lines(beta, alphas) == restrict(beta, alphas, 1), \
                (A.name, beta)


@pytest.mark.parametrize("A", _EXTERNAL_INPUTS, ids=lambda A: A.name)
def test_restricted_gradient_is_the_scaled_restricted_jacobian(A):
    # the point sP + tQ is (u, v) = beta_f (s, t) in the coordinates of
    # line_frame, so a degree |A| - 1 restriction scales by beta_f^(|A| - 1)
    for form in random_external_lines(A, 20, 42):
        beta = linalg._int_row(form.coeffs)
        param = line_param(beta)
        scale = beta[param.eliminated] ** (len(A) - 1)
        want = [[scale * c for c in substitute_line(p, param).coeffs]
                for p in jacobian(A)[1:]]
        assert oracles.restricted_gradient(A, form) == want, form


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


def _oracle_is_free_by_defect(A):
    """Freeness via the defect of a single restriction (zero iff free)."""
    return quick_defect(A, 0)[0] == 0


def _oracle_free_exponents_by_defect(A):
    """(e1, e2) of any restriction when the arrangement is free, else None."""
    defect, exp = quick_defect(A, 0)
    return exp if defect == 0 else None


def test_free_by_defect():
    assert _oracle_is_free_by_defect(near_pencil(6))
    assert not _oracle_is_free_by_defect(fixture("nf6").build())
    assert _oracle_free_exponents_by_defect(near_pencil(6)) == (1, 4)
    assert _oracle_free_exponents_by_defect(fixture("generic4").build()) is None


# inputs of the deletion and property-[P] oracle tests, built per test
_DELETION_INPUTS = {
    "fixtures": lambda: [f.build() for f in FIXTURES],
    "corpus-42": lambda: random_corpus(100, 8, 42),
    "ladder": lambda: [B for n in range(8, 13)
                       for B in (random_arrangement(n, 1), near_pencil(n))],
    # two lines (M' is empty), e1 = 0 on a pencil and on a near-pencil's
    # heavy line, and a double point whose weight drops to 0
    "edge": lambda: [pencil(2), pencil(3), near_pencil(4),
                     fixture("generic4").build()],
}


@pytest.mark.parametrize("inputs", _DELETION_INPUTS)
def test_deletion_defect_matches_the_deleted_arrangement(inputs):
    # the deletion read off A's restriction along L must be what building
    # A minus H and restricting it along its line 0 gives
    for A in _DELETION_INPUTS[inputs]():
        for H in range(len(A)):
            Ad = without(A, H)
            defect, exp = criteria._deletion_defect(A, H)
            assert (defect, exp) == quick_defect(Ad, 0), (A.name, H)
            assert ((exp if defect == 0 else None)
                    == _oracle_free_exponents_by_defect(Ad)), (A.name, H)


def test_deletion_exponents_interlace():
    # D(M) is in D(Md) and l_p D(Md) is in D(M), so deleting H takes the
    # restriction to L from (e1, e2) to (e1 - 1, e2) or sorted
    # (e1, e2 - 1); on a free arrangement's deletion they are the
    # deletion's own
    pairs = [(A, H, None)
             for A in [f.build() for f in FIXTURES] + random_corpus(100, 8, 42)
             for H in range(len(A))]
    pairs += [(A, H, B) for A, H, B, _ in _free_deletions()]
    for A, H, B in pairs:
        e1, e2 = exponents(ziegler_restriction(A, 1 if H == 0 else 0)[0]).as_pair()
        _, exp = criteria._deletion_defect(A, H)
        assert exp in {(e1 - 1, e2), tuple(sorted((e1, e2 - 1)))}, (A.name, H)
        assert exp[0] >= 0, (A.name, H)
        if B is not None:
            assert exp == exponents(ziegler_restriction(B, 0)[0]).as_pair(), (A.name, H)
    assert len(pairs) > 1000


def test_deletion_edge_cases_reach_their_branches():
    # two lines: the restriction is one simple point, so M' is empty
    M, _ = ziegler_restriction(pencil(2), 1)
    assert M.mult == (1,)
    assert criteria._deletion_defect(pencil(2), 0) == (0, (0, 0))
    # a pencil restricts with e1 = 0; no kernel decides
    assert exponents(ziegler_restriction(pencil(3), 1)[0]).e1 == 0
    assert criteria._deletion_defect(pencil(3), 0) == (0, (0, 1))
    # generic4: every point is double, so the lowered weight drops to 0
    A = fixture("generic4").build()
    assert set(ziegler_restriction(A, 0)[0].mult) == {1}
    assert criteria._deletion_defect(A, 1) == (0, (1, 1))


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


def _oracle_property_P(A, H):
    """property_P decided by image vectors alone, with no dimension test."""
    M, frame = ziegler_restriction(A, H)
    e1, e2 = exponents(M).as_pair()
    if chi0(A).b2_0 - e1 * e2 <= 0:
        return PropertyPResult(None, H)
    th1, th2 = basis(M)

    def coords(k):
        return criteria._im_coords(A, H, th1, th2, k)

    def found(alpha, partner):
        return PropertyPResult("variant1", H, alpha,
                               criteria._lift(alpha, frame),
                               str_derivation(partner))

    if e1 < e2:
        if coords(e1):
            for _, q in coords(e2 + 1):
                if q is not None and not q.is_zero:
                    return found(q, th2)
            return PropertyPResult(None, H)
        if not any(q is not None and not q.is_zero for _, q in coords(e2)):
            return PropertyPResult(None, H)
        low = coords(e1 + 1)
        if not low:
            return PropertyPResult(None, H)
        if e1 + 1 < e2:
            combos = [[Fraction(1)] + [Fraction(0)] * (len(low) - 1)]
        else:
            combos = [linalg.unit_last(v) for v in linalg.kernel_basis(
                [linalg._int_row([c[1].coeffs[j] for c in low])
                 for j in range(e1 - e2 + 2)], len(low))]
        for combo in combos:
            p = None
            for w, (pc, _) in zip(combo, low):
                p = pc.scale(w) if p is None else p + pc.scale(w)
            if p is not None and not p.is_zero:
                return found(p, th1)
        return PropertyPResult(None, H)
    for p0, q0 in coords(e1):
        c1 = p0.coeffs[0] if p0 is not None else Fraction(0)
        c2 = q0.coeffs[0] if q0 is not None else Fraction(0)
        for p, q in coords(e1 + 1):
            if c1 != 0:
                adj, partner = (q - p.scale(c2 / c1)) if q is not None else None, th2
            else:
                adj, partner = p, th1
            if adj is not None and not adj.is_zero:
                return found(adj, partner)
        break
    return PropertyPResult(None, H)


_PROPERTY_P_INPUTS = {
    "fixtures": _DELETION_INPUTS["fixtures"],
    "corpus-42": _DELETION_INPUTS["corpus-42"],
    "random-9-10": lambda: [random_arrangement(n, s)
                            for n in (9, 10) for s in (1, 2)],
}


@pytest.mark.parametrize("inputs", _PROPERTY_P_INPUTS)
def test_property_p_dimension_decision_matches_the_vector_path(inputs):
    for A in _PROPERTY_P_INPUTS[inputs]():
        for H in range(len(A)):
            assert (property_P(A, H).to_json()
                    == _oracle_property_P(A, H).to_json()), (A.name, H)


def test_property_p_dimensions_without_a_witness_fail(tmp_path, capsys,
                                                      monkeypatch):
    # pog6a along line 2 restricts with (1, 4) and img(1) = 0; a Hilbert
    # function raised by one from degree 1 on makes img(1) = 1 and img(5) =
    # 7 > 4 - 1 + 2, so the dimensions hold [P], and the vector path is made
    # to find no image vector in degree 5
    A = fixture("pog6a").build()
    assert exponents(ziegler_restriction(A, 2)[0]).as_pair() == (1, 4)
    monkeypatch.setattr(criteria, "ar_dim",
                        lambda B, k: ar_dim(B, k) + (k >= 1))
    monkeypatch.setattr(criteria, "_im_coords", lambda *args: [])
    with pytest.raises(ConsistencyFailure, match="no image vector"):
        property_P(A, 2)
    path = tmp_path / "pog6a.json"
    path.write_text(json.dumps(fixture("pog6a").document()))
    assert main(["property-p", str(path), "--line", "2"]) == 3
    assert "no image vector" in capsys.readouterr().err


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
