"""Exact linear algebra: determinism, rank-nullity, and span building."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arrlog.linalg import (SpanBuilder, _int_row, echelon_basis, kernel_basis,
                           rank, rref, solve_unique)

entries = st.integers(min_value=-30, max_value=30)


matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=1, max_size=5).map(lambda rows: (rows, ncols)))


def test_int_row_clears_denominators_and_content():
    assert _int_row([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert _int_row([4, 6, 8]) == [2, 3, 4]
    assert _int_row([0, 0]) == [0, 0]


def test_rref_identity():
    m = [[2, 0], [0, 5]]
    rows, pivots = rref(m, 2)
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_pivots_are_one_and_columns_cleared():
    m = [[1, 2, 3], [2, 4, 7], [1, 2, 4]]
    rows, pivots = rref(m, 3)
    for r, c in zip(rows, pivots):
        assert r[c] == 1
        for other in rows:
            if other is not r:
                assert other[c] == 0


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_rank_nullity(mn):
    rows, ncols = mn
    r = rank(rows, ncols)
    null = kernel_basis(rows, ncols)
    assert r + len(null) == ncols
    # every kernel vector is annihilated by every row
    for v in null:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_kernel_deterministic_under_row_scaling(mn):
    rows, ncols = mn
    scaled = [[3 * a for a in row] for row in rows]
    assert kernel_basis(rows, ncols) == kernel_basis(scaled, ncols)


@settings(max_examples=25, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_echelon_basis_recovers_kernel_basis(mn, rng):
    rows, ncols = mn
    kernel = kernel_basis(rows, ncols)
    # a scaled, redundant and shuffled spanning set of the same kernel
    spanning = []
    for v in kernel:
        c = rng.choice((-3, -1, 2, 5))
        spanning.append([c * a for a in v])
    if len(kernel) > 1:
        spanning.append([a + b for a, b in zip(kernel[0], kernel[-1])])
    rng.shuffle(spanning)
    assert echelon_basis(spanning, ncols) == kernel


def test_solve_unique_consistent():
    m = [[1, 1], [1, -1]]
    assert solve_unique(m, [3, 1], 2) == [Fraction(2), Fraction(1)]


def test_solve_unique_inconsistent():
    m = [[1, 1], [2, 2]]
    assert solve_unique(m, [1, 3], 2) is None


def test_solve_unique_underdetermined_raises():
    import pytest

    with pytest.raises(ValueError):
        solve_unique([[1, 1]], [1], 2)


def test_span_builder_matches_rank():
    vecs = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    span = SpanBuilder(3)
    grew = [span.add(v) for v in vecs]
    assert span.dim == rank(vecs, 3)
    assert grew == [True, False, True, False]


def test_span_builder_contains():
    span = SpanBuilder(3)
    span.add([1, 0, 1])
    span.add([0, 1, 1])
    assert span.contains([2, 3, 5])
    assert not span.contains([0, 0, 1])


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_span_builder_dim_equals_rank(mn):
    rows, ncols = mn
    span = SpanBuilder(ncols)
    for row in rows:
        span.add(row)
    assert span.dim == rank(rows, ncols)
