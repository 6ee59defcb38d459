"""Exact linear algebra: determinism, rank-nullity, and span building."""

import random
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

import oracles
from arrlog import derivation, linalg
from arrlog.arrangement import Arrangement, arrangement
from arrlog.corpus import (FIXTURES, generic, near_pencil, pencil,
                           random_arrangement)
from arrlog.linalg import (KERNEL_PRIMES, _crt_kernels, _exact_kernel,
                           _int_row, _modular_kernel, _rref_mod, integer_rref,
                           kernel_basis, rref_columns, solve_columns)
from arrlog.poly import monomial_count
from oracles import (SpanBuilder, echelon_basis, layer_generators, rank,
                     span_contains)
from test_derivation import jacobian_matrix

entries = st.integers(min_value=-30, max_value=30)


matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols),
        min_size=1, max_size=5).map(lambda rows: (rows, ncols)))


# products of a tall and a wide factor, so rank deficiency is common; wide
# entries make the first primes fail reconstruction now and then
products = st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 7),
                     st.sampled_from([30, 2 ** 40, 2 ** 200])).flatmap(
    lambda t: st.tuples(
        st.lists(st.lists(st.integers(-t[3], t[3]), min_size=t[1], max_size=t[1]),
                 min_size=t[0], max_size=t[0]),
        st.lists(st.lists(st.integers(-30, 30), min_size=t[2], max_size=t[2]),
                 min_size=t[1], max_size=t[1])))


# small products of a tall and a wide factor, so rows often vanish or agree
# mod p, with every entry shifted by a multiple of p: entries >= p, negative
# entries and nonzero multiples of p, which reduce to 0
def shifted_products(p):
    return st.tuples(st.integers(1, 6), st.integers(1, 4),
                     st.integers(1, 7)).flatmap(lambda t: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=t[1], max_size=t[1]),
                 min_size=t[0], max_size=t[0]),
        st.lists(st.lists(st.integers(-4, 4), min_size=t[2], max_size=t[2]),
                 min_size=t[1], max_size=t[1]),
        st.lists(st.lists(st.integers(-2, 2), min_size=t[2], max_size=t[2]),
                 min_size=t[0], max_size=t[0])).map(lambda f: [
            [sum(a * b for a, b in zip(row, col)) + s * p
             for col, s in zip(zip(*f[1]), shift)]
            for row, shift in zip(f[0], f[2])]))


def attempts(rows, ncols):
    """The (primes combined, basis or None) of each prime _crt_kernels
    eliminates modulo, up to the first certified basis."""
    out = []
    for count, basis in _crt_kernels(rows, ncols):
        out.append((count, basis))
        if basis is not None:
            break
    return out


def primes_needed(rows, ncols):
    """How many primes the CRT combined into the modulus that certifies the
    kernel, or None when exact elimination has to decide."""
    count, basis = attempts(rows, ncols)[-1]
    return None if basis is None else count


def scanned_degrees(A, early_stop, monkeypatch):
    """The degrees whose _ar_kernel derivation._resolution(A, early_stop)
    asks for: early_stop=True is the scan of classify; False, of
    minimal_resolution."""
    scanned = []
    cached = derivation._ar_kernel

    def record(B, k):
        scanned.append(k)
        return cached(B, k)

    with monkeypatch.context() as m:
        m.setattr(derivation, "_ar_kernel", record)
        derivation._resolution(A, early_stop)
    return scanned


def rref_oracle(rows, ncols, p):
    """The nonzero rows of the RREF over GF(p), entries in [0, p), and the
    pivot columns, from sympy's DomainMatrix."""
    K = GF(p, symmetric=False)
    reduced, pivots = DomainMatrix([[K(a) for a in r] for r in rows],
                                   (len(rows), ncols), K).rref()
    return ([[K.to_int(a) % p for a in r] for r in reduced.to_list()[:len(pivots)]],
            list(pivots))


def columns_of(rows, ncols):
    """The nonzero (row, entry) pairs of each column, as _crt_kernels
    passes them to _modular_kernel."""
    return [[(i, r[j]) for i, r in enumerate(rows) if r[j]] for j in range(ncols)]


def fraction_kernel(rows, ncols):
    """The kernel basis of the Fraction RREF formulation, and the pivot
    columns: Gauss-Jordan over Q, then one vector per free column with a 1
    there, a 0 in the other free columns and minus the reduced rows' entries
    in that column at their pivots."""
    m = [[Fraction(a) for a in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis, pivots


def unit_rref(matrix, ncols):
    """integer_rref with every row divided by its pivot entry."""
    rows, pivots = integer_rref(matrix, ncols)
    return [[Fraction(a, r[c]) for a in r] for r, c in zip(rows, pivots)], pivots


def test_int_row_clears_denominators_and_content():
    assert _int_row([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert _int_row([4, 6, 8]) == [2, 3, 4]
    assert _int_row([0, 0]) == [0, 0]


def test_rref_identity():
    m = [[2, 0], [0, 5]]
    rows, pivots = unit_rref(m, 2)
    assert rows == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rref_pivots_are_one_and_columns_cleared():
    m = [[1, 2, 3], [2, 4, 7], [1, 2, 4]]
    rows, pivots = unit_rref(m, 3)
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


def test_solve_columns_consistent():
    cols = [[1, 1], [1, -1]]
    assert solve_columns(cols, [[3, 1]]) == [[Fraction(2), Fraction(1)]]


def test_solve_columns_inconsistent():
    cols = [[1, 2], [1, 2]]
    assert solve_columns(cols, [[1, 3]]) is None


def test_solve_columns_underdetermined():
    assert solve_columns([[1], [1]], [[1]]) is None


def test_solve_columns_batch():
    cols = [[1, 1, 0], [0, 1, 1]]
    assert solve_columns(cols, [[1, 2, 1], [2, 1, -1], [0, 0, 0]]) == [
        [1, 1], [2, -1], [0, 0]]
    # one right-hand side outside the span spoils the batch
    assert solve_columns(cols, [[1, 2, 1], [1, 0, 0]]) is None
    assert solve_columns(cols, []) == []


@st.composite
def systems(draw):
    """Columns, some scaled by a Fraction, and right-hand sides: integer
    combinations of the columns, each pushed off them by one unit half of
    the time."""
    n, length = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    cols = draw(st.lists(st.lists(small, min_size=length, max_size=length),
                         min_size=n, max_size=n))
    rhs = []
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.lists(small, min_size=n, max_size=n))
        b = [sum(a * col[i] for a, col in zip(x, cols)) for i in range(length)]
        if draw(st.booleans()):
            b[draw(st.integers(0, length - 1))] += 1
        rhs.append(b)
    dens = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return [[Fraction(a, d) for a in col] for col, d in zip(cols, dens)], rhs


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_columns_matches_exact_rref(system):
    cols, rhs = system
    assert solve_columns(cols, rhs) == oracles.solve_columns(cols, rhs)


@pytest.mark.parametrize("cols, rhs, want", [
    ([[1], [1]], [[1]], None),
    ([[1, 2], [1, 2]], [[1, 3]], None),
    ([[1, 2, 0], [1, 3, 0]], [[1, 3, 0], [0, 0, 1]], None),
    ([[1, 2], [2, 4]], [], None),
    ([[1, 2], [0, 1]], [], []),
    ([], [[0, 0]], [[]]),
    ([], [[0, 1]], None),
], ids=["underdetermined", "inconsistent", "one-inconsistent",
        "empty-rhs-dependent", "empty-rhs", "no-columns", "no-columns-off"])
def test_solve_columns_edge_cases_match_exact_rref(cols, rhs, want):
    assert solve_columns(cols, rhs) == oracles.solve_columns(cols, rhs) == want


@settings(max_examples=80, deadline=None)
@given(products, st.data())
def test_rref_columns_match_exact_rref(factors, data):
    left, right = factors
    ncols = len(right[0])
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]
    lead = data.draw(st.integers(0, ncols))
    assert (rref_columns(rows, ncols, lead)
            == oracles.rref_columns(rows, ncols, lead))


_GENERATOR_CASES = (
    [(f.build(), True) for f in FIXTURES]
    + [(near_pencil(n), True) for n in range(4, 13)]
    + [(random_arrangement(n, s), True) for n in range(8, 14) for s in (1, 2)]
    + [(generic(5, seed=3), False), (random_arrangement(8, 1), False)])


@pytest.mark.parametrize(
    "A, early_stop", _GENERATOR_CASES,
    ids=[f"{A.name}-{'classify' if stop else 'minimal'}"
         for A, stop in _GENERATOR_CASES])
def test_generators_match_span_builder(A, early_stop, monkeypatch):
    # the pivots of one kernel per degree pick the generators a SpanBuilder
    # picks, vector for vector, in every degree the scan visits
    top = max(scanned_degrees(A, early_stop, monkeypatch))
    data = derivation._resolution(A, early_stop)
    assert data.generators == tuple((k, v) for k in range(top + 1)
                                    for v in layer_generators(A, k))
    if not early_stop:
        assert len(data.generators) >= 4


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
    assert span_contains(span, [2, 3, 5])
    assert not span_contains(span, [0, 0, 1])


@settings(max_examples=25, deadline=None)
@given(matrices)
def test_span_builder_dim_equals_rank(mn):
    rows, ncols = mn
    span = SpanBuilder(ncols)
    for row in rows:
        span.add(row)
    assert span.dim == rank(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(products)
def test_kernel_basis_equals_exact_elimination(factors):
    left, right = factors
    ncols = len(right[0])
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]
    assert kernel_basis(rows, ncols) == _exact_kernel(rows, ncols)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices, products.map(lambda f: (
    [[sum(a * b for a, b in zip(row, col)) for col in zip(*f[1])]
     for row in f[0]], len(f[1][0])))))
def test_kernel_vectors_are_primitive_integer_echelon_vectors(mn):
    rows, ncols = mn
    oracle, pivots = fraction_kernel(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    for path in (kernel_basis, _exact_kernel):
        got = path(rows, ncols)
        assert len(got) == len(free)
        for v, f, want in zip(got, free, oracle):
            assert all(type(a) is int for a in v)
            assert gcd(*v) == 1
            last = max(j for j, a in enumerate(v) if a)
            assert last == f and v[f] > 0
            assert all(v[c] == 0 for c in free if c != f)
            assert v == _int_row(want)


def test_kernel_primes():
    assert all(sympy.isprime(p) for p in KERNEL_PRIMES)
    assert len(set(KERNEL_PRIMES)) == len(KERNEL_PRIMES)
    # at least the range of the Mersenne primes up to 2**2203 - 1 they replace
    assert prod(KERNEL_PRIMES) > 2 ** 2203 - 1


def test_kernel_of_first_prime_is_refuted():
    # 2**127 - 1 vanishes modulo the first prime, whose one-vector kernel
    # fails M v = 0; the second prime sees rank 1 and decides alone
    rows = [[2 ** 127 - 1]]
    assert attempts(rows, 1) == [(1, None), (1, [])]
    assert kernel_basis(rows, 1) == []


def test_large_coprime_entries_need_second_prime():
    a, b = 2 ** 100 + 277, 2 ** 100 - 1
    rows = [[a, b]]
    assert primes_needed(rows, 2) == 2
    assert kernel_basis(rows, 2) == [[-b, a]]


def test_pivots_that_differ_restart_the_crt():
    # column 0 vanishes modulo the first prime only, so its pivot is column
    # 1; the second prime's pivot is column 0 and starts the residues again.
    # The denominator 2**127 - 1 needs a modulus above 2**255: three primes
    rows = [[2 ** 127 - 1, 1, 1]]
    tried = attempts(rows, 3)
    assert [count for count, _ in tried] == [1, 1, 2, 3]
    assert tried[-1][1] == _exact_kernel(rows, 3)
    assert kernel_basis(rows, 3) == [[-1, 2 ** 127 - 1, 0], [-1, 0, 2 ** 127 - 1]]


def test_huge_entries_reach_exact_fallback():
    a, b = 3 ** 1900, 2 ** 3000 + 1
    rows = [[a, b, 0], [0, 0, 1]]
    assert primes_needed(rows, 3) is None
    assert kernel_basis(rows, 3) == [[-b, a, 0]]


def test_no_free_column_gives_empty_basis():
    assert kernel_basis([[1, 2], [3, 4]], 2) == []
    assert kernel_basis([], 0) == []


def shuffled(A, seed):
    lines = list(A.lines)
    random.Random(seed).shuffle(lines)
    return Arrangement(tuple(lines), f"{A.name}-shuffled-{seed}")


def transversal_first(n):
    """near_pencil(n) with its transversal z = 0 first, so that it is H0."""
    A = near_pencil(n)
    return Arrangement(A.lines[-1:] + A.lines[:-1],
                       f"{A.name}-transversal-first")


# _ar_kernel reads D_{H0}(A) off the intersection points, and H0 = line 0
# decides which points lie on H0 and which lines need a restriction block:
# shuffled lines; the transversal of a near-pencil as H0 (its pencil lines
# are H0 in the rows above); a pencil, where every line needs a block from
# degree 1 on; lines in general position; a triple point on H0 and one off
# it; and 13 lines, where a kernel combines several primes
POINT_SYSTEM_CASES = (
    [shuffled(f.build(), seed) for f in FIXTURES for seed in (1, 2)]
    + [shuffled(random_arrangement(n, 1), n) for n in (9, 10)]
    + [transversal_first(n) for n in (5, 8, 11)]
    + [pencil(6), generic(6),
       arrangement([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, -1], [0, 1, -1],
                    [1, 1, -2]], "triple-points-on-and-off-H0"),
       random_arrangement(13, 1)])


@pytest.mark.parametrize("A, early_stop",
                         [(f.build(), stop) for f in FIXTURES for stop in (True, False)]
                         + [(g(n), True) for n in range(8, 13)
                            for g in (lambda n: random_arrangement(n, 1),
                                      near_pencil)]
                         + [(A, True) for A in POINT_SYSTEM_CASES],
                         ids=lambda x: getattr(x, "name", str(x)))
def test_ar_kernel_equals_exact_path(A, early_stop, monkeypatch):
    # A prime must decide each kernel: a broken modular path would still
    # give exact answers through the fallback, only slowly.  The dimension
    # of D_0(A)_k, from the rank of the Jacobian-syzygy matrix, is the
    # independent oracle for the D_{H0}(A) conditions.
    scanned = scanned_degrees(A, early_stop, monkeypatch)
    assert scanned
    for k in scanned:
        ncols = 2 * monomial_count(3, k)
        rows = [_int_row(r) for r in oracles.h0_conditions(A, k)]
        exact = tuple(derivation._h0_lift(A, v) for v in _exact_kernel(rows, ncols))
        assert derivation._ar_kernel(A, k) == exact, k
        assert primes_needed(rows, ncols) is not None, k
        # the point system's own kernels, uncached, are decided by a prime
        with monkeypatch.context() as m:
            m.setattr(linalg, "_exact_kernel", None)
            assert derivation._ar_kernel.__wrapped__(A, k) == exact, k
        syzygy_cols = 3 * monomial_count(3, k)
        assert len(exact) == syzygy_cols - rank(jacobian_matrix(A, k),
                                                syzygy_cols), k


def assert_rref_mod_is_the_oracle(rows, ncols, p):
    echelon, pivots = _rref_mod(rows, ncols, p)
    assert (echelon, pivots) == rref_oracle(rows, ncols, p)
    assert all(0 <= a < p for row in echelon for a in row)


@pytest.mark.parametrize("p", [KERNEL_PRIMES[0], KERNEL_PRIMES[-1]])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_mod_equals_gf_p_oracle(p, data):
    rows = data.draw(shifted_products(p))
    assert_rref_mod_is_the_oracle(rows, len(rows[0]), p)


@pytest.mark.parametrize("p", [KERNEL_PRIMES[0], KERNEL_PRIMES[-1]])
def test_rref_mod_never_pivots_on_a_multiple_of_p(p):
    # column 0 holds only nonzero multiples of p.  Row 2 is -row 1 mod p in
    # columns 1 and 2, so the update by row 1 leaves -p, unreduced, in column
    # 2; column 3 then takes the pivot, and the -p never reaches the output
    rows = [[p, 1, 2, 3], [-3 * p, p - 1, p - 2, 5], [2 * p, 0, 0, p]]
    assert _rref_mod(rows, 4, p) == (
        [[0, 1, 2, 0], [0, 0, 0, 1]], [1, 3])
    assert_rref_mod_is_the_oracle(rows, 4, p)


@pytest.mark.parametrize("p", [KERNEL_PRIMES[0], KERNEL_PRIMES[-1]])
@pytest.mark.parametrize("A", [g(n) for n in range(8, 13)
                               for g in (lambda n: random_arrangement(n, 1),
                                         near_pencil)],
                         ids=lambda x: getattr(x, "name", str(x)))
def test_rref_mod_of_top_ar_layer_equals_gf_p_oracle(A, p, monkeypatch):
    k = max(scanned_degrees(A, True, monkeypatch))
    assert_rref_mod_is_the_oracle(oracles.h0_conditions(A, k),
                                  2 * monomial_count(3, k), p)


def test_modular_kernel_refutes_an_error_in_a_column_one_row_touches():
    # columns 0 and 1 are each touched by one row only; the kernel is
    # (-2, -3, 1) and the RREF entries in the free column 2 are (2, 3).  An
    # all-zero row changes nothing
    p = KERNEL_PRIMES[0]
    for rows in ([[1, 0, 2], [0, 1, 3]], [[1, 0, 2], [0, 0, 0], [0, 1, 3]]):
        columns = columns_of(rows, 3)
        assert _modular_kernel(columns, len(rows), [[2], [3]], [0, 1], [2],
                               p) == [[-2, -3, 1]]
        # a wrong entry at pivot 0, and a wrong zero there, which leaves
        # column 0 out of the vector's support
        for wrong in ([[5], [3]], [[0], [3]]):
            assert _modular_kernel(columns, len(rows), wrong, [0, 1], [2],
                                   p) is None
        assert kernel_basis(rows, 3) == [[-2, -3, 1]]


def test_modular_kernel_of_no_rows_is_the_unit_vectors():
    p = KERNEL_PRIMES[0]
    units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _modular_kernel(columns_of([], 3), 0, [], [], [0, 1, 2], p) == units
    assert kernel_basis([], 3) == units
