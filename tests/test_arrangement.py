"""Parsing, intersection lattice, characteristic polynomial data."""

import dataclasses
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrlog.arrangement import (Arrangement, DuplicateLine, LinearForm3,
                                ParseError, ZeroForm, _point_cmp, arrangement,
                                chi0, intersection_points, is_balanced, n_H,
                                nr_form, parse_arrangement, parse_factored,
                                to_document)
from arrlog.corpus import (FIXTURES, fixture, generic, near_pencil, pencil,
                           random_corpus)
from arrlog.linalg import _int_row, free_column
from arrlog.multiarr import LinearForm2
from oracles import (canonical, form_to_json_by_fractions,
                     intersection_points_reference, rank, supersolvable,
                     without)
from test_census import SUPERSOLVABLE, _census_pairs


def test_linear_form_canonical():
    a = LinearForm3.make([2, 4, 0])
    b = LinearForm3.make([1, 2, 0])
    assert a == b
    assert a.coeffs[0] == 1


def test_linear_form_int_coeffs():
    # the one stored form: primitive integers, first nonzero entry positive
    assert LinearForm3.make([2, 4, 6]).int_coeffs == (1, 2, 3)
    assert LinearForm3.make([Fraction(1, 3), Fraction(2, 3), 1]).int_coeffs == (1, 2, 3)
    assert LinearForm3.make([-2, 0, 4]).int_coeffs == (1, 0, -2)
    assert all(type(c) is int
               for c in LinearForm3.make([Fraction(1, 2), 1, 0]).int_coeffs)


def test_forms_compare_and_hash_by_int_coeffs():
    a = LinearForm3.make([1, 2, 3])
    same = [LinearForm3.make(c) for c in ([2, 4, 6], [-1, -2, -3],
                                          [Fraction(-1, 3), Fraction(-2, 3), -1])]
    assert all(b == a and hash(b) == hash(a) == hash((a.int_coeffs,)) for b in same)
    assert a != LinearForm3.make([1, 2, -3])
    assert repr(a) == "LinearForm3(int_coeffs=(1, 2, 3))"
    assert [f.name for f in dataclasses.fields(LinearForm3)] == ["int_coeffs"]
    with pytest.raises(TypeError):
        a < same[0]
    forms = [LinearForm3.make(c) for c in ([1, 0, 5], [0, 1, 2], [1, -1, 0])]
    assert sorted(forms, key=lambda f: f.coeffs) == [forms[1], forms[2], forms[0]]
    z = LinearForm3.make([0, 0, 1])
    A, B = Arrangement((a, z)), Arrangement((same[2], z))
    assert A == B and hash(A) == hash(B) == hash(((a.int_coeffs,), (z.int_coeffs,)))


NONZERO_VECTORS = st.integers(2, 3).flatmap(lambda n: st.lists(
    st.fractions(-30, 30, max_denominator=12) | st.integers(-30, 30),
    min_size=n, max_size=n).filter(any))


@settings(max_examples=200, deadline=None)
@given(NONZERO_VECTORS)
def test_make_matches_the_fraction_oracle(v):
    form = (LinearForm3 if len(v) == 3 else LinearForm2).make(v)
    want = canonical(v, len(v))
    assert form.coeffs == want and all(type(c) is Fraction for c in form.coeffs)
    assert list(form.int_coeffs) == _int_row(want)


@settings(max_examples=300, deadline=None)
@given(NONZERO_VECTORS)
def test_to_json_matches_the_fraction_oracle(v):
    # printed off int_coeffs in lowest terms, as through the Fractions of
    # coeffs: ints where integral, "p/q" otherwise, zeros and signs kept
    form = (LinearForm3 if len(v) == 3 else LinearForm2).make(v)
    got = form.to_json()
    assert got == form_to_json_by_fractions(form), v
    assert all(type(c) is int or type(c) is str for c in got)


def test_to_json_examples():
    assert LinearForm3.make([0, 4, -6]).to_json() == [0, 1, "-3/2"]
    assert LinearForm3.make([-6, -4, 0]).to_json() == [1, "2/3", 0]
    assert LinearForm3.make([Fraction(1, 2), 3, -5]).to_json() == [1, 6, -10]
    assert LinearForm2.make([Fraction(-3, 4), Fraction(1, 6)]).to_json() == [1, "-2/9"]
    assert LinearForm2.make([0, -7]).to_json() == [0, 1]


def test_zero_form_rejected():
    with pytest.raises(ZeroForm):
        LinearForm3.make([0, 0, 0])
    for cls, v in ((LinearForm3, [0, 0, 0]), (LinearForm2, (0, 0))):
        with pytest.raises(ZeroForm):
            cls.from_ints(v)
    with pytest.raises(ParseError, match="expected 2 coefficients, got 3"):
        LinearForm2.from_ints([1, 2, 3])


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(st.integers(-9, 9), min_size=n,
                                                    max_size=n).filter(any)),
       st.integers(-6, 6).filter(bool))
def test_from_ints_is_make_on_integers(v, factor):
    # common factors, negative leads and zeros: the integer canonicaliser
    # gives the form make gives, the Fraction oracle's primitive vector
    v = [factor * c for c in v]
    cls = LinearForm3 if len(v) == 3 else LinearForm2
    form = cls.from_ints(v)
    assert form == cls.make(v) and hash(form) == hash(cls.make(v)), v
    assert list(form.int_coeffs) == _int_row(canonical(v, len(v))), v
    assert all(type(c) is int for c in form.int_coeffs)


def test_duplicate_rejected():
    with pytest.raises(DuplicateLine):
        arrangement([[1, 0, 0], [2, 0, 0]])


def test_empty_rejected():
    with pytest.raises(ParseError):
        Arrangement(())


def test_parse_factored_fixture():
    forms = parse_factored("xyz(x+4y)(x+5y+z)(y+z)")
    assert len(forms) == 6
    assert forms[3] == LinearForm3.make([1, 4, 0])
    assert forms[4] == LinearForm3.make([1, 5, 1])


def test_parse_factored_signs_and_coefficients():
    forms = parse_factored("(-x+2y+z)(x - 2y + z)")
    assert forms[0] == LinearForm3.make([-1, 2, 1])
    assert forms[1] == LinearForm3.make([1, -2, 1])


def test_parse_factored_errors():
    with pytest.raises(ParseError):
        parse_factored("")
    with pytest.raises(ParseError):
        parse_factored("(x+y")
    with pytest.raises(ParseError):
        parse_factored("(x+2)")
    with pytest.raises(ParseError):
        parse_factored("w")
    # a sign between terms, none trailing or doubled
    for text in ("(x+y)(xy+z)", "(xy)", "(2x3y)", "(x+)", "(x--y)", "(x+-y)",
                 "(2 3x)", "(2+x)", "(-)"):
        with pytest.raises(ParseError):
            parse_factored(text)
    assert [l.int_coeffs for l in parse_factored("(-x+2y+z)(x - 2y + z)")] == \
        [(1, -2, -1), (1, -2, 1)]


def test_parse_arrangement_lines_document():
    A = parse_arrangement('{"lines": [[1,0,0],[0,1,0],["1/2","1",0]]}')
    assert len(A) == 3
    assert A.lines[2] == LinearForm3.make([Fraction(1, 2), 1, 0])


def test_parse_arrangement_errors():
    with pytest.raises(ParseError):
        parse_arrangement("not json")
    with pytest.raises(ParseError):
        parse_arrangement('{"lines": [[1,0,0]], "factored": "xy"}')
    with pytest.raises(ParseError):
        parse_arrangement('{"lines": [[1, 0]]}')
    with pytest.raises(ParseError):
        parse_arrangement('{"lines": [[1, 0, "oops"]]}')
    with pytest.raises(ParseError):
        parse_arrangement('[1, 2, 3]')


def test_document_round_trip():
    for name in ("nf6", "pog7"):
        A = fixture(name).build()
        doc = to_document(A)
        B = parse_arrangement(doc)
        assert B.lines == A.lines


def test_intersection_points_generic4():
    A = fixture("generic4").build()
    pts = intersection_points(A)
    assert len(pts) == 6
    assert all(p.multiplicity == 2 for p in pts)


def test_intersection_points_pencil():
    A = pencil(5)
    pts = intersection_points(A)
    assert len(pts) == 1
    assert pts[0].multiplicity == 5


def test_intersection_points_match_the_pairwise_fraction_reference():
    # the same points, lines and order as grouping every pair in Fractions,
    # and each stored point primitive, with last nonzero entry positive, on
    # exactly the lines it lists
    inputs = ([f.build() for f in FIXTURES] + random_corpus(100, 8, 42)
              + [A for A, _ in _census_pairs()]
              + [supersolvable(*entry) for entry in SUPERSOLVABLE]
              + [generic(n) for n in range(12, 21)]
              + [near_pencil(n) for n in range(6, 13)])
    for A in inputs:
        pts = intersection_points(A)
        assert ([(X.point, X.incident_lines) for X in pts]
                == intersection_points_reference(A)), A.name
        for X in pts:
            P = X.int_point
            assert gcd(*P) == 1 and P[free_column(P)] > 0, (A.name, P)
            on = tuple(K for K, line in enumerate(A.lines)
                       if sum(a * c for a, c in zip(line.int_coeffs, P)) == 0)
            assert on == X.incident_lines, (A.name, P)
    assert len(inputs) == 6 + 100 + 539 + 7 + 9 + 7


# the line at infinity and lines through its points (1, 0, 0), (0, 1, 0),
# (1, 1, 0), (1, -1, 0) and (2, -1, 0), two through each but the fourth, so
# that the last nonzero entry of a point is in each of the three places
AT_INFINITY = [(0, 0, 1), (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -2),
               (1, -1, 1), (1, -1, 3), (1, 1, 2), (1, 2, 1), (1, 2, -1)]


def test_point_order_is_that_of_the_fraction_points():
    # _point_cmp, the integer comparison intersection_points sorts by, has
    # the sign of comparing the Fraction points and is never 0 on two
    # distinct points
    A = arrangement(AT_INFINITY, "at-infinity")
    places = {next(i for i in (2, 1, 0) if X.int_point[i])
              for X in intersection_points(A)}
    assert places == {0, 1, 2}
    inputs = ([f.build() for f in FIXTURES] + random_corpus(100, 8, 42)
              + [supersolvable(*entry) for entry in SUPERSOLVABLE]
              + [generic(n) for n in range(12, 21)]
              + [near_pencil(n) for n in range(6, 13)] + [A])
    for B in inputs:
        for X, Y in combinations(intersection_points(B), 2):
            for P, Q in ((X, Y), (Y, X)):
                sign = (P.point > Q.point) - (P.point < Q.point)
                got = _point_cmp(P.int_point, Q.int_point)
                assert got and (got > 0) - (got < 0) == sign, (B.name, P, Q)


def test_nf6_lattice():
    A = fixture("nf6").build()
    assert [n_H(A, i) for i in range(6)] == [4, 3, 4, 3, 4, 3]
    # triple points through x+4y (index 3)
    triples = [p for p in intersection_points(A) if p.multiplicity == 3]
    assert sum(1 for p in triples if 3 in p.incident_lines) == 2


def test_pair_count_identity():
    for A in (fixture("nf6").build(), fixture("pog7").build(),
              pencil(4), near_pencil(6)):
        # every unordered pair of lines meets in exactly one counted point
        assert (sum(comb(X.multiplicity, 2) for X in intersection_points(A))
                == comb(len(A), 2))


def whitney_chi(A, t):
    """Subset-sum characteristic polynomial value (independent oracle)."""
    lines = A.lines
    total = 0
    for size in range(len(lines) + 1):
        for sub in combinations(lines, size):
            r = rank([list(l.int_coeffs) for l in sub], 3) if sub else 0
            total += (-1) ** size * t ** (3 - r)
    return total


@pytest.mark.parametrize("builder", [
    lambda: fixture("generic4").build(),
    lambda: fixture("nf6").build(),
    lambda: pencil(4),
    lambda: near_pencil(5),
    lambda: generic(5, seed=3),
])
def test_chi0_matches_whitney(builder):
    A = builder()
    data = chi0(A)
    for t in (0, 1, 2, 3, 7):
        assert whitney_chi(A, t) == (t - 1) * data.value(t)


def test_chi0_matches_whitney_on_the_reference_corpus():
    # a monic cubic is fixed by its values at three points
    for A in [f.build() for f in FIXTURES] + random_corpus(100, 8, 42):
        data = chi0(A)
        for t in (0, 2, 3):
            assert whitney_chi(A, t) == (t - 1) * data.value(t), (A.name, t)


def test_chi0_values():
    assert chi0(fixture("generic4").build()).b2_0 == 3
    assert chi0(fixture("nf6").build()).b2_0 == 7
    assert chi0(pencil(3)).b2_0 == 0
    assert chi0(arrangement([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).b2_0 == 1


def test_chi0_coefficients():
    data = chi0(fixture("nf6").build())
    assert data.coefficients == (1, -5, 7)
    assert data.value(2) == 2 * 2 - 5 * 2 + 7


def test_nr_form_examples():
    nr = nr_form(fixture("nf6").build())
    assert (nr.n, nr.r, nr.c) == (2, 1, 1)
    nr = nr_form(fixture("generic4").build())
    assert (nr.n, nr.r, nr.c) == (1, 1, 1)
    nr = nr_form(pencil(3))
    assert (nr.n, nr.r, nr.c) == (0, 2, 0)
    nr = nr_form(fixture("pog7").build())
    assert (nr.n, nr.r, nr.c) == (3, 0, 2)


def test_nr_form_invariant():
    for A in (fixture(n).build() for n in
              ("nf6", "pog6a", "pog6b", "generic4", "pog6c", "pog7")):
        nr = nr_form(A)
        s = len(A) - 1
        assert 2 * nr.n + nr.r == s
        assert nr.c == chi0(A).b2_0 - nr.n * (nr.n + nr.r)
        assert nr.c >= 0


def test_balanced():
    assert is_balanced(fixture("generic4").build()).balanced
    rep = is_balanced(near_pencil(6))
    assert not rep.balanced
    assert rep.violations


def test_n_H_bounds():
    A = fixture("pog7").build()
    assert [n_H(A, i) for i in range(7)] == [4, 3, 5, 4, 4, 5, 6]
    with pytest.raises(IndexError):
        n_H(A, 7)


def test_without():
    A = fixture("nf6").build()
    B = without(A, 0)
    assert len(B) == 5
    assert A.lines[0] not in B.lines
    with pytest.raises(IndexError):
        without(A, 6)
