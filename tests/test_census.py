"""Arrangements with known answers that the random corpus lacks.

The census: the 13 lines with coefficients in {-1, 0, 1} are x, y, z,
x +- y, x +- z, y +- z and x +- y +- z.  The 48 signed permutations of x,
y, z map the set to itself, and since -I fixes every line they act as a
group of order 24.  One subset of three or more lines per orbit, and one
random image of it with its lines shuffled, must agree in every invariant
of the classification, whichever line is H0.  Every verdict occurs.

Ziegler's pair (Ziegler 1989, "Combinatorial construction of logarithmic
differential forms"): the nine lines joining six points along the edges of
K_{3,3}, with 6 triple and 18 double points.  With the six points on a
conic and off it, the lattices agree but the minimal resolutions do not.

Supersolvable arrangements (oracles.supersolvable): with a modular point of
multiplicity m on n lines, free with exponents (m - 1, n - m), and so is
the deletion of a line off that point, with (m - 1, n - m - 1).  Deleting
a line H through it, with h points on H, leaves a free arrangement exactly
when h - 1 is m - 1 or n - m (Terao 1980), and else a plus-one generated
one with exponents (m - 1, n - m) and level n - 1 - h (Abe 2021).  They
reach more lines than the census, and layers that the point system solves
above a nonzero one.  Up to 12 lines, each of them and its deletions must
also have the Tjurina number its verdict and exponents fix, and a basis
passing Saito's criterion on the restriction to every line.

Deformed Weyl arrangements (oracles.deformed_weyl): the Catalan and Shi
deformations of A2, B2, C2 and G2, free with the exponents of Yoshinaga's
theorem, with many points of high multiplicity.  Those of at most 16 lines
join the free arrangements whose deletions are checked below, and two
lines each of those of 19 to 22 lines are deleted too.  Abe's division
theorem reads freeness and its exponents off the lattice alone, and is
checked on the fixtures, the corpus, the census orbits, the supersolvable
and deformed Weyl arrangements and every deletion checked here.

Two theorems hold for every arrangement, so every family here is checked
against them: Terao's and Abe's answers for deleting any line of a free
arrangement (and for adding one, on the census and the smaller
supersolvable arrangements), and e1 <= min(mdr, (|A| - 1) // 2) for the splitting type of
any admissible line, a member or external.  Those deletions and the census
give most of the plus-one generated inputs, and on each of them the one
relation of degree d + 1 has a nonzero coefficient on a generator of
degree d, as classify takes for granted.  The same bound, and the
splitting of a free arrangement's bundle, show that where verify's thm1.5
reads `one-sided` no admissible line at all has defect 1.
"""

import random
from functools import cache
from itertools import combinations, permutations, product
from math import comb

import pytest

import oracles
from arrlog import derivation, multiarr
from arrlog.arrangement import (Arrangement, LinearForm3, _cross,
                                arrangement, chi0, intersection_points, n_H,
                                tjurina)
from arrlog.corpus import FIXTURES, random_corpus
from arrlog.criteria import (property_P, random_external_lines, splitting_type,
                             verify, yoshinaga_defect)
from arrlog.derivation import minimal_resolution


def _canonical(v):
    sign = 1 if next(x for x in v if x) > 0 else -1
    return tuple(sign * x for x in v)


CENSUS_LINES = sorted({_canonical(v) for v in product((-1, 0, 1), repeat=3) if any(v)},
                      key=lambda v: (sum(map(abs, v)), [-x for x in v]))
_INDEX = {v: i for i, v in enumerate(CENSUS_LINES)}
# each signed permutation with a positive first sign, as the permutation of
# line indices it induces
SIGNED_PERMUTATIONS = [
    [_INDEX[_canonical([s * v[p] for s, p in zip(signs, perm)])] for v in CENSUS_LINES]
    for perm in permutations(range(3))
    for signs in product((1, -1), repeat=3) if signs[0] == 1]


def _image(g, mask: int) -> int:
    return sum(1 << g[i] for i in range(len(CENSUS_LINES)) if mask >> i & 1)


def _orbit_representatives():
    """The least subset mask of each orbit, three or more lines."""
    return [mask for mask in range(1 << len(CENSUS_LINES))
            if bin(mask).count("1") >= 3
            and all(_image(g, mask) >= mask for g in SIGNED_PERMUTATIONS)]


def _census_pairs():
    rng = random.Random(1)
    for mask in _orbit_representatives():
        lines = [list(v) for i, v in enumerate(CENSUS_LINES) if mask >> i & 1]
        g = rng.choice(SIGNED_PERMUTATIONS)
        image = [list(CENSUS_LINES[g[i]]) for i in range(len(CENSUS_LINES))
                 if mask >> i & 1]
        rng.shuffle(image)
        yield (arrangement(lines, f"census-{mask}"),
               arrangement(image, f"census-{mask}-image"))


def test_signed_permutations_act_as_a_group_of_order_24():
    assert len(CENSUS_LINES) == 13
    assert len({tuple(g) for g in SIGNED_PERMUTATIONS}) == 24
    assert all(sorted(g) == list(range(13)) for g in SIGNED_PERMUTATIONS)


def _invariants(report):
    """What a projective equivalence keeps: the classification, and the
    multiset of per-line exponents and defects."""
    return (report.classification.to_json(),
            sorted((tuple(sorted(d.exponents)), d.defect) for d in report.lines))


def test_census_orbits_agree_and_meet_the_classical_bounds():
    verdicts = {}
    pairs = 0
    for A, B in _census_pairs():
        reports = [verify(A), verify(B)]
        for report in reports:
            assert report.ok, (report.arrangement.name, [
                c.id for c in report.checks if c.status == "fail"])
        assert _invariants(reports[0]) == _invariants(reports[1]), A.name
        cls = reports[0].classification
        verdicts[cls.verdict] = verdicts.get(cls.verdict, 0) + 1
        d, r, tau = len(A), cls.mdr, tjurina(A)
        # Terao's factorization: free with exponents (a, b) forces b2 = ab
        if cls.verdict == "free":
            a, b = cls.exponents
            assert chi0(A).b2_0 == a * b, A.name
        # du Plessis-Wall, and Dimca's free and nearly free iff statements
        if r:
            low = (d - 1) * (d - r - 1)
            top = low + r * r
            high = top - comb(2 * r + 2 - d, 2) if 2 * r >= d else top
            assert low <= tau <= high, (A.name, r, tau)
            assert (tau == top) == (cls.verdict == "free"), A.name
            assert (tau == top - 1) == (cls.verdict == "nearly-free"), A.name
        pairs += 1
    assert pairs == 539
    assert verdicts == {"free": 165, "nearly-free": 155,
                        "plus-one-generated": 100, "other": 119}


# the six points at t = -4, 3, -5 and -2, 4, 1 on the conic y^2 = xz, as
# (1, t, t^2); line i joins the i // 3-th of the first three to the i % 3-th
# of the others
ZIEGLER_CONIC = arrangement(
    [[8, 6, 1], [16, 0, -1], [4, -3, -1], [6, 1, -1], [12, -7, 1], [3, -4, 1],
     [10, 7, 1], [20, -1, -1], [5, -4, -1]], "ziegler-conic")
ZIEGLER_OFF_CONIC = arrangement(
    [list(_cross(P, Q)) for P in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
     for Q in ((1, 1, 1), (1, 2, 3), (2, 5, 1))], "ziegler-off-conic")


def _lattice(A):
    return sorted(X.incident_lines for X in intersection_points(A))


def test_ziegler_pair_shares_a_lattice():
    lattice = _lattice(ZIEGLER_CONIC)
    assert lattice == _lattice(ZIEGLER_OFF_CONIC)
    assert sorted(len(X) for X in lattice) == [2] * 18 + [3] * 6
    assert tjurina(ZIEGLER_CONIC) == tjurina(ZIEGLER_OFF_CONIC) == 42


@pytest.mark.parametrize("A, gens, rels", [
    (ZIEGLER_CONIC, (5, 6, 6, 6), (7, 8)),
    (ZIEGLER_OFF_CONIC, (6,) * 6, (7,) * 4),
], ids=lambda x: getattr(x, "name", None))
def test_ziegler_pair_resolutions_differ(A, gens, rels):
    shape = minimal_resolution(A)
    assert (shape.generator_degrees, shape.relation_degrees) == (gens, rels)
    assert shape.complete
    report = verify(A)
    assert report.classification.verdict == "other"
    assert report.ok, [c.id for c in report.checks if c.status == "fail"]


def test_the_conic_generator_is_no_point_derivation():
    # the degree-5 generator on the conic is left to the point system
    assert derivation._layer(ZIEGLER_CONIC, 5).route == "point system"
    assert derivation.ar_dim(ZIEGLER_CONIC, 5) == 1


@pytest.mark.parametrize("A, coker", [
    (ZIEGLER_CONIC, (0, 0, 0, 1, 2, 3, 1, 0)),
    (ZIEGLER_OFF_CONIC, (0, 0, 0, 1, 2, 4, 0)),
], ids=lambda x: getattr(x, "name", None))
def test_ziegler_pair_restrictions_agree_but_not_their_modules(A, coker):
    # the restriction exponents, the defect and property [P] are the same on
    # every line of both; only the cokernel of the Ziegler map, read off the
    # module's Hilbert function, tells the conic from the other
    for H in range(len(A)):
        report = yoshinaga_defect(A, H)
        assert (report.exponents, report.defect) == ((3, 5), 7)
        assert report.coker_by_degree == coker
        assert property_P(A, H).holds is None


# (b, extra, seed) of oracles.supersolvable: 6 to 17 lines
SUPERSOLVABLE = [(3, 0, 1), (3, 2, 2), (4, 0, 3), (4, 2, 1), (5, 0, 2),
                 (5, 1, 3), (5, 2, 1)]


@pytest.mark.parametrize("b, extra, seed", SUPERSOLVABLE)
def test_supersolvable_arrangements_are_free_with_known_exponents(b, extra, seed):
    A = oracles.supersolvable(b, extra, seed)
    n = len(A)
    m = sum(1 for line in A.lines if not line.int_coeffs[2])
    assert n - m == b and n <= 17
    cls = derivation.classify(A)
    assert (cls.verdict, cls.exponents) == ("free", tuple(sorted((m - 1, n - m))))
    # the first line off (0:0:1)
    H = next(i for i, line in enumerate(A.lines) if line.int_coeffs[2])
    cls = derivation.classify(oracles.without(A, H))
    assert (cls.verdict, cls.exponents) == \
        ("free", tuple(sorted((m - 1, n - m - 1))))


def test_deleting_a_line_through_the_modular_point():
    # by addition-deletion, A \ H is free exactly when h - 1 is an exponent
    # m - 1 or n - m of A, and otherwise plus-one generated with the
    # exponents of A and level n - 1 - h, nearly free when the level is the
    # larger exponent
    exact = []
    for entry in SUPERSOLVABLE:
        A = oracles.supersolvable(*entry)
        n = len(A)
        if n > 12:
            continue
        m = sum(1 for line in A.lines if not line.int_coeffs[2])
        for H, line in enumerate(A.lines):
            if line.int_coeffs[2]:
                continue
            h = n_H(A, H)
            B = oracles.without(A, H)
            cls = derivation.classify(B)
            exact += [k for k in cls.shape.generator_degrees
                      if derivation._layer(B, k).route == "point system"]
            if h == m:
                want = ("free", tuple(sorted((m - 1, n - m - 1))), None)
            elif h - 1 == n - m:
                want = ("free", tuple(sorted((m - 2, n - m))), None)
            else:
                level = n - 1 - h
                want = ("nearly-free" if level == max(m - 1, n - m)
                        else "plus-one-generated",
                        tuple(sorted((m - 1, n - m))), level)
            assert (cls.verdict, cls.exponents, cls.level) == want, (A.name, H)
    # layers of the deletions are left to the exact point system
    assert exact


def test_supersolvable_deletions_pass_saito_and_the_tjurina_identity():
    # on each arrangement of SUPERSOLVABLE with at most 12 lines and each of
    # its one-line deletions: the basis of the restriction to every line
    # passes Saito's criterion, and the Tjurina number is the one the
    # verdict fixes, tau = (n - 1)^2 - d1 d2 when free with exponents
    # (d1, d2), and tau = (n - 1)^2 - d1 (n - 1 - d1) - nu when plus-one
    # generated (nearly free included) with exponents (d1, d2) and nu = d -
    # d2 + 1 at level d.  A free arrangement restricts to a free
    # multiarrangement with its own exponents on every line (Ziegler 1989).
    # These inputs are free or nearly free, so the fixtures, with nu = 2 on
    # the plus-one generated ones, join them
    inputs = [f.build() for f in FIXTURES]
    for entry in SUPERSOLVABLE:
        A = oracles.supersolvable(*entry)
        if len(A) <= 12:
            inputs += [A] + [oracles.without(A, H) for H in range(len(A))]
    verdicts = {}
    for B in inputs:
        n, cls = len(B), derivation.classify(B)
        verdicts[cls.verdict] = verdicts.get(cls.verdict, 0) + 1
        d1, d2 = cls.exponents
        if cls.is_free:
            assert tjurina(B) == (n - 1) ** 2 - d1 * d2, B.name
        else:
            assert cls.is_plus_one, (B.name, cls.verdict)
            assert tjurina(B) == (n - 1) ** 2 - d1 * (n - 1 - d1) - cls.nu, \
                B.name
        for H in range(n):
            M = multiarr.ziegler_restriction(B, H)[0]
            assert multiarr.saito_check(*multiarr.basis(M), M), (B.name, H)
            if cls.is_free:
                assert multiarr.exponents(M).as_pair() == (d1, d2), (B.name, H)
    assert verdicts == {"free": 25, "nearly-free": 17, "plus-one-generated": 4}


@cache
def _weyl_members(max_lines: int):
    """The deformed Weyl arrangements of at most max_lines lines, with their
    exponents (oracles.deformed_weyl_members, seed 1)."""
    return oracles.deformed_weyl_members(max_lines)


@cache
def _free_deletions():
    """(A, H, A \\ H, classify(A \\ H)) for every line H of every free
    arrangement A of four or more lines among the census orbits, the
    fixtures, the seed-42 corpus, SUPERSOLVABLE and the deformed Weyl
    arrangements of at most 16 lines."""
    inputs = ([A for A, _ in _census_pairs()] + [f.build() for f in FIXTURES]
              + random_corpus(100, 8, 42)
              + [oracles.supersolvable(*entry) for entry in SUPERSOLVABLE]
              + [A for A, _ in _weyl_members(16)])
    out = []
    for A in inputs:
        if len(A) >= 4 and derivation.classify(A).is_free:
            for H in range(len(A)):
                B = oracles.without(A, H)
                out.append((A, H, B, derivation.classify(B)))
    return out


@cache
def _larger_weyl_deletions():
    """(A, H, A \\ H, classify(A \\ H)) for the deformed Weyl arrangements
    of 19 to 22 lines, A2 [-3, 3] and [-2, 3], B2 and C2 [-2, 2] and G2
    [-1, 1], and for H the first line with each of the two largest numbers
    of points on it; deleting a line with fewer points costs up to 1 s."""
    out = []
    for A, _ in _weyl_members(22):
        if len(A) < 19:
            continue
        counts = [n_H(A, H) for H in range(len(A))]
        for H in (counts.index(h) for h in sorted(set(counts))[-2:]):
            B = oracles.without(A, H)
            out.append((A, H, B, derivation.classify(B)))
    return out


def _terao_abe(A, H):
    """(verdict, exponents, level) of A \\ H for a free arrangement A with
    exponents d1 <= d2 and h = |A^H| points on H.  By Terao (1980), A \\ H
    is free exactly when h - 1 is d1 or d2, and the other exponent drops by
    one.  Otherwise, by Abe (2021), it is plus-one generated with exponents
    (d1, d2) and level |A| - 1 - h, nearly free when the level is d2."""
    d1, d2 = derivation.classify(A).exponents
    h = n_H(A, H)
    if h - 1 == d1:
        return "free", tuple(sorted((d1, d2 - 1))), None
    if h - 1 == d2:
        return "free", (d1 - 1, d2), None
    level = len(A) - 1 - h
    return ("nearly-free" if level == d2 else "plus-one-generated",
            (d1, d2), level)


def _deletion_verdicts(deletions) -> dict:
    """The verdict counts of deletions (A, H, A \\ H, classify(A \\ H)),
    each checked against _terao_abe."""
    verdicts = {}
    for A, H, _, cls in deletions:
        assert (cls.verdict, cls.exponents, cls.level) == _terao_abe(A, H), \
            (A.name, H)
        verdicts[cls.verdict] = verdicts.get(cls.verdict, 0) + 1
    return verdicts


def test_deleting_any_line_of_a_free_arrangement():
    assert _deletion_verdicts(_free_deletions()) == {
        "free": 745, "nearly-free": 268, "plus-one-generated": 53}


def test_deleting_lines_of_larger_deformed_weyl_arrangements():
    # every generator layer of these deletions falls back to the exact
    # point system, which is not sandwiched; on 8 of the 10 one lies above
    # a nonzero layer, where every layer vector takes a column of
    # _new_generators
    deletions = _larger_weyl_deletions()
    assert _deletion_verdicts(deletions) == {
        "free": 5, "nearly-free": 2, "plus-one-generated": 3}
    above = 0
    for _, _, B, _ in deletions:
        degrees = {g for g, _ in derivation._resolution(B, True).generators}
        assert all(derivation._layer(B, k).route == "point system"
                   for k in degrees), B.name
        above += any(derivation._layer(B, k - 1).dim for k in degrees)
    assert above == 8


@cache
def _census_classifications():
    """classify of each census orbit, by its least subset mask."""
    return {mask: derivation.classify(A) for mask, (A, _) in
            zip(_orbit_representatives(), _census_pairs())}


def _additions():
    """(A, H, h, classify(A + H)) for every free census orbit A and census
    line H not in it, and for each arrangement A of SUPERSOLVABLE with at
    most 12 lines and 5 seeded lines H through two of its intersection
    points, not in A; h is the number of points on H in A + H.  A census
    addition is a census orbit, so its classification is that orbit's."""
    classes = _census_classifications()
    for mask, (A, _) in zip(_orbit_representatives(), _census_pairs()):
        if not classes[mask].is_free:
            continue
        for i, v in enumerate(CENSUS_LINES):
            if not mask >> i & 1:
                B = arrangement([line.int_coeffs for line in A.lines] + [v])
                orbit = min(_image(g, mask | 1 << i) for g in SIGNED_PERMUTATIONS)
                yield A, B.lines[-1], n_H(B, len(A)), classes[orbit]
    for entry in SUPERSOLVABLE:
        A = oracles.supersolvable(*entry)
        if len(A) > 12:
            continue
        points = [X.int_point for X in intersection_points(A)]
        joins = sorted({LinearForm3.make(_cross(p, q))
                        for p, q in combinations(points, 2)} - set(A.lines),
                       key=lambda form: form.int_coeffs)
        for H in random.Random(entry[2]).sample(joins, min(5, len(joins))):
            B = Arrangement(A.lines + (H,), A.name)
            yield A, H, n_H(B, len(A)), derivation.classify(B)


def test_adding_a_line_to_a_free_arrangement():
    # A free with exponents d1 <= d2, H a line not in A, h the number of
    # points on H in A + H.  When h - 1 is d1 or d2, A + H is free with
    # (d1, d2 + 1) or (d1 + 1, d2) (Terao's addition theorem, 1980).
    # Otherwise it is not free, as deleting H from a free A + H leaves a
    # free arrangement only when h - 1 is an exponent of A + H, which A
    # keeps (Terao); so it is plus-one generated (Abe 2021), nearly free
    # included.  Its exponents (d1 + 1, d2 + 1) and level h - 1 are pinned
    # as observed
    verdicts = {}
    for A, H, h, cls in _additions():
        d1, d2 = derivation.classify(A).exponents
        if h - 1 == d1:
            want = ("free", (d1, d2 + 1), None)
        elif h - 1 == d2:
            want = ("free", tuple(sorted((d1 + 1, d2))), None)
        else:
            assert cls.is_plus_one, (A.name, H)
            want = ("nearly-free" if h - 1 == d2 + 1 else "plus-one-generated",
                    (d1 + 1, d2 + 1), h - 1)
        assert (cls.verdict, cls.exponents, cls.level) == want, (A.name, H)
        verdicts[cls.verdict] = verdicts.get(cls.verdict, 0) + 1
    assert verdicts == {"free": 653, "nearly-free": 458,
                        "plus-one-generated": 98}


def test_a_plus_one_relation_meets_a_generator_of_top_degree():
    # classify reads a plus-one verdict off the shape alone, three
    # generators a <= b <= d and one relation of degree d + 1: the relations
    # of degree d + 1 among the scan's generators span dimension 1, and that
    # relation has a nonzero coefficient on some generator of degree d
    inputs = ([(f.name, f.build()) for f in FIXTURES]
              + [(A.name, A) for A in random_corpus(100, 8, 42)]
              + [(B.name, B) for pair in _census_pairs() for B in pair]
              + [(f"{A.name} without {H}", B)
                 for A, H, B, _ in _free_deletions()])
    verdicts = {}
    for name, B in inputs:
        cls = derivation.classify(B)
        if not cls.is_plus_one:
            continue
        d = cls.level
        gens = [(g, derivation._h0_lift(B, v))
                for g, v in derivation._resolution(B, True).generators]
        kernel = oracles.relation_vectors(B, gens, d + 1)
        assert len(kernel) == 1, name
        offset, top = 0, False
        for g, _ in gens:
            size = comb(d + 3 - g, 2)
            top = top or (g == d and any(kernel[0][offset:offset + size]))
            offset += size
        assert top, name
        verdicts[cls.verdict] = verdicts.get(cls.verdict, 0) + 1
    assert verdicts == {"nearly-free": 594, "plus-one-generated": 257}


def test_abes_division_theorem():
    # Abe (Invent. Math. 204, 2016): A is free when A^H is free and
    # chi(A^H; t) divides chi(A; t).  For lines in P^2, A^H is always free,
    # and the division reads b2^0 = (n_H - 1)(|A| - n_H), n_H the number of
    # points on H: then A is free with exponents (n_H - 1, |A| - n_H).
    # That no free input here lacks such a line is observed, not a theorem
    census = _census_classifications()
    inputs = ([(A, derivation.classify(A)) for A in
               [f.build() for f in FIXTURES] + random_corpus(100, 8, 42)
               + [oracles.supersolvable(*entry) for entry in SUPERSOLVABLE]
               + [A for A, _ in _weyl_members(22)]]
              + [(A, census[mask]) for mask, (A, _) in
                 zip(_orbit_representatives(), _census_pairs())]
              + [(B, cls) for _, _, B, cls in
                 _free_deletions() + _larger_weyl_deletions()])
    assert len(inputs) == 1744
    counts = {}
    for A, cls in inputs:
        n, b2 = len(A), chi0(A).b2_0
        divides = [h for h in (n_H(A, H) for H in range(n))
                   if b2 == (h - 1) * (n - h)]
        for h in divides:
            assert (cls.verdict, cls.exponents) == \
                ("free", tuple(sorted((h - 1, n - h)))), A.name
        key = ("divides" if divides else "no line", cls.is_free)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {("divides", True): 959, ("no line", False): 785}


def test_splitting_types_are_bounded_by_mdr():
    # e1(L) <= min(mdr, (|A| - 1) // 2) for every admissible line L: a
    # syzygy of degree mdr restricts to a nonzero one on L, or alpha_L
    # divides it and the quotient is a syzygy of lower degree; for a member
    # line, the same holds in D_L(A), isomorphic to D_0(A).  Some external
    # line attaining the bound is only observed: the generic splitting type
    # is (mdr, |A| - 1 - mdr) when mdr <= (|A| - 1) / 2
    members = externals = 0
    for A in [A for A, _ in _census_pairs()] + random_corpus(100, 8, 42):
        n = len(A)
        bound = min(derivation.classify(A).mdr, (n - 1) // 2)
        for H in range(n):
            assert splitting_type(A, H).e1 <= bound, (A.name, H)
        e1s = [splitting_type(A, L).e1 for L in random_external_lines(A, 20, 1)]
        assert max(e1s) <= bound, A.name
        assert bound in e1s, A.name
        members += n
        externals += len(e1s)
    assert (members, externals) == (4124, 12780)


def test_thm15_is_decided_on_every_admissible_line():
    """verify's thm1.5 looks for a line of defect b2^0 - e1 e2 = 1 among the
    members and 20 seeded external lines, and reads `one-sided` when it
    finds none and the verdict is not nearly free.  No admissible line
    outside that finite scan is a witness either, for two reasons.

    Free with exponents (d1, d2): the syzygy bundle splits as O(-d1) +
    O(-d2), so it restricts to every line with splitting type (d1, d2), and
    b2^0 = d1 d2 (Terao's factorization): every line has defect 0.  The
    type is asserted on the seeded external lines.

    Otherwise: every admissible line, member or external, has e1 <= m =
    min(mdr, (|A| - 1) // 2) (test_splitting_types_are_bounded_by_mdr), and
    e1 + e2 = |A| - 1.  As e1 (|A| - 1 - e1) increases with e1 up to
    (|A| - 1) / 2, e1 e2 <= m (|A| - 1 - m), so every line has defect at
    least b2^0 - m (|A| - 1 - m), asserted to be at least 2.
    """
    inputs = ([f.build() for f in FIXTURES] + random_corpus(100, 8, 42)
              + [A for A, _ in _census_pairs()])
    counts = {}
    for A in inputs:
        cls = derivation.classify(A)
        n, b2 = len(A), chi0(A).b2_0
        if cls.is_free:
            for L in random_external_lines(A, 20, 1):
                assert splitting_type(A, L).as_pair() == cls.exponents, A.name
            assert b2 == cls.exponents[0] * cls.exponents[1], A.name
            key = "free"
        else:
            status = next(c.status for c in verify(A).checks if c.id == "thm1.5")
            if status == "one-sided":
                m = min(cls.mdr, (n - 1) // 2)
                assert b2 - m * (n - 1 - m) >= 2, A.name
            key = (cls.verdict, status)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {"free": 186, ("nearly-free", "pass"): 171,
                      ("plus-one-generated", "one-sided"): 104,
                      ("other", "one-sided"): 184}
