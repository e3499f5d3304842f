import itertools
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagtutte.errors import (BadWeights, ExchangeViolation, InexactDivision,
                              OutOfRange, SpaceMismatch)
from flagtutte.fileio import as_flag_matroid, load_object
from flagtutte.invariants import (characteristic_poly, log_concavity,
                                  tutte_rank_nullity)
from flagtutte.ktheory import (EquivariantClass, FlagSpace, ProjProductSpace,
                               format_chain, k_tutte, o1_class, parse_chain,
                               pullback, pushforward_to_pp, to_nonequivariant,
                               y_class)
from flagtutte.lattice import (_arc, _extreme_arcs, cone_at_vertex,
                               count_lattice_points_of_table, flag_polytope,
                               hilbert_numerator)
from flagtutte.laurent import LaurentPoly, _Fallback
from flagtutte.matroid import (matroid_from_bases, matroid_from_matrix,
                               uniform_matroid)
from flagtutte.oracle import KRational, lex_divide
from flagtutte.polyflag import (enumerate_flags, flag_from_constituents,
                                flag_from_subspace_flag, is_quotient,
                                polymatroid_of_flag)

from conftest import m2_rank2
from test_laurent import ref_rename
from test_polyflag import four_flag_matroid


def mono(*exp):
    return LaurentPoly.monomial(exp)


def unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def flag_str_set(space):
    return set(space.fixed_points())


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_flag(name):
    """A fixture as a flag matroid; a matroid pair is the flag (N, M)."""
    obj = load_object(FIXTURES / f"{name}.json")
    if isinstance(obj, tuple):
        return flag_from_constituents(obj)
    return as_flag_matroid(obj)


def coarse_class(flag):
    """The class k_tutte pushes forward: y times O(1)."""
    return y_class(flag) * o1_class(FlagSpace(flag.n, flag.ranks))


def lifted_class(flag):
    """The coarse class pulled back to ranks (1, ..., n-1)."""
    n = flag.n
    return pullback(coarse_class(flag),
                    FlagSpace(n, (1,) + flag.ranks + (n - 1,)))


def full_denominator_value(space, cls, target, point):
    """Oracle: fiber terms over whole source charts, summed, times the
    whole target chart."""
    n = space.n
    (a,), hyperplane = point
    total = KRational(LaurentPoly.zero(n))
    if a not in hyperplane:
        return total.num
    for chain in space.fixed_points():
        if chain[0] == (a,) and chain[-1] == hyperplane:
            den = [tuple(x - y for x, y in zip(unit(n, j), unit(n, i)))
                   for i, j in space.chart_pairs(chain)]
            total = total + KRational(cls.value(chain), den)
    for i, j in target.chart_pairs(point):
        total = total * LaurentPoly.one_minus(
            tuple(x - y for x, y in zip(unit(n, j), unit(n, i))))
    return total.as_laurent()


def subspace_flags(max_n):
    """Flag matroids of the row spans of random prefixes of an integer
    (n-1) x n matrix, 3 <= n <= max_n."""
    def build(case):
        rows, prefixes = case
        try:
            return flag_from_subspace_flag(
                [rows[:k] for k in sorted(prefixes)])
        except OutOfRange:  # a prefix of zero rows spans nothing
            assume(False)
    return st.integers(3, max_n).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                 min_size=n - 1, max_size=n - 1),
        st.sets(st.integers(1, n - 1), min_size=1))).map(build)


def matrix_flags(max_n):
    """Single-constituent flags of the column matroids of random integer
    matrices with fewer rows than columns, 3 <= n <= max_n."""
    def build(rows):
        m = matroid_from_matrix(rows)
        assume(m.k >= 1)
        return flag_from_constituents([m])
    return st.integers(3, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=1, max_size=n - 1)).map(build)


def distinct_weights(n):
    """n distinct integer weights, negative ones included."""
    return st.lists(st.integers(-9, 9), min_size=n, max_size=n,
                    unique=True).map(tuple)


@st.composite
def product_basis_classes(draw, max_n, specialized):
    """(class, coefficients) with the class sum_{a, b} c_ab times the
    coordinate-subspace class (a, b) on P^{n-1} x P^{n-1}, built here
    from its restrictions: at the line i and the hyperplane missing m,
    V(i, m) = sum_{a <= i, b <= m} c_ab prod_{l < a} (1 - t^chi(l, i))
    prod_{l < b} (1 - t^chi(m, l)).  The c_ab are random Laurent
    polynomials in the torus characters, or in z when `specialized`, where
    chi(i, j) is the degree w_i - w_j under random distinct weights."""
    n = draw(st.integers(2, max_n))
    if specialized:
        weights, nvars = draw(distinct_weights(n)), 1

        def chi(i, j):
            return (weights[i] - weights[j],)
    else:
        weights, nvars = None, n

        def chi(i, j):
            return tuple((k == i) - (k == j) for k in range(n))
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    polys = st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(
        lambda terms: LaurentPoly(nvars, terms))
    coeffs = {(a, b): draw(polys) for a in range(n) for b in range(n)}
    space, one = ProjProductSpace(n), LaurentPoly.one(nvars)
    values = {}
    for point in space.fixed_points():
        (i,), m = point[0], space.missing(point[1])
        v = LaurentPoly.zero(nvars)
        for a in range(i + 1):
            for b in range(m + 1):
                v = v + coeffs[(a, b)] * one.times_one_minus(
                    [chi(l, i) for l in range(a)]
                    + [chi(m, l) for l in range(b)])
        values[point] = v
    return EquivariantClass(space, values, weights), coeffs


@st.composite
def perturbed_matrix_y(draw):
    """y of a random matrix flag with one fixed point's value changed by a
    monomial or by a multiple of 1 - t^chi, chi a chart character there,
    or one basis flag's value dropped, or left as it is."""
    y = y_class(draw(matrix_flags(5)))
    space, n = y.space, y.space.n
    at = draw(st.sampled_from(space.fixed_points()))
    kind = draw(st.sampled_from(["monomial", "multiple", "drop", "none"]))
    bump = LaurentPoly.zero(n)
    if kind == "drop":
        at = draw(st.sampled_from(sorted(y.values)))
        bump = -y.value(at)
    elif kind == "monomial":
        bump = LaurentPoly.monomial(draw(st.tuples(*[st.integers(-2, 2)] * n)),
                                    draw(st.sampled_from([-2, -1, 1, 2])))
    elif kind == "multiple":
        chi = draw(st.sampled_from(space.chart_characters(at)))
        bump = draw(small_polys(n)) * LaurentPoly.one_minus(chi)
    return EquivariantClass(space, {**y.values, at: y.value(at) + bump})


def first_incongruent_orbit(cls):
    """Oracle: the first orbit (f1, f2, (i, j)) along which lex elimination
    does not divide the difference of the ends by 1 - t^chi, or None."""
    for f1, f2, (i, j) in cls.space.one_dim_orbits():
        try:
            lex_divide(cls.value(f1) - cls.value(f2),
                       LaurentPoly.one_minus(cls.char(i, j)))
        except InexactDivision:
            return f1, f2, (i, j)
    return None


EXAMPLE_TUTTE = LaurentPoly(2, {(2, 2): 1, (2, 1): 1, (1, 2): 1, (2, 0): 1,
                                 (1, 1): 1})


class TestFlagSpace:
    def test_fl_1_2_3_has_six_fixed_points(self):
        assert len(FlagSpace(3, (1, 2)).fixed_points()) == 6

    def test_chart_characters_example(self):
        space = FlagSpace(3, (1, 2))
        chain = ((0,), (0, 1))  # the flag 1 < 12, 0-indexed
        # characters t2 t3^-1, t1 t3^-1, t1 t2^-1
        assert sorted(space.chart_characters(chain)) == sorted([
            (0, 1, -1), (1, 0, -1), (1, -1, 0)])

    def test_projective_space_chart(self):
        space = FlagSpace(5, (1,))
        chain = ((2,),)
        chars = space.chart_characters(chain)
        assert len(chars) == 4
        assert all(c[2] == 1 for c in chars)

    def test_duplicate_ranks_collapse_fixed_points(self):
        doubled = FlagSpace(3, (1, 1, 2, 2))
        plain = FlagSpace(3, (1, 2))
        assert doubled.fixed_points() == plain.fixed_points()

    def test_weight_counts_multiplicity(self):
        space = FlagSpace(4, (1, 1, 2))
        assert space.weight_vector(((0,), (0, 1))) == (3, 1, 0, 0)

    def test_fixed_points_past_ten_factorial_are_refused(self):
        # 11! complete flags; Fl(3; 11) has only C(11, 3) = 165
        with pytest.raises(OutOfRange):
            FlagSpace(11, tuple(range(1, 11))).fixed_points()
        assert len(FlagSpace(11, (3,)).fixed_points()) == 165

    @pytest.mark.parametrize("ranks", [(1,), (5 * 10**10,), (1, 2)])
    def test_huge_space_is_refused_when_made(self, ranks):
        # the count stops once it passes 10!, long before n! is formed
        with pytest.raises(OutOfRange):
            FlagSpace(10**11, ranks)

    def test_bad_ranks(self):
        with pytest.raises(SpaceMismatch):
            FlagSpace(3, (2, 1))
        with pytest.raises(SpaceMismatch):
            FlagSpace(3, (3,))


class TestOrbits:
    def test_fl123_orbit_example(self):
        space = FlagSpace(3, (1, 2))
        chain = ((0,), (0, 1))
        assert space.move(chain, 0, 2) == ((2,), (1, 2))

    def test_projective_line_orbit(self):
        space = FlagSpace(2, (1,))
        orbits = space.one_dim_orbits()
        assert orbits == [((((0,),)), (((1,),)), (0, 1))]

    def test_g24_has_twelve_orbits(self):
        space = FlagSpace(4, (2,))
        assert len(space.one_dim_orbits()) == 12

    def test_each_orbit_listed_once(self):
        space = FlagSpace(3, (1, 2))
        orbits = space.one_dim_orbits()
        keys = [frozenset((a, b)) for a, b, _ in orbits]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_product_space_lists_each_orbit_once(self, n):
        # 2(n - 1) orbits at each of the n^2 points, two points an orbit
        space = ProjProductSpace(n)
        orbits = space.one_dim_orbits()
        keys = {frozenset((a, b)) for a, b, _ in orbits}
        assert len(orbits) == len(keys) == n * n * (n - 1)
        for a, b, pair in orbits:
            assert a < b and (b, pair) in space.orbits_at(a)


class TestYClass:
    def test_example_values(self):
        y = y_class(four_flag_matroid())
        assert y.value(((1,), (0, 1))) == LaurentPoly.one_minus((-1, 0, 1))
        assert y.value(((0,), (0, 1))) == LaurentPoly.one_minus((-1, 0, 1))
        assert y.value(((0,), (0, 2))) == LaurentPoly.one_minus((-1, 1, 0))
        assert y.value(((2,), (0, 2))) == LaurentPoly.one_minus((-1, 1, 0))

    def test_zero_off_the_flags(self):
        y = y_class(four_flag_matroid())
        assert y.value(((1,), (1, 2))).is_zero()
        assert y.value(((2,), (1, 2))).is_zero()

    def test_uniform_line_is_structure_sheaf(self):
        y = y_class(flag_from_constituents([uniform_matroid(1, 2)]))
        assert y.value(((0,),)) == LaurentPoly.one(2)
        assert y.value(((1,),)) == LaurentPoly.one(2)

    def test_gkm_on_fixture_classes(self):
        for f in [four_flag_matroid(),
                  flag_from_constituents([uniform_matroid(2, 4)]),
                  flag_from_constituents([uniform_matroid(1, 3),
                                          uniform_matroid(2, 3)])]:
            assert y_class(f).gkm_verdict()

    @settings(max_examples=100, deadline=None)
    @given(perturbed_matrix_y())
    def test_residue_verdict_agrees_with_lex_division(self, cls):
        # the witness is the first failing orbit in one_dim_orbits order
        verdict = cls.gkm_verdict()
        assert (None if verdict else verdict.witness) == \
            first_incongruent_orbit(cls)


def per_flag_values(flag):
    """Oracle: at each basis flag, the numerator of its own vertex cone
    against its own chart."""
    space, poly = FlagSpace(flag.n, flag.ranks), flag_polytope(flag)
    return {chain: hilbert_numerator(
        cone_at_vertex(poly, space.weight_vector(chain)),
        [tuple(x - y for x, y in zip(unit(flag.n, j), unit(flag.n, i)))
         for i, j in space.chart_pairs(chain)])
        for chain in enumerate_flags(flag)}


def permuted_flag(flag, perm):
    """The flag with each element e renamed perm[e]."""
    return flag_from_constituents([
        matroid_from_bases(flag.n, [[perm[e] for e in b] for b in m.bases])
        for m in flag.constituents])


class TestShapeMemo:
    """y_class computes one numerator per cone shape and renames it."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)))
    def test_values_match_per_flag_numerators(self, flag):
        assert y_class(flag).values == per_flag_values(flag)

    @pytest.mark.parametrize("name", [
        "flag_rank12", "flag_u23_5", "k4", "nonpappus", "pappus8_matrix",
        "pappus8_quotient_pair", "u12", "u24"])
    def test_values_match_per_flag_numerators_on_fixtures(self, name):
        flag = fixture_flag(name)
        assert y_class(flag).values == per_flag_values(flag)

    @pytest.mark.parametrize("name, shapes", [
        ("flag_u23_5", 1), ("k4", 3), ("pappus8_matrix", 8)])
    def test_one_numerator_per_cone_shape(self, name, shapes, monkeypatch):
        cones = []

        def counted(cone, denom):
            cones.append(cone)
            return hilbert_numerator(cone, denom)

        monkeypatch.setattr("flagtutte.ktheory.hilbert_numerator", counted)
        y_class(fixture_flag(name))
        assert len(cones) == shapes

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)), st.data())
    def test_relabelled_flag_relabels_the_class(self, flag, data):
        perm = data.draw(st.permutations(range(flag.n)))
        moved = permuted_flag(flag, perm)
        want = {tuple(tuple(sorted(perm[e] for e in part)) for part in chain):
                LaurentPoly(flag.n, ref_rename(v.terms, perm))
                for chain, v in y_class(flag).values.items()}
        assert y_class(moved).values == want
        assert k_tutte(moved) == k_tutte(flag)


def two_step_flags(n):
    """Every labelled flag (N, M) of matroids on n elements with
    0 < rank N < rank M < n and N a quotient of M."""
    matroids = []
    for k in range(1, n):
        subsets = list(itertools.combinations(range(n), k))
        for size in range(1, len(subsets) + 1):
            for bases in itertools.combinations(subsets, size):
                try:
                    matroids.append(matroid_from_bases(n, bases))
                except ExchangeViolation:
                    pass
    return [flag_from_constituents([a, b]) for a in matroids
            for b in matroids if a.k < b.k and is_quotient(a, b)]


def keyed_arcs(flag, monkeypatch):
    """The extreme arcs y_class reads at each basis flag, in flag order."""
    seen = []

    def recorded(arcs, n):
        seen.append(sorted(_extreme_arcs(arcs, n)))
        return seen[-1]

    monkeypatch.setattr("flagtutte.ktheory._extreme_arcs", recorded)
    y_class(flag)
    monkeypatch.undo()
    return dict(zip(enumerate_flags(flag), seen, strict=True))


def polytope_arcs(flag):
    """The oracle: the arcs of the certified rays of the flag polytope's
    vertex cone at each basis flag."""
    space, poly = FlagSpace(flag.n, flag.ranks), flag_polytope(flag)
    return {chain: sorted(map(_arc, cone_at_vertex(
        poly, space.weight_vector(chain)).rays()))
        for chain in enumerate_flags(flag)}


class TestVertexConeRule:
    """The vertex cone at a basis flag is read from the basis flags one
    torus orbit away, with the shortcut arcs dropped."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)))
    def test_arcs_match_the_polytope(self, flag):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert keyed_arcs(flag, monkeypatch) == polytope_arcs(flag)

    def test_arcs_match_the_polytope_on_two_step_flags(self, monkeypatch):
        flags = two_step_flags(4)
        assert len(flags) == 357
        for flag in flags:
            assert keyed_arcs(flag, monkeypatch) == polytope_arcs(flag)

    @pytest.mark.parametrize("name", [
        "flag_rank12", "flag_u23_5", "k4", "nonpappus", "pappus8_matrix",
        "pappus8_quotient_pair", "u12", "u24", "U(3,6)"])
    def test_no_rank_table_or_tight_set(self, name, monkeypatch):
        if name == "U(3,6)":
            flag = flag_from_constituents([uniform_matroid(3, 6)])
        else:
            flag = fixture_flag(name)
        # a single matroid's k_tutte is its Tutte polynomial
        want = (tutte_rank_nullity(flag.constituents[0])
                if len(flag.ranks) == 1 else k_tutte(flag))
        want_y = per_flag_values(flag)

        def refused(*args):
            raise AssertionError("the k_tutte path built a polytope")

        monkeypatch.setattr("flagtutte.matroid.Matroid.rank_table", refused)
        monkeypatch.setattr("flagtutte.lattice.LatticePolytope.neighbours",
                            refused)
        assert y_class(flag).values == want_y
        assert k_tutte(flag) == want


def certificate(flag, bump=None, k=0):
    """(the InexactDivision message of y_class or None, the number of cone
    shapes, the expanded class whose GKM check y_class decides), with the
    k-th shape's numerator plus the polynomial `bump` when one is given."""
    calls = []

    def bumped(cone, denom):
        calls.append(cone)
        p = hilbert_numerator(cone, denom)
        return p + bump if bump is not None and len(calls) == k + 1 else p

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("flagtutte.ktheory.hilbert_numerator", bumped)
        try:
            y_class(flag)
            message = None
        except InexactDivision as exc:
            message = str(exc)
        shapes = len(calls)
        calls.clear()
        # the same numerators renamed to each flag, no orbit walked
        monkeypatch.setattr("flagtutte.ktheory._orbits", lambda *args: [])
        expanded = y_class(flag)
    return message, shapes, expanded


def rejection(orbit):
    """The message y_class raises for an incongruent orbit, or None."""
    return None if orbit is None else (
        f"y_class: localization class is incompatible along orbit {orbit}")


def gkm_witness(cls):
    verdict = cls.gkm_verdict()
    return None if verdict else verdict.witness


class TestShapeCertificate:
    """y_class decides the GKM congruence once per cone shape, chart
    character and relabelling, with the expanded class's verdict and
    witness."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)), st.data())
    def test_agrees_with_lex_division_on_the_expanded_class(self, flag,
                                                            data):
        message, shapes, expanded = certificate(flag)
        assert message is None is first_incongruent_orbit(expanded)
        bump = LaurentPoly.monomial(
            data.draw(st.tuples(*[st.integers(-2, 2)] * flag.n)),
            data.draw(st.sampled_from([-2, -1, 1, 2])))
        message, _, expanded = certificate(
            flag, bump, data.draw(st.integers(0, shapes - 1)))
        assert message == rejection(first_incongruent_orbit(expanded))

    def test_agrees_with_lex_division_on_two_step_flags(self):
        rng, rejected = random.Random(5), 0
        for flag in two_step_flags(4):
            message, shapes, expanded = certificate(flag)
            assert message is None is first_incongruent_orbit(expanded)
            # the constant keeps the congruence where all ends are flags
            bump = LaurentPoly.monomial(
                [rng.randint(-1, 1) * rng.randint(0, 1) for _ in range(4)],
                rng.choice([-1, 1]))
            message, _, expanded = certificate(flag, bump,
                                               rng.randrange(shapes))
            assert message == rejection(first_incongruent_orbit(expanded))
            rejected += message is not None
        assert 0 < rejected < 357

    @pytest.mark.parametrize("name", [
        "flag_rank12", "flag_u23_5", "k4", "nonpappus", "pappus8_matrix",
        "pappus8_quotient_pair", "u12", "u24"])
    def test_agrees_with_the_expanded_check_on_fixtures(self, name):
        flag = fixture_flag(name)
        message, shapes, expanded = certificate(flag)
        assert message is None is gkm_witness(expanded)
        for k in range(shapes):
            exp = unit(flag.n, k % flag.n) if k % 2 else (0,) * flag.n
            message, _, expanded = certificate(
                flag, LaurentPoly.monomial(exp), k)
            assert message == rejection(gkm_witness(expanded))

    @pytest.mark.parametrize("name, k, terms", [
        ("pappus8_matrix", 4, {(0, -1, 0, 0, 0, 0, 1, 0): 1,
                               (0, -1, 1, 0, 0, 0, 0, 0): -1,
                               (0, 0, 0, 0, 0, 0, 0, 0): -1,
                               (0, 0, 1, 0, 0, 0, -1, 0): 1}),
        ("pappus8_quotient_pair", 2, {(0, -1, 0, 1, 0, 0, 0, 0): 1,
                                      (0, 0, -1, 1, 0, 0, 0, 0): -1,
                                      (0, 0, 0, 0, 0, 0, 0, 0): -1,
                                      (0, 1, -1, 0, 0, 0, 0, 0): 1}),
        ("pappus8_quotient_pair", 6, {(-1, -1, 0, 0, 0, 0, 0, 0): -1,
                                      (0, -1, 0, -1, 0, 0, 0, 0): 1})])
    def test_a_verdict_depends_on_its_whole_key(self, name, k, terms):
        # each bump first breaks the congruence at the witness; an earlier
        # orbit passed with the witness's shapes and character under
        # another relabelling (first two bumps), or with its relabelling
        # and character and another shape at the far end (third), so a
        # verdict kept without the relabelling, or without the far end's
        # shape, would pass the witness too
        flag = fixture_flag(name)
        message, _, expanded = certificate(flag, LaurentPoly(flag.n, terms),
                                           k)
        assert message is not None
        assert message == rejection(gkm_witness(expanded))


class TestO1:
    def test_flag_weight(self):
        space = FlagSpace(3, (1, 2))
        o1 = o1_class(space)
        assert o1.value(((0,), (0, 1))) == mono(2, 1, 0)

    def test_grassmannian_weight(self):
        space = FlagSpace(3, (2,))
        assert o1_class(space).value(((0, 1),)) == mono(1, 1, 0)

    def test_repeated_rank_weight(self):
        space = FlagSpace(4, (1, 1, 2))
        assert o1_class(space).value(((0,), (0, 1))) == mono(3, 1, 0, 0)


@lru_cache(maxsize=None)
def fixture_y(name):
    if name == "four_flag":
        return y_class(four_flag_matroid())
    return y_class(fixture_flag(name))


def small_polys(n):
    return st.dictionaries(st.tuples(*[st.integers(-1, 1)] * n),
                           st.integers(-2, 2), max_size=3).map(
        lambda terms: LaurentPoly(n, terms))


@st.composite
def perturbed_y(draw):
    """A class a*y + g + sum of point classes + a constant bump at one
    point, for constant classes a and g.  A point class is h times the
    whole chart product at its point, so every term but the bump
    satisfies GKM, and the bump k breaks it iff k != 0: along each orbit
    through its point the difference changes by the constant k, a single
    line that sums to k."""
    y = fixture_y(draw(st.sampled_from(
        ["four_flag", "flag_rank12", "flag_u23_5"])))
    space, n = y.space, y.space.n
    points = space.fixed_points()
    a, g = draw(small_polys(n)), draw(small_polys(n))
    values = {fp: y.value(fp) * a + g for fp in points}
    for fp in draw(st.lists(st.sampled_from(points), max_size=2)):
        chart = LaurentPoly.one(n).times_one_minus(
            space.chart_characters(fp))
        values[fp] = values[fp] + draw(small_polys(n)) * chart
    bump = draw(st.integers(-2, 2))
    at = draw(st.sampled_from(points))
    values[at] = values[at] + LaurentPoly.one(n) * bump
    return EquivariantClass(space, values), bump


class TestMultiplyPullback:
    @settings(max_examples=40, deadline=None)
    @given(perturbed_y())
    def test_line_bundle_keeps_the_gkm_verdict(self, case):
        # O(1) restricts to t^{e_F}, and along an orbit with character chi
        # the exponents differ by a multiple of chi, so the product's
        # congruences are the class's times a unit: k_tutte checks y only
        cls, bump = case
        verdict = bool(cls.gkm_verdict())
        assert verdict == (bump == 0)
        assert bool((cls * o1_class(cls.space)).gkm_verdict()) == verdict

    def test_figure_product_value(self):
        f = four_flag_matroid()
        space = FlagSpace(3, (1, 2))
        prod = y_class(f) * o1_class(space)
        expect = mono(2, 1, 0) * LaurentPoly.one_minus((-1, 0, 1))
        assert prod.value(((0,), (0, 1))) == expect

    def test_pullback_of_constant(self):
        space = FlagSpace(3, (1, 2))
        ones = EquivariantClass(space, {fp: LaurentPoly.one(3)
                                        for fp in space.fixed_points()})
        big = FlagSpace(3, (1, 1, 2, 2))
        up = pullback(ones, big)
        assert all(up.value(fp) == LaurentPoly.one(3)
                   for fp in big.fixed_points())

    def test_pullback_with_duplicates_is_identity_on_values(self):
        f = four_flag_matroid()
        y = y_class(f)
        up = pullback(y, FlagSpace(3, (1, 1, 2, 2)))
        assert up.values == y.values

    def test_space_mismatch(self):
        f = four_flag_matroid()
        with pytest.raises(SpaceMismatch):
            y_class(f) * o1_class(FlagSpace(3, (2,)))


class TestPushforward:
    def build_pushed(self):
        f = four_flag_matroid()
        space = FlagSpace(3, (1, 2))
        cls = y_class(f) * o1_class(space)
        lifted = pullback(cls, FlagSpace(3, (1, 1, 2, 2)))
        return pushforward_to_pp(lifted)

    def test_example_values(self):
        pushed = self.build_pushed()
        t = [mono(*unit(3, i)) for i in range(3)]
        assert pushed.value(((0,), (0, 1))) == t[1] * (t[0] - t[2]) ** 2
        assert pushed.value(((0,), (0, 2))) == t[2] * (t[0] - t[1]) ** 2
        assert pushed.value(((2,), (0, 2))) == \
            t[2] * (t[0] - t[1]) * (t[2] - t[1])
        assert pushed.value(((1,), (0, 1))) == \
            t[1] * (t[0] - t[2]) * (t[1] - t[2])

    def test_non_incident_pairs_vanish(self):
        pushed = self.build_pushed()
        assert pushed.value(((1,), (0, 2))).is_zero()
        assert pushed.value(((0,), (1, 2))).is_zero()

    def test_other_incident_pairs_vanish(self):
        pushed = self.build_pushed()
        assert pushed.value(((1,), (1, 2))).is_zero()
        assert pushed.value(((2,), (1, 2))).is_zero()

    def test_zero_class_pushes_to_zero(self):
        space = FlagSpace(3, (1, 2))
        zero = EquivariantClass(space, {})
        pushed = pushforward_to_pp(zero)
        assert not pushed.values

    def test_pushforward_satisfies_gkm(self):
        assert self.build_pushed().gkm_verdict()

    @staticmethod
    def count_points_matching_full_denominators(flag):
        lifted, coarse = lifted_class(flag), coarse_class(flag)
        target = ProjProductSpace(flag.n)
        lifted_pushed = pushforward_to_pp(lifted)
        coarse_pushed = pushforward_to_pp(coarse)
        nonzero = 0
        for point in target.fixed_points():
            want = full_denominator_value(lifted.space, lifted, target,
                                          point)
            assert lifted_pushed.value(point) == want, point
            assert coarse_pushed.value(point) == want, point
            nonzero += not want.is_zero()
        return nonzero

    @pytest.mark.parametrize("flag", [
        fixture_flag("flag_u23_5"),
        flag_from_constituents([uniform_matroid(3, 6)])],
        ids=["flag_u23_5", "u36"])
    def test_cancelled_charts_match_full_denominators(self, flag):
        assert self.count_points_matching_full_denominators(flag) > flag.n

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)))
    def test_cancelled_charts_match_full_denominators_on_generated_flags(
            self, flag):
        # a generated flag with loops can have fewer nonzero points than n
        assert self.count_points_matching_full_denominators(flag)

    @settings(max_examples=40, deadline=None)
    @given(subspace_flags(5))
    def test_coarse_class_pushes_like_its_pullback(self, flag):
        n = flag.n
        cls = coarse_class(flag)
        big = FlagSpace(n, (1,) + flag.ranks + (n - 1,))
        assert pushforward_to_pp(cls) == pushforward_to_pp(pullback(cls, big))

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(matrix_flags(6), subspace_flags(5)))
    def test_specialized_pull_push_is_the_image_of_the_multivariate(
            self, flag):
        n = flag.n
        w = tuple(range(n))
        cls = coarse_class(flag)
        multi = pushforward_to_pp(cls)
        uni = pushforward_to_pp(cls.specialize(w))
        assert uni.weights == w
        for point in multi.space.fixed_points():
            assert uni.value(point) == multi.value(point).specialize(w), point
        assert to_nonequivariant(uni) == to_nonequivariant(multi)

    def test_specializing_needs_distinct_weights(self):
        cls = coarse_class(four_flag_matroid())
        with pytest.raises(BadWeights):
            cls.specialize((0, 1, 1))


class TestToNonEquivariant:
    def test_line_bundle_of_p1(self):
        # O(1) lifted from the line factor, second factor trivial:
        # the truncated geometric series 1 + (line hyperplane class)
        space = ProjProductSpace(2)
        values = {pt: mono(*unit(2, pt[0][0])) for pt in space.fixed_points()}
        cls = EquivariantClass(space, values)
        assert to_nonequivariant(cls) == LaurentPoly(2, {(0, 0): 1,
                                                         (0, 1): 1})

    def test_line_bundle_of_dual_p1(self):
        # the dual factor's torus acts with inverted characters, so its
        # ample line bundle restricts to t_m^{-1}; it expands to 1 + x
        # while t_m itself is the inverse bundle, 1 - x
        space = ProjProductSpace(2)
        plus, minus = {}, {}
        for pt in space.fixed_points():
            m = space.missing(pt[1])
            plus[pt] = mono(*tuple(-v for v in unit(2, m)))
            minus[pt] = mono(*unit(2, m))
        assert to_nonequivariant(EquivariantClass(space, plus)) == \
            LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
        assert to_nonequivariant(EquivariantClass(space, minus)) == \
            LaurentPoly(2, {(0, 0): 1, (1, 0): -1})

    def test_constant_one(self):
        space = ProjProductSpace(3)
        ones = EquivariantClass(space, {pt: LaurentPoly.one(3)
                                        for pt in space.fixed_points()})
        assert to_nonequivariant(ones) == LaurentPoly.one(2)

    def test_trap_class_raises(self):
        # the class supported on one fixed point without the congruence
        space = ProjProductSpace(2)
        values = {pt: LaurentPoly.one(2) for pt in space.fixed_points()
                  if pt[0] == (0,)}
        cls = EquivariantClass(space, values)
        assert not cls.gkm_verdict()
        with pytest.raises(InexactDivision):
            to_nonequivariant(cls)

    def test_example_pipeline_polynomial(self):
        pushed = TestPushforward().build_pushed()
        assert to_nonequivariant(pushed) == EXAMPLE_TUTTE

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(product_basis_classes(4, specialized=False),
                     product_basis_classes(7, specialized=True)),
           st.data())
    def test_round_trip_through_the_product_basis(self, case, data):
        cls, coeffs = case
        assert to_nonequivariant(cls) == LaurentPoly(
            2, {(b, a): c.subs_one() for (a, b), c in coeffs.items()})
        # one monomial more at one point leaves the span of the basis
        point = data.draw(st.sampled_from(cls.space.fixed_points()))
        exp = data.draw(st.tuples(*[st.integers(-2, 2)] * cls.nvars))
        values = dict(cls.values)
        values[point] = cls.value(point) + LaurentPoly.monomial(exp)
        bumped = EquivariantClass(cls.space, values, cls.weights)
        with pytest.raises(InexactDivision):
            to_nonequivariant(bumped)
        # a specialized class hands the reduction to the LaurentPoly body,
        # which raises with the same text and witness
        assert outcome(to_nonequivariant, bumped) == outcome(
            laurent_body, to_nonequivariant, bumped)


def outcome(fn, *args):
    """(result, None), or (None, the text of the InexactDivision raised)."""
    try:
        return fn(*args), None
    except InexactDivision as exc:
        return None, str(exc)


def laurent_body(fn, *args):
    """fn on a specialized class, run on LaurentPoly values: its packing
    is refused as one that would pass the size bound."""
    def refused(*packing_args):
        raise _Fallback

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("flagtutte.ktheory._Packing", refused)
        return fn(*args)


def packed_body(fn, *args):
    """fn on a specialized class with no hand-over: a _Fallback of its
    packed body propagates instead of starting the LaurentPoly body."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr("flagtutte.ktheory._Fallback",
                            type("Unraised", (Exception,), {}))
        return fn(*args)


def specialized_image(cls, weights):
    """The pushforward and reduction of a multivariate class, the pushed
    values specialized along the weights."""
    multi = pushforward_to_pp(cls)
    return ({point: v.specialize(weights)
             for point, v in multi.values.items()}, to_nonequivariant(multi))


class TestPackedStage:
    """The pull-push and the reduction of a specialized class on packed
    ints, against their LaurentPoly body."""

    @settings(max_examples=60, deadline=None)
    @given(product_basis_classes(7, specialized=True))
    def test_reductions_agree(self, case):
        cls, _ = case
        assert packed_body(to_nonequivariant, cls) == laurent_body(
            to_nonequivariant, cls)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)), st.data())
    def test_pushforwards_agree(self, flag, data):
        cls = coarse_class(flag).specialize(data.draw(distinct_weights(flag.n)))
        pushed = packed_body(pushforward_to_pp, cls)
        assert pushed == laurent_body(pushforward_to_pp, cls)
        assert packed_body(to_nonequivariant, pushed) == laurent_body(
            to_nonequivariant, pushed)

    @pytest.mark.parametrize("weights", [(0, 10 ** 6, 2), (0, 1200, 1)])
    def test_wide_cocharacter_runs_on_laurent_polys(self, weights):
        cls = coarse_class(four_flag_matroid())
        uni = cls.specialize(weights)
        with pytest.raises(_Fallback):
            packed_body(pushforward_to_pp, uni)
        pushed = pushforward_to_pp(uni)
        with pytest.raises(_Fallback):
            packed_body(to_nonequivariant, pushed)
        assert (pushed.values, to_nonequivariant(pushed)) == \
            specialized_image(cls, weights)

    def test_coefficients_past_the_digit_bound_run_on_laurent_polys(self):
        flag = fixture_flag("flag_u23_5")
        w = (3, 0, 4, 1, 2)
        cls = coarse_class(flag)
        big = EquivariantClass(cls.space, {fp: v * 2 ** 200
                                           for fp, v in cls.values.items()})
        uni = big.specialize(w)
        with pytest.raises(_Fallback):
            packed_body(pushforward_to_pp, uni)
        pushed = pushforward_to_pp(uni)
        with pytest.raises(_Fallback):
            packed_body(to_nonequivariant, pushed)
        assert (pushed.values, to_nonequivariant(pushed)) == \
            specialized_image(big, w)

    def test_gkm_failure_of_the_pushed_class_is_the_laurent_bodys(self):
        # on P^2 the point (0) pushes to 1 - z^(w_m - w_0) at the line 0,
        # and with w = (0, 2, 1) the orbit along e_0 - e_1 fails: 1 - z
        # is not 0 modulo 1 - z^2
        cls = EquivariantClass(FlagSpace(3, (1,)),
                               {((0,),): LaurentPoly.one(1)}, (0, 2, 1))
        with pytest.raises(_Fallback):
            packed_body(pushforward_to_pp, cls)
        message = outcome(pushforward_to_pp, cls)[1]
        assert message.startswith("pushforward: localization class is "
                                  "incompatible along orbit")
        assert message == outcome(laurent_body, pushforward_to_pp, cls)[1]


class TestKTutte:
    def test_four_flag_example(self):
        assert k_tutte(four_flag_matroid()) == EXAMPLE_TUTTE

    def test_uniform_flag_2_3_on_5(self):
        f = flag_from_constituents([uniform_matroid(2, 5),
                                    uniform_matroid(3, 5)])
        expect = LaurentPoly(2, {(3, 3): 1, (3, 2): 2, (2, 3): 2, (3, 1): 3,
                                  (2, 2): 8, (1, 3): 3, (3, 0): 4, (2, 1): 8,
                                  (1, 2): 8, (0, 3): 4, (2, 0): 2, (1, 1): 4,
                                  (0, 2): 2})
        assert k_tutte(f) == expect

    def test_single_u12(self):
        f = flag_from_constituents([uniform_matroid(1, 2)])
        assert k_tutte(f) == LaurentPoly(2, {(1, 0): 1, (0, 1): 1})

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3), (2, 4), (1, 4)])
    def test_specializes_to_tutte_uniform(self, k, n):
        m = uniform_matroid(k, n)
        f = flag_from_constituents([m])
        assert k_tutte(f) == tutte_rank_nullity(m)

    def test_specializes_to_tutte_nonuniform(self):
        m = m2_rank2()
        assert k_tutte(flag_from_constituents([m])) == tutte_rank_nullity(m)

    def test_specializes_on_whole_fixture_family(self, fixtures_n5):
        # flag varieties need 1 <= rank <= n-1, so free and rank-0
        # matroids stay out of the pipeline
        for name, m in fixtures_n5.items():
            if m.n < 2 or m.k == 0 or m.k == m.n:
                continue
            f = flag_from_constituents([m])
            assert k_tutte(f) == tutte_rank_nullity(m), name

    def test_basis_count_loopless_coloopfree(self, fixtures_n5):
        for name, m in fixtures_n5.items():
            if m.n < 2 or m.k == 0 or m.k == m.n:
                continue
            if m.loops() or m.coloops():
                continue
            f = flag_from_constituents([m])
            assert k_tutte(f).subs_one() == len(m.bases), name

    def test_basis_count_at_one_one(self):
        for m in [uniform_matroid(2, 4), uniform_matroid(2, 5)]:
            f = flag_from_constituents([m])
            assert k_tutte(f).subs_one() == len(m.bases)

    def test_characteristic_polynomials(self):
        chi2 = characteristic_poly(k_tutte(four_flag_matroid()), 3)
        assert chi2 == [-1, 2, -1]
        f = flag_from_constituents([uniform_matroid(2, 5),
                                    uniform_matroid(3, 5)])
        chi3 = characteristic_poly(k_tutte(f), 5)
        assert chi3 == [-6, 16, -14, 4]
        assert log_concavity(chi2) and log_concavity(chi3)


class TestSupportWalk:
    @pytest.mark.parametrize("name", ["flag_u23_5", "u36", "pappus8_matrix"])
    def test_k_tutte_lists_no_point_off_the_support(self, name,
                                                    monkeypatch):
        # O(1) is a shift at each basis flag and GKM walks from y's
        # support, so no fixed point is listed and no class multiplied
        if name == "u36":
            flag = flag_from_constituents([uniform_matroid(3, 6)])
        else:
            flag = fixture_flag(name)
        if name == "flag_u23_5":  # the multivariate pipeline, unspecialized
            want = to_nonequivariant(pushforward_to_pp(coarse_class(flag)))
        else:
            (m,) = flag.constituents
            want = tutte_rank_nullity(m)

        def forbidden(*args):
            raise AssertionError("k_tutte walked the whole space")

        monkeypatch.setattr(FlagSpace, "fixed_points", forbidden)
        monkeypatch.setattr(EquivariantClass, "__mul__", forbidden)
        monkeypatch.setattr("flagtutte.ktheory.o1_class", forbidden)
        assert k_tutte(flag) == want


class TestPappus:
    def test_y_class_of_pappus8_matrix(self):
        # a guard on the cost of the vertex cones: 49 of them, each against
        # a chart of 15 factors
        cls = y_class(fixture_flag("pappus8_matrix"))
        assert len(cls.values) == 49
        assert cls.gkm_verdict()

    def test_k_tutte_of_pappus8_matrix_is_its_tutte_polynomial(self):
        flag = fixture_flag("pappus8_matrix")
        (m,) = flag.constituents
        assert k_tutte(flag) == tutte_rank_nullity(m)


class TestLongerFlags:
    def test_complete_uniform_flag_on_four(self):
        f = flag_from_constituents([uniform_matroid(1, 4),
                                    uniform_matroid(2, 4),
                                    uniform_matroid(3, 4)])
        kt = k_tutte(f)
        assert kt == LaurentPoly(2, {(3, 3): 6, (3, 2): 6, (3, 1): 3,
                                     (3, 0): 1, (2, 3): 6, (2, 2): 6,
                                     (2, 1): 3, (1, 3): 3, (1, 2): 3,
                                     (0, 3): 1})
        chi = characteristic_poly(kt, 6)
        assert chi == [1, -3, 3, -1]
        assert log_concavity(chi)

    def test_matrix_built_flag(self):
        rows = [[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 4]]
        f = flag_from_subspace_flag([rows[:1], rows[:2]])
        kt = k_tutte(f)
        assert kt == LaurentPoly(2, {(2, 3): 1, (2, 2): 1, (2, 1): 1,
                                     (2, 0): 1, (1, 3): 2, (1, 2): 4,
                                     (1, 1): 2, (0, 3): 3, (0, 2): 1})
        assert all(c >= 0 for c in kt.terms.values())


# k_tutte of the two-step uniform flags U(a,n) inside U(b,n) with a rank gap
# of at least 2, pinned whole: three of them have negative coefficients
UNIFORM_TWO_STEP_K_TUTTE = {
    (1, 3, 5): {(0, 3): 1, (0, 4): 4, (1, 2): 3, (1, 3): 9, (1, 4): 3,
                (2, 1): 3, (2, 2): 6, (2, 3): -1, (2, 4): 2, (3, 0): 1,
                (3, 1): 1, (3, 2): 1, (3, 3): 1, (3, 4): 1},
    (1, 4, 5): {(0, 4): 1, (1, 3): 4, (1, 4): 1, (2, 2): 6, (2, 3): -2,
                (2, 4): 1, (3, 1): 4, (3, 2): -2, (3, 3): 2, (3, 4): 1,
                (4, 0): 1, (4, 1): 1, (4, 2): 1, (4, 3): 1, (4, 4): 1},
    (2, 4, 5): {(0, 3): 1, (1, 2): 3, (1, 3): 1, (2, 1): 3, (2, 2): 6,
                (2, 3): 1, (3, 0): 1, (3, 1): 9, (3, 2): -1, (3, 3): 1,
                (4, 0): 4, (4, 1): 3, (4, 2): 2, (4, 3): 1},
    (1, 3, 4): {(0, 3): 1, (1, 2): 3, (1, 3): 1, (2, 1): 3, (2, 3): 1,
                (3, 0): 1, (3, 1): 1, (3, 2): 1, (3, 3): 1},
}


class TestSignChangingFlags:
    @pytest.mark.parametrize("a, b, n", sorted(UNIFORM_TWO_STEP_K_TUTTE))
    def test_uniform_two_step_flag_polynomial(self, a, b, n):
        f = flag_from_constituents([uniform_matroid(a, n),
                                    uniform_matroid(b, n)])
        assert k_tutte(f) == LaurentPoly(2, UNIFORM_TWO_STEP_K_TUTTE[a, b, n])

    def test_negative_terms_and_duality(self):
        negative = {case: {e: c for e, c in terms.items() if c < 0}
                    for case, terms in UNIFORM_TWO_STEP_K_TUTTE.items()}
        assert negative == {(1, 3, 5): {(2, 3): -1},
                            (1, 4, 5): {(3, 2): -2, (2, 3): -2},
                            (2, 4, 5): {(3, 2): -1},
                            (1, 3, 4): {}}
        # U(1,5) in U(3,5) and U(2,5) in U(4,5) are dual flags
        swapped = {(j, i): c
                   for (i, j), c in UNIFORM_TWO_STEP_K_TUTTE[1, 3, 5].items()}
        assert swapped == UNIFORM_TWO_STEP_K_TUTTE[2, 4, 5]


class TestRandomizedSpecialization:
    def test_random_matrix_matroids(self):
        import random
        from fractions import Fraction
        from flagtutte.matroid import matroid_from_matrix
        rng = random.Random(20240817)
        done = 0
        while done < 6:
            k = rng.choice([2, 3])
            n = rng.choice([4, 5])
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(k)]
            m = matroid_from_matrix(rows)
            if m.k == 0 or m.k == m.n:
                continue
            f = flag_from_constituents([m])
            assert k_tutte(f) == tutte_rank_nullity(m), rows
            done += 1


def labelled_matroids(n):
    """Every matroid on n elements with 0 < k < n: the families of
    k-subsets that pass basis exchange."""
    out = []
    for k in range(1, n):
        subsets = list(itertools.combinations(range(n), k))
        for bits in range(1, 1 << len(subsets)):
            try:
                out.append(matroid_from_bases(n, [
                    s for i, s in enumerate(subsets) if bits >> i & 1]))
            except ExchangeViolation:
                pass
    return out


class TestSmallMatroidSweep:
    def test_k_tutte_is_tutte_on_every_matroid_up_to_five_elements(self):
        matroids = [m for n in range(2, 6) for m in labelled_matroids(n)]
        # 3 + 14 + 66 + 404 labelled matroids on 2, 3, 4 and 5 elements
        assert len(matroids) == 487
        for m in matroids:
            kt = k_tutte(flag_from_constituents([m]))
            assert kt == tutte_rank_nullity(m), m.bases
            assert kt.subs_one() == len(m.bases), m.bases


class TestCocharacter:
    @settings(max_examples=25, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)), st.data())
    def test_k_tutte_does_not_depend_on_the_weights(self, flag, data):
        weights = data.draw(distinct_weights(flag.n))
        assert k_tutte(flag, weights) == k_tutte(flag)


class TestWeightIndependence:
    def test_pushforward_values_evaluate_consistently(self):
        from flagtutte.oracle import KRational, evaluate_at_one
        pushed = TestPushforward().build_pushed()
        for value in pushed.values.values():
            direct = value.subs_one()
            for w in [(1, 2, 3), (5, 2, 9), (3, 1, 7)]:
                assert evaluate_at_one(KRational.from_poly(value), w) == direct


class TestChainStrings:
    def test_parse_roundtrip(self):
        assert parse_chain("0|01") == ((0,), (0, 1))
        assert parse_chain("2|0,2,11") == ((2,), (0, 2, 11))

    def test_format_parse_roundtrip(self):
        assert format_chain(((0,), (0, 1)), 3) == "0|01"
        assert format_chain(((10,), (3, 10)), 11) == "10,|3,10"
        for space in (FlagSpace(11, (2, 3)), FlagSpace(11, (1,))):
            for fp in space.fixed_points():
                assert parse_chain(format_chain(fp, 11)) == fp


def dual_flag(flag):
    """(M_s^*, ..., M_1^*): the duals in reverse order, again a flag."""
    return flag_from_constituents(
        [m.dual() for m in reversed(flag.constituents)])


def direct_sum(flag, other):
    """Constituent by constituent: the bases B + (C shifted by flag.n)."""
    n = flag.n
    return flag_from_constituents([
        matroid_from_bases(n + other.n, [tuple(b) + tuple(c + n for c in d)
                                         for b in m.bases for d in o.bases])
        for m, o in zip(flag.constituents, other.constituents)])


class TestFlagIdentities:
    @settings(max_examples=25, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)))
    def test_value_at_one_one_counts_the_flag_polytope(self, flag):
        table = polymatroid_of_flag(flag).rank_table
        assert sum(k_tutte(flag).terms.values()) == \
            count_lattice_points_of_table(flag.n, table)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(matrix_flags(5), subspace_flags(5)))
    def test_dual_flag_swaps_x_and_y(self, flag):
        swapped = {(j, i): c for (i, j), c in k_tutte(flag).terms.items()}
        assert k_tutte(dual_flag(flag)) == LaurentPoly(2, swapped)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2).flatmap(lambda s: st.tuples(*[
        subspace_flags(3).filter(lambda f: len(f.constituents) == s)] * 2)))
    def test_direct_sum_multiplies(self, pair):
        # pairs of one or of two constituents each, n = 6 in all
        flag, other = pair
        assert k_tutte(direct_sum(flag, other)) == \
            k_tutte(flag) * k_tutte(other)
