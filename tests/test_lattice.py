import itertools
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flagtutte import lattice, linalg, oracle
from flagtutte.errors import (CheckFailed, DimensionMismatch, FlagTutteError,
                              InexactDivision, NegativeShift, NoDecomposition,
                              NotAVertex, NotPointed, OutOfRange, Verdict)
from flagtutte.fileio import as_flag_matroid, as_polymatroid, load_object
from flagtutte.ktheory import FlagSpace
from flagtutte.lattice import (HalfOpenSimplicialCone, LatticePolytope,
                               RationalCone, _gp_vertices, base_polytope,
                               cone_at_vertex,
                               count_shifted, decompose_lattice_point,
                               edge_cone,
                               edge_direction_check, edges, flag_polytope,
                               hilbert_numerator, is_normal,
                               lattice_points, minkowski_sum,
                               poly_base_polytope,
                               polytope_from_lattice_points, triangulate)
from flagtutte.laurent import LaurentPoly
from flagtutte.matroid import Matroid, matroid_from_matrix, uniform_matroid
from flagtutte.oracle import (KRational, _diagonalized_points,
                              _fraction_pieces, hilbert_series, is_pointed)
from flagtutte.polyflag import (FlagMatroid, Polymatroid, enumerate_flags,
                                flag_from_subspace_flag,
                                polymatroid_from_subspaces,
                                polymatroid_of_flag)
from conftest import fixture_matroids, m2_rank2
from test_polyflag import subspace_polymatroid, four_flag_matroid

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def piece_membership(piece, point):
    """Exact test: is `point` in the half-open simplicial cone?"""
    if not piece.generators:
        return all(x == 0 for x in point)
    rows = [[g[i] for g in piece.generators] for i in range(piece.n)]
    lam = oracle.solve_exact(rows, list(point))
    if lam is None:
        return False
    # solve_exact zero-fills free variables; independent generators mean
    # the solution is unique, but verify the residual to catch x off-span
    for i in range(piece.n):
        if sum(Fraction(rows[i][j]) * lam[j]
               for j in range(len(lam))) != point[i]:
            return False
    for lj, open_j in zip(lam, piece.open_flags):
        if lj < 0 or (open_j and lj == 0):
            return False
    return True


class TestBasePolytopes:
    def test_u24_octahedron(self):
        p = base_polytope(uniform_matroid(2, 4))
        assert len(p.vertices) == 6
        assert p.dim == 3

    def test_flag_example_polytope(self):
        p = flag_polytope(four_flag_matroid())
        assert p.vertices == ((1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                 min_size=n - 1, max_size=n - 1),
        st.sets(st.integers(1, n - 1), min_size=1))))
    def test_flag_vertices_are_basis_flag_weights(self, case):
        rows, prefixes = case
        try:
            f = flag_from_subspace_flag([rows[:k] for k in sorted(prefixes)])
        except OutOfRange:  # a prefix of zero rows spans nothing
            assume(False)
        n = f.n
        # the greedy scan over all orderings is the oracle
        assert flag_polytope(f).vertices == tuple(
            _gp_vertices(n, polymatroid_of_flag(f).rank_table))
        by_rank = {m.k: m for m in f.constituents}
        assert enumerate_flags(f) == [
            chain for chain in FlagSpace(n, f.ranks).fixed_points()
            if all(by_rank[len(part)].is_basis(part) for part in chain)]

    def test_vertex_walk_refused_past_ten_elements(self):
        z = [min(bin(m).count("1"), 2) for m in range(1 << 11)]
        with pytest.raises(OutOfRange):
            _gp_vertices(11, z)

    def test_point_polytope(self):
        p = base_polytope(uniform_matroid(1, 1))
        assert p.vertices == ((1,),)
        assert p.dim == 0

    def test_vertices_are_basis_indicators(self, fixtures_n5):
        for m in fixtures_n5.values():
            p = base_polytope(m)
            expect = sorted(tuple(1 if i in set(b) else 0 for i in range(m.n))
                            for b in m.bases)
            assert list(p.vertices) == expect

    def test_dimension_is_n_minus_components(self, fixtures_n5):
        for m in fixtures_n5.values():
            p = base_polytope(m)
            assert p.dim == m.n - len(m.connected_components())

    def test_poly_vertices_match_independent_hull_filter(self):
        p = poly_base_polytope(subspace_polymatroid())
        pts = lattice_points(p)
        hull_vertices = [
            q for q in pts
            if not oracle.in_hull([r for r in pts if r != q], q)
        ]
        assert list(p.vertices) == hull_vertices


class TestLatticePoints:
    def test_flag_example_five_points(self):
        p = flag_polytope(four_flag_matroid())
        pts = lattice_points(p)
        assert len(pts) == 5 and (1, 1, 1) in pts

    def test_u24_only_vertices(self):
        p = base_polytope(uniform_matroid(2, 4))
        assert lattice_points(p) == list(p.vertices)

    def test_point(self):
        p = base_polytope(uniform_matroid(1, 1))
        assert lattice_points(p) == [(1,)]

    def test_polytope_from_lattice_points_roundtrip(self):
        p = flag_polytope(four_flag_matroid())
        q = polytope_from_lattice_points(lattice_points(p))
        assert q.vertices == p.vertices


class TestEdges:
    def test_u24_twelve_edges(self):
        p = base_polytope(uniform_matroid(2, 4))
        assert len(edges(p)) == 12
        assert edge_direction_check(p)

    def test_flag_example_quadrilateral(self):
        p = flag_polytope(four_flag_matroid())
        assert len(edges(p)) == 4
        assert edge_direction_check(p, ranks=(1, 2))

    def test_bad_segment_fails(self):
        # a forged table: no generalized permutohedron has this edge
        p = LatticePolytope(2, [(0, 0), (1, 2)], (0, 1, 2, 3))
        v = edge_direction_check(p)
        assert not v and v.witness == ((0, 0), (1, 2))

    def test_edge_property_on_fixture_polytopes(self, fixtures):
        for m in fixtures.values():
            if m.n <= 6:
                assert edge_direction_check(base_polytope(m))

    def test_triangle_off_the_root_system_fails(self):
        # no edge of this triangle is a root, so no vertex has a root step;
        # with z the maxima of its subset sums, the tight-set test finds
        # no edge either, so a check of the edges found would pass
        verts = [(2, 1, 0), (0, 2, 1), (1, 0, 2)]
        z = [max(col) for col in zip(*map(lattice._subset_sums, verts))]
        p = LatticePolytope(3, verts, z)
        v = edge_direction_check(p)
        assert not v and v.witness == ((0, 2, 1), (1, 0, 2))

    def test_point_list_with_a_non_vertex_is_not_pointed(self):
        # (1, 1) is the midpoint of the other two, so its root steps run
        # both ways along e_0 - e_1
        p = LatticePolytope(2, [(0, 2), (1, 1), (2, 0)], (0, 2, 2, 2))
        with pytest.raises(NotPointed):
            p.neighbours()
        with pytest.raises(NotPointed):
            edge_direction_check(p)


class TestCones:
    def test_flag_cone_at_vertex(self):
        p = flag_polytope(four_flag_matroid())
        c = cone_at_vertex(p, (1, 2, 0))
        assert c.rays() == ((0, -1, 1), (1, -1, 0))

    def test_segment_cone(self):
        p = base_polytope(uniform_matroid(1, 2))
        c = cone_at_vertex(p, (1, 0))
        assert c.rays() == ((-1, 1),)

    def test_not_a_vertex(self):
        p = base_polytope(uniform_matroid(1, 2))
        with pytest.raises(NotAVertex):
            cone_at_vertex(p, (0, 0))

    def test_pointedness(self):
        assert is_pointed(RationalCone([(1, 0), (0, 1)]))
        assert not is_pointed(RationalCone([(1, 0), (-1, 0)]))
        with pytest.raises(NotPointed):
            RationalCone([(1, 1), (-1, -1)]).rays()

    def test_hilbert_series_of_a_line_raises(self):
        with pytest.raises(NotPointed):
            hilbert_series(RationalCone([(1, 0), (-1, 0), (0, 1)]))


def lp_cone_at_vertex(p, v):
    """Oracle: the cone over all u - v, its rays found by the simplex."""
    return RationalCone([tuple(a - b for a, b in zip(u, v))
                         for u in p.vertices if u != v], n=p.n)


def assert_edge_rays_match_lp(p):
    for v in p.vertices:
        assert cone_at_vertex(p, v).rays() == lp_cone_at_vertex(p, v).rays()


@st.composite
def arc_directions(draw):
    """Some e_i - e_j over 2-6 nodes, each possibly doubled; cycles,
    antiparallel pairs, repeats and shortcuts are all allowed.  Half the
    draws point every arc along a random order of the nodes, so that they
    have no cycle and often several shortcuts."""
    n, size = draw(st.integers(2, 6)), draw(st.integers(0, 8))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1),
                                   st.integers(1, 2))
                         .filter(lambda a: a[0] != a[1]),
                         min_size=size, max_size=size))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        arcs = [(*sorted((i, j), key=rank.__getitem__), c)
                for i, j, c in arcs]
    return n, [tuple(c * ((k == i) - (k == j)) for k in range(n))
               for i, j, c in arcs]


class TestEdgeCones:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=1, max_size=3)))
    def test_edge_rays_match_lp_on_random_matroids(self, rows):
        assert_edge_rays_match_lp(base_polytope(matroid_from_matrix(rows)))

    @pytest.mark.parametrize("name", ["flag_rank12", "flag_u23_5"])
    def test_edge_rays_match_lp_on_flag_polytopes(self, name):
        path = Path(__file__).resolve().parent.parent / "fixtures"
        flag = as_flag_matroid(load_object(path / f"{name}.json"))
        assert_edge_rays_match_lp(flag_polytope(flag))

    def test_rays_need_no_lp(self, monkeypatch):
        p = flag_polytope(four_flag_matroid())

        def no_lp(*args):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(linalg, "lp_nonneg_solve", no_lp)
        assert cone_at_vertex(p, (1, 2, 0)).rays() == \
            ((0, -1, 1), (1, -1, 0))

    def test_two_cycle_is_not_pointed(self):
        with pytest.raises(NotPointed):
            edge_cone([(1, -1, 0), (-1, 1, 0)], 3)

    def test_longer_cycle_is_not_pointed(self):
        with pytest.raises(NotPointed):
            edge_cone([(1, -1, 0), (0, 1, -1), (-1, 0, 1)], 3)

    def test_direction_off_the_root_system_fails(self):
        with pytest.raises(CheckFailed) as info:
            edge_cone([(1, -1, 0), (1, 1, -2)], 3)
        assert info.value.stage == "vertex cone"
        assert info.value.witness == (1, 1, -2)

    def test_redundant_direction_fails(self):
        # e_0 - e_2 = (e_0 - e_1) + (e_1 - e_2) is not an extreme ray
        with pytest.raises(CheckFailed) as info:
            edge_cone([(1, -1, 0), (0, 1, -1), (1, 0, -1)], 3)
        assert info.value.stage == "vertex cone"
        assert info.value.witness == (1, 0, -1)

    def test_shortcut_over_a_longer_path_fails(self):
        # 0 -> 2 and 0 -> 3 both shortcut the path 0 -> 1 -> 2 -> 3; the
        # witness is the first of them in generator order
        with pytest.raises(CheckFailed) as info:
            edge_cone([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1),
                       (1, 0, 0, -1), (1, 0, -1, 0)], 4)
        assert info.value.stage == "vertex cone"
        assert info.value.witness == (1, 0, -1, 0)

    def test_directions_are_made_primitive(self):
        cone = edge_cone([(0, 2, -2), (1, 0, -1)], 3)
        assert cone.rays() == ((0, 1, -1), (1, 0, -1))

    def test_direction_of_another_length_fails(self):
        with pytest.raises(DimensionMismatch):
            edge_cone([(1, -1, 0), (1, -1)], 3)
        # an arc past the n nodes is refused before any closure is built
        with pytest.raises(DimensionMismatch):
            edge_cone([(1, -1, 0), (0, 0, 1, -1)], 3)

    @settings(max_examples=300, deadline=None)
    @given(arc_directions())
    def test_verdicts_match_the_lp_oracle(self, case):
        n, dirs = case
        lp = RationalCone(dirs, n=n)
        if not is_pointed(lp):
            # a cycle wins over any shortcut
            with pytest.raises(NotPointed):
                edge_cone(dirs, n)
            return
        gens = lp.generators
        redundant = [g for k, g in enumerate(gens)
                     if linalg.in_cone(gens[:k] + gens[k + 1:], g)]
        if redundant:
            with pytest.raises(CheckFailed) as info:
                edge_cone(dirs, n)
            assert info.value.stage == "vertex cone"
            assert info.value.witness == redundant[0]
        else:
            assert edge_cone(dirs, n).rays() == lp.rays()


def fraction_numerator(cone, denom):
    """Oracle: the Hilbert numerator from the rational triangulation and
    the integer diagonalization points, over the full denominator."""
    n = cone.n
    rays = cone.rays()
    if not rays:  # the apex alone
        total = KRational(LaurentPoly.one(n))
    else:
        total = KRational(LaurentPoly.zero(n))
        for piece in _fraction_pieces(rays):
            num = LaurentPoly(n, {})
            for b in _diagonalized_points(piece):
                num = num + LaurentPoly.monomial(b)
            total = total + KRational(num, piece.generators)
    for a in denom:
        total = total * LaurentPoly.one_minus(a)
    return total.as_laurent()


def sum_zero_box(n):
    """Points of {-1, 0, 1}^n with coordinate sum 0, where every vertex
    cone of a generalized permutohedron lies."""
    return [pt for pt in itertools.product((-1, 0, 1), repeat=n)
            if sum(pt) == 0]


def assert_arc_pieces_are_exact(p, denom_at):
    """At every vertex: the arc pieces partition the cone, every forest
    point is the diagonalization point, and hilbert_numerator equals the
    rational oracle against the chart and against doubled characters,
    which leave every generator over to divide off exactly."""
    box = sum_zero_box(p.n)
    for v in p.vertices:
        cone = cone_at_vertex(p, v)
        pieces = triangulate(cone)
        for pt in box:
            inside = (linalg.in_cone(cone.rays(), pt) if cone.rays()
                      else not any(pt))
            multiplicity = sum(piece_membership(q, pt) for q in pieces)
            assert multiplicity == (1 if inside else 0), (v, pt)
        for piece in pieces:
            if piece.generators:
                points = piece.parallelepiped_points()
                assert len(points) == 1
                assert points == _diagonalized_points(piece)
        denom = denom_at(v)
        assert hilbert_numerator(cone, denom) == \
            fraction_numerator(cone, denom), v
        doubled = [tuple(2 * x for x in a) for a in denom]
        assert hilbert_numerator(cone, doubled) == \
            fraction_numerator(cone, doubled), v


def chart_of_vertex(n, v):
    """Chart characters e_j - e_i at a 0/1 vertex: i in the basis, j
    outside it."""
    return [tuple((k == j) - (k == i) for k in range(n))
            for i in range(n) if v[i] for j in range(n) if not v[j]]


def chart_of_flag_vertex(n, ranks, v):
    """Chart characters at the vertex e_F of a flag polytope: the levels
    of F are the sets of coordinates at least s - level."""
    chain = [tuple(i for i in range(n) if v[i] >= len(ranks) - level)
             for level in range(len(ranks))]
    pairs = {(i, j) for part in chain for i in part
             for j in range(n) if j not in part}
    return [tuple((k == j) - (k == i) for k in range(n))
            for i, j in sorted(pairs)]


def matrix_rows(n):
    """Two or three rows of n entries; most have rank 2 or 3, so their
    base polytopes hold several points."""
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=2, max_size=3)


class TestArcCones:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 5).flatmap(matrix_rows))
    def test_arc_path_matches_oracle_on_random_matroids(self, rows):
        p = base_polytope(matroid_from_matrix(rows))
        assert_arc_pieces_are_exact(p, lambda v: chart_of_vertex(p.n, v))

    @pytest.mark.parametrize("k, n", [(2, 4), (2, 5)])
    def test_arc_path_matches_oracle_on_uniform_matroids(self, k, n):
        p = base_polytope(uniform_matroid(k, n))
        assert_arc_pieces_are_exact(p, lambda v: chart_of_vertex(n, v))

    @pytest.mark.parametrize("name", ["flag_rank12", "flag_u23_5"])
    def test_arc_path_matches_oracle_on_flag_polytopes(self, name):
        path = Path(__file__).resolve().parent.parent / "fixtures"
        flag = as_flag_matroid(load_object(path / f"{name}.json"))
        p = flag_polytope(flag)
        assert_arc_pieces_are_exact(
            p, lambda v: chart_of_flag_vertex(p.n, flag.ranks, v))

    def test_vertex_cones_need_no_rational_algebra(self, monkeypatch):
        p = base_polytope(uniform_matroid(3, 6))
        cones = [cone_at_vertex(p, v) for v in p.vertices]

        def forbidden(*args):
            raise AssertionError("rational linear algebra ran")

        for module, name in ((oracle, "nullspace"), (linalg, "row_reduce"),
                             (oracle, "integer_diagonalize"),
                             (oracle, "solve_exact")):
            monkeypatch.setattr(module, name, forbidden)
        for cone, v in zip(cones, p.vertices):
            assert sum(len(q.parallelepiped_points())
                       for q in triangulate(cone)) == 6
            hilbert_numerator(cone, chart_of_vertex(6, v))

    def test_cyclic_arcs_are_not_a_forest(self):
        piece = HalfOpenSimplicialCone(
            [(1, -1, 0), (0, 1, -1), (-1, 0, 1)], (False, True, False))
        with pytest.raises(CheckFailed) as info:
            piece.parallelepiped_points()
        assert info.value.stage == "parallelepiped points"

    def test_forest_point_sums_open_generators(self):
        piece = HalfOpenSimplicialCone(
            [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, -1, 1)],
            (True, False, True))
        assert piece.parallelepiped_points() == [(1, -1, -1, 1)]
        assert _diagonalized_points(piece) == [(1, -1, -1, 1)]

    def test_leftover_that_does_not_divide_raises(self):
        # Hilb of the ray cone is 1 / (1 - t^r), and 1 - t^(r + s) is not a
        # multiple of 1 - t^r
        cone = edge_cone([(1, -1, 0)], 3)
        with pytest.raises(InexactDivision):
            hilbert_numerator(cone, [(1, 0, -1)])


class TestTriangulate:
    def test_simplicial_stays_closed(self):
        c = RationalCone([(1, 0), (1, 2)])
        pieces = triangulate(c)
        assert len(pieces) == 1
        assert pieces[0].open_flags == (False, False)

    def test_redundant_generator_removed(self):
        c = RationalCone([(1, 0), (0, 1), (1, 1)])
        pieces = triangulate(c)
        assert len(pieces) == 1
        assert pieces[0].generators == ((0, 1), (1, 0))

    def test_cone_over_square_two_pieces_partition(self):
        c = RationalCone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
        pieces = triangulate(c)
        assert len(pieces) == 2
        bound = 3
        for pt in itertools.product(range(-bound, bound + 1), repeat=3):
            inside = linalg.in_cone(c.generators, pt)
            multiplicity = sum(piece_membership(p, pt) for p in pieces)
            assert multiplicity == (1 if inside else 0), pt

    def test_matroid_vertex_cone_partition(self):
        p = base_polytope(uniform_matroid(2, 4))
        c = cone_at_vertex(p, p.vertices[0])
        pieces = triangulate(c)
        for pt in itertools.product(range(-2, 3), repeat=4):
            inside = linalg.in_cone(c.generators, pt)
            multiplicity = sum(piece_membership(q, pt) for q in pieces)
            assert multiplicity == (1 if inside else 0), pt


class TestParallelepiped:
    def test_unimodular_single_point(self):
        c = HalfOpenSimplicialCone([(1, 0), (0, 1)], (False, False))
        assert c.parallelepiped_points() == [(0, 0)]

    def test_dependent_generators_raise(self):
        # without the check this returns a wrong point set
        c = HalfOpenSimplicialCone([(1, 0), (2, 0)], (False, False))
        with pytest.raises(FlagTutteError):
            c.parallelepiped_points()

    def test_index_two(self):
        c = HalfOpenSimplicialCone([(1, 0), (1, 2)], (False, False))
        assert c.parallelepiped_points() == [(0, 0), (1, 1)]

    def test_open_facet_shifts(self):
        # lambda_1 in (0,1]: residue (0,0) shifts to u1, residue (1,1) stays
        c = HalfOpenSimplicialCone([(1, 0), (1, 2)], (True, False))
        assert c.parallelepiped_points() == [(1, 0), (1, 1)]

    def test_open_facets_match_membership(self):
        for flags in [(False, False), (True, False), (False, True),
                      (True, True)]:
            c = HalfOpenSimplicialCone([(1, 0), (1, 2)], flags)
            expected = [pt for pt in itertools.product(range(0, 3),
                                                       range(-1, 4))
                        if piece_membership(c, pt)
                        and all(l < 1 or (fl and l == 1) for l, fl in zip(
                            oracle.solve_exact([[1, 1], [0, 2]], list(pt)),
                            flags))]
            assert set(c.parallelepiped_points()) == set(expected)

    def test_lower_dimensional_generators(self):
        c = HalfOpenSimplicialCone([(1, 1, 0), (1, -1, 0)], (False, False))
        pts = c.parallelepiped_points()
        assert pts == [(0, 0, 0), (1, 0, 0)]


def reference_is_forest(arcs):
    """The forest test by a list of component bitmasks, merged per arc."""
    comps = []
    for i, j in arcs:
        ci = next((c for c in comps if c >> i & 1), 1 << i)
        cj = next((c for c in comps if c >> j & 1), 1 << j)
        if ci == cj:
            return False
        comps = [c for c in comps if c != ci and c != cj] + [ci | cj]
    return True


def reference_primitive(v):
    """The primitive vector by a two-argument gcd folded over the entries."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def reference_clear_denominators(v):
    """The integer direction by a two-argument lcm folded over the
    denominators."""
    scale = 1
    for x in v:
        d = Fraction(x).denominator
        scale = scale * d // gcd(scale, d)
    return reference_primitive([int(Fraction(x) * scale) for x in v])


def reference_tight_masks(n, z, v):
    """The tight sets at v by a sum of 1 << m over the tight masks m, each
    subset sum taken on its own."""
    sums = [sum(x for i, x in enumerate(v) if m >> i & 1)
            for m in range(1 << n)]
    return sum(1 << m for m in range(1 << n) if sums[m] == z[m])


@st.composite
def generated_polytopes(draw):
    """A base, flag or polymatroid polytope on 2-5 elements from random
    integer rows."""
    n = draw(st.integers(2, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["base", "flag", "polymatroid"]))
    if kind == "base":
        return base_polytope(matroid_from_matrix(
            draw(st.lists(row, min_size=1, max_size=3))))
    if kind == "flag":
        rows = draw(st.lists(row, min_size=n - 1, max_size=n - 1))
        prefixes = draw(st.sets(st.integers(1, n - 1), min_size=1))
        try:
            return flag_polytope(flag_from_subspace_flag(
                [rows[:k] for k in sorted(prefixes)]))
        except OutOfRange:  # a prefix of zero rows spans nothing
            assume(False)
    # one block of 1-2 vectors in 3 dimensions per element
    vector = st.lists(st.integers(-1, 1), min_size=3, max_size=3)
    return poly_base_polytope(polymatroid_from_subspaces(draw(st.lists(
        st.lists(vector, min_size=1, max_size=2), min_size=n, max_size=n))))


def reference_neighbours(p):
    """The edges by common tight sets: two vertices share an edge exactly
    when no third vertex is tight on every set tight at both, the face the
    common tight sets cut out being then their segment."""
    tight = [reference_tight_masks(p.n, p.z, v) for v in p.vertices]
    out = [[] for _ in tight]
    for i, j in itertools.combinations(range(len(tight)), 2):
        common = tight[i] & tight[j]
        if not any(common & t == common for k, t in enumerate(tight)
                   if k != i and k != j):
            out[i].append(j)
            out[j].append(i)
    return tuple(map(tuple, out))


def fixture_polytopes():
    """The base polytope of every conftest matroid, and of every fixture
    document that is a matroid, flag matroid or polymatroid, both as that
    object and as its polymatroid (on up to 8 elements, as the polymatroid
    vertices come from a scan over all orderings)."""
    out = {name: base_polytope(m) for name, m in fixture_matroids().items()}
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            obj = load_object(path)
        except FlagTutteError:  # a document that is no polytope's
            continue
        if isinstance(obj, (Matroid, FlagMatroid)):
            out[path.name] = flag_polytope(as_flag_matroid(obj))
        if isinstance(obj, (Matroid, FlagMatroid, Polymatroid)) and obj.n <= 8:
            out[f"{path.name} as a polymatroid"] = poly_base_polytope(
                as_polymatroid(obj))
    return out


class TestRootStepEdges:
    @settings(max_examples=60, deadline=None)
    @given(generated_polytopes())
    def test_edges_match_the_tight_set_reference(self, p):
        assert p.neighbours() == reference_neighbours(p)

    def test_edges_match_the_tight_set_reference_on_fixtures(self):
        polytopes = fixture_polytopes()
        assert len(polytopes) == 34
        for name, p in polytopes.items():
            assert p.neighbours() == reference_neighbours(p), name

    @pytest.mark.parametrize("n", range(2, 11))
    def test_edges_match_the_tight_set_reference_on_uniform(self, n):
        p = base_polytope(uniform_matroid(2, n))
        assert p.neighbours() == reference_neighbours(p)

    @settings(max_examples=30, deadline=None)
    @given(generated_polytopes())
    def test_edge_rays_match_lp(self, p):
        # the simplex prunes all V - 1 differences at each of V vertices,
        # about 40 s on one polytope of 76 vertices, so the few past 30
        # are left to the tight-set reference above
        assume(len(p.vertices) <= 30)
        assert_edge_rays_match_lp(p)

    @settings(max_examples=60, deadline=None)
    @given(generated_polytopes())
    def test_edge_direction_check_passes(self, p):
        assert edge_direction_check(p)


class TestStandardLibraryHelpers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    max_size=8))
    @example([])
    @example([(0, 1), (1, 0)])
    @example([(0, 1), (1, 2), (2, 0)])
    @example([(3, 1), (0, 2), (2, 3)])
    def test_forest_test_agrees_with_the_reference(self, arcs):
        assert lattice._is_forest(arcs) == reference_is_forest(arcs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-12, 12).map(lambda x: 6 * x)
                    | st.integers(-40, 40), max_size=6))
    @example([])
    @example([0, 0, 0])
    @example([-4, 6, 0])
    @example([-3])
    @example([7, -7, 14])
    def test_primitive_agrees_with_the_reference(self, v):
        assert linalg.primitive(v) == reference_primitive(v)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=12, min_value=-20,
                                 max_value=20) | st.integers(-9, 9),
                    max_size=6))
    @example([])
    @example([0, 0])
    @example([Fraction(-1, 2), Fraction(3, 4), 0])
    @example([Fraction(-6), Fraction(9, 3)])
    def test_clear_denominators_agrees_with_the_reference(self, v):
        assert oracle.clear_denominators(v) == \
            reference_clear_denominators(v)


class TestHilbert:
    def test_flag_cone_series(self):
        c = RationalCone([(1, -1, 0), (0, -1, 1)])
        h = hilbert_series(c)
        assert h.num == LaurentPoly.one(3)
        assert h.den == ((0, -1, 1), (1, -1, 0))

    def test_regular_cone_series(self):
        c = RationalCone([(1, 0), (1, 1)])
        h = hilbert_series(c)
        assert h.num == LaurentPoly.one(2)
        assert h.den == ((1, 0), (1, 1))

    def test_index_two_cone_series(self):
        c = RationalCone([(1, 0), (1, 2)])
        h = hilbert_series(c)
        assert h.num == LaurentPoly(2, {(0, 0): 1, (1, 1): 1})
        assert h.den == ((1, 0), (1, 2))

    def test_index_two_truncation_oracle(self):
        # compare against direct membership up to degree 6 in t1
        c = RationalCone([(1, 0), (1, 2)])
        pieces = triangulate(c)
        for x in range(0, 7):
            for y in range(-7, 8):
                inside = linalg.in_cone(c.generators, (x, y))
                mult = sum(piece_membership(q, (x, y)) for q in pieces)
                assert mult == (1 if inside else 0)

    def test_zero_dim_cone(self):
        c = RationalCone([], n=2)
        h = hilbert_series(c)
        assert h.num == LaurentPoly.one(2) and h.den == ()

    def test_sum_of_pieces_equals_reduced_series(self):
        p = flag_polytope(four_flag_matroid())
        for v in p.vertices:
            c = cone_at_vertex(p, v)
            total = KRational(LaurentPoly.zero(3))
            for piece in triangulate(c):
                num = LaurentPoly(3, {})
                for b in piece.parallelepiped_points():
                    num = num + LaurentPoly.monomial(b)
                total = total + KRational(num, piece.generators,
                                          reduce=False)
            assert total == hilbert_series(c)


class TestHilbertNumerator:
    def test_zero_dim(self):
        c = RationalCone([], n=2)
        assert hilbert_numerator(c, [(1, -1)]) == \
            LaurentPoly.one_minus((1, -1))

    def test_flag_example_value(self):
        p = flag_polytope(four_flag_matroid())
        c = cone_at_vertex(p, (1, 2, 0))
        # chart characters of the flag 2 < 12: pairs (2,1), (2,3), (1,3)
        denom = [(1, -1, 0), (0, -1, 1), (-1, 0, 1)]
        assert hilbert_numerator(c, denom) == LaurentPoly.one_minus((-1, 0, 1))

    def test_segment_cone_value(self):
        p = base_polytope(uniform_matroid(1, 2))
        c = cone_at_vertex(p, (1, 0))
        assert hilbert_numerator(c, [(-1, 1)]) == LaurentPoly.one(2)


class TestMinkowski:
    def test_decompose_interior_point(self):
        ps = [base_polytope(uniform_matroid(1, 3)), base_polytope(m2_rank2())]
        parts = decompose_lattice_point((1, 1, 1), ps)
        assert len(parts) == 2
        assert tuple(map(sum, zip(*parts))) == (1, 1, 1)
        assert ps[0].contains(parts[0]) and ps[1].contains(parts[1])

    def test_vertex_decomposes_into_vertices(self):
        ps = [base_polytope(uniform_matroid(1, 3)), base_polytope(m2_rank2())]
        s = minkowski_sum(ps)
        for v in s.vertices:
            parts = decompose_lattice_point(v, ps)
            assert parts[0] in ps[0].vertices and parts[1] in ps[1].vertices

    def test_single_summand(self):
        p = base_polytope(uniform_matroid(1, 3))
        assert decompose_lattice_point((0, 1, 0), [p]) == [(0, 1, 0)]

    def test_sum_equals_flag_polytope(self):
        f = four_flag_matroid()
        ps = [base_polytope(m) for m in f.constituents]
        assert minkowski_sum(ps).vertices == flag_polytope(f).vertices

    def test_all_points_decompose_small(self, fixtures_n5):
        small = {k: m for k, m in fixtures_n5.items() if m.n == 4}
        for m1 in small.values():
            for m2 in small.values():
                ps = [base_polytope(m1), base_polytope(m2)]
                s = minkowski_sum(ps)
                for q in lattice_points(s):
                    decompose_lattice_point(q, ps)

    def test_no_decomposition_raises(self):
        p = base_polytope(uniform_matroid(1, 2))
        with pytest.raises(NoDecomposition):
            decompose_lattice_point((5, 5), [p])


def reference_decompose(point, polytopes):
    """The split by backtracking with the Minkowski sum of the summands
    left as the pruning test, or None."""
    n = polytopes[0].n
    suffix_z = [None] * (len(polytopes) + 1)
    acc = (0,) * (1 << n)
    for i in range(len(polytopes) - 1, -1, -1):
        acc = tuple(a + b for a, b in zip(acc, polytopes[i].z))
        suffix_z[i] = acc
    parts = []

    def rec(i, residual):
        if i == len(polytopes) - 1:
            if lattice._gp_contains(n, polytopes[i].z, residual):
                parts.append(residual)
                return True
            return False
        for s in lattice_points(polytopes[i]):
            rest = tuple(a - b for a, b in zip(residual, s))
            if lattice._gp_contains(n, suffix_z[i + 1], rest):
                parts.append(s)
                if rec(i + 1, rest):
                    return True
                parts.pop()
        return False

    return parts if rec(0, tuple(point)) else None


def reference_is_normal(p, kmax):
    """Normality by a search memoized on (target, k, start index)."""
    pts = lattice.lattice_points(p)
    ptset = set(pts)
    memo = {}

    def can(target, k, start):
        if k == 1:
            return target in ptset
        key = (target, k, start)
        if key not in memo:
            memo[key] = any(
                can(tuple(a - b for a, b in zip(target, pts[idx])), k - 1,
                    idx)
                for idx in range(start, len(pts)))
        return memo[key]

    for k in range(2, kmax + 1):
        for q in lattice.lattice_points_of_table(p.n, [k * x for x in p.z]):
            if not can(q, k, 0):
                return Verdict(False, f"point of {k}P not a {k}-fold sum",
                               witness=q)
    return Verdict(True)


class TestSharedSearch:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 5).flatmap(matrix_rows), st.integers(2, 3),
           st.data())
    def test_normality_agrees_with_the_reference(self, rows, kmax, data):
        # with one lattice point of P dropped now and then, so that the
        # verdicts can fail and the witnesses differ from None
        p = base_polytope(matroid_from_matrix(rows))
        pts = lattice_points(p)
        drop = data.draw(st.sampled_from([None] + pts))
        kept = [q for q in pts if q != drop]
        with mock.patch.object(lattice, "lattice_points", lambda q: kept):
            got, want = is_normal(p, kmax), reference_is_normal(p, kmax)
        assert (bool(got), got.witness) == (bool(want), want.witness)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 5).flatmap(
        lambda n: st.tuples(matrix_rows(n), matrix_rows(n))),
        st.lists(st.integers(0, 1), min_size=2, max_size=3), st.data())
    def test_splits_agree_with_the_reference(self, matrices, picks, data):
        # two or three summands out of two polytopes on one ground set, so
        # a summand is often the one before it; every point of their sum
        # splits, points of a box around it mostly not
        polytopes = [base_polytope(matroid_from_matrix(rows))
                     for rows in matrices]
        ps = [polytopes[k] for k in picks]
        box = data.draw(st.lists(st.tuples(*[st.integers(-1, 3)] * ps[0].n),
                                 max_size=5))
        for point in lattice_points(minkowski_sum(ps)) + box:
            want = reference_decompose(point, ps)
            if want is None:
                with pytest.raises(NoDecomposition):
                    decompose_lattice_point(point, ps)
                continue
            parts = decompose_lattice_point(point, ps)
            assert tuple(map(sum, zip(*parts))) == point
            assert all(q.contains(x) for q, x in zip(ps, parts))
            # both searches find the split first in lex order
            assert parts == want


class TestNormality:
    def test_u24_normal(self):
        assert is_normal(base_polytope(uniform_matroid(2, 4)), 3)

    def test_non_normal_simplex(self, monkeypatch):
        # integral polymatroid polytopes are normal, so P loses a point
        p = base_polytope(uniform_matroid(1, 2))
        monkeypatch.setattr(lattice, "lattice_points", lambda q: [(0, 1)])
        v = is_normal(p, 2)
        assert not v and v.witness == (1, 1)

    def test_matroid_polytopes_normal(self, fixtures_n5):
        for m in fixtures_n5.values():
            if m.n <= 4:
                assert is_normal(base_polytope(m), 3)


class TestCountShifted:
    def test_point_always_one(self):
        p = base_polytope(uniform_matroid(1, 1))
        for u in range(3):
            for t in range(3):
                assert count_shifted(p, u, t) == 1

    def test_segment_base(self):
        p = base_polytope(uniform_matroid(1, 2))
        assert count_shifted(p, 0, 0) == 2

    def test_segment_stretched(self):
        p = base_polytope(uniform_matroid(1, 2))
        assert count_shifted(p, u=0, t=1) == 3

    def test_negative_shift(self):
        p = base_polytope(uniform_matroid(1, 2))
        with pytest.raises(NegativeShift):
            count_shifted(p, -1, 0)

    def test_count_matches_enumeration(self, fixtures_n5):
        from flagtutte.lattice import (count_lattice_points_of_table,
                                       lattice_points_of_table)
        for m in fixtures_n5.values():
            if m.n > 4:
                continue
            p = base_polytope(m)
            full = (1 << m.n) - 1
            for u in range(3):
                for t in range(3):
                    z = list(p.z)
                    for mask in range(1, full):
                        z[mask] += u
                    z[full] += u - t
                    got = count_lattice_points_of_table(m.n, tuple(z))
                    assert got == len(lattice_points_of_table(m.n, tuple(z)))
                    assert got == count_shifted(p, u, t)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=1, max_size=3)), st.integers(0, 2), st.integers(0, 2))
    def test_walk_matches_box_filter(self, rows, u, t):
        # oracle: every x in the box z'(E) - z'(E - i) <= x_i <= z'({i})
        # that satisfies the table, found without the table walk
        from flagtutte.lattice import (_gp_contains,
                                       count_lattice_points_of_table,
                                       lattice_points_of_table)
        p = base_polytope(matroid_from_matrix(rows))
        n, full = p.n, (1 << p.n) - 1
        z = [v + u for v in p.z]
        z[0], z[full] = 0, p.z[full] + u - t
        box = [range(z[full] - z[full ^ (1 << i)], z[1 << i] + 1)
               for i in range(n)]
        expect = [x for x in itertools.product(*box)
                  if _gp_contains(n, z, x)]
        assert lattice_points_of_table(n, tuple(z)) == expect
        assert count_lattice_points_of_table(n, tuple(z)) == len(expect)
        assert count_shifted(p, u, t) == len(expect)

    def test_empty_ground_set_is_out_of_range(self):
        from flagtutte.lattice import (count_lattice_points_of_table,
                                       lattice_points_of_table)
        for call in (lambda: lattice_points_of_table(0, (0,)),
                     lambda: count_lattice_points_of_table(0, (0,)),
                     lambda: polytope_from_lattice_points([()])):
            with pytest.raises(OutOfRange):
                call()
