import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagtutte.errors import (AxiomViolation, NotConcordant, NotNested,
                              OutOfRange, RankBoundTooSmall)
from flagtutte.matroid import gale_max, matroid_from_matrix, uniform_matroid
from flagtutte.polyflag import (enumerate_flags, flag_check_gale,
                                flag_from_constituents,
                                flag_from_subspace_flag, flag_weight,
                                is_quotient, lifted_independent, poly_bases,
                                polymatroid_from_matroid,
                                polymatroid_from_rank,
                                polymatroid_from_subspaces,
                                polymatroid_of_flag, polymatroid_to_matroid,
                                quotient_witness, vertex_from_ordering)

from conftest import PAPPUS8_ROWS, doubled_points_rank2, m2_rank2, non_pappus


def subspace_polymatroid():
    """Rank-3 polymatroid on [3]: subspaces <e1,e2>, <e1,e3>, <e1,e3>."""
    return polymatroid_from_subspaces([
        [(1, 0, 0), (0, 1, 0)],
        [(1, 0, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 0, 1)],
    ])


SUBSPACE_POLY_BASES = [(1, 0, 2), (1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def four_flag_matroid():
    return flag_from_constituents([uniform_matroid(1, 3), m2_rank2()])


class TestPolymatroid:
    def test_subspace_rank_table(self):
        p = subspace_polymatroid()
        assert p.total_rank == 3
        assert p.rank({0}) == 2 and p.rank({1}) == 2 and p.rank({2}) == 2
        assert p.rank({0, 1}) == 3 and p.rank({1, 2}) == 2

    def test_matroid_rank_table_accepted(self):
        m = uniform_matroid(2, 4)
        p = polymatroid_from_rank(4, m.rank_table())
        assert p.max_singleton_rank == 1

    def test_nonzero_empty_rank_rejected(self):
        with pytest.raises(AxiomViolation):
            polymatroid_from_rank(2, (1, 1, 1, 2))

    def test_subspace_poly_bases(self):
        assert poly_bases(subspace_polymatroid()) == SUBSPACE_POLY_BASES

    def test_u12_polymatroid_bases(self):
        p = polymatroid_from_matroid(uniform_matroid(1, 2))
        assert poly_bases(p) == [(0, 1), (1, 0)]

    def test_rank_zero_bases(self):
        p = polymatroid_from_rank(3, (0,) * 8)
        assert poly_bases(p) == [(0, 0, 0)]


class TestVertexFromOrdering:
    def test_subspace_natural_order(self):
        assert vertex_from_ordering(subspace_polymatroid(), (0, 1, 2)) == (2, 1, 0)

    def test_matches_gale_greedy_on_matroids(self, fixtures_n5):
        for m in fixtures_n5.values():
            p = polymatroid_from_matroid(m)
            for order in itertools.permutations(range(m.n)):
                v = vertex_from_ordering(p, order)
                basis = gale_max(m, tuple(reversed(order)))
                indicator = tuple(1 if e in basis else 0 for e in range(m.n))
                assert v == indicator

    def test_rank_zero_vertex(self):
        p = polymatroid_from_rank(2, (0, 0, 0, 0))
        assert vertex_from_ordering(p, (1, 0)) == (0, 0)

    def test_vertices_are_bases(self):
        p = subspace_polymatroid()
        bases = set(poly_bases(p))
        for order in itertools.permutations(range(3)):
            assert vertex_from_ordering(p, order) in bases


class TestQuotients:
    def test_uniform_quotient(self):
        assert is_quotient(uniform_matroid(1, 3), uniform_matroid(2, 3))

    def test_rank_increase_is_not_quotient(self):
        assert not is_quotient(uniform_matroid(2, 3), uniform_matroid(1, 3))

    def test_pappus_quotient_pair(self):
        assert is_quotient(doubled_points_rank2(), matroid_from_matrix(PAPPUS8_ROWS))

    def test_agrees_with_deletion_contraction_witness(self):
        # R = non-Pappus, M = R\9, N = R/9 exhibit the quotient pair
        r = non_pappus()
        m, n = r.delete(8), r.contract(8)
        assert n == doubled_points_rank2()
        assert is_quotient(n, m)
        assert len(m.bases) == 50

    def test_deletion_matches_honest_pappus_coordinates(self):
        # a genuine planar Pappus configuration for points 1..8
        cols = [(0, 0, 1), (1, 0, 1), (3, 0, 1), (0, 1, 1),
                (1, 1, 1), (3, 1, 1), (1, 1, 2), (3, 1, 2)]
        rows = [[c[i] for c in cols] for i in range(3)]
        assert matroid_from_matrix(rows) == non_pappus().delete(8)


def reference_quotient_witness(n_matroid, m_matroid):
    """The first nested pair X inside Y, Y ascending and X descending over
    the submasks of Y, with r_M(Y) - r_M(X) < r_N(Y) - r_N(X), or None."""
    rn, rm = n_matroid.rank_table(), m_matroid.rank_table()
    for y in range(1 << n_matroid.n):
        x = y
        while True:
            if rm[y] - rm[x] < rn[y] - rn[x]:
                return (tuple(i for i in range(n_matroid.n) if x >> i & 1),
                        tuple(i for i in range(n_matroid.n) if y >> i & 1))
            if x == 0:
                break
            x = (x - 1) & y
    return None


def rows_of(n, count):
    return st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                    min_size=count, max_size=count)


@st.composite
def candidate_chains(draw, length):
    """`length` column matroids on one ground set with nondecreasing ranks
    in 1..n-1: the row prefixes of one matrix, a chain of quotients, or
    matroids of separate matrices sorted by rank, mostly not concordant."""
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        rows = draw(rows_of(n, n - 1))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=length,
                                    max_size=length)))
        chain = [matroid_from_matrix(rows[:c]) for c in cuts]
    else:
        chain = sorted((matroid_from_matrix(draw(rows_of(n, c))) for c in
                        draw(st.lists(st.integers(1, n - 1),
                                      min_size=length, max_size=length))),
                       key=lambda m: m.k)
    assume(chain[0].k >= 1)
    return chain


class TestSingleStepQuotients:
    @settings(max_examples=150, deadline=None)
    @given(candidate_chains(2))
    def test_agrees_with_the_reference(self, pair):
        n, m = pair
        witness = quotient_witness(n, m)
        assert is_quotient(n, m) == (reference_quotient_witness(n, m)
                                     is None)
        if witness is not None:
            x, y = map(set, witness)
            assert x <= y and len(y - x) == 1
            assert m.rank(y) - m.rank(x) < n.rank(y) - n.rank(x)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 3).flatmap(candidate_chains))
    def test_concordance_by_consecutive_pairs(self, chain):
        failing = [(i, j) for i, j in
                   itertools.combinations(range(len(chain)), 2)
                   if reference_quotient_witness(chain[i], chain[j])
                   is not None]
        if not failing:
            assert flag_from_constituents(chain).constituents == tuple(chain)
            return
        with pytest.raises(NotConcordant) as info:
            flag_from_constituents(chain)
        i, j = info.value.i, info.value.j
        assert j == i + 1 and (i, j) in failing
        assert info.value.witness == quotient_witness(chain[i], chain[j])

    def test_failure_names_the_consecutive_pair(self):
        # U(1,3) is a quotient of U(2,3), and neither is one of the matroid
        # with the single basis {0, 1}: the pairs (0, 2) and (1, 2) fail
        from flagtutte.matroid import matroid_from_bases
        chain = [uniform_matroid(1, 3), uniform_matroid(2, 3),
                 matroid_from_bases(3, [(0, 1)])]
        assert reference_quotient_witness(chain[0], chain[2]) is not None
        with pytest.raises(NotConcordant) as info:
            flag_from_constituents(chain)
        assert (info.value.i, info.value.j) == (1, 2)
        assert info.value.witness == ((), (2,))


class TestFlagMatroids:
    def test_four_flag_example(self):
        f = four_flag_matroid()
        assert enumerate_flags(f) == [((0,), (0, 1)), ((0,), (0, 2)),
                                      ((1,), (0, 1)), ((2,), (0, 2))]

    def test_single_constituent_flags_are_bases(self):
        m = uniform_matroid(2, 4)
        f = flag_from_constituents([m])
        assert enumerate_flags(f) == [(b,) for b in m.bases]

    def test_decreasing_ranks_rejected(self):
        with pytest.raises(NotConcordant):
            flag_from_constituents([uniform_matroid(2, 3),
                                    uniform_matroid(1, 3)])

    def test_non_quotient_pair_rejected_with_witness(self):
        from flagtutte.matroid import matroid_from_bases
        n = matroid_from_bases(3, [(0,)])  # only element 0 is independent
        with pytest.raises(NotConcordant) as info:
            flag_from_constituents([n, uniform_matroid(2, 3)])
        assert info.value.witness is not None

    def test_flag_vectors(self):
        assert flag_weight(3, (1, 2), ((0,), (0, 1))) == (2, 1, 0)
        assert flag_weight(3, (1, 1, 2), ((0,), (0, 1))) == (3, 1, 0)

    def test_flag_chain_validated(self):
        with pytest.raises(NotNested):
            flag_check_gale(3, (1, 2), [((1,), (0, 2))])

    def test_repeated_ranks_force_equal_constituents(self):
        from flagtutte.matroid import matroid_from_bases
        m = uniform_matroid(1, 2)
        f = flag_from_constituents([m, m])
        assert f.ranks == (1, 1)
        with pytest.raises(NotConcordant):
            flag_from_constituents([m, matroid_from_bases(2, [(0,)])])


class TestFlagGale:
    def test_four_flag_family_passes(self):
        f = four_flag_matroid()
        assert flag_check_gale(3, (1, 2), enumerate_flags(f))

    def test_bad_family_fails_with_witness(self):
        flags = [((0,), (0, 1)), ((1,), (1, 2))]
        v = flag_check_gale(3, (1, 2), flags)
        assert not v and v.witness is not None

    def test_single_flag_passes(self):
        assert flag_check_gale(3, (1, 2), [((0,), (0, 1))])

    def test_eleven_elements_are_refused_before_the_walk(self):
        with pytest.raises(OutOfRange):
            flag_check_gale(11, (1,), [((0,),)])

    def test_all_concordant_fixtures_pass(self, fixtures_n5):
        pairs = [("u13", "u23"), ("u12", "u12"), ("u14", "u24")]
        for a, b in pairs:
            f = flag_from_constituents([fixtures_n5[a], fixtures_n5[b]])
            assert flag_check_gale(f.n, f.ranks, enumerate_flags(f))


class TestRepresentableConstructors:
    def test_flag_from_nested_spans(self):
        f = flag_from_subspace_flag([
            [(1, 1, 1)],
            [(1, 0, 0), (0, 1, 1)],
        ])
        assert f.constituents == four_flag_matroid().constituents

    def test_not_nested_rejected(self):
        with pytest.raises(NotNested):
            flag_from_subspace_flag([
                [(0, 1, 0)],
                [(1, 0, 0), (0, 0, 1)],
            ])

    def test_subspace_rank_table_values(self):
        assert subspace_polymatroid().rank_table == (0, 2, 2, 3, 2, 3, 2, 3)

    def test_single_block_rank(self):
        p = polymatroid_from_subspaces([[(1, 0), (0, 1)]])
        assert p.rank({0}) == 2


class TestPolymatroidOfFlag:
    def test_four_flag_polymatroid_bases(self):
        p = polymatroid_of_flag(four_flag_matroid())
        bases = poly_bases(p)
        assert (1, 1, 1) in bases
        assert len(bases) == 5
        assert bases == SUBSPACE_POLY_BASES

    def test_single_constituent_is_matroid(self):
        m = uniform_matroid(2, 4)
        p = polymatroid_of_flag(flag_from_constituents([m]))
        assert p == polymatroid_from_matroid(m)

    def test_doubled_u12(self):
        m = uniform_matroid(1, 2)
        p = polymatroid_of_flag(flag_from_constituents([m, m]))
        assert p.total_rank == 2
        # lattice points of the doubled segment; (1,1) is the tuple ({0},{1})
        assert poly_bases(p) == [(0, 2), (1, 1), (2, 0)]
        flags = enumerate_flags(flag_from_constituents([m, m]))
        assert flags == [((0,),), ((1,),)]
        assert sorted(flag_weight(2, (1, 1), f) for f in flags) == [(0, 2),
                                                                   (2, 0)]

    def test_poly_bases_are_polytope_lattice_points(self):
        # cross-module: the basis vectors must be exactly the lattice
        # points of the base polytope
        from flagtutte.lattice import lattice_points, poly_base_polytope
        for p in [subspace_polymatroid(),
                  polymatroid_of_flag(four_flag_matroid()),
                  polymatroid_from_matroid(uniform_matroid(2, 4))]:
            assert poly_bases(p) == lattice_points(poly_base_polytope(p))

    def test_lattice_points_are_basis_tuples(self):
        # every lattice point of the flag polymatroid is a sum of one
        # basis indicator per constituent, flags or not
        f = four_flag_matroid()
        sums = set()
        for b1 in f.constituents[0].bases:
            for b2 in f.constituents[1].bases:
                vec = [0] * f.n
                for e in b1:
                    vec[e] += 1
                for e in b2:
                    vec[e] += 1
                sums.add(tuple(vec))
        assert sorted(sums) == poly_bases(polymatroid_of_flag(f))


class TestLift:
    def test_u12_lift_is_u14(self):
        p = polymatroid_from_matroid(uniform_matroid(1, 2))
        assert polymatroid_to_matroid(p, 2) == uniform_matroid(1, 4)

    def test_lift_r1_is_identity(self, fixtures_n5):
        for m in fixtures_n5.values():
            if m.n > 4:
                continue
            p = polymatroid_from_matroid(m)
            assert polymatroid_to_matroid(p, 1) == m

    def test_subspace_lift_oracle(self):
        p = subspace_polymatroid()
        assert lifted_independent(p, 2, [(0, 0), (0, 1), (1, 0)])
        assert not lifted_independent(p, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_rank_bound_too_small(self):
        with pytest.raises(RankBoundTooSmall):
            polymatroid_to_matroid(subspace_polymatroid(), 1)

    def test_lift_bases_project_to_poly_bases(self):
        p = subspace_polymatroid()
        lift = polymatroid_to_matroid(p, 3)
        projected = set()
        for b in lift.bases:
            vec = [0] * p.n
            for x in b:
                vec[x // 3] += 1
            projected.add(tuple(vec))
        assert sorted(projected) == poly_bases(p)
