import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from flagtutte.errors import (EmptyBases, ExchangeViolation,
                              MismatchedGroundSets, NotAMatroid, OutOfRange,
                              UnequalCardinality, Verdict)
from flagtutte.matroid import (Matroid, _first_drop, _first_supermodular,
                               check_rank_axioms, cover_by_independent,
                               gale_leq, gale_max, gale_max_family,
                               matroid_from_bases, matroid_from_graph,
                               matroid_from_matrix, uniform_matroid,
                               union_rank)

from conftest import (PAPPUS8_ROWS, k4, m2_rank2, non_pappus, oracle_rank,
                      oracle_simple_cycles_k4, oracle_union_rank,
                      two_component_matroid)


class TestConstruction:
    def test_uniform_accepted(self):
        m = matroid_from_bases(4, itertools.combinations(range(4), 2))
        assert m == uniform_matroid(2, 4)
        assert len(m.bases) == 6

    def test_non_pappus_accepted_with_76_bases(self):
        assert len(non_pappus().bases) == 84 - 8 == 76

    def test_mixed_cardinality_rejected(self):
        with pytest.raises((UnequalCardinality, ExchangeViolation)):
            matroid_from_bases(2, [(0,), (0, 1)])

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyBases):
            matroid_from_bases(2, [])

    def test_exchange_violation_carries_witness(self):
        with pytest.raises(ExchangeViolation) as info:
            matroid_from_bases(4, [(0, 1), (2, 3)])
        err = info.value
        assert err.element in err.basis1

    def test_out_of_range_element(self):
        with pytest.raises(OutOfRange):
            matroid_from_bases(2, [(0, 5)])

    def test_duplicates_are_canonicalized(self):
        m = matroid_from_bases(2, [(0,), (0,), (1,)])
        assert m.bases == ((0,), (1,))


class TestRank:
    def test_uniform_rank_is_min(self):
        assert uniform_matroid(2, 4).rank({0, 1, 2}) == 2

    def test_empty_set_rank_zero(self, fixtures):
        for m in fixtures.values():
            assert m.rank(set()) == 0

    def test_k4_triangle_rank(self):
        # spanning-forest size of the triangle 0-1-2, edges 0,1,3
        assert k4().rank({0, 1, 3}) == 2

    def test_rank_matches_definition_oracle(self, fixtures):
        for m in fixtures.values():
            if m.n > 6:
                continue
            for size in range(m.n + 1):
                for s in itertools.combinations(range(m.n), size):
                    assert m.rank(s) == oracle_rank(m.bases, s)

    def test_rank_out_of_range(self):
        with pytest.raises(OutOfRange):
            uniform_matroid(1, 2).rank({3})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=1, max_size=4)))
    def test_rank_table_is_largest_basis_intersection(self, rows):
        m = matroid_from_matrix(rows)
        masks = [sum(1 << e for e in b) for b in m.bases]
        assert m.rank_table() == tuple(
            max(bin(mask & b).count("1") for b in masks)
            for mask in range(1 << m.n))

    def test_rank_table_beyond_the_limit_allocates_nothing(self):
        # 2^40 entries would exhaust memory; the guard raises first
        m = matroid_from_bases(40, [[0]])  # beyond MAX_TABLE_ELEMENTS
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange):
                m.rank_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestVerdict:
    def test_truth_is_ok(self):
        assert bool(Verdict(False)) is False
        assert bool(Verdict(False, "why", witness=(1,))) is False
        assert bool(Verdict(True)) is True

    def test_fields_defaults_and_text(self):
        v = Verdict(False, "bad", witness=(0, 1))
        assert (v.ok, v.reason, v.witness) == (False, "bad", (0, 1))
        assert Verdict(True) == Verdict(True, "", None)
        assert repr(v) == "Verdict(ok=False, reason='bad', witness=(0, 1))"
        assert str(v) == "FAIL: bad witness=(0, 1)"
        assert str(Verdict(True, "ok")) == "pass (ok)"
        assert hash(v) == hash(Verdict(False, "bad", (0, 1)))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Verdict(True).ok = False


class TestRankAxioms:
    def test_uniform_table_passes(self):
        m = uniform_matroid(2, 4)
        assert check_rank_axioms(m.rank_table(), 4)

    def test_nonzero_empty_rank_fails_r1(self):
        v = check_rank_axioms((1, 1, 1, 2), 2)
        assert not v and v.reason.startswith("R1")
        assert v.witness[0] == ()

    def test_square_cardinality_fails_submodularity(self):
        table = [0, 1, 1, 4]  # r(X) = |X|^2 on n=2, polymatroid mode
        v = check_rank_axioms(table, 2, polymatroid=True)
        assert not v and v.reason.startswith("R3")
        assert set(v.witness) == {(0,), (1,)}

    def test_derived_tables_satisfy_axioms(self, fixtures):
        for m in fixtures.values():
            if m.n <= 8:
                assert check_rank_axioms(m.rank_table(), m.n)

    def test_decreasing_table_fails_monotonicity(self):
        # r({0}) = 2 > r({0, 1}) = 1 passes R1 in polymatroid mode
        v = check_rank_axioms((0, 2, 1, 1), 2, polymatroid=True)
        assert not v and v.reason.startswith("R2")
        assert v.witness == ((0,), (0, 1))


def reference_first_drop(table, n):
    """Every single-element step (m, m | 1 << i) that lowers the table,
    taken in (m, i) order; the first of them, or None."""
    drops = [(m, m | 1 << i) for m in range(1 << n) for i in range(n)
             if not m >> i & 1 and table[m | 1 << i] < table[m]]
    return drops[0] if drops else None


def is_monotone_on_nested_pairs(table, n):
    return all(table[x] <= table[y] for y in range(1 << n)
               for x in range(1 << n) if x & y == x)


class TestFirstDrop:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 3), min_size=1 << n,
                             max_size=1 << n))))
    def test_first_step_down_and_none_iff_monotone(self, case):
        n, table = case
        drop = _first_drop(table, n)
        assert drop == reference_first_drop(table, n)
        # single-element steps decide monotonicity over all nested pairs
        assert (drop is None) == is_monotone_on_nested_pairs(table, n)


def reference_first_supermodular(table, n):
    """The local submodularity loop check_rank_axioms ran before: the
    first (m + i, m + j), m ascending, then i < j, with
    r(m + i + j) + r(m) > r(m + i) + r(m + j), or None."""
    for m in range(1 << n):
        for i in range(n):
            if m >> i & 1:
                continue
            for j in range(i + 1, n):
                if m >> j & 1:
                    continue
                x, y = m | 1 << i, m | 1 << j
                if table[x | y] + table[m] > table[x] + table[y]:
                    return x, y
    return None


@st.composite
def monotone_tables(draw, max_n=6):
    """(n, table) with r(empty) = 0 and r monotone: a coverage function
    r(S) = |union of A_e over e in S|, which is submodular, or each entry
    the largest one below it plus 0..2, which often is not; now and then
    one entry raised by one."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        cover = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            table[m] = table[m ^ low] | cover[low.bit_length() - 1]
        table = [t.bit_count() for t in table]
    else:
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            table[m] = max(table[m ^ 1 << i] for i in range(n)
                           if m >> i & 1) + draw(st.integers(0, 2))
    if draw(st.booleans()):
        m = draw(st.integers(1, (1 << n) - 1))
        table[m] += 1
    return n, table


class TestSubmodularity:
    @settings(max_examples=300, deadline=None)
    @given(monotone_tables())
    def test_verdict_and_witness_match_the_loop(self, case):
        n, table = case
        first = reference_first_supermodular(table, n)
        v = check_rank_axioms(table, n, polymatroid=True)
        if _first_drop(table, n) is not None:
            assert v.reason.startswith("R2")
        elif first is None:
            assert v
        else:
            assert v.reason.startswith("R3")
            assert v.witness == tuple(tuple(b for b in range(n) if x >> b & 1)
                                      for x in first)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-2, 3), min_size=1 << n,
                             max_size=1 << n))))
    def test_slices_find_the_loop_witness_on_any_table(self, case):
        # strided pairs and block pairs both run from n = 3 on
        n, table = case
        first = _first_supermodular(table, n)
        if first is not None:
            m, i, j = first
            first = m | 1 << i, m | 1 << j
        assert first == reference_first_supermodular(table, n)


def loop_first_drop(table, n):
    """The per-mask loop _first_drop ran before it read slice pairs."""
    bits = [1 << i for i in range(n)]
    for m, r in enumerate(table):
        for b in bits:
            if not m & b and table[m | b] < r:
                return m, m | b
    return None


class TestFirstDropSlices:
    @settings(max_examples=300, deadline=None)
    @given(monotone_tables(max_n=8))
    def test_slices_find_the_loop_witness_on_monotone_tables(self, case):
        # a raised entry can lower a step anywhere in the table
        n, table = case
        assert _first_drop(table, n) == loop_first_drop(table, n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-2, 3), min_size=1 << n,
                             max_size=1 << n))))
    def test_slices_find_the_loop_witness_on_any_table(self, case):
        n, table = case
        assert _first_drop(table, n) == loop_first_drop(table, n)

    def test_witness_is_smallest_mask_then_element(self):
        # drops at (3, 7) through element 2 and at (4, 6) through
        # element 1: the loop names m = 3 first
        n = 3
        table = [0, 1, 1, 2, 2, 2, 1, 1]
        assert loop_first_drop(table, n) == (3, 7)
        assert _first_drop(table, n) == (3, 7)


class TestMinorsAndDuality:
    def test_delete_uniform(self):
        assert uniform_matroid(2, 4).delete(3) == uniform_matroid(2, 3)

    def test_contract_uniform(self):
        assert uniform_matroid(2, 4).contract(3) == uniform_matroid(1, 3)

    def test_contract_loop_equals_delete(self):
        m = matroid_from_bases(3, [(0,), (1,)])  # element 2 is a loop
        assert m.contract(2) == m.delete(2)

    def test_delete_coloop_drops_rank(self):
        m = matroid_from_bases(3, [(0, 2), (1, 2)])  # element 2 is a coloop
        assert m.delete(2) == uniform_matroid(1, 2)

    def test_minor_ranks_match_rank_formulas(self, fixtures):
        for m in fixtures.values():
            if m.n > 6 or m.n < 2:
                continue
            for e in range(m.n):
                dele, cont = m.delete(e), m.contract(e)
                keep = [x for x in range(m.n) if x != e]
                for size in range(m.n):
                    for s in itertools.combinations(keep, size):
                        relab = [x if x < e else x - 1 for x in s]
                        assert dele.rank(relab) == m.rank(s)
                        assert cont.rank(relab) == m.rank(set(s) | {e}) - m.rank({e})

    def test_dual_examples(self):
        assert uniform_matroid(2, 4).dual() == uniform_matroid(2, 4)
        assert uniform_matroid(1, 3).dual() == uniform_matroid(2, 3)
        free2 = uniform_matroid(2, 2)
        assert free2.dual().bases == ((),)

    def test_dual_involution_and_minor_duality(self, fixtures):
        for m in fixtures.values():
            if m.n > 6:
                continue
            assert m.dual().dual() == m
            for e in range(m.n):
                assert m.delete(e).dual() == m.dual().contract(e)


class TestCircuits:
    def test_u23_single_circuit(self):
        assert uniform_matroid(2, 3).circuits() == [(0, 1, 2)]

    def test_free_matroid_all_coloops(self):
        m = uniform_matroid(4, 4)
        assert m.coloops() == (0, 1, 2, 3)
        assert m.circuits() == []

    def test_k4_circuits_are_the_seven_cycles(self):
        got = {frozenset(c) for c in k4().circuits()}
        assert got == oracle_simple_cycles_k4()
        assert len(got) == 7

    def test_loops_coloops(self):
        m = matroid_from_bases(3, [(0,), (1,)])
        loops, coloops = m.loops_coloops()
        assert loops == (2,) and coloops == ()

    def test_cocircuits_are_dual_circuits(self, fixtures):
        for m in fixtures.values():
            if m.n <= 5:
                assert m.cocircuits() == m.dual().circuits()


def reference_circuits(m):
    """Minimal dependent sets by size, skipping supersets of those found."""
    table = m.rank_table()
    circuits = []
    circuit_masks = []
    for size in range(1, m.n + 1):
        for comb in itertools.combinations(range(m.n), size):
            mask = sum(1 << e for e in comb)
            if table[mask] == size:
                continue  # independent
            if any(cm & mask == cm for cm in circuit_masks):
                continue  # contains a smaller circuit
            circuit_masks.append(mask)
            circuits.append(comb)
    return sorted(circuits)


@st.composite
def matrices_with_loops_and_parallels(draw):
    """Rows of a random matrix whose columns are extended by a zero column
    (a loop) and by a copy of a column (a parallel pair) when drawn."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n,
                                  max_size=n), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows = [row + [0] for row in rows]
    if draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        rows = [row + [row[c]] for row in rows]
    return rows


class TestCircuitRule:
    @settings(max_examples=150, deadline=None)
    @given(matrices_with_loops_and_parallels())
    def test_matches_reference_on_generated_matroids(self, rows):
        m = matroid_from_matrix(rows)
        assert m.circuits() == reference_circuits(m)

    def test_matches_reference_on_fixtures(self, fixtures):
        for m in fixtures.values():
            assert m.circuits() == reference_circuits(m)

    def test_loop_and_parallel_pair(self):
        m = matroid_from_matrix([[1, 0, 1, 0], [0, 1, 0, 0]])
        assert m.circuits() == [(0, 2), (3,)]


class TestComponents:
    def test_uniform_connected(self):
        assert uniform_matroid(2, 4).connected_components() == [(0, 1, 2, 3)]

    def test_two_component_fixture(self):
        assert two_component_matroid().connected_components() == [(0, 1), (2, 3)]

    def test_u11_single_component(self):
        assert uniform_matroid(1, 1).connected_components() == [(0,)]

    def test_loops_and_coloops_are_singletons(self):
        m = matroid_from_bases(3, [(0, 2), (1, 2)])  # coloop 2
        assert (2,) in m.connected_components()


class TestGale:
    def test_u23_natural(self):
        assert gale_max(uniform_matroid(2, 3), (0, 1, 2)) == (1, 2)

    def test_u23_reversed(self):
        assert gale_max(uniform_matroid(2, 3), (2, 1, 0)) == (0, 1)

    def test_m2_natural(self):
        assert gale_max(m2_rank2(), (0, 1, 2)) == (0, 2)

    def test_dominance_over_all_orderings(self, fixtures):
        for m in fixtures.values():
            if m.n > 6:
                continue
            for order in itertools.permutations(range(m.n)):
                best = gale_max(m, order)
                pos = [0] * m.n
                for p, e in enumerate(order):
                    pos[e] = p
                assert m.is_basis(best)
                assert all(gale_leq(b, best, pos) for b in m.bases)

    def test_gale_max_checks_its_result(self):
        # an unvalidated non-matroid: the greedy basis does not dominate
        with pytest.raises(NotAMatroid):
            gale_max(Matroid(4, [(0, 1), (2, 3)]), (0, 2, 3, 1))

    def test_non_matroid_family_fails_some_ordering(self):
        family = [(0, 1), (2, 3)]
        failures = 0
        for order in itertools.permutations(range(4)):
            try:
                gale_max_family(4, family, order)
            except NotAMatroid:
                failures += 1
        assert failures > 0

    def test_matroid_family_never_fails(self, fixtures_n5):
        for m in fixtures_n5.values():
            for order in itertools.permutations(range(m.n)):
                gale_max_family(m.n, m.bases, order)


class TestUnion:
    def test_two_u12_cover_ground_set(self):
        ms = [uniform_matroid(1, 2)] * 2
        assert union_rank(ms, {0, 1}) == 2
        assert union_rank(ms, {0, 1}) == oracle_union_rank(ms, {0, 1})

    def test_single_matroid_is_identity(self, fixtures_n5):
        for m in fixtures_n5.values():
            for size in range(m.n + 1):
                for s in itertools.combinations(range(m.n), size):
                    assert union_rank([m], s) == m.rank(s)

    def test_rank_zero_union(self):
        z = matroid_from_bases(2, [()])
        assert union_rank([z, z], {0}) == 0

    def test_union_matches_oracle(self, fixtures_n5):
        small = [m for m in fixtures_n5.values() if m.n <= 4][:5]
        for m in small:
            for reps in (2, 3):
                ms = [m] * reps
                full = tuple(range(m.n))
                assert union_rank(ms, full) == oracle_union_rank(ms, full)

    def test_mismatched_ground_sets(self):
        with pytest.raises(MismatchedGroundSets):
            union_rank([uniform_matroid(1, 2), uniform_matroid(1, 3)], {0})

    def test_cover_two_u12(self):
        parts = cover_by_independent([uniform_matroid(1, 2)] * 2)
        assert parts is not None
        assert sorted(e for p in parts for e in p) == [0, 1]
        assert all(len(p) <= 1 for p in parts)

    def test_cover_single_u12_impossible(self):
        assert cover_by_independent([uniform_matroid(1, 2)]) is None

    def test_cover_free_matroid(self):
        assert cover_by_independent([uniform_matroid(3, 3)]) == ((0, 1, 2),)

    def test_cover_iff_rank_condition(self, fixtures_n5):
        for m in fixtures_n5.values():
            if m.n > 4:
                continue
            for reps in (1, 2):
                ms = [m] * reps
                feasible = all(
                    bin(a).count("1") <= reps * m.rank_mask(a)
                    for a in range(1 << m.n))
                assert (cover_by_independent(ms) is not None) == feasible


class TestRepresentableAndGraphic:
    def test_small_matrix_gives_u23(self):
        assert matroid_from_matrix([(1, 0, 1), (0, 1, 1)]) == uniform_matroid(2, 3)

    def test_rank3_matrix_on_8_elements(self):
        m = matroid_from_matrix(PAPPUS8_ROWS)
        assert m.n == 8 and m.k == 3

    def test_k4_has_16_spanning_trees(self):
        assert len(k4().bases) == 16  # Cayley: 4^2

    def test_zero_matrix_gives_single_empty_basis(self):
        assert matroid_from_matrix([(0, 0), (0, 0)]).bases == ((),)

    def test_rational_entries(self):
        m = matroid_from_matrix([("1/2", "1/3"), ("1/4", "1/6")])
        # rows proportional: rank 1, parallel elements
        assert m == uniform_matroid(1, 2)

    def test_graph_with_loop_and_multiedge(self):
        m = matroid_from_graph([(0, 0), (0, 1), (0, 1)])
        assert m.loops() == (0,)
        assert m.bases == ((1,), (2,))

    def test_graphic_rank_is_forest_size(self):
        m = k4()
        assert m.k == 3
        assert m.rank(range(6)) == 3


def frozenset_exchange_failures(family):
    """Reference: every (B1, B2, e) of a family of frozensets at which basis
    exchange fails."""
    return {(b1, b2, e) for b1 in family for b2 in family for e in b1 - b2
            if not any((b1 - {e}) | {f} in family for f in b2 - b1)}


@st.composite
def basis_families(draw):
    """(n, a family of equal-size subsets of range(n)): most of the
    k-subsets, or the bases of a random column matroid with a few dropped."""
    if draw(st.booleans()):
        # families of 1-subsets or of (n-1)-subsets are all matroids
        n = draw(st.integers(4, 6))
        subsets = list(itertools.combinations(range(n),
                                              draw(st.integers(2, n - 2))))
        size = len(subsets) - draw(st.integers(0, len(subsets) - 1))
        return n, set(draw(st.permutations(subsets))[:size])
    n = draw(st.integers(2, 6))
    bases = matroid_from_matrix(draw(st.lists(
        st.lists(st.integers(-1, 1), min_size=n, max_size=n),
        min_size=1, max_size=n))).bases
    return n, set(bases) - draw(st.sets(st.sampled_from(bases),
                                        max_size=min(2, len(bases) - 1)))


class TestExchangeProperties:
    @settings(max_examples=200, deadline=None)
    @given(basis_families(), st.randoms(use_true_random=False))
    def test_mask_check_agrees_with_frozensets(self, case, rng):
        n, family = case
        failures = frozenset_exchange_failures(
            {frozenset(b) for b in family})
        order = sorted(family)
        rng.shuffle(order)
        try:
            m = matroid_from_bases(n, order)
        except ExchangeViolation as err:
            assert (frozenset(err.basis1), frozenset(err.basis2),
                    err.element) in failures
            with pytest.raises(ExchangeViolation) as again:
                matroid_from_bases(n, sorted(family))
            # the witness does not depend on the order of the input
            assert (again.value.basis1, again.value.basis2,
                    again.value.element) == (err.basis1, err.basis2,
                                             err.element)
        else:
            assert not failures
            assert set(m.bases) == set(family)

    def test_witness_is_in_the_labels_of_the_bases(self):
        # the check runs on masks over the labels the bases use, so the
        # label 10^11 - 1 takes bit 3, and the witness maps back to it
        big = 10**11 - 1
        for n, top in ((4, 3), (10**11, big)):
            with pytest.raises(ExchangeViolation) as err:
                matroid_from_bases(n, [[0, top], [1, 2]])
            assert (err.value.basis1, err.value.basis2,
                    err.value.element) == ([1, 2], [0, top], 1)

    def test_basis_exchange_on_all_fixtures(self, fixtures):
        for m in fixtures.values():
            family = {frozenset(b) for b in m.bases}
            for b1 in family:
                for b2 in family:
                    for e in b1 - b2:
                        assert any((b1 - {e}) | {f} in family
                                   for f in b2 - b1)

    def test_multi_element_symmetric_exchange_small(self, fixtures_n5):
        # optional stronger exchange: subsets trade symmetrically
        for m in fixtures_n5.values():
            family = {frozenset(b) for b in m.bases}
            for b1 in family:
                for b2 in family:
                    for size in range(1, len(b1 - b2) + 1):
                        for a in itertools.combinations(sorted(b1 - b2), size):
                            a = frozenset(a)
                            assert any(
                                (b1 - a) | ap in family and (b2 - ap) | a in family
                                for r in range(len(b2 - b1) + 1)
                                for ap in map(frozenset,
                                              itertools.combinations(sorted(b2 - b1), r))
                            )
