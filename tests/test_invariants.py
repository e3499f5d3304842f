import pytest
from hypothesis import given, settings, strategies as st

from flagtutte.invariants import (characteristic_poly, format_bivar,
                                  log_concavity, polymatroid_contract,
                                  polymatroid_delete, q_coefficients, qprime,
                                  qprime_delcon_check, qprime_of_polymatroid,
                                  slice_polytopes, ttoq_check, tutte_activity,
                                  tutte_delcon, tutte_eval,
                                  tutte_rank_nullity)
from flagtutte.lattice import base_polytope, flag_polytope
from flagtutte.laurent import LaurentPoly
from flagtutte.matroid import (matroid_from_bases, matroid_from_matrix,
                               uniform_matroid)
from flagtutte.polyflag import polymatroid_from_matroid, polymatroid_from_rank

from conftest import k4, oracle_independent_sets
from test_polyflag import subspace_polymatroid, four_flag_matroid

K4_TUTTE = LaurentPoly(2, {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4,
                            (0, 1): 2, (0, 2): 3, (0, 3): 1})


class TestFormatBivar:
    # the zero polynomial, constants, coefficients +-1 and larger, a
    # negative leading term, and exponents other than 1
    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({(0, 0): -3}, "-3"),
        ({(0, 0): 1}, "1"),
        ({(1, 0): 1}, "x"),
        ({(0, 1): -1}, "-y"),
        ({(1, 1): 1}, "xy"),
        ({(2, 0): 1, (1, 1): 4, (0, 3): 1}, "x^2 + 4xy + y^3"),
        ({(1, 0): -1, (0, 1): 1}, "-x + y"),
        ({(2, 3): -2, (0, 0): 7}, "-2x^2y^3 + 7"),
        ({(1, 1): -1, (0, 0): -1}, "-xy - 1"),
        ({(0, 2): 10 ** 30}, "1000000000000000000000000000000y^2"),
    ])
    def test_signed_sum(self, terms, text):
        assert format_bivar(LaurentPoly(2, terms)) == text


class TestTutteRoutes:
    def test_k4_value(self):
        assert tutte_rank_nullity(k4()) == K4_TUTTE

    def test_single_coloop(self):
        assert tutte_rank_nullity(uniform_matroid(1, 1)) == \
            LaurentPoly.monomial((1, 0))

    def test_u24_brute_force(self):
        # corank-nullity over the 16 subsets collapses to x^2+2x+2y+y^2
        expect = LaurentPoly(2, {(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})
        assert tutte_rank_nullity(uniform_matroid(2, 4)) == expect

    def test_three_routes_agree_on_k4(self):
        m = k4()
        assert tutte_rank_nullity(m) == tutte_delcon(m) == tutte_activity(m)

    def test_single_loop_is_y(self):
        m = matroid_from_bases(1, [()])
        assert tutte_delcon(m) == LaurentPoly.monomial((0, 1))
        assert tutte_rank_nullity(m) == LaurentPoly.monomial((0, 1))

    def test_three_routes_agree_everywhere(self, fixtures):
        for m in fixtures.values():
            t = tutte_rank_nullity(m)
            assert t == tutte_delcon(m), m
            assert t == tutte_activity(m), m

    def test_universality_at_two_two(self, fixtures):
        for m in fixtures.values():
            assert tutte_eval(m, (2, 2)) == 2 ** m.n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        min_size=1, max_size=3)))
    def test_routes_agree_on_random_matrices(self, rows):
        m = matroid_from_matrix(rows)
        t = tutte_rank_nullity(m)
        assert t == tutte_delcon(m) == tutte_activity(m)
        assert tutte_eval(m, (1, 1)) == len(m.bases)


class TestTutteEval:
    def test_k4_basis_count(self):
        assert tutte_eval(k4(), (1, 1)) == 16

    def test_u24_basis_count(self):
        assert tutte_eval(uniform_matroid(2, 4), (1, 1)) == 6

    def test_k4_independent_set_count(self):
        m = k4()
        count = len(oracle_independent_sets(m))
        assert count == 38
        assert tutte_eval(m, (2, 1)) == count

    def test_independent_set_count_everywhere(self, fixtures_n5):
        for m in fixtures_n5.values():
            assert tutte_eval(m, (2, 1)) == len(oracle_independent_sets(m))


class TestQPolynomials:
    def test_point_polytope(self):
        p = base_polytope(uniform_matroid(1, 1))
        assert q_coefficients(p) == {(0, 0): 1}
        assert qprime(p) == LaurentPoly.one(2)

    def test_u12_grid_and_qprime(self):
        from flagtutte.lattice import count_shifted
        p = base_polytope(uniform_matroid(1, 2))
        assert count_shifted(p, u=0, t=0) == 2
        assert count_shifted(p, u=0, t=1) == 3
        assert qprime(p) == LaurentPoly(2, {(1, 0): 1, (0, 1): 1})

    def test_flag_polytope_qprime_defined(self):
        from flagtutte.polyflag import polymatroid_of_flag
        p = flag_polytope(four_flag_matroid())
        qp = qprime(p)
        assert qp.terms  # well defined, fit verified internally
        assert qp == qprime_of_polymatroid(
            polymatroid_of_flag(four_flag_matroid()))

    def test_fit_overdetermination_guard(self):
        # tampering with the table must trip the verification grid
        p = base_polytope(uniform_matroid(1, 2))
        q_coefficients(p)  # sanity: the honest table fits


class TestTtoQ:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (1, 3), (2, 4), (1, 4),
                                     (3, 4), (1, 1), (2, 2)])
    def test_uniform(self, k, n):
        assert ttoq_check(uniform_matroid(k, n))

    def test_k4(self):
        assert ttoq_check(k4())

    def test_all_small_fixtures(self, fixtures_n5):
        for name, m in fixtures_n5.items():
            assert ttoq_check(m), name


class TestSliceRecurrence:
    def test_u12(self):
        p = polymatroid_from_matroid(uniform_matroid(1, 2))
        v = qprime_delcon_check(p, 0)
        assert v.ok
        lhs, rhs = v.witness
        assert lhs == rhs == LaurentPoly(2, {(1, 0): 1, (0, 1): 1})

    def test_subspace_poly_all_elements(self):
        p = subspace_polymatroid()
        for a in range(3):
            v = qprime_delcon_check(p, a)
            assert v.ok, format_bivar(v.witness[1])

    def test_rank_zero(self):
        p = polymatroid_from_rank(2, (0, 0, 0, 0))
        v = qprime_delcon_check(p, 0)
        assert v.ok and v.witness[0] == v.witness[1]

    def test_minor_rank_formulas(self):
        p = subspace_polymatroid()
        d, c = polymatroid_delete(p, 1), polymatroid_contract(p, 1)
        assert d.rank_table == (0, 2, 2, 3)   # restriction to {0, 2}
        assert c.rank_table == (0, 1, 0, 1)   # r(X + 1) - r(1)

    def test_slices_of_segment(self):
        p = polymatroid_from_matroid(uniform_matroid(1, 2))
        slices = slice_polytopes(p, 0)
        assert slices[0].vertices == ((1,),)   # x_0 = 0 forces x_1 = 1
        assert slices[1].vertices == ((0,),)

    def test_random_subspace_polymatroids(self):
        import random
        from fractions import Fraction
        from flagtutte.polyflag import polymatroid_from_subspaces
        rng = random.Random(99)
        checked = 0
        while checked < 30:
            n, amb = rng.choice([2, 3]), rng.choice([2, 3])
            blocks = [[[Fraction(rng.randint(-2, 2)) for _ in range(amb)]
                       for _ in range(rng.randint(1, 2))] for _ in range(n)]
            p = polymatroid_from_subspaces(blocks)
            if p.total_rank == 0:
                continue
            for a in range(p.n):
                assert qprime_delcon_check(p, a).ok, blocks
                checked += 1


class TestCharacteristic:
    def test_quadratic_example(self):
        t = LaurentPoly(2, {(2, 2): 1, (2, 1): 1, (1, 2): 1, (2, 0): 1,
                            (1, 1): 1})
        assert characteristic_poly(t, 3) == [-1, 2, -1]

    def test_cubic_example(self):
        t = LaurentPoly(2, {(3, 3): 1, (3, 2): 2, (2, 3): 2, (3, 1): 3,
                            (2, 2): 8, (1, 3): 3, (3, 0): 4, (2, 1): 8,
                            (1, 2): 8, (0, 3): 4, (2, 0): 2, (1, 1): 4,
                            (0, 2): 2})
        assert characteristic_poly(t, 5) == [-6, 16, -14, 4]

    def test_log_concavity_pass(self):
        assert log_concavity((1, 2, 1))

    def test_log_concavity_fail(self):
        v = log_concavity((1, 1, 2))
        assert not v and v.witness[0] == 1

    def test_characteristic_of_k4(self):
        # chromatic-like: (-1)^3 T(1-l, 0)
        chi = characteristic_poly(K4_TUTTE, 3)
        assert chi == [-6, 11, -6, 1]
        assert log_concavity(chi)
