import random

import pytest
from hypothesis import example, given, settings, strategies as st

from flagtutte.errors import (BadWeights, DimensionMismatch, InexactDivision,
                              PoleAtOne)
from flagtutte.laurent import (KRational, LaurentPoly, _poly_product,
                               binomial_fraction_sum, evaluate_at_one,
                               format_poly)


def mono(*exp):
    return LaurentPoly.monomial(exp)


def rand_poly(rng, nvars, nterms, span=3, cmax=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[e] = terms.get(e, 0) + rng.randint(-cmax, cmax)
    return LaurentPoly(nvars, terms)


class TestRingOps:
    def test_figure_product(self):
        # t1^2*t2 * (1 - t1^-1*t3) = t1^2*t2 - t1*t2*t3
        left = LaurentPoly.one_minus((-1, 0, 1)) * mono(2, 1, 0)
        assert left == LaurentPoly(3, {(2, 1, 0): 1, (1, 1, 1): -1})

    def test_additive_inverse(self):
        rng = random.Random(7)
        for _ in range(25):
            p = rand_poly(rng, 3, 5)
            assert (p + (-p)).is_zero()

    def test_ring_axioms_fuzzed(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b, c = (rand_poly(rng, 2, 4) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LaurentPoly.one(2) + LaurentPoly.one(3)

    def test_power(self):
        p = LaurentPoly.one_minus((1,))
        assert p ** 3 == LaurentPoly(1, {(0,): 1, (1,): -3, (2,): 3, (3,): -1})

    def test_specialize_is_a_ring_map(self):
        rng = random.Random(13)
        w = (0, 1, 2)
        for _ in range(25):
            a, b = rand_poly(rng, 3, 5), rand_poly(rng, 3, 5)
            assert (a * b).specialize(w) == a.specialize(w) * b.specialize(w)
            assert (a + b).specialize(w) == a.specialize(w) + b.specialize(w)
            assert a.specialize(w).subs_one() == a.subs_one()
        # t1*t3 and t2^2 meet at z^2 and cancel
        p = LaurentPoly(3, {(1, 0, 1): 1, (0, 2, 0): -1, (0, 0, 0): 4})
        assert p.specialize((0, 1, 2)) == LaurentPoly(1, {(0,): 4})
        with pytest.raises(DimensionMismatch):
            p.specialize((0, 1))

    def test_no_zero_coefficients_stored(self):
        p = LaurentPoly(2, {(0, 0): 1}) - LaurentPoly.one(2)
        assert p.terms == {}

    def test_canonical_term_order(self):
        p = LaurentPoly(2, {(1, 0): 2, (-1, 3): 1, (0, 0): -1})
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == sorted(exps)


class TestExactDivide:
    def test_geometric(self):
        num = LaurentPoly(1, {(0,): 1, (2,): -1})  # 1 - t^2
        assert num.exact_divide((1,)) == LaurentPoly(1, {(0,): 1, (1,): 1})

    def test_multiply_back_roundtrip(self):
        # the lex oracle divides by any polynomial
        rng = random.Random(3)
        for _ in range(40):
            q = rand_poly(rng, 2, 3)
            r = rand_poly(rng, 2, 3)
            if q.is_zero():
                continue
            assert (q * r)._lex_divide(q) == r

    def test_inexact_detected(self):
        with pytest.raises(InexactDivision):
            LaurentPoly.one(1).exact_divide((1,))

    def test_laurent_normalization(self):
        # (t1 - t3)^2 * t2 / (1 - t1^-1 t3) recovers t1^2 t2 - t1 t2 t3
        sq = (mono(1, 0, 0) - mono(0, 0, 1)) ** 2 * mono(0, 1, 0)
        quot = sq.exact_divide((-1, 0, 1))
        assert quot * LaurentPoly.one_minus((-1, 0, 1)) == sq
        assert quot == LaurentPoly(3, {(2, 1, 0): 1, (1, 1, 1): -1})


def laurent_polys(nvars, span=3, max_terms=6):
    exps = st.tuples(*[st.integers(-span, span)] * nvars)
    return st.dictionaries(exps, st.integers(-4, 4), max_size=max_terms).map(
        lambda terms: LaurentPoly(nvars, terms))


def lex_quotient(num, a):
    """num / (1 - t^a) by lex elimination, or None if it is not exact."""
    try:
        return num._lex_divide(LaurentPoly.one_minus(a))
    except InexactDivision:
        return None


def fast_quotient(num, a):
    """num.exact_divide(a), or None if it raises InexactDivision."""
    try:
        return num.exact_divide(a)
    except InexactDivision:
        return None


def directions(n):
    """Exponents a of 1 - t^a, a = 0 and non-primitive ones included."""
    return st.tuples(*[st.integers(-3, 3)] * n)


class TestBinomialDivide:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        laurent_polys(n), laurent_polys(n), laurent_polys(n, max_terms=2),
        directions(n))),
        st.booleans())
    @example((LaurentPoly(2, {(0, 0): 1, (1, 0): 2}), LaurentPoly.zero(2),
              LaurentPoly(2, {(2, 0): -1}), (2, 0)), False)
    @example((LaurentPoly(3, {(0, 1, 0): 1, (1, 0, -1): -3}),
              LaurentPoly(3, {(0, 0, 0): 1}), LaurentPoly.zero(3),
              (0, -3, 1)), True)
    @example((LaurentPoly(3, {(0, 1, 0): 1, (1, 0, -1): -3}),
              LaurentPoly(3, {(0, 0, 0): 1}), LaurentPoly.zero(3),
              (0, -3, 1)), False)
    def test_divisible_by_agrees_with_lex(self, case, multiple):
        # p.residue(a) == q.residue(a) exactly when 1 - t^a divides q - p,
        # for q = p + m*(1 - t^a) + extra (or p + m + extra), also for
        # directions that are not primitive, such as (2, 0) or (0, -3, 1)
        p, m, extra, a = case
        if not any(a):
            with pytest.raises(ZeroDivisionError):
                p.residue(a)
            return
        q = p + (m * LaurentPoly.one_minus(a) if multiple else m) + extra
        assert (p.residue(a) == q.residue(a)) == \
            (lex_quotient(q - p, a) is not None)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        laurent_polys(n), directions(n))))
    def test_exact_multiple_agrees_with_lex(self, case):
        p, a = case
        if not any(a):
            with pytest.raises(ZeroDivisionError):
                p.exact_divide(a)
            return
        num = p * LaurentPoly.one_minus(a)
        assert num.exact_divide(a) == lex_quotient(num, a) == p

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        laurent_polys(n), directions(n).filter(any),
        st.tuples(*[st.integers(-4, 4)] * n),
        st.integers(-3, 3).filter(bool))),
        st.booleans())
    @example((LaurentPoly(2, {(0, 0): 1, (1, 0): 2}), (2, 0), (2, 0), -1),
             False)
    @example((LaurentPoly(3, {(0, 1, 0): 1}), (0, -3, 1), (1, 0, -1), 2),
             True)
    def test_perturbed_multiple_agrees_with_lex(self, case, keeps_sums):
        # a bare monomial breaks a line sum; a monomial times (1 - t^a)
        # keeps the line sums at zero and stays divisible
        p, a, e, c = case
        extra = LaurentPoly.monomial(e, c)
        if keeps_sums:
            extra = extra * LaurentPoly.one_minus(a)
        num = p * LaurentPoly.one_minus(a) + extra
        fast = fast_quotient(num, a)
        assert fast == lex_quotient(num, a)
        assert (fast is not None) == keeps_sums

    def test_running_sum_fills_gaps(self):
        # (1 - t^3) / (1 - t) = 1 + t + t^2: one line, quotient wider
        # than the dividend
        num = LaurentPoly(1, {(0,): 1, (3,): -1})
        assert num.exact_divide((1,)) == \
            LaurentPoly(1, {(0,): 1, (1,): 1, (2,): 1})

    def test_line_not_summing_to_zero(self):
        num = LaurentPoly(2, {(0, 0): 1, (1, -1): -1, (0, 1): 1})
        with pytest.raises(InexactDivision):
            num.exact_divide((1, -1))


class TestKRational:
    def test_common_denominator_sum(self):
        # 1/(1-t1) + 1/(1-t2) = (2 - t1 - t2)/((1-t1)(1-t2))
        a = KRational(LaurentPoly.one(2), [(1, 0)])
        b = KRational(LaurentPoly.one(2), [(0, 1)])
        s = a + b
        assert s.den == ((0, 1), (1, 0))
        assert s.num == LaurentPoly(2, {(0, 0): 2, (1, 0): -1, (0, 1): -1})

    def test_reduction_cancels_factors(self):
        num = LaurentPoly.one_minus((1, 0)) * LaurentPoly.one(2)
        kr = KRational(num, [(1, 0)])
        assert kr.is_laurent() and kr.as_laurent() == LaurentPoly.one(2)

    def test_zero_numerator_clears_denominator(self):
        kr = KRational(LaurentPoly.zero(2), [(1, 0), (0, 1)])
        assert kr.den == ()

    def test_rational_equality_cross_multiplied(self):
        one = LaurentPoly.one(1)
        a = KRational(LaurentPoly(1, {(0,): 1, (1,): 1}), [(2,)])  # (1+t)/(1-t^2)
        b = KRational(one, [(1,)])  # 1/(1-t)
        assert a == b

    def test_as_laurent_raises_when_uncancelled(self):
        kr = KRational(LaurentPoly.one(1), [(1,)])
        with pytest.raises(InexactDivision):
            kr.as_laurent()


small_exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
small_polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3),
    max_size=4).map(lambda terms: LaurentPoly(2, terms))


class TestBinomialFractionSum:
    @settings(max_examples=80, deadline=None)
    @given(small_polys, st.lists(st.lists(small_exps, max_size=2),
                                 min_size=1, max_size=3),
           st.lists(small_exps, max_size=2), st.data())
    def test_sum_with_a_known_polynomial_value(self, p, dens, times, data):
        # the last term, over every other denominator at once, makes the
        # whole sum equal p
        nums = [data.draw(small_polys) for _ in dens]
        last = [a for den in dens for a in den]
        tail = p * _poly_product(2, last)
        for k, num in enumerate(nums):
            others = [a for j, den in enumerate(dens) if j != k for a in den]
            tail = tail - num * _poly_product(2, others)
        terms = list(zip(nums, dens)) + [(tail, last)]
        assert binomial_fraction_sum(2, terms, times) == \
            p * _poly_product(2, times)

    def test_sum_that_is_not_a_polynomial_raises(self):
        one = LaurentPoly.one(1)
        with pytest.raises(InexactDivision):
            binomial_fraction_sum(1, [(one, [(1,)]), (one, [(2,)])])

    def test_empty_sum_is_zero(self):
        assert binomial_fraction_sum(2, [], [(1, 0)]).is_zero()


class TestEvaluateAtOne:
    def test_binomial_vanishes(self):
        f = LaurentPoly.one_minus((-1, 0, 1))  # 1 - t1^-1 t3
        assert evaluate_at_one(f, (1, 2, 3)) == 0

    def test_exact_quotient_value(self):
        f = KRational(LaurentPoly(1, {(0,): 1, (2,): -1}), [(1,)])
        assert evaluate_at_one(f, (1,)) == 2
        assert evaluate_at_one(f, (5,)) == 2

    def test_pole_detected(self):
        f = KRational(LaurentPoly(2, {(0, 0): 2, (1, 0): -1, (0, 1): -1}),
                      [(1, 0), (0, 1)])
        with pytest.raises(PoleAtOne) as info:
            evaluate_at_one(f, (1, 2))
        assert info.value.num_order == 1 and info.value.den_order == 2

    def test_bad_weights(self):
        f = KRational(LaurentPoly.one(2), [(1, -1)])
        with pytest.raises(BadWeights):
            evaluate_at_one(f, (3, 3))

    def test_weight_independence_on_laurent_values(self):
        rng = random.Random(5)
        for _ in range(20):
            p = rand_poly(rng, 3, 4)
            vals = {evaluate_at_one(p, w)
                    for w in [(1, 2, 3), (2, 5, 11), (7, 3, 1)]}
            assert vals == {p.subs_one()}

    def test_krational_weight_independence_when_globally_laurent(self):
        # (1-t1^2 t2)/(1-t1) * 1/(1-t1) with numerator divisible twice
        num = LaurentPoly.one_minus((1, 0)) ** 2 * LaurentPoly(2, {(3, 1): 5})
        f = KRational(num, [(1, 0), (1, 0)], reduce=False)
        for w in [(1, 2), (4, 9), (2, -1)]:
            assert evaluate_at_one(f, w) == 5


class TestFormat:
    def test_pretty(self):
        p = LaurentPoly(3, {(0, 0, 0): 1, (-1, 0, 1): -1})
        assert format_poly(p) == "1 - t1^-1*t3"
