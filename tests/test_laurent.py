import operator
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from flagtutte.errors import (BadWeights, CheckFailed, DimensionMismatch,
                              InexactDivision, PoleAtOne)
from flagtutte.laurent import (LaurentPoly, _unpack,
                               binomial_fraction_sum, format_poly)
from flagtutte.oracle import KRational, evaluate_at_one, lex_divide


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
            assert lex_divide(q * r, q) == r

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
        return lex_divide(num, LaurentPoly.one_minus(a))
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


# --------------------------------------------- tuple-keyed reference

def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out)


def ref_mul(p, q):
    """The product term by term on exponent tuples."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(map(operator.add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return ref_clean(out)


def ref_shift(p, a):
    return {tuple(map(operator.add, e, a)): c for e, c in p.items()}


def ref_times_one_minus(p, exps):
    for a in exps:
        p = ref_mul(p, ref_add({(0,) * len(a): 1}, {tuple(a): -1}))
    return p


def ref_specialize(p, weights):
    out = {}
    for e, c in p.items():
        d = (sum(map(operator.mul, e, weights)),)
        out[d] = out.get(d, 0) + c
    return ref_clean(out)


def ref_residue(p, a):
    """Line sums keyed by the point r of r + Z*a with 0 <= r_p < a_p (or
    a_p < r_p <= 0) at the first p with a_p != 0."""
    pivot = next(i for i, x in enumerate(a) if x)
    out = {}
    for e, c in p.items():
        k = e[pivot] // a[pivot]
        r = tuple(x - k * y for x, y in zip(e, a))
        out[r] = out.get(r, 0) + c
    return ref_clean(out)


def ref_rename(p, targets):
    """Each t_i renamed t_{targets[i]}, on exponent tuples."""
    return {tuple(e[targets.index(q)] for q in range(len(e))): c
            for e, c in p.items()}


def exponents(n, far=True):
    """Small exponents, negative ones included, and now and then (when
    `far`) one far enough out that a key carries or borrows across many
    bits."""
    coord = st.integers(-6, 6)
    if far:
        coord = coord | st.sampled_from([-(2 ** 20), 2 ** 20 - 1])
    return st.tuples(*[coord] * n)


def term_dicts(n, far=True, max_terms=6):
    return st.dictionaries(exponents(n, far), st.integers(-4, 4),
                           max_size=max_terms).map(ref_clean)


def packed_cases(extra, far=True):
    """(n, tuple-keyed terms p and q, extra(n)) for n in 1..4."""
    return st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), term_dicts(n, far), term_dicts(n, far), extra(n)))


class TestPackedKeys:
    """The packed-key arithmetic against the tuple-keyed reference."""

    @settings(max_examples=200, deadline=None)
    @given(packed_cases(lambda n: st.lists(exponents(n), max_size=3)))
    def test_ring_operations(self, case):
        n, p, q, exps = case
        pp, qq = LaurentPoly(n, p), LaurentPoly(n, q)
        assert pp.terms == p
        assert (pp + qq).terms == ref_add(p, q)
        assert (pp - qq).terms == ref_add(p, {e: -c for e, c in q.items()})
        assert (pp * qq).terms == ref_mul(p, q)
        assert pp.times_one_minus(exps).terms == ref_times_one_minus(p, exps)
        for a in exps:
            assert pp.shift(a).terms == ref_shift(p, a)
        assert pp.sorted_terms() == sorted(p.items())

    @settings(max_examples=150, deadline=None)
    @given(packed_cases(lambda n: st.tuples(*[st.integers(-9, 9)] * n)))
    def test_specialize(self, case):
        n, p, _, weights = case
        assert LaurentPoly(n, p).specialize(weights).terms == \
            ref_specialize(p, weights)

    @settings(max_examples=200, deadline=None)
    @given(packed_cases(lambda n: directions(n).filter(any), far=False),
           st.booleans())
    def test_residue_and_exact_divide(self, case, multiple):
        # small exponents only: the lex oracle walks the whole Newton box
        n, p, q, a = case
        num = LaurentPoly(n, p)
        if multiple:
            num = num.times_one_minus([a])
        assert fast_quotient(num, a) == lex_quotient(num, a)
        ref = ref_residue(num.terms, a)
        assert {_unpack(n, r): c for r, c in num.residue(a).items()} == ref
        other = LaurentPoly(n, q)
        assert (num.residue(a) == other.residue(a)) == \
            (ref == ref_residue(q, a))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 10]).flatmap(lambda n: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(-6, 6) | st.sampled_from(
            [-(2 ** 31 - 1), 2 ** 31 - 1])] * n), st.integers(-4, 4),
            max_size=12).map(ref_clean),
        st.permutations(range(n)))))
    def test_rename(self, case):
        # fields at both ends of the packing range move whole
        p, targets = case
        poly = LaurentPoly(len(targets), p)
        renamed = poly.rename(targets)
        assert renamed.terms == ref_rename(p, targets)
        assert renamed._bound == poly._bound
        inverse = [targets.index(q) for q in range(len(targets))]
        assert renamed.rename(inverse) == poly

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        term_dicts(n), st.permutations(range(n)),
        st.tuples(*[st.integers(-9, 9)] * n))))
    def test_rename_then_specialize_reads_the_weights_in_its_frame(self,
                                                                  case):
        # k_tutte specializes each shape's numerator in a flag's frame
        p, targets, weights = case
        poly, n = LaurentPoly(len(targets), p), len(targets)
        assert poly.rename(targets).specialize(weights) == \
            poly.specialize([weights[targets[i]] for i in range(n)])

    @settings(max_examples=150, deadline=None)
    @given(packed_cases(lambda n: directions(n).filter(any), far=False))
    def test_residue_poly_holds_each_line_sum_at_its_base(self, case):
        n, p, _, a = case
        folded = LaurentPoly(n, p).residue_poly(a)
        assert folded.terms == ref_residue(p, a)
        assert folded._bound >= max(
            (abs(x) for e in folded.terms for x in e), default=0)
        assert folded.residue(a) == LaurentPoly(n, p).residue(a)

    def test_rename_needs_a_permutation(self):
        for targets in ((0, 0), (0,), (1, 2), (0, 1, 2)):
            with pytest.raises(DimensionMismatch):
                LaurentPoly.one(2).rename(targets)
        assert LaurentPoly(1, {(-5,): 2}).rename((0,)).terms == {(-5,): 2}

    def test_wrong_length_exponents_raise(self):
        with pytest.raises(DimensionMismatch):
            LaurentPoly(2, {(1, 2, 3): 1})
        with pytest.raises(DimensionMismatch):
            LaurentPoly.one(2).shift((1, 2, 3))
        with pytest.raises(DimensionMismatch):
            LaurentPoly.one(2).times_one_minus([(1, 2, 3)])
        with pytest.raises(DimensionMismatch):
            LaurentPoly.one(2) * LaurentPoly.one_minus((1, 2, 3))

    def test_exponents_outside_the_packing_range_raise(self):
        top = 2 ** 31 - 1
        edge = LaurentPoly(2, {(top, -top): 3})
        assert edge.terms == {(top, -top): 3}
        for bad in (2 ** 31, -(2 ** 31)):
            with pytest.raises(CheckFailed):
                LaurentPoly(2, {(0, bad): 1})
        half = LaurentPoly(3, {(0, 2 ** 30, 0): 1})
        with pytest.raises(CheckFailed):
            half * half
        with pytest.raises(CheckFailed):
            edge.shift((0, 1))
        with pytest.raises(CheckFailed):
            edge.times_one_minus([(1, 0)])
        with pytest.raises(CheckFailed):   # a line base lies further out
            half.residue((0, 1, 1))

    def test_one_variable_has_no_range(self):
        big = 2 ** 70
        p = LaurentPoly(1, {(big,): 1, (-big,): 2})
        assert (p * p).terms == {(2 * big,): 1, (0,): 4, (-2 * big,): 4}
        assert p.shift((big,)).terms == {(2 * big,): 1, (0,): 2}
        assert p.times_one_minus([(big,)]).exact_divide((big,)) == p
        assert p.residue((3,)) == {big % 3: 1, -big % 3: 2}


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


def full_denominator_sum(nvars, terms, times):
    """The reference rule: bring the terms to the union by maximum L of
    their denominators, multiply the sum by all of `times` and divide off
    all of L, with no factor cancelled first."""
    common = Counter()
    for _, den in terms:
        common |= Counter(den)
    total = LaurentPoly.zero(nvars)
    for num, den in terms:
        total = total + num.times_one_minus(
            list((common - Counter(den)).elements()))
    total = total.times_one_minus(times)
    for a in sorted(common.elements()):
        total = total.exact_divide(a)
    return total


@st.composite
def fraction_sums(draw):
    """(nvars, terms, times, exact) in 1-3 variables.  The factors come
    from a pool of at most three, so they repeat within a denominator and
    `times` shares some with the denominators, as the z-degrees of the
    pushforward do.  When `exact`, each numerator holds the factors of its
    denominator that `times` does not cover, so the sum is a polynomial."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-2, 2)] * nvars).filter(any)
    pool = st.sampled_from(draw(st.lists(exps, min_size=1, max_size=3)))
    dens = draw(st.lists(st.lists(pool, max_size=3), min_size=1,
                         max_size=3))
    times = draw(st.lists(pool | exps, max_size=4))
    exact = draw(st.booleans())
    common = Counter()
    for den in dens:
        common |= Counter(den)
    uncovered = common - Counter(times)
    terms = []
    for den in dens:
        num = LaurentPoly(nvars, draw(st.dictionaries(
            exps | st.just((0,) * nvars), st.integers(-3, 3), max_size=3)))
        if exact:
            num = num.times_one_minus(
                list((Counter(den) & uncovered).elements()))
        terms.append((num, den))
    return nvars, terms, times, exact



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
        tail = p * LaurentPoly.one(2).times_one_minus(last)
        for k, num in enumerate(nums):
            others = [a for j, den in enumerate(dens) if j != k for a in den]
            tail = tail - num * LaurentPoly.one(2).times_one_minus(others)
        terms = list(zip(nums, dens)) + [(tail, last)]
        assert binomial_fraction_sum(2, terms, times) == \
            p * LaurentPoly.one(2).times_one_minus(times)

    def test_sum_that_is_not_a_polynomial_raises(self):
        one = LaurentPoly.one(1)
        with pytest.raises(InexactDivision):
            binomial_fraction_sum(1, [(one, [(1,)]), (one, [(2,)])])

    def test_empty_sum_is_zero(self):
        assert binomial_fraction_sum(2, [], [(1, 0)]).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(fraction_sums())
    def test_shared_factors_cancel_as_the_full_rule_divides(self, case):
        nvars, terms, times, exact = case
        try:
            expected = full_denominator_sum(nvars, terms, times)
        except InexactDivision:
            assert not exact
            with pytest.raises(InexactDivision):
                binomial_fraction_sum(nvars, terms, times)
        else:
            assert binomial_fraction_sum(nvars, terms, times) == expected

    @settings(max_examples=150, deadline=None)
    @given(fraction_sums())
    def test_krational_sum_is_the_oracle(self, case):
        # KRational adds over the union by maximum of two denominators,
        # which repeat factors here, and reduces what divides
        nvars, terms, times, _ = case
        total = KRational(LaurentPoly.zero(nvars))
        for num, den in terms:
            total = total + KRational(num, den)
        total = total * LaurentPoly.one(nvars).times_one_minus(times)
        try:
            expected = binomial_fraction_sum(nvars, terms, times)
        except InexactDivision:
            with pytest.raises(InexactDivision):
                total.as_laurent()
        else:
            assert total.as_laurent() == expected



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

    # the zero polynomial, constants, coefficients +-1 and larger, a
    # negative leading term, and exponents other than 1, negative ones too
    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({(0, 0, 0): -3}, "-3"),
        ({(0, 0, 0): -1}, "-1"),
        ({(1, 0, 0): 1}, "t1"),
        ({(1, 0, 0): -1}, "-t1"),
        ({(2, 0, 1): 5, (0, 0, 0): 1}, "5*t1^2*t3 + 1"),
        ({(1, 0, 0): -1, (0, 1, 0): 1}, "-t1 + t2"),
        ({(-1, 0, 1): 1, (0, 0, 0): 1}, "1 + t1^-1*t3"),
        ({(0, -2, 0): -4, (1, 1, 1): 2}, "2*t1*t2*t3 - 4*t2^-2"),
        ({(2, -1, 0): -1, (0, 0, 0): -1}, "-t1^2*t2^-1 - 1"),
    ])
    def test_signed_sum(self, terms, text):
        assert format_poly(LaurentPoly(3, terms)) == text
