"""Exact Laurent polynomials in the character lattice of a torus.

A character t^a = t_1^{a_1} ... t_n^{a_n} is an exponent vector a in Z^n;
a :class:`LaurentPoly` maps exponent vectors to nonzero integer
coefficients.  A :class:`KRational` keeps its denominator as a multiset of
exponent vectors, each standing for a binomial factor (1 - t^a) — the only
denominators the localization formulas ever produce — so cancellation can
happen factor by factor and stay exact.  Every division and every
congruence is against such a binomial, so it is named by its direction a:
:meth:`LaurentPoly.exact_divide` takes running sums along the lines
r + Z*a, exact iff every line sums to zero, and :meth:`LaurentPoly.residue`
is the image in Z[t^±]/(1 - t^a), the line sums.  A sum of such fractions
that must come out a Laurent polynomial, as the vertex-cone numerators and
the pushforward fibers do, is taken over one common denominator whose
factors are divided off at the end (:func:`binomial_fraction_sum`).  A
ring map t_i -> z^{w_i} (:meth:`LaurentPoly.specialize`) takes a
polynomial to one variable, where the same arithmetic runs on 1-tuples.
"""

import operator
from fractions import Fraction
from math import prod

from .errors import (BadWeights, CheckFailed, DimensionMismatch,
                     InexactDivision, PoleAtOne)


def _vadd(a, b):
    return tuple(map(operator.add, a, b))


def _vsub(a, b):
    return tuple(map(operator.sub, a, b))


def _along(e, support, k):
    """e + k*a for the vector a whose nonzero entries are (i, a_i) in
    `support`."""
    out = list(e)
    for i, x in support:
        out[i] += k * x
    return tuple(out)


class LaurentPoly:
    """Integer-coefficient Laurent polynomial, sparse exponent-dict form."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls(len(exp), {tuple(exp): coeff})

    @classmethod
    def one_minus(cls, exp):
        """The binomial 1 - t^exp."""
        exp = tuple(exp)
        zero = (0,) * len(exp)
        if exp == zero:
            return cls.zero(len(exp))
        return cls(len(exp), {zero: 1, exp: -1})

    # -- ring structure ---------------------------------------------------
    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return LaurentPoly(self.nvars, terms)

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars,
                               {e: c * other for e, c in self.terms.items()})
        self._check(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        terms = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                key = _vadd(e1, e2)
                v = terms.get(key, 0) + c1 * c2
                if v:
                    terms[key] = v
                else:
                    del terms[key]
        return LaurentPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def specialize(self, weights):
        """The image under the ring map t_i -> z^{w_i}, a polynomial in z."""
        if len(weights) != self.nvars:
            raise DimensionMismatch(
                f"need {self.nvars} weights, got {len(weights)}")
        uni = {}
        for e, c in self.terms.items():
            d = sum(map(operator.mul, e, weights))
            uni[d] = uni.get(d, 0) + c
        return LaurentPoly(1, {(d,): c for d, c in uni.items()})

    def shift(self, exp):
        """Multiply by the monomial t^exp."""
        exp = tuple(exp)
        return LaurentPoly(self.nvars,
                           {_vadd(e, exp): c for e, c in self.terms.items()})

    # -- queries ----------------------------------------------------------
    def sorted_terms(self):
        """Terms in ascending lex order on exponent vectors."""
        return sorted(self.terms.items())

    def subs_one(self):
        """Value at t_1 = ... = t_n = 1."""
        return sum(self.terms.values())

    def _lines(self, a):
        """The support [(i, a_i)] of a, and the map e -> (r, k) with
        e = r + k*a, where r is the point of the line r + Z*a with
        0 <= r_p < a_p (or a_p < r_p <= 0) at the first p of the support.
        ZeroDivisionError for a = 0, as 1 - t^0 = 0."""
        if len(a) != self.nvars:
            raise DimensionMismatch(f"{self.nvars} variables vs {a}")
        support = [(i, x) for i, x in enumerate(a) if x]
        if not support:
            raise ZeroDivisionError("division by 1 - t^0 = 0")
        pivot, step = support[0]

        def line_of(e):
            k = e[pivot] // step
            return (_along(e, support, -k) if k else e), k
        return support, line_of

    def exact_divide(self, a):
        """The quotient self / (1 - t^a) in the Laurent ring, if exact.

        On each line r + Z*a the quotient Q satisfies
        Q(r + k*a) - Q(r + (k-1)*a) = self(r + k*a), so Q is the running
        sum of self's coefficients from the line's low end, in time linear
        in the size of the quotient.  The division is exact iff every line
        sums to zero; the first line that does not raises InexactDivision.
        :meth:`_lex_divide` divides by any polynomial and is the oracle.
        """
        support, line_of = self._lines(a)
        lines = {}
        for e, c in self.terms.items():
            base, k = line_of(e)
            lines.setdefault(base, []).append((k, c))
        quot = {}
        for base, line in lines.items():
            line.sort()
            run = 0
            for (k, c), (k_next, _) in zip(line, line[1:]):
                run += c
                if run:
                    for j in range(k, k_next):
                        quot[_along(base, support, j)] = run
            if run + line[-1][1]:
                raise InexactDivision(
                    f"the line {base} + Z*{a} does not sum to zero")
        return LaurentPoly(self.nvars, quot)

    def residue(self, a):
        """The image of self in Z[t^±]/(1 - t^a), the group ring of
        Z^n/Za: {r: the sum of self's coefficients on the line r + Z*a}
        over the lines whose sum is not zero, r as in :meth:`_lines`.

        1 - u divides a polynomial in u = t^a iff it vanishes at u = 1, so
        1 - t^a divides p - q iff p.residue(a) == q.residue(a), also for a
        direction a that is not primitive.
        """
        line_of = self._lines(a)[1]
        sums = {}
        for e, c in self.terms.items():
            base = line_of(e)[0]
            sums[base] = sums.get(base, 0) + c
        return {r: c for r, c in sums.items() if c}

    def _lex_divide(self, q):
        """self / q by leading-term elimination under lex order."""
        if self.is_zero():
            return LaurentPoly.zero(self.nvars)
        lead_q = max(q.terms)
        lc_q = q.terms[lead_q]
        # quotient support is confined to the coordinate-wise Newton box
        lo = tuple(min(e[i] for e in self.terms) - max(e[i] for e in q.terms)
                   for i in range(self.nvars))
        hi = tuple(max(e[i] for e in self.terms) - min(e[i] for e in q.terms)
                   for i in range(self.nvars))
        rem = dict(self.terms)
        quot = {}
        while rem:
            lead_r = max(rem)
            c, r = divmod(rem[lead_r], lc_q)
            if r:
                raise InexactDivision("leading coefficient does not divide")
            mono = _vsub(lead_r, lead_q)
            if any(m < l or m > h for m, l, h in zip(mono, lo, hi)):
                raise InexactDivision("quotient support escapes Newton box")
            quot[mono] = c
            for e, qc in q.terms.items():
                key = _vadd(mono, e)
                v = rem.get(key, 0) - c * qc
                if v:
                    rem[key] = v
                else:
                    rem.pop(key, None)
        return LaurentPoly(self.nvars, quot)

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {format_poly(self)})"


def format_poly(p, names=None):
    """Human-readable form, 1-indexed variables t1..tn by default."""
    if p.is_zero():
        return "0"
    if names is None:
        names = [f"t{i + 1}" for i in range(p.nvars)]
    parts = []
    for e, c in sorted(p.terms.items(), reverse=True):
        mono = "*".join(
            f"{names[i]}" + (f"^{x}" if x != 1 else "")
            for i, x in enumerate(e) if x
        )
        if not mono:
            term = str(abs(c))
        elif abs(c) == 1:
            term = mono
        else:
            term = f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + term)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


class KRational:
    """Laurent polynomial divided by a multiset of factors (1 - t^a).

    The denominator is stored unexpanded; construction greedily cancels any
    factor that divides the numerator exactly, so the representation is
    reduced and a genuine Laurent polynomial always ends with no denominator.
    The library only builds one (:func:`flagtutte.lattice.hilbert_series`)
    and evaluates one (:func:`evaluate_at_one`); the sums, products and
    cross-multiplied equality are the arithmetic of the tests' oracles.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(), reduce=True):
        den = tuple(tuple(a) for a in den)
        if any(all(x == 0 for x in a) for a in den):
            raise ZeroDivisionError("denominator factor 1 - t^0 is zero")
        if num.is_zero():
            den = ()
        elif reduce and den:
            num, den = self._reduced(num, den)
        self.num = num
        self.den = tuple(sorted(den))

    @staticmethod
    def _reduced(num, den):
        remaining = []
        for a in sorted(den):
            try:
                num = num.exact_divide(a)
            except InexactDivision:
                remaining.append(a)
        return num, tuple(remaining)

    @classmethod
    def from_poly(cls, p):
        return cls(p, ())

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def is_laurent(self):
        return not self.den

    def as_laurent(self):
        if self.den:
            raise InexactDivision(
                f"denominator {list(self.den)} does not cancel")
        return self.num

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            other = KRational.from_poly(other)
        lcm = _multiset_max(self.den, other.den)
        num = (self.num * _poly_product(self.num.nvars, _multiset_sub(lcm, self.den))
               + other.num * _poly_product(other.num.nvars, _multiset_sub(lcm, other.den)))
        return KRational(num, lcm)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            other = KRational.from_poly(other)
        return KRational(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        """Exact equality as rational functions (cross-multiplied)."""
        if not isinstance(other, KRational):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        left = self.num * _poly_product(self.nvars, other.den)
        right = other.num * _poly_product(self.nvars, self.den)
        return left == right

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if not self.den:
            return f"KRational({format_poly(self.num)})"
        den = " * ".join(f"(1 - {format_poly(LaurentPoly.monomial(a))})"
                         for a in self.den)
        return f"KRational(({format_poly(self.num)}) / {den})"


def _multiset_max(a, b):
    """Multiset union-by-maximum of two denominator factor lists."""
    counts = {}
    for t in a:
        counts[t] = counts.get(t, 0) + 1
    other = {}
    for t in b:
        other[t] = other.get(t, 0) + 1
    for t, c in other.items():
        counts[t] = max(counts.get(t, 0), c)
    out = []
    for t in sorted(counts):
        out.extend([t] * counts[t])
    return tuple(out)


def _multiset_sub(a, b):
    """Multiset difference a - b (b must be contained in a)."""
    counts = {}
    for t in a:
        counts[t] = counts.get(t, 0) + 1
    for t in b:
        counts[t] -= 1
    out = []
    for t in sorted(counts):
        if counts[t] < 0:
            raise CheckFailed("multiset difference",
                              "subtrahend is not contained", (a, b))
        out.extend([t] * counts[t])
    return tuple(out)


def _poly_product(nvars, exps):
    p = LaurentPoly.one(nvars)
    for a in exps:
        p = p * LaurentPoly.one_minus(a)
    return p


def binomial_fraction_sum(nvars, terms, times=()):
    """The Laurent polynomial prod_{a in times} (1 - t^a) * sum of
    num / prod_{a in den} (1 - t^a) over the pairs (num, den) in terms.

    The terms are brought to the union by maximum L of their denominators,
    their numerators summed and multiplied by `times`, and each factor of
    L is divided off; every division must be exact (InexactDivision
    otherwise), so no factor is tried that does not divide.
    """
    common = ()
    for _, den in terms:
        common = _multiset_max(common, den)
    total = LaurentPoly.zero(nvars)
    for num, den in terms:
        total = total + num * _poly_product(nvars,
                                            _multiset_sub(common, den))
    total = total * _poly_product(nvars, times)
    for a in common:
        total = total.exact_divide(a)
    return total


def evaluate_at_one(f, weights):
    """Evaluate at t_i -> 1 through the one-parameter subgroup t_i = z^{w_i}.

    No pipeline stage calls it: the values that
    :func:`flagtutte.ktheory.k_tutte` evaluates are Laurent polynomials,
    read at 1 by :meth:`LaurentPoly.subs_one`.  It is library API, and the
    evaluation that a sum of vertex-cone Hilbert series at t = 1 needs
    (Brion's theorem counts lattice points that way).

    Substitutes, divides the numerator by (1 - z) once for each
    denominator factor, and evaluates at z = 1, where each factor
    (1 - z^d) / (1 - z) is d.  Raises BadWeights when a denominator factor
    collapses to zero identically and PoleAtOne when the numerator vanishes
    to lower order than the denominator, that is, when a division by
    (1 - z) is not exact.
    """
    if isinstance(f, LaurentPoly):
        f = KRational.from_poly(f)
    num = f.num.specialize(weights)  # DimensionMismatch on a wrong length
    dots = [sum(a_i * w_i for a_i, w_i in zip(a, weights)) for a in f.den]
    if 0 in dots:
        raise BadWeights(f"weights {tuple(weights)} kill a denominator factor")
    for k in range(len(dots)):
        try:
            num = num.exact_divide((1,))
        except InexactDivision:
            raise PoleAtOne(k, len(dots)) from None
    value = Fraction(num.subs_one(), prod(dots))
    return int(value) if value.denominator == 1 else value
