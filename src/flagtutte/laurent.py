"""Exact Laurent polynomials in the character lattice of a torus.

A character t^a = t_1^{a_1} ... t_n^{a_n} is an exponent vector a in Z^n;
a :class:`LaurentPoly` maps exponent vectors to nonzero integer
coefficients.  The only denominators the localization formulas ever
produce are products of binomial factors (1 - t^a), kept as a multiset of
exponent vectors, so cancellation can happen factor by factor and stay
exact.  Every division and every congruence is against such a binomial,
so it is named by its direction a:
:meth:`LaurentPoly.exact_divide` takes running sums along the lines
r + Z*a, exact iff every line sums to zero, and :meth:`LaurentPoly.residue`
is the image in Z[t^±]/(1 - t^a), the line sums.  A product with
binomials is taken one factor at a time, without expanding their product
(:meth:`LaurentPoly.times_one_minus`).  A sum of such fractions that must
come out a Laurent polynomial, as the vertex-cone numerators and the
pushforward fibers do, is taken over one common denominator L: the
factors that L shares with the binomials the sum is multiplied by cancel
first, and the rest of L is divided off at the end
(:func:`binomial_fraction_sum`).  A ring map
t_i -> z^{w_i} (:meth:`LaurentPoly.specialize`) takes a polynomial to one
variable, where the same arithmetic runs on plain integer exponents.

Inside a polynomial each monomial is keyed by one int.  In one variable
the key is the exponent itself.  In n > 1 variables the key of e is
sum_i (e_i + 2^31) << 32*i, so a product of monomials is k1 + k2 minus the
key of t^0, the shift by t^a adds Delta(a) = sum_i a_i << 32*i, and the
line r + Z*a is key - k*Delta(a).  Each polynomial carries a bound on
max |e_i|, kept up to date in O(1) by every operation; in n > 1
variables, a bound past 2^31 - 1 raises CheckFailed before any key could
wrap into its neighbouring coordinate.  One variable has no such range.
Exponent vectors are tuples at the boundary: the constructor takes them,
and :attr:`LaurentPoly.terms` and :meth:`LaurentPoly.sorted_terms` give
them back.
"""

from itertools import repeat

from .errors import CheckFailed, DimensionMismatch, InexactDivision

_BITS = 32
_BIAS = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1
_LIMIT = _BIAS - 1   # the largest |e_i| a key holds in n > 1 variables
_OFFSETS = {}        # n -> the key of t^0


def _offset(n):
    off = _OFFSETS.get(n)
    if off is None:
        off = _OFFSETS[n] = 0 if n == 1 else sum(
            _BIAS << _BITS * i for i in range(n))
    return off


def _delta(a):
    """Delta(a): adding it to a key multiplies the monomial by t^a."""
    return sum(x << _BITS * i for i, x in enumerate(a))


def _unpack(n, key):
    if n == 1:
        return (key,)
    return tuple(((key >> _BITS * i) & _MASK) - _BIAS for i in range(n))


def _in_range(nvars, bound, what):
    """CheckFailed when exponents up to `bound` do not fit a key."""
    if nvars > 1 and bound > _LIMIT:
        raise CheckFailed("laurent", f"{what} may have an exponent beyond "
                          f"the packing range +-{_LIMIT}", bound)


def _norm(a):
    return max(map(abs, a), default=0)


def _add_into(keys, other):
    """keys += other, on packed keys, dropping the zero coefficients."""
    for k, c in other.items():
        v = keys.get(k, 0) + c
        if v:
            keys[k] = v
        else:
            del keys[k]


class LaurentPoly:
    """Integer-coefficient Laurent polynomial: a dict from packed
    monomial keys to nonzero coefficients, and a bound on max |e_i|."""

    __slots__ = ("nvars", "_keys", "_bound")

    def __init__(self, nvars, terms=None):
        """From {exponent vector: coefficient}; zero coefficients are
        dropped.  DimensionMismatch for a vector of another length than
        nvars, CheckFailed for an exponent outside the packing range."""
        keys, bound = {}, 0
        if terms:
            off = _offset(nvars)
            for e, c in terms.items():
                if c:
                    e = tuple(e)
                    if len(e) != nvars:
                        raise DimensionMismatch(
                            f"exponent {e} in {nvars} variables")
                    bound = max(bound, _norm(e))
                    keys[off + _delta(e)] = c
        _in_range(nvars, bound, "an exponent vector")
        self.nvars, self._keys, self._bound = nvars, keys, bound

    @classmethod
    def _make(cls, nvars, keys, bound):
        """From packed keys with nonzero coefficients, not validated."""
        p = object.__new__(cls)
        p.nvars, p._keys, p._bound = nvars, keys, bound
        return p

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls._make(nvars, {}, 0)

    @classmethod
    def one(cls, nvars):
        return cls._make(nvars, {_offset(nvars): 1}, 0)

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls(len(exp), {tuple(exp): coeff})

    @classmethod
    def one_minus(cls, exp):
        """The binomial 1 - t^exp."""
        exp = tuple(exp)
        if not any(exp):
            return cls.zero(len(exp))
        return cls(len(exp), {(0,) * len(exp): 1, exp: -1})

    @property
    def terms(self):
        """{exponent tuple: coefficient}, unpacked from the keys into a
        new dict on each call; changing it leaves the polynomial as is."""
        n = self.nvars
        return {_unpack(n, k): c for k, c in self._keys.items()}

    # -- ring structure ---------------------------------------------------
    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def _check_exp(self, a):
        if len(a) != self.nvars:
            raise DimensionMismatch(f"{self.nvars} variables vs {a}")

    def __add__(self, other):
        self._check(other)
        keys = dict(self._keys)
        _add_into(keys, other._keys)
        return LaurentPoly._make(self.nvars, keys,
                                 max(self._bound, other._bound))

    def __neg__(self):
        return LaurentPoly._make(
            self.nvars, {k: -c for k, c in self._keys.items()}, self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly._make(
                self.nvars, {k: c * other for k, c in self._keys.items()},
                self._bound)
        self._check(other)
        bound = self._bound + other._bound
        _in_range(self.nvars, bound, "a product")
        if len(self._keys) > len(other._keys):
            big, small = self._keys, other._keys
        else:
            big, small = other._keys, self._keys
        off = _offset(self.nvars)
        keys = {}
        for k1, c1 in small.items():
            k1 -= off
            for k2, c2 in big.items():
                key = k1 + k2
                v = keys.get(key, 0) + c1 * c2
                if v:
                    keys[key] = v
                else:
                    del keys[key]
        return LaurentPoly._make(self.nvars, keys, bound)

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
                and self.nvars == other.nvars and self._keys == other._keys)

    def __hash__(self):
        return hash((self.nvars, frozenset(self._keys.items())))

    def is_zero(self):
        return not self._keys

    def specialize(self, weights):
        """The image under the ring map t_i -> z^{w_i}, a polynomial in z."""
        n = self.nvars
        if len(weights) != n:
            raise DimensionMismatch(f"need {n} weights, got {len(weights)}")
        if n == 1:
            fields, start = [(0, -1, weights[0])], 0
        else:
            fields = [(_BITS * i, _MASK, w) for i, w in enumerate(weights)]
            start = -_BIAS * sum(weights)
        uni = {}
        for k, c in self._keys.items():
            d = start
            for shift, mask, w in fields:
                d += ((k >> shift) & mask) * w
            uni[d] = uni.get(d, 0) + c
        keys = {d: c for d, c in uni.items() if c}
        return LaurentPoly._make(1, keys, _norm(keys))

    def shift(self, exp):
        """Multiply by the monomial t^exp."""
        self._check_exp(exp)
        bound = self._bound + _norm(exp)
        _in_range(self.nvars, bound, "a shift")
        d = _delta(exp)
        return LaurentPoly._make(
            self.nvars, {k + d: c for k, c in self._keys.items()}, bound)

    def rename(self, targets):
        """The polynomial with each t_i renamed t_{targets[i]}, for a
        permutation `targets` of the variables.

        The keys are laid out as one array of 32-bit fields, and field i
        of every key moves to field targets[i] in one strided copy; the
        bound is unchanged.  DimensionMismatch unless a permutation.
        """
        n, identity = self.nvars, list(range(self.nvars))
        if sorted(targets) != identity:
            raise DimensionMismatch(f"{tuple(targets)} does not permute "
                                    f"{n} variables")
        if list(targets) == identity:  # so also in one variable
            return self
        width = _BITS // 8 * n
        raw = b"".join(map(int.to_bytes, self._keys, repeat(width),
                           repeat("little")))
        out = bytearray(len(raw))
        src, dst = memoryview(raw).cast("I"), memoryview(out).cast("I")
        for i, t in enumerate(targets):
            dst[t::n] = src[i::n]
        raw = bytes(out)  # slices of bytes are read faster
        keys = map(int.from_bytes, (raw[k:k + width]
                                    for k in range(0, len(raw), width)),
                   repeat("little"))
        return LaurentPoly._make(n, dict(zip(keys, self._keys.values())),
                                 self._bound)

    def times_one_minus(self, exps):
        """self * prod_{a in exps} (1 - t^a), one binomial at a time.

        Each factor subtracts the running product shifted by t^a from a
        copy of it, so the product of the binomials, 2^len(exps) terms
        before cancellation, is never formed.
        """
        keys, bound = self._keys, self._bound
        for a in exps:
            self._check_exp(a)
            bound += _norm(a)
            _in_range(self.nvars, bound, "a product with binomials")
            d = _delta(a)
            out = dict(keys)
            for k, c in keys.items():
                k += d
                v = out.get(k, 0) - c
                if v:
                    out[k] = v
                else:
                    del out[k]
            keys = out
        return LaurentPoly._make(self.nvars, keys, bound)

    # -- queries ----------------------------------------------------------
    def sorted_terms(self):
        """Terms in ascending lex order on exponent vectors."""
        return sorted(self.terms.items())

    def subs_one(self):
        """Value at t_1 = ... = t_n = 1."""
        return sum(self._keys.values())

    def _lines(self, a):
        """(Delta(a), a_p, shift, mask, bias) for the first p with
        a_p != 0: a key's line r + Z*a holds it at k*a from its base r,
        k = (((key >> shift) & mask) - bias) // a_p, with the base the
        point of the line with 0 <= r_p < a_p (or a_p < r_p <= 0), at
        key - k*Delta(a).  A base can lie further out than the polynomial,
        so its range is checked (CheckFailed).  ZeroDivisionError for
        a = 0, as 1 - t^0 = 0."""
        self._check_exp(a)
        pivot = next((i for i, x in enumerate(a) if x), None)
        if pivot is None:
            raise ZeroDivisionError("division by 1 - t^0 = 0")
        top = _norm(a)
        _in_range(self.nvars, self._bound * (1 + top) + top, "a line base")
        if self.nvars == 1:
            return a[0], a[0], 0, -1, 0
        return _delta(a), a[pivot], _BITS * pivot, _MASK, _BIAS

    def exact_divide(self, a):
        """The quotient self / (1 - t^a) in the Laurent ring, if exact.

        On each line r + Z*a the quotient Q satisfies
        Q(r + k*a) - Q(r + (k-1)*a) = self(r + k*a), so Q is the running
        sum of self's coefficients from the line's low end, in time linear
        in the size of the quotient.  The division is exact iff every line
        sums to zero; the first line that does not raises InexactDivision.
        :func:`flagtutte.oracle.lex_divide` divides by any polynomial and
        is the oracle.
        """
        d, step, shift, mask, bias = self._lines(a)
        lines = {}
        for key, c in self._keys.items():
            k = (((key >> shift) & mask) - bias) // step
            lines.setdefault(key - k * d, []).append((k, c))
        quot = {}
        for base, line in lines.items():
            line.sort()
            run = 0
            for (k, c), (k_next, _) in zip(line, line[1:]):
                run += c
                if run:
                    for j in range(k, k_next):
                        quot[base + j * d] = run
            if run + line[-1][1]:
                raise InexactDivision(
                    f"the line {_unpack(self.nvars, base)} + Z*{a} does not "
                    f"sum to zero")
        # a quotient term lies between two terms of self on its line
        return LaurentPoly._make(self.nvars, quot, self._bound)

    def residue(self, a):
        """The image of self in Z[t^±]/(1 - t^a), the group ring of
        Z^n/Za: {r: the sum of self's coefficients on the line r + Z*a}
        over the lines whose sum is not zero, r as in :meth:`_lines`.
        Each line is keyed by the packed key of r, not by an exponent
        tuple: a residue is only ever compared with another residue.

        1 - u divides a polynomial in u = t^a iff it vanishes at u = 1, so
        1 - t^a divides p - q iff p.residue(a) == q.residue(a), also for a
        direction a that is not primitive.
        """
        d, step, shift, mask, bias = self._lines(a)
        sums = {}
        for key, c in self._keys.items():
            base = key - (((key >> shift) & mask) - bias) // step * d
            sums[base] = sums.get(base, 0) + c
        return {r: c for r, c in sums.items() if c}

    def residue_poly(self, a):
        """:meth:`residue` as a polynomial, each line's sum at its base r.
        A base lies within bound * (1 + max |a_i|) of the origin (twice
        the bound along e_i - e_j), a range :meth:`_lines` has checked."""
        return LaurentPoly._make(self.nvars, self.residue(a),
                                 self._bound * (1 + _norm(a)))

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {format_poly(self)})"


def _signed_sum(terms, names, times):
    """Terms in ascending order (:meth:`LaurentPoly.sorted_terms`) as a
    signed sum, highest exponent first; the i-th variable prints as
    names[i], and `times` joins a coefficient to the powers of a term and
    the powers to each other."""
    if not terms:
        return "0"
    parts = []
    for e, c in reversed(terms):
        factors = [names[i] + (f"^{x}" if x != 1 else "")
                   for i, x in enumerate(e) if x]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + times.join(factors))
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def format_poly(p):
    """Human-readable form in the 1-indexed variables t1..tn."""
    return _format_terms(p.sorted_terms(), p.nvars)


def _format_terms(terms, nvars):
    """:func:`format_poly` of the polynomial with these sorted terms."""
    return _signed_sum(terms, [f"t{i + 1}" for i in range(nvars)], "*")


def _multiset_sub(a, b):
    """Multiset difference a - b, sorted, each count floored at zero."""
    out = sorted(a)
    for t in b:
        if t in out:
            out.remove(t)
    return tuple(out)


def binomial_fraction_sum(nvars, terms, times=()):
    """The Laurent polynomial prod_{a in times} (1 - t^a) * sum of
    num / prod_{a in den} (1 - t^a) over the pairs (num, den) in terms.

    The terms are brought to the union by maximum L of their denominators
    and their numerators summed.  The factors that L shares with `times`
    cancel before anything is multiplied: the sum is multiplied by
    `times` - L only, and L - `times` is divided off, each multiset
    difference floored at zero.  Every division must be exact
    (InexactDivision otherwise), so no factor is tried that does not
    divide.
    """
    common = ()
    for _, den in terms:
        common += _multiset_sub(den, common)
    keys, bound = {}, 0
    for num, den in terms:
        if num.nvars != nvars:
            raise DimensionMismatch(f"a term in {num.nvars} variables, "
                                    f"not {nvars}")
        part = num.times_one_minus(_multiset_sub(common, den))
        _add_into(keys, part._keys)
        bound = max(bound, part._bound)
    total = LaurentPoly._make(nvars, keys, bound).times_one_minus(
        _multiset_sub(times, common))
    for a in _multiset_sub(common, times):
        total = total.exact_divide(a)
    return total
