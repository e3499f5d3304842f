"""Matroids on ground set {0, ..., n-1} in canonical basis-list form.

The basis list is the primary representation: every downstream construction
(polytopes, localization classes) consumes bases directly.  Rank functions
are derived and cached as full bitmask tables.  All values are immutable
after construction and all operations are pure.
"""

import itertools
import operator
from fractions import Fraction

from .errors import (EmptyBases, ExchangeViolation, MismatchedGroundSets,
                     NotAMatroid, OutOfRange, UnequalCardinality, Verdict)
from . import linalg

# The largest ground set a rank table is built for: the table has 2^n
# entries, a million at n = 20 and a trillion at n = 40.
MAX_TABLE_ELEMENTS = 20

# The largest ground set whose n! orderings are walked (vertices of a
# generalized permutohedron, the Gale test of a flag), and through 10! the
# most fixed points a flag variety has, checked when the space is made:
# 10! is 3.6 million, 11! is 40 million.
MAX_ORDERING_ELEMENTS = 10

# The largest ground set the Tutte routes on the basis list alone take
# (deletion-contraction and basis activities, which need no rank table):
# deletion-contraction recurses once per element, inside the interpreter's
# default recursion limit of 1000, and both routes hold sets of elements.
MAX_BASIS_ROUTE_ELEMENTS = 500


def guard_table(n):
    """OutOfRange, before anything is allocated, when a rank table on n
    elements would pass MAX_TABLE_ELEMENTS."""
    if n > MAX_TABLE_ELEMENTS:
        raise OutOfRange(f"a rank table on {n} elements needs 2^{n} "
                         f"entries; the limit is n = {MAX_TABLE_ELEMENTS}")


def guard_basis_routes(n):
    """OutOfRange, before anything is allocated, when n exceeds
    MAX_BASIS_ROUTE_ELEMENTS."""
    if n > MAX_BASIS_ROUTE_ELEMENTS:
        raise OutOfRange(f"the basis-list Tutte routes take at most "
                         f"n = {MAX_BASIS_ROUTE_ELEMENTS} elements, not {n}")


def guard_orderings(n):
    """OutOfRange, before any ordering is made, when n exceeds
    MAX_ORDERING_ELEMENTS."""
    if n > MAX_ORDERING_ELEMENTS:
        raise OutOfRange(f"a walk over the orderings of {n} elements takes "
                         f"{n}! steps; the limit is "
                         f"n = {MAX_ORDERING_ELEMENTS}")


def _mask(subset):
    m = 0
    for e in subset:
        m |= 1 << e
    return m


def _find(parent, x):
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class Matroid:
    """A matroid given by its sorted list of bases.

    Use :func:`matroid_from_bases` (or the matrix/graph constructors) to get
    a validated instance.
    """

    __slots__ = ("n", "k", "bases", "_basis_masks", "_rank_table")

    def __init__(self, n, bases):
        self.n = n
        self.bases = tuple(sorted(tuple(sorted(b)) for b in set(map(frozenset, bases))))
        self.k = len(self.bases[0]) if self.bases else 0
        self._basis_masks = None
        self._rank_table = None

    # -- core queries -------------------------------------------------------
    def _masks(self):
        """The basis bitmasks, built on first use (2^e for a label e)."""
        if self._basis_masks is None:
            self._basis_masks = frozenset(map(_mask, self.bases))
        return self._basis_masks

    def is_basis(self, subset):
        return _mask(subset) in self._masks()

    def rank_table(self):
        """Rank of every subset, indexed by bitmask.

        Independent masks are the downward closure of the bases.  Each mask
        m then gets a greedy basis: that of m minus its lowest element, plus
        that element when the union stays independent; the rank is its size.
        OutOfRange, before anything is allocated, when n exceeds
        MAX_TABLE_ELEMENTS.
        """
        if self._rank_table is None:
            guard_table(self.n)
            n, full = self.n, 1 << self.n
            independent = bytearray(full)
            for m in self._masks():
                independent[m] = 1
            # downward closure: subsets of independent sets are independent
            for m in range(full - 1, -1, -1):
                if independent[m]:
                    for i in range(n):
                        if m >> i & 1:
                            independent[m & ~(1 << i)] = 1
            table = [0] * full
            basis = [0] * full
            for m in range(1, full):
                low = m & -m
                rest = m ^ low
                b = basis[rest] | low
                if independent[b]:
                    basis[m], table[m] = b, table[rest] + 1
                else:
                    basis[m], table[m] = basis[rest], table[rest]
            self._rank_table = tuple(table)
        return self._rank_table

    def rank(self, subset):
        subset = list(subset)
        if any(e < 0 or e >= self.n for e in subset):
            raise OutOfRange(f"subset {sorted(subset)} not within 0..{self.n - 1}")
        return self.rank_table()[_mask(subset)]

    def rank_mask(self, mask):
        return self.rank_table()[mask]

    def is_independent(self, subset):
        s = set(subset)
        return self.rank(s) == len(s)

    # -- minors, duality ------------------------------------------------------
    def _relabel(self, bases, e):
        """Drop element e and relabel e+1..n-1 down by one, preserving order."""
        return [[x if x < e else x - 1 for x in b] for b in bases]

    def delete(self, e):
        self._check_element(e)
        if e in self.coloops():
            # rank restriction makes the coloop drop out of every basis
            new = [[x for x in b if x != e] for b in self.bases]
        else:
            new = [list(b) for b in self.bases if e not in b]
        return Matroid(self.n - 1, self._relabel(new, e))

    def contract(self, e):
        self._check_element(e)
        if e in self.loops():
            new = [list(b) for b in self.bases]
        else:
            new = [[x for x in b if x != e] for b in self.bases if e in b]
        return Matroid(self.n - 1, self._relabel(new, e))

    def dual(self):
        ground = set(range(self.n))
        return Matroid(self.n, [ground - set(b) for b in self.bases])

    def _check_element(self, e):
        if not 0 <= e < self.n:
            raise OutOfRange(f"element {e} not in 0..{self.n - 1}")

    # -- circuits and friends -------------------------------------------------
    def circuits(self):
        """Minimal dependent sets, sorted: masks m of rank |m| - 1 whose
        single deletions m - e all keep that rank, so are independent."""
        table = self.rank_table()
        return sorted(tuple(_bits(m)) for m in range(1, 1 << self.n)
                      if table[m] == m.bit_count() - 1
                      and all(table[m ^ 1 << e] == table[m]
                              for e in _bits(m)))

    def cocircuits(self):
        return self.dual().circuits()

    def loops(self):
        in_any = set().union(*map(set, self.bases)) if self.bases else set()
        return tuple(sorted(set(range(self.n)) - in_any))

    def coloops(self):
        common = set(range(self.n))
        for b in self.bases:
            common &= set(b)
        return tuple(sorted(common))

    def loops_coloops(self):
        return self.loops(), self.coloops()

    def connected_components(self):
        """Partition of the ground set by the circuit-sharing relation."""
        parent = list(range(self.n))
        for circuit in self.circuits():
            root = _find(parent, circuit[0])
            for e in circuit[1:]:
                parent[_find(parent, e)] = root
        groups = {}
        for e in range(self.n):
            groups.setdefault(_find(parent, e), []).append(e)
        return sorted(tuple(g) for g in groups.values())

    # -- misc -----------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.n == other.n
                and self.bases == other.bases)

    def __hash__(self):
        return hash((self.n, self.bases))

    def __repr__(self):
        return f"Matroid(n={self.n}, k={self.k}, {len(self.bases)} bases)"


def matroid_from_bases(n, bases):
    """Validate the basis axioms (B1, equal size, exchange B2) and build."""
    if n < 1:
        raise OutOfRange(f"ground set size {n} < 1")
    bases = [sorted(set(b)) for b in bases]
    if not bases:
        raise EmptyBases("a matroid needs at least one basis")
    for b in bases:
        for e in b:
            if not 0 <= e < n:
                raise OutOfRange(f"element {e} not in 0..{n - 1}")
    sizes = {len(b) for b in bases}
    if len(sizes) != 1:
        raise UnequalCardinality(f"basis sizes {sorted(sizes)} differ")
    _check_exchange(bases)
    return Matroid(n, bases)


def _check_exchange(bases):
    """Basis exchange: for bases B1, B2 and e in B1 - B2, some f in B2 - B1
    makes B1 - e + f a basis.  It runs on bitmasks over the labels the
    bases use, bit i for the i-th smallest, so a huge label costs one bit.
    The pairs are tried in sorted mask order, so the ExchangeViolation, in
    labels, names the same failure on every run."""
    labels = sorted(set().union(*bases))
    bit = {e: 1 << i for i, e in enumerate(labels)}
    masks = {sum(bit[e] for e in b) for b in bases}
    ordered = sorted(masks)
    for b1 in ordered:
        for b2 in ordered:
            lost, gains = b1 & ~b2, b2 & ~b1
            while lost:
                e = lost & -lost  # the lowest element of B1 - B2 not tried
                lost ^= e
                f = gains  # f & -f runs over B2 - B1 until B1 - e + it holds
                while f and (b1 ^ e) | (f & -f) not in masks:
                    f &= f - 1
                if not f:
                    raise ExchangeViolation(
                        [labels[i] for i in _bits(b1)],
                        [labels[i] for i in _bits(b2)],
                        labels[e.bit_length() - 1])


def uniform_matroid(k, n):
    """U_{k,n}: every k-subset of an n-set is a basis."""
    if not 0 <= k <= n:
        raise OutOfRange(f"rank {k} not in 0..{n}")
    return Matroid(n, itertools.combinations(range(n), k))


def _first_drop(table, n):
    """The first single-element step (m, m | 1 << i) that lowers a 2^n
    table, m ascending and then i ascending, or None: then the table is
    monotone, as any X inside Y is joined by a chain of such steps.  One
    list comparison per slice pair of each i."""
    first = None
    for i in range(n):
        for low, high in _half_slices(len(table), 1 << i):
            m = _first_greater(table[low], table[high], low)
            if m is not None and (first is None or m < first[0]):
                first = m, m | 1 << i
    return first


def _half_slices(full, bit):
    """Pairs of slices (low, high) that run through the masks m < full
    without `bit` and through m | bit in step: one strided pair per
    offset below `bit` or one pair per 2 * bit block, whichever is
    fewer."""
    step = 2 * bit
    if 2 * bit * bit < full:
        return [(slice(o, full, step), slice(o + bit, full, step))
                for o in range(bit)]
    return [(slice(s, s + bit), slice(s + bit, s + step))
            for s in range(0, full, step)]


def _first_greater(a, b, low):
    """The first mask m where a exceeds b, both read in step along the
    slice `low` of masks, or None; `any` decides the common case, no
    mask, in one pass without the index count."""
    if not any(map(operator.gt, a, b)):
        return None
    k = next(itertools.compress(itertools.count(), map(operator.gt, a, b)))
    return low.start + k * (low.step or 1)


def _first_supermodular(table, n):
    """The first (m, i, j), m ascending and then i < j, with m missing i
    and j and r(m + i + j) + r(m) > r(m + i) + r(m + j), or None: then
    the table is submodular. One list comparison per slice pair: for
    each i, the step d_i[m] = r(m + i) - r(m) (0 where m holds i) must
    not grow when any j > i joins m."""
    full = len(table)
    first = None
    for i in range(n):
        d = [0] * full
        for low, high in _half_slices(full, 1 << i):
            d[low] = map(operator.sub, table[high], table[low])
        for j in range(i + 1, n):
            for low, high in _half_slices(full, 1 << j):
                m = _first_greater(d[high], d[low], low)
                if m is not None and (first is None or m < first[0]):
                    first = m, i, j
    return first


def check_rank_axioms(table, n, polymatroid=False):
    """Check a 2^n rank table against the rank axioms, bitmask-indexed.

    In matroid mode: R1 (0 <= r(X) <= |X|), R2 monotone, R3 submodular.
    In polymatroid mode R1 relaxes to r(empty) = 0 with nonnegative values.
    R2 and R3 are checked on one- and two-element steps, which suffices;
    the Verdict's witness is the first violation.
    OutOfRange, before the table size is computed, when n exceeds
    MAX_TABLE_ELEMENTS.
    """
    guard_table(n)
    full = 1 << n
    if len(table) != full:
        return Verdict(False, f"table has {len(table)} entries, need {full}")
    if table[0] != 0:
        return Verdict(False, "R1: r(empty) != 0", witness=((), table[0]))
    for m in range(full):
        r = table[m]
        if r < 0 or (not polymatroid and r > m.bit_count()):
            return Verdict(False, "R1: r(X) outside 0..|X|",
                           witness=(tuple(_bits(m)), r))
    drop = _first_drop(table, n)
    if drop is not None:
        return Verdict(False, "R2: monotonicity fails",
                       witness=tuple(tuple(_bits(m)) for m in drop))
    # local submodularity is equivalent to R3 in full
    first = _first_supermodular(table, n)
    if first is not None:
        m, i, j = first
        return Verdict(False, "R3: submodularity fails",
                       witness=(tuple(_bits(m | 1 << i)),
                                tuple(_bits(m | 1 << j))))
    return Verdict(True)


# ---------------------------------------------------------------- Gale order

def gale_key(subset, position):
    """Sort a subset by the position of its elements under an ordering."""
    return tuple(sorted(position[e] for e in subset))


def gale_leq(a, b, position):
    """Dominance order: a <= b componentwise in sorted omega-positions."""
    ka, kb = gale_key(a, position), gale_key(b, position)
    return all(x <= y for x, y in zip(ka, kb))


def _positions(order):
    pos = [0] * len(order)
    for p, e in enumerate(order):
        pos[e] = p
    return pos


def check_ordering(n, order):
    if sorted(order) != list(range(n)):
        raise OutOfRange(f"{order} is not a permutation of 0..{n - 1}")


def gale_max(matroid, order):
    """The Gale-maximal basis for the linear order (smallest element first).

    Computed greedily: scan elements from omega-largest down, keeping each
    one that preserves independence.  The result is verified to be a basis
    dominating every basis; NotAMatroid names the ordering otherwise.
    """
    check_ordering(matroid.n, order)
    current = []
    for e in reversed(order):
        if matroid.rank(current + [e]) == len(current) + 1:
            current.append(e)
    best = frozenset(current)
    pos = _positions(order)
    if not (matroid.is_basis(best)
            and all(gale_leq(b, best, pos) for b in matroid.bases)):
        raise NotAMatroid(f"gale_max: greedy basis {sorted(best)} is not "
                          f"Gale-maximal for ordering {tuple(order)}")
    return tuple(sorted(best))


def gale_max_family(n, family, order):
    """Unique dominating member of a raw k-subset family, for probing.

    Raises NotAMatroid when no member dominates all others under the Gale
    order induced by `order`.
    """
    check_ordering(n, order)
    family = [frozenset(b) for b in family]
    pos = _positions(order)
    for cand in family:
        if all(gale_leq(b, cand, pos) for b in family):
            return tuple(sorted(cand))
    raise NotAMatroid(f"no Gale-maximal member for ordering {tuple(order)}")


# --------------------------------------------------------------- matroid union

def union_rank(matroids, subset):
    """Rank of `subset` in the union matroid: min |A-B| + sum r_i(B)."""
    ns = {m.n for m in matroids}
    if len(ns) != 1:
        raise MismatchedGroundSets(f"ground set sizes {sorted(ns)} differ")
    a = _mask(subset)
    tables = [m.rank_table() for m in matroids]
    best = None
    b = a
    while True:  # all submasks of a
        val = (a & ~b).bit_count() + sum(t[b] for t in tables)
        if best is None or val < best:
            best = val
        if b == 0:
            break
        b = (b - 1) & a
    return best


def cover_by_independent(matroids):
    """Partition E into sets independent in each matroid, or None.

    None exactly when some A has |A| > sum_i r_i(A).
    """
    ns = {m.n for m in matroids}
    if len(ns) != 1:
        raise MismatchedGroundSets(f"ground set sizes {sorted(ns)} differ")
    n = matroids[0].n
    k = len(matroids)
    parts = [[] for _ in range(k)]

    def place(e):
        if e == n:
            return True
        for i in range(k):
            parts[i].append(e)
            if matroids[i].is_independent(parts[i]) and place(e + 1):
                return True
            parts[i].pop()
        return False

    if place(0):
        return tuple(tuple(p) for p in parts)
    return None


# ---------------------------------------------------- representable / graphic

def matroid_from_matrix(rows):
    """Column matroid of an exact rational matrix.

    Bases are the column subsets of size rank(matrix) with a nonzero maximal
    minor, found by exact elimination.  A zero matrix yields the rank-0
    matroid with the single empty basis.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows or not rows[0]:
        raise OutOfRange("matrix needs at least one row and one column")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise OutOfRange("ragged matrix")
    r = linalg.matrix_rank(rows)
    if r == 0:
        return Matroid(width, [frozenset()])
    bases = []
    for cols in itertools.combinations(range(width), r):
        sub = [[row[c] for c in cols] for row in rows]
        if linalg.matrix_rank(sub) == r:
            bases.append(cols)
    return Matroid(width, bases)


def matroid_from_graph(edges, vertices=None):
    """Cycle matroid of a multigraph; bases are maximal spanning forests.

    Vertices that no edge touches do not change the matroid, so the
    union-find runs over the endpoints alone, whatever `vertices` says.
    """
    seen = {v for e in edges for v in e}
    if vertices is not None and seen and max(seen) >= vertices:
        raise OutOfRange("edge endpoint exceeds vertex count")
    if seen and min(seen) < 0:
        raise OutOfRange("edge endpoint is negative")
    m = len(edges)
    if m == 0:
        raise OutOfRange("graph needs at least one edge")
    index = {v: i for i, v in enumerate(sorted(seen))}
    edges = [(index[u], index[v]) for u, v in edges]

    def forest_size(edge_idx):
        parent = list(range(len(index)))
        size = 0
        for i in edge_idx:
            u, v = edges[i]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                size += 1
        return size

    k = forest_size(range(m))
    if k == 0:
        return Matroid(m, [frozenset()])
    bases = [c for c in itertools.combinations(range(m), k)
             if forest_size(c) == k]
    return Matroid(m, bases)
