"""Polymatroids, flag matroids and the constructions relating them.

A polymatroid is stored as its full rank table over all 2^n subsets (the
ground set is kept small enough that this is the convenient canonical
form).  A flag matroid is a tuple of pairwise concordant matroids with
nondecreasing ranks.  Its basis flags are chains of constituent bases over
the distinct ranks, each a sorted tuple of sorted tuples: the fixed points
of :class:`flagtutte.ktheory.FlagSpace` that carry its class, with the
flag polytope's vertices as their weights.
"""

import itertools
from fractions import Fraction

from .errors import (AxiomViolation, MismatchedGroundSets, NotConcordant,
                     NotNested, OutOfRange, RankBoundTooSmall, Verdict)
from . import linalg
from .matroid import (Matroid, _bits, _first_drop, _mask, _positions,
                      check_ordering, check_rank_axioms, gale_key,
                      guard_orderings, matroid_from_matrix)


class Polymatroid:
    """Integer polymatroid: monotone submodular rank table with r(empty)=0."""

    __slots__ = ("n", "rank_table")

    def __init__(self, n, rank_table):
        self.n = n
        self.rank_table = tuple(rank_table)

    def rank_mask(self, mask):
        return self.rank_table[mask]

    def rank(self, subset):
        subset = list(subset)
        if any(e < 0 or e >= self.n for e in subset):
            raise OutOfRange(f"subset {sorted(subset)} not within 0..{self.n - 1}")
        return self.rank_table[_mask(subset)]

    @property
    def total_rank(self):
        return self.rank_table[-1]

    @property
    def max_singleton_rank(self):
        return max(self.rank_table[1 << i] for i in range(self.n))

    def __eq__(self, other):
        return (isinstance(other, Polymatroid) and self.n == other.n
                and self.rank_table == other.rank_table)

    def __hash__(self):
        return hash((self.n, self.rank_table))

    def __repr__(self):
        return f"Polymatroid(n={self.n}, rank={self.total_rank})"


def polymatroid_from_rank(n, table):
    """Validate R2, R3 and r(empty)=0, then build the polymatroid."""
    if n < 1:
        raise OutOfRange(f"ground set size {n} < 1")
    verdict = check_rank_axioms(tuple(table), n, polymatroid=True)
    if not verdict:
        raise AxiomViolation(verdict.reason.split(":")[0], verdict.witness,
                             verdict.reason)
    return Polymatroid(n, table)


def polymatroid_from_matroid(m):
    """A matroid viewed as a 1-polymatroid."""
    return Polymatroid(m.n, m.rank_table())


def poly_bases(p):
    """All integer basis vectors: x >= 0, x(U) <= r(U), x(E) = r(E).

    The result is verified against the basis exchange axiom for integer
    vectors of equal modulus.  This search is kept apart from the table walk
    in :mod:`flagtutte.lattice` on purpose: tests use it as the independent
    oracle for :func:`flagtutte.lattice.lattice_points`.
    """
    out = []
    x = [0] * p.n

    def search(j, total):
        if j == p.n:
            if total == p.total_rank:
                out.append(tuple(x))
            return
        # upper bound from every subset constraint ending at j
        hi = p.total_rank - total
        for s in range(1 << j):
            m = s | (1 << j)
            cap = p.rank_table[m] - sum(x[i] for i in range(j) if s >> i & 1)
            if cap < hi:
                hi = cap
        for v in range(hi + 1):
            x[j] = v
            search(j + 1, total + v)
        x[j] = 0

    search(0, 0)
    bases = sorted(out)
    _verify_vector_exchange(bases)
    return bases


def _verify_vector_exchange(bases):
    base_set = set(bases)
    for u in bases:
        for v in bases:
            for i, (ui, vi) in enumerate(zip(u, v)):
                if ui > vi:
                    ok = any(
                        u[j] < v[j]
                        and tuple(x - (k == i) + (k == j) for k, x in enumerate(u))
                        in base_set
                        for j in range(len(u)))
                    if not ok:
                        raise AxiomViolation("exchange", (u, v, i),
                                             "integer basis exchange fails")


def _greedy_vertex(n, table, order):
    """x_e = r(S + e) - r(S) along the ordering, S the elements before e."""
    x = [0] * n
    m = 0
    for e in order:
        before = table[m]
        m |= 1 << e
        x[e] = table[m] - before
    return tuple(x)


def vertex_from_ordering(p, order):
    """Greedy vertex of the base polytope: x_i = r(S_i) - r(S_{i-1})."""
    check_ordering(p.n, order)
    return _greedy_vertex(p.n, p.rank_table, order)


def is_quotient(n_matroid, m_matroid):
    """Rank criterion for matroid quotients: r_M - r_N is monotone."""
    return quotient_witness(n_matroid, m_matroid) is None


def quotient_witness(n_matroid, m_matroid):
    """A nested pair violating the quotient criterion, or None: the first
    single-element step that lowers r_M - r_N (see matroid._first_drop)."""
    if n_matroid.n != m_matroid.n:
        raise MismatchedGroundSets(
            f"{n_matroid.n} vs {m_matroid.n} elements")
    diff = [a - b for a, b in zip(m_matroid.rank_table(),
                                  n_matroid.rank_table())]
    drop = _first_drop(diff, n_matroid.n)
    return None if drop is None else tuple(tuple(_bits(m)) for m in drop)


class FlagMatroid:
    """Concordant matroids M_1, ..., M_s with nondecreasing ranks."""

    __slots__ = ("n", "ranks", "constituents")

    def __init__(self, n, constituents):
        self.n = n
        self.constituents = tuple(constituents)
        self.ranks = tuple(m.k for m in self.constituents)

    def __repr__(self):
        return f"FlagMatroid(n={self.n}, ranks={self.ranks})"

    def __eq__(self, other):
        return (isinstance(other, FlagMatroid) and self.n == other.n
                and self.constituents == other.constituents)

    def __hash__(self):
        return hash((self.n, self.constituents))


def flag_from_constituents(matroids):
    """Validate nondecreasing ranks and that each constituent is a quotient
    of the next, else NotConcordant(i, i + 1, witness).  That suffices: a
    sum of monotone r_k - r_j and r_j - r_i is monotone."""
    matroids = list(matroids)
    if not matroids:
        raise NotConcordant(0, 0, None)
    ns = {m.n for m in matroids}
    if len(ns) != 1:
        raise MismatchedGroundSets(f"ground set sizes {sorted(ns)} differ")
    ranks = [m.k for m in matroids]
    n = matroids[0].n
    if ranks[0] < 1 or ranks[-1] > n - 1:
        raise OutOfRange(f"constituent ranks {ranks} must lie in 1..{n - 1}")
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        raise NotConcordant(0, 0, tuple(ranks))
    for i, (small, big) in enumerate(zip(matroids, matroids[1:])):
        witness = quotient_witness(small, big)
        if witness is not None:
            raise NotConcordant(i, i + 1, witness)
    return FlagMatroid(matroids[0].n, matroids)


def enumerate_flags(flag_matroid):
    """The basis flags: chains of constituent bases over the distinct
    ranks, each a sorted tuple of sorted tuples, in sorted order.

    These are the torus-fixed points where the localization class lives;
    their weights (:func:`flag_weight`) are the vertices of the flag
    matroid polytope.
    """
    chains = [()]
    for m in flag_matroid.constituents:
        new = []
        for chain in chains:
            prev = chain[-1] if chain else ()
            for b in m.bases:
                if set(prev).issubset(b):
                    # an equal rank forces an equal set: keep one level
                    new.append(chain + (b,) if len(b) > len(prev) else chain)
        chains = new
    return sorted(chains)


def flag_weight(n, ranks, chain):
    """e_F: the indicator vectors of the levels summed over the rank tuple,
    so a level counts once per entry of `ranks` equal to its size."""
    by_size = {len(part): part for part in chain}
    vec = [0] * n
    for k in ranks:
        for e in by_size[k]:
            vec[e] += 1
    return tuple(vec)


def flag_check_gale(n, ranks, flags):
    """Does every linear ordering admit a unique Gale-maximal flag?

    Independent of the concordance theorem: raw dominance test over all n!
    orderings on chains over the distinct ranks.  Raises NotNested on a
    chain that does not increase; the witness of a failure is the
    offending ordering.  OutOfRange, before the walk, when n exceeds
    :data:`flagtutte.matroid.MAX_ORDERING_ELEMENTS`.
    """
    guard_orderings(n)
    flags = list(flags)
    sizes = tuple(sorted(set(ranks)))
    for chain in flags:
        for small, big in zip(chain, chain[1:]):
            if not set(small) <= set(big):
                raise NotNested(f"{sorted(small)} not inside {sorted(big)}")
        if tuple(map(len, chain)) != sizes:
            return Verdict(False, "flag has wrong rank tuple", witness=chain)
    for order in itertools.permutations(range(n)):
        pos = _positions(order)
        keys = [[gale_key(part, pos) for part in chain] for chain in flags]
        maximal = [cand for cand, cand_keys in zip(flags, keys)
                   if all(x <= y for other in keys
                          for k, cand_k in zip(other, cand_keys)
                          for x, y in zip(k, cand_k))]
        if len(maximal) != 1:
            return Verdict(False,
                           f"{len(maximal)} Gale-maximal flags", witness=order)
    return Verdict(True)


def polymatroid_of_flag(flag_matroid):
    """Rank table r(A) = sum of constituent ranks of A."""
    tables = [m.rank_table() for m in flag_matroid.constituents]
    table = [sum(t[m] for t in tables) for m in range(1 << flag_matroid.n)]
    return Polymatroid(flag_matroid.n, table)


# ------------------------------------------------- representable constructors

def _row_span_contains(big_rows, small_rows):
    stacked = [list(r) for r in big_rows] + [list(r) for r in small_rows]
    return linalg.matrix_rank(stacked) == linalg.matrix_rank(big_rows)


def flag_from_subspace_flag(matrices):
    """Flag matroid of a nested sequence of row spans.

    `matrices` is a list of exact rational matrices with a common number of
    columns, each row span contained in the next (for instance the first
    k_i rows of one n x n matrix).  Raises NotNested when containment fails.
    """
    matrices = [[[Fraction(x) for x in row] for row in m] for m in matrices]
    widths = {len(m[0]) for m in matrices}
    if len(widths) != 1:
        raise MismatchedGroundSets(f"column counts {sorted(widths)} differ")
    for small, big in zip(matrices, matrices[1:]):
        if not _row_span_contains(big, small):
            raise NotNested("row spans are not nested")
    return flag_from_constituents([matroid_from_matrix(m) for m in matrices])


def polymatroid_from_subspaces(blocks):
    """Representable polymatroid r(A) = dim of the sum of the blocks' spans.

    Each block is a matrix whose rows span the subspace attached to one
    ground-set element; all blocks share the ambient column count.
    """
    blocks = [[[Fraction(x) for x in row] for row in b] for b in blocks]
    widths = {len(b[0]) for b in blocks if b}
    if len(widths) > 1:
        raise MismatchedGroundSets(f"ambient dimensions {sorted(widths)} differ")
    n = len(blocks)
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        rows = [row for i in range(n) if m >> i & 1 for row in blocks[i]]
        table[m] = linalg.matrix_rank(rows) if rows else 0
    return polymatroid_from_rank(n, table)


# ------------------------------------------------------- lift to a matroid

def lifted_independent(p, r, pairs):
    """Independence oracle on E x [r] for the lift of a polymatroid.

    A set of pairs (e, copy) is independent iff for every B inside its
    projection, the number of pairs lying over B is at most r(B).
    """
    if r < p.max_singleton_rank:
        raise RankBoundTooSmall(
            f"need r >= {p.max_singleton_rank}, got {r}")
    pairs = set(pairs)
    for e, c in pairs:
        if not (0 <= e < p.n and 0 <= c < r):
            raise OutOfRange(f"pair ({e},{c}) outside E x [r]")
    proj = sorted({e for e, _ in pairs})
    for size in range(1, len(proj) + 1):
        for b in itertools.combinations(proj, size):
            bs = set(b)
            count = sum(1 for e, _ in pairs if e in bs)
            if count > p.rank(bs):
                return False
    return True


def polymatroid_to_matroid(p, r):
    """Materialize the lift on E x [r] as a matroid ((e,c) -> e*r + c).

    Desk-scale only: requires n*r <= 16.
    """
    if r < p.max_singleton_rank:
        raise RankBoundTooSmall(
            f"need r >= {p.max_singleton_rank}, got {r}")
    if p.n * r > 16:
        raise OutOfRange(f"lift ground set {p.n * r} exceeds 16 elements")
    elements = [(e, c) for e in range(p.n) for c in range(r)]
    k = p.total_rank
    bases = []
    for comb in itertools.combinations(elements, k):
        if lifted_independent(p, r, comb):
            bases.append([e * r + c for e, c in comb])
    return Matroid(p.n * r, bases)
