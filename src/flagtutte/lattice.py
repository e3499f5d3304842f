"""Base polytopes, cones at vertices and exact Hilbert series.

Every polytope this library produces is a generalized permutohedron, so
membership, lattice-point enumeration and face computations all run off the
submodular description z: x(S) <= z(S) for all S with x(E) = z(E), kept as
a full bitmask table.  Subset sums x(S) come from one table, vertices from
the greedy rule of :mod:`flagtutte.polyflag` (or, on a flag polytope, from
the weights of its basis flags), and lattice points from one
walk over the table that fixes a coordinate per level and closes the last
two by an interval; the same walk lists the points or only counts them.

The cone of a generalized permutohedron at a vertex is spanned by its edges
there, each parallel to some e_i - e_j and ending one root step away.  So
the edges at u are read from the vertex list alone: the vertices v with v - u
a positive multiple of some e_i - e_j give the arcs i -> j, and one
reachability closure of those arcs shows that they have no cycle (the cone
is pointed) and drops the shortcut arcs, which another path leads along;
the arcs left are the cone's rays, certified without linear programming
and with no topological order.  :mod:`flagtutte.ktheory` reads a flag
matroid's vertex cones by the same rule from its basis flags and builds no
polytope.  Any other cone gets its rays from the exact simplex, by
:func:`flagtutte.oracle.lp_rays`, the oracle the edge rays are tested
against; of the polytope routines only :func:`edge_direction_check`, which
tests the edge rule itself, runs the simplex.

Cones are triangulated by a pulling triangulation over their extreme rays,
and every piece is made half-open towards w = r_0 + eps*r_1 + eps^2*r_2 +
... over the sorted rays, so a facet is open exactly when the first ray its
normal does not vanish on lies on the negative side.  The pieces partition
the cone and

    Hilb(C) = sum over pieces of (sum_{b in FPP} t^b) / prod (1 - t^u).

When every ray is an arc e_i - e_j, as on every vertex cone of a
generalized permutohedron, all of this is integer and combinatorial: a
facet splits one connected component of the arcs into two connected sides
with every crossing arc pointing the same way, the pieces are spanning
forests, and a forest is unimodular, so its fundamental parallelepiped
holds the single point that sums its open generators.  Any other cone is
triangulated with exact rational nullspaces and its parallelepiped points
are enumerated through an integer diagonalization of the generator
matrix, by :mod:`flagtutte.oracle`; that general path is also the oracle
the arc path is tested against, and is imported only when a cone needs it.
"""

import itertools
import operator

from .errors import (CheckFailed, DimensionMismatch, NegativeShift,
                     NoDecomposition, NotAVertex, NotPointed, OutOfRange,
                     Verdict)
from . import linalg
from .laurent import LaurentPoly, binomial_fraction_sum
from .matroid import _find, guard_orderings
from .polyflag import (_greedy_vertex, enumerate_flags, flag_weight,
                       polymatroid_of_flag)


def _vadd(a, b):
    return tuple(map(operator.add, a, b))


def _vsub(a, b):
    return tuple(map(operator.sub, a, b))


class LatticePolytope:
    """Vertex list plus the submodular description z.

    `z` is a tuple of length 2^n indexed by subset bitmask with z[0] = 0;
    the polytope is {x : x(S) <= z[S] for all S, x(E) = z[full]}.  Every
    polytope here is a generalized permutohedron, so z is required.
    """

    __slots__ = ("n", "vertices", "z", "_neighbours")

    def __init__(self, n, vertices, z):
        self.n = n
        self.vertices = tuple(sorted(tuple(v) for v in set(map(tuple, vertices))))
        self.z = tuple(z)
        self._neighbours = None

    def neighbours(self):
        """For each vertex u, the indices, ascending, of the vertices it
        shares an edge with: the vertices v one root step away (v - u a
        positive multiple of some e_i - e_j, read as the arc i -> j) whose
        arc no other path of those arcs leads along (:func:`_extreme_arcs`;
        NotPointed when the arcs hold a cycle, as on a point list with a
        non-vertex).  It is read once per polytope."""
        if self._neighbours is None:
            verts = self.vertices
            out = []
            for u in verts:
                steps = [(k, _arc(linalg.primitive(_vsub(v, u))))
                         for k, v in enumerate(verts)]
                steps = [(k, arc) for k, arc in steps if arc is not None]
                extreme = set(_extreme_arcs([arc for _, arc in steps],
                                            self.n))
                out.append(tuple(k for k, arc in steps if arc in extreme))
            self._neighbours = tuple(out)
        return self._neighbours

    @property
    def dim(self):
        if len(self.vertices) <= 1:
            return 0
        v0 = self.vertices[0]
        return linalg.matrix_rank([_vsub(v, v0) for v in self.vertices[1:]])

    def contains(self, point):
        return _gp_contains(self.n, self.z, point)

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope) and self.n == other.n
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.n, self.vertices))

    def __repr__(self):
        return f"LatticePolytope(n={self.n}, {len(self.vertices)} vertices)"


def _subset_sums(v):
    """x(S) for every subset S of the coordinates, indexed by bitmask: the
    sets holding coordinate i are those without it, shifted by 1 << i."""
    sums = [0]
    for x in v:
        sums += [s + x for s in sums]
    return sums


def _gp_contains(n, z, point):
    if len(point) != n:
        raise OutOfRange(f"point has {len(point)} coordinates, need {n}")
    sums = _subset_sums(point)
    full = len(sums) - 1
    return sums[full] == z[full] and all(sums[m] <= z[m]
                                         for m in range(1, full))


def _gp_vertices(n, z):
    """All greedy vectors over the n! orderings (the vertex set);
    OutOfRange for n > :data:`flagtutte.matroid.MAX_ORDERING_ELEMENTS`."""
    guard_orderings(n)
    return sorted({_greedy_vertex(n, z, order)
                   for order in itertools.permutations(range(n))})


def base_polytope(matroid):
    """Convex hull of the indicator vectors of the bases.  The rank table
    comes first, so n past :data:`flagtutte.matroid.MAX_TABLE_ELEMENTS` is
    OutOfRange before any vertex is built."""
    z = matroid.rank_table()
    verts = []
    for b in matroid.bases:
        v = [0] * matroid.n
        for i in b:
            v[i] = 1
        verts.append(v)
    return LatticePolytope(matroid.n, verts, z)


def poly_base_polytope(p):
    return LatticePolytope(p.n, _gp_vertices(p.n, p.rank_table), p.rank_table)


def flag_polytope(flag_matroid):
    """Minkowski sum of the constituent base polytopes.

    Its vertices are the weights e_F of the basis flags (Borovik-Gelfand-
    White), read off :func:`flagtutte.polyflag.enumerate_flags` without a
    scan over orderings; the submodular description is the sum of the
    constituent rank tables.  That table comes first, so n past
    :data:`flagtutte.matroid.MAX_TABLE_ELEMENTS` is OutOfRange before any
    vertex is built.  With :func:`cone_at_vertex` it is the oracle for
    the vertex cones :func:`flagtutte.ktheory.y_class` reads from the
    basis flags without a polytope.
    """
    n, ranks = flag_matroid.n, flag_matroid.ranks
    z = polymatroid_of_flag(flag_matroid).rank_table
    return LatticePolytope(
        n, [flag_weight(n, ranks, chain)
            for chain in enumerate_flags(flag_matroid)], z)


def polytope_from_lattice_points(points):
    """Generalized permutohedron spanned by a full set of lattice points.

    Builds the submodular description from coordinate-sum maxima and checks
    that it reproduces exactly the given points (raising otherwise), so the
    result is safe to feed to the counting machinery.
    """
    points = sorted(set(map(tuple, points)))
    if not points:
        raise OutOfRange("empty point set")
    n = len(points[0])
    z = [max(col) for col in zip(*map(_subset_sums, points))]
    sums = {sum(p) for p in points}
    if len(sums) != 1 or lattice_points_of_table(n, z) != points:
        raise OutOfRange("point set is not a generalized permutohedron")
    return LatticePolytope(n, _gp_vertices(n, tuple(z)), z)


# ------------------------------------------------------ lattice enumeration

def _table_walk(n, z, points):
    """Integer points of {x(S) <= z(S), x(E) = z(E)}, one coordinate a level.

    Level j fixes x_j between the bounds that the sets with largest element
    j and the sets containing all of j+1..n-1 put on it, given the subset
    sums of x_0..x_{j-1}.  The last two coordinates a, b close by the
    interval x_a in [s - u_b, u_a] with x_b = s - x_a, where s is what is
    left of z(E).  Returns the number of points; when `points` is a list,
    the points are also appended to it in lex order.  The ground set must
    not be empty (OutOfRange for n < 1, as for polymatroids).
    """
    if n < 1:
        raise OutOfRange(f"ground set size {n} < 1")
    full = (1 << n) - 1
    if n == 1:
        if points is not None:
            points.append((z[full],))
        return 1
    a, b = n - 2, n - 1
    mask_a, mask_b, mask_ab = 1 << a, 1 << b, (1 << a) | (1 << b)
    x = [0] * n

    def rec(j, psums):
        if j == a:
            s = z[full] - psums[-1]
            for m in range(1 << j):
                if psums[m] + s > z[m | mask_ab]:
                    return 0
            ua = min(z[m | mask_a] - psums[m] for m in range(1 << j))
            ub = min(z[m | mask_b] - psums[m] for m in range(1 << j))
            if points is not None:
                for v in range(s - ub, ua + 1):
                    x[a], x[b] = v, s - v
                    points.append(tuple(x))
            return max(ua + ub - s + 1, 0)
        hi = min(z[m | (1 << j)] - psums[m] for m in range(1 << j))
        rest = full ^ ((2 << j) - 1)
        lo = z[full] - psums[-1] - min(z[rest | m] - psums[m]
                                       for m in range(1 << j))
        count = 0
        for v in range(lo, hi + 1):
            x[j] = v
            count += rec(j + 1, psums + [ps + v for ps in psums])
        return count

    return rec(0, [0])


def lattice_points_of_table(n, z):
    """Integer points of {x(S) <= z(S), x(E) = z(E)}, lex sorted; n >= 1
    (OutOfRange otherwise)."""
    points = []
    _table_walk(n, z, points)
    return points


def count_lattice_points_of_table(n, z):
    """Number of points :func:`lattice_points_of_table` would list."""
    return _table_walk(n, z, None)


def lattice_points(p):
    """All lattice points of the polytope, lex sorted."""
    return lattice_points_of_table(p.n, p.z)


# ----------------------------------------------------------------- faces

def edges(p):
    """Vertex pairs forming 1-faces, as index pairs into p.vertices, read
    from the root steps of :meth:`LatticePolytope.neighbours`."""
    return [(i, j) for i, adjacent in enumerate(p.neighbours())
            for j in adjacent if i < j]


def edge_direction_check(p, ranks=None):
    """Every edge parallel to some e_i - e_j; with `ranks`, every vertex is
    the weight of a flag of those ranks up to the order of coordinates.

    The edge rule of :meth:`LatticePolytope.neighbours` is not trusted: at
    each vertex u, every difference v - u must lie in the cone of the
    root-step edges at u, by the exact simplex (:func:`linalg.in_cone`).
    Those cones are then the vertex cones, so every edge is a root step;
    the witness of a failure is (u, v).  A point list whose root steps hold
    a cycle raises NotPointed.
    """
    verts = p.vertices
    for u, adjacent in zip(verts, p.neighbours()):
        rays = [_vsub(verts[k], u) for k in adjacent]
        for v in verts:
            if not linalg.in_cone(rays, _vsub(v, u)):
                return Verdict(False, "edge not parallel to e_i - e_j",
                               witness=(u, v))
    if ranks is not None:
        expected = flag_weight(p.n, ranks, tuple(
            tuple(range(k)) for k in sorted(set(ranks))))
        for v in verts:
            if tuple(sorted(v, reverse=True)) != expected:
                return Verdict(False, "vertex is not a rank vector, expected "
                               f"{expected}", witness=v)
    return Verdict(True)


# ------------------------------------------------------------------ cones

class RationalCone:
    """Pointed rational cone with apex at the origin."""

    __slots__ = ("n", "generators", "_rays")

    def __init__(self, generators, n=None):
        gens = sorted({linalg.primitive(g) for g in map(tuple, generators)
                       if any(x != 0 for x in g)})
        if n is None:
            if not gens:
                raise OutOfRange("dimension needed for the zero cone")
            n = len(gens[0])
        self.n = n
        self.generators = tuple(gens)
        self._rays = None

    def rays(self):
        """Extreme rays (primitive), lex sorted.

        A vertex cone of a polytope with a submodular description arrives
        with its rays already certified (:func:`edge_cone`).  Any other
        cone gets them from :func:`flagtutte.oracle.lp_rays`, which is
        also the oracle the edge rays are tested against.
        """
        if self._rays is None:
            from .oracle import lp_rays
            self._rays = lp_rays(self)
        return self._rays

    def __repr__(self):
        return f"RationalCone({list(self.generators)})"


def cone_at_vertex(p, v):
    """Cone spanned by u - v over all vertices u of the polytope.

    It is spanned by the edges at v, the root steps to other vertices less
    the shortcut ones (:meth:`LatticePolytope.neighbours`), whose
    directions :func:`edge_cone` certifies as its rays without linear
    programming.  On a :func:`flag_polytope` it is the oracle for
    :func:`flagtutte.ktheory.y_class`, which reads the cone by the same
    rule from the basis flags one torus orbit away.
    """
    v = tuple(v)
    if v not in p.vertices:
        raise NotAVertex(f"{v} is not a vertex")
    adjacent = p.neighbours()[p.vertices.index(v)]
    return edge_cone([_vsub(p.vertices[j], v) for j in adjacent], p.n)


def _arc(r):
    """The arc (i, j) when r = e_i - e_j, else None."""
    if sorted(r) != [-1] + [0] * (len(r) - 2) + [1]:
        return None
    return r.index(1), r.index(-1)


def _extreme_arcs(arcs, n):
    """The arcs i -> j, on nodes below n, that no other path of arcs leads
    along, in order.  One reachability closure over the nodes the arcs
    touch (Warshall) decides it; a node that reaches itself lies on a
    directed cycle, which sums to zero, so the cone over the arcs holds a
    line (NotPointed)."""
    succ = [0] * n
    for i, j in arcs:
        succ[i] |= 1 << j
    nodes = sorted({k for arc in arcs for k in arc})
    # reach[i]: the nodes that one or more arcs lead to from i
    reach = succ[:]
    for k in nodes:
        for i in nodes:
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    if any(reach[k] >> k & 1 for k in nodes):
        raise NotPointed("edge directions form a directed cycle, "
                         "so the cone contains a line")
    return [(i, j) for i, j in arcs
            if not any(succ[i] >> k & 1 and reach[k] >> j & 1
                       for k in nodes)]


def edge_cone(directions, n):
    """Pointed cone over edge directions of a generalized permutohedron.

    Each direction must have n coordinates (DimensionMismatch otherwise)
    and, made primitive, be some e_i - e_j, read as the arc i -> j;
    anything else raises CheckFailed.  The arcs must hold no directed
    cycle (NotPointed) and each must be extreme (:func:`_extreme_arcs`;
    CheckFailed otherwise, on the first other arc in generator order).
    The certified directions are stored as its rays.
    """
    if any(len(d) != n for d in directions):
        raise DimensionMismatch(f"edge directions need {n} coordinates")
    cone = RationalCone(directions, n=n)
    arcs = list(map(_arc, cone.generators))
    if None in arcs:
        raise CheckFailed("vertex cone", "edge direction is not e_i - e_j",
                          cone.generators[arcs.index(None)])
    extreme = _extreme_arcs(arcs, n)
    for r, arc in zip(cone.generators, arcs):
        if arc not in extreme:
            raise CheckFailed("vertex cone",
                              "edge direction is not an extreme ray", r)
    cone._rays = cone.generators
    return cone


class HalfOpenSimplicialCone:
    """Linearly independent primitive generators with open-facet flags."""

    __slots__ = ("n", "generators", "open_flags")

    def __init__(self, generators, open_flags):
        self.generators = tuple(map(tuple, generators))
        self.open_flags = tuple(open_flags)
        self.n = len(self.generators[0]) if self.generators else 0

    def parallelepiped_points(self):
        """Lattice points of the half-open fundamental parallelepiped.

        Arcs e_i - e_j are certified to form a forest (else CheckFailed):
        a forest's incidence matrix is totally unimodular, so its one point
        is the sum of its open generators.  Other generators go through
        the integer diagonalization of
        :func:`flagtutte.oracle._diagonalized_points`.
        """
        if not self.generators:
            return [()]
        arcs = [_arc(g) for g in self.generators]
        if None in arcs:
            from .oracle import _diagonalized_points
            return _diagonalized_points(self)
        if not _is_forest(arcs):
            raise CheckFailed("parallelepiped points",
                              "arcs are not a forest", self.generators)
        point = (0,) * self.n
        for g, is_open in zip(self.generators, self.open_flags):
            if is_open:
                point = _vadd(point, g)
        return [point]

    def __repr__(self):
        marks = ["(" if o else "[" for o in self.open_flags]
        gens = ", ".join(f"{m}{g}" for m, g in zip(marks, self.generators))
        return f"HalfOpenSimplicialCone({gens})"


def _is_forest(arcs):
    """Whether the arcs, directions ignored, have no cycle: each joins two
    components of the arcs before it (union-find)."""
    parent = list(range(max(map(max, arcs), default=-1) + 1))
    for i, j in arcs:
        ri, rj = _find(parent, i), _find(parent, j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def _grow(reached, arcs):
    """Close the node bitmask `reached` under the arcs, directions
    ignored."""
    grown = True
    while grown:
        grown = False
        for i, j in arcs:
            if (reached >> i & 1) != (reached >> j & 1):
                reached |= 1 << i | 1 << j
                grown = True
    return reached


def _connected(mask, arcs):
    """Whether the arcs with both ends in `mask` connect all of it."""
    inside = [(i, j) for i, j in arcs if mask >> i & 1 and mask >> j & 1]
    return _grow(mask & -mask, inside) == mask


def _arc_pulling_triangulation(arcs, indices):
    """Index tuples of a triangulation of the cone over the arcs (i, j),
    pulling at the first.

    A facet splits the component K of the pivot arc i -> j into sides U
    containing i and W containing j; both sides must be connected by the
    arcs inside them and every crossing arc must go from U to W.  Its rays
    are the arcs that do not cross, so faces are again arc cones and the
    recursion stops at the forests, which are simplicial.
    """
    if _is_forest(arcs):
        return [tuple(indices)]
    (i, j), out = arcs[0], []
    comp = _grow(1 << i, arcs)
    others = sub = comp & ~(1 << i | 1 << j)
    for _ in range(1 << others.bit_count()):
        sub = (sub - others) & others  # the submasks of others, ascending
        u = sub | 1 << i
        w = comp & ~u
        if any(w >> a & 1 and u >> b & 1 for a, b in arcs):
            continue
        keep = [k for k, (a, b) in enumerate(arcs)
                if not (u >> a & 1 and w >> b & 1)]
        face = [arcs[k] for k in keep]
        if _connected(u, face) and _connected(w, face):
            for piece in _arc_pulling_triangulation(
                    face, [indices[k] for k in keep]):
                out.append((indices[0],) + piece)
    if not out:
        raise CheckFailed("pulling triangulation", "no pieces", arcs)
    return out


def _open_by_first_sign(values):
    """Whether the first nonzero value is negative.

    With values h.r_k over the sorted rays this is the sign of h.w for
    w = r_0 + eps*r_1 + eps^2*r_2 + ... and small eps > 0, a generic
    interior vector found without a search.
    """
    for v in values:
        if v:
            return v < 0
    raise CheckFailed("half-open decomposition",
                      "a facet normal vanishes on every ray", values)


def _arc_pieces(rays, arcs):
    """Half-open spanning forests of the cone over the arcs.

    The normal of the facet opposite arc i -> j of a forest is the
    indicator of i's side once that arc is removed.
    """
    out = []
    for piece in _arc_pulling_triangulation(arcs, range(len(arcs))):
        forest = [arcs[k] for k in piece]
        flags = []
        for k, (i, _) in enumerate(forest):
            side = _grow(1 << i, forest[:k] + forest[k + 1:])
            flags.append(_open_by_first_sign(
                [(side >> a & 1) - (side >> b & 1) for a, b in arcs]))
        out.append(HalfOpenSimplicialCone([rays[k] for k in piece], flags))
    return out


def triangulate(cone):
    """Disjoint half-open simplicial decomposition of a pointed cone.

    Pieces are cones over subsets of the extreme rays from a pulling
    triangulation.  A piece's facet is open when its inward normal is
    negative on w = r_0 + eps*r_1 + ... over the sorted rays, which is
    the sign of the first ray the normal does not vanish on, so the
    pieces partition the cone exactly.  When every ray is an arc
    e_i - e_j the triangulation is combinatorial (:func:`_arc_pieces`);
    any other cone goes through :func:`flagtutte.oracle._fraction_pieces`.
    """
    rays = cone.rays()
    arcs = [_arc(r) for r in rays]
    if None in arcs:
        from .oracle import _fraction_pieces
        return _fraction_pieces(rays)
    return _arc_pieces(rays, arcs)


def hilbert_numerator(cone, denom):
    """The Laurent polynomial Hilb(C) * prod_{a in denom} (1 - t^a).

    One :func:`flagtutte.laurent.binomial_fraction_sum` times denom, with
    a term sum_b t^b over its generators for each piece.  When every ray
    is a factor of denom, as on a flag polytope against its chart, each
    piece is multiplied by the rays it lacks and the other factors of
    denom multiply the sum once; any leftover generator must divide off
    exactly (InexactDivision otherwise).
    """
    n = cone.n
    return binomial_fraction_sum(n, [
        (LaurentPoly(n, {b if b else (0,) * n: 1
                         for b in piece.parallelepiped_points()}),
         piece.generators)
        for piece in triangulate(cone)], denom)


# --------------------------------------------- Minkowski sums and normality

def minkowski_sum(polytopes):
    """Sum polytope with added submodular descriptions."""
    ns = {p.n for p in polytopes}
    if len(ns) != 1:
        raise OutOfRange(f"ambient dimensions {sorted(ns)} differ")
    n = ns.pop()
    z = tuple(sum(p.z[m] for p in polytopes) for m in range(1 << n))
    return LatticePolytope(n, _gp_vertices(n, z), z)


def _split(point, lists):
    """One point of each list, summing to `point` and first in lex order of
    the indices, or None.

    Backtracking skips a remainder that already failed at its level (an
    earlier prefix with the same sum left it), and where a list is the one
    before it, starts at the index taken there, so each multiset is tried
    once (sorting a split within such a run gives one no later).
    """
    last = len(lists) - 1
    final = set(lists[last])
    chained = [lists[i + 1] == lists[i] for i in range(last)]
    failed = [set() for _ in range(last)]

    def rec(i, rest, start):
        if i == last:
            return [rest] if rest in final else None
        if rest not in failed[i]:
            points, chain = lists[i], chained[i]
            for idx in range(start, len(points)):
                tail = rec(i + 1, _vsub(rest, points[idx]),
                           idx if chain else 0)
                if tail is not None:
                    return [points[idx]] + tail
            failed[i].add(rest)
        return None

    return rec(0, point, 0)


def decompose_lattice_point(point, polytopes):
    """Write `point` as a sum of lattice points, one per summand.

    The first split in lex order over the summands' lattice points
    (:func:`_split`); raises NoDecomposition when no split exists
    (impossible for polymatroid-polytope summands), and OutOfRange for a
    point of another dimension.
    """
    point = tuple(point)
    n = polytopes[0].n
    if len(point) != n:
        raise OutOfRange(f"point has {len(point)} coordinates, need {n}")
    parts = _split(point, [lattice_points(p) for p in polytopes])
    if parts is None:
        raise NoDecomposition(f"{point} admits no lattice decomposition")
    return parts


def is_normal(p, kmax):
    """Every lattice point of kP a sum of k lattice points of P, k <= kmax.

    The points of kP are listed straight from the table k*z and each is
    split over k copies of P's lattice points (:func:`_split`); the
    ambient lattice Z^n is used throughout.  The witness is the first
    point, by k and then in lex order, that is not a k-fold sum.

    Only k <= min(kmax, max(2, d)) is checked, d = dim P, as no larger k
    can fail first.  Take c >= max(2, d) and a lattice point x of (c+1)P.
    By Caratheodory x = sum l_i v_i over at most d + 1 vertices v_i, with
    l_i >= 0 and sum l_i = c + 1 >= d + 1, so some l_i >= 1 and x - v_i
    is a lattice point of cP.  If every point of cP is a c-fold sum, then
    x is a (c+1)-fold sum; by induction the first failing k, if any, is at
    most max(2, d), so the verdict and the witness are those of the loop
    to kmax.  The argument needs only that P's vertices are among the
    summands.
    """
    if kmax < 2:
        raise OutOfRange("kmax must be at least 2")
    pts = lattice_points(p)
    for k in range(2, min(kmax, max(2, p.dim)) + 1):
        for q in lattice_points_of_table(p.n, [k * x for x in p.z]):
            if _split(q, [pts] * k) is None:
                return Verdict(False, f"point of {k}P not a {k}-fold sum",
                               witness=q)
    return Verdict(True)


def count_shifted(p, u, t):
    """Number of lattice points of P + u*simplex + t*(-simplex).

    Support functions add: z'(S) = z(S) + u on proper nonempty S and
    x(E) = z(E) + u - t.
    """
    if u < 0 or t < 0:
        raise NegativeShift(f"u={u}, t={t}")
    n = p.n
    full = (1 << n) - 1
    z = list(p.z)
    for m in range(1, full):
        z[m] += u
    z[full] += u - t
    return count_lattice_points_of_table(n, tuple(z))
