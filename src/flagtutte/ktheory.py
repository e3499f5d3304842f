"""Torus-fixed-point localization on flag varieties.

A class is stored by its restrictions to the torus-fixed points: set-flags
F with the chart characters t_j^{-1} t_i for pairs (i, j) such that some
level contains i but not j.  Characters are exponent vectors, so the pair
(i, j) contributes e_i - e_j and the chart factor (1 - chi^{-1}) is
1 - t^(e_j - e_i).

The localization class of a flag matroid is zero away from its flags and
the numerator of the vertex-cone Hilbert series against the chart
denominator at them.  The cone at a basis flag is read from the basis
flags at the other ends of its 1-dim orbits, so no polytope is built.
Renaming the variables maps a cone, its chart and that numerator alike,
and ordering the elements by the level of a flag that first holds them
maps its chart to one standard chart of the space, so the cones that are
one cone relabelled share one numerator, computed once and renamed to each
flag (:func:`y_class`); the GKM certificate is decided per shape and chart
character and relabelled to each orbit.  Multiplying by the Segre-Veronese
line-bundle weight t^{e_F} (a shift at each flag), pulling back to
Fl(1, k, n-1) and pushing forward to the product of two projective spaces
(chain by chain: each basis flag's own chart, less the pairs of a target
chart, gives its term at every target point over it, so the larger space
is never built), then solving triangularly against the coordinate-subspace
classes, one factor at a time, produces the bivariate polynomial
invariant; every division along the way must be exact.

Only that invariant's value at t = 1 is needed, so :func:`k_tutte` applies
the ring map t_i -> z^{w_i}, for n distinct integers w_i, to the
localization class, each shape's numerator along the weights read in a
flag's frame, and the line bundle is then a shift by z^(w.e_F) at each
flag F.  Every character the pushforward, its GKM check and the
reduction divide by is some e_i - e_j, of degree w_i - w_j != 0, and a
ring map into the domain Z[z^±] keeps each exact quotient exact and unique
and commutes with the evaluation at 1, so the polynomial is the same.  A
class records which ring its values live in
(:attr:`EquivariantClass.weights`), and each of those three stages has one
body over the class's map from a pair (i, j) to an exponent: e_i - e_j
itself, the multivariate oracle, or its degree.  A GKM check compares the
residues of the two ends of an orbit modulo 1 - t^chi
(:meth:`flagtutte.laurent.LaurentPoly.residue`), on the orbits that end in
the class's support: any other compares 0 with 0.  A GKM or exactness
check that runs after the specialization, in Z[z^±], is a necessary
condition only; the multivariate GKM check on the localization class is
the certificate.
"""

from collections import Counter
from math import factorial
from operator import mul

from .errors import (BadWeights, InexactDivision, OutOfRange, ParseError,
                     SpaceMismatch, Verdict)
from .laurent import LaurentPoly, binomial_fraction_sum
from .lattice import _extreme_arcs, edge_cone, hilbert_numerator
from .matroid import MAX_ORDERING_ELEMENTS, guard_table, uniform_matroid
from .polyflag import FlagMatroid, enumerate_flags, flag_weight


def _char(n, i, j):
    """The character exponent e_i - e_j."""
    out = [0] * n
    out[i] += 1
    out[j] -= 1
    return tuple(out)


def format_chain(chain, n):
    """The flag string of a chain on n elements: ((0,), (0, 1)) -> "0|01".

    Labels run together while n <= 10, where each is one digit.  Beyond
    that they are separated by commas, and a block of one label ends in a
    comma so that it is not read as digits: ((10,), (3, 10)) -> "10,|3,10".
    """
    if n <= 10:
        return "|".join("".join(map(str, part)) for part in chain)
    return "|".join(",".join(map(str, part)) + "," * (len(part) == 1)
                    for part in chain)


def parse_chain(text):
    """Inverse of :func:`format_chain`: "0|01" -> ((0,), (0, 1)).

    A block with a comma is read as comma-separated labels, one trailing
    comma allowed; any other block as single-digit labels.  Raises
    ParseError when a block is not made of element labels.
    """
    parts = []
    for block in text.split("|"):
        labels = (block.removesuffix(",").split(",") if "," in block
                  else block)
        try:
            parts.append(tuple(sorted(int(x) for x in labels)))
        except ValueError as exc:
            raise ParseError(f"bad flag string {text!r}: {exc}") from exc
    return tuple(parts)


class FlagSpace:
    """The variety of flags of the given ranks in C^n with its torus data.

    Ranks are nondecreasing with repeats allowed; fixed points are chains
    over the distinct ranks (equal ranks force equal subsets), while
    line-bundle weights still count each rank with its multiplicity.
    """

    def __init__(self, n, ranks):
        ranks = tuple(ranks)
        if not ranks or any(a > b for a, b in zip(ranks, ranks[1:])):
            raise SpaceMismatch(f"ranks {ranks} not nondecreasing")
        if ranks[0] < 1 or ranks[-1] > n - 1:
            raise SpaceMismatch(f"ranks {ranks} outside 1..{n - 1}")
        self.n = n
        self.ranks = ranks
        self.distinct_ranks = tuple(sorted(set(ranks)))
        self._fixed = None
        # OutOfRange past 10! fixed points; their count n!/prod(block!) is
        # built past the largest block, at least doubling at each element
        levels = (0,) + self.distinct_ranks + (n,)
        blocks = sorted(b - a for a, b in zip(levels, levels[1:]))
        count, m = 1, blocks.pop()
        for t in (t for d in blocks for t in range(1, d + 1)):
            m, count = m + 1, count * (m + 1) // t
            if count > factorial(MAX_ORDERING_ELEMENTS):
                raise OutOfRange(f"{self} has at least {count} fixed points; "
                                 f"the limit is {MAX_ORDERING_ELEMENTS}!")

    def fixed_points(self):
        """All set-flags over the distinct ranks, sorted: the basis flags
        of the flag of uniform matroids of these ranks.  At most 10! of
        them (:data:`flagtutte.matroid.MAX_ORDERING_ELEMENTS`), as the
        space refuses more when it is made."""
        if self._fixed is None:
            self._fixed = tuple(enumerate_flags(FlagMatroid(
                self.n, [uniform_matroid(k, self.n) for k in self.ranks])))
        return self._fixed

    def __contains__(self, chain):
        """Whether a chain of tuples is one of :meth:`fixed_points`, told
        without listing them: a level of each distinct rank's size, each
        of increasing labels in range(n) and inside the next."""
        levels = list(map(set, chain))
        return (tuple(map(len, chain)) == self.distinct_ranks
                and all(part == tuple(sorted(level))
                        for part, level in zip(chain, levels))
                and levels[-1] <= set(range(self.n))
                and all(a <= b for a, b in zip(levels, levels[1:])))

    def weight_vector(self, chain):
        """e_F: indicator sum over the full rank tuple, with multiplicity."""
        return flag_weight(self.n, self.ranks, chain)

    def chart_pairs(self, chain):
        """S(F): pairs (i, j) with i in some level missing j, sorted."""
        pairs = set()
        for part in chain:
            inside = set(part)
            for i in part:
                for j in range(self.n):
                    if j not in inside:
                        pairs.add((i, j))
        return sorted(pairs)

    def chart_characters(self, chain):
        """Chart character exponents e_i - e_j over S(F)."""
        return [_char(self.n, i, j) for i, j in self.chart_pairs(chain)]

    def move(self, chain, i, j):
        """The flag with i and j swapped at every level containing i only."""
        out = []
        for part in chain:
            inside = set(part)
            if i in inside and j not in inside:
                inside.discard(i)
                inside.add(j)
            out.append(tuple(sorted(inside)))
        return tuple(out)

    def orbits_at(self, chain):
        """(other end, (i, j)) for the 1-dim orbit along each chart pair."""
        return [(self.move(chain, i, j), (i, j))
                for i, j in self.chart_pairs(chain)]

    def one_dim_orbits(self):
        """Every 1-dim orbit once, as :func:`_orbits` lists them."""
        return _orbits(self, self.fixed_points())

    def __eq__(self, other):
        return (type(other) is FlagSpace and self.n == other.n
                and self.ranks == other.ranks)

    def __hash__(self):
        return hash((self.n, self.ranks))

    def __repr__(self):
        return f"FlagSpace(ranks={self.ranks}, n={self.n})"


class ProjProductSpace:
    """P^{n-1} x P^{n-1} as lines and hyperplanes with the induced torus.

    Fixed points are pairs ((a,), J) with |J| = n-1; the line need not lie
    in the hyperplane.
    """

    def __init__(self, n):
        self.n = n

    def fixed_points(self):
        return tuple(sorted(((a,), self.hyperplane(m))
                            for a in range(self.n) for m in range(self.n)))

    def hyperplane(self, m):
        """The coordinate hyperplane missing m."""
        return tuple(x for x in range(self.n) if x != m)

    def missing(self, hyperplane):
        return next(m for m in range(self.n) if m not in set(hyperplane))

    def orbits_at(self, point):
        """(other end, (i, j)) for the 1-dim orbits through a point: the
        line a goes to b along (a, b), the hyperplane trades i for m."""
        (a,), hyperplane = point
        m = self.missing(hyperplane)
        return ([(((b,), hyperplane), (a, b)) for b in range(self.n)
                 if b != a]
                + [(((a,), self.hyperplane(i)), (i, m)) for i in hyperplane])

    def chart_pairs(self, point):
        return sorted(pair for _, pair in self.orbits_at(point))

    def one_dim_orbits(self):
        """Every 1-dim orbit once, as :func:`_orbits` lists them."""
        return _orbits(self, self.fixed_points())

    def __eq__(self, other):
        return type(other) is ProjProductSpace and self.n == other.n

    def __hash__(self):
        return hash(("pp", self.n))

    def __repr__(self):
        return f"ProjProductSpace(n={self.n})"


def _orbits(space, points, lists=None):
    """The 1-dim orbits of the space with an end among the points, each
    once as (smaller end, larger end, (i, j)) with (i, j) its pair at the
    smaller end, sorted by that end and pair; `lists` holds
    space.orbits_at(p) for each point when they are at hand.  In both
    spaces the orbit from p to q along (i, j) runs from q to p along
    (j, i)."""
    found = set()
    for p, at in zip(points, lists or map(space.orbits_at, points)):
        for q, (i, j) in at:
            found.add((p, q, (i, j)) if p < q else (q, p, (j, i)))
    return sorted(found, key=lambda orbit: (orbit[0], orbit[2], orbit[1]))


class EquivariantClass:
    """Map from fixed points to Laurent polynomials; absent means zero.

    `weights` is None when the values are Laurent polynomials in the torus
    characters t_1, ..., t_n, and the vector w when they are their images
    under t_i -> z^{w_i} (:meth:`specialize`), polynomials in z alone.
    """

    __slots__ = ("space", "values", "weights")

    def __init__(self, space, values, weights=None):
        self.space = space
        self.values = {fp: v for fp, v in values.items() if not v.is_zero()}
        self.weights = weights

    @property
    def nvars(self):
        return self.space.n if self.weights is None else 1

    def char(self, i, j):
        """The exponent of the character e_i - e_j in the ring of the
        values: the vector itself, or its degree w_i - w_j."""
        if self.weights is None:
            return _char(self.space.n, i, j)
        return (self.weights[i] - self.weights[j],)

    def specialize(self, weights):
        """The class, in the torus characters, under the ring map
        t_i -> z^{w_i}.

        The weights must be distinct, so that no character e_i - e_j
        becomes trivial (BadWeights otherwise).
        """
        if len(weights) != self.space.n or len(set(weights)) != len(weights):
            raise BadWeights(f"weights {tuple(weights)} are not "
                             f"{self.space.n} distinct integers")
        return EquivariantClass(
            self.space, {fp: v.specialize(weights)
                         for fp, v in self.values.items()}, tuple(weights))

    def value(self, fp):
        return self.values.get(fp, LaurentPoly.zero(self.nvars))

    def __mul__(self, other):
        if self.space != other.space or self.weights != other.weights:
            raise SpaceMismatch(f"{self.space} vs {other.space}")
        common = set(self.values) & set(other.values)
        return EquivariantClass(
            self.space, {fp: self.values[fp] * other.values[fp]
                         for fp in common}, self.weights)

    def __eq__(self, other):
        return (isinstance(other, EquivariantClass)
                and self.space == other.space
                and self.weights == other.weights
                and self.values == other.values)

    def items(self):
        return [(fp, self.value(fp)) for fp in self.space.fixed_points()]

    def gkm_verdict(self):
        """Congruence f(x) = f(y) mod (1 - chi) along every 1-dim orbit:
        the two ends have the same residue (:meth:`LaurentPoly.residue`).

        The walk starts from the support, as an orbit with neither end
        there compares 0 with 0; the witness is the first failing orbit in
        :meth:`one_dim_orbits` order.  On a specialized class the
        congruence is taken in Z[z^±], a necessary condition only.
        """
        for f1, f2, (i, j) in _orbits(self.space, self.values):
            chi = self.char(i, j)
            if self.value(f1).residue(chi) != self.value(f2).residue(chi):
                return Verdict(False, "congruence fails",
                               witness=(f1, f2, (i, j)))
        return Verdict(True)

    def assert_gkm(self, stage):
        v = self.gkm_verdict()
        if not v:
            raise InexactDivision(f"{stage}: localization class is "
                                  f"incompatible along orbit {v.witness}")

    def __repr__(self):
        return f"EquivariantClass({self.space}, {len(self.values)} nonzero)"


# ----------------------------------------------------------- constructions

def o1_class(space):
    """The very ample line bundle of the embedding: p_F -> t^{e_F}."""
    return EquivariantClass(
        space, {fp: LaurentPoly.monomial(space.weight_vector(fp))
                for fp in space.fixed_points()})


def _y_shapes(flag_matroid):
    """:func:`y_class` by cone shape, its certificate decided: (space,
    {shape key: numerator against the standard chart}, {basis flag:
    (shape key, order, place)}); a flag's value is its shape's numerator
    renamed by `order`, which `place` inverts."""
    n = flag_matroid.n
    guard_table(n)
    space = FlagSpace(n, flag_matroid.ranks)
    flags = enumerate_flags(flag_matroid)
    basis = set(flags)
    standard = tuple(tuple(range(r)) for r in space.distinct_ranks)
    denom = [_char(n, j, i) for i, j in space.chart_pairs(standard)]
    shapes, frames, lists = {}, {}, []
    for chain in flags:
        lists.append(space.orbits_at(chain))
        arcs = _extreme_arcs([(j, i) for end, (i, j) in lists[-1]
                              if end in basis], n)
        # the first level holding e, as the levels missing e come first
        block = [sum(e not in part for part in chain) for e in range(n)]
        tails = Counter(i for i, _ in arcs)
        heads = Counter(j for _, j in arcs)
        order = sorted(range(n), key=lambda e: (block[e], tails[e],
                                                heads[e], e))
        place = {e: p for p, e in enumerate(order)}
        key = tuple(sorted((place[i], place[j]) for i, j in arcs))
        if key not in shapes:
            shapes[key] = hilbert_numerator(
                edge_cone([_char(n, i, j) for i, j in key], n), denom)
        frames[chain] = key, order, place
    residues, verdicts = {}, {}

    def residue(chain, i, j):
        # along e_i - e_j in the flag's places, the same along e_j - e_i
        key, _, place = frames[chain]
        a, b = sorted((place[i], place[j]))
        if (key, a, b) not in residues:
            residues[key, a, b] = shapes[key].residue_poly(_char(n, a, b))
        return residues[key, a, b]

    for f1, f2, (i, j) in _orbits(space, flags, lists):
        if f1 not in basis or f2 not in basis:
            ok = residue(f1 if f1 in basis else f2, i, j).is_zero()
        else:
            (s1, _, place), (s2, order2, _) = frames[f1], frames[f2]
            sigma = tuple(place[e] for e in order2)  # f2's places to f1's
            chi = _char(n, place[i], place[j])
            if (s1, s2, sigma, chi) not in verdicts:
                verdicts[s1, s2, sigma, chi] = residue(f1, i, j) == residue(
                    f2, i, j).rename(sigma).residue_poly(chi)
            ok = verdicts[s1, s2, sigma, chi]
        if not ok:
            raise InexactDivision(f"y_class: localization class is "
                                  f"incompatible along orbit "
                                  f"{(f1, f2, (i, j))}")
    return space, shapes, frames


def y_class(flag_matroid):
    """Localization class of a flag matroid.

    Zero away from the basis flags, which
    :func:`flagtutte.polyflag.enumerate_flags` lists; on a basis flag F,
    the numerator of the vertex cone's Hilbert series against the chart
    denominator.  An edge at e_F runs along some e_j - e_i to (i j).F, the
    other end of F's orbit along (i, j) (Borovik-Gelfand-White), so the
    cone is spanned by the arcs j -> i to those ends that are basis flags,
    and its rays are the arcs no other path of them leads along
    (:func:`_extreme_arcs`); no polytope is built.  Its nodes are ordered
    by the first level of F that holds them (elements in no level last),
    then by out- and in-degree among the arcs, then by label, and
    relabelled by their places in that order, F's frame.  Every chart of
    the space then becomes one standard chart, the pairs (a, b) with a in
    an earlier block than b, so the relabelled arcs, sorted, key the
    cone's shape.  Each shape's numerator is computed once against the
    standard chart and renamed back to each flag of that shape
    (:meth:`LaurentPoly.rename`); the numerator is unique, so the values
    are those computed flag by flag.

    The GKM congruence, the certificate, is decided per shape and chart
    character: each shape's residue along each e_a - e_b of the standard
    chart is taken at most once, and an orbit from F to F' compares the
    residue at F with the one at F' renamed into F's frame and taken again
    along F's character (a renaming is a ring automorphism, so it maps the
    ideal (1 - t^chi) onto (1 - t^(sigma chi))), or, with one end off the
    support, checks that the other's residue is zero.  Each verdict is
    kept per (shapes at both ends, relabelling, character) for the call,
    and the first failing orbit in :meth:`FlagSpace.one_dim_orbits` order
    raises InexactDivision, as :meth:`EquivariantClass.assert_gkm` does.
    OutOfRange past MAX_TABLE_ELEMENTS, as in :func:`k_tutte`.
    """
    space, shapes, frames = _y_shapes(flag_matroid)
    return EquivariantClass(space, {
        chain: shapes[key].rename(order)
        for chain, (key, order, _) in frames.items()})


def pullback(cls, target_space):
    """Composition with the forgetful projection to the coarser flags.

    The construction pulls back to Fl(1, ranks, n-1); :func:`pushforward_to_pp`
    does that chain by chain, and the tests compare it against this map.
    """
    source = cls.space
    if (target_space.n != source.n
            or not set(source.distinct_ranks)
            <= set(target_space.distinct_ranks)):
        raise SpaceMismatch(f"cannot project {target_space} onto {source}")
    keep = set(source.distinct_ranks)
    values = {}
    for chain in target_space.fixed_points():
        sub = tuple(part for part in chain if len(part) in keep)
        v = cls.value(sub)
        if not v.is_zero():
            values[chain] = v
    return EquivariantClass(target_space, values, cls.weights)


def pushforward_to_pp(cls):
    """Pull back to Fl(1, ranks, n-1), push along (first, last) to the
    line-hyperplane product.

    The class may live on any flag space; the larger space is never built.
    A chain F lies over each point ((a,), H) with a in F_1 and F_s inside
    H, H missing m.  Its fiber chart there is that of (a) < F < H, and the
    target chart holds (a, m) twice and the rest of that chart once, so
    what is left of the fiber chart once the target chart cancels is F's
    own chart less the pairs (a, j) and (i, m).  Each chart factor is
    turned to one orientation of its pair, so the terms share a small
    common denominator, and each point sums its terms times the one
    factor 1 - t^(e_m - e_a) left of the target chart
    (:func:`flagtutte.laurent.binomial_fraction_sum`).  The result must be
    a Laurent polynomial and satisfy GKM, both asserted.  The result lives
    in the ring of the class (:meth:`EquivariantClass.char`): a
    specialized class pushes forward to a specialized class, and its
    checks run in Z[z^±], as necessary conditions only.
    """
    space, char, n = cls.space, cls.char, cls.space.n
    target = ProjProductSpace(n)
    terms = {}
    for chain, val in cls.values.items():
        factors = []  # (i, j, oriented character, whether it was flipped)
        for i, j in space.chart_pairs(chain):
            chi = char(j, i)
            flipped = tuple(-x for x in chi)
            factors.append((i, j, max(chi, flipped), flipped > chi))
        outside = [m for m in range(n) if m not in chain[-1]]
        for a in chain[0]:
            for m in outside:
                kept = [f for f in factors if f[0] != a and f[1] != m]
                # 1/(1 - t^chi) = -t^-chi / (1 - t^-chi) for each flip
                flips = [chi for _, _, chi, flip in kept if flip]
                num = val.shift(tuple(map(sum, zip(*flips)))) if flips else val
                terms.setdefault((a, m), []).append(
                    (-num if len(flips) % 2 else num,
                     [chi for _, _, chi, _ in kept]))
    out = EquivariantClass(target, {
        ((a,), target.hyperplane(m)):
            binomial_fraction_sum(cls.nvars, fiber, [char(m, a)])
        for (a, m), fiber in terms.items()}, cls.weights)
    out.assert_gkm("pushforward")
    return out


def _solve_along(values, factor):
    """Coefficients x_0, ..., x_{n-1} with
    values[i] = sum_{a <= i} x_a prod_{l < a} (1 - t^factor(l, i)).

    Terms a > i vanish, as their product holds 1 - t^factor(i, i) = 0.  In
    Newton's form values[i] = x_0 + (1 - t^factor(0, i)) (x_1 + ...), so
    x_i is values[i] with each earlier x_a subtracted and the diagonal
    binomial 1 - t^factor(a, i) divided off in turn, exactly
    (InexactDivision otherwise); no basis product is built.
    """
    out = []
    for i, v in enumerate(values):
        for a, x in enumerate(out):
            v = (v - x).exact_divide(factor(a, i))
        out.append(v)
    return out


def to_nonequivariant(cls):
    """Solve against the coordinate-subspace basis and evaluate at t = 1.

    At the point (i, H missing m) the basis class (a, b) restricts to the
    product of 1 - t^(e_l - e_i), l < a, from {x_0 = ... = x_{a-1} = 0},
    and of 1 - t^(e_m - e_l), l < b, from {H containing e_0, ..., e_{b-1}}
    (the dual torus acts with t_m t_l^{-1}).  It is a product basis, so
    :func:`_solve_along` runs along the line index for each hyperplane,
    then along the hyperplane index.  Every division must be exact,
    otherwise the class is not the localization of a genuine equivariant
    sheaf class (InexactDivision).  The solve runs in the ring of the
    class's values; on a specialized class, where z = 1 stands for t = 1,
    the quotients are the images of the multivariate ones, and exactness
    there is a necessary condition only.
    """
    if not isinstance(cls.space, ProjProductSpace):
        raise SpaceMismatch("reduction is defined on the product space")
    n, char = cls.space.n, cls.char
    rows = [_solve_along([cls.value(((i,), cls.space.hyperplane(m)))
                          for i in range(n)], char) for m in range(n)]
    out = {}
    for a in range(n):
        column = _solve_along([row[a] for row in rows],
                              lambda l, m: char(m, l))
        out.update(((b, a), c.subs_one()) for b, c in enumerate(column))
    return LaurentPoly(2, out)


def k_tutte(flag_matroid, weights=None):
    """Bivariate polynomial invariant of a flag matroid via localization.

    Pipeline: localization class, twist by the line bundle O(1), pull-push
    to the line-hyperplane product through ranks (1, k, n-1), triangular
    reduction.  Exponents stay below n in each variable by construction.
    The localization class y is GKM-checked in the torus characters, per
    cone shape and chart character (:func:`y_class`), and that check is
    the certificate.  The twist needs no check of its own: along an orbit
    with character chi, the exponents of O(1) at its ends differ by a
    multiple of chi, so the product's congruence is y's times a unit
    t^{e_F}.  Nor does the pulled-back class: each 1-dim orbit of
    Fl(1, k, n-1) projects to one point, where the difference is zero, or
    onto an orbit of Fl(k) with the same character.  Then y is specialized
    along t_i -> z^{w_i}, w the given weights or 0, ..., n-1 (BadWeights,
    before any cone is built, unless n distinct integers): at a basis flag
    F, its shape's numerator along the weights read in F's frame, so y is
    never expanded in the torus characters.  O(1) is a shift by
    z^{w.e_F} at each F, so no fixed point off y's support is listed.  The
    pull-push and the reduction run in Z[z^±], with the same result for
    every such w, as the module docstring shows.
    """
    n = flag_matroid.n
    if n < 2:
        raise OutOfRange("the construction needs n >= 2")
    guard_table(n)  # README's bound on n, before the weights are listed
    weights = tuple(range(n)) if weights is None else tuple(weights)
    space = FlagSpace(n, flag_matroid.ranks)  # OutOfRange past 10! points
    EquivariantClass(space, {}).specialize(weights)  # BadWeights, no cone
    _, shapes, frames = _y_shapes(flag_matroid)
    twisted = {chain: shapes[key].specialize([weights[e] for e in order])
               .shift((sum(map(mul, weights, space.weight_vector(chain))),))
               for chain, (key, order, _) in frames.items()}
    return to_nonequivariant(pushforward_to_pp(
        EquivariantClass(space, twisted, weights)))
