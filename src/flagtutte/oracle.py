"""Test oracles: the general exact routines that no CLI verb runs.

Every cone a verb builds is a vertex cone of a generalized permutohedron,
whose rays are arcs e_i - e_j, and :mod:`flagtutte.lattice` triangulates
such a cone and lists its parallelepiped points combinatorially.  The
routines here handle any cone and any rational function with binomial
denominators.  They are the independent oracles the tests check the
production paths against, and the library path for general cones:
:mod:`flagtutte.lattice` imports from here only on a cone whose rays
are not certified arcs.  No production module imports this one at load
time.

- Linear algebra over Q and Z: exact solutions and nullspaces over the row
  reduction of :mod:`flagtutte.linalg`, an integer diagonalization
  P·A·Q = D by unimodular row and column operations, and convex-hull
  membership through the exact simplex.
- Cones: :func:`is_pointed` and :func:`lp_rays` through the exact simplex,
  a pulling triangulation through exact rational nullspaces, made
  half-open by the same rule as the arc path, and parallelepiped points
  through residue classes of the generator lattice.
- Rational functions: :func:`lex_divide` by any Laurent polynomial,
  :class:`KRational`, a Laurent polynomial over a multiset of binomial
  factors (1 - t^a), the exact Hilbert series
  :func:`hilbert_series` of a cone, and :func:`evaluate_at_one`.
"""

import itertools
from fractions import Fraction
from math import ceil, floor, lcm, prod

from .errors import (BadWeights, CheckFailed, InexactDivision, NotPointed,
                     PoleAtOne)
from . import linalg
from .lattice import (HalfOpenSimplicialCone, _open_by_first_sign, _vadd,
                      _vsub, hilbert_numerator)
from .laurent import LaurentPoly, _multiset_sub, format_poly


# ------------------------------------------------------ linear algebra

def solve_exact(rows, rhs):
    """One exact solution x of A x = b, or None if inconsistent.

    Free variables are set to 0.
    """
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    red, pivots = linalg.row_reduce(aug)
    ncols = len(rows[0])
    if ncols in pivots:  # pivot in the rhs column
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def nullspace(rows):
    """Basis of the rational nullspace of A (list of Fraction vectors)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = linalg.row_reduce(linalg.frac_rows(rows))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return basis


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector, same direction."""
    scale = lcm(*(Fraction(x).denominator for x in v))
    return linalg.primitive([int(Fraction(x) * scale) for x in v])


def integer_diagonalize(rows):
    """Unimodular diagonalization P·A·Q = D of an integer matrix.

    Returns (pinv, diag) where `pinv` is the integer inverse of P and `diag`
    the positive diagonal entries.  For A of column rank d, the first d
    columns of `pinv` are a Z-basis of the saturation Z^n ∩ span_Q(A), and
    the column lattice of A sits inside it with index prod(diag).  The
    divisibility chain of the classical Smith form is not enforced; only
    the diagonal is needed here.
    """
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    pinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        for row in pinv:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):  # row_dst += k*row_src ; pinv col_src -= k*col_dst
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        for row in pinv:
            row[src] -= k * row[dst]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_col(src, dst, k):  # col_dst += k*col_src
        for row in a:
            row[dst] += k * row[src]

    t = 0
    while t < min(n, m):
        # locate a pivot of minimal absolute value in the remaining block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        dirty = False
        for i in range(t + 1, n):
            if a[i][t] != 0:
                add_row(t, i, -(a[i][t] // a[t][t]))
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, m):
            if a[t][j] != 0:
                add_col(t, j, -(a[t][j] // a[t][t]))
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue  # remainders left; pick a smaller pivot again
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            for row in pinv:
                row[t] = -row[t]
        t += 1

    diag = [a[i][i] for i in range(min(n, m)) if a[i][i] != 0]
    return pinv, diag


def in_hull(points, point):
    """Is `point` in the convex hull of `points` (exact LP test)?"""
    if not points:
        return False
    cols = [list(p) + [1] for p in points]
    return linalg.lp_nonneg_solve(cols, list(point) + [1]) is not None


# --------------------------------------------------------------- cones

def is_pointed(cone):
    """Whether the cone holds no line (exact simplex)."""
    if not cone.generators:
        return True
    cols = [list(g) + [1] for g in cone.generators]
    return linalg.lp_nonneg_solve(cols, [0] * cone.n + [1]) is None


def lp_rays(cone):
    """Extreme rays of any cone, lex sorted: the generators that the others
    do not span (exact simplex).  NotPointed when the cone holds a line."""
    if not is_pointed(cone):
        raise NotPointed("cone contains a line")
    work = list(cone.generators)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(work):
            others = work[:i] + work[i + 1:]
            if others and linalg.in_cone(others, g):
                work.pop(i)
                changed = True
                break
    return tuple(sorted(work))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _diagonalized_points(piece):
    """Parallelepiped points of any simplicial piece, through residue
    classes of the generator lattice inside its saturation; the count
    equals the index (the diagonal product)."""
    gens, d, n = piece.generators, len(piece.generators), piece.n
    rows = [[g[i] for g in gens] for i in range(n)]  # n x d
    pinv, diag = integer_diagonalize(rows)
    if len(diag) != d:
        raise CheckFailed("parallelepiped points",
                          "generators are linearly dependent", gens)
    points = []
    for residue in itertools.product(*[range(di) for di in diag]):
        x0 = [sum(pinv[i][j] * residue[j] for j in range(d))
              for i in range(n)]
        lam = solve_exact(rows, x0)
        shifted = []
        for lj, open_j in zip(lam, piece.open_flags):
            if open_j:
                shifted.append(lj - ceil(lj) + 1)   # into (0, 1]
            else:
                shifted.append(lj - floor(lj))      # into [0, 1)
        pt = tuple(sum(sj * gens[j][i] for j, sj in enumerate(shifted))
                   for i in range(n))
        if any(Fraction(x).denominator != 1 for x in pt):
            raise CheckFailed("parallelepiped points",
                              "point is not integral", pt)
        points.append(tuple(int(x) for x in pt))
    if len(set(points)) != len(points):
        raise CheckFailed("parallelepiped points",
                          "a residue class repeats", gens)
    return sorted(points)


def _span_coordinates(rays):
    """Exact coordinates of the rays in the rref basis of their span.

    rref pivot columns are unit columns, so the coordinates of a vector in
    the row space are just its entries at the pivot columns.
    """
    _, pivots = linalg.row_reduce(linalg.frac_rows(rays))
    return [[Fraction(r[col]) for col in pivots] for r in rays]


def _facet_normals_piece(coord_gens):
    """Inward normals of the facets of a simplicial cone, in span coords."""
    d = len(coord_gens)
    normals = []
    for j in range(d):
        others = [coord_gens[k] for k in range(d) if k != j]
        if not others:  # a ray: the facet is the apex
            normals.append(list(coord_gens[j]))
            continue
        ns = nullspace(others)
        val = _dot(ns[0], coord_gens[j]) if len(ns) == 1 else 0
        if val == 0:
            raise CheckFailed("facet normals",
                              "generators are linearly dependent", coord_gens)
        h = ns[0]
        if val < 0:
            h = [-x for x in h]
        normals.append(h)
    return normals


def _facets_of(coord_rays):
    """Facets of Cone(coord_rays), full-dimensional in its coordinates.

    Returns a list of ray-index frozensets, each the set of rays lying on
    one supporting hyperplane.  Every facet is spanned by d-1 independent
    rays, so scanning (d-1)-subsets finds them all.
    """
    d = len(coord_rays[0])
    m = len(coord_rays)
    facets = set()
    for subset in itertools.combinations(range(m), d - 1):
        sub = [coord_rays[i] for i in subset]
        ns = nullspace(sub)
        if len(ns) != 1:
            continue
        h = ns[0]
        vals = [_dot(h, r) for r in coord_rays]
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            facets.add(frozenset(i for i, v in enumerate(vals) if v == 0))
    return sorted(facets, key=sorted)


def _pulling_triangulation(rays, indices):
    """Index tuples of a triangulation of Cone(rays), pulling at the first.

    Rays are re-coordinatized into their own span at every level so facet
    normals are always computed full-dimensionally.
    """
    indices = list(indices)
    coord_rays = _span_coordinates(rays)
    d = len(coord_rays[0])
    if len(coord_rays) == d:
        return [tuple(sorted(indices))]
    pivot = 0
    out = []
    facets = _facets_of(coord_rays)
    if not facets:
        raise CheckFailed("pulling triangulation",
                          "a non-simplicial cone has no facets", rays)
    for facet in facets:
        if pivot in facet:
            continue
        sub_idx = sorted(facet)
        sub_rays = [rays[i] for i in sub_idx]
        for piece in _pulling_triangulation(sub_rays,
                                            [indices[i] for i in sub_idx]):
            out.append(tuple(sorted(set(piece) | {indices[pivot]})))
    if not out:
        raise CheckFailed("pulling triangulation", "no pieces", rays)
    return out


def _fraction_pieces(rays):
    """Half-open pieces of the cone over any rays, through exact rational
    nullspaces; the oracle of :func:`flagtutte.lattice._arc_pieces`."""
    coords = _span_coordinates(rays)
    out = []
    for piece in _pulling_triangulation(rays, range(len(rays))):
        normals = _facet_normals_piece([coords[i] for i in piece])
        flags = [_open_by_first_sign([_dot(h, c) for c in coords])
                 for h in normals]
        out.append(HalfOpenSimplicialCone([rays[i] for i in piece], flags))
    return out


# -------------------------------------------------- rational functions

def lex_divide(p, q):
    """p / q by leading-term elimination under lex order, on exponent
    tuples: the oracle of :meth:`LaurentPoly.exact_divide`, for any q."""
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
    terms, q_terms = p.terms, q.terms
    lead_q = max(q_terms)
    lc_q = q_terms[lead_q]
    # quotient support is confined to the coordinate-wise Newton box
    lo = tuple(min(e[i] for e in terms) - max(e[i] for e in q_terms)
               for i in range(p.nvars))
    hi = tuple(max(e[i] for e in terms) - min(e[i] for e in q_terms)
               for i in range(p.nvars))
    rem = terms
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
        for e, qc in q_terms.items():
            key = _vadd(mono, e)
            v = rem.get(key, 0) - c * qc
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return LaurentPoly(p.nvars, quot)


class KRational:
    """Laurent polynomial divided by a multiset of factors (1 - t^a).

    The denominator is stored unexpanded; construction greedily cancels any
    factor that divides the numerator exactly, so the representation is
    reduced and a genuine Laurent polynomial always ends with no denominator.
    :func:`hilbert_series` builds one and :func:`evaluate_at_one` evaluates
    one; the sums, products and cross-multiplied equality are the
    arithmetic of the tests' oracles.
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
        common = self.den + _multiset_sub(other.den, self.den)
        num = (self.num.times_one_minus(_multiset_sub(common, self.den))
               + other.num.times_one_minus(_multiset_sub(common, other.den)))
        return KRational(num, common)

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
        return (self.num.times_one_minus(other.den)
                == other.num.times_one_minus(self.den))

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if not self.den:
            return f"KRational({format_poly(self.num)})"
        den = " * ".join(f"(1 - {format_poly(LaurentPoly.monomial(a))})"
                         for a in self.den)
        return f"KRational(({format_poly(self.num)}) / {den})"


def hilbert_series(cone):
    """Exact Hilbert series sum_{a in C cap Z^n} t^a as a KRational.

    The numerator against the extreme rays
    (:func:`flagtutte.lattice.hilbert_numerator`) over those rays.  Raises
    NotPointed, through :meth:`flagtutte.lattice.RationalCone.rays`, when
    the cone contains a line.
    """
    rays = cone.rays()
    return KRational(hilbert_numerator(cone, rays), rays)


def evaluate_at_one(f, weights):
    """Evaluate at t_i -> 1 through the one-parameter subgroup t_i = z^{w_i}.

    No pipeline stage calls it: the values that
    :func:`flagtutte.ktheory.k_tutte` evaluates are Laurent polynomials,
    read at 1 by :meth:`LaurentPoly.subs_one`.  It is the evaluation that
    a sum of vertex-cone Hilbert series at t = 1 needs (Brion's theorem
    counts lattice points that way).

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
