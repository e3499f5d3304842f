"""Tutte polynomials, lattice-point count polynomials and diagnostics.

Three independent routes to the classical Tutte polynomial (corank-nullity
sum, deletion-contraction, basis activities) plus the bivariate counting
polynomial of a polymatroid base polytope fitted in the binomial basis,
its (x-1)/(y-1) change of variables, the rational identity relating the
two for matroids, the slice recurrence report, and the characteristic
polynomial with its log-concavity check.
"""

from collections import Counter
from math import comb

from .errors import FitMismatch, Verdict
from .laurent import LaurentPoly, _signed_sum
from .matroid import guard_basis_routes
from .polyflag import Polymatroid


def format_bivar(p):
    """Human-readable form in x and y, as in x^3 + 3x^2 + 4xy."""
    return _signed_sum(p.sorted_terms(), "xy", "")


X_MINUS_1 = LaurentPoly(2, {(1, 0): 1, (0, 0): -1})
Y_MINUS_1 = LaurentPoly(2, {(0, 1): 1, (0, 0): -1})


def _from_shifted(coeffs):
    """The polynomial sum c_ij (x-1)^i (y-1)^j, given {(i, j): c_ij}."""
    terms = {}
    for (i, j), c in coeffs.items():
        for a in range(i + 1):
            ca = c * comb(i, a) * (-1) ** (i - a)
            for b in range(j + 1):
                v = ca * comb(j, b) * (-1) ** (j - b)
                terms[(a, b)] = terms.get((a, b), 0) + v
    return LaurentPoly(2, terms)


def _corank_nullity_counts(matroid):
    """Number of subsets with each (corank, nullity) pair."""
    rk = matroid.k
    return Counter((rk - r, m.bit_count() - r)
                   for m, r in enumerate(matroid.rank_table()))


# ------------------------------------------------------------ Tutte routes

def tutte_rank_nullity(matroid):
    """Corank-nullity sum over all 2^n subsets, grouped by the pair."""
    return _from_shifted(_corank_nullity_counts(matroid))


def tutte_delcon(matroid):
    """Deletion-contraction recursion on the smallest-index element, one
    level per element (OutOfRange past
    :data:`flagtutte.matroid.MAX_BASIS_ROUTE_ELEMENTS`)."""
    guard_basis_routes(matroid.n)
    memo = {}

    def rec(m):
        if m.n == 0:
            return LaurentPoly.one(2)
        key = (m.n, m.bases)
        if key in memo:
            return memo[key]
        if 0 in m.loops():
            out = rec(m.delete(0)).shift((0, 1))
        elif 0 in m.coloops():
            out = rec(m.contract(0)).shift((1, 0))
        else:
            out = rec(m.delete(0)) + rec(m.contract(0))
        memo[key] = out
        return out

    return rec(matroid)


def tutte_activity(matroid):
    """Basis-activity sum under the natural element order (OutOfRange past
    :data:`flagtutte.matroid.MAX_BASIS_ROUTE_ELEMENTS`)."""
    guard_basis_routes(matroid.n)
    basis_set = {frozenset(b) for b in matroid.bases}
    ground = set(range(matroid.n))
    counts = Counter()
    for b in matroid.bases:
        bs = frozenset(b)
        internal = 0
        for e in b:
            # cocircuit of e against the complement: x restoring a basis
            cocircuit = [x for x in (ground - bs) | {e}
                         if (bs - {e}) | {x} in basis_set]
            if e == min(cocircuit):
                internal += 1
        external = 0
        for e in sorted(ground - bs):
            # e always belongs: removing it restores the basis b
            circuit = [x for x in bs | {e} if (bs | {e}) - {x} in basis_set]
            if e == min(circuit):
                external += 1
        counts[(internal, external)] += 1
    return LaurentPoly(2, counts)


def tutte_eval(matroid, point):
    x, y = point
    return sum(c * x ** i * y ** j
               for (i, j), c in tutte_rank_nullity(matroid).terms.items())


# ----------------------------------------------- lattice-count polynomials

def q_coefficients(p):
    """Binomial-basis coefficients of the count polynomial of the polytope.

    Fits #(P + u*simplex + t*(-simplex)) = sum c_ij C(t,i) C(u,j) on the
    integer grid {0..n-1}^2 by iterated finite differences (the binomial
    basis is unitriangular there) and verifies the fit on {0..n+1}^2.
    """
    from .lattice import count_shifted
    n = p.n
    counts = {}
    for t in range(n + 2):
        for u in range(n + 2):
            counts[(t, u)] = count_shifted(p, u, t)
    c = {}
    for i in range(n):
        for j in range(n):
            value = sum((-1) ** (i - s + j - v) * comb(i, s) * comb(j, v)
                        * counts[(s, v)]
                        for s in range(i + 1) for v in range(j + 1))
            if value:
                c[(i, j)] = value
    for t in range(n + 2):
        for u in range(n + 2):
            fit = sum(cv * comb(t, i) * comb(u, j)
                      for (i, j), cv in c.items())
            if fit != counts[(t, u)]:
                raise FitMismatch(
                    f"count at (t,u)=({t},{u}) is {counts[(t, u)]}, "
                    f"fit gives {fit}")
    return c


def qprime(p):
    """The counting polynomial rewritten as sum c_ij (x-1)^i (y-1)^j."""
    return _from_shifted(q_coefficients(p))


def qprime_of_polymatroid(p):
    from .lattice import poly_base_polytope
    return qprime(poly_base_polytope(p))


def ttoq_check(matroid):
    """Identity between Q' and the Tutte polynomial, denominators cleared.

    (x+y-1) Q'(x,y) must equal
    sum_S (x-1)^{cork S} (y-1)^{null S} x^{|E|-|S|-cork S} y^{r(S)}.
    """
    from .lattice import base_polytope
    qp = qprime(base_polytope(matroid))
    lhs = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1}) * qp
    rhs = LaurentPoly.zero(2)
    for (cork, null), count in _corank_nullity_counts(matroid).items():
        r = matroid.k - cork
        size = null + r
        rhs = rhs + _from_shifted({(cork, null): count}).shift(
            (matroid.n - size - cork, r))
    if lhs == rhs:
        return Verdict(True)
    return Verdict(False, "identity fails", witness=(lhs, rhs))


# ----------------------------------------------------- slice recurrence

def polymatroid_delete(p, a):
    """Rank restriction to E - a."""
    small = []
    for m in range(1 << (p.n - 1)):
        big = _expand_mask(m, a)
        small.append(p.rank_table[big])
    return Polymatroid(p.n - 1, small)


def polymatroid_contract(p, a):
    """r(X) = r(X + a) - r(a) on E - a."""
    ra = p.rank_table[1 << a]
    small = []
    for m in range(1 << (p.n - 1)):
        big = _expand_mask(m, a) | (1 << a)
        small.append(p.rank_table[big] - ra)
    return Polymatroid(p.n - 1, small)


def _expand_mask(m, a):
    low = m & ((1 << a) - 1)
    high = (m >> a) << (a + 1)
    return low | high


def slice_polytopes(p, a):
    """conv{x in P : x_a = k} for k = 0..r(E), projected to E - a.

    Entries are None where the slice is empty.  The coordinate a is
    constant on each slice and dropped so the slices live in R^{E-a}.
    """
    from .lattice import (lattice_points, polytope_from_lattice_points,
                          poly_base_polytope)
    poly = poly_base_polytope(p)
    pts = lattice_points(poly)
    out = []
    for k in range(p.total_rank + 1):
        layer = [q[:a] + q[a + 1:] for q in pts if q[a] == k]
        out.append(polytope_from_lattice_points(layer) if layer else None)
    return out


def qprime_delcon_check(p, a):
    """Report on the slice recurrence for Q' at element a.

    Compares Q'_P against (x-1) Q'_{P\\a} + (y-1) Q'_{P/a} + sum_k Q'_{N_k}
    and returns a verdict carrying both sides; deletion and contraction are
    the rank-formula reconstructions, so this is a report, not an assertion.
    """
    lhs = qprime_of_polymatroid(p)
    rhs = (X_MINUS_1 * qprime_of_polymatroid(polymatroid_delete(p, a))
           + Y_MINUS_1 * qprime_of_polymatroid(polymatroid_contract(p, a)))
    for piece in slice_polytopes(p, a):
        if piece is not None:
            rhs = rhs + qprime(piece)
    return Verdict(lhs == rhs,
                   "slice recurrence " + ("holds" if lhs == rhs else "fails"),
                   witness=(lhs, rhs))


# -------------------------------------------- characteristic polynomial

def characteristic_poly(tutte, rank):
    """Coefficients of (-1)^rank T(1 - lambda, 0), ascending in lambda."""
    coeffs = {}
    sign = -1 if rank % 2 else 1
    for (i, j), c in tutte.terms.items():
        if j:
            continue
        # (1 - lambda)^i expanded
        for s in range(i + 1):
            v = coeffs.get(s, 0) + sign * c * comb(i, s) * (-1) ** s
            coeffs[s] = v
    top = max((k for k, v in coeffs.items() if v), default=0)
    return [coeffs.get(s, 0) for s in range(top + 1)]


def log_concavity(coeffs):
    """w_{i-1} w_{i+1} <= w_i^2 on the absolute coefficient values."""
    w = [abs(c) for c in coeffs]
    for i in range(1, len(w) - 1):
        if w[i - 1] * w[i + 1] > w[i] ** 2:
            return Verdict(False, "log-concavity fails",
                           witness=(i, w[i - 1], w[i], w[i + 1]))
    return Verdict(True)
