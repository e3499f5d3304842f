"""Exact linear algebra over the rationals.

Gaussian elimination on ``fractions.Fraction`` matrices, behind the rank of
a matrix (matrix matroids and subspace polymatroids); primitive integer
vectors (cone generators) by one n-ary ``math.gcd``; and a phase-one
simplex for exact linear feasibility, which only :mod:`flagtutte.oracle`
(the rays of a general cone), :func:`flagtutte.lattice.edge_direction_check`
(which no verb runs) and the tests call, since every vertex cone is read
from root steps.  Nullspaces, exact solutions, the integer
diagonalization and the hull test are oracles, in :mod:`flagtutte.oracle`.
No floating point anywhere.
"""

from fractions import Fraction
from math import gcd


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def row_reduce(rows):
    """Reduced row echelon form.  Returns (rref, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def matrix_rank(rows):
    if not rows:
        return 0
    return len(row_reduce(frac_rows(rows))[1])


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def lp_nonneg_solve(columns, rhs):
    """Solve sum_i x_i * columns[i] = rhs with x >= 0 exactly.

    Phase-one simplex with Bland's rule on Fractions.  Returns a list of
    Fractions or None when infeasible.
    """
    m = len(rhs)
    ncols = len(columns)
    # tableau rows: [a_1 .. a_n | I | b], artificial basis
    tab = []
    for i in range(m):
        b = Fraction(rhs[i])
        row = [Fraction(columns[j][i]) for j in range(ncols)]
        if b < 0:
            b = -b
            row = [-x for x in row]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(b)
        tab.append(row)
    basis = [ncols + i for i in range(m)]
    total = ncols + m
    # reduced costs for minimizing the sum of artificials
    cost = [Fraction(0)] * (total + 1)
    for row in tab:
        cost = [c - x for c, x in zip(cost, row)]
    for k in range(ncols, total):
        cost[k] += 1

    while True:
        # Bland's rule over all columns (artificials included) avoids cycling
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break  # unbounded in phase one cannot happen, defensive
        pv = tab[leave][enter]
        tab[leave] = [x / pv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter

    objective = -cost[total]
    if objective != 0:
        return None
    x = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            x[bv] = tab[i][total]
        elif tab[i][total] != 0:
            return None  # artificial stuck at a nonzero value
    return x


def in_cone(generators, point):
    """Is `point` a nonnegative rational combination of `generators`?"""
    gens = [g for g in generators if any(x != 0 for x in g)]
    if all(x == 0 for x in point):
        return True
    if not gens:
        return False
    return lp_nonneg_solve(gens, point) is not None


