"""Exact linear algebra over the rationals and integers.

Small dense kernels used by the geometric modules: Gaussian elimination on
``fractions.Fraction`` matrices, nullspaces, an integer diagonalization
P·A·Q = D by unimodular row/column operations (Smith-style, used to
enumerate fundamental parallelepipeds), and a phase-one simplex for exact
linear feasibility (rays of general cones, and the cone and hull oracles of
the tests; no polytope routine calls it, since every polytope carries its
submodular table).  No floating point anywhere.
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


def solve_exact(rows, rhs):
    """One exact solution x of A x = b, or None if inconsistent.

    Free variables are set to 0.
    """
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    red, pivots = row_reduce(aug)
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
    red, pivots = row_reduce(frac_rows(rows))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(v)
    return basis


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = vec_gcd(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def clear_denominators(v):
    """Scale a rational vector to a primitive integer vector, same direction."""
    lcm = 1
    for x in v:
        d = Fraction(x).denominator
        lcm = lcm * d // gcd(lcm, d)
    return primitive([int(Fraction(x) * lcm) for x in v])


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


def in_hull(points, point):
    """Is `point` in the convex hull of `points` (exact LP test)?"""
    if not points:
        return False
    cols = [list(p) + [1] for p in points]
    return lp_nonneg_solve(cols, list(point) + [1]) is not None
