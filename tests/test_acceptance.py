"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line with its timing; all polynomial equalities
are exact (integer arithmetic), so the only tolerances are the wall-clock
budgets.
"""

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from flagtutte import linalg, oracle
from flagtutte.cli import main
from flagtutte.invariants import (characteristic_poly, log_concavity,
                                  ttoq_check, tutte_activity, tutte_delcon,
                                  tutte_rank_nullity)
from flagtutte.ktheory import (FlagSpace, k_tutte, o1_class, pullback,
                               pushforward_to_pp, y_class)
from flagtutte.lattice import (base_polytope, cone_at_vertex,
                               decompose_lattice_point, flag_polytope,
                               is_normal, lattice_points, minkowski_sum,
                               triangulate)
from flagtutte.laurent import LaurentPoly
from flagtutte.matroid import gale_leq, gale_max, gale_max_family, \
    uniform_matroid
from flagtutte.oracle import KRational, hilbert_series
from flagtutte.polyflag import enumerate_flags, flag_check_gale, \
    flag_from_constituents, is_quotient

from conftest import doubled_points_rank2, fixture_matroids, fixture_matroids_n5, k4, \
    m2_rank2, non_pappus

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

K4_TUTTE = LaurentPoly(2, {(3, 0): 1, (2, 0): 3, (1, 0): 2, (1, 1): 4,
                            (0, 1): 2, (0, 2): 3, (0, 3): 1})
FLAG_TUTTE = LaurentPoly(2, {(2, 2): 1, (2, 1): 1, (1, 2): 1, (2, 0): 1,
                              (1, 1): 1})
U23_5_TUTTE = LaurentPoly(2, {(3, 3): 1, (3, 2): 2, (2, 3): 2, (3, 1): 3,
                               (2, 2): 8, (1, 3): 3, (3, 0): 4, (2, 1): 8,
                               (1, 2): 8, (0, 3): 4, (2, 0): 2, (1, 1): 4,
                               (0, 2): 2})


def report(criterion, started, detail=""):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {detail}".rstrip())


def four_flag():
    return flag_from_constituents([uniform_matroid(1, 3), m2_rank2()])


def u23_on_5():
    return flag_from_constituents([uniform_matroid(2, 5),
                                   uniform_matroid(3, 5)])


def test_criterion_1_k4_tutte():
    started = time.perf_counter()
    m = k4()
    t1, t2, t3 = tutte_rank_nullity(m), tutte_delcon(m), tutte_activity(m)
    assert t1 == K4_TUTTE
    assert t1 == t2 == t3
    assert time.perf_counter() - started < 1.0
    report(1, started, "T(K4) exact, three routes agree")


def test_criterion_2_flag_example_pipeline():
    started = time.perf_counter()
    f = four_flag()
    space = FlagSpace(3, (1, 2))
    y = y_class(f)
    one_minus = LaurentPoly.one_minus
    mono = LaurentPoly.monomial
    # y checkpoints (localization values at the four basis flags)
    assert y.value(((1,), (0, 1))) == one_minus((-1, 0, 1))
    assert y.value(((0,), (0, 1))) == one_minus((-1, 0, 1))
    assert y.value(((0,), (0, 2))) == one_minus((-1, 1, 0))
    assert y.value(((2,), (0, 2))) == one_minus((-1, 1, 0))
    assert y.value(((1,), (1, 2))).is_zero()
    # products with the line-bundle weight
    prod = y * o1_class(space)
    assert prod.value(((0,), (0, 1))) == mono((2, 1, 0)) * one_minus((-1, 0, 1))
    assert prod.value(((1,), (0, 1))) == mono((1, 2, 0)) * one_minus((-1, 0, 1))
    assert prod.value(((0,), (0, 2))) == mono((2, 0, 1)) * one_minus((-1, 1, 0))
    assert prod.value(((2,), (0, 2))) == mono((1, 0, 2)) * one_minus((-1, 1, 0))
    # pushed-forward values on the line-hyperplane product
    pushed = pushforward_to_pp(pullback(prod, FlagSpace(3, (1, 1, 2, 2))))
    t = [mono(tuple(1 if k == i else 0 for k in range(3))) for i in range(3)]
    expected = {
        ((0,), (0, 1)): t[1] * (t[0] - t[2]) * (t[0] - t[2]),
        ((0,), (0, 2)): t[2] * (t[0] - t[1]) * (t[0] - t[1]),
        ((2,), (0, 2)): t[2] * (t[0] - t[1]) * (t[2] - t[1]),
        ((1,), (0, 1)): t[1] * (t[0] - t[2]) * (t[1] - t[2]),
    }
    for point in pushed.space.fixed_points():
        assert pushed.value(point) == expected.get(
            point, LaurentPoly.zero(3)), point
    assert k_tutte(f) == FLAG_TUTTE
    assert time.perf_counter() - started < 10.0
    report(2, started, "flag example pipeline matches all checkpoints")


def test_criterion_3_uniform_flag_on_five():
    started = time.perf_counter()
    assert k_tutte(u23_on_5()) == U23_5_TUTTE
    assert time.perf_counter() - started < 300.0
    report(3, started, "13-term polynomial exact")


def test_criterion_4_specialization():
    started = time.perf_counter()
    cases = [uniform_matroid(1, 2), uniform_matroid(1, 3),
             uniform_matroid(2, 3), uniform_matroid(2, 4),
             uniform_matroid(1, 4), k4()]
    for m in cases:
        f = flag_from_constituents([m])
        assert k_tutte(f) == tutte_rank_nullity(m), m
    assert time.perf_counter() - started < 600.0
    report(4, started, "k_tutte equals the classical Tutte on all six")


def test_criterion_5_characteristic_polynomials():
    started = time.perf_counter()
    chi2 = characteristic_poly(k_tutte(four_flag()), 1 + 2)
    assert chi2 == [-1, 2, -1]
    chi3 = characteristic_poly(k_tutte(u23_on_5()), 2 + 3)
    assert chi3 == [-6, 16, -14, 4]
    assert log_concavity(chi2)
    assert log_concavity(chi3)
    report(5, started, "both characteristic polynomials and log-concavity")


# ------------------------------------------------------- criterion 6 pieces

def test_criterion_6a_gkm_every_stage():
    started = time.perf_counter()
    flags = [four_flag(),
             flag_from_constituents([uniform_matroid(2, 4)]),
             flag_from_constituents([m2_rank2()]),
             flag_from_constituents([uniform_matroid(1, 3),
                                     uniform_matroid(2, 3)]),
             u23_on_5()]
    for f in flags:
        space = FlagSpace(f.n, f.ranks)
        y = y_class(f)
        assert y.gkm_verdict(), f
        prod = y * o1_class(space)
        assert prod.gkm_verdict(), f
        lifted = pullback(prod, FlagSpace(f.n, (1,) + f.ranks + (f.n - 1,)))
        assert lifted.gkm_verdict(), f
        assert pushforward_to_pp(lifted).gkm_verdict(), f
    report("6a", started, "GKM at every stage on all flag fixtures")


def test_criterion_6b_minkowski_decomposition():
    started = time.perf_counter()
    family = fixture_matroids_n5()
    by_n = {}
    for m in family.values():
        by_n.setdefault(m.n, []).append(m)
    checked = 0
    for n, group in sorted(by_n.items()):
        for m1 in group:
            for m2 in group:
                ps = [base_polytope(m1), base_polytope(m2)]
                total = minkowski_sum(ps)
                for point in lattice_points(total):
                    decompose_lattice_point(point, ps)
                    checked += 1
    report("6b", started, f"{checked} lattice points decomposed")


def test_criterion_6c_white_normality():
    started = time.perf_counter()
    for name, m in fixture_matroids_n5().items():
        assert is_normal(base_polytope(m), 3), name
    report("6c", started, "kmax=3 normality on all n<=5 matroid polytopes")


def test_criterion_6d_gale_uniqueness():
    started = time.perf_counter()
    for name, m in fixture_matroids_n5().items():
        for order in itertools.permutations(range(m.n)):
            best = gale_max(m, order)
            pos = [0] * m.n
            for p, e in enumerate(order):
                pos[e] = p
            assert all(gale_leq(b, best, pos) for b in m.bases), name
            gale_max_family(m.n, m.bases, order)
    for f in [four_flag(), u23_on_5(),
              flag_from_constituents([uniform_matroid(1, 4),
                                      uniform_matroid(2, 4)])]:
        assert flag_check_gale(f.n, f.ranks, enumerate_flags(f))
    report("6d", started, "Gale maximality over all orderings, flags too")


def _positive_functional(rays):
    """Exact rational ell with ell . ray >= 1 for every ray (LP)."""
    n = len(rays[0])
    cols = []
    for k in range(n):
        cols.append([Fraction(r[k]) for r in rays])
    for k in range(n):
        cols.append([Fraction(-r[k]) for r in rays])
    for j in range(len(rays)):
        cols.append([Fraction(-1) if i == j else Fraction(0)
                     for i in range(len(rays))])
    sol = linalg.lp_nonneg_solve(cols, [1] * len(rays))
    assert sol is not None, "pointed cones admit a positive functional"
    return [sol[k] - sol[n + k] for k in range(n)]


def _test_cone_facets(rays):
    """Inequality description computed independently of the library path.

    Membership needs the facet normals within the span plus the span
    equations themselves; both are returned.
    """
    d = linalg.matrix_rank(rays)
    normals = set()
    for subset in itertools.combinations(range(len(rays)), d - 1):
        stack = [list(rays[i]) for i in subset]
        complement = oracle.nullspace([list(r) for r in rays])
        stack += [[Fraction(x) for x in v] for v in complement]
        ns = oracle.nullspace(stack)
        if len(ns) != 1:
            continue
        h = oracle.clear_denominators(ns[0])
        vals = [sum(a * b for a, b in zip(h, r)) for r in rays]
        if all(v >= 0 for v in vals):
            normals.add(h)
        elif all(v <= 0 for v in vals):
            normals.add(tuple(-x for x in h))
    eqs = [oracle.clear_denominators(v) for v in oracle.nullspace(rays)]
    return sorted(normals), eqs


def _brute_cone_points_in_box(rays, bound):
    """All integer points of Cone(rays) with sup-norm <= bound (numpy)."""
    normals, eqs = _test_cone_facets(rays)
    n = len(rays[0])
    grids = np.meshgrid(*[np.arange(-bound, bound + 1)] * n, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    mask = np.ones(len(pts), dtype=bool)
    for eq in eqs:
        mask &= pts @ np.array(eq, dtype=np.int64) == 0
    for h in normals:
        mask &= pts @ np.array(h, dtype=np.int64) >= 0
    return {tuple(int(x) for x in p) for p in pts[mask]}


def _piece_points_in_box(piece, ell, ellmax, bound):
    """Multiset of half-open-piece lattice points within the box."""
    gens = piece.generators
    out = []
    base_points = piece.parallelepiped_points()
    gen_ell = [sum(l * g for l, g in zip(ell, gen)) for gen in gens]

    def rec(idx, current, slack):
        if idx == len(gens):
            if all(-bound <= x <= bound for x in current):
                out.append(tuple(current))
            return
        step = gens[idx]
        cost = gen_ell[idx]
        c = 0
        while True:
            point = [x + c * s for x, s in zip(current, step)]
            used = c * cost
            if used > slack:
                break
            rec(idx + 1, point, slack - used)
            c += 1

    for b in base_points:
        b = b if b else (0,) * piece.n
        b_ell = sum(l * x for l, x in zip(ell, b))
        rec(0, list(b), ellmax - b_ell)
    return out


def test_criterion_6e_hilbert_truncations():
    started = time.perf_counter()
    bound = 5
    polytopes = []
    for name, m in fixture_matroids().items():
        if m.n <= 4:
            polytopes.append((name, base_polytope(m)))
    polytopes.append(("flag12", flag_polytope(four_flag())))
    polytopes.append(("u25", base_polytope(uniform_matroid(2, 5))))
    polytopes.append(("flag23_5", flag_polytope(u23_on_5())))
    checked = 0
    sampled_lp = 0
    for name, p in polytopes:
        for v in p.vertices:
            cone = cone_at_vertex(p, v)
            rays = cone.rays()
            if not rays:
                continue
            brute = _brute_cone_points_in_box(rays, bound)
            ell = _positive_functional(rays)
            ellmax = bound * sum(abs(x) for x in ell)
            pieces = triangulate(cone)
            counts = {}
            for piece in pieces:
                for pt in _piece_points_in_box(piece, ell, ellmax, bound):
                    counts[pt] = counts.get(pt, 0) + 1
            assert set(counts) == brute, (name, v)
            assert all(c == 1 for c in counts.values()), (name, v)
            # the reduced series must equal the piece sum as a rational fn
            total = None
            for piece in pieces:
                num = LaurentPoly(cone.n, {})
                for b in piece.parallelepiped_points():
                    num = num + LaurentPoly.monomial(b)
                term = KRational(num, piece.generators, reduce=False)
                total = term if total is None else total + term
            assert total == hilbert_series(cone)
            checked += 1
            # spot-validate the facet oracle against the LP on a sample
            sample = sorted(brute)[::7][:5]
            for pt in sample:
                assert linalg.in_cone(rays, pt)
                sampled_lp += 1
    report("6e", started,
           f"{checked} vertex cones vs brute truncation, "
           f"{sampled_lp} LP spot checks")


def test_criterion_6f_ttoq():
    started = time.perf_counter()
    for name, m in fixture_matroids_n5().items():
        assert ttoq_check(m), name
    report("6f", started, "TtoQ identity on all n<=5 fixtures")


def test_criterion_6g_quotient_and_non_pappus():
    started = time.perf_counter()
    r = non_pappus()
    assert len(r.bases) == 76
    from flagtutte.matroid import matroid_from_matrix
    from conftest import PAPPUS8_ROWS
    assert is_quotient(doubled_points_rank2(), matroid_from_matrix(PAPPUS8_ROWS))
    assert is_quotient(r.contract(8), r.delete(8))
    report("6g", started, "quotient true, non-Pappus validates with 76 bases")


def test_criterion_7_determinism(capsys):
    started = time.perf_counter()
    outputs = set()
    runs = [["--weights=1,2,3"], ["--weights=2,3,5"], ["--weights=9,4,1"]]
    for extra in runs:
        code = main(["ktutte", str(FIXTURES_DIR / "flag_rank12.json")] + extra)
        assert code == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    payload = json.loads(next(iter(outputs)))
    assert payload["pretty"] == "x^2y^2 + x^2y + x^2 + xy^2 + xy"
    with capsys.disabled():
        report(7, started, "byte-identical across weights")
