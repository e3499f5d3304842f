"""The package namespace: every public name resolves on first use, and a
name pulls in only the modules it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagtutte

# Every public name the package exported when its __init__ imported all
# of its modules at once.
EXPORTED = """
EquivariantClass FlagMatroid FlagSpace FlagTutteError HalfOpenSimplicialCone
KRational LatticePolytope LaurentPoly Matroid Polymatroid ProjProductSpace
RationalCone Verdict base_polytope characteristic_poly check_rank_axioms
cone_at_vertex count_shifted cover_by_independent decompose_lattice_point
edge_direction_check edges enumerate_flags evaluate_at_one flag_check_gale
flag_from_constituents flag_from_subspace_flag flag_polytope flag_weight
gale_max gale_max_family hilbert_numerator hilbert_series is_normal
is_quotient k_tutte lattice_points lifted_independent log_concavity
matroid_from_bases matroid_from_graph matroid_from_matrix minkowski_sum
o1_class poly_base_polytope poly_bases polymatroid_from_matroid
polymatroid_from_rank polymatroid_from_subspaces polymatroid_of_flag
polymatroid_to_matroid pullback pushforward_to_pp q_coefficients qprime
qprime_delcon_check to_nonequivariant triangulate ttoq_check tutte_activity
tutte_delcon tutte_eval tutte_rank_nullity uniform_matroid union_rank
vertex_from_ordering y_class
""".split()

SUBMODULES = ("cli errors fileio invariants ktheory lattice laurent linalg "
              "matroid oracle polyflag").split()


def test_every_exported_name_resolves():
    assert sorted(flagtutte.__all__) == sorted(EXPORTED)
    for name in EXPORTED:
        value = getattr(flagtutte, name)
        assert value.__name__ == name
        assert value.__module__.startswith("flagtutte.")
        assert vars(flagtutte)[name] is value   # cached: no second lookup
    for name in SUBMODULES:
        assert getattr(flagtutte, name).__name__ == f"flagtutte.{name}"
    assert flagtutte.__version__ == "0.1.0"


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from flagtutte import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    with pytest.raises(AttributeError):
        flagtutte.no_such_name


def test_a_name_loads_only_what_it_needs():
    code = ("import sys\n"
            "from flagtutte import fileio, tutte_rank_nullity\n"
            "print(' '.join(sorted(m for m in sys.modules\n"
            "                      if m.startswith('flagtutte'))))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(flagtutte.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "flagtutte.fileio" in out and "flagtutte.invariants" in out
    assert "flagtutte.lattice" not in out
    assert "flagtutte.ktheory" not in out


ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(flagtutte.__file__).resolve().parents[1]))
# Runs one CLI call and prints, to stderr so the verb's stdout does not
# mix in, the flagtutte modules it loaded.
LOAD_VERB = ("import sys\n"
             "from flagtutte.cli import main\n"
             "try:\n"
             "    main(sys.argv[1:])\n"
             "except SystemExit:\n"
             "    pass\n"
             "print(*sorted(m for m in sys.modules\n"
             "              if m.startswith('flagtutte')), file=sys.stderr)\n")
NO_CONES = {"lattice", "laurent", "invariants", "ktheory"}


@pytest.mark.parametrize("argv, absent", [
    ("check fixtures/nonpappus.json", NO_CONES),
    ("union fixtures/u1_counterexample_family.json", NO_CONES),
    ("quotient fixtures/pappus8_quotient_pair.json", NO_CONES),
    ("check fixtures/bad_mixed.json", NO_CONES),
    ("tutte fixtures/k4.json", {"lattice", "ktheory"}),
    ("qprime fixtures/subspace_polymatroid.json", {"ktheory"}),
    ("polytope fixtures/k4.json --kmax=2", {"ktheory", "invariants"}),
    ("ktutte fixtures/flag_rank12.json", set()),
    ("charpoly fixtures/flag_rank12.json", set()),
    ("yclass fixtures/flag_rank12.json", {"invariants"}),
])
def test_a_verb_loads_only_what_it_runs(argv, absent):
    out = subprocess.run([sys.executable, "-c", LOAD_VERB, *argv.split()],
                         cwd=ROOT, env=CHILD_ENV, check=True,
                         capture_output=True,
                         text=True).stderr.splitlines()[-1].split()
    assert "flagtutte.cli" in out and "flagtutte.fileio" in out
    assert "flagtutte.oracle" not in out
    assert not {f"flagtutte.{name}" for name in absent} & set(out)


def test_a_usage_error_loads_only_the_front_end():
    proc = subprocess.run([sys.executable, "-c", LOAD_VERB, "frobnicate",
                           "fixtures/k4.json"], cwd=ROOT, env=CHILD_ENV,
                          check=True, capture_output=True, text=True)
    lines = proc.stderr.splitlines()
    assert "invalid choice: 'frobnicate'" in lines[-2]
    assert lines[-1].split() == ["flagtutte", "flagtutte.cli",
                                 "flagtutte.errors"]
