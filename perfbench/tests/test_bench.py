"""Tests of the benchmark itself: statistics, golden checks, tracing and a
smoke run of every workload on tiny inputs."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail([5.0]) == (5.0, "p100 of 1 samples")
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0          # upper median
    assert run.tail(list(range(1, 21)))[0] == 11         # still the median
    assert run.tail(list(range(1, 101))) == (90, "p90 of 100 samples")
    value, label = run.tail(list(range(1000, 0, -1)))
    assert (value, label) == (990, "p99 of 1000 samples")


def test_end_to_end_reports_medians():
    metrics, _ = run.end_to_end([3.0, 1.0, 2.0], [0.2, 0.1, 0.3], 12.5)
    assert metrics["op_s.p50"] == (2.0, "s")
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["ops_per_s"] == (0.5, "1/s")
    assert metrics["peak_rss_mb"] == (12.5, "MB")
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_corrupted_golden_value_fails_every_op():
    golden = workloads.load_golden()
    golden["smoke"]["ktutte-flag"][0][2] += 1
    record = run.run_workload("ktutte-flag", 1, 0.2, False, smoke=True,
                              golden=golden)
    assert record["attempted"] >= 1
    assert record["fail_frac"] == 1
    assert run.result_line(record)["correct"] is False


def _bindings():
    """Every (owner, key) -> value reachable from flagtutte modules,
    their classes and their module-level dicts."""
    out = {}
    for module in tracing._package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, v in vars(value).items():
                    out[(module.__name__, key, attr)] = v
            elif type(value) is dict and key != "__builtins__":
                for dkey, v in value.items():
                    out[(module.__name__, key, "[]", dkey)] = v
    return out


def test_tracer_wraps_every_lookup_and_restores_originals():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import flagtutte.cli as cli
    from flagtutte import ktheory, lattice
    from flagtutte.laurent import LaurentPoly
    before = _bindings()
    mul, numerator = LaurentPoly.__mul__, lattice.hilbert_numerator
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert LaurentPoly.__mul__ is not mul
        assert LaurentPoly.__rmul__ is LaurentPoly.__mul__
        assert ktheory.hilbert_numerator is lattice.hilbert_numerator
        assert ktheory.hilbert_numerator is not numerator
        assert cli.COMMANDS["qprime"] is cli.cmd_qprime
        assert cli.cmd_qprime.__wrapped__ is before[(cli.__name__,
                                                     "cmd_qprime")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_children():
    spans = [("op", 0.0, 10.0, -1, 0, True),
             ("a", 1.0, 5.0, 0, 0, True),
             ("b", 2.0, 3.0, 1, 0, True),
             ("b", 6.0, 9.0, 0, 0, False)]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.0, 3.0]
    calls, returned, self_s = tracing.summarize(spans)
    assert (calls["b"], returned["b"], self_s["b"]) == (2, 1, 4.0)


@pytest.mark.parametrize("name", ["k4.json", "flag_rank12.json",
                                  "subspace_polymatroid.json",
                                  "pappus8_quotient_pair.json"])
def test_relabelling_permutes_and_keeps_the_document_valid(name):
    from flagtutte import fileio
    doc = workloads.fixture(name)
    images = [workloads.relabel(doc, random.Random(seed))
              for seed in range(5)]
    assert any(image != doc for image in images)
    for image in images:
        fileio.parse_object(image)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name):
    for trace, spec in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run_workload(name, 2, 0.05, trace, smoke=True)
        assert record["failed"] == 0, record["failures"]
        assert list(record["metrics"]) == [m["name"] for m in SPEC[spec]]
        assert all(record["metrics"][m["name"]]["unit"] == m["unit"]
                   for m in SPEC[spec])


def test_spec_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ktutte-flag",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
