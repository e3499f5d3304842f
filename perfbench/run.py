"""Pinned benchmark of flagtutte: one workload per run, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload ktutte-flag --seed 1 --seconds 10 \
        --trace 0

Workloads are listed in ``perfbench/workloads.py``; ``--workload all`` runs
each in turn, each in its own process so that peak memory is its own.  One
caller runs ops in a closed loop, with no threads, until ``--seconds`` have
passed (at least one op).  Every output is checked against the golden values
in ``perfbench/golden.json``.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` the first half
of the time runs untraced and the second half traced, and the metrics are
the per-layer ones.  ``--smoke`` swaps in tiny inputs.  A record of each
run, with the host it ran on, goes to ``perfbench/out/``.
"""

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11
ALL_TIMEOUT_S = 900

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402


# ------------------------------------------------------------- statistics

def tail(samples):
    """(value, label) of the highest nearest-rank percentile that has at
    least ten samples above it, but never below the upper median.

    With 20 samples or fewer no percentile above the median has ten samples
    beyond it, so the tail reads the upper median and its label says so.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)
    return xs[rank - 1], f"p{100 * rank // n} of {n} samples"


def end_to_end(samples, setups, peak_rss_mb):
    value, label = tail(samples)
    return {
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.tail": (value, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, label


def _per_op(kind, name):
    def metric(s):
        return s[kind][name] / s["ops"]
    return metric


def _ratio(top, bottom):
    def metric(s):
        den = s[bottom[0]][bottom[1]]
        return s[top[0]][top[1]] / den if den else 0.0
    return metric


# (metric, unit, better, function of the traced-run summary).  Counts and
# times are per op; a layer an op never reaches reads zero.
PER_LAYER = (
    ("linalg.lp.calls", "count", "lower", _per_op("calls", "linalg.lp")),
    ("linalg.lp.self_s", "s", "lower", _per_op("self_s", "linalg.lp")),
    ("linalg.in_cone.useful_ratio", "ratio", "higher",
     _ratio(("counts", "linalg.in_cone.true"), ("calls", "linalg.in_cone"))),
    ("lattice.rays.self_s", "s", "lower", _per_op("self_s", "lattice.rays")),
    ("lattice.triangulate.self_s", "s", "lower",
     _per_op("self_s", "lattice.triangulate")),
    ("lattice.pieces", "count", "lower", _per_op("counts", "lattice.pieces")),
    ("lattice.fpp.self_s", "s", "lower", _per_op("self_s", "lattice.fpp")),
    ("lattice.fpp_points", "count", "lower",
     _per_op("counts", "lattice.fpp_points")),
    ("lattice.hilbert_numerator.self_s", "s", "lower",
     _per_op("self_s", "lattice.hilbert_numerator")),
    ("lattice.cones", "count", "lower",
     _per_op("calls", "lattice.cone_at_vertex")),
    ("laurent.exact_divide.calls", "count", "lower",
     _per_op("calls", "laurent.exact_divide")),
    ("laurent.exact_divide.self_s", "s", "lower",
     _per_op("self_s", "laurent.exact_divide")),
    ("laurent.exact_divide.useful_ratio", "ratio", "higher",
     _ratio(("returned", "laurent.exact_divide"),
            ("calls", "laurent.exact_divide"))),
    ("laurent.mul.calls", "count", "lower", _per_op("calls", "laurent.mul")),
    ("laurent.mul.self_s", "s", "lower", _per_op("self_s", "laurent.mul")),
    ("ktheory.y_class.self_s", "s", "lower",
     _per_op("self_s", "ktheory.y_class")),
    ("ktheory.line_bundle.self_s", "s", "lower",
     _per_op("self_s", "ktheory.line_bundle")),
    ("ktheory.pullback.self_s", "s", "lower",
     _per_op("self_s", "ktheory.pullback")),
    ("ktheory.pushforward.self_s", "s", "lower",
     _per_op("self_s", "ktheory.pushforward")),
    ("ktheory.reduce.self_s", "s", "lower",
     _per_op("self_s", "ktheory.reduce")),
    ("ktheory.basis_flags", "count", "lower",
     _per_op("counts", "ktheory.basis_flags")),
    ("ktheory.gkm.self_s", "s", "lower", _per_op("self_s", "ktheory.gkm")),
    ("ktheory.gkm.orbit_checks", "count", "higher",
     _per_op("counts", "ktheory.gkm.orbit_checks")),
    ("lattice.count_shifted.calls", "count", "lower",
     _per_op("calls", "lattice.count_shifted")),
    ("lattice.count_shifted.self_s", "s", "lower",
     _per_op("self_s", "lattice.count_shifted")),
    ("lattice.points_counted", "count", "lower",
     _per_op("counts", "lattice.points_counted")),
    ("invariants.q_fit.self_s", "s", "lower",
     _per_op("self_s", "invariants.q_fit")),
    ("invariants.rank_nullity.self_s", "s", "lower",
     _per_op("self_s", "invariants.rank_nullity")),
    ("invariants.delcon.self_s", "s", "lower",
     _per_op("self_s", "invariants.delcon")),
    ("invariants.activity.self_s", "s", "lower",
     _per_op("self_s", "invariants.activity")),
    ("cli.interpreter_s", "s", "lower",
     _per_op("counts", "cli.interpreter_s")),
    ("cli.import_s", "s", "lower", _per_op("counts", "cli.import_s")),
    ("fileio.load.self_s", "s", "lower", _per_op("self_s", "fileio.load")),
    ("cli.verb.self_s", "s", "lower", _per_op("self_s", "cli.verb")),
    ("cli.qprime.count_shifted_calls", "count", "lower",
     _per_op("counts", "cli.qprime.count_shifted_calls")),
    ("cli.ktutte_weights.y_class_calls", "count", "lower",
     _per_op("counts", "cli.ktutte_weights.y_class_calls")),
    ("proc.cpu_s", "s", "lower", lambda s: s["cpu_s"]),
    ("trace.overhead_frac", "ratio", "lower", lambda s: s["overhead_frac"]),
)


def per_layer(tracer, ops, cpu_s, overhead_frac):
    calls, returned, self_s = summarize(tracer.spans)
    summary = {"calls": calls, "returned": returned, "self_s": self_s,
               "counts": tracer.counts, "ops": ops, "cpu_s": cpu_s,
               "overhead_frac": overhead_frac}
    return {name: (fn(summary), unit) for name, unit, _, fn in PER_LAYER}


# ----------------------------------------------------------- environment

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def loadavg():
    return _read("/proc/loadavg") or "unavailable"


def environment():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(),
            "loadavg_start": loadavg()}


# ------------------------------------------------------------------ runs

def _flagtutte_modules():
    return {n: m for n, m in sys.modules.items()
            if n == "flagtutte" or n.startswith("flagtutte.")}


def _use_modules(modules):
    """Make `modules` the loaded flagtutte, dropping any other copy."""
    for name in _flagtutte_modules():
        del sys.modules[name]
    sys.modules.update(modules)


def setup(workload, seed, smoke, golden, workdir):
    """Import flagtutte afresh, build the seeded inputs and load the golden
    values; returns (seconds, inputs, expected output)."""
    start = time.perf_counter()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    _use_modules({})
    module = importlib.import_module("flagtutte")
    if Path(module.__file__).resolve().parent != SRC / "flagtutte":
        raise RuntimeError(f"flagtutte imported from {module.__file__}, "
                           f"not from {SRC}")
    inputs = workload.prepare(random.Random(seed), smoke, workdir)
    if golden is None:
        golden = workloads.load_golden()
    expected = golden["smoke" if smoke else "full"][workload.name]
    return time.perf_counter() - start, inputs, expected


def measure(workload, inputs, expected, seconds, tracer=None,
            between_ops=None):
    """Closed loop: ops back to back until `seconds` pass, at least one.
    Returns (wall seconds per op, CPU seconds per op, failure messages)."""
    samples, cpu, failures = [], [], []
    begun = time.perf_counter()
    while not samples or time.perf_counter() - begun < seconds:
        token = tracer.open("op") if tracer else None
        c0, t0 = workload.cpu_time(), time.perf_counter()
        error = None
        try:
            raw = workload.op(inputs, tracer)
        except Exception:   # an op that raises is counted and the run goes on
            error = traceback.format_exc()
        t1, c1 = time.perf_counter(), workload.cpu_time()
        if tracer:
            tracer.close(token, ok=error is None)
        samples.append(t1 - t0)
        cpu.append(c1 - c0)
        if error is None:
            try:
                error = workload.mismatch(workload.canon(raw), expected,
                                          inputs)
            except Exception:   # an output of the wrong shape fails the op
                error = traceback.format_exc()
        if error:
            failures.append(error)
        if between_ops:
            between_ops(time.perf_counter() - begun)
    return samples, cpu, failures


def run_workload(name, seed, seconds, trace, smoke=False, golden=None):
    """One benchmark run; returns its record (metrics, samples, host)."""
    workload = workloads.WORKLOADS[name]
    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    workdir = OUT / f"inputs-{tag}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    saved = _flagtutte_modules()
    try:
        seconds_taken, inputs, expected = setup(workload, seed, smoke, golden,
                                                workdir)
        setups = [seconds_taken]
        kept = _flagtutte_modules()

        def repeat_setups(elapsed):
            # Timed only: the ops keep the first set-up's modules and inputs.
            # Spread evenly over the run, the repeats sample the host's
            # speed over the whole run rather than at one moment.
            due = (SETUP_REPEATS if elapsed >= seconds else
                   1 + int(elapsed / seconds * (SETUP_REPEATS - 1)))
            while len(setups) < due:
                setups.append(setup(workload, seed, smoke, golden,
                                    workdir)[0])
                _use_modules(kept)

        if not trace:
            samples, cpu, failures = measure(workload, inputs, expected,
                                             seconds,
                                             between_ops=repeat_setups)
            repeat_setups(seconds)   # the set-ups themselves took loop time
            metrics, tail_label = end_to_end(samples, setups,
                                             workload.peak_rss_mb())
        else:
            samples, cpu, failures = measure(workload, inputs, expected,
                                             seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _, traced_failures = measure(
                    workload, inputs, expected, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            overhead = (statistics.median(traced)
                        / statistics.median(samples) - 1)
            metrics = per_layer(tracer, len(traced), statistics.median(cpu),
                                overhead)
            tail_label = None
            samples, failures = samples + traced, failures + traced_failures
            with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
        _use_modules(saved)
    env["loadavg_end"] = loadavg()
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, "env": env,
              "op_s": samples, "cpu_s": cpu, "tail": tail_label,
              "setup_s": setups,
              "attempted": len(samples), "failed": len(failures),
              "fail_frac": len(failures) / len(samples),
              "failures": failures[:3],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{tag}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record):
    """Print a run's metrics for a reader; the JSON result line follows."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"ops {record['attempted']}  trace {record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["metrics"].items():
        note = f"  ({record['tail']})" if name == "op_s.tail" else ""
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'fail_frac':<36} {record['fail_frac']:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} ops)")
    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)


def result_line(record):
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": record["metrics"]}


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                               else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ALL_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (U(2,4), flag_rank12)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (SRC / "flagtutte" / "__init__.py",
                           workloads.FIXTURES)
               if not p.exists()]
    if missing:
        sys.exit(f"perfbench: run from a flagtutte checkout; missing "
                 f"{', '.join(map(str, missing))}")
    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        report(record)
        result = result_line(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
