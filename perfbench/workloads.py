"""The pinned workloads: seeded inputs, one op each, and golden checks.

Every workload draws its inputs from a seeded permutation of the ground
set.  Relabelling is applied only where the output is an isomorphism
invariant (tutte, ktutte, charpoly, qprime, check, quotient), so one set of
golden values, taken at the seed commit on the committed fixtures, checks
every seed.  Relabelling has no effect on the uniform inputs U(3,6), U(3,7)
and flag_u23_5 (both constituents of the latter are uniform); it is still
drawn and applied so that set-up does the same work on every workload.
Label-dependent verbs (polytope, yclass, union) read the committed
fixtures unchanged.
"""

import itertools
import json
import os
import resource
import subprocess
import sys
import time
from math import comb
from pathlib import Path

from tracing import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
GOLDEN_PATH = HERE / "golden.json"
CLI_CHILD = HERE / "cli_child.py"
CLI_TIMEOUT_S = 120


# ----------------------------------------------------------- documents

def fixture(name):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def uniform_doc(k, n):
    return {"type": "matroid", "n": n,
            "bases": [list(b) for b in itertools.combinations(range(n), k)]}


def complete_graph_doc(v):
    return {"type": "graph", "vertices": v,
            "edges": [[a, b] for a, b in itertools.combinations(range(v), 2)]}


def relabel(doc, rng):
    """Copy of an input document with its ground set permuted by `rng`.

    A graph's elements are its edges in list order, so shuffling the edge
    list relabels them.  A flag matroid or a matroid pair gets one
    permutation for all of its matroids.
    """
    kind = doc["type"]
    if kind == "graph":
        edges = list(doc["edges"])
        rng.shuffle(edges)
        return {**doc, "edges": edges}
    perm = list(range(_ground_set_size(doc)))
    rng.shuffle(perm)
    return _permuted(doc, perm, str(doc.get("indexing", "0")) == "1")


def _ground_set_size(doc):
    kind = doc.get("type", "matroid")
    if kind == "matroid_pair":
        return _ground_set_size(doc["N"])
    if kind == "matrix":
        return len(doc["rows"][0])
    return doc["n"]


def _permuted(doc, perm, one_indexed):
    kind = doc.get("type", "matroid")
    if "indexing" in doc:
        one_indexed = str(doc["indexing"]) == "1"
    if kind == "matroid":
        off = 1 if one_indexed else 0
        return {**doc, "bases": [[perm[e - off] + off for e in b]
                                 for b in doc["bases"]]}
    if kind == "matrix":
        rows = []
        for row in doc["rows"]:
            image = [None] * len(row)
            for j, x in enumerate(row):
                image[perm[j]] = x
            rows.append(image)
        return {**doc, "rows": rows}
    if kind == "polymatroid":
        rank = [0] * len(doc["rank"])
        for mask, r in enumerate(doc["rank"]):
            image = sum(1 << perm[i] for i in range(len(perm))
                        if mask >> i & 1)
            rank[image] = r
        return {**doc, "rank": rank}
    if kind == "flag_matroid":
        return {**doc, "constituents": [_permuted(c, perm, one_indexed)
                                        for c in doc["constituents"]]}
    if kind == "matroid_pair":
        return {**doc, "N": _permuted(doc["N"], perm, one_indexed),
                "M": _permuted(doc["M"], perm, one_indexed)}
    raise ValueError(f"cannot relabel a {kind!r} document")


def _parse(doc, rng):
    from flagtutte import fileio
    return fileio.parse_object(relabel(doc, rng) if rng else doc)


# ------------------------------------------------------ canonical forms

def terms(poly):
    """A BivarPoly as sorted [i, j, coefficient] triples."""
    return [[i, j, c] for (i, j), c in poly.sorted_terms()]


def binomial_coefficients(poly):
    """c_ij with poly = sum c_ij (x-1)^i (y-1)^j: the Taylor coefficients
    at (1, 1), as sorted [i, j, c] triples."""
    out = []
    degree = max((max(i, j) for (i, j), _ in poly.sorted_terms()), default=0)
    for i in range(degree + 1):
        for j in range(degree + 1):
            c = sum(a * comb(k, i) * comb(l, j)
                    for (k, l), a in poly.sorted_terms() if k >= i and l >= j)
            if c:
                out.append([i, j, c])
    return out


# ------------------------------------------------------------ workloads

class Workload:
    """One pinned workload.  `prepare` builds the inputs (relabelled by
    `rng`, or as committed when `rng` is None), `op` is the timed call,
    `canon` turns its result into the JSON form the golden file stores."""

    name = ""

    def prepare(self, rng, smoke, workdir):
        raise NotImplementedError

    def op(self, inputs, tracer):
        raise NotImplementedError

    def canon(self, raw):
        return terms(raw)

    def mismatch(self, got, expected, inputs):
        """None when the op's canonical output is right, else why not."""
        return None if got == expected else "output differs from golden"

    cpu_time = staticmethod(time.process_time)

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class KTutteFlag(Workload):
    """k_tutte on the paper's flag matroid U(2,3)/5 (smoke: flag_rank12)."""

    name = "ktutte-flag"

    def prepare(self, rng, smoke, workdir):
        from flagtutte import fileio
        doc = fixture("flag_rank12.json" if smoke else "flag_u23_5.json")
        return fileio.as_flag_matroid(_parse(doc, rng))

    def op(self, inputs, tracer):
        from flagtutte import k_tutte
        return k_tutte(inputs)


class KTutteMatroid(Workload):
    """k_tutte on U(3,6) (smoke: U(2,4)), which must also equal its Tutte
    polynomial computed during set-up."""

    name = "ktutte-matroid"

    def prepare(self, rng, smoke, workdir):
        from flagtutte import fileio, tutte_rank_nullity
        m = _parse(uniform_doc(2, 4) if smoke else uniform_doc(3, 6), rng)
        return {"flag": fileio.as_flag_matroid(m),
                "specialization": terms(tutte_rank_nullity(m))}

    def op(self, inputs, tracer):
        from flagtutte import k_tutte
        return k_tutte(inputs["flag"])

    def mismatch(self, got, expected, inputs):
        if got != inputs["specialization"]:
            return "k_tutte differs from tutte_rank_nullity"
        return super().mismatch(got, expected, inputs)


class QPrimeU37(Workload):
    """qprime of the base polytope of U(3,7) (smoke: U(2,4)); the golden
    check covers the polynomial and its binomial-basis coefficients."""

    name = "qprime-u37"

    def prepare(self, rng, smoke, workdir):
        return _parse(uniform_doc(2, 4) if smoke else uniform_doc(3, 7), rng)

    def op(self, inputs, tracer):
        from flagtutte import base_polytope, qprime
        return qprime(base_polytope(inputs))

    def canon(self, raw):
        return {"poly": terms(raw), "binomial": binomial_coefficients(raw)}


class TutteRoutes(Workload):
    """The three Tutte routes on graphic K6, nonpappus and k4 (smoke: k4
    and u24); the routes must agree."""

    name = "tutte-routes"

    def prepare(self, rng, smoke, workdir):
        docs = ({"k4": fixture("k4.json"), "u24": fixture("u24.json")}
                if smoke else
                {"k6": complete_graph_doc(6),
                 "nonpappus": fixture("nonpappus.json"),
                 "k4": fixture("k4.json")})
        return {name: _parse(doc, rng) for name, doc in docs.items()}

    def op(self, inputs, tracer):
        from flagtutte import tutte_activity, tutte_delcon, tutte_rank_nullity
        return {name: [route(m) for route in (tutte_rank_nullity,
                                               tutte_delcon, tutte_activity)]
                for name, m in inputs.items()}

    def canon(self, raw):
        return {name: terms(polys[0]) if polys[0] == polys[1] == polys[2]
                else "routes disagree"
                for name, polys in raw.items()}


# (label, verb, fixture, relabel it?, further arguments).  Every verb on
# the small fixtures, one domain error (exit 1) and one usage error (exit 2).
# --threads is not pinned.
CLI_CALLS = (
    ("check", "check", "nonpappus.json", True, []),
    ("tutte", "tutte", "k4.json", True, []),
    ("tutte_text", "tutte", "u24.json", True,
     ["--method=delcon", "--output=text"]),
    ("ktutte", "ktutte", "flag_rank12.json", True, []),
    ("ktutte_weights", "ktutte", "flag_rank12.json", True,
     ["--weights=1,2,3"]),
    ("charpoly", "charpoly", "flag_rank12.json", True, []),
    ("qprime", "qprime", "subspace_polymatroid.json", True, []),
    ("polytope", "polytope", "flag_rank12.json", False, ["--kmax=3"]),
    ("yclass", "yclass", "flag_rank12.json", False, ["--fixed-point=1|01"]),
    ("quotient", "quotient", "pappus8_quotient_pair.json", True, []),
    ("union", "union", "u1_counterexample_family.json", False, []),
    ("bad_input", "check", "bad_mixed.json", False, []),
    ("usage", "frobnicate", "k4.json", False, []),
)

# Work a CLI call repeats at the seed commit, reported as counts in the
# traced run: cmd_qprime fits the count grid twice, and --weights rebuilds
# y_class.  (call label, span name) -> per-layer metric.
CLI_DUPLICATE_WORK = {
    ("qprime", "lattice.count_shifted"): "cli.qprime.count_shifted_calls",
    ("ktutte_weights", "ktheory.y_class"): "cli.ktutte_weights.y_class_calls",
}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


class CliVerbs(Workload):
    """The CLI_CALLS subprocesses in sequence, each compared to golden
    stdout bytes and exit code (stderr is not compared)."""

    name = "cli-verbs"

    def prepare(self, rng, smoke, workdir):
        from flagtutte import fileio
        calls = []
        for label, verb, name, relabelled, extra in CLI_CALLS:
            path = FIXTURES / name
            if relabelled and rng:
                doc = relabel(fixture(name), rng)
                fileio.parse_object(doc)   # a bad relabelling fails here
                path = Path(workdir) / f"{label}.json"
                with open(path, "w") as fh:
                    json.dump(doc, fh)
            calls.append((label, [verb, str(path)] + extra))
        return {"calls": calls, "env": child_env()}

    def op(self, inputs, tracer):
        out = []
        for label, argv in inputs["calls"]:
            if tracer is None:
                cmd = [sys.executable, "-m", "flagtutte.cli"] + argv
            else:
                cmd = [sys.executable, str(CLI_CHILD)] + argv
                token = tracer.open("cli.call")
                spawned = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, env=inputs["env"],
                                  capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            if tracer is not None:
                call_span = tracer.close(token)
                _merge_child_trace(tracer, proc.stderr, call_span, label,
                                   spawned)
            out.append((label, proc.returncode, proc.stdout.decode()))
        return out

    def canon(self, raw):
        return [{"label": label, "exit": code, "stdout": stdout}
                for label, code, stdout in raw]

    def mismatch(self, got, expected, inputs):
        bad = [g["label"] for g, e in zip(got, expected) if g != e]
        if len(got) != len(expected):
            bad.append("number of calls")
        return f"calls differ from golden: {bad}" if bad else None

    @staticmethod
    def cpu_time():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    @staticmethod
    def peak_rss_mb():
        """Peak resident memory of the largest CLI child waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _merge_child_trace(tracer, stderr, call_span, label, spawned):
    lines = stderr.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(TRACE_PREFIX):
        raise RuntimeError(f"traced CLI call {label!r} wrote no trace")
    payload = json.loads(lines[-1][len(TRACE_PREFIX):])
    first = len(tracer.spans)
    tracer.merge(payload, call_span)
    tracer.count("cli.interpreter_s", payload["started"] - spawned)
    tracer.count("cli.import_s", payload["imported"] - payload["started"])
    for (call, span_name), metric in CLI_DUPLICATE_WORK.items():
        if call == label:
            tracer.count(metric, sum(1 for s in tracer.spans[first:]
                                     if s[0] == span_name))


WORKLOADS = {w.name: w for w in (KTutteFlag(), KTutteMatroid(), QPrimeU37(),
                                 TutteRoutes(), CliVerbs())}


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)
