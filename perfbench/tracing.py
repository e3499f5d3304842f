"""Span tracing of flagtutte's layers, installed from outside the package.

A :class:`Tracer` replaces each function named in :data:`LAYERS` with a
wrapper that records a span (name, start, end, parent span, op id, whether
it returned) and, for some functions, counts taken from the result.  A
function is replaced wherever it is looked up: as a module global of any
loaded ``flagtutte`` module (``ktheory`` imports ``hilbert_numerator`` by
name, ``cli`` imports ``y_class``), as a class attribute (``__rmul__`` is
``__mul__``) and as a value of a module-level dict (``cli.COMMANDS``).
:meth:`Tracer.uninstall` puts every original back.

Spans stay in memory; :func:`self_times` derives each span's self time as
its duration minus the time its child spans cover.
"""

import functools
import sys
import time
from collections import defaultdict


def _in_cone_counts(result, args):
    return {"linalg.in_cone.true": int(bool(result))}


def _pieces(result, args):
    return {"lattice.pieces": len(result)}


def _fpp_points(result, args):
    return {"lattice.fpp_points": len(result)}


def _basis_flags(result, args):
    return {"ktheory.basis_flags": len(result.values)}


def _orbit_checks(result, args):
    """Orbits the verdict examined: all of them, or up to the witness."""
    orbits = args[0].space.one_dim_orbits()
    checked = len(orbits) if result else orbits.index(result.witness) + 1
    return {"ktheory.gkm.orbit_checks": checked}


def _points_counted(result, args):
    return {"lattice.points_counted": result}


# (module, attribute path, span name, counter or None).  A counter maps
# (result, args) to counts added after the span has ended.
LAYERS = (
    ("linalg", "lp_nonneg_solve", "linalg.lp", None),
    ("linalg", "in_cone", "linalg.in_cone", _in_cone_counts),
    ("lattice", "RationalCone.rays", "lattice.rays", None),
    ("lattice", "cone_at_vertex", "lattice.cone_at_vertex", None),
    ("lattice", "triangulate", "lattice.triangulate", _pieces),
    ("lattice", "HalfOpenSimplicialCone.parallelepiped_points",
     "lattice.fpp", _fpp_points),
    ("lattice", "hilbert_numerator", "lattice.hilbert_numerator", None),
    ("lattice", "count_shifted", "lattice.count_shifted", _points_counted),
    ("laurent", "LaurentPoly.exact_divide", "laurent.exact_divide", None),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", None),
    ("ktheory", "y_class", "ktheory.y_class", _basis_flags),
    ("ktheory", "o1_class", "ktheory.line_bundle", None),
    ("ktheory", "EquivariantClass.__mul__", "ktheory.line_bundle", None),
    ("ktheory", "pullback", "ktheory.pullback", None),
    ("ktheory", "pushforward_to_pp", "ktheory.pushforward", None),
    ("ktheory", "to_nonequivariant", "ktheory.reduce", None),
    ("ktheory", "EquivariantClass.gkm_verdict", "ktheory.gkm",
     _orbit_checks),
    ("invariants", "q_coefficients", "invariants.q_fit", None),
    ("invariants", "tutte_rank_nullity", "invariants.rank_nullity", None),
    ("invariants", "tutte_delcon", "invariants.delcon", None),
    ("invariants", "tutte_activity", "invariants.activity", None),
    ("fileio", "load_object", "fileio.load", None),
) + tuple(("cli", f"cmd_{verb}", "cli.verb", None)
          for verb in ("check", "tutte", "ktutte", "charpoly", "qprime",
                       "polytope", "yclass", "quotient", "union"))

# Marks the stderr line on which a traced CLI child reports its spans.
TRACE_PREFIX = "PERFBENCH-TRACE "

# Span fields, in the order a span tuple stores them.
NAME, START, END, PARENT, OP, OK = range(6)


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "flagtutte" or name.startswith("flagtutte."))]


class Tracer:
    """Records spans and counts while installed; one op at a time."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = [-1]
        self._patched = []   # (setter, original) pairs, in install order

    # -- recording ------------------------------------------------------
    def count(self, name, k=1):
        self.counts[name] += k

    def open(self, name):
        """Open a span under the innermost open one; pass the result to
        :meth:`close`.  An "op" span starts a new op id."""
        if name == "op":
            self.op += 1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return name, index, time.perf_counter()

    def close(self, token, ok=True):
        end = time.perf_counter()
        name, index, start = token
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1], self.op, ok)
        return index

    # -- installation ---------------------------------------------------
    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op, ok)
            if counter is not None:
                for key, k in counter(result, args).items():
                    tracer.counts[key] += k
            return result

        return traced

    def install(self):
        """Wrap every layer function at every place it is looked up."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        if not modules:
            raise RuntimeError("flagtutte is not imported")
        by_name = {m.__name__: m for m in modules}
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__]
        for module_name, path, span_name, counter in LAYERS:
            module = by_name.get("flagtutte." + module_name)
            if module is None:   # not imported, so nothing can call it
                continue
            original = _resolve(module, path)
            wrapper = self._wrap(original, span_name, counter)
            for owner in modules + classes:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapper, original)
                    elif (type(value) is dict and owner in modules
                          and key != "__builtins__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._set_item(value, dkey, wrapper,
                                               original)

    def _set(self, owner, key, value, original):
        setattr(owner, key, value)
        self._patched.append(
            (lambda v, o=owner, k=key: setattr(o, k, v), original))

    def _set_item(self, mapping, key, value, original):
        mapping[key] = value
        self._patched.append(
            (lambda v, m=mapping, k=key: m.__setitem__(k, v), original))

    def uninstall(self):
        """Put every original function back, in reverse install order."""
        while self._patched:
            setter, original = self._patched.pop()
            setter(original)

    # -- output ---------------------------------------------------------
    def payload(self):
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, payload, parent):
        """Append another process's spans under the span `parent`."""
        offset = len(self.spans)
        for name, start, end, p, _op, ok in payload["spans"]:
            self.spans.append((name, start, end,
                               parent if p < 0 else p + offset, self.op, ok))
        for key, k in payload["counts"].items():
            self.counts[key] += k


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    Spans come from one thread, so the direct children of a span never
    overlap and the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def summarize(spans):
    """Per span name: calls, calls that returned, and total self time."""
    calls = defaultdict(int)
    returned = defaultdict(int)
    self_s = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        returned[span[NAME]] += bool(span[OK])
        self_s[span[NAME]] += own
    return calls, returned, self_s
