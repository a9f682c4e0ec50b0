"""In-memory span tracing for the benchmark's traced runs.

A ``Tracer`` wraps bks5's public functions from outside the package: every
module-level name that is bound to a traced function, in any loaded
``bks5`` module, is replaced by a wrapper while a traced op runs.  This is the name a caller actually looks up, so
``bks5.cli.check_colorable``, ``bks5.search.check_colorable`` and
``bks5.coloring.check_colorable`` are all traced, while nothing under
``src/bks5/`` is edited.

A span is ``[name, start, end, parent, op, counters]``: ``parent`` is the
index of the enclosing span (or None), ``op`` the id of the benchmark op
the span belongs to ("setup" for a traced set-up), and ``counters`` the
work counts read from the value the function returned.  The wrappers are
in place only inside ``Tracer.op``, so untraced ops and the correctness
checks run the unmodified program.

This module does not import bks5 at module level, so ``run.py`` can use
the aggregation helpers without loading the program.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Counters take (result, bound arguments) and return {metric name: number}.

def _coloring(res, _args):
    return {"coloring.nodes": res.nodes,
            "coloring.propagations": res.propagations}


def _dpll(res, _args):
    return {"dpll.nodes": res.nodes, "dpll.propagations": res.propagations}


def _partitions(res, args):
    # search_small_proof's drop test (has_partition) is the only caller that
    # passes ``universe``, so each such call is one drop trial.
    return {"search.partitions_found": len(res),
            "search.drop_trials": int(args.get("universe") is not None)}


def _search(res, args):
    found = res.status == "found"
    sample = min(args["max_size"], len(args["bases"]))
    return {"search.attempts": res.attempts, "search.found": int(found),
            "search.dropped": sample - res.size if found else 0}


def _spectrum(res, _args):
    return {"metrics.pairs": sum(res.pairs.values()),
            "metrics.distinct_values": res.distinct_value_count}


# (defining module, attribute, span name, counters read from the result).
TARGETS = (
    ("bks5.rays", "build_ray_table", "rays.build_ray_table", None),
    ("bks5.pauli", "verify_magic", "pauli.verify_magic", None),
    ("bks5.bases", "build_ortho_graph", "bases.build_ortho_graph", None),
    ("bks5.bases", "enumerate_maximal_bases", "bases.enumerate_maximal_bases",
     lambda res, _args: {"bases.bases_found": len(res)}),
    ("bks5.bases", "bases_sha256", "bases.bases_sha256", None),
    ("bks5.bases", "contains_basis", "bases.contains_basis", None),
    ("bks5.coloring", "check_colorable", "coloring.check_colorable",
     _coloring),
    ("bks5.coloring", "export_cnf", "coloring.export_cnf", None),
    ("bks5.dpll", "parse_dimacs", "dpll.parse_dimacs", None),
    ("bks5.dpll", "solve", "dpll.solve", _dpll),
    ("bks5.search", "find_partitions", "search.find_partitions",
     _partitions),
    ("bks5.search", "search_small_proof", "search.search_small_proof",
     _search),
    ("bks5.metrics", "distance_spectrum", "metrics.distance_spectrum",
     _spectrum),
    ("bks5.geometry", "geometry_report", "geometry.geometry_report", None),
    ("bks5.symmetry", "build_overlap_graph", "symmetry.build_overlap_graph",
     None),
    ("bks5.symmetry", "automorphism_group", "symmetry.automorphism_group",
     lambda res, _args: {"symmetry.group_order": res.order}),
    ("bks5.cli", "cmd_verify", "cli.verify", None),
)

# Every per-layer metric the traced run reports: (name, unit, better).
PER_LAYER = (
    ("rays.build_ray_table.self_s", "s", "lower"),
    ("pauli.verify_magic.self_s", "s", "lower"),
    ("bases.build_ortho_graph.self_s", "s", "lower"),
    ("bases.enumerate_maximal_bases.self_s", "s", "lower"),
    ("bases.bases_found", "count", "higher"),
    ("bases.bases_per_s", "1/s", "higher"),
    ("bases.bases_sha256.self_s", "s", "lower"),
    ("bases.contains_basis.self_s", "s", "lower"),
    ("coloring.KSInstance.build.self_s", "s", "lower"),
    ("coloring.KSInstance.build.calls", "count", "lower"),
    ("coloring.check_colorable.self_s", "s", "lower"),
    ("coloring.check_colorable.calls", "count", "lower"),
    ("coloring.nodes", "count", "lower"),
    ("coloring.propagations", "count", "lower"),
    ("coloring.export_cnf.self_s", "s", "lower"),
    ("dpll.parse_dimacs.self_s", "s", "lower"),
    ("dpll.solve.self_s", "s", "lower"),
    ("dpll.nodes", "count", "lower"),
    ("dpll.propagations", "count", "lower"),
    ("search.find_partitions.self_s", "s", "lower"),
    ("search.find_partitions.calls", "count", "lower"),
    ("search.partitions_found", "count", "higher"),
    ("search.search_small_proof.self_s", "s", "lower"),
    ("search.attempts", "count", "lower"),
    ("search.found_per_attempt", "ratio", "higher"),
    ("search.drop_yield", "ratio", "higher"),
    ("metrics.distance_spectrum.self_s", "s", "lower"),
    ("metrics.pairs", "count", "higher"),
    ("metrics.pairs_per_s", "1/s", "higher"),
    ("metrics.distinct_values", "count", "higher"),
    ("geometry.geometry_report.self_s", "s", "lower"),
    ("symmetry.build_overlap_graph.self_s", "s", "lower"),
    ("symmetry.automorphism_group.self_s", "s", "lower"),
    ("symmetry.group_order", "count", "higher"),
    ("cli.verify.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    """Records spans in memory while a traced op runs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patches = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op,
                           None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, counters=None):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = counters
        self._stack.pop()

    def _wrap(self, span_name: str, fn, counters):
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = None
                if counters is not None and result is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counters(result, bound.arguments)
                self._close(idx, counts)
        return traced

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every traced binding."""
        if self._patches is None:
            from bks5 import cli  # noqa: F401  (loads every traced module)
            from bks5.coloring import KSInstance
            modules = [m for name, m in sorted(sys.modules.items())
                       if name == "bks5" or name.startswith("bks5.")]
            patches = []
            for module_name, attr, span_name, counters in TARGETS:
                original = getattr(sys.modules[module_name], attr)
                traced = self._wrap(span_name, original, counters)
                patches += [(m, attr, original, traced) for m in modules
                            if m.__dict__.get(attr) is original]
            build = KSInstance.__dict__["build"]
            patches.append((KSInstance, "build", build, classmethod(
                self._wrap("coloring.KSInstance.build", build.__func__,
                           None))))
            self._patches = patches
        return self._patches

    @contextmanager
    def op(self, op_id, name: str = "op"):
        """Trace one op: wrap the bks5 bindings and record a root span.

        The wrappers are removed again when the op ends, so everything
        outside a traced op runs the unmodified program.
        """
        patches = self._bindings()
        for owner, attr, _original, traced in patches:
            setattr(owner, attr, traced)
        self._op = op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None
            for owner, attr, original, _traced in patches:
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their summed durations are the part of the span they cover.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, *_rest in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans, traced_ops: int, overhead: float) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Self times, call counts and counters are totals per traced op.  A
    function that no traced op calls but the traced set-up does (basis
    enumeration in search_sweep) is reported per set-up instead.  A
    function that the workload never calls reports 0.
    """
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        name, op, counters = span[0], span[4], span[5]
        where = "setup" if op == "setup" else "ops"
        acc = totals.setdefault(name, {"ops": Counter(), "setup": Counter()})
        acc[where][name + ".self_s"] += own
        acc[where][name + ".calls"] += 1
        acc[where].update(counters or {})
    flat = {}
    for acc in totals.values():
        if acc["ops"]:
            flat.update({k: v / traced_ops for k, v in acc["ops"].items()})
        else:
            flat.update(acc["setup"])

    def ratio(num, den):
        return flat.get(num, 0) / flat[den] if flat.get(den) else 0.0

    flat["bases.bases_per_s"] = ratio("bases.bases_found",
                                      "bases.enumerate_maximal_bases.self_s")
    flat["metrics.pairs_per_s"] = ratio("metrics.pairs",
                                        "metrics.distance_spectrum.self_s")
    flat["search.found_per_attempt"] = ratio("search.found", "search.attempts")
    flat["search.drop_yield"] = ratio("search.dropped", "search.drop_trials")
    flat["trace.overhead"] = overhead
    return {name: {"value": float(flat.get(name, 0.0)), "unit": unit}
            for name, unit, _better in PER_LAYER}
