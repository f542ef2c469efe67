"""Span recorder and the wrapper list for the traced run.

Run as a script, this is the small launcher the traced ``repro`` child is
started through::

    python3 perfbench/tracing.py SPANS.json -- check FILE [...]
    python3 perfbench/tracing.py SPANS.json -- serve WS --socket S [...]

It installs the wrappers below, calls ``repro.cli.main`` with the
remaining arguments, and writes every recorded span once, at exit.  The
program itself is not changed: each wrapper replaces a name where its
caller looks it up (``frontend`` imports ``parse_program`` by name, so
the name is patched on ``frontend``).

Each span is ``[name, start, end, parent, request]``; ``parent`` indexes
the enclosing span (-1 at top level) and ``request`` is the serve
request being answered (0 is the cold scan).  Only the main thread is
recorded; none of the wrapped calls runs on another thread.  A layer's
self time is its duration minus the part its child spans cover;
:func:`layer_metrics` turns a span file into the per-layer metrics,
with ``unattributed_s`` the traced wall not covered by any layer's self
time.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before the program is imported

import collections  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


class SpanRecorder:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call.  ``name`` may be a function
        of the call's positional arguments; ``after(args, result)``
        records counters from the call's result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        main = threading.main_thread().ident

        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            index = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else -1,
                    self.request]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, target: str, name, after=None) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in place."""
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        setattr(owner, attr, self.wrap(name, fn, after))

    def dump(self, path: str, t0: float, t1: float) -> None:
        doc = {
            "t0": t0, "t1": t1,
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


# -- the wrapper list -------------------------------------------------------


def install(rec: SpanRecorder, serve: bool) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    counts = rec.counts

    def count(key, value=1):
        counts[key] += value

    frontend = "repro.analysis.frontend"
    rec.patch(f"{frontend}:parse_program", "lang.parse")
    for fn in ("normalize_calls", "unroll_loops", "lower_exceptions"):
        rec.patch(f"{frontend}:{fn}", "lang.lower")
    rec.patch(f"{frontend}:build_call_graph", "lang.callgraph")
    rec.patch(f"{frontend}:infer_object_vars", "lang.types")
    rec.patch(f"{frontend}:build_icfet", "cfet.icfet")
    rec.patch(f"{frontend}:enumerate_clones", "graph.clones")
    # The multi-file path parses through parse_module (inside
    # load_modules) and the daemon parses each changed file itself.
    rec.patch("repro.sa.scopes:parse_module", "lang.parse")
    rec.patch("repro.serve:parse_module", "lang.parse")

    rec.patch("repro.sa.scopes:load_modules", "sa.scopes")
    rec.patch("repro.sa.constprop:fold_constant_branches", "sa.fold",
              lambda a, r: count("sa.branches_folded", r))
    rec.patch("repro.sa.liveness:eliminate_dead_stores", "sa.dse",
              lambda a, r: count("sa.dead_stores_removed", r))
    rec.patch("repro.sa.relevance:compute_relevance", "sa.relevance")
    # compress_cf_chains returns nothing; its counter lives on the run's
    # fresh ReductionStats, which nothing else increments.
    rec.patch("repro.sa.reduce:compress_cf_chains", "sa.compress",
              lambda a, r: count("sa.cf_edges_removed", a[2].cf_edges_removed))

    rec.patch("repro.analysis.alias:build_alias_graph", "graph.alias_build",
              lambda a, r: count("graph.alias_edges", r.graph.edge_count()))
    rec.patch("repro.analysis.dataflow:build_dataflow_graph",
              "graph.dataflow_build",
              lambda a, r: count("graph.dataflow_edges",
                                 r.graph.edge_count()))

    def engine_stats(args, result):
        phase, stats = args[0].phase, result.stats
        count(f"engine.{phase}.io_s", stats.io_time)
        count(f"engine.{phase}.encode_s", stats.encode_time)
        count(f"engine.{phase}.smt_s", stats.smt_time)
        count(f"engine.{phase}.compute_s", stats.compute_time)
        for field in ("pairs_processed", "new_edges", "compositions_tried",
                      "constraints_solved", "constraint_queries",
                      "cache_hits", "prefetch_hits", "prefetch_misses",
                      "spill_bytes"):
            count(f"engine.{field}", getattr(stats, field))
        count("engine.partitions", stats.final_partitions)

    rec.patch("repro.engine.computation:GraphEngine.run",
              lambda args: f"engine.{args[0].phase}_closure", engine_stats)
    rec.patch("repro.analysis.pipeline:extract_report", "checkers.extract")

    rec.patch("repro.engine.serialize:atomic_write_bytes", "fs.write",
              lambda a, r: (count("fs.atomic_writes"),
                            count("fs.bytes_written", len(a[1]))))
    for fn, name in (("unlink", "fs.unlink"), ("remove", "fs.unlink"),
                     ("replace", "fs.replace"), ("rmdir", "fs.rmdir"),
                     ("fsync", "fs.fsync")):
        rec.patch(f"os:{fn}", name)

    if serve:
        rec.patch("repro.analysis.pipeline:Grapple.run", "serve.stratum_run")
        rec.patch("repro.engine.incremental:IncrementalClosure.apply",
                  "serve.incremental")

        def fragment(args, result):
            edit = result.get("edit") or {}
            count("serve.strata_rechecked", edit.get("strata_rechecked", 0))
            count("serve.artifacts_rederived",
                  edit.get("artifacts_rederived", 0))

        rec.patch("repro.serve:ServeEngine.scan", "serve.scan", fragment)
        rec.patch("repro.serve:ServeEngine.report", "serve.report")
        server = importlib.import_module("repro.serve").Server
        handle = rec.wrap("serve.request", server._handle)

        def handle_request(self, request):
            rec.request += 1  # before the span opens, so it carries the id
            return handle(self, request)

        server._handle = handle_request


# -- from spans to per-layer metrics ----------------------------------------

#: Per-layer metrics with their units.  Every traced run reports all of
#: them; a layer a workload does not reach reads 0.
LAYER_TIMES = (
    "lang.parse", "lang.lower", "lang.callgraph", "lang.types",
    "sa.scopes", "sa.fold", "sa.dse", "sa.relevance", "sa.compress",
    "cfet.icfet", "graph.clones", "graph.alias_build",
    "graph.dataflow_build", "engine.alias_closure",
    "engine.dataflow_closure", "checkers.extract", "fs.write",
    "fs.unlink", "fs.replace", "fs.rmdir", "fs.fsync",
    "serve.stratum_run", "serve.scan", "serve.incremental",
    "serve.report", "serve.request",
)
FS_CALLS = {"fs.unlink": "fs.unlinks", "fs.replace": "fs.replaces",
            "fs.rmdir": "fs.rmdirs", "fs.fsync": "fs.fsyncs"}
COUNTS = (
    "sa.branches_folded", "sa.dead_stores_removed", "sa.cf_edges_removed",
    "graph.alias_edges", "graph.dataflow_edges", "engine.pairs_processed",
    "engine.partitions", "engine.partition_loads", "engine.spill_bytes",
    "engine.new_edges", "engine.compositions_tried",
    "engine.constraints_solved", "fs.atomic_writes", "fs.bytes_written",
    *FS_CALLS.values(), "serve.strata_rechecked",
    "serve.artifacts_rederived",
)
RATIOS = ("engine.prefetch_hit_rate", "engine.useful_ratio",
          "engine.cache_hit_rate")
PHASE_TIMES = tuple(f"engine.{phase}.{part}_s"
                    for phase in ("alias", "dataflow")
                    for part in ("io", "encode", "smt", "compute"))


def metric_units() -> dict[str, str]:
    units = {"workloads.generate_s": "s"}
    units.update({f"{name}_s": "s" for name in LAYER_TIMES})
    units.update({name: "s" for name in PHASE_TIMES})
    units.update({name: "count" for name in COUNTS})
    units["engine.spill_bytes"] = units["fs.bytes_written"] = "B"
    units.update({name: "ratio" for name in RATIOS})
    units.update(unattributed_s="s", trace_overhead_s="s")
    return units


def self_times(spans: list) -> dict[str, float]:
    """Self seconds per span name."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _req in spans:
        if parent >= 0:
            child[parent] += end - start
    per_name: dict[str, float] = collections.defaultdict(float)
    for i, (name, start, end, _parent, _req) in enumerate(spans):
        per_name[name] += (end - start) - child[i]
    return per_name


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process (see :func:`metric_units`;
    ``workloads.generate_s`` and ``trace_overhead_s`` are measured by the
    benchmark itself, outside the traced process)."""
    per_name = self_times(doc["spans"])
    counts = collections.Counter(doc["counts"])
    calls = collections.Counter(span[0] for span in doc["spans"])
    out = {f"{name}_s": per_name.get(name, 0.0) for name in LAYER_TIMES}
    out.update({name: counts.get(name, 0.0) for name in PHASE_TIMES})
    for span_name, metric in FS_CALLS.items():
        counts[metric] = calls[span_name]
    counts["engine.partition_loads"] = (counts["engine.prefetch_hits"]
                                        + counts["engine.prefetch_misses"])
    out.update({name: counts.get(name, 0) for name in COUNTS})
    loads = counts["engine.partition_loads"]
    out["engine.prefetch_hit_rate"] = (
        counts["engine.prefetch_hits"] / loads if loads else 0.0)
    tried = counts["engine.compositions_tried"]
    out["engine.useful_ratio"] = (
        counts["engine.new_edges"] / tried if tried else 0.0)
    queries = counts["engine.constraint_queries"]
    out["engine.cache_hit_rate"] = (
        counts["engine.cache_hits"] / queries if queries else 0.0)
    out["unattributed_s"] = (doc["t1"] - doc["t0"]) - sum(per_name.values())
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- REPRO-ARGS...",
              file=sys.stderr)
        return 2
    spans_path, repro_args = argv[0], argv[2:]
    rec = SpanRecorder()
    install(rec, serve=repro_args[0] == "serve")
    from repro.cli import main as repro_main

    try:
        code = repro_main(repro_args)
    finally:
        gc.collect()  # engine results remove their work dirs when freed
        rec.dump(spans_path, _T0, time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
