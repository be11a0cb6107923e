"""Per-layer tracing from outside the program.

The benchmark times calls into each layer's public functions by
wrapping them in place (module attributes and class methods) for the
traced half of a run; ``src/`` carries no instrumentation.  Every call
becomes a span ``(id, parent, name, start, end, self, op, thread)``
kept in memory and written out when the run ends.  A span's self time
is its duration minus the part covered by its child spans on the same
thread; a layer's busy time is the sum of its spans' self times.
Generator functions get one span per resumption, so a consumer's time
blocked in ``next()`` is attributed to the generator that made it wait.

:data:`LAYER_METRICS` is the per-layer metric table: name, unit, which
way is better, and the end-to-end figure (op metric on a workload) the
metric is expected to move.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

#: (metric, unit, better, moves, on) — the layer metric, the op metric
#: it should move and the workload(s) that show it.  ``BENCHMARK.json``
#: lists the same names under ``per_layer``.
LAYER_METRICS: tuple[tuple[str, str, str, str, str], ...] = (
    ("circuits.busy_ms", "ms/pass", "lower",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("circuits.calls", "calls/pass", "lower",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("area.busy_ms", "ms/pass", "lower",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("area.calls", "calls/pass", "lower",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("cost.busy_ms", "ms/pass", "lower",
     "batch_p50_ms, stream_p50_ms, spill_p50_ms",
     "grid-batch, grid-stream"),
    ("cost.walks", "walks/pass", "lower",
     "stream_p50_ms, spill_p50_ms", "grid-stream"),
    ("cost.volumes_per_walk", "volumes/walk", "higher",
     "stream_p50_ms, spill_p50_ms (batch_p50_ms flat)",
     "grid-stream, grid-batch"),
    ("methodology.busy_ms", "ms/pass", "lower",
     "batch_p50_ms, query_warm_p50_ms", "grid-batch, store-query"),
    ("pareto.busy_ms", "ms/pass", "lower",
     "batch_p50_ms, query_warm_p50_ms", "grid-batch, store-query"),
    ("resultframe.busy_ms", "ms/pass", "lower",
     "batch_p50_ms, query_warm_p50_ms", "grid-batch, store-query"),
    ("sweep.busy_ms", "ms/pass", "lower",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("sweep.cache_hit_ratio.performance", "ratio", "higher",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("sweep.cache_hit_ratio.area", "ratio", "higher",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("sweep.cache_hit_ratio.cost", "ratio", "higher",
     "batch_p50_ms, stream_p50_ms", "grid-batch, grid-stream"),
    ("executors.cells_per_call", "cells/call", "higher",
     "stream_p50_ms, spill_p50_ms, adaptive_p50_ms", "grid-stream"),
    ("executors.wait_ms", "ms/pass", "lower",
     "stream_p50_ms, spill_p50_ms, adaptive_p50_ms", "grid-stream"),
    ("adaptive.evaluations", "cells/run", "lower",
     "adaptive_p50_ms", "grid-stream"),
    ("adaptive.passes", "passes/run", "lower",
     "adaptive_p50_ms", "grid-stream"),
    ("adaptive.savings", "points/cell", "higher",
     "adaptive_p50_ms", "grid-stream"),
    ("framestore.busy_ms", "ms/pass", "lower",
     "spill_p50_ms, merge_p50_ms", "grid-stream, store-query"),
    ("framestore.chunks_written", "chunks/pass", "lower",
     "spill_p50_ms, merge_p50_ms", "grid-stream, store-query"),
    ("framestore.bytes_written", "B/pass", "lower",
     "spill_p50_ms, merge_p50_ms", "grid-stream, store-query"),
    ("sharding.read_ms", "ms/pass", "lower",
     "ingest_p50_ms, merge_p50_ms", "store-query"),
    ("sharding.bytes_read", "B/pass", "lower",
     "ingest_p50_ms, merge_p50_ms", "store-query"),
    ("warehouse.write_ms", "ms/pass", "lower",
     "ingest_p50_ms", "store-query"),
    ("warehouse.bytes_written", "B/pass", "lower",
     "ingest_p50_ms", "store-query"),
    ("warehouse.load_ms", "ms/pass", "lower",
     "query_cold_p50_ms", "store-query"),
    ("warehouse.bytes_read", "B/pass", "lower",
     "query_cold_p50_ms", "store-query"),
    ("queryservice.rerank_ms", "ms/pass", "lower",
     "query_warm_p50_ms, query_warm_p90_ms", "store-query"),
    ("queryservice.rerank_hit_ratio", "ratio", "higher",
     "query_warm_p50_ms, query_warm_p90_ms", "store-query"),
    ("queryservice.serialise_ms", "ms/pass", "lower",
     "query_warm_p50_ms, query_warm_p90_ms", "store-query"),
    ("cli.import_ms", "ms", "lower",
     "cli_p50_ms, setup_s", "cli-cold (setup_s: all)"),
    ("cli.run_ms", "ms/op", "lower", "cli_p50_ms", "cli-cold"),
    ("trace.overhead_pct", "%", "lower",
     "pass_ms (traced vs untraced)", "all"),
    ("trace.spans", "spans/pass", "lower",
     "pass_ms (traced vs untraced)", "all"),
)


def _arg(args, kwargs, position: int, name: str):
    """A call argument given positionally or by keyword."""
    return args[position] if len(args) > position else kwargs.get(name)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_cost(tracer, args, kwargs, result) -> None:
    tracer.count("cost.walks")
    tracer.count("cost.volumes", 1)


def _count_cost_batch(tracer, args, kwargs, result) -> None:
    tracer.count("cost.walks")
    tracer.count("cost.volumes", len(_arg(args, kwargs, 1, "volumes")))


def _count_cells(tracer, args, kwargs, result) -> None:
    tracer.count("executors.calls")
    tracer.count("executors.cells", len(result))


def _count_cell(tracer, args, kwargs, result) -> None:
    tracer.count("executors.calls")
    tracer.count("executors.cells")


def _count_adaptive(tracer, args, kwargs, result) -> None:
    tracer.count("adaptive.runs")
    tracer.count("adaptive.evaluations", result.total_evaluations)
    tracer.count("adaptive.passes", len(result.passes))
    tracer.count("adaptive.grid_points", result.grid_points)


def _count_chunks(tracer, args, kwargs, result) -> None:
    directory = result.directory
    tracer.count("framestore.chunks_written", result.chunk_count)
    tracer.count(
        "framestore.bytes_written",
        sum(_file_size(directory / name) for name in os.listdir(directory)),
    )


def _count_shard_read(tracer, args, kwargs, result) -> None:
    tracer.count(
        "sharding.bytes_read", _file_size(_arg(args, kwargs, 0, "path"))
    )


def _count_frame_read(tracer, args, kwargs, result) -> None:
    tracer.count(
        "warehouse.bytes_read", _file_size(_arg(args, kwargs, 0, "path"))
    )


def _count_append(tracer, args, kwargs, result) -> None:
    directory = _arg(args, kwargs, 0, "directory")
    tracer.count(
        "warehouse.bytes_written",
        _file_size(os.path.join(directory, result.frames[-1].file)),
    )


def _count_calls(metric: str):
    def hook(tracer, args, kwargs, result) -> None:
        tracer.count(metric)

    return hook


#: (module, attribute or Class.method, span name, counter hook).  A
#: span's layer is the part of its name before the first dot.
TRACED: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.circuits.performance", "assess_chain",
     "circuits.assess_chain", _count_calls("circuits.calls")),
    ("repro.area.placement", "trivial_placement",
     "area.trivial_placement", _count_calls("area.calls")),
    ("repro.area.placement", "trivial_placement_batch",
     "area.trivial_placement_batch", _count_calls("area.calls")),
    ("repro.cost.moe.analytic", "evaluate", "cost.evaluate", _count_cost),
    ("repro.cost.moe.analytic", "evaluate_batch",
     "cost.evaluate_batch", _count_cost_batch),
    ("repro.core.methodology", "study_from_assessments",
     "methodology.study_from_assessments", None),
    ("repro.core.pareto", "analyze_study", "pareto.analyze_study", None),
    ("repro.core.resultframe", "ResultFrame.pareto_mask",
     "pareto.pareto_mask", None),
    ("repro.core.framestore", "ChunkedFrameStore.pareto_mask",
     "pareto.chunked_pareto_mask", None),
    ("repro.core.adaptive", "global_front_mask",
     "pareto.global_front_mask", None),
    ("repro.core.sweep", "frame_for_cells",
     "resultframe.frame_for_cells", None),
    ("repro.core.resultframe", "ResultFrame.csv_lines",
     "resultframe.csv_lines", None),
    ("repro.core.resultframe", "ResultFrame.to_json_columns",
     "resultframe.to_json_columns", None),
    ("repro.core.sweep", "run_design_sweep", "sweep.run_design_sweep", None),
    ("repro.core.sweep", "stream_design_sweep",
     "sweep.stream_design_sweep", None),
    ("repro.core.sweep", "evaluate_cells", "sweep.evaluate_cells",
     _count_cells),
    ("repro.core.sweep", "evaluate_cell", "sweep.evaluate_cell",
     _count_cell),
    ("repro.core.executors", "SerialExecutor.iter_cells",
     "executors.iter_cells", None),
    ("repro.core.executors", "AsyncExecutor.iter_cells",
     "executors.iter_cells", None),
    ("repro.core.adaptive", "run_adaptive_sweep",
     "adaptive.run_adaptive_sweep", _count_adaptive),
    ("repro.core.framestore", "spill_design_sweep",
     "framestore.spill_design_sweep", None),
    ("repro.core.framestore", "merge_artifacts_to_store",
     "framestore.merge_artifacts_to_store", None),
    ("repro.core.framestore", "ChunkedFrameStore.append",
     "framestore.append", None),
    ("repro.core.framestore", "ChunkedFrameStore.finish",
     "framestore.finish", _count_chunks),
    ("repro.core.framestore", "ChunkedFrameStore.iter_chunks",
     "framestore.iter_chunks", None),
    ("repro.core.framestore", "ChunkedFrameStore.csv_lines",
     "framestore.csv_lines", None),
    ("repro.core.sharding", "read_shard_artifact",
     "sharding.read_shard_artifact", _count_shard_read),
    ("repro.core.warehouse", "append_shard_artifact",
     "warehouse.append_shard_artifact", _count_append),
    ("repro.core.warehouse", "load_warehouse",
     "warehouse.load_warehouse", None),
    ("repro.core.warehouse", "read_warehouse_frame",
     "warehouse.read_warehouse_frame", _count_frame_read),
    ("repro.core.queryservice", "rerank_frame",
     "queryservice.rerank_frame", None),
    ("repro.core.queryservice", "response_bytes",
     "queryservice.response_bytes", None),
)


#: Modules whose bindings of a traced function are swapped: the
#: program's and the benchmark's own call sites.
SCANNED = ("repro", "workloads")


class Tracer:
    """Spans and counters for the traced half of a run.

    :meth:`install` wraps every :data:`TRACED` function wherever the
    loaded ``repro`` modules bind it; :meth:`uninstall` puts the
    originals back.  Spans of concurrent threads (the async executor's
    pool) keep separate stacks and share the current op id.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _begin(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), parent, name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _end(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        span_id, parent, name, start, children = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        self.spans.append(
            (span_id, parent, name, start, end, duration - children,
             self.op_id, threading.get_ident())
        )

    def wrap(self, name: str, function, hook=None):
        """``function`` recording one span per call (per resumption for
        a generator function), then ``hook(tracer, args, kwargs,
        result)``."""
        tracer = self
        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._begin(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._end(frame)
                        yield item
                finally:
                    iterator.close()

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer._begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._end(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, name, hook in TRACED:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self.wrap(name, original, hook))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original, hook)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith(SCANNED):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._restore.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------

    def busy_ms(self, *names: str) -> float:
        """Summed self time, in ms, of the spans whose name is in
        ``names`` or whose layer (the part before the first dot) is."""
        wanted = set(names)
        return 1e3 * sum(
            span[5]
            for span in self.spans
            if span[2] in wanted or span[2].split(".", 1)[0] in wanted
        )

    def write(self, path) -> None:
        """The spans as JSON lines (one object per span)."""
        keys = ("id", "parent", "name", "start", "end", "self", "op",
                "thread")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    passes: int,
    cache_stats: dict,
    rerank_stats: tuple[int, int],
    cli_import_ms: float,
    cli_run_ms: float,
    overhead_pct: float,
) -> dict[str, float]:
    """The :data:`LAYER_METRICS` values of one traced run.

    Busy times, counts and bytes are per pass of the workload's op mix;
    ``cache_stats`` maps each evaluation-cache table to summed
    ``(hits, misses)``; ``rerank_stats`` is the query services'
    ``(hits, misses)`` over the traced window.
    """
    counts = tracer.counts
    per_pass = 1.0 / passes

    def ms(*names: str) -> float:
        return tracer.busy_ms(*names) * per_pass

    def hit_ratio(table: str) -> float:
        hits, misses = cache_stats.get(table, (0, 0))
        return _ratio(hits, hits + misses)

    values = {
        "circuits.busy_ms": ms("circuits"),
        "circuits.calls": counts["circuits.calls"] * per_pass,
        "area.busy_ms": ms("area"),
        "area.calls": counts["area.calls"] * per_pass,
        "cost.busy_ms": ms("cost"),
        "cost.walks": counts["cost.walks"] * per_pass,
        "cost.volumes_per_walk": _ratio(
            counts["cost.volumes"], counts["cost.walks"]
        ),
        "methodology.busy_ms": ms("methodology"),
        "pareto.busy_ms": ms("pareto"),
        "resultframe.busy_ms": ms("resultframe"),
        "sweep.busy_ms": ms("sweep"),
        "sweep.cache_hit_ratio.performance": hit_ratio("performance"),
        "sweep.cache_hit_ratio.area": hit_ratio("area"),
        "sweep.cache_hit_ratio.cost": hit_ratio("cost"),
        "executors.cells_per_call": _ratio(
            counts["executors.cells"], counts["executors.calls"]
        ),
        "executors.wait_ms": ms("executors"),
        "adaptive.evaluations": _ratio(
            counts["adaptive.evaluations"], counts["adaptive.runs"]
        ),
        "adaptive.passes": _ratio(
            counts["adaptive.passes"], counts["adaptive.runs"]
        ),
        "adaptive.savings": _ratio(
            counts["adaptive.grid_points"], counts["adaptive.evaluations"]
        ),
        "framestore.busy_ms": ms("framestore"),
        "framestore.chunks_written": (
            counts["framestore.chunks_written"] * per_pass
        ),
        "framestore.bytes_written": (
            counts["framestore.bytes_written"] * per_pass
        ),
        "sharding.read_ms": ms("sharding"),
        "sharding.bytes_read": counts["sharding.bytes_read"] * per_pass,
        "warehouse.write_ms": ms("warehouse.append_shard_artifact"),
        "warehouse.bytes_written": (
            counts["warehouse.bytes_written"] * per_pass
        ),
        "warehouse.load_ms": ms(
            "warehouse.load_warehouse", "warehouse.read_warehouse_frame"
        ),
        "warehouse.bytes_read": counts["warehouse.bytes_read"] * per_pass,
        "queryservice.rerank_ms": ms("queryservice.rerank_frame"),
        "queryservice.rerank_hit_ratio": _ratio(
            rerank_stats[0], rerank_stats[0] + rerank_stats[1]
        ),
        "queryservice.serialise_ms": ms("queryservice.response_bytes"),
        "cli.import_ms": cli_import_ms,
        "cli.run_ms": cli_run_ms,
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(tracer.spans) * per_pass,
    }
    assert set(values) == {row[0] for row in LAYER_METRICS}
    return values
