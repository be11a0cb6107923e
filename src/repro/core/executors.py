"""Pluggable execution engines for design-space sweeps.

:func:`~repro.core.sweep.run_design_sweep` separates *what* a sweep
computes (grid points through the methodology) from *how* the grid is
scheduled.  The "how" is an :class:`Executor`:

* :class:`SerialExecutor` — one process, one shared cache, grid points
  in order (the reference engine, and the default streaming engine of
  :func:`~repro.core.sweep.stream_design_sweep`);
* :class:`MultiprocessExecutor` — shards contiguous runs of grid points
  across a ``concurrent.futures.ProcessPoolExecutor``; each worker
  fills its own :class:`~repro.core.sweep.EvaluationCache`, which is
  merged back into the caller's cache afterwards;
* :class:`AsyncExecutor` — schedules every grid point as an asyncio
  task over a thread pool and streams results back as they complete;
* ``ShardedExecutor`` (:mod:`repro.core.sharding`) — partitions the
  grid into content-addressed shards and runs each through an inner
  engine; the same partitioning drives the cross-host shard → artifact
  → merge flow.

Every engine returns an *identical*
:class:`~repro.core.ranking.DecisionFrame` — the process, sharded and
async engines only repartition or reorder the work — so the columnar
:class:`~repro.core.resultframe.ResultFrame` a sweep report carries
(and its row bridge) is byte-identical whatever engine ran, and engine
choice is a pure scheduling decision:
``repro-gps sweep --engine serial|process|sharded|async
[--jobs N] [--shards K]``, or the ``REPRO_SWEEP_ENGINE`` /
``REPRO_SWEEP_JOBS`` / ``REPRO_SWEEP_SHARDS`` environment variables
for anything that does not thread an executor through explicitly (this
is how CI runs the whole test suite under the process and sharded
engines).

Only the candidate *factory* crosses process boundaries, not the
candidates: workers call it locally, so its closures (flow factories)
never need to pickle — but the factory itself must (use a module-level
function or class such as :class:`repro.gps.study.GpsSweepFactory`).

The full obligations an engine implementation takes on — completeness,
result identity with the serial engine, cache folding, factory
discipline and error transparency — are spelled out on the
:class:`Executor` protocol itself.
"""

from __future__ import annotations

import asyncio
import os
import queue
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from itertools import accumulate
from typing import (
    Callable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
)

from ..errors import SpecificationError
from .figure_of_merit import FomWeights
from .methodology import CandidateBuildUp
from .ranking import DecisionFrame
from .sweep import (
    DesignPoint,
    EvaluationCache,
    evaluate_cell,
    evaluate_cells,
)

#: Environment variable naming the default engine (serial when unset).
ENGINE_ENV = "REPRO_SWEEP_ENGINE"
#: Environment variable giving the default worker count.
JOBS_ENV = "REPRO_SWEEP_JOBS"
#: Environment variable giving the sharded engine's shard count.
SHARDS_ENV = "REPRO_SWEEP_SHARDS"

#: The engine names :func:`make_executor` accepts.
ENGINE_NAMES = ("serial", "process", "sharded", "async")

#: Grid points :meth:`SerialExecutor.iter_cells` evaluates per
#: :func:`~repro.core.sweep.evaluate_cells` call.  Large enough that a
#: block spans many volumes of each family (one batched cost walk
#: serves them all), small enough that a streaming consumer never holds
#: more than one block of results.
STREAM_BLOCK = 256

CandidateFactory = Callable[
    [DesignPoint], Sequence[CandidateBuildUp]
]


class Executor(Protocol):
    """Scheduling strategy of one design-space sweep.

    The protocol contract, in full — every implementation (and any
    third-party engine plugged into
    :func:`~repro.core.sweep.run_design_sweep`) must satisfy all of it:

    * **Completeness and order** — ``run_sweep`` evaluates *every*
      point in ``points`` exactly once and returns one
      :class:`~repro.core.ranking.DecisionFrame` holding every point's
      cell in the input order, at point indices
      ``0 .. len(points) - 1``, regardless of the internal evaluation
      order.
    * **Result identity** — the returned frame must equal what
      :class:`SerialExecutor` produces for the same inputs, float for
      float: every result and ratio column byte-identical.  Engines are
      pure scheduling decisions; they may not change *what* is
      computed (``tests/gps/test_engine_matrix.py`` pins frame/row
      byte identity on the GPS study for every engine × scenario).
    * **Cache folding** — any worker- or batch-local
      :class:`~repro.core.sweep.EvaluationCache` state must be folded
      back into the ``cache`` argument (via
      :meth:`~repro.core.sweep.EvaluationCache.merge` or by seeding)
      before ``run_sweep`` returns, so ``cache.stats()`` always tallies
      the whole sweep.  Hit/miss *counts* may legitimately differ
      between engines (cold worker caches, pre-seeding); cached
      *values* may not.
    * **Factory discipline** — ``candidate_factory`` may be called at
      most once per point per process, from whichever process evaluates
      that point; when the factory declares ``volume_invariant = True``
      (see :func:`~repro.core.sweep.evaluate_cells`) an engine may
      instead call it once per *volume family* and share the result
      across the family's points.  Engines that cross process
      boundaries ship the factory itself (it must pickle), never the
      candidates it returns.
    * **Error transparency** — exceptions raised by the factory or the
      evaluation propagate to the caller; an engine must not swallow a
      failed point and return a partial result.

    An engine may also stream: ``iter_cells`` (same arguments) yields
    decision-frame blocks at canonical point indices as they finish,
    which :func:`~repro.core.sweep.stream_decision_frames` prefers
    over ``run_sweep``.
    """

    name: str

    def run_sweep(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
    ) -> DecisionFrame:
        """Evaluate all grid points; their cells in order, one frame."""
        ...


class SerialExecutor:
    """The reference engine: in-process, in-order, one shared cache."""

    name = "serial"

    def run_sweep(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
    ) -> DecisionFrame:
        return evaluate_cells(
            points, candidate_factory, reference, weights, cache
        )

    def iter_cells(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
    ) -> Iterator[DecisionFrame]:
        """Stream decision-frame blocks in canonical order.

        The streaming surface of
        :func:`~repro.core.sweep.stream_design_sweep` and its
        constant-memory consumers (the chunked frame store's
        :func:`~repro.core.framestore.spill_design_sweep`, the adaptive
        driver): contiguous blocks of :data:`STREAM_BLOCK` points go
        through :func:`~repro.core.sweep.evaluate_cells` — the
        family-batched fill, for a volume-invariant factory — so at
        most one block is held at a time.  Results are bit-identical
        whatever the block boundaries, and the batched fill's
        :meth:`EvaluationCache.count_reuse` discipline keeps the
        per-block cache stats summing to the whole-run tally — so the
        streamed sweep matches :meth:`run_sweep` rows *and* stats
        exactly.
        """
        for start in range(0, len(points), STREAM_BLOCK):
            block = points[start : start + STREAM_BLOCK]
            yield evaluate_cells(
                block, candidate_factory, reference, weights, cache
            ).reindexed(range(start, start + len(block)))


def _split_runs(points: Sequence[DesignPoint], parts: int) -> list[list]:
    """Split points into at most ``parts`` contiguous, near-even runs.

    ``parts`` is clamped down to ``len(points)`` (no empty runs are
    produced), but a non-positive request is a caller bug — silently
    clamping it up would hide a broken worker-count calculation — so it
    raises :class:`ValueError`.

    Raises
    ------
    ValueError
        If ``parts`` is not a positive integer.
    """
    if parts <= 0:
        raise ValueError(
            f"cannot split {len(points)} points into {parts} runs; "
            "parts must be a positive integer"
        )
    parts = max(1, min(parts, len(points)))
    base, extra = divmod(len(points), parts)
    runs = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        runs.append(list(points[start:stop]))
        start = stop
    return runs


def _process_worker(payload):
    """Evaluate one run of grid points in a worker process.

    Returns the run's decision frame (at the run's grid positions from
    ``start``) plus the worker-local cache so the parent can merge
    hit/miss stats and reuse the computed sub-results.
    """
    start, points, candidate_factory, reference, weights = payload
    cache = EvaluationCache()
    dframe = evaluate_cells(
        points, candidate_factory, reference, weights, cache
    )
    return dframe.reindexed(range(start, start + len(points))), cache


class MultiprocessExecutor:
    """Shard contiguous runs of grid points across worker processes.

    Each worker evaluates its run with a fresh cache (memoisation still
    applies *within* a run); the parent merges every worker cache into
    the sweep's cache, so the final stats are the whole-sweep tally.
    The candidate factory must be picklable; results (decision frames
    and cached sub-results) are plain arrays and dataclasses and
    always are.
    """

    name = "process"

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise SpecificationError(
                f"process engine needs at least 1 worker, got {jobs}"
            )
        self.jobs = jobs

    def run_sweep(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
    ) -> DecisionFrame:
        runs = _split_runs(points, self.jobs)
        starts = accumulate((len(run) for run in runs), initial=0)
        payloads = [
            (start, run, candidate_factory, reference, weights)
            for start, run in zip(starts, runs)
        ]
        with ProcessPoolExecutor(max_workers=len(runs)) as pool:
            outcomes = list(pool.map(_process_worker, payloads))
        for _, worker_cache in outcomes:
            cache.merge(worker_cache)
        return DecisionFrame.concat([dframe for dframe, _ in outcomes])


class _SweepAbandoned(Exception):
    """Internal: a queued evaluation noticed its consumer went away."""


class AsyncExecutor:
    """Evaluate independent grid points concurrently with asyncio.

    Grid points are embarrassingly parallel, so the engine schedules
    each one as an asyncio task that runs the evaluation on a thread
    pool (the MNA-heavy part spends its time in LAPACK, which releases
    the GIL) and gathers the results back into canonical order.  Rows
    are identical to the serial engine's: evaluation is deterministic
    per point, so only the shared cache's hit/miss *tally* can vary
    with completion order — two tasks racing on a cold key both
    compute the same value — which the :class:`Executor` contract
    explicitly permits.

    The engine also streams, when passed to
    :func:`~repro.core.sweep.stream_design_sweep`:

    * :meth:`iter_cells` yields one-point
      :class:`~repro.core.ranking.DecisionFrame` blocks at their
      canonical index in *completion* order while the sweep is still
      running;
    * ``progress`` (a ``callback(done, total, dframe)``, ``dframe``
      the finished point's one-point frame) fires after every
      completed point, whichever entry point drove the sweep.
    """

    name = "async"

    def __init__(
        self,
        jobs: Optional[int] = None,
        progress: Optional[
            Callable[[int, int, DecisionFrame], None]
        ] = None,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise SpecificationError(
                f"async engine needs at least 1 concurrent task, "
                f"got {jobs}"
            )
        self.jobs = jobs
        self.progress = progress

    def _evaluate(
        self,
        index: int,
        point: DesignPoint,
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
        cancel: Optional[threading.Event],
    ) -> DecisionFrame:
        if cancel is not None and cancel.is_set():
            raise _SweepAbandoned()
        return evaluate_cell(
            point, candidate_factory(point), reference, weights, cache
        ).reindexed((index,))

    async def _run(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
        emit: Optional[Callable[[DecisionFrame], None]],
        cancel: Optional[threading.Event] = None,
    ) -> list[DecisionFrame]:
        loop = asyncio.get_running_loop()
        frames: list[DecisionFrame] = []
        pool = ThreadPoolExecutor(max_workers=self.jobs)
        try:
            futures = [
                loop.run_in_executor(
                    pool,
                    self._evaluate,
                    index,
                    point,
                    candidate_factory,
                    reference,
                    weights,
                    cache,
                    cancel,
                )
                for index, point in enumerate(points)
            ]
            try:
                for future in asyncio.as_completed(futures):
                    dframe = await future
                    frames.append(dframe)
                    if self.progress is not None:
                        self.progress(len(frames), len(points), dframe)
                    if emit is not None:
                        emit(dframe)
            except BaseException:
                # A failed point must not wait for the whole queue:
                # drop everything not yet started before re-raising
                # (error transparency with a bounded exit).
                for future in futures:
                    future.cancel()
                raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return frames

    def run_sweep(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
    ) -> DecisionFrame:
        return DecisionFrame.concat(
            asyncio.run(
                self._run(
                    points, candidate_factory, reference, weights, cache,
                    None,
                )
            )
        )

    def iter_cells(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
    ) -> Iterator[DecisionFrame]:
        """Yield one-point decision frames in completion order.

        The asyncio loop runs on a helper thread and pushes completed
        points through a queue, so the caller iterates an ordinary
        synchronous generator while evaluation continues in the
        background.  Exceptions from the factory or the evaluation are
        re-raised here; not-yet-started points are dropped first, so
        the exit is bounded by the in-flight points only.  Closing the
        generator early (``break``) likewise abandons the queued
        remainder of the sweep instead of silently finishing it.
        """
        results: queue.SimpleQueue = queue.SimpleQueue()
        abandoned = threading.Event()

        def _drive() -> None:
            try:
                asyncio.run(
                    self._run(
                        points,
                        candidate_factory,
                        reference,
                        weights,
                        cache,
                        lambda dframe: results.put(("cell", dframe)),
                        cancel=abandoned,
                    )
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                results.put(("error", exc))
            else:
                results.put(("done", None))

        thread = threading.Thread(
            target=_drive, name="repro-async-sweep", daemon=True
        )
        thread.start()
        try:
            while True:
                kind, value = results.get()
                if kind == "cell":
                    yield value
                elif kind == "error":
                    raise value
                else:
                    return
        finally:
            abandoned.set()
            thread.join()


def _int_env(name: str) -> Optional[int]:
    """Parse an integer environment variable (None when unset/empty)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SpecificationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def shards_from_env() -> Optional[int]:
    """The ``REPRO_SWEEP_SHARDS`` shard count, ``None`` when unset.

    The CLI uses this to honour the environment default on paths that
    need the *count* itself (cross-host ``--shard-index`` runs), not
    just an engine built from it.
    """
    return _int_env(SHARDS_ENV)


def make_executor(
    name: str,
    jobs: Optional[int] = None,
    shards: Optional[int] = None,
) -> Executor:
    """Build an engine by name (one of :data:`ENGINE_NAMES`).

    ``jobs`` applies to the process engine (worker count) and the
    async engine (concurrent tasks); ``shards`` to the sharded engine
    (partition count).  Both default to the CPU count.
    """
    normalized = (name or "serial").strip().lower()
    if normalized == "serial":
        return SerialExecutor()
    if normalized == "process":
        return MultiprocessExecutor(jobs)
    if normalized == "async":
        return AsyncExecutor(jobs)
    if normalized == "sharded":
        from .sharding import ShardedExecutor  # cycle-free at import

        return ShardedExecutor(shards)
    raise SpecificationError(
        f"unknown sweep engine {name!r} "
        f"(choose from {', '.join(ENGINE_NAMES)})"
    )


def resolve_executor(
    engine: Optional[str] = None,
    jobs: Optional[int] = None,
    shards: Optional[int] = None,
) -> Executor:
    """Merge explicit engine choices with the environment defaults.

    Each argument independently falls back to its environment variable
    when not given (``REPRO_SWEEP_ENGINE`` / ``REPRO_SWEEP_JOBS`` /
    ``REPRO_SWEEP_SHARDS``), so ``--jobs 4`` under an exported
    ``REPRO_SWEEP_ENGINE=process`` runs four process workers, and
    ``--engine process`` alone picks up the environment's worker
    count.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "serial")
    if jobs is None:
        jobs = _int_env(JOBS_ENV)
    if shards is None:
        shards = _int_env(SHARDS_ENV)
    return make_executor(engine, jobs, shards)


def default_executor() -> Executor:
    """The engine named by the environment, serial when unset.

    ``REPRO_SWEEP_ENGINE`` selects the engine, ``REPRO_SWEEP_JOBS``
    the process/async worker count and ``REPRO_SWEEP_SHARDS`` the
    sharded engine's partition count — the hook that lets CI run the
    whole test suite under a non-default engine without touching call
    sites.
    """
    return resolve_executor()
