"""The sweep execution engine.

Every sweep runs one engine, :class:`SerialExecutor`: one process, one
shared cache, grid points in order through the family-batched fill
(:func:`~repro.core.sweep.evaluate_cells`), streamed in
:data:`STREAM_BLOCK`-point blocks.
:func:`~repro.core.sweep.run_design_sweep` calls the fill directly;
:func:`~repro.core.sweep.stream_decision_frames` and everything built
on it (streaming, spilling, the adaptive driver, the warehouse build)
stream through :meth:`SerialExecutor.iter_cells`.  There is no engine
parameter: cross-host scale-out partitions the grid *outside* the
engine — each shard run (:mod:`repro.core.sharding`, the queue workers
of :mod:`repro.core.queue`) evaluates its points through the same
fill.

:class:`AsyncExecutor` is a standalone library class that no sweep
entry point accepts: it schedules every grid point as an asyncio task
over a thread pool and yields results in completion order.  It is
slower than the serial engine on every measured grid and stays only
until the benchmark stops tracing it by name.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterator, Optional, Sequence

from ..errors import SpecificationError
from .figure_of_merit import FomWeights
from .grid import DesignPoint
from .ranking import DecisionFrame
from .sweep import (
    CandidateFactory,
    EvaluationCache,
    evaluate_cell,
    evaluate_cells,
)

#: Grid points :meth:`SerialExecutor.iter_cells` evaluates per
#: :func:`~repro.core.sweep.evaluate_cells` call.  Large enough that a
#: block spans many volumes of each family (one batched cost walk
#: serves them all), small enough that a streaming consumer never holds
#: more than one block of results.
STREAM_BLOCK = 256


class SerialExecutor:
    """The one sweep engine's streaming surface: in-process, in-order,
    one shared cache."""

    def iter_cells(
        self,
        points: Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
        indices: Optional[Sequence[int]] = None,
    ) -> Iterator[DecisionFrame]:
        """Stream decision-frame blocks in canonical order.

        The streaming surface of
        :func:`~repro.core.sweep.stream_decision_frames` and its
        constant-memory consumers (the chunked frame store's
        :func:`~repro.core.framestore.spill_design_sweep`, the adaptive
        driver): contiguous blocks of :data:`STREAM_BLOCK` points go
        through :func:`~repro.core.sweep.evaluate_cells` — the
        family-batched fill, for a volume-invariant factory — so at
        most one block is held at a time.  Point ``p`` lands at point
        index ``indices[p]`` (``p`` when omitted); each block is built
        at its final indices.  Results are bit-identical
        whatever the block boundaries, and the batched fill's
        :meth:`EvaluationCache.count_reuse` discipline keeps the
        per-block cache stats summing to the whole-run tally — so the
        streamed sweep matches
        :func:`~repro.core.sweep.run_design_sweep` rows *and* stats
        exactly.
        """
        if indices is None:
            indices = range(len(points))
        for start in range(0, len(points), STREAM_BLOCK):
            stop = start + STREAM_BLOCK
            yield evaluate_cells(
                points[start:stop],
                candidate_factory,
                reference,
                weights,
                cache,
                indices[start:stop],
            )


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
    compute the same value.

    * :meth:`run_sweep` returns every point's cell in input order, one
      :class:`~repro.core.ranking.DecisionFrame`;
    * :meth:`iter_cells` yields one-point frames at their canonical
      index in *completion* order while the sweep is still running;
    * ``progress`` (a ``callback(done, total, dframe)``, ``dframe``
      the finished point's one-point frame) fires after every
      completed point, through either method.

    ``asyncio`` and the thread pool are imported by the methods that
    run them, so importing this module (every streaming sweep does)
    never loads them.
    """

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
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

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
        import asyncio

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
        import asyncio
        import queue

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
