"""The sweep execution engine.

:func:`~repro.core.sweep.run_design_sweep` separates *what* a sweep
computes (grid points through the methodology) from *how* the grid is
scheduled.  The "how" is an :class:`Executor`, and every production
path runs :class:`SerialExecutor`: one process, one shared cache, grid
points in order through the family-batched fill
(:func:`~repro.core.sweep.evaluate_cells`), streamed in
:data:`STREAM_BLOCK`-point blocks by
:func:`~repro.core.sweep.stream_design_sweep`.  Cross-host scale-out
partitions the grid *outside* the engine: each shard run
(:mod:`repro.core.sharding`, the queue workers of
:mod:`repro.core.queue`) evaluates its points through the serial
engine.

The ``executor=`` parameter of the sweep entry points is the seam for
substituting another scheduling strategy.
:class:`AsyncExecutor` is one, kept as a library class: it schedules
every grid point as an asyncio task over a thread pool and streams
results back in completion order.  It is slower than the serial
engine on every measured grid, so no flag or environment variable
selects it.

The full obligations an engine implementation takes on — completeness,
result identity with the serial engine, cache folding, factory
discipline and error transparency — are spelled out on the
:class:`Executor` protocol itself.
"""

from __future__ import annotations

import os
import threading
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
    * **Cache folding** — any batch-local
      :class:`~repro.core.sweep.EvaluationCache` state must be folded
      back into the ``cache`` argument before ``run_sweep`` returns,
      so ``cache.stats()`` always tallies the whole sweep.  Hit/miss
      *counts* may legitimately differ between engines (completion
      order, pre-seeding); cached *values* may not.
    * **Factory discipline** — ``candidate_factory`` may be called at
      most once per point; when the factory declares
      ``volume_invariant = True`` (see
      :func:`~repro.core.sweep.evaluate_cells`) an engine may instead
      call it once per *volume family* and share the result across
      the family's points.
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
    """The one production engine: in-process, in-order, one shared cache."""

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

    ``asyncio`` and the thread pool are imported by the methods that
    run them, so importing this module (every sweep does) never loads
    them.
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
