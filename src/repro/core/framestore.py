"""Out-of-core sweep results: a spill directory is a warehouse.

:class:`~repro.core.resultframe.ResultFrame` is columnar but fully
RAM-resident — fine up to ~1M rows, memory-bound long before it is
compute-bound beyond that.  This module is the spill tier: sweep
results stream through a bounded in-memory buffer into the one on-disk
frame container, a :mod:`repro.core.warehouse` directory
(``warehouse.json`` plus content-addressed ``frame-<digest>.json``
:class:`~repro.core.ranking.DecisionFrame` blobs), and every downstream
operation — merge, CSV export, Pareto ranking — walks the frames one at
a time instead of materialising the whole result.  ``repro-gps
warehouse query DIR`` answers a spill directory like any warehouse.

Design rules:

* **Byte identity.**  The in-RAM path stays the reference: a store's
  frames concatenated (:meth:`ChunkedFrameStore.to_frame`), its
  streamed CSV (:meth:`ChunkedFrameStore.csv_lines`) and its chunked
  Pareto mask (:func:`chunked_nondominated_mask`) are bit-identical to
  the equivalent single-frame operations, for every row budget.
* **Whole cells.**  The writer cuts a frame at the first grid-point
  boundary at or past ``max_rows_in_memory`` buffered rows, so a
  frame's layout depends only on the row stream and the budget, and a
  frame overshoots the budget by less than one point's rows.
* **Atomic publication** (:mod:`repro.core.blobstore`).  Frames land
  before the manifest that lists them, which is published twice, as
  an ingest publishes it once: empty by :meth:`ChunkedFrameStore.
  create`, then with every frame and the ``meta`` by
  :meth:`ChunkedFrameStore.finish`.  A writer killed at any instant
  leaves the empty manifest (and orphan frames), which ``--spill-dir``
  reuse refuses as incomplete; republishing a growing manifest after
  each frame would cost O(frames²) bytes.
* **Bounded memory.**  The writer buffers fewer than
  ``max_rows_in_memory`` rows beyond the frame it is cutting; the
  streaming merge (:func:`merge_artifacts_to_store`) appends the
  in-RAM merge's ordered pass
  (:func:`~repro.core.sharding.frames_in_point_order`, under the same
  :class:`~repro.core.sharding.ShardCover`, or the gather's for
  ``gather --max-rows-in-memory``), holding one source artifact plus
  the buffer; the chunked Pareto kernel holds one frame plus the
  carried front (which is the answer itself, so it must fit).

CLI surface: ``repro-gps sweep/gather --max-rows-in-memory N`` (or
``$REPRO_SWEEP_MAX_ROWS``) with ``--spill-dir`` choosing where frames
land; see ``docs/sweep-guide.md``, "Sweeping beyond RAM".
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

import numpy as np

from ..errors import SpecificationError
from .figure_of_merit import FomWeights
from .grid import GridIdentity
from .pareto import dominated_by
from .ranking import DecisionFrame
from .resultframe import ResultFrame
from .sharding import (
    MERGE_COVER,
    ArtifactLike,
    ShardCover,
    frames_in_point_order,
    merge_cache_states,
)
from .warehouse import (
    WarehouseError,
    WarehouseManifest,
    append_frame,
    holds_manifest,
    is_count,
    manifest_path,
    publish_manifest,
    read_frame_entry,
    read_warehouse_manifest,
)

if TYPE_CHECKING:
    from .grid import DesignPoint, SweepGrid
    from .sweep import CandidateFactory, EvaluationCache


def _points_between(
    dframe: DecisionFrame, ends: np.ndarray, start: int, stop: int
) -> DecisionFrame:
    """Points ``start`` to ``stop`` of ``dframe`` (whose cumulative row
    ends are ``ends``) as a frame of views: no row is copied."""
    if (start, stop) == (0, len(ends)):
        return dframe
    first = int(ends[start - 1]) if start else 0
    last = int(ends[stop - 1])
    return DecisionFrame.adopt(
        dframe.frame.rows_between(first, last),
        dframe.size_ratio[first:last],
        dframe.cost_ratio[first:last],
        dframe.indices[start:stop],
        dframe.row_counts[start:stop],
    )


class ChunkedFrameStore:
    """A warehouse written through a bounded buffer and read frame by
    frame.

    Write side: :meth:`create` an empty warehouse for a grid,
    :meth:`append` decision frames in canonical point order (a frame
    file is flushed whenever the buffer reaches ``max_rows_in_memory``
    rows, cut at a point boundary), :meth:`finish` to flush the
    remainder and publish the final manifest with its ``meta``.  Read
    side: :meth:`open` a directory and stream :meth:`iter_chunks` /
    :meth:`csv_lines` / :meth:`pareto_mask`, or bridge back to RAM with
    :meth:`to_frame` (the bit-identity reference).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        manifest: WarehouseManifest,
        max_rows_in_memory: Optional[int] = None,
    ) -> None:
        self._directory = Path(directory)
        self._manifest = manifest
        self._max_rows = max_rows_in_memory
        #: Buffered frames with their cumulative row ends; the first
        #: ``_head`` points of the first one are already published.
        self._buffer: list[tuple[DecisionFrame, np.ndarray]] = []
        self._head = 0
        self._buffered_rows = 0
        self._finished = max_rows_in_memory is None

    # -- construction -------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        grid: GridIdentity,
        *,
        max_rows_in_memory: int,
        meta: Optional[dict] = None,
    ) -> "ChunkedFrameStore":
        """Initialise an empty warehouse for ``grid`` (revision 1).

        Refuses a directory that already holds a manifest or stray
        frame files: silently adopting or shadowing them would turn a
        crashed previous run into wrong rows.
        """
        directory = Path(directory)
        if not is_count(max_rows_in_memory, 1):
            raise WarehouseError(
                f"max_rows_in_memory must be a positive integer, got "
                f"{max_rows_in_memory!r}"
            )
        if holds_manifest(directory):
            raise WarehouseError(
                f"frame store already exists in {directory}; open() it "
                f"or spill into a fresh directory"
            )
        if directory.is_dir():
            stray = sorted(directory.glob("frame-*.json"))
            if stray:
                raise WarehouseError(
                    f"directory {directory} holds {len(stray)} frame "
                    f"file(s) but no manifest (crashed writer?); remove "
                    f"them or spill into a fresh directory"
                )
        manifest = WarehouseManifest(
            **grid.payload(), revision=1, meta=dict(meta or {})
        )
        publish_manifest(directory, manifest)
        return cls(directory, manifest, max_rows_in_memory)

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "ChunkedFrameStore":
        """Load an existing warehouse's manifest (frames stay on disk)."""
        return cls(directory, read_warehouse_manifest(directory))

    # -- basic protocol ----------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def manifest(self) -> WarehouseManifest:
        """The manifest as last published (or about to be)."""
        return self._manifest

    @property
    def complete(self) -> bool:
        """True when the frames cover every point of the grid."""
        return self._manifest.complete

    @property
    def meta(self) -> dict:
        """The manifest's free-form metadata (a copy)."""
        return dict(self._manifest.meta)

    @property
    def chunk_count(self) -> int:
        """How many frame files the manifest lists."""
        return len(self._manifest.frames)

    @property
    def total_rows(self) -> int:
        """Rows published to frames plus rows still buffered."""
        return (
            sum(entry.rows for entry in self._manifest.frames)
            + self._buffered_rows
        )

    # -- write side ---------------------------------------------------

    def _cut(self) -> DecisionFrame:
        """Pop whole points off the buffer until they hold at least the
        budget's rows (or the buffer is empty).

        Each buffered frame is consumed through ``_head`` and its
        cumulative row ends, so each buffered row is copied at most
        once however many frames it is cut into.
        """
        need, pieces = self._max_rows, []
        while need > 0 and self._buffer:
            dframe, ends = self._buffer[0]
            first = int(ends[self._head - 1]) if self._head else 0
            stop = min(
                int(np.searchsorted(ends, first + need)) + 1, len(ends)
            )
            pieces.append(_points_between(dframe, ends, self._head, stop))
            need -= int(ends[stop - 1]) - first
            if stop == len(ends):
                self._buffer.pop(0)
                self._head = 0
            else:
                self._head = stop
        frame = DecisionFrame.concat(pieces)
        self._buffered_rows -= len(frame)
        return frame

    def _flush(self, final: bool = False) -> None:
        """Publish frame files while the buffer holds the budget's rows
        (all of it when ``final``); :meth:`finish` lists them."""
        while self._buffer and (
            final or self._buffered_rows >= self._max_rows
        ):
            self._manifest = append_frame(
                self._directory, self._manifest, self._cut()
            )

    def append(self, dframe: DecisionFrame) -> None:
        """Buffer a decision frame in canonical point order, spilling
        full frames; frame boundaries depend on the point stream and
        the budget alone, never on the append granularity."""
        if self._finished:
            raise WarehouseError(
                f"frame store at {self._directory} is complete; "
                f"appending would corrupt published results"
            )
        if not dframe.indices:
            return
        ends = np.cumsum(np.asarray(dframe.row_counts, dtype=np.int64))
        self._buffer.append((dframe, ends))
        self._buffered_rows += len(dframe)
        self._flush()

    def finish(self, meta: Optional[dict] = None) -> "ChunkedFrameStore":
        """Flush the remainder and publish the final manifest."""
        if self._finished:
            raise WarehouseError(
                f"frame store at {self._directory} is already complete"
            )
        self._flush(final=True)
        self._manifest = dataclasses.replace(
            self._manifest,
            revision=self._manifest.revision + 1,
            meta={**self._manifest.meta, **(meta or {})},
        )
        publish_manifest(self._directory, self._manifest)
        self._finished = True
        return self

    def discard(self) -> None:
        """Remove what this store published (an abandoned write)."""
        for entry in self._manifest.frames:
            (self._directory / entry.file).unlink(missing_ok=True)
        manifest_path(self._directory).unlink(missing_ok=True)

    # -- read side ----------------------------------------------------

    def iter_chunks(self) -> Iterator[DecisionFrame]:
        """The frames in manifest order, each checked against its entry
        (:func:`~repro.core.warehouse.read_frame_entry`), one at a
        time."""
        if self._buffered_rows:
            raise WarehouseError(
                f"frame store at {self._directory} still buffers "
                f"{self._buffered_rows} unflushed row(s); call "
                f"finish() before reading"
            )
        for entry in self._manifest.frames:
            yield read_frame_entry(self._directory, entry)

    def to_frame(self) -> ResultFrame:
        """The whole store as one in-RAM frame (the identity bridge).

        Materialises every row — use only when the result is known to
        fit; the streaming surfaces (:meth:`csv_lines`,
        :meth:`pareto_mask`) exist so nothing else has to.
        """
        return ResultFrame.concat(
            [chunk.frame for chunk in self.iter_chunks()]
        )

    def csv_lines(self) -> Iterator[str]:
        """One CSV line per row, streamed frame by frame.

        Byte-identical to :meth:`ResultFrame.csv_lines` over
        :meth:`to_frame`: CSV rendering is row-local.
        """
        for chunk in self.iter_chunks():
            yield from chunk.frame.csv_lines()

    def pareto_mask(self) -> np.ndarray:
        """Global Pareto mask over all rows, computed frame-at-a-time.

        Byte-identical to :meth:`ResultFrame.pareto_mask` over
        :meth:`to_frame` (see :func:`chunked_nondominated_mask`), while
        holding only one frame plus the carried front in memory.
        """
        return chunked_nondominated_mask(
            (
                chunk.frame.column("performance"),
                chunk.frame.column("area_percent"),
                chunk.frame.column("cost_percent"),
            )
            for chunk in self.iter_chunks()
        )


# -- chunked Pareto ---------------------------------------------------


def chunked_nondominated_mask(blocks) -> np.ndarray:
    """Global non-dominated mask over blocks of objective arrays.

    ``blocks`` yields ``(performance, size, cost)`` triples (performance
    maximised, size and cost minimised — the
    :func:`~repro.core.pareto.nondominated_mask` orientation); the
    concatenated result is bit-identical to running the in-RAM kernel
    over the concatenated arrays, while only one block plus the carried
    front is ever resident.

    The algorithm carries the exact Pareto front of everything seen so
    far and, per block, ranks the carried front and the block together
    with :func:`~repro.core.pareto.dominated_by` — exact, because
    strict dominance is transitive: a block point dominated by an
    earlier, already-dropped point is also dominated by that point's
    maximal dominator, which by the invariant sits on the carried
    front.  Front members a block point dominates are retired (their
    already-emitted mask bit is rewritten to False) and the front
    becomes the combined survivors.  Duplicates across blocks both
    survive and NaN rows survive, exactly as in-RAM.
    """
    masks: list[np.ndarray] = []
    front = np.empty((0, 3), dtype=np.float64)
    front_pos: list[tuple[int, int]] = []
    for block_no, (performance, size, cost) in enumerate(blocks):
        perf = np.asarray(performance, dtype=np.float64)
        size = np.asarray(size, dtype=np.float64)
        cost = np.asarray(cost, dtype=np.float64)
        if (
            not (perf.shape == size.shape == cost.shape)
            or perf.ndim != 1
        ):
            raise SpecificationError(
                "dominance needs three equally-long 1-D objective "
                f"arrays, got shapes {perf.shape}, {size.shape}, "
                f"{cost.shape}"
            )
        combined = np.concatenate(
            [front, np.column_stack([-perf, size, cost])]
        )
        keep = ~dominated_by(combined, combined)
        alive = keep[: front.shape[0]]
        mask = keep[front.shape[0]:]
        for position in np.flatnonzero(~alive):
            owner, row = front_pos[position]
            masks[owner][row] = False
        masks.append(mask)
        front = combined[keep]
        front_pos = [
            pos for pos, ok in zip(front_pos, alive) if ok
        ] + [(block_no, int(row)) for row in np.flatnonzero(mask)]
    if not masks:
        return np.zeros(0, dtype=bool)
    return np.concatenate(masks)


# -- streaming merge of shard artifacts -------------------------------


def merge_artifacts_to_store(
    artifacts: Iterable[ArtifactLike],
    directory: Union[str, Path],
    max_rows_in_memory: int,
    meta: Optional[dict] = None,
    cover: Optional[ShardCover] = None,
) -> ChunkedFrameStore:
    """Spill-to-disk merge: shard artifacts to a warehouse directory.

    The out-of-core twin of
    :func:`~repro.core.sharding.merge_shard_artifacts`: the same pass
    (:func:`~repro.core.sharding.frames_in_point_order`) under the same
    :class:`~repro.core.sharding.ShardCover` (a
    :data:`~repro.core.sharding.MERGE_COVER` one by default; the gather
    passes its own), so the same refusals and a row stream
    byte-identical to the in-RAM merge's frame.  The store is created
    once the first artifact names the grid.  Memory holds one source
    artifact's frame (plus the indices of any parked early) and the
    buffer; a refused merge removes what it wrote, leaving
    ``directory`` as it was found.
    """
    if cover is None:
        cover = ShardCover(MERGE_COVER)
    directory = Path(directory)
    made = [d for d in (directory, *directory.parents) if not d.exists()]
    store = None
    states = []
    try:
        for dframe, state in frames_in_point_order(artifacts, cover):
            if store is None:
                store = ChunkedFrameStore.create(
                    directory,
                    cover.grid,
                    max_rows_in_memory=max_rows_in_memory,
                    meta=meta,
                )
            store.append(dframe)
            states.append(state)
    except BaseException:
        if store is not None:
            store.discard()
        for path in made:  # deepest first
            with contextlib.suppress(OSError):  # someone else's files
                path.rmdir()
        raise
    return store.finish(meta={"cache_stats": merge_cache_states(states)})


# -- streaming sweep to a store ---------------------------------------


def spill_design_sweep(
    grid: Union[SweepGrid, Iterable[DesignPoint]],
    candidate_factory: CandidateFactory,
    directory: Union[str, Path],
    max_rows_in_memory: int,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    meta: Optional[dict] = None,
) -> ChunkedFrameStore:
    """Run a design sweep, spilling completed points to a warehouse.

    The out-of-core surface of
    :func:`~repro.core.sweep.run_design_sweep`: the row stream (and
    hence the store's CSV and Pareto mask) is byte-identical to the
    in-RAM report's frame, with fewer than ``max_rows_in_memory`` rows
    buffered beyond the frame being cut and the block being evaluated.
    Blocks stream out of
    :func:`~repro.core.sweep.stream_decision_frames` in canonical
    order and are appended whole: the store cuts frames by its row
    budget and point boundaries alone, so block boundaries never show
    in the frames.  The finished manifest's ``meta`` carries the
    sweep's ``cache_stats``.
    """
    from .sweep import resolve_sweep, stream_decision_frames  # the engine

    grid, weights, cache = resolve_sweep(grid, weights, cache)
    store = ChunkedFrameStore.create(
        directory,
        GridIdentity.of(grid),
        max_rows_in_memory=max_rows_in_memory,
        meta=meta,
    )
    for block in stream_decision_frames(
        grid, candidate_factory, reference, weights, cache
    ):
        store.append(block)
    return store.finish(meta={"cache_stats": cache.stats()})
