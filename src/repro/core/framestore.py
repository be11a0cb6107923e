"""Out-of-core sweep results: the chunked frame store tier.

:class:`~repro.core.resultframe.ResultFrame` is columnar but fully
RAM-resident — fine up to ~1M rows, memory-bound long before it is
compute-bound beyond that.  This module adds the spill tier the
ROADMAP names ("Out-of-core + adaptive sweeps: beyond 1M rows"): sweep
results stream through a bounded in-memory buffer into
content-addressed chunk files, and every downstream operation — merge,
CSV export, Pareto ranking — walks the chunks one at a time instead of
materialising the whole frame.

Design rules, all inherited from the existing tiers:

* **Byte identity.**  The in-RAM path stays the reference: a store's
  chunks concatenated (:meth:`ChunkedFrameStore.to_frame`), its
  streamed CSV (:meth:`ChunkedFrameStore.csv_lines`) and its chunked
  Pareto mask (:func:`chunked_nondominated_mask`) are bit-identical to
  the equivalent single-frame operations, for every chunk size.  The
  differential suite in ``tests/core/test_framestore.py`` locks this
  under hypothesis.
* **Atomic publication and content addressing**
  (:mod:`repro.core.blobstore`).  Chunks are
  :func:`~repro.core.blobstore.put_blob` blobs whose file names carry
  their content digest, and the store manifest is republished with
  :func:`~repro.core.blobstore.write_json` *after* each chunk lands —
  so a writer killed at any instant leaves a directory whose manifest
  references only complete chunks: absent-or-previous, never torn.
  Chunks are read back with :func:`~repro.core.blobstore.get_blob`,
  which checks the digest by hashing the chunk's raw bytes (its
  canonical JSON) before parsing: a truncated, foreign, mispaired or
  out-of-directory chunk is a loud :class:`FrameStoreError` (exit 2
  from the CLI).  A chunk's numeric columns are packed
  (:meth:`~repro.core.resultframe.ResultFrame.to_stored_columns`).
* **Bounded memory.**  The writer never buffers more than
  ``max_rows_in_memory`` rows; the streaming merge
  (:func:`merge_artifacts_to_store`) appends the in-RAM merge's
  ordered pass (:func:`~repro.core.sharding.frames_in_point_order`,
  under the same :class:`~repro.core.sharding.ShardCover`, or the
  gather's for ``gather --max-rows-in-memory``), holding one source
  artifact plus the buffer; the chunked Pareto kernel holds one block
  plus the carried front (which is the answer itself, so it must fit).

CLI surface: ``repro-gps sweep/gather --max-rows-in-memory N`` (or
``$REPRO_SWEEP_MAX_ROWS``) with ``--spill-dir`` choosing where chunks
land; see ``docs/sweep-guide.md``, "Sweeping beyond RAM".
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..errors import SpecificationError
from . import blobstore
from .figure_of_merit import FomWeights
from .pareto import dominated_by
from .resultframe import ResultFrame
from .sharding import (
    MERGE_COVER,
    ArtifactLike,
    GridIdentity,
    ShardCover,
    frames_in_point_order,
    merge_cache_states,
)
from .sweep import (
    CandidateFactory,
    DesignPoint,
    EvaluationCache,
    SweepGrid,
    resolve_sweep,
    stream_decision_frames,
)

#: Store manifest format identifier; bumped on incompatible changes
#: (version 2: chunks whose numeric columns are packed).
STORE_FORMAT = "repro-framestore/2"

#: Chunk file format identifier.
CHUNK_FORMAT = "repro-framestore-chunk/2"

#: How a refusal of an older release's store ends.
RESPILL_STORE = "remove the directory and re-run the sweep to spill it again"

#: The manifest filename inside a frame store directory.
MANIFEST_NAME = "framestore.json"


class FrameStoreError(SpecificationError):
    """A chunked frame store cannot be (safely) read or written."""


def chunk_filename(sequence: int, digest: str) -> str:
    """Canonical content-addressed chunk filename."""
    return f"chunk-{sequence:06d}-{digest}.json"


@dataclass(frozen=True)
class ChunkEntry:
    """One chunk file as the store manifest records it."""

    file: str
    digest: str
    rows: int

    def __post_init__(self) -> None:
        blobstore.check_blob_name(self.file, FrameStoreError, "frame chunk")


def _require_positive_rows(max_rows_in_memory) -> int:
    if (
        not isinstance(max_rows_in_memory, int)
        or isinstance(max_rows_in_memory, bool)
        or max_rows_in_memory < 1
    ):
        raise FrameStoreError(
            f"max_rows_in_memory must be a positive integer, got "
            f"{max_rows_in_memory!r}"
        )
    return max_rows_in_memory


class ChunkedFrameStore:
    """Sweep rows spilled to disk in bounded, content-addressed chunks.

    Write side: :meth:`create` an empty store, :meth:`append` frames in
    canonical row order (the writer flushes a chunk file every
    ``max_rows_in_memory`` rows — chunk boundaries depend only on the
    budget, never on append granularity), :meth:`finish` to flush the
    remainder and mark the store complete.  Read side: :meth:`open` an
    existing directory and stream :meth:`iter_chunks` /
    :meth:`csv_lines` / :meth:`pareto_mask`, or bridge back to RAM with
    :meth:`to_frame` (the bit-identity reference).

    Durability is :mod:`repro.core.blobstore`'s: every chunk file is
    atomically published *before* the manifest that references it, so a
    writer killed mid-chunk leaves the previous manifest intact —
    readers observe absent-or-previous, never a torn store.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        max_rows_in_memory: int,
        entries: Sequence[ChunkEntry],
        complete: bool,
        meta: dict,
        revision: int,
    ) -> None:
        self._directory = Path(directory)
        self._max_rows = _require_positive_rows(max_rows_in_memory)
        self._entries: list[ChunkEntry] = list(entries)
        self._complete = bool(complete)
        self._meta = dict(meta)
        self._revision = int(revision)
        self._buffer: list[ResultFrame] = []
        #: Rows of ``_buffer[0]`` already flushed into chunks.
        self._head = 0
        self._buffered_rows = 0

    # -- construction -------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        *,
        max_rows_in_memory: int,
        meta: Optional[dict] = None,
    ) -> "ChunkedFrameStore":
        """Initialise an empty store (revision 1, no chunks).

        Refuses a directory that already holds a store manifest or
        stray chunk files: silently adopting or shadowing them would
        turn a crashed previous run into wrong rows.
        """
        directory = Path(directory)
        _require_positive_rows(max_rows_in_memory)
        manifest = directory / MANIFEST_NAME
        if manifest.exists():
            raise FrameStoreError(
                f"frame store already exists at {manifest}; open() it "
                f"or spill into a fresh directory"
            )
        if directory.is_dir():
            stray = sorted(directory.glob("chunk-*.json"))
            if stray:
                raise FrameStoreError(
                    f"directory {directory} holds {len(stray)} chunk "
                    f"file(s) but no store manifest (crashed writer?); "
                    f"remove them or spill into a fresh directory"
                )
        store = cls(
            directory,
            max_rows_in_memory=max_rows_in_memory,
            entries=(),
            complete=False,
            meta=meta or {},
            revision=0,
        )
        store._publish()
        return store

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "ChunkedFrameStore":
        """Load an existing store's manifest (chunks stay on disk)."""
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        payload = blobstore.read_json(
            path,
            FrameStoreError,
            "frame store",
            format=STORE_FORMAT,
            remedy=RESPILL_STORE,
        )
        try:
            entries = [
                ChunkEntry(
                    file=str(chunk["file"]),
                    digest=str(chunk["digest"]),
                    rows=int(chunk["rows"]),
                )
                for chunk in payload["chunks"]
            ]
            store = cls(
                directory,
                max_rows_in_memory=payload["max_rows_in_memory"],
                entries=entries,
                complete=payload["complete"],
                meta=payload.get("meta", {}),
                revision=payload["revision"],
            )
        except (KeyError, TypeError, ValueError, SpecificationError) as exc:
            raise FrameStoreError(
                f"{path}: malformed frame store manifest ({exc})"
            ) from None
        declared_rows = payload.get("total_rows")
        if declared_rows != store.total_rows:
            raise FrameStoreError(
                f"{path}: manifest total_rows {declared_rows!r} does "
                f"not match the {store.total_rows} chunk rows it lists"
            )
        return store

    # -- basic protocol ----------------------------------------------

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def complete(self) -> bool:
        """True once :meth:`finish` published the final manifest."""
        return self._complete

    @property
    def meta(self) -> dict:
        """The manifest's free-form metadata (a copy)."""
        return dict(self._meta)

    @property
    def chunk_count(self) -> int:
        return len(self._entries)

    @property
    def total_rows(self) -> int:
        """Rows published to chunks plus rows still buffered."""
        return (
            sum(entry.rows for entry in self._entries)
            + self._buffered_rows
        )

    def __len__(self) -> int:
        return self.total_rows

    def __repr__(self) -> str:
        state = "complete" if self._complete else "writing"
        return (
            f"ChunkedFrameStore({self.total_rows} rows in "
            f"{len(self._entries)} chunks, {state})"
        )

    # -- write side ---------------------------------------------------

    def _manifest_payload(self) -> dict:
        return {
            "format": STORE_FORMAT,
            "max_rows_in_memory": self._max_rows,
            "revision": self._revision,
            "complete": self._complete,
            "total_rows": sum(entry.rows for entry in self._entries),
            "meta": self._meta,
            "chunks": [
                {
                    "file": entry.file,
                    "digest": entry.digest,
                    "rows": entry.rows,
                }
                for entry in self._entries
            ],
        }

    def _publish(self) -> None:
        self._revision += 1
        blobstore.write_json(
            self._directory / MANIFEST_NAME, self._manifest_payload()
        )

    def _take_buffered(self, count: int) -> ResultFrame:
        """Pop exactly ``count`` rows off the head of the buffer.

        The head frame is consumed through an offset, so each buffered
        row is copied once however many chunks it is cut into.
        """
        taken: list[ResultFrame] = []
        need = count
        while need > 0:
            frame, start = self._buffer[0], self._head
            stop = min(len(frame), start + need)
            taken.append(
                frame
                if (start, stop) == (0, len(frame))
                else frame.take(np.arange(start, stop))
            )
            need -= stop - start
            if stop == len(frame):
                self._buffer.pop(0)
                self._head = 0
            else:
                self._head = stop
        self._buffered_rows -= count
        return ResultFrame.concat(taken)

    def _flush_chunk(self, rows: int) -> None:
        chunk = self._take_buffered(rows)
        payload = {
            "format": CHUNK_FORMAT,
            "sequence": len(self._entries),
            "rows": len(chunk),
            "columns": chunk.to_stored_columns(),
        }
        # The chunk file lands (atomically) before the manifest that
        # references it: a crash between the two leaves an orphan chunk
        # file and the previous manifest — never a dangling reference.
        name, digest = blobstore.put_blob(
            self._directory,
            lambda digest: chunk_filename(len(self._entries), digest),
            payload,
        )
        self._entries.append(
            ChunkEntry(file=name, digest=digest, rows=len(chunk))
        )
        self._publish()

    def append(self, frame: ResultFrame) -> None:
        """Buffer rows in canonical order, spilling full chunks.

        Every chunk except the last holds exactly
        ``max_rows_in_memory`` rows, whatever granularity the frames
        arrive in — so the chunk layout (and hence every chunk digest)
        is a pure function of the row stream and the budget.
        """
        if self._complete:
            raise FrameStoreError(
                f"frame store at {self._directory} is complete; "
                f"appending would corrupt published results"
            )
        if len(frame) == 0:
            return
        self._buffer.append(frame)
        self._buffered_rows += len(frame)
        while self._buffered_rows >= self._max_rows:
            self._flush_chunk(self._max_rows)

    def finish(self, meta: Optional[dict] = None) -> "ChunkedFrameStore":
        """Flush the remainder chunk and publish the final manifest."""
        if self._complete:
            raise FrameStoreError(
                f"frame store at {self._directory} is already complete"
            )
        if self._buffered_rows:
            self._flush_chunk(self._buffered_rows)
        if meta:
            self._meta.update(meta)
        self._complete = True
        self._publish()
        return self

    def discard(self) -> None:
        """Remove what this store published (an abandoned write)."""
        for entry in self._entries:
            (self._directory / entry.file).unlink(missing_ok=True)
        (self._directory / MANIFEST_NAME).unlink(missing_ok=True)

    # -- read side ----------------------------------------------------

    def _read_chunk(self, entry: ChunkEntry) -> ResultFrame:
        """One chunk, verified against the manifest's digest by hashing
        its raw bytes (:func:`~repro.core.blobstore.get_blob`) and
        against the manifest's row count."""
        path = self._directory / entry.file
        payload = blobstore.get_blob(
            self._directory,
            entry.file,
            entry.digest,
            FrameStoreError,
            "frame chunk",
            format=CHUNK_FORMAT,
        )
        try:
            frame = ResultFrame.from_stored_columns(payload["columns"])
        except (KeyError, TypeError, ValueError, SpecificationError) as exc:
            raise FrameStoreError(
                f"{path}: malformed frame chunk ({exc})"
            ) from None
        if len(frame) != entry.rows:
            raise FrameStoreError(
                f"{path}: chunk carries {len(frame)} rows but the "
                f"manifest records {entry.rows}"
            )
        return frame

    def _check_readable(self) -> None:
        if self._buffered_rows:
            raise FrameStoreError(
                f"frame store at {self._directory} still buffers "
                f"{self._buffered_rows} unflushed row(s); call "
                f"finish() before reading"
            )

    def iter_chunks(self) -> Iterator[ResultFrame]:
        """The chunks in row order, digest-verified, one at a time."""
        self._check_readable()
        for entry in self._entries:
            yield self._read_chunk(entry)

    def to_frame(self) -> ResultFrame:
        """The whole store as one in-RAM frame (the identity bridge).

        Materialises every row — use only when the result is known to
        fit; the streaming surfaces (:meth:`csv_lines`,
        :meth:`pareto_mask`, :meth:`winner_points`) exist so nothing
        else has to.
        """
        return ResultFrame.concat(list(self.iter_chunks()))

    def csv_lines(self) -> Iterator[str]:
        """One CSV line per row, streamed chunk by chunk.

        Byte-identical to :meth:`ResultFrame.csv_lines` over
        :meth:`to_frame`: CSV rendering is row-local, so chunking
        cannot change a single byte.
        """
        for chunk in self.iter_chunks():
            yield from chunk.csv_lines()

    def winner_points(self) -> int:
        """How many rows carry ``is_winner`` (one per grid point)."""
        return sum(
            int(chunk.column("is_winner").sum())
            for chunk in self.iter_chunks()
        )

    def pareto_mask(self) -> np.ndarray:
        """Global Pareto mask over all rows, computed chunk-at-a-time.

        Byte-identical to :meth:`ResultFrame.pareto_mask` over
        :meth:`to_frame` (see :func:`chunked_nondominated_mask`), while
        holding only one chunk plus the carried front in memory.
        """
        return chunked_nondominated_mask(
            (
                chunk.column("performance"),
                chunk.column("area_percent"),
                chunk.column("cost_percent"),
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
    """Spill-to-disk merge: shard artifacts to a chunked frame store.

    The out-of-core twin of
    :func:`~repro.core.sharding.merge_shard_artifacts`: the same pass
    (:func:`~repro.core.sharding.frames_in_point_order`) under the same
    :class:`~repro.core.sharding.ShardCover` (a
    :data:`~repro.core.sharding.MERGE_COVER` one by default; the gather
    passes its own), so the same refusals and a row stream
    byte-identical to the in-RAM merge's frame.  Memory holds one
    source artifact's frame (plus the indices of any parked early) and
    the ``max_rows_in_memory`` buffer; a refused merge removes what it
    wrote, leaving ``directory`` as it was found.
    """
    if cover is None:
        cover = ShardCover(MERGE_COVER)
    directory = Path(directory)
    made = [d for d in (directory, *directory.parents) if not d.exists()]
    store = ChunkedFrameStore.create(
        directory, max_rows_in_memory=max_rows_in_memory, meta=meta
    )
    states = []
    try:
        for dframe, state in frames_in_point_order(artifacts, cover):
            store.append(dframe.frame)
            states.append(state)
    except BaseException:
        store.discard()
        for path in made:  # deepest first
            with contextlib.suppress(OSError):  # someone else's files
                path.rmdir()
        raise
    return store.finish(
        meta={
            **cover.grid.payload(),
            "cache_stats": merge_cache_states(states),
        }
    )


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
    """Run a design sweep, spilling completed cells to a chunk store.

    The out-of-core surface of
    :func:`~repro.core.sweep.run_design_sweep`: the row stream (and
    hence the store's chunks, CSV and Pareto mask) is byte-identical
    to the in-RAM report's frame, with never more than
    ``max_rows_in_memory`` rows buffered beyond the block being
    evaluated.  Blocks stream out of
    :func:`~repro.core.sweep.stream_decision_frames` in canonical
    order and are appended whole: the store cuts chunks by its row
    budget alone, so block boundaries never show in the chunks.

    The finished store's ``meta`` carries the grid identity
    (:class:`~repro.core.sharding.GridIdentity` fields, which
    ``--spill-dir`` reuse compares) and the sweep's ``cache_stats``.
    """
    points, weights, cache = resolve_sweep(grid, weights, cache)
    store = ChunkedFrameStore.create(
        directory,
        max_rows_in_memory=max_rows_in_memory,
        meta={**(meta or {}), **GridIdentity.of(points).payload()},
    )
    for block in stream_decision_frames(
        points, candidate_factory, reference, weights, cache
    ):
        store.append(block.frame)
    return store.finish(meta={"cache_stats": cache.stats()})
