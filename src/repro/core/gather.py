"""Incremental gather service: merge shard artifacts as they land.

``merge_shard_artifacts`` (:mod:`repro.core.sharding`) is a batch
operation — it wants every artifact up front and refuses gaps.  The
gather tier is its *streaming* counterpart: a watcher polls a shard
directory while a fleet of queue workers (:mod:`repro.core.queue`) is
still filling it, adds each artifact as it appears to a
:class:`~repro.core.sharding.ShardCover` with the gather's policy
(:data:`GATHER_COVER`: grid and partition pinned, a repeated shard
index dropped, any other overlap refused), concat-merges their
:class:`~repro.core.ranking.DecisionFrame` results, and publishes a
live partial report — progress, merged cache statistics, current
winner counts — long before the sweep finishes.

Safe concurrent reading is what the atomic artifact write protocol
buys: an artifact path either does not exist, is a ``.tmp``
``PENDING`` sibling (ignored by contract), or is ``COMPLETE`` and
fully readable — a poll can never observe a torn file.

* :class:`IncrementalGather` — the stateful accumulator.
  :meth:`~IncrementalGather.ingest` validates each artifact against
  the first one seen (or an expected :class:`~repro.core.queue.QueueManifest`)
  and **deduplicates by shard index**: when a lease-expiry race makes
  two workers publish the same shard, the second copy is ignored
  wholesale — frame rows *and* cache state — so merged hit/miss
  counters and entry tallies count each shard exactly once;
* :meth:`~IncrementalGather.scan` — one poll of a directory: new
  ``COMPLETE`` artifacts are ingested, ``PENDING`` temp files are
  noted for progress display, unreadable/foreign files are recorded
  (and retried next scan — a corrupt leftover is healed the moment a
  queue retry atomically replaces it);
* :meth:`~IncrementalGather.snapshot` / :meth:`~IncrementalGather.report`
  — the live partial view (the artifacts'
  :meth:`~repro.core.ranking.DecisionFrame.concat`) and the
  final :class:`~repro.core.sweep.SweepReport`, the snapshot's once
  the gather's cover is complete, so a gathered sweep is
  *byte-identical* to ``--merge`` and hence to the serial engine;
* :func:`gather_directory` / :func:`gather_directory_to_store` — the
  one-shot gather of a finished directory, in RAM or spilled to a
  chunked frame store, both under the same cover (:func:`gather_grid`
  runs it alone): the same rules and the same refusals, word for
  word, with or without the spill;
* :func:`watch_directory` — the service loop: poll, publish a
  snapshot, repeat until the grid is covered (or a timeout names what
  is missing).

CLI surface: ``repro-gps gather DIR [--watch]``; see
``docs/sweep-guide.md``, "Running a sweep as a service".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from ..errors import SpecificationError
from .queue import QueueManifest
from .ranking import DecisionFrame
from .resultframe import ResultFrame
from .sharding import (
    ArtifactLike,
    CoverPolicy,
    GridIdentity,
    ShardArtifact,
    ShardCover,
    ShardMergeError,
    covered_grid,
    find_pending_artifacts,
    find_shard_artifacts,
    load_artifact,
    merge_cache_states,
    merge_shard_artifacts,
)
from .sweep import SweepReport


class GatherError(SpecificationError):
    """The gather service cannot (yet) produce what was asked of it."""


@dataclass(frozen=True)
class GatherSnapshot:
    """One published view of a gather in progress.

    ``frame`` holds every gathered row, already sorted into canonical
    grid order — winner counts, Pareto masks and CSV previews are all
    meaningful on the partial data.  ``rejected`` pairs file names
    with the reason they could not be ingested this scan (they are
    retried on the next one).
    """

    total_points: Optional[int]
    covered_points: int
    shards_seen: tuple[int, ...]
    total_shards: Optional[int]
    pending: tuple[str, ...]
    rejected: tuple[tuple[str, str], ...]
    complete: bool
    frame: ResultFrame
    cache_stats: dict

    @property
    def progress(self) -> float:
        """Covered fraction of the grid (0.0 when nothing is known)."""
        if not self.total_points:
            return 0.0
        return self.covered_points / self.total_points

    def winner_counts(self) -> dict[str, int]:
        """Current winner tally over the gathered rows."""
        return self.frame.winner_counts()


#: The gather: artifacts named by file, the partition pinned, a repeated
#: shard index dropped (the lease-expiry race), any other overlap refused.
GATHER_COVER = CoverPolicy(
    GatherError,
    overlap=(
        "{label}: artifact covers already-gathered point indices "
        "{indices}"
    ),
    incomplete=(
        "gather is incomplete: missing point indices {missing} of "
        "{total}"
    ),
    by_shard=True,
)


def gather_cover(expected: Optional[QueueManifest] = None) -> ShardCover:
    """A :data:`GATHER_COVER` cover, pinned to ``expected``'s grid and
    partition when a queue manifest is given."""
    if expected is None:
        return ShardCover(GATHER_COVER)
    return ShardCover(
        GATHER_COVER, expected.grid, "the queue manifest", expected.shards
    )


class IncrementalGather:
    """Accumulate shard artifacts into a live, then final, report.

    Pass ``expected`` (a queue manifest) to pin the grid up front;
    otherwise the first ingested artifact becomes the reference every
    later one must match — the :class:`~repro.core.sharding.ShardCover`
    the merges use, with the gather's policy (:data:`GATHER_COVER`),
    applied artifact by artifact as they arrive.
    """

    def __init__(self, expected: Optional[QueueManifest] = None) -> None:
        self._artifacts: dict[int, ShardArtifact] = {}
        self._ingested_names: set[str] = set()
        self._rejected: dict[str, str] = {}
        self._pending: tuple[str, ...] = ()
        self._cover = gather_cover(expected)

    # -- ingestion ----------------------------------------------------

    def ingest(
        self, artifact: ArtifactLike, source: Optional[str] = None
    ) -> bool:
        """Add one artifact (in memory or a path) to the gather.

        Returns ``False`` — and changes *nothing* — when the shard
        index was already gathered: the lease-expiry race can make two
        workers publish the same shard, and counting its frame rows or
        its cache hit/miss state twice would corrupt the report.
        Deterministic evaluation guarantees the duplicate's content is
        identical, so dropping it is lossless.

        Raises :class:`GatherError` for an artifact that cannot belong
        to this gather (foreign grid, wrong order, wrong partition,
        points outside the grid or already gathered) or cannot be read.
        """
        try:
            loaded = load_artifact(artifact)
        except ShardMergeError as exc:
            raise GatherError(str(exc)) from None
        source = artifact if source is None else source
        if not self._cover.add_artifact(loaded, source):
            return False
        self._artifacts[loaded.shard_index] = loaded
        return True

    def scan(self, directory: Union[str, Path]) -> int:
        """One poll of a shard directory; returns newly ingested count.

        ``COMPLETE`` artifacts not seen before are ingested;
        ``PENDING`` temp files only update the snapshot's in-flight
        list.  A file that fails to read or validate is recorded in
        ``rejected`` and *retried on the next scan* — the queue's
        retry of a failed shard atomically replaces bad bytes, at
        which point the rescan picks the artifact up.
        """
        directory = Path(directory)
        try:
            paths = find_shard_artifacts(directory)
            pending = find_pending_artifacts(directory)
        except ShardMergeError as exc:
            raise GatherError(str(exc)) from None
        self._pending = tuple(path.name for path in pending)
        self._rejected = {}
        ingested = 0
        for path in paths:
            if path.name in self._ingested_names:
                continue
            try:
                if self.ingest(path, source=path.name):
                    ingested += 1
                self._ingested_names.add(path.name)
            except GatherError as exc:
                self._rejected[path.name] = str(exc)
        return ingested

    # -- views --------------------------------------------------------

    @property
    def total_points(self) -> Optional[int]:
        """The grid size, once known (manifest or first artifact)."""
        return self._cover.total_points

    @property
    def complete(self) -> bool:
        """True when every canonical point index has been gathered."""
        return self._cover.complete

    def missing_summary(self) -> str:
        """The canonical point indices not covered yet, summarised
        (empty when done or while the grid size is unknown)."""
        return self._cover.missing_summary()

    def snapshot(self) -> GatherSnapshot:
        """The current partial view (sorted frame, merged cache stats)."""
        return GatherSnapshot(
            total_points=self.total_points,
            covered_points=len(self._cover.covered),
            shards_seen=tuple(sorted(self._artifacts)),
            total_shards=self._cover.shards,
            pending=self._pending,
            rejected=tuple(sorted(self._rejected.items())),
            complete=self.complete,
            frame=DecisionFrame.concat(
                [self._artifacts[i].dframe for i in sorted(self._artifacts)]
            ).frame,
            cache_stats=merge_cache_states(
                self._artifacts[index].cache_state
                for index in sorted(self._artifacts)
            ),
        )

    def report(self) -> SweepReport:
        """The final canonical report: the snapshot's rows and cache
        statistics once the gather's cover is complete (every point
        once, each artifact holding its shard's points) — byte-identical
        to ``--merge`` and to a serial in-process sweep of the grid."""
        self._cover.require_complete()
        snapshot = self.snapshot()
        return SweepReport(snapshot.frame, snapshot.cache_stats)


def _gather_once(
    directory: Union[str, Path], expected: Optional[QueueManifest], merge
):
    """``merge(paths, cover)`` the shard directory under the gather's
    cover (:func:`gather_cover`); every failure a :class:`GatherError`."""
    directory = Path(directory)
    try:
        paths = find_shard_artifacts(directory)
        if not paths and expected is None:
            raise GatherError(
                f"no shard artifacts (shard-*.json) in {directory}"
            )
        return merge(paths, gather_cover(expected))
    except ShardMergeError as exc:
        raise GatherError(str(exc)) from None


def gather_grid(
    directory: Union[str, Path], expected: Optional[QueueManifest] = None
) -> GridIdentity:
    """The grid :func:`gather_directory`'s cover finds ``directory``
    covers, with its refusals, keeping no frame."""
    return _gather_once(directory, expected, covered_grid)


def gather_directory(
    directory: Union[str, Path],
    expected: Optional[QueueManifest] = None,
) -> SweepReport:
    """One-shot strict gather of a finished shard directory.

    Unlike the watch loop, nothing is tolerated: the first artifact
    (in name order) that cannot be read or that :class:`IncrementalGather`
    would refuse raises, naming its file, and an incomplete directory
    raises naming the missing indices.
    """
    return _gather_once(directory, expected, merge_shard_artifacts)


def gather_directory_to_store(
    directory: Union[str, Path],
    store_dir: Union[str, Path],
    max_rows_in_memory: int,
    expected: Optional[QueueManifest] = None,
):
    """Strict one-shot gather spilled to a chunked frame store.

    The out-of-core twin of :func:`gather_directory`, under the same
    cover: the finished shard directory is merged through
    :func:`~repro.core.framestore.merge_artifacts_to_store`, never
    holding more than one artifact plus the store's row buffer — the
    store's row stream is byte-identical to the in-RAM gather's frame,
    and every refusal is the in-RAM gather's, word for word.
    """
    from .framestore import merge_artifacts_to_store  # cycle-free here

    return _gather_once(
        directory,
        expected,
        lambda paths, cover: merge_artifacts_to_store(
            paths, store_dir, max_rows_in_memory, cover=cover
        ),
    )


def watch_directory(
    directory: Union[str, Path],
    expected: Optional[QueueManifest] = None,
    poll: float = 0.5,
    timeout: Optional[float] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    on_snapshot: Optional[Callable[[GatherSnapshot], None]] = None,
) -> SweepReport:
    """Watch a shard directory until the sweep is fully gathered.

    The service loop behind ``repro-gps gather DIR --watch``: scan,
    publish a snapshot (``on_snapshot`` fires after every scan —
    progress bars, dashboards, logs), sleep ``poll`` seconds, repeat.
    Returns the final canonical report the moment the last point
    lands; raises :class:`GatherError` when ``timeout`` seconds pass
    first, naming the missing indices and any rejected files.

    ``clock``/``sleep`` are injectable for tests (monotonic time and
    :func:`time.sleep` by default).
    """
    if poll <= 0:
        raise GatherError(f"poll interval must be positive, got {poll}")
    gather = IncrementalGather(expected=expected)
    deadline = None if timeout is None else clock() + timeout
    while True:
        gather.scan(directory)
        snapshot = gather.snapshot()
        if on_snapshot is not None:
            on_snapshot(snapshot)
        if gather.complete:
            return gather.report()
        if deadline is not None and clock() >= deadline:
            rejected = "".join(
                f"; rejected {name}: {reason}"
                for name, reason in snapshot.rejected
            )
            missing = gather.missing_summary()
            raise GatherError(
                f"gather timed out after {timeout:g}s with "
                f"{snapshot.covered_points} of "
                f"{snapshot.total_points if snapshot.total_points else '?'} "
                f"points gathered"
                + (f" (missing {missing})" if missing else "")
                + rejected
            )
        sleep(poll)
