"""Incremental gather service: merge shard artifacts as they land.

``merge_shard_artifacts`` (:mod:`repro.core.sharding`) is a batch
operation — it wants every artifact up front and refuses gaps.  The
gather tier is its *streaming* counterpart: a watcher polls a shard
directory while a fleet of queue workers (:mod:`repro.core.queue`) is
still filling it, validates each artifact as it appears (one
:meth:`~repro.core.sharding.GridIdentity.check` plus the shard
partition), concat-merges their
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
  final :class:`~repro.core.sweep.SweepReport`, which is assembled by
  :func:`~repro.core.sharding.merge_shard_artifacts` itself, so a
  gathered sweep is *byte-identical* to ``--merge`` and hence to the
  serial engine;
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
    GridIdentity,
    ShardArtifact,
    ShardMergeError,
    find_pending_artifacts,
    find_shard_artifacts,
    load_artifact,
    merge_cache_states,
    merge_shard_artifacts,
    summarise_indices,
    summarise_missing,
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


class IncrementalGather:
    """Accumulate shard artifacts into a live, then final, report.

    Pass ``expected`` (a queue manifest) to pin the grid up front;
    otherwise the first ingested artifact becomes the reference every
    later one must match — the same fingerprint/order/size discipline
    as :func:`~repro.core.sharding.merge_shard_artifacts`, applied
    artifact by artifact as they arrive.
    """

    def __init__(self, expected: Optional[QueueManifest] = None) -> None:
        self._artifacts: dict[int, ShardArtifact] = {}
        self._ingested_names: set[str] = set()
        self._rejected: dict[str, str] = {}
        self._pending: tuple[str, ...] = ()
        self._covered: set[int] = set()
        self._grid: Optional[GridIdentity] = None
        self._grid_source = "the queue manifest"
        self._total_shards: Optional[int] = None
        if expected is not None:
            self._grid = expected.grid
            self._total_shards = expected.shards

    # -- ingestion ----------------------------------------------------

    def _check(self, artifact: ShardArtifact, source: str) -> None:
        if self._grid is None:
            self._grid, self._grid_source = artifact.grid, source
            self._total_shards = artifact.shards
            return
        self._grid.check(
            artifact.grid, GatherError, source, self._grid_source
        )
        if artifact.shards != self._total_shards:
            raise GatherError(
                f"{source}: artifact cut from a different partition "
                f"({artifact.shards} vs {self._total_shards} shards)"
            )

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
        to this gather (foreign grid, wrong order, wrong partition) or
        cannot be read.
        """
        if source is None:
            source = (
                str(artifact)
                if isinstance(artifact, (str, Path))
                else "<memory>"
            )
        try:
            loaded = load_artifact(artifact)
        except ShardMergeError as exc:
            raise GatherError(str(exc)) from None
        self._check(loaded, source)
        if loaded.shard_index in self._artifacts:
            return False
        indices = set(loaded.dframe.indices)
        overlap = indices & self._covered
        if overlap:
            raise GatherError(
                f"{source}: artifact covers already-gathered point "
                f"indices {summarise_indices(sorted(overlap))}"
            )
        self._artifacts[loaded.shard_index] = loaded
        self._covered |= indices
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
        return None if self._grid is None else self._grid.total_points

    @property
    def complete(self) -> bool:
        """True when every canonical point index has been gathered."""
        return (
            self.total_points is not None
            and len(self._covered) == self.total_points
        )

    def missing_summary(self) -> str:
        """The canonical point indices not covered yet, summarised
        (empty when done or while the grid size is unknown)."""
        if self.total_points is None or self.complete:
            return ""
        return summarise_missing(sorted(self._covered), self.total_points)

    def snapshot(self) -> GatherSnapshot:
        """The current partial view (sorted frame, merged cache stats)."""
        return GatherSnapshot(
            total_points=self.total_points,
            covered_points=len(self._covered),
            shards_seen=tuple(sorted(self._artifacts)),
            total_shards=self._total_shards,
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
        """The final canonical report; the gather must be complete.

        Delegates the assembly to
        :func:`~repro.core.sharding.merge_shard_artifacts`, so the
        result carries every one of its guarantees — byte-identical
        rows to a serial in-process sweep of the same grid.
        """
        if not self.complete:
            raise GatherError(
                f"gather is incomplete: missing point indices "
                f"{self.missing_summary()} of "
                f"{self.total_points if self.total_points else '?'}"
            )
        return merge_shard_artifacts(
            [self._artifacts[index] for index in sorted(self._artifacts)]
        )


def gather_directory(
    directory: Union[str, Path],
    expected: Optional[QueueManifest] = None,
) -> SweepReport:
    """One-shot strict gather of a finished shard directory.

    Unlike the watch loop, nothing is tolerated: an unreadable or
    foreign artifact raises (with the file named), and an incomplete
    directory raises naming the missing indices.
    """
    gather = IncrementalGather(expected=expected)
    gather.scan(directory)
    snapshot = gather.snapshot()
    if snapshot.rejected:
        raise GatherError(snapshot.rejected[0][1])
    if not gather.complete and gather.total_points is None:
        raise GatherError(
            f"no shard artifacts (shard-*.json) in {directory}"
        )
    return gather.report()


def gather_directory_to_store(
    directory: Union[str, Path],
    store_dir: Union[str, Path],
    max_rows_in_memory: int,
    expected: Optional[QueueManifest] = None,
):
    """Strict one-shot gather spilled to a chunked frame store.

    The out-of-core twin of :func:`gather_directory`: the finished
    shard directory is merged through
    :func:`~repro.core.framestore.merge_artifacts_to_store`, never
    holding more than one artifact plus the store's row buffer — the
    store's row stream is byte-identical to the in-RAM gather's frame.
    With ``expected`` (a queue manifest) the first artifact is checked
    against the pinned grid identity up front, the same discipline as
    :class:`IncrementalGather`; cross-artifact consistency, duplicate
    and gap detection come from the merge itself.  Every failure is a
    :class:`GatherError` naming the cause.
    """
    from .framestore import merge_artifacts_to_store  # cycle-free here

    directory = Path(directory)
    try:
        paths = find_shard_artifacts(directory)
    except ShardMergeError as exc:
        raise GatherError(str(exc)) from None
    if not paths:
        raise GatherError(
            f"no shard artifacts (shard-*.json) in {directory}"
        )
    if expected is not None:
        IncrementalGather(expected).ingest(paths[0], source=paths[0].name)
    try:
        return merge_artifacts_to_store(
            paths, store_dir, max_rows_in_memory
        )
    except ShardMergeError as exc:
        raise GatherError(str(exc)) from None


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
