"""On-disk frame warehouse: sweeps become the offline indexing tier.

The sweep subsystem answers "what happens across the grid?" by
evaluating the grid — seconds to hours of MNA solves, placements and
flow walks.  The paper's end product, however, is a *decision* query:
"given my volume, spec and technology menu, what do I build?".  This
module materialises finished sweeps into a directory of
content-addressed **frame files** plus a small **manifest**, so the
online tier (:mod:`repro.core.queryservice`) can answer Pareto,
re-rank, winner-count, best-candidate and sensitivity queries in
milliseconds against memory-loaded columns instead of re-running
anything.

Layout of a warehouse directory::

    warehouse.json            # the manifest (atomically republished)
    frame-<digest>.json       # immutable content-addressed frame files

The manifest lists each frame file with its digest, its row count and
the canonical point indices it covers as sorted half-open runs
``[[start, stop], ...]``, so its size and every cover check grow with
the runs, never with the points.

Design rules:

* **Frames carry the re-rank basis.**  Each
  :class:`~repro.core.ranking.DecisionFrame` — the unit the sweep
  engine produces — stores the 14 ``SweepRow`` columns *plus* the
  ``size_ratio`` / ``cost_ratio`` FoM inputs — the percent columns are
  ``fl(100 * ratio)`` and cannot be inverted, so without the ratios no
  stored frame could be re-ranked byte-identically to a fresh sweep.
* **One container.**  A frame file is the grid identity fields plus
  the decision frame's own codec
  (:meth:`~repro.core.ranking.DecisionFrame.to_payload` /
  :meth:`~repro.core.ranking.DecisionFrame.from_payload`), the one
  shard artifacts embed too: ingesting a shard appends the artifact's
  decision frame as read, after one
  :meth:`~repro.core.grid.GridIdentity.check` against the
  manifest.  A spilled sweep is a warehouse too: its bounded writer
  and streaming reader (:class:`~repro.core.framestore.
  ChunkedFrameStore`) cut frames at whole grid points, and its
  ``meta`` carries the sweep's cache statistics.
* **Frame files are immutable and content-addressed.**  Frames are
  :func:`~repro.core.blobstore.put_blob` blobs: the file holds the
  payload's canonical JSON, its name embeds the
  :func:`~repro.core.blobstore.content_digest` (the hash of those
  bytes), and a file, once published, never changes.  That is what
  makes the reader's LRU cache (:class:`FrameCache`) trivially
  coherent: a cached entry can never go stale, eviction only bounds
  memory.
* **Publication is atomic** (:mod:`repro.core.blobstore`).  An append
  writes the new frame file *first* and only then republishes the
  manifest referencing it, so a concurrent reader sees either the old
  manifest (old frames, all readable) or the new one (new frame
  already durable) — never a torn state.
* **Appends are incremental and idempotent.**  Shard artifacts from a
  queue run (:func:`append_shard_artifact`,
  :func:`ingest_shard_directory`) land one frame file each, and an
  ingest publishes the manifest once, after all of them; an artifact
  whose points are already covered is skipped, overlapping or
  foreign-grid artifacts are refused loudly.
* **Nothing in a warehouse is time-stamped or host-stamped.**  The
  same sweep produces byte-identical warehouse bytes anywhere, which
  is what lets the golden-response tests pin whole query payloads.
"""

from __future__ import annotations

import copy
import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

from ..errors import SpecificationError
from . import blobstore
# Re-exported: perfbench/workloads.py imports canonical_json from here.
from .blobstore import canonical_json  # noqa: F401
from .figure_of_merit import FomWeights
from .grid import GridIdentity, resolve_grid
from .ranking import DecisionFrame
from .sharding import ShardArtifact, find_shard_artifacts, read_shard_artifact

if TYPE_CHECKING:
    from .grid import DesignPoint, SweepGrid
    from .sweep import EvaluationCache

#: Manifest format identifier; bumped on incompatible layout changes
#: (version 2: frame files whose numeric columns are packed; version
#: 3: frame entries record index runs, and the manifest a ``meta``).
WAREHOUSE_FORMAT = "repro-warehouse/3"

#: Frame-file format identifier.
FRAME_FORMAT = "repro-warehouse-frame/2"

#: How a refusal of an older release's warehouse ends.
REBUILD_WAREHOUSE = (
    "rebuild the warehouse into a fresh directory (`repro-gps warehouse "
    "build`, or re-run the shards and `--from-shards` them)"
)

#: How a refusal of an older release's spilled frame store ends.
RESPILL_STORE = "remove the directory and re-run the sweep to spill it again"

#: The manifest filename inside a warehouse directory.
MANIFEST_NAME = "warehouse.json"

#: The manifest an older release's spill directory held instead.
LEGACY_STORE_MANIFEST = "framestore.json"


class WarehouseError(SpecificationError):
    """The warehouse cannot be (safely) read or written."""


#: The manifest's own frames cover each point once at most.
FRAMES_OVERLAP = "warehouse frames overlap on point index {first}"
#: An append refuses every point the warehouse already covers.
APPEND_OVERLAP = (
    "warehouse already covers point index {first}; appending the same "
    "shard twice?"
)


# -- the decision frame -----------------------------------------------


def merge_decision_frames(
    frames: Sequence[DecisionFrame],
) -> DecisionFrame:
    """:meth:`DecisionFrame.concat` of frames over disjoint points."""
    try:
        return DecisionFrame.concat(frames)
    except SpecificationError as exc:
        raise WarehouseError(str(exc)) from None


# -- frame files ------------------------------------------------------


def frame_payload(
    dframe: DecisionFrame,
    *,
    fingerprint: str,
    order_digest: str,
    total_points: int,
) -> dict:
    """One frame file's JSON payload: the grid identity plus the
    :meth:`~repro.core.ranking.DecisionFrame.to_payload` codec (packed
    numeric columns, no timestamps)."""
    return {
        "format": FRAME_FORMAT,
        "fingerprint": fingerprint,
        "order_digest": order_digest,
        "total_points": total_points,
        **dframe.to_payload(),
    }


def frame_filename(digest: str) -> str:
    """Canonical content-addressed frame filename."""
    return f"frame-{digest}.json"


def read_warehouse_frame(
    path: Union[str, Path], expected_digest: Optional[str] = None
) -> DecisionFrame:
    """Load one frame file, verifying its content digest.

    With ``expected_digest`` (what the manifest records) the file's raw
    bytes are hashed before parsing: a frame blob is its canonical JSON
    plus a newline, so that hash is its digest.  A frame file that was
    tampered with, truncated by a non-atomic writer or mispaired with
    its name is a loud :class:`WarehouseError`, never silently wrong
    rows.
    """
    payload = blobstore.read_json(
        path,
        WarehouseError,
        "warehouse frame",
        format=FRAME_FORMAT,
        digest=expected_digest,
    )
    try:
        return DecisionFrame.from_payload(payload)
    except SpecificationError as exc:
        raise WarehouseError(
            f"{path}: malformed warehouse frame ({exc})"
        ) from None


# -- the manifest -----------------------------------------------------

#: A half-open run ``(start, stop)`` of canonical point indices.
Run = tuple[int, int]


def index_runs(indices: Sequence[int]) -> tuple[Run, ...]:
    """The sorted half-open runs of distinct point indices:
    ``(4, 2, 3, 7)`` is ``((2, 5), (7, 8))``.  A repeated index is
    refused."""
    points = np.sort(np.fromiter(indices, np.int64, len(indices)))
    if not points.size:
        return ()
    repeated = points[1:][points[1:] == points[:-1]]
    if repeated.size:
        raise WarehouseError(FRAMES_OVERLAP.format(first=int(repeated[0])))
    cuts = np.flatnonzero(np.diff(points) != 1) + 1
    starts = points[np.r_[0, cuts]].tolist()
    stops = (points[np.r_[cuts - 1, -1]] + 1).tolist()
    return tuple(zip(starts, stops))


def _cover_with(
    cover: tuple[Run, ...],
    runs: tuple[Run, ...],
    total: int,
    label: str,
    overlap: str,
) -> tuple[Run, ...]:
    """``cover`` plus ``runs`` (each sorted and disjoint), coalesced.

    Refuses a run past the ``total``-point grid, then a point both hold
    (``overlap``, worded by its ``{first}``), in O(runs) whatever the
    runs declare."""
    for start, stop in runs:
        if stop > total:
            raise WarehouseError(
                f"{label} carries point index {max(start, total)}, "
                f"outside the {total}-point grid"
            )
    merged: list[list[int]] = []
    for start, stop in heapq.merge(cover, runs):
        if merged and start < merged[-1][1]:
            raise WarehouseError(overlap.format(first=start))
        if merged and start == merged[-1][1]:
            merged[-1][1] = stop
        else:
            merged.append([start, stop])
    return tuple((start, stop) for start, stop in merged)


def is_count(value, minimum: int = 0) -> bool:
    """``value`` is an exact int (not a bool) of at least ``minimum``."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and value >= minimum
    )


@dataclass(frozen=True)
class FrameEntry:
    """One frame file as the manifest records it: its points as sorted,
    disjoint half-open index ``runs``, and its row count."""

    file: str
    digest: str
    runs: tuple[Run, ...]
    rows: int

    def __post_init__(self) -> None:
        blobstore.check_blob_name(self.file, WarehouseError, "frame entry")
        if not is_count(self.rows):
            raise WarehouseError(
                f"frame entry rows must be a non-negative integer, "
                f"got {self.rows!r}"
            )
        previous = 0
        for run in self.runs:
            if (
                not isinstance(run, tuple)
                or len(run) != 2
                or not all(map(is_count, run))
            ):
                raise WarehouseError(
                    f"frame entry runs must be [start, stop] pairs of "
                    f"non-negative integers, got {run!r:.60}"
                )
            if not previous <= run[0] < run[1]:
                raise WarehouseError(
                    f"frame entry runs must be non-empty, sorted and "
                    f"disjoint, got {list(run)} after {previous}"
                )
            previous = run[1]
        if self.points > self.rows:
            raise WarehouseError(
                f"frame entry runs name {self.points} points but the "
                f"frame has {self.rows} rows"
            )

    @property
    def points(self) -> int:
        """How many point indices the runs hold."""
        return sum(stop - start for start, stop in self.runs)


@dataclass(frozen=True)
class WarehouseManifest:
    """Everything the online tier needs to know about a warehouse.

    ``revision`` increments on every append, so a reader can cheaply
    tell whether anything changed; ``frames`` lists the
    content-addressed frame files with the canonical point runs each
    covers.  ``grid_spec`` optionally carries the CLI axis tokens
    (the queue-manifest discipline) so tooling can rebuild the grid;
    ``meta`` what the writer adds (a spill's ``cache_stats``, an
    adaptive run's counters).
    """

    fingerprint: str
    order_digest: str
    total_points: int
    revision: int
    frames: tuple[FrameEntry, ...] = ()
    grid_spec: Optional[dict] = None
    meta: dict = field(default_factory=dict)
    #: The runs the frames cover, sorted and coalesced: built by the
    #: overlap check and carried forward by :meth:`appended`, so that
    #: an appender never rebuilds it.
    cover: tuple[Run, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for label, value, minimum in (
            ("total_points", self.total_points, 1),
            ("revision", self.revision, 1),
        ):
            if not is_count(value, minimum):
                raise WarehouseError(
                    f"warehouse manifest {label} must be an integer "
                    f">= {minimum}, got {value!r}"
                )
        cover: tuple[Run, ...] = ()
        for entry in self.frames:
            cover = _cover_with(
                cover,
                entry.runs,
                self.total_points,
                f"warehouse frame {entry.file}",
                FRAMES_OVERLAP,
            )
        object.__setattr__(self, "cover", cover)

    def appended(
        self, entry: FrameEntry, cover: tuple[Run, ...]
    ) -> "WarehouseManifest":
        """This manifest plus one frame, the revision bumped.

        ``cover`` is :attr:`cover` plus ``entry.runs``, which the caller
        has checked (:func:`append_frame` does), so the new manifest
        carries it instead of walking every frame again: an append
        costs O(runs), not O(warehouse).
        """
        manifest = copy.copy(self)
        for name, value in (
            ("revision", self.revision + 1),
            ("frames", self.frames + (entry,)),
            ("cover", cover),
        ):
            object.__setattr__(manifest, name, value)
        return manifest

    @property
    def grid(self) -> GridIdentity:
        """The warehouse's grid identity."""
        return GridIdentity(
            self.fingerprint, self.order_digest, self.total_points
        )

    @property
    def covered_points(self) -> int:
        """How many canonical grid points the frames cover."""
        return sum(stop - start for start, stop in self.cover)

    @property
    def complete(self) -> bool:
        """True when every grid point is covered."""
        return self.cover == ((0, self.total_points),)

    def covers(self, runs: tuple[Run, ...]) -> bool:
        """True when every run lies inside the cover."""
        return all(
            any(low <= start and stop <= high for low, high in self.cover)
            for start, stop in runs
        )


def manifest_to_payload(manifest: WarehouseManifest) -> dict:
    """The manifest as a JSON-ready dict."""
    payload = {
        "format": WAREHOUSE_FORMAT,
        "fingerprint": manifest.fingerprint,
        "order_digest": manifest.order_digest,
        "total_points": manifest.total_points,
        "revision": manifest.revision,
        "frames": [
            {
                "file": entry.file,
                "digest": entry.digest,
                "runs": [list(run) for run in entry.runs],
                "rows": entry.rows,
            }
            for entry in manifest.frames
        ],
    }
    if manifest.grid_spec is not None:
        payload["grid_spec"] = manifest.grid_spec
    if manifest.meta:
        payload["meta"] = manifest.meta
    return payload


def payload_to_manifest(
    payload: dict, source: str = "<payload>"
) -> WarehouseManifest:
    """Rebuild a :class:`WarehouseManifest` from its JSON payload."""
    blobstore.check_payload(
        payload,
        WarehouseError,
        "warehouse manifest",
        source,
        WAREHOUSE_FORMAT,
        REBUILD_WAREHOUSE,
    )
    for name in ("grid_spec", "meta"):
        if not isinstance(payload.get(name, {}), dict):
            raise WarehouseError(
                f"{source}: warehouse manifest {name} must be an object"
            )
    try:
        return WarehouseManifest(
            fingerprint=payload["fingerprint"],
            order_digest=payload["order_digest"],
            total_points=payload["total_points"],
            revision=payload["revision"],
            frames=tuple(
                FrameEntry(
                    file=entry["file"],
                    digest=entry["digest"],
                    runs=tuple(
                        tuple(run) if isinstance(run, list) else run
                        for run in entry["runs"]
                    ),
                    rows=entry["rows"],
                )
                for entry in payload.get("frames", ())
            ),
            grid_spec=payload.get("grid_spec"),
            meta=payload.get("meta", {}),
        )
    except (KeyError, TypeError, SpecificationError) as exc:
        raise WarehouseError(
            f"{source}: malformed warehouse manifest ({exc})"
        ) from None


def manifest_path(directory: Union[str, Path]) -> Path:
    """The manifest path inside a warehouse directory."""
    return Path(directory) / MANIFEST_NAME


def holds_manifest(directory: Union[str, Path]) -> bool:
    """True when ``directory`` holds a warehouse manifest, or the
    frame store manifest of an older release."""
    return any(
        (Path(directory) / name).exists()
        for name in (MANIFEST_NAME, LEGACY_STORE_MANIFEST)
    )


def read_warehouse_manifest(
    directory: Union[str, Path],
) -> WarehouseManifest:
    """Load the manifest of a warehouse directory."""
    return parse_warehouse_manifest(
        read_manifest_bytes(directory), directory
    )


def read_manifest_bytes(directory: Union[str, Path]) -> bytes:
    """The manifest file's raw bytes (see :func:`read_warehouse_manifest`).

    A directory an older release spilled into holds a frame store
    manifest instead: it is refused at its format tag."""
    path = manifest_path(directory)
    try:
        return blobstore.read_bytes(path, WarehouseError, "warehouse manifest")
    except WarehouseError as exc:
        if path.exists():
            raise
        legacy = Path(directory) / LEGACY_STORE_MANIFEST
        if legacy.exists():
            declared = blobstore.read_json(
                legacy, WarehouseError, "frame store"
            ).get("format")
            raise WarehouseError(
                f"{legacy}: unsupported frame store format {declared!r} "
                f"(expected a {WAREHOUSE_FORMAT!r} {MANIFEST_NAME}); "
                f"{RESPILL_STORE}"
            ) from None
        raise WarehouseError(
            f"{exc} (is {directory} a warehouse? build one with "
            f"`repro-gps warehouse build`)"
        ) from None


def parse_warehouse_manifest(
    raw: bytes, directory: Union[str, Path]
) -> WarehouseManifest:
    """The manifest held in ``raw``, the bytes read from ``directory``."""
    path = manifest_path(directory)
    payload = blobstore.parse_json(
        raw, path, WarehouseError, "warehouse manifest"
    )
    return payload_to_manifest(payload, source=str(path))


def publish_manifest(
    directory: Union[str, Path], manifest: WarehouseManifest
) -> WarehouseManifest:
    """Atomically (re)publish ``manifest`` as ``directory``'s manifest."""
    blobstore.write_json(
        manifest_path(directory), manifest_to_payload(manifest)
    )
    return manifest


# -- the writer -------------------------------------------------------


def init_warehouse(
    directory: Union[str, Path],
    grid: Union[SweepGrid, Iterable[DesignPoint]],
    *,
    grid_spec: Optional[dict] = None,
) -> WarehouseManifest:
    """Create an empty warehouse for a grid (revision 1, no frames).

    Refuses to re-initialise an existing warehouse: frames already
    published there would silently become unreachable orphans.
    """
    identity = GridIdentity.of(grid)
    path = manifest_path(directory)
    if path.exists():
        raise WarehouseError(
            f"warehouse already initialised at {path}; append with "
            f"--from-shards / append_shard_artifact, or build into a "
            f"fresh directory"
        )
    return publish_manifest(
        directory,
        WarehouseManifest(
            **identity.payload(),
            revision=1,
            frames=(),
            grid_spec=grid_spec,
        ),
    )


def append_frame(
    directory: Path, manifest: WarehouseManifest, dframe: DecisionFrame
) -> WarehouseManifest:
    """Publish ``dframe``'s frame file into the warehouse whose current
    manifest is ``manifest``; returns that manifest plus the frame, not
    yet published.  Points outside the grid, named twice or already
    covered are refused before anything is written."""
    runs = index_runs(dframe.indices)
    cover = _cover_with(
        manifest.cover, runs, manifest.total_points, "frame", APPEND_OVERLAP
    )
    payload = frame_payload(dframe, **manifest.grid.payload())
    name, digest = blobstore.put_blob(directory, frame_filename, payload)
    entry = FrameEntry(file=name, digest=digest, runs=runs, rows=len(dframe))
    return manifest.appended(entry, cover)


def append_decision_frame(
    directory: Union[str, Path], dframe: DecisionFrame
) -> WarehouseManifest:
    """Publish one decision frame into an initialised warehouse.

    The frame file lands first (atomic write, content-addressed name),
    then the manifest is atomically republished with the revision
    bumped — the ordering a concurrent reader relies on.  Overlapping
    or out-of-range points are refused before anything is written.
    """
    directory = Path(directory)
    return publish_manifest(
        directory,
        append_frame(directory, read_warehouse_manifest(directory), dframe),
    )


def append_shard_artifact(
    directory: Union[str, Path],
    artifact: ShardArtifact,
    manifest: Optional[WarehouseManifest] = None,
) -> WarehouseManifest:
    """Append one shard artifact's results to a warehouse.

    Without ``manifest`` the current one is read from disk, and the
    manifest with the new frame is published after the frame file.
    A caller that passes the warehouse's current ``manifest`` —
    :func:`ingest_shard_directory` passes the one the previous append
    returned — gets the next manifest back unpublished, with the frame
    file already durable, and publishes it itself.
    """
    directory = Path(directory)
    publish = manifest is None
    if publish:
        manifest = read_warehouse_manifest(directory)
    manifest.grid.check(
        artifact.grid, WarehouseError, artifact.label, "the warehouse"
    )
    manifest = append_frame(directory, manifest, artifact.dframe)
    if publish:
        publish_manifest(directory, manifest)
    return manifest


def ingest_shard_directory(
    directory: Union[str, Path], shard_dir: Union[str, Path]
) -> tuple[WarehouseManifest, list[str], list[str]]:
    """Bulk-append every shard artifact from a queue/shard run.

    Initialises the warehouse from the first artifact's grid identity
    when no manifest exists yet.  Artifacts whose points are already
    fully covered are skipped (so re-running the ingest after a crash
    is idempotent); partially-overlapping or foreign artifacts are
    refused.  Returns ``(manifest, appended, skipped)`` with the
    artifact filenames in each bucket.

    Artifacts are read **one at a time** — only the artifact currently
    being appended is ever resident, so ingesting a thousand-shard run
    costs one artifact of memory, not the whole sweep.  Each append
    publishes its frame file and bumps the revision in memory; the
    manifest is read at most once and published once, last, so its
    bytes equal those of one-by-one appends.  An ingest that stops
    early — killed, or refusing a malformed or foreign artifact —
    leaves the previous manifest and orphan frame files, which the
    re-run republishes with identical bytes.
    """
    directory = Path(directory)
    paths = find_shard_artifacts(shard_dir)
    if not paths:
        raise WarehouseError(
            f"no shard artifacts (shard-*.json) in {shard_dir}"
        )
    # The artifact that initialises a new warehouse is also the loop's
    # first: it is read once.
    first = None
    fresh = not manifest_path(directory).exists()
    if fresh:
        first = read_shard_artifact(paths[0])
        manifest = WarehouseManifest(
            **first.grid.payload(), revision=1, frames=()
        )
    else:
        manifest = read_warehouse_manifest(directory)
    appended: list[str] = []
    skipped: list[str] = []
    for path in paths:
        if first is not None:
            artifact, first = first, None
        else:
            artifact = read_shard_artifact(path)
        # A foreign artifact is refused even where its points are
        # covered: skipping it would hide a mixed-up shard directory.
        manifest.grid.check(
            artifact.grid, WarehouseError, artifact.label, "the warehouse"
        )
        if manifest.covers(index_runs(set(artifact.dframe.indices))):
            # Fully covered (or legitimately empty) artifact: nothing
            # new to publish.
            skipped.append(path.name)
            continue
        manifest = append_shard_artifact(directory, artifact, manifest)
        appended.append(path.name)
    if fresh or appended:
        publish_manifest(directory, manifest)
    return manifest, appended, skipped


def build_warehouse(
    directory: Union[str, Path],
    grid: Union[SweepGrid, Iterable[DesignPoint]],
    candidate_factory,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    grid_spec: Optional[dict] = None,
) -> WarehouseManifest:
    """Run a sweep and materialise it as a one-frame warehouse.

    The offline indexing tier in one call: evaluates the grid and
    publishes the result.  For incremental builds from many
    hosts, run a shard queue instead and ingest the artifact directory
    (:func:`ingest_shard_directory`).
    """
    from .sweep import stream_decision_frames  # the engine

    grid = resolve_grid(grid)
    blocks = stream_decision_frames(
        grid,
        candidate_factory,
        reference=reference,
        weights=weights,
        cache=cache,
    )
    dframe = DecisionFrame.concat(list(blocks))
    init_warehouse(directory, grid, grid_spec=grid_spec)
    return append_decision_frame(directory, dframe)


# -- the reader -------------------------------------------------------


class FrameCache:
    """Thread-safe LRU of hot, memory-loaded frame files.

    Keyed by ``(resolved path, content digest)``.  Because frame files
    are immutable and content-addressed, a cached entry can *never* be
    stale — eviction exists only to bound memory.  Loads happen outside
    the lock (two threads racing the same cold frame may both parse it;
    both get correct data and one copy wins), so a slow disk read never
    blocks cache hits.
    """

    def __init__(self, capacity: int = 8) -> None:
        if not is_count(capacity, 1):
            raise WarehouseError(
                f"frame cache capacity must be a positive integer, "
                f"got {capacity!r}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, str], DecisionFrame]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def get(self, path: Union[str, Path], digest: str) -> DecisionFrame:
        """The frame at ``path`` (verified against ``digest``)."""
        key = (str(Path(path).resolve()), digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        dframe = read_warehouse_frame(path, expected_digest=digest)
        with self._lock:
            self.misses += 1
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            self._entries[key] = dframe
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return dframe

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def read_frame_entry(
    directory: Union[str, Path],
    entry: FrameEntry,
    cache: Optional[FrameCache] = None,
) -> DecisionFrame:
    """The frame file ``entry`` names, through ``cache`` when given,
    checked against the entry's digest, row count and runs."""
    path = Path(directory) / entry.file
    if cache is not None:
        dframe = cache.get(path, entry.digest)
    else:
        dframe = read_warehouse_frame(path, expected_digest=entry.digest)
    if len(dframe) != entry.rows:
        raise WarehouseError(
            f"{path}: frame carries {len(dframe)} rows but the manifest "
            f"records {entry.rows}"
        )
    if index_runs(dframe.indices) != entry.runs:
        raise WarehouseError(
            f"{path}: frame holds other points than the manifest's runs"
        )
    return dframe


def load_warehouse(
    directory: Union[str, Path],
    manifest: Optional[WarehouseManifest] = None,
    cache: Optional[FrameCache] = None,
) -> DecisionFrame:
    """The warehouse's frames merged into one canonical decision frame.

    Reads the manifest fresh (unless one is passed in), resolves every
    frame file (:func:`read_frame_entry`, through the
    :class:`FrameCache` when given) and merges into canonical point
    order.  Because the manifest names frame files by content digest,
    the result is consistent even while a writer is appending:
    whichever manifest revision was read, all its frame files are
    already durable.
    """
    if manifest is None:
        manifest = read_warehouse_manifest(directory)
    return merge_decision_frames(
        [
            read_frame_entry(directory, entry, cache)
            for entry in manifest.frames
        ]
    )
