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
  :meth:`~repro.core.sharding.GridIdentity.check` against the
  manifest.
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
  :func:`ingest_shard_directory`) land one frame file each; an
  artifact whose points are already covered is skipped, overlapping
  or foreign-grid artifacts are refused loudly.
* **Nothing in a warehouse is time-stamped or host-stamped.**  The
  same sweep produces byte-identical warehouse bytes anywhere, which
  is what lets the golden-response tests pin whole query payloads.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from ..errors import SpecificationError
from . import blobstore
# Re-exported: perfbench/workloads.py imports canonical_json from here.
from .blobstore import canonical_json  # noqa: F401
from .figure_of_merit import FomWeights
from .ranking import DecisionFrame
from .sharding import (
    GridIdentity,
    ShardArtifact,
    find_shard_artifacts,
    read_shard_artifact,
)
from .sweep import (
    DesignPoint,
    EvaluationCache,
    SweepGrid,
    resolve_sweep,
    stream_decision_frames,
)

#: Manifest format identifier; bumped on incompatible layout changes.
WAREHOUSE_FORMAT = "repro-warehouse/1"

#: Frame-file format identifier.
FRAME_FORMAT = "repro-warehouse-frame/1"

#: The manifest filename inside a warehouse directory.
MANIFEST_NAME = "warehouse.json"


class WarehouseError(SpecificationError):
    """The warehouse cannot be (safely) read or written."""


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
    :meth:`~repro.core.ranking.DecisionFrame.to_payload` codec (exact
    floats, no timestamps)."""
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
    plus a newline, so that hash is its digest.  A frame file written
    before blobs were canonical is parsed and re-digested instead.
    Either way a frame file that was tampered with, truncated by a
    non-atomic writer or mispaired with its name is a loud
    :class:`WarehouseError`, never silently wrong rows.
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


@dataclass(frozen=True)
class FrameEntry:
    """One frame file as the manifest records it."""

    file: str
    digest: str
    indices: tuple[int, ...]
    rows: int

    def __post_init__(self) -> None:
        blobstore.check_blob_name(self.file, WarehouseError, "frame entry")
        if not isinstance(self.rows, int) or isinstance(
            self.rows, bool
        ) or self.rows < 0:
            raise WarehouseError(
                f"frame entry rows must be a non-negative integer, "
                f"got {self.rows!r}"
            )
        for value in self.indices:
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < 0
            ):
                raise WarehouseError(
                    f"frame entry indices must be non-negative "
                    f"integers, got {value!r}"
                )


@dataclass(frozen=True)
class WarehouseManifest:
    """Everything the online tier needs to know about a warehouse.

    ``revision`` increments on every append, so a reader can cheaply
    tell whether anything changed; ``frames`` lists the
    content-addressed frame files with the canonical point indices
    each covers.  ``grid_spec`` optionally carries the CLI axis tokens
    (the queue-manifest discipline) so tooling can rebuild the grid.
    """

    fingerprint: str
    order_digest: str
    total_points: int
    revision: int
    frames: tuple[FrameEntry, ...] = ()
    grid_spec: Optional[dict] = None
    #: The point indices the frames cover, built by the overlap check
    #: and carried forward by :meth:`appended`, so that an appender
    #: never rebuilds it.
    covered: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for label, value, minimum in (
            ("total_points", self.total_points, 1),
            ("revision", self.revision, 1),
        ):
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < minimum
            ):
                raise WarehouseError(
                    f"warehouse manifest {label} must be an integer "
                    f">= {minimum}, got {value!r}"
                )
        seen: set[int] = set()
        for entry in self.frames:
            for index in entry.indices:
                if index >= self.total_points:
                    raise WarehouseError(
                        f"warehouse frame {entry.file} carries point "
                        f"index {index}, outside the "
                        f"{self.total_points}-point grid"
                    )
                if index in seen:
                    raise WarehouseError(
                        f"warehouse frames overlap on point index "
                        f"{index}"
                    )
                seen.add(index)
        object.__setattr__(self, "covered", frozenset(seen))

    def appended(self, entry: FrameEntry) -> "WarehouseManifest":
        """This manifest plus one frame, the revision bumped.

        The caller has checked ``entry.indices`` against the grid and
        :attr:`covered` (:func:`append_decision_frame` does), so the
        new manifest carries ``covered`` forward instead of walking
        every frame again: an append costs O(shard), not O(warehouse).
        """
        manifest = copy.copy(self)
        for name, value in (
            ("revision", self.revision + 1),
            ("frames", self.frames + (entry,)),
            ("covered", self.covered.union(entry.indices)),
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
        return len(self.covered)

    @property
    def complete(self) -> bool:
        """True when every grid point is covered."""
        return self.covered_points == self.total_points


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
                "indices": list(entry.indices),
                "rows": entry.rows,
            }
            for entry in manifest.frames
        ],
    }
    if manifest.grid_spec is not None:
        payload["grid_spec"] = manifest.grid_spec
    return payload


def payload_to_manifest(
    payload: dict, source: str = "<payload>"
) -> WarehouseManifest:
    """Rebuild a :class:`WarehouseManifest` from its JSON payload."""
    blobstore.check_payload(
        payload, WarehouseError, "warehouse manifest", source, WAREHOUSE_FORMAT
    )
    grid_spec = payload.get("grid_spec")
    if grid_spec is not None and not isinstance(grid_spec, dict):
        raise WarehouseError(
            f"{source}: warehouse manifest grid_spec must be an object"
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
                    indices=tuple(entry["indices"]),
                    rows=entry["rows"],
                )
                for entry in payload.get("frames", ())
            ),
            grid_spec=grid_spec,
        )
    except (KeyError, TypeError, SpecificationError) as exc:
        raise WarehouseError(
            f"{source}: malformed warehouse manifest ({exc})"
        ) from None


def manifest_path(directory: Union[str, Path]) -> Path:
    """The manifest path inside a warehouse directory."""
    return Path(directory) / MANIFEST_NAME


def read_warehouse_manifest(
    directory: Union[str, Path],
) -> WarehouseManifest:
    """Load the manifest of a warehouse directory."""
    return parse_warehouse_manifest(
        read_manifest_bytes(directory), directory
    )


def read_manifest_bytes(directory: Union[str, Path]) -> bytes:
    """The manifest file's raw bytes (see :func:`read_warehouse_manifest`)."""
    path = manifest_path(directory)
    try:
        return blobstore.read_bytes(path, WarehouseError, "warehouse manifest")
    except WarehouseError as exc:
        if path.exists():
            raise
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


def _publish_manifest(
    directory: Union[str, Path], manifest: WarehouseManifest
) -> WarehouseManifest:
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
    points, _, _ = resolve_sweep(grid)
    path = manifest_path(directory)
    if path.exists():
        raise WarehouseError(
            f"warehouse already initialised at {path}; append with "
            f"--from-shards / append_shard_artifact, or build into a "
            f"fresh directory"
        )
    return _publish_manifest(
        directory,
        WarehouseManifest(
            **GridIdentity.of(points).payload(),
            revision=1,
            frames=(),
            grid_spec=grid_spec,
        ),
    )


def _append_frame(
    directory: Path, manifest: WarehouseManifest, dframe: DecisionFrame
) -> WarehouseManifest:
    """The append step of :func:`append_decision_frame`, given the
    warehouse's current ``manifest``; returns the republished one."""
    fresh: set[int] = set()
    for index in dframe.indices:
        if index >= manifest.total_points:
            raise WarehouseError(
                f"frame carries point index {index}, outside the "
                f"{manifest.total_points}-point grid"
            )
        if index in manifest.covered:
            raise WarehouseError(
                f"warehouse already covers point index {index}; "
                f"appending the same shard twice?"
            )
        if index in fresh:
            raise WarehouseError(
                f"warehouse frames overlap on point index {index}"
            )
        fresh.add(index)
    payload = frame_payload(dframe, **manifest.grid.payload())
    name, digest = blobstore.put_blob(directory, frame_filename, payload)
    entry = FrameEntry(
        file=name,
        digest=digest,
        indices=dframe.indices,
        rows=len(dframe),
    )
    return _publish_manifest(directory, manifest.appended(entry))


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
    return _append_frame(
        directory, read_warehouse_manifest(directory), dframe
    )


def append_shard_artifact(
    directory: Union[str, Path],
    artifact: ShardArtifact,
    manifest: Optional[WarehouseManifest] = None,
) -> WarehouseManifest:
    """Append one shard artifact's results to a warehouse.

    ``manifest`` is the warehouse's current manifest when the caller
    already holds it — :func:`ingest_shard_directory` passes the one
    the previous append returned — and is read from disk otherwise.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = read_warehouse_manifest(directory)
    manifest.grid.check(
        artifact.grid, WarehouseError, artifact.label, "the warehouse"
    )
    return _append_frame(directory, manifest, artifact.dframe)


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
    costs one artifact of memory, not the whole sweep.  A malformed
    artifact therefore surfaces when its turn comes, after earlier
    artifacts were already published; re-running the ingest after
    fixing it skips those and continues — the idempotency the
    covered-points check provides.  The manifest is read once: each
    append returns the next one, covered set included.
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
    if not manifest_path(directory).exists():
        first = read_shard_artifact(paths[0])
        _publish_manifest(
            directory,
            WarehouseManifest(
                **first.grid.payload(),
                revision=1,
                frames=(),
            ),
        )
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
        if manifest.covered.issuperset(artifact.dframe.indices):
            # Fully covered (or legitimately empty) artifact: nothing
            # new to publish.
            skipped.append(path.name)
            continue
        manifest = append_shard_artifact(directory, artifact, manifest)
        appended.append(path.name)
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
    points, _, _ = resolve_sweep(grid)
    blocks = stream_decision_frames(
        points,
        candidate_factory,
        reference=reference,
        weights=weights,
        cache=cache,
    )
    dframe = DecisionFrame.concat(list(blocks))
    init_warehouse(directory, points, grid_spec=grid_spec)
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
        if (
            isinstance(capacity, bool)
            or not isinstance(capacity, int)
            or capacity < 1
        ):
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


def load_warehouse(
    directory: Union[str, Path],
    manifest: Optional[WarehouseManifest] = None,
    cache: Optional[FrameCache] = None,
) -> DecisionFrame:
    """The warehouse's frames merged into one canonical decision frame.

    Reads the manifest fresh (unless one is passed in), resolves every
    frame file — through the :class:`FrameCache` when given — and
    merges into canonical point order.  Because the manifest names
    frame files by content digest, the result is consistent even while
    a writer is appending: whichever manifest revision was read, all
    its frame files are already durable.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = read_warehouse_manifest(directory)
    frames = []
    for entry in manifest.frames:
        path = directory / entry.file
        if cache is not None:
            frames.append(cache.get(path, entry.digest))
        else:
            frames.append(
                read_warehouse_frame(path, expected_digest=entry.digest)
            )
    return merge_decision_frames(frames)
