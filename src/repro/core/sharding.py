"""Cross-host sharding of design-space sweeps.

This module scales a sweep across *hosts*: a grid is partitioned into
content-addressed shards, each shard is executed anywhere — any
machine, through the serial engine of :mod:`repro.core.executors` —
and serialised to a portable JSON artifact, and the artifacts are
deterministically merged back into the canonical row order, wherever
they were produced:

* :func:`grid_fingerprint` — a stable content hash of the resolved
  grid.  It is computed over the *sorted* point representations, so
  the same set of design points yields the same fingerprint no matter
  how the grid's axes were ordered when it was built; every shard
  artifact carries it, and merge refuses to combine artifacts from
  different grids.  Because shard *indices* are order-dependent,
  artifacts also carry an order-sensitive :func:`grid_order_digest`:
  shards of the same grid enumerated in different axis orders are
  rejected with a clear error instead of being mis-paired;
* :func:`shard_indices` / :func:`run_shard` — partition the canonical
  point order into ``shards`` contiguous, near-even runs and evaluate
  one of them, returning a
  :class:`ShardArtifact`;
* :func:`write_shard_artifact` / :func:`read_shard_artifact` — the
  JSON serialisation.  Artifacts carry the shard's results as the
  *columnar* payload of a :class:`~repro.core.resultframe.ResultFrame`
  (one list per typed column, not one object per row); Python's JSON
  round-trips floats exactly (``repr``-based), so frames reassembled
  from artifacts are *byte-identical* to what the serial engine would
  have produced in-process.  Artifacts are published and read through
  :mod:`repro.core.blobstore` (atomic ``.tmp`` + fsync +
  :func:`os.replace` writes, strict reads), so a concurrent reader —
  the incremental gather service polls shard directories — never
  observes a half-written artifact;
* :func:`check_shard_cover` — the one validator both merges share: the
  artifacts' identities must name one grid in one order, and their
  indices must cover it exactly once (a missing or doubled shard is a
  loud :class:`ShardMergeError`, never a silently wrong report);
* :func:`merge_shard_artifacts` — reassemble any combination of
  artifacts into one :class:`~repro.core.sweep.SweepReport` with a
  single vectorised frame concatenation + stable sort into canonical
  point order, with additive cache statistics that count a sub-result
  computed by two cold shard caches only once in the merged
  ``entries`` tally.

The CLI surface is ``repro-gps sweep --shards K --shard-index I
--shard-dir DIR`` (run one shard, write the artifact; add ``--resume``
to skip the run when a valid artifact for the same grid and shard is
already there) and ``repro-gps sweep --merge DIR`` (combine
artifacts); see ``docs/sweep-guide.md`` for the shard → scp → merge
walkthrough.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..errors import SpecificationError
from . import blobstore
from .executors import CandidateFactory, Executor, SerialExecutor
from .figure_of_merit import FomWeights
from .ranking import DecisionFrame, check_point_runs, point_of_row
from .resultframe import ResultFrame
from .sweep import (
    CACHE_TABLES,
    DesignPoint,
    EvaluationCache,
    SweepGrid,
    SweepReport,
    resolve_sweep,
)

#: Artifact format identifier; bumped on incompatible payload changes.
#: Version 2 replaced the per-row ``cells`` objects with the columnar
#: :class:`~repro.core.resultframe.ResultFrame` payload.
SHARD_FORMAT = "repro-sweep-shard/2"


class ShardMergeError(SpecificationError):
    """A shard artifact set cannot be (safely) merged."""


def _point_reprs(points: Sequence[DesignPoint]) -> list[str]:
    return [repr(point) for point in points]


def grid_fingerprint(points: Sequence[DesignPoint]) -> str:
    """Stable content hash of a resolved grid.

    Hashes the *sorted* ``repr`` of every design point (the same
    content key discipline :class:`~repro.core.sweep.EvaluationCache`
    relies on), so the fingerprint identifies the grid's content
    independently of axis ordering: a host that builds the same set of
    points with its volume axis reversed still addresses the same
    shard family.  Shard *indices* do depend on the order, which is
    why artifacts additionally carry :func:`grid_order_digest` — merge
    uses the fingerprint to recognise the grid and the order digest to
    refuse index spaces that do not line up.
    """
    digest = hashlib.sha256()
    for text in sorted(_point_reprs(points)):
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def grid_order_digest(points: Sequence[DesignPoint]) -> str:
    """Hash of the grid's *canonical order* (order-sensitive).

    Two hosts that build the same point set with axes in different
    orders share a :func:`grid_fingerprint` but disagree on which
    canonical index names which point — merging their shards
    index-wise would assemble a silently wrong report.  The order
    digest catches exactly that: merge demands it match across
    artifacts, so an axis-order mismatch is a loud error naming the
    cause instead of a duplicated/missing design point.
    """
    digest = hashlib.sha256()
    for text in _point_reprs(points):
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def shard_indices(total: int, shards: int, shard_index: int) -> range:
    """Canonical point indices of one shard.

    The canonical order is split into ``shards`` contiguous, near-even
    runs, front-loaded, so neighbouring points — which share memoised
    sub-results — stay together.  Shards beyond the point count are
    legitimately empty: four shards of a three-point grid produce one
    empty artifact that merges cleanly.
    """
    if shards < 1:
        raise SpecificationError(
            f"shard count must be a positive integer, got {shards}"
        )
    if not (0 <= shard_index < shards):
        raise SpecificationError(
            f"shard index {shard_index} out of range for {shards} shards"
        )
    base, extra = divmod(total, shards)
    start = shard_index * base + min(shard_index, extra)
    stop = start + base + (1 if shard_index < extra else 0)
    return range(start, stop)


@dataclass(frozen=True)
class ShardIdentity:
    """What a merge validates about one artifact: no rows, no cache."""

    fingerprint: str
    order_digest: str
    total_points: int
    shards: int
    shard_index: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ShardArtifact:
    """One shard's results, ready to travel between hosts.

    Carries everything a merge needs and nothing it does not: the grid
    fingerprint (content addressing), the shard geometry, the shard's
    results as one columnar
    :class:`~repro.core.resultframe.ResultFrame` (``frame``, with
    ``row_counts[k]`` rows belonging to canonical point
    ``indices[k]``, in order), and the worker cache's
    :meth:`~repro.core.sweep.EvaluationCache.portable_state` (hit/miss
    counters plus entry-key digests — never cached values).
    """

    fingerprint: str
    order_digest: str
    shards: int
    shard_index: int
    total_points: int
    indices: tuple[int, ...]
    row_counts: tuple[int, ...]
    frame: ResultFrame
    cache_state: dict
    #: Optional per-row FoM input ratios (``size_ratio`` /
    #: ``cost_ratio`` → one float tuple each, aligned with the frame).
    #: Written by every current :func:`run_shard`; ``None`` on
    #: artifacts produced before the warehouse tier existed — merge
    #: does not need them, the warehouse appender does.
    ratios: Optional[dict] = None

    def __post_init__(self) -> None:
        for label, value, minimum in (
            ("shards", self.shards, 1),
            ("shard_index", self.shard_index, 0),
            ("total_points", self.total_points, 0),
        ):
            # Exact ints only: a string would crash the merge's index
            # comparisons with a raw numpy error, a float pass silently.
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < minimum
            ):
                raise SpecificationError(
                    f"shard artifact {label} must be an integer "
                    f">= {minimum}, got {value!r}"
                )
        check_point_runs(
            "shard artifact", self.indices, self.row_counts, len(self.frame)
        )
        if self.ratios is not None:
            if not isinstance(self.ratios, dict) or set(self.ratios) != {
                "size_ratio",
                "cost_ratio",
            }:
                raise SpecificationError(
                    "shard artifact ratios must map exactly "
                    "size_ratio and cost_ratio to value lists, got "
                    f"{self.ratios!r:.120}"
                )
            for name, values in self.ratios.items():
                if len(values) != len(self.frame):
                    raise SpecificationError(
                        f"shard artifact {name} carries {len(values)} "
                        f"values but the frame carries "
                        f"{len(self.frame)} rows"
                    )
                for value in values:
                    # Exact floats only: the warehouse re-rank kernel
                    # divides by these, so a string or bool must fail
                    # here, not as a numpy cast surprise later.
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        raise SpecificationError(
                            f"shard artifact {name} values must be "
                            f"numbers, got {value!r}"
                        )

    @property
    def identity(self) -> ShardIdentity:
        """The artifact's grid identity and indices, frame dropped."""
        return ShardIdentity(
            self.fingerprint, self.order_digest, self.total_points,
            self.shards, self.shard_index, self.indices,
        )


def run_shard(
    grid: Union[SweepGrid, Iterable[DesignPoint]],
    candidate_factory: CandidateFactory,
    shards: int,
    shard_index: int,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    executor: Optional[Executor] = None,
) -> ShardArtifact:
    """Evaluate one shard of a grid and package it for merging.

    The full grid is resolved locally (cheap — points are tiny frozen
    dataclasses) so the shard knows its canonical indices and the
    grid fingerprint; only the shard's own points are evaluated,
    through ``executor`` (serial by default).
    """
    points, weights, cache = resolve_sweep(grid, weights, cache)
    if executor is None:
        executor = SerialExecutor()
    indices = shard_indices(len(points), shards, shard_index)
    shard_points = [points[i] for i in indices]
    dframe = DecisionFrame.empty()
    if shard_points:
        dframe = executor.run_sweep(
            shard_points, candidate_factory, reference, weights, cache
        )
    return ShardArtifact(
        fingerprint=grid_fingerprint(points),
        order_digest=grid_order_digest(points),
        shards=shards,
        shard_index=shard_index,
        total_points=len(points),
        indices=tuple(indices),
        row_counts=dframe.row_counts,
        frame=dframe.frame,
        cache_state=cache.portable_state(),
        ratios={
            name: tuple(getattr(dframe, name).tolist())
            for name in ("size_ratio", "cost_ratio")
        },
    )


def artifact_to_payload(artifact: ShardArtifact) -> dict:
    """The artifact as a JSON-ready dict (see :data:`SHARD_FORMAT`).

    The shard's results travel as the frame's columnar payload —
    ``columns`` maps each :class:`~repro.core.resultframe.SweepRow`
    field to one flat value list — plus ``indices``/``row_counts``
    assigning runs of rows to canonical grid points.  Floats are
    emitted with ``repr`` by the JSON encoder, so the round-trip is
    exact.
    """
    payload = {
        "format": SHARD_FORMAT,
        "fingerprint": artifact.fingerprint,
        "order_digest": artifact.order_digest,
        "shards": artifact.shards,
        "shard_index": artifact.shard_index,
        "total_points": artifact.total_points,
        "indices": list(artifact.indices),
        "row_counts": list(artifact.row_counts),
        "columns": artifact.frame.to_json_columns(),
        "cache": artifact.cache_state,
    }
    if artifact.ratios is not None:
        # Additive, still format 2: readers without warehouse support
        # ignore the key, old artifacts without it stay loadable.
        payload["ratios"] = {
            name: list(values) for name, values in artifact.ratios.items()
        }
    return payload


def payload_to_artifact(payload: dict, source: str = "<payload>") -> ShardArtifact:
    """Rebuild a :class:`ShardArtifact` from its JSON payload.

    ``source`` names the artifact in error messages (the file path
    when loaded from disk).
    """
    blobstore.check_payload(
        payload, ShardMergeError, "shard artifact", source, SHARD_FORMAT
    )
    try:
        raw_ratios = payload.get("ratios")
        ratios = None
        if raw_ratios is not None:
            if not isinstance(raw_ratios, dict):
                raise TypeError("ratios must be an object")
            ratios = {
                str(name): tuple(values)
                for name, values in raw_ratios.items()
            }
        return ShardArtifact(
            fingerprint=payload["fingerprint"],
            order_digest=payload["order_digest"],
            shards=payload["shards"],
            shard_index=payload["shard_index"],
            total_points=payload["total_points"],
            indices=tuple(payload["indices"]),
            row_counts=tuple(payload["row_counts"]),
            frame=ResultFrame.from_json_columns(payload["columns"]),
            cache_state=payload.get("cache", {}),
            ratios=ratios,
        )
    except (KeyError, TypeError, ValueError, SpecificationError) as exc:
        # ValueError covers wrong-typed column values (numpy's cast
        # failures); everything malformed surfaces as ShardMergeError.
        raise ShardMergeError(
            f"{source}: malformed shard artifact ({exc})"
        ) from None


def shard_filename(shards: int, shard_index: int) -> str:
    """Canonical artifact filename: ``shard-0001-of-0004.json``."""
    return f"shard-{shard_index:04d}-of-{shards:04d}.json"


def write_shard_artifact(
    path: Union[str, Path], artifact: ShardArtifact
) -> Path:
    """Serialise a shard artifact to ``path`` (JSON, exact floats).

    Published with :func:`repro.core.blobstore.write_json`: a reader
    polling the directory sees either no artifact or a complete one,
    and a writer killed at any instant leaves the destination untouched
    (including a previous valid artifact it was about to replace).
    """
    return blobstore.write_json(path, artifact_to_payload(artifact))


def read_shard_artifact(path: Union[str, Path]) -> ShardArtifact:
    """Load one shard artifact, with path context on every failure."""
    payload = blobstore.read_json(path, ShardMergeError, "shard artifact")
    return payload_to_artifact(payload, source=str(path))


def artifact_matches(
    artifact: ShardArtifact,
    *,
    fingerprint: str,
    order_digest: str,
    shards: int,
    shard_index: int,
    total_points: int,
) -> bool:
    """Does an artifact cover exactly this shard of this grid?

    The single validity predicate behind ``--resume``'s skip-if-valid,
    the work queue's "already done" check and the gather service's
    artifact validation: the artifact must fingerprint the same grid in
    the same canonical order and describe exactly the requested shard
    of the requested partition.
    """
    return (
        artifact.fingerprint == fingerprint
        and artifact.order_digest == order_digest
        and artifact.shards == shards
        and artifact.shard_index == shard_index
        and artifact.total_points == total_points
    )


def find_pending_artifacts(directory: Union[str, Path]) -> list[Path]:
    """All in-flight (``PENDING``) artifact temp files in a directory.

    Watchers use this for progress display only — a pending file means
    a writer is (or was) mid-serialisation; its content is unreadable
    by contract.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ShardMergeError(
            f"shard directory {directory} does not exist"
        )
    return sorted(directory.glob("shard-*.json.tmp"))


def find_shard_artifacts(directory: Union[str, Path]) -> list[Path]:
    """All ``shard-*.json`` artifacts in a directory, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ShardMergeError(
            f"shard directory {directory} does not exist"
        )
    return sorted(directory.glob("shard-*.json"))


def merge_cache_states(states: Iterable[dict]) -> dict:
    """Fold shard cache states into one whole-sweep stats report.

    Hit/miss counters are additive across shards (each lookup happened
    exactly once, on some host); distinct entries are the *union* of
    the per-shard entry-key digests, so a sub-result that two cold
    shard caches both computed — the same content key, memoised
    independently — counts once, exactly as it would have under one
    shared in-process cache.  The result has the
    :meth:`~repro.core.sweep.EvaluationCache.stats` shape.
    """
    hits = {name: 0 for name in CACHE_TABLES}
    misses = {name: 0 for name in CACHE_TABLES}
    keys: dict[str, set] = {name: set() for name in CACHE_TABLES}
    for state in states:
        tables = state.get("tables", {})
        for name in CACHE_TABLES:
            table = tables.get(name, {})
            hits[name] += int(table.get("hits", 0))
            misses[name] += int(table.get("misses", 0))
            keys[name].update(table.get("keys", ()))
    return {
        "hits": sum(hits.values()),
        "misses": sum(misses.values()),
        "tables": {
            name: {
                "hits": hits[name],
                "misses": misses[name],
                "entries": len(keys[name]),
            }
            for name in CACHE_TABLES
        },
    }


def summarise_indices(indices: Sequence[int], limit: int = 20) -> str:
    """Comma-list of point indices, capped so error messages stay
    readable on huge grids."""
    listed = ", ".join(str(i) for i in indices[:limit])
    if len(indices) > limit:
        listed += f", … and {len(indices) - limit} more"
    return listed


ArtifactLike = Union[ShardArtifact, str, Path]


def load_artifact(artifact: ArtifactLike) -> ShardArtifact:
    """An in-memory artifact as is, or the one read from a path."""
    if isinstance(artifact, ShardArtifact):
        return artifact
    return read_shard_artifact(artifact)


def check_shard_cover(identities: Sequence[ShardIdentity]) -> ShardIdentity:
    """Refuse shard identities that do not tile one grid exactly once.

    The single validator behind both merges — the in-RAM
    :func:`merge_shard_artifacts` and the streaming
    :func:`~repro.core.framestore.merge_artifacts_to_store`.  It sees
    only identities and indices, never frames, so the streaming merge
    can validate while holding one artifact at a time.  Returns the
    first identity (the grid every other one matched).

    Raises
    ------
    ShardMergeError
        If no artifacts are given, the artifacts fingerprint different
        grids, enumerate them in different orders, disagree on the
        grid size, carry an index outside the grid, cover a canonical
        index twice (duplicated shard), or leave indices uncovered
        (missing shard).  The message names the offending indices so
        the operator knows which shard to re-run or drop.
    """
    if not identities:
        raise ShardMergeError("no shard artifacts to merge")
    reference = identities[0]
    for identity in identities[1:]:
        if identity.fingerprint != reference.fingerprint:
            raise ShardMergeError(
                f"shard artifacts fingerprint different grids: "
                f"{reference.fingerprint} (shard "
                f"{reference.shard_index}/{reference.shards}) vs "
                f"{identity.fingerprint} (shard "
                f"{identity.shard_index}/{identity.shards})"
            )
        if identity.order_digest != reference.order_digest:
            # Same point set, different canonical order: index-wise
            # merging would pair rows with the wrong points.
            raise ShardMergeError(
                f"shard artifacts enumerate the same grid in a "
                f"different point order (order digest "
                f"{reference.order_digest} vs {identity.order_digest}): "
                f"re-run the shards with identically-ordered axes"
            )
        if identity.total_points != reference.total_points:
            raise ShardMergeError(
                f"shard artifacts disagree on the grid size: "
                f"{reference.total_points} vs {identity.total_points} "
                f"points"
            )

    total = reference.total_points
    for identity in identities:
        indices = np.asarray(identity.indices, dtype=np.int64)
        if indices.size and (
            indices.min() < 0 or indices.max() >= total
        ):
            outside = int(
                indices[(indices < 0) | (indices >= total)][0]
            )
            raise ShardMergeError(
                f"shard {identity.shard_index}/{identity.shards} "
                f"carries point index {outside}, outside the "
                f"{total}-point grid"
            )

    all_indices = np.concatenate(
        [np.asarray(i.indices, dtype=np.int64) for i in identities]
    )
    covered, counts = np.unique(all_indices, return_counts=True)
    duplicates = covered[counts > 1]
    if duplicates.size:
        raise ShardMergeError(
            f"duplicated point indices across shard artifacts: "
            f"{summarise_indices(duplicates.tolist())} "
            f"(the same shard was merged twice?)"
        )
    if covered.size != total:
        coverage = np.zeros(total, dtype=bool)
        coverage[covered] = True
        missing = np.flatnonzero(~coverage).tolist()
        raise ShardMergeError(
            f"missing point indices {summarise_indices(missing)} of "
            f"{total}: a shard artifact was not merged"
        )
    return reference


def frame_in_point_order(artifacts: Sequence[ShardArtifact]) -> ResultFrame:
    """The artifacts' rows in canonical point order (at least one).

    Concatenates the shard frames, whatever order they arrived in, then
    stable-sorts rows by their canonical point index.  Each point lives
    in one artifact with its rows contiguous there, so the stable sort
    reproduces the serial row order exactly.
    """
    point = np.concatenate(
        [point_of_row(a.indices, a.row_counts) for a in artifacts]
    )
    merged = ResultFrame.concat([a.frame for a in artifacts])
    return merged.take(np.argsort(point, kind="stable"))


def merge_shard_artifacts(
    artifacts: Iterable[ArtifactLike],
) -> SweepReport:
    """Reassemble shard artifacts into one canonical sweep report.

    Accepts in-memory artifacts, file paths, or a mix, in *any* order
    — produced by one host or many.  The merge is deterministic: rows
    come back in the canonical grid order whatever order the shards
    ran or arrived in, byte-identical to a serial in-process sweep of
    the same grid.  Reassembly is columnar: one vectorised
    :meth:`~repro.core.resultframe.ResultFrame.concat` over the shard
    frames followed by a stable sort on the canonical point index —
    no per-row object is ever materialised, so merging hundreds of
    10k-row artifacts costs numpy passes, not Python loops.

    Raises :class:`ShardMergeError` for any set that
    :func:`check_shard_cover` refuses.
    """
    loaded = [load_artifact(artifact) for artifact in artifacts]
    check_shard_cover([artifact.identity for artifact in loaded])

    return SweepReport(
        frame=frame_in_point_order(loaded),
        cache_stats=merge_cache_states(
            artifact.cache_state for artifact in loaded
        ),
    )

