"""Cross-host sharding of design-space sweeps.

This module scales a sweep across *hosts*: a grid is partitioned into
content-addressed shards, each shard is executed anywhere — any
machine, through the one sweep engine
(:func:`~repro.core.sweep.evaluate_cells`) — and serialised to a
portable JSON artifact, and the artifacts are deterministically merged
back into the canonical row order, wherever they were produced.
Every artifact names its grid by a
:class:`~repro.core.grid.GridIdentity` (fingerprint, order digest,
point count); only :func:`run_shard` evaluates, and it alone imports
the engine, so reading, checking and merging artifacts loads no model
module:

* :func:`shard_indices` / :func:`run_shard` — partition the canonical
  point order into ``shards`` contiguous, near-even runs and evaluate
  one of them, returning a :class:`ShardArtifact`: a grid identity,
  the shard geometry, the shard's
  :class:`~repro.core.ranking.DecisionFrame` and its cache state;
* :func:`write_shard_artifact` / :func:`read_shard_artifact` — the
  JSON serialisation.  The results travel through the decision
  frame's own codec (:meth:`~repro.core.ranking.DecisionFrame.
  to_payload`), the one warehouse frame files use; its numeric columns
  are packed IEEE doubles, so frames reassembled from artifacts are
  *byte-identical* to what the serial engine would have produced
  in-process.  Artifacts are published and read through
  :mod:`repro.core.blobstore` (atomic ``.tmp`` + fsync +
  :func:`os.replace` writes, strict reads), so a concurrent reader —
  the incremental gather service polls shard directories — never
  observes a half-written artifact;
* :class:`ShardCover` — the one account every consumer of artifacts
  (both merges, both gathers, the warehouse) adds them to, one at a
  time: one grid in one order, the pinned partition, the index range,
  the overlaps, the final gaps and that each artifact holds its
  shard's points (:func:`shard_misfit`).  Each consumer holds only its
  :class:`CoverPolicy` — the merges' :data:`MERGE_COVER` refuses any
  overlap (a missing or doubled shard is a loud
  :class:`ShardMergeError`, never a silently wrong report), the gather
  drops a repeated shard index and pins the partition, the warehouse
  refuses points it already covers.  :func:`matching_artifact` is the
  one "is this shard I/K of grid G" check (``--resume``, the queue);
* :func:`merge_shard_artifacts` — reassemble any combination of
  artifacts into one :class:`~repro.core.grid.SweepReport` from
  :func:`frames_in_point_order`, the one ordered pass both merges read
  artifacts through (once each, in shard order), with additive cache
  statistics that count a sub-result computed by two cold shard
  caches only once in the merged ``entries`` tally.

The CLI surface is ``repro-gps sweep --shards K --shard-index I
--shard-dir DIR`` (run one shard, write the artifact; add ``--resume``
to skip the run when a valid artifact for the same grid and shard is
already there) and ``repro-gps sweep --merge DIR`` (combine
artifacts); see ``docs/sweep-guide.md`` for the shard → scp → merge
walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from ..errors import SpecificationError
from . import blobstore
from .grid import CACHE_TABLES, GridIdentity, SweepReport
from .ranking import DecisionFrame
from .resultframe import ResultFrame

if TYPE_CHECKING:
    from .figure_of_merit import FomWeights
    from .grid import DesignPoint, SweepGrid
    from .sweep import CandidateFactory, EvaluationCache

#: Artifact format identifier; bumped on incompatible payload changes.
#: Version 2 replaced the per-row ``cells`` objects with the columnar
#: frame payload; version 3 packs its numeric columns
#: (:func:`~repro.core.resultframe.pack_column`).
SHARD_FORMAT = "repro-sweep-shard/3"

#: How every refusal of a shard artifact ends: the artifact is derived
#: data, and the shard run regenerates it.
RERUN_SHARD = "re-run the shard to regenerate the artifact"


class ShardMergeError(SpecificationError):
    """A shard artifact set cannot be (safely) merged."""


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


def shard_misfit(
    indices: Sequence[int], total: int, shards: int, shard_index: int
) -> str:
    """Why ``indices`` are not shard ``shard_index`` of ``shards`` of a
    ``total``-point grid (``""``: they are).  Compares the smallest and
    largest index and the count — O(len(indices)), never sized by
    ``total``; for indices named once each, a match is the same set."""
    want = range(0)
    if shard_index < shards:
        want = shard_indices(total, shards, shard_index)
    size = want.stop - want.start  # len() overflows on a claimed 10^20
    ends = (min(indices), max(indices) + 1) if indices else ()
    if len(indices) == size and ends in ((), (want.start, want.stop)):
        return ""
    return (
        f"holds point indices {summarise_indices(sorted(indices))} where "
        f"shard {shard_index}/{shards} of a {total}-point grid holds "
        f"{size} from {want.start}"
    )


@dataclass(frozen=True)
class ShardArtifact:
    """One shard's results, ready to travel between hosts.

    A :class:`~repro.core.grid.GridIdentity` (content addressing), the
    shard geometry, the shard's
    :class:`~repro.core.ranking.DecisionFrame` — rows, FoM
    ratios and the canonical point index of every run of rows — and
    the worker cache's
    :meth:`~repro.core.sweep.EvaluationCache.portable_state` (hit/miss
    counters plus entry-key digests — never cached values).
    """

    grid: GridIdentity
    shards: int
    shard_index: int
    dframe: DecisionFrame
    cache_state: dict

    def __post_init__(self) -> None:
        for label, value in (
            ("fingerprint", self.grid.fingerprint),
            ("order_digest", self.grid.order_digest),
        ):
            if not isinstance(value, str):
                raise SpecificationError(
                    f"shard artifact {label} must be a string, got "
                    f"{value!r}"
                )
        for label, value, minimum in (
            ("shards", self.shards, 1),
            ("shard_index", self.shard_index, 0),
            ("total_points", self.grid.total_points, 0),
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
        _check_cache_state(self.cache_state)

    @property
    def label(self) -> str:
        """``shard I/K``, how messages name the artifact."""
        return f"shard {self.shard_index}/{self.shards}"


def _check_cache_state(state) -> None:
    """Refuse a cache section that is not a
    :meth:`~repro.core.sweep.EvaluationCache.portable_state`: an object
    whose ``tables`` map to ``{hits: int, misses: int, keys: [str]}``."""
    tables = state.get("tables", {}) if isinstance(state, dict) else None
    if not isinstance(tables, dict):
        raise SpecificationError(
            f"shard artifact cache must be an object with a tables "
            f"object, got {state!r:.60}"
        )
    for name, table in tables.items():
        if not (
            isinstance(table, dict)
            and set(table) == {"hits", "misses", "keys"}
            and type(table["hits"]) is int
            and type(table["misses"]) is int
            and isinstance(table["keys"], list)
            and set(map(type, table["keys"])) <= {str}
        ):
            raise SpecificationError(
                f"shard artifact cache table {name!r} must be "
                f"{{hits: int, misses: int, keys: [str]}}, got "
                f"{table!r:.60}"
            )


def run_shard(
    grid: Union[SweepGrid, Iterable[DesignPoint]],
    candidate_factory: CandidateFactory,
    shards: int,
    shard_index: int,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> ShardArtifact:
    """Evaluate one shard of a grid and package it for merging.

    The full grid is resolved locally (cheap — points are tiny frozen
    dataclasses) so the shard knows its canonical indices and the
    grid identity; only the shard's own points are evaluated.
    """
    from .sweep import evaluate_cells, resolve_sweep  # the engine

    points, weights, cache = resolve_sweep(grid, weights, cache)
    indices = shard_indices(len(points), shards, shard_index)
    shard_points = [points[i] for i in indices]
    return ShardArtifact(
        grid=GridIdentity.of(points),
        shards=shards,
        shard_index=shard_index,
        dframe=evaluate_cells(
            shard_points, candidate_factory, reference, weights, cache,
            indices,
        ),
        cache_state=cache.portable_state(),
    )


def artifact_to_payload(artifact: ShardArtifact) -> dict:
    """The artifact as a JSON-ready dict (see :data:`SHARD_FORMAT`).

    The grid identity and shard geometry, then the decision frame's
    :meth:`~repro.core.ranking.DecisionFrame.to_payload` with the cache
    state between its columns and its ratios (the key order is part of
    the artifact's bytes).
    """
    body = artifact.dframe.to_payload()
    ratios = body.pop("ratios")
    grid = artifact.grid
    return {
        "format": SHARD_FORMAT,
        "fingerprint": grid.fingerprint,
        "order_digest": grid.order_digest,
        "shards": artifact.shards,
        "shard_index": artifact.shard_index,
        "total_points": grid.total_points,
        **body,
        "cache": artifact.cache_state,
        "ratios": ratios,
    }


def payload_to_artifact(payload: dict, source: str = "<payload>") -> ShardArtifact:
    """Rebuild a :class:`ShardArtifact` from its JSON payload.

    ``source`` names the artifact in error messages (the file path
    when loaded from disk).  Everything malformed — another
    :data:`SHARD_FORMAT` (an older release's artifact), the decision
    frame's refusals, a wrong-typed identity or geometry, a cache
    section that is not a cache state — is a one-line
    :class:`ShardMergeError` that names the re-run.
    """
    blobstore.check_payload(
        payload,
        ShardMergeError,
        "shard artifact",
        source,
        SHARD_FORMAT,
        RERUN_SHARD,
    )
    try:
        return ShardArtifact(
            grid=GridIdentity.from_payload(payload),
            shards=payload["shards"],
            shard_index=payload["shard_index"],
            dframe=DecisionFrame.from_payload(payload),
            cache_state=payload.get("cache", {}),
        )
    except (KeyError, SpecificationError) as exc:
        raise ShardMergeError(
            f"{source}: malformed shard artifact ({exc}); {RERUN_SHARD}"
        ) from None


def shard_filename(shards: int, shard_index: int) -> str:
    """Canonical artifact filename: ``shard-0001-of-0004.json``."""
    return f"shard-{shard_index:04d}-of-{shards:04d}.json"


def write_shard_artifact(
    path: Union[str, Path], artifact: ShardArtifact
) -> Path:
    """Serialise a shard artifact to ``path`` (one JSON line).

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


def find_pending_artifacts(directory: Union[str, Path]) -> list[Path]:
    """All in-flight (``PENDING``) artifact temp files in a directory.

    Watchers use this for progress display only — a pending file means
    a writer is (or was) mid-serialisation; its content is unreadable
    by contract.
    """
    return _listed(directory, "shard-*.json.tmp")


def find_shard_artifacts(directory: Union[str, Path]) -> list[Path]:
    """All ``shard-*.json`` artifacts in a directory, sorted by name."""
    return _listed(directory, "shard-*.json")


def _listed(directory: Union[str, Path], pattern: str) -> list[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        raise ShardMergeError(f"shard directory {directory} does not exist")
    return sorted(directory.glob(pattern))


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


def summarise_missing(
    covered: Sequence[int], total: int, limit: int = 20
) -> str:
    """:func:`summarise_indices` of the indices of ``range(total)`` not
    in ``covered`` (sorted, distinct, all inside the range).

    The listed head is read off the gaps between covered indices, so
    the cost is O(len(covered)) whatever ``total`` claims — a foreign
    artifact's point count never sizes an allocation.
    """
    head: list[int] = []
    previous = -1
    for index in [*covered, total]:
        room = limit - len(head)
        head.extend(range(previous + 1, min(index, previous + 1 + room)))
        if len(head) == limit:
            break
        previous = index
    more = total - len(covered) - limit
    return summarise_indices(head, limit) + (
        f", … and {more} more" if more > 0 else ""
    )


ArtifactLike = Union[ShardArtifact, str, Path]


def load_artifact(artifact: ArtifactLike) -> ShardArtifact:
    """An in-memory artifact as is, or the one read from a path."""
    if isinstance(artifact, ShardArtifact):
        return artifact
    return read_shard_artifact(artifact)


@dataclass(frozen=True)
class CoverPolicy:
    """One consumer's rules on top of a :class:`ShardCover`.

    ``by_shard``: artifacts are named by their file, the first pins the
    partition and a shard index seen before is a repeat, dropped
    unchecked.  Every other overlap is refused.  Refusals are ``error``
    worded by
    ``overlap`` (``{label}``, ``{first}``, the sorted ``{indices}``),
    ``self_overlap`` (one artifact naming a point twice; default
    ``overlap``) and ``incomplete`` (``{missing}`` of ``{total}``).

    ``refuse_misfit``: an artifact whose points are not its shard's
    (:func:`shard_misfit`) is refused when it is added, after every
    other check, instead of when the cover is required complete — for
    a consumer that retries a refused file once it is rewritten.
    """

    error: type
    overlap: str
    incomplete: str = ""
    self_overlap: Optional[str] = None
    by_shard: bool = False
    refuse_misfit: bool = False


class ShardCover:
    """Which points of one grid a stream of artifacts covers.

    Each artifact (or warehouse frame) is added on its own, so a
    streaming consumer holds only indices.  :meth:`add` checks it
    against the grid (``grid``, else the first one added;
    :meth:`~repro.core.grid.GridIdentity.check`), the pinned partition
    and the index range, then classifies its overlap;
    :meth:`require_complete` refuses the gaps (:func:`summarise_missing`,
    so a claimed ``total_points`` never sizes an allocation), then the
    first artifact not holding its shard's points (:func:`shard_misfit`,
    named last so a forged header keeps any older refusal) — unless the
    policy refuses such an artifact as it is added.  A refused artifact
    leaves the cover as it was.
    """

    def __init__(
        self,
        policy: CoverPolicy,
        grid: Optional[GridIdentity] = None,
        source: str = "",
        shards: Optional[int] = None,
        covered: Iterable[int] = (),
    ) -> None:
        self.policy = policy
        self.grid, self._source, self.shards = grid, source, shards
        self.covered: set[int] = set(covered)
        self._shard_indices: set[int] = set()
        self._misfit = ""

    def add_artifact(
        self, artifact: ShardArtifact, source: ArtifactLike
    ) -> bool:
        """:meth:`add` ``artifact``, read from ``source`` (its path or
        file name, or the artifact itself)."""
        label = artifact.label
        if self.policy.by_shard:
            label = (
                Path(source).name
                if isinstance(source, (str, Path))
                else "<memory>"
            )
        return self.add(
            label,
            artifact.dframe.indices,
            artifact.grid,
            artifact.shards,
            artifact.shard_index,
        )

    def add(
        self,
        label: str,
        indices: Sequence[int],
        grid: Optional[GridIdentity] = None,
        shards: Optional[int] = None,
        shard_index: Optional[int] = None,
    ) -> bool:
        """Take the points ``label`` carries (``False``: a repeat,
        dropped), or raise the policy's error."""
        policy, error = self.policy, self.policy.error
        if grid is not None and self.grid is not None:
            self.grid.check(grid, error, label, self._source)
        pinned = shards if self.shards is None else self.shards
        if policy.by_shard:
            if shards != pinned:
                raise error(
                    f"{label}: artifact cut from a different partition "
                    f"({shards} vs {pinned} shards)"
                )
            if shard_index in self._shard_indices:
                return False
        total = (self.grid or grid).total_points
        outside = next((i for i in indices if not 0 <= i < total), None)
        if outside is not None:
            raise error(
                f"{label} carries point index {outside}, outside the "
                f"{total}-point grid"
            )
        fresh: set[int] = set()
        overlap: list[int] = []  # covered before, or named twice
        for index in indices:
            if index in self.covered or index in fresh:
                overlap.append(index)
            else:
                fresh.add(index)
        if overlap:
            first = overlap[0]
            wording = policy.overlap
            if first not in self.covered and policy.self_overlap:
                wording = policy.self_overlap
            raise error(
                wording.format(
                    label=label,
                    first=first,
                    indices=summarise_indices(sorted(set(overlap))),
                )
            )
        if shards is not None and not self._misfit:
            misfit = shard_misfit(indices, total, shards, shard_index)
            misfit = misfit and f"{label} {misfit}"
            if misfit and policy.refuse_misfit:
                raise error(f"{misfit}; {RERUN_SHARD}")
            self._misfit = misfit
        if self.grid is None:
            self.grid, self._source = grid, label
        self.shards = pinned
        self.covered |= fresh
        self._shard_indices.add(shard_index)
        return True

    @property
    def total_points(self) -> Optional[int]:
        """The grid size, once known."""
        return None if self.grid is None else self.grid.total_points

    @property
    def complete(self) -> bool:
        """True when every point of a known grid is covered."""
        return len(self.covered) == self.total_points

    def missing_summary(self) -> str:
        """The uncovered point indices, summarised (empty when complete
        or while the grid is unknown)."""
        if self.grid is None or self.complete:
            return ""
        return summarise_missing(sorted(self.covered), self.total_points)

    def require_complete(self) -> None:
        """Refuse an empty cover, the gaps in the policy's words, then
        the first artifact whose points are not its shard's."""
        if self.grid is None:
            raise self.policy.error("no shard artifacts to merge")
        if not self.complete:
            raise self.policy.error(
                self.policy.incomplete.format(
                    missing=self.missing_summary(), total=self.total_points
                )
            )
        if self._misfit:
            raise self.policy.error(f"{self._misfit}; {RERUN_SHARD}")


#: The merges: one grid, every point exactly once.
MERGE_COVER = CoverPolicy(
    ShardMergeError,
    overlap=(
        "duplicated point indices across shard artifacts: {indices} "
        "(the same shard was merged twice?)"
    ),
    incomplete=(
        "missing point indices {missing} of {total}: a shard artifact "
        "was not merged"
    ),
)


def matching_artifact(
    path: Union[str, Path], grid: GridIdentity, shards: int, shard_index: int
) -> Optional[ShardArtifact]:
    """The artifact at ``path`` if it reads, is shard ``shard_index`` of
    ``shards`` of ``grid`` and holds that shard's points
    (:func:`shard_misfit`), else ``None``."""
    try:
        artifact = read_shard_artifact(path)
    except ShardMergeError:
        return None
    found = (artifact.grid, artifact.shards, artifact.shard_index)
    if found != (grid, shards, shard_index) or shard_misfit(
        artifact.dframe.indices, grid.total_points, shards, shard_index
    ):
        return None
    return artifact


def frames_in_point_order(
    artifacts: Iterable[ArtifactLike], cover: ShardCover
) -> Iterator[tuple[DecisionFrame, dict]]:
    """Each source's frame (sorted within itself) and cache state, in
    canonical point order: added to ``cover`` as it arrives, yielded
    once it continues the order.  One that arrives early is parked (an
    artifact by reference, a path by its points) and reloaded in its
    turn, so a path is read once in shard order, as
    :func:`find_shard_artifacts` lists them, else at most twice.  Ends
    with :meth:`ShardCover.require_complete`, whose geometry rule makes
    whole artifacts in order the canonical row order."""
    parked: dict[int, tuple[ArtifactLike, tuple]] = {}
    start = 0  # the next canonical point index
    for source in artifacts:
        artifact = load_artifact(source)
        if not cover.add_artifact(artifact, source):
            continue
        dframe = artifact.dframe
        first = min(dframe.indices, default=start)
        if first != start:
            kept = source if isinstance(source, (str, Path)) else artifact
            parked[first] = (kept, (dframe.indices, dframe.row_counts))
            continue
        yield DecisionFrame.concat([dframe]), artifact.cache_state
        if dframe.indices:
            start = max(dframe.indices) + 1
        while start in parked:  # never an empty artifact
            kept, points = parked.pop(start)
            artifact = load_artifact(kept)
            dframe = artifact.dframe
            if (dframe.indices, dframe.row_counts) != points:
                raise ShardMergeError(
                    f"shard artifact {kept} changed while it was being "
                    f"merged: it no longer holds the points it was "
                    f"validated with"
                )
            yield DecisionFrame.concat([dframe]), artifact.cache_state
            start = max(dframe.indices) + 1
    cover.require_complete()


def covered_grid(
    artifacts: Iterable[ArtifactLike], cover: Optional[ShardCover] = None
) -> GridIdentity:
    """The grid :func:`frames_in_point_order` finds ``artifacts`` cover
    (under a :data:`MERGE_COVER` by default), keeping no frame."""
    if cover is None:
        cover = ShardCover(MERGE_COVER)
    for _ in frames_in_point_order(artifacts, cover):
        pass
    return cover.grid


def merge_shard_artifacts(
    artifacts: Iterable[ArtifactLike],
    cover: Optional[ShardCover] = None,
) -> SweepReport:
    """Reassemble shard artifacts into one canonical sweep report.

    Accepts in-memory artifacts, file paths, or a mix, in *any* order
    — produced by one host or many.  The merge is deterministic: rows
    come back in the canonical grid order whatever order the shards
    ran or arrived in, byte-identical to a serial in-process sweep of
    the same grid.  Reassembly concatenates the frames
    :func:`frames_in_point_order` yields, so merging hundreds of
    10k-row artifacts costs numpy passes, not Python loops.

    Raises :class:`ShardMergeError` for any set that a
    :data:`MERGE_COVER` :class:`ShardCover` refuses.  The gather passes
    its own ``cover``; an artifact it drops adds neither rows nor cache
    state.
    """
    if cover is None:
        cover = ShardCover(MERGE_COVER)
    frames, states = [], []
    for dframe, state in frames_in_point_order(artifacts, cover):
        frames.append(dframe.frame)
        states.append(state)
    return SweepReport(
        frame=ResultFrame.concat(frames),
        cache_stats=merge_cache_states(states),
    )
