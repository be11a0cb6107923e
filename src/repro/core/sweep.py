"""Design-space sweep evaluation (the methodology over a grid).

The paper runs its five-step methodology once, for one production
volume, one substrate rule, one thin-film process and one tolerance
discipline.  This module fans the methodology out over a *grid* of
those choices — the grid itself, its points and its identity live in
the model-free :mod:`repro.core.grid`, which everything that stores
or queries results imports instead of this module:

* :func:`run_design_sweep` — evaluates every grid point through the
  methodology (steps 2-5) with **memoised sub-results**: the performance
  assessment (the MNA-heavy part), the placement and the cost evaluation
  are each cached by content key (:class:`EvaluationCache`), so e.g. a
  volume axis of five values re-solves no circuit and re-places no
  substrate;
* the result is a :class:`~repro.core.grid.SweepReport` — a columnar
  :class:`~repro.core.resultframe.ResultFrame` (one row per candidate
  per grid point, with per-point winners and Pareto-front membership)
  plus the cache's stats.

Evaluation is columnar end to end: each volume family's candidates
are assessed as plain arrays (:func:`assess_family`, one batched flow
walk per candidate), and a whole block of families is ranked in one
call (:func:`frame_for_cells`, on the kernels of
:mod:`repro.core.ranking`, the module the warehouse re-rank shares)
into one :class:`~repro.core.ranking.DecisionFrame` at the block's
final point indices — no per-point study object and no per-family
frame is built.

One engine runs every sweep: :func:`run_design_sweep` evaluates the
grid through the family-batched fill (:func:`evaluate_cells`), and
:func:`stream_design_sweep` is the generator surface: it yields
:class:`StreamedCell` results block by block
(:class:`~repro.core.executors.SerialExecutor`) instead of blocking on
the whole grid.  :class:`EvaluationCache` exports a
:meth:`~EvaluationCache.portable_state` payload so caches filled on
*different hosts* (cross-host shards, :mod:`repro.core.sharding`) can
have their stats merged.

The subsystem is application-agnostic: a *candidate factory* maps each
:class:`~repro.core.grid.DesignPoint` to the list of
:class:`~repro.core.methodology.CandidateBuildUp` to study there.  The
one GPS factory is :func:`repro.gps.study.sweep_candidates`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import (
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

import numpy as np

from ..area.placement import trivial_placement, trivial_placement_batch
from ..circuits.performance import ChainPerformance, assess_chain
from ..cost.moe.analytic import evaluate_batch
from ..errors import SpecificationError
from .figure_of_merit import FomWeights
from .grid import (
    CACHE_TABLES,
    DesignPoint,
    SweepGrid,
    SweepReport,
    grid_points,
)
from .methodology import BuildUpAssessment, CandidateBuildUp
from .ranking import (
    DecisionFrame,
    cell_front_mask,
    check_indices,
    weighted_fom,
    winner_mask,
)
from .resultframe import ResultFrame, SweepRow


def cache_key_digest(key: str) -> str:
    """Short content digest of one cache key.

    Shard artifacts carry the *digests* of a shard cache's entry keys
    (never the cached values), so a cross-host merge can compute the
    union of distinct entries — two shards that computed the same
    sub-result count it once — without shipping the heavyweight
    results themselves.
    """
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


class EvaluationCache:
    """Content-keyed memo for the methodology's three sub-results.

    Grid axes rarely invalidate every step: volume only reaches the cost
    evaluation, the tolerance class only the production flow, the
    substrate rule only placement and cost.  Keys are content strings —
    the ``repr`` of the (frozen, content-rich) dataclasses involved —
    so two grid points that share an input share the computation; each
    key is built once per *distinct* input, never once per lookup:

    * performance: ``repr`` of a chain's technology assignments, handed
      to :meth:`performance`;
    * area: :meth:`area_key`, handed to :meth:`area`;
    * cost: nested ``repr(flow)`` → ``repr(volume)`` → final cost per
      shipped unit, the only cost figure the ranking reads, resolved by
      :meth:`cost_batch`.  The flat key ``f"{volume!r}|{flow!r}"`` is
      spelled out only by :meth:`portable_state`, for its digests.

    Beside the tables sits one bounded memo of what the sweep derives
    from the candidate *objects* (:meth:`memo`): a volume-invariant
    factory's candidates per volume family, each candidate's
    performance key, each ``(footprints, rule, laminate)`` triple's
    area key, each ``(candidate, area key)``'s production flow with its
    cost key, and each distinct flow's recurrence walk.  So across the
    calls, stream blocks and adaptive passes sharing one cache, the
    factory runs once per family, each key is rendered once, and each
    flow is built and walked once — a later call pays only for binding
    its new volumes.  The memo never changes a table entry or a
    hit/miss count.

    One cache serves a whole sweep, so one :meth:`stats` report covers
    it; caches filled on different hosts combine through their
    :meth:`portable_state` payloads.
    """

    def __init__(self) -> None:
        # The cost table nests: ``repr(flow)`` → ``repr(volume)`` →
        # final cost per shipped unit.
        self._tables: dict[str, dict[str, object]] = {
            name: {} for name in CACHE_TABLES
        }
        self._hits: dict[str, int] = {name: 0 for name in CACHE_TABLES}
        self._misses: dict[str, int] = {name: 0 for name in CACHE_TABLES}
        # Tagged tuples of ``id`` s → (the objects behind them, the
        # value derived from them); see :meth:`memo`.
        self._memo: dict[tuple, tuple[object, object]] = {}

    def _get(self, name: str, key: str, compute: Callable):
        table = self._tables[name]
        if key in table:
            self._hits[name] += 1
            return table[key]
        self._misses[name] += 1
        value = compute()
        table[key] = value
        return value

    def memo(self, key: tuple, holds, build: Callable):
        """A value derived from live objects, built once per cache.

        ``key`` carries the ``id`` s of the objects the value derives
        from (plus a tag telling the kinds of entry apart, and any
        content key) and ``holds`` the objects themselves, kept beside
        the value so their ids stay unique while the entry lives.  The objects must not change
        while the cache lives.  A caller that hands over fresh objects
        per call gains nothing here, so the memo is emptied whenever it
        reaches :data:`OBJECT_MEMO_SIZE` entries rather than pinning
        every such object for the cache's life.
        """
        entry = self._memo.get(key)
        if entry is None:
            if len(self._memo) >= OBJECT_MEMO_SIZE:
                self._memo.clear()
            entry = self._memo[key] = (holds, build())
        return entry[1]

    def performance(self, key: str, compute) -> ChainPerformance:
        """One chain's performance under ``repr`` of its technology
        assignments."""
        return self._get("performance", key, compute)

    @staticmethod
    def area_key(footprints, rule, laminate) -> str:
        """The content key of one placement call.

        ``f"{rule!r}|{laminate!r}|{list(footprints)!r}"``, with the list
        rendered from the elements directly (``repr`` of a list is its
        items' reprs joined by ``", "`` in brackets), so a tuple of
        footprints keys exactly like the list it replaces.
        """
        return (
            f"{rule!r}|{laminate!r}|[{', '.join(map(repr, footprints))}]"
        )

    def area(self, key: str, compute):
        """One placement result under its :meth:`area_key`."""
        return self._get("area", key, compute)

    def has_area(self, key: str) -> bool:
        """True when a placement result is already cached under ``key``."""
        return key in self._tables["area"]

    def seed_area(self, key: str, report) -> None:
        """Insert a precomputed placement without counting hit/miss.

        The batched fill path places whole candidate families through
        one broadcast call ahead of the per-point evaluation and seeds
        them here; the later lookups then count as ordinary hits.
        """
        self._tables["area"].setdefault(key, report)

    def cost_batch(
        self,
        flow_key: str,
        volumes: Sequence[float],
        compute_missing,
        volume_keys: Optional[Sequence[str]] = None,
    ):
        """Resolve one flow's final costs at many volumes together.

        ``flow_key`` is ``repr`` of the flow.  Counts a hit per
        already-cached volume and a miss per computed one, exactly as
        one lookup per volume would, but all missing volumes are
        produced by a single ``compute_missing(missing_volumes)`` call
        instead of one evaluation each.  Volumes are keyed by their own
        ``repr``, so ``10000``, ``10000.0`` and ``np.float64(10000.0)``
        stay distinct entries.  A caller resolving many flows at the
        same volumes passes those reprs once as ``volume_keys``.
        """
        table = self._tables["cost"].setdefault(flow_key, {})
        keys = (
            [repr(volume) for volume in volumes]
            if volume_keys is None
            else volume_keys
        )
        pending: dict[str, float] = {}
        for key, volume in zip(keys, volumes):
            if key not in table and key not in pending:
                pending[key] = volume
        if pending:
            computed = compute_missing(list(pending.values()))
            for key, cost in zip(pending, computed):
                table[key] = cost
        self._misses["cost"] += len(pending)
        self._hits["cost"] += len(keys) - len(pending)
        return [table[key] for key in keys]

    def count_reuse(self, name: str, count: int) -> None:
        """Tally ``count`` extra hits on one table.

        The batched fill resolves a volume-invariant sub-result once per
        family instead of once per point; this keeps the hit counters
        reporting the lookups a per-point evaluation would have made,
        so cache stats stay comparable across evaluation paths.
        """
        if count > 0:
            self._hits[name] += count

    @property
    def hits(self) -> int:
        """Total hits across all tables."""
        return sum(self._hits.values())

    @property
    def misses(self) -> int:
        """Total misses across all tables."""
        return sum(self._misses.values())

    def _entry_keys(self, name: str) -> Iterator[str]:
        """Every entry key of one table, cost keys spelled out flat."""
        table = self._tables[name]
        if name != "cost":
            yield from table
            return
        for flow_key, costs in table.items():
            for volume_key in costs:
                yield f"{volume_key}|{flow_key}"

    def _entries(self, name: str) -> int:
        """Number of distinct entries in one table."""
        table = self._tables[name]
        if name == "cost":
            return sum(len(costs) for costs in table.values())
        return len(table)

    def portable_state(self) -> dict:
        """The cache's *stats* state as a JSON-ready payload.

        Shard artifacts embed this instead of :meth:`stats`: hit/miss
        counters per table plus the :func:`cache_key_digest` of every
        entry key.  Merging shard artifacts sums the counters (stats
        stay additive across hosts) and unions the digests, so an
        entry computed independently by two shards — the same memoised
        sub-result, recomputed because shard caches start cold — is
        counted once in the merged ``entries`` tally.
        """
        return {
            "tables": {
                name: {
                    "hits": self._hits[name],
                    "misses": self._misses[name],
                    "keys": sorted(
                        cache_key_digest(key)
                        for key in self._entry_keys(name)
                    ),
                }
                for name in CACHE_TABLES
            }
        }

    def stats(self) -> dict:
        """Hits/misses in total and per table.

        The flat ``hits`` / ``misses`` keys keep the historical report
        shape; ``tables`` breaks the tally down per sub-result table
        (with the number of distinct cached entries), which is what
        ``repro-gps sweep --cache-stats`` prints.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "tables": {
                name: {
                    "hits": self._hits[name],
                    "misses": self._misses[name],
                    "entries": self._entries(name),
                }
                for name in CACHE_TABLES
            },
        }


class _Flow:
    """A production flow as the cache keeps it: the flow, its cost key
    (``repr(flow)``) and, once taken, its recurrence walk."""

    __slots__ = ("flow", "key", "walk")

    def __init__(self, flow, key: str) -> None:
        self.flow = flow
        self.key = key
        self.walk = None

    @staticmethod
    def of(flow, cache: EvaluationCache) -> "_Flow":
        """``cache``'s one entry for the flows equal to ``flow`` (by
        ``repr``), so equal flows built for different candidates share
        one walk."""
        key = repr(flow)
        return cache.memo(("walk", key), None, lambda: _Flow(flow, key))

    def final_costs(self, volumes: Sequence[float]) -> list[float]:
        """Final cost per shipped unit at ``volumes``.

        The first call walks the flow (:func:`evaluate_batch`); later
        ones bind the kept walk to their volumes
        (:meth:`~repro.cost.moe.analytic.CostReportBatch.bind`), with
        the same bits.
        """
        if self.walk is None:
            self.walk = batch = evaluate_batch(self.flow, volumes)
        else:
            batch = self.walk.bind(volumes)
        return batch.final_cost_per_shipped.tolist()


def assess_candidate_family_cached(
    candidate: CandidateBuildUp,
    area_key: str,
    volumes: Sequence[float],
    volume_keys: Sequence[str],
    cache: EvaluationCache,
) -> tuple[float, float, list[float]]:
    """Steps 2-4 for one candidate across a volume family, memoised.

    ``area_key`` is the candidate's :meth:`EvaluationCache.area_key`
    (see :func:`candidate_area_keys`) and ``volume_keys`` the volumes'
    reprs, shared by the family's candidates.  Returns the performance
    score, the final area in mm² (Fig. 3) and the final cost per
    shipped unit at every volume (Fig. 5).
    Performance and placement are resolved **once** and re-counted as
    hits for the remaining volumes (:meth:`EvaluationCache.count_reuse`,
    so the stats match a per-point evaluation); all volumes' costs come
    from one :meth:`EvaluationCache.cost_batch` call.  The candidate's
    performance key and its flow — built, keyed and walked — come from
    :meth:`EvaluationCache.memo`, so a candidate seen before costs only
    its new volumes.
    """
    reuse = len(volumes) - 1
    if candidate.fixed_performance is not None:
        performance = candidate.fixed_performance
    else:
        chain = cache.performance(
            cache.memo(
                ("performance", id(candidate)),
                candidate,
                lambda: repr(candidate.filter_assignments),
            ),
            lambda: assess_chain(candidate.filter_assignments),
        )
        cache.count_reuse("performance", reuse)
        performance = chain.score
    area = cache.area(
        area_key,
        lambda: trivial_placement(
            candidate.footprints,
            candidate.substrate_rule,
            candidate.laminate,
        ),
    )
    cache.count_reuse("area", reuse)
    flow = cache.memo(
        ("flow", id(candidate), area_key),
        candidate,
        lambda: _Flow.of(
            candidate.flow_factory(area.substrate_area_cm2), cache
        ),
    )
    costs = cache.cost_batch(
        flow.key, volumes, flow.final_costs, volume_keys
    )
    return performance, area.final_area_mm2, costs


def cached_assessment(
    candidate: CandidateBuildUp,
    area_key: str,
    volume: float,
    cache: EvaluationCache,
) -> BuildUpAssessment:
    """Steps 2-4's objects, as a study reports them, for a candidate
    :func:`assess_candidate_family_cached` costed at ``volume``: the
    cached chain and placement, and Fig. 5's cost report from the
    flow's kept walk bound to ``volume`` (the bits of
    :func:`~repro.cost.moe.analytic.evaluate`).  What the bounded
    object memo has dropped meanwhile is built again."""
    chain = None
    if candidate.fixed_performance is None:
        chain = cache.performance(
            repr(candidate.filter_assignments),
            lambda: assess_chain(candidate.filter_assignments),
        )
    area = cache.area(
        area_key, lambda: trivial_placement(*_area_inputs(candidate))
    )
    flow = cache.memo(
        ("flow", id(candidate), area_key),
        candidate,
        lambda: _Flow.of(
            candidate.flow_factory(area.substrate_area_cm2), cache
        ),
    )
    if flow.walk is None:
        flow.walk = evaluate_batch(flow.flow, (volume,))
    return BuildUpAssessment(
        name=candidate.name,
        performance=(
            candidate.fixed_performance if chain is None else chain.score
        ),
        chain=chain,
        area=area,
        cost=flow.walk.bind((volume,)).report_at(0),
    )


class FamilyCells(NamedTuple):
    """One volume family of a block, assessed (steps 2-4): what
    :func:`frame_for_cells` ranks.

    The family's points sit at ``positions`` in the block, in order,
    and each point's cell holds a row per candidate, in ``names``
    order.  ``performance`` and ``size_ratio`` hold one value per
    candidate, ``cost_ratio`` one row of them per point; ``weights``
    rank the family.
    """

    positions: Sequence[int]
    names: list[str]
    performance: np.ndarray
    size_ratio: np.ndarray
    cost_ratio: np.ndarray
    weights: FomWeights


def frame_for_cells(
    points: Sequence[DesignPoint],
    families: Sequence[FamilyCells],
    indices: Sequence[int],
) -> DecisionFrame:
    """Rank a block's cells and lay them out as a frame: the sweep's
    one ranking call.

    Methodology step 5 on the :mod:`repro.core.ranking` kernels, once
    per block however many families it holds.  ``families`` cover
    every position of ``points`` once; their columns are scattered
    into block arrays in point order, a cell's rows in candidate order,
    and ranked there:

    * the weighted FoM once per distinct weights value in the block;
    * each point's first-max winner (:func:`winner_mask`) once over
      every cell, broadcast by candidate name;
    * each point's Pareto front (:func:`cell_front_mask`) once per
      distinct candidate count, names compared per cell — so a block
      whose families differ in their candidates, or repeat a name,
      ranks exactly as its families would one by one.

    The frame holds point ``p``'s cell at point index ``indices[p]``
    (Python ints), built by the trusted constructors
    (:meth:`ResultFrame.adopt`, :meth:`DecisionFrame.adopt`), so it
    is never copied or reindexed after it is built.
    """
    if not families:
        return DecisionFrame.empty()
    counts = np.empty(len(points), dtype=np.intp)
    for family in families:
        counts[family.positions] = len(family.names)
    starts = np.cumsum(counts) - counts
    rows = int(counts.sum())
    performance, size, cost = (np.empty(rows) for _ in range(3))
    candidate = np.empty(rows, dtype=object)
    codes = np.empty(rows, dtype=np.intp)
    labels: dict[str, np.ndarray] = {}
    # Per point: its family's entry in ``by_weights``.
    ranked_by = np.empty(len(points), dtype=np.intp)
    by_weights: dict[FomWeights, int] = {}
    by_name: dict[str, int] = {}
    for family in families:
        positions = np.asarray(family.positions, dtype=np.intp)
        # (points, k): the block row of every cell of the family.
        at = starts[positions][:, None] + np.arange(len(family.names))
        performance[at] = family.performance
        size[at] = family.size_ratio
        cost[at] = family.cost_ratio
        candidate[at] = np.asarray(family.names, dtype=object)
        codes[at] = [
            by_name.setdefault(name, len(by_name)) for name in family.names
        ]
        for name, label in points[positions[0]].axis_labels().items():
            labels.setdefault(name, np.empty(len(points), dtype=object))[
                positions
            ] = label
        ranked_by[positions] = by_weights.setdefault(
            family.weights, len(by_weights)
        )
    fom = np.empty(rows)
    row_ranked_by = np.repeat(ranked_by, counts)
    for weights, group in by_weights.items():
        chosen = row_ranked_by == group
        fom[chosen] = weighted_fom(
            performance[chosen], size[chosen], cost[chosen], weights
        )
    is_winner = winner_mask(starts, fom, codes)
    front = np.empty(rows, dtype=bool)
    for k in {len(family.names) for family in families}:
        at = starts[counts == k][:, None] + np.arange(k)
        front[at] = cell_front_mask(
            performance[at], size[at], cost[at], codes[at]
        )
    volumes = np.asarray([point.volume for point in points], dtype=np.float64)
    frame = ResultFrame.adopt(
        {
            "volume": np.repeat(volumes, counts),
            **{
                name: np.repeat(column, counts)
                for name, column in labels.items()
            },
            "candidate": candidate,
            "performance": performance,
            "area_percent": 100.0 * size,
            "cost_percent": 100.0 * cost,
            "figure_of_merit": fom,
            "is_winner": is_winner,
            "on_pareto_front": front,
        }
    )
    return DecisionFrame.adopt(
        frame, size, cost, tuple(indices), tuple(counts.tolist())
    )


#: Most entries one cache's object memo keeps (see
#: :meth:`EvaluationCache.memo`).
OBJECT_MEMO_SIZE = 1024


#: A candidate's placement inputs, the triple its area key renders.
_area_inputs = attrgetter("footprints", "substrate_rule", "laminate")


def candidate_area_keys(
    family_candidates: Sequence[Sequence[CandidateBuildUp]],
    cache: EvaluationCache,
) -> list[list[str]]:
    """Every candidate's :meth:`EvaluationCache.area_key`, per family.

    A key runs to several kilobytes (one ``repr`` per footprint), and
    candidate factories share their inputs across families and calls —
    the GPS factory's footprint tuples come memoised from
    :func:`repro.gps.buildups.footprints_for` and its rules are module
    constants or grid axis values.  So each key is rendered once per
    distinct ``(footprints, rule, laminate)`` object triple per
    ``cache`` (:meth:`EvaluationCache.memo`) and shared by every
    candidate carrying that triple, in this call and every later one
    (the next stream block, the next adaptive pass).
    """
    return [
        [
            cache.memo(
                ("area", *map(id, inputs)),
                inputs,
                lambda: EvaluationCache.area_key(*inputs),
            )
            for inputs in map(_area_inputs, candidates)
        ]
        for candidates in family_candidates
    ]


def assess_family(
    points: Sequence[DesignPoint],
    positions: Sequence[int],
    candidates: Sequence[CandidateBuildUp],
    area_keys: Sequence[str],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> FamilyCells:
    """Assess a whole volume family of a block's points as columns.

    The family's points sit at ``positions`` of ``points``; they share
    one candidate list (the family key excludes only the volume), with
    each candidate's area key alongside (:func:`candidate_area_keys`).
    Each candidate is assessed across the whole volume axis at once and
    the ratios to the reference candidate follow the scalar formula's
    operation order.  The family is ranked with its own weights-axis
    vector, else ``weights`` — by :func:`frame_for_cells`, together
    with the block's other families.
    """
    candidates = list(candidates)
    first = points[positions[0]]
    if not candidates:
        raise SpecificationError(
            f"candidate factory returned no candidates at {first.label()}"
        )
    if not (0 <= reference < len(candidates)):
        raise SpecificationError(
            f"reference index {reference} out of range for "
            f"{len(candidates)} candidates"
        )
    volumes = [points[position].volume for position in positions]
    volume_keys = [repr(volume) for volume in volumes]
    performance, area, costs = zip(
        *(
            assess_candidate_family_cached(
                candidate, key, volumes, volume_keys, cache
            )
            for candidate, key in zip(candidates, area_keys)
        )
    )
    area = np.asarray(area, dtype=np.float64)
    # (volumes, k): a cell per row, a candidate per column.
    cost = np.asarray(costs, dtype=np.float64).T
    return FamilyCells(
        positions=positions,
        names=[candidate.name for candidate in candidates],
        performance=np.asarray(performance, dtype=np.float64),
        size_ratio=area / area[reference],
        cost_ratio=cost / cost[:, reference : reference + 1],
        weights=first.weights if first.weights is not None else weights,
    )


def evaluate_cell(
    point: DesignPoint,
    candidates: Sequence[CandidateBuildUp],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> DecisionFrame:
    """Evaluate one grid point over ready-made candidates: a one-point
    block at point index 0."""
    candidates = list(candidates)
    (area_keys,) = candidate_area_keys([candidates], cache)
    family = assess_family(
        [point], [0], candidates, area_keys, reference, weights, cache
    )
    return frame_for_cells([point], [family], (0,))


#: The axes a volume family shares: every :class:`DesignPoint` field
#: but the volume.
_family_axes = attrgetter(
    "substrate", "process", "tolerance", "q_model", "nre", "weights"
)


def _families(points: Sequence[DesignPoint]) -> dict[tuple, list[int]]:
    """:func:`family_runs`, each run under its family key: the ``repr``
    of every axis but the volume."""
    by_identity: dict[tuple[int, ...], list[int]] = {}
    for position, point in enumerate(points):
        identity = tuple(map(id, _family_axes(point)))
        by_identity.setdefault(identity, []).append(position)
    families: dict[tuple[str, ...], list[int]] = {}
    for run in by_identity.values():
        key = tuple(map(repr, _family_axes(points[run[0]])))
        family = families.get(key)
        if family is None:
            families[key] = run
        else:
            family.extend(run)
            family.sort()
    return families


def family_runs(points: Sequence[DesignPoint]) -> list[list[int]]:
    """Group point positions into volume families.

    Two points belong to one family when every axis except the volume
    agrees (by content ``repr``, the cache-key discipline) — such
    points share candidates, performance and placement, differing only
    in the cost step's volume.  Grid enumeration is volume-major
    (volume varies *slowest*), so a family's members are strided across
    the run, not adjacent; positions within each family keep run order.

    Grid points share their axis objects, so points are first grouped
    by the ``id`` s of those objects, and only one point per such group
    is ``repr`` ed; groups with equal reprs (equal content held by
    distinct objects) merge into one family.
    """
    return list(_families(points).values())


def _seed_family_placements(
    family_candidates: Sequence[Sequence[CandidateBuildUp]],
    area_keys: Sequence[Sequence[str]],
    cache: EvaluationCache,
) -> None:
    """Pre-place every not-yet-cached candidate with broadcast calls.

    Candidates are grouped by (rule, laminate) so each group is one
    :func:`~repro.area.placement.trivial_placement_batch` call; results
    are seeded without counting (:meth:`EvaluationCache.seed_area`), so
    the later per-family lookups tally as ordinary hits.  ``area_keys``
    are the candidates' keys from :func:`candidate_area_keys`, the same
    strings the lookups use.
    """
    groups: dict[str, dict[str, CandidateBuildUp]] = {}
    for candidates, keys in zip(family_candidates, area_keys):
        for candidate, key in zip(candidates, keys):
            if not cache.has_area(key):
                rule, laminate = candidate.substrate_rule, candidate.laminate
                group = groups.setdefault(f"{rule!r}|{laminate!r}", {})
                group.setdefault(key, candidate)
    for group in groups.values():
        first = next(iter(group.values()))
        reports = trivial_placement_batch(
            [candidate.footprints for candidate in group.values()],
            first.substrate_rule,
            first.laminate,
        )
        for key, report in zip(group, reports):
            cache.seed_area(key, report)


#: Maps a grid point to the build-up candidates to study there.
CandidateFactory = Callable[[DesignPoint], Sequence[CandidateBuildUp]]


def evaluate_cells(
    points: Sequence[DesignPoint],
    candidate_factory: CandidateFactory,
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
    indices: Optional[Sequence[int]] = None,
) -> DecisionFrame:
    """Evaluate a block of grid points in order, sharing one cache.

    The sweep engine's whole job (its streaming surface,
    :meth:`~repro.core.executors.SerialExecutor.iter_cells`, calls
    this block by block).  Returns one decision frame with the
    points' cells in block order, point ``p`` at point index
    ``indices[p]`` — non-negative Python ints, ``0 .. len(points) - 1``
    when omitted, refused otherwise by the validating constructor's
    rule (:func:`~repro.core.ranking.check_indices`) — so a caller
    passes the block's final indices and never reindexes it.

    A candidate factory that declares ``volume_invariant = True``
    (it returns equal candidates for points differing only in volume —
    :func:`~repro.gps.study.sweep_candidates`, the one GPS factory,
    does) gets the batched
    fill: points are grouped into volume families
    (:func:`family_runs`), the factory runs **once per family and
    cache** — later calls on the same cache (the next stream block or
    adaptive pass) reuse its candidates through
    :meth:`EvaluationCache.memo` — placements are broadcast ahead of
    the evaluation, and each family is assessed
    (:func:`assess_family`) with one :meth:`EvaluationCache.cost_batch`
    per (candidate, flow), which walks a flow only the first time the
    cache sees it.  Any other factory is called per point, each point
    its own family.  Either way each distinct area key is rendered
    once per cache (:func:`candidate_area_keys`), and the whole block
    is ranked by one :func:`frame_for_cells` call; both produce
    bit-identical frames.
    """
    indices = range(len(points)) if indices is None else indices
    check_indices(indices, len(points))
    batched = getattr(candidate_factory, "volume_invariant", False)
    if batched:
        families = _families(points)
        runs = list(families.values())
        family_candidates = [
            cache.memo(
                ("candidates", id(candidate_factory), key),
                candidate_factory,
                lambda: list(candidate_factory(points[run[0]])),
            )
            for key, run in families.items()
        ]
    else:
        runs = [[position] for position in range(len(points))]
        family_candidates = [
            list(candidate_factory(point)) for point in points
        ]
    area_keys = candidate_area_keys(family_candidates, cache)
    if batched:
        _seed_family_placements(family_candidates, area_keys, cache)
    return frame_for_cells(
        points,
        [
            assess_family(
                points, run, candidates, keys, reference, weights, cache
            )
            for run, candidates, keys in zip(
                runs, family_candidates, area_keys
            )
        ],
        indices,
    )


def resolve_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> tuple[list[DesignPoint], FomWeights, EvaluationCache]:
    """A sweep's points (at least one), weights and cache, defaulted."""
    return (
        grid_points(grid),
        weights if weights is not None else FomWeights(),
        cache if cache is not None else EvaluationCache(),
    )


def run_design_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    candidate_factory: CandidateFactory,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> SweepReport:
    """Fan the methodology out over a design-space grid.

    Parameters
    ----------
    grid:
        A :class:`SweepGrid` or an explicit iterable of
        :class:`DesignPoint`.
    candidate_factory:
        Maps a grid point to the build-up candidates to study there
        (step 1 stays the application's job).
    reference:
        Index of the reference candidate (the 100 % marks), per point.
    weights:
        Optional FoM weighting; the paper's plain product by default.
    cache:
        Optional pre-warmed :class:`EvaluationCache`; a fresh one is
        created when omitted.  Its stats cover the whole sweep.
    """
    points, weights, cache = resolve_sweep(grid, weights, cache)
    dframe = evaluate_cells(
        points, candidate_factory, reference, weights, cache
    )
    return SweepReport(frame=dframe.frame, cache_stats=cache.stats())


@dataclass(frozen=True)
class StreamedCell:
    """One grid cell as it streams out of :func:`stream_design_sweep`.

    ``index`` is the cell's canonical position in the grid; cells
    stream in canonical order.  ``frame`` carries the cell's results
    columnar (concatenate streamed frames with
    :meth:`ResultFrame.concat` for an incremental report); :attr:`rows`
    is the row-object bridge.
    """

    index: int
    frame: ResultFrame

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """The cell's frame as row objects (bit-exact bridge)."""
        return self.frame.to_rows()


def stream_decision_frames(
    grid: SweepGrid | Iterable[DesignPoint],
    candidate_factory: CandidateFactory,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    indices: Optional[Sequence[int]] = None,
) -> Iterator[DecisionFrame]:
    """Decision-frame blocks in canonical order:
    :meth:`~repro.core.executors.SerialExecutor.iter_cells`'s batched
    blocks, point ``p`` at point index ``indices[p]`` (its canonical
    index when omitted)."""
    from .executors import SerialExecutor  # cycle-free at import

    points, weights, cache = resolve_sweep(grid, weights, cache)
    yield from SerialExecutor().iter_cells(
        points, candidate_factory, reference, weights, cache, indices
    )


def stream_design_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    candidate_factory: CandidateFactory,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> Iterator[StreamedCell]:
    """The generator surface of :func:`run_design_sweep`.

    Yields one :class:`StreamedCell` per grid point, in canonical
    order, as results become available instead of blocking until the
    whole grid is done: the blocks of :func:`stream_decision_frames`,
    split per point.

    The rows of every yielded cell are byte-identical to the rows
    :func:`run_design_sweep` would report for the same grid — streaming
    changes *when* results become visible, never *what* they are.
    """
    for block in stream_decision_frames(
        grid, candidate_factory, reference, weights, cache
    ):
        for index, frame in block.cells():
            yield StreamedCell(index=index, frame=frame)
