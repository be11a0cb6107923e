"""Design-space sweep subsystem (grids over the methodology's knobs).

The paper runs its five-step methodology once, for one production
volume, one substrate rule, one thin-film process and one tolerance
discipline.  This module fans the methodology out over a *grid* of those
choices:

* :class:`DesignPoint` — one coordinate in the design space (volume,
  substrate rule, thin-film process, tolerance class, technology
  Q model, NRE scenario, FoM weight vector);
* :class:`SweepGrid` — the cartesian product of per-axis value lists;
* :func:`run_design_sweep` — evaluates every grid point through the
  methodology (steps 2-5) with **memoised sub-results**: the performance
  assessment (the MNA-heavy part), the placement and the cost evaluation
  are each cached by content key, so e.g. a volume axis of five values
  re-solves no circuit and re-places no substrate;
* :class:`SweepReport` — the sweep's results as a columnar
  :class:`~repro.core.resultframe.ResultFrame` (one row per candidate
  per grid point, with per-point winners and Pareto-front membership),
  consumed by the ``repro-gps sweep`` CLI subcommand; the
  :attr:`~SweepReport.rows` property bridges back to
  :class:`~repro.core.resultframe.SweepRow` objects bit-for-bit.

Evaluation is columnar end to end: each volume family's candidates
are assessed as columns (one batched flow walk per candidate) and
ranked by :mod:`repro.core.ranking`, the module the warehouse re-rank
shares, into a :class:`~repro.core.ranking.DecisionFrame` — no
per-point study object is built.

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
:class:`DesignPoint` to the list of
:class:`~repro.core.methodology.CandidateBuildUp` to study there.  The
one GPS factory is :func:`repro.gps.study.sweep_candidates`.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..area.placement import trivial_placement, trivial_placement_batch
from ..area.substrate import SubstrateRule
from ..circuits.performance import ChainPerformance, assess_chain
from ..cost.moe.analytic import evaluate_batch
from ..errors import SpecificationError
from ..passives.thin_film import ThinFilmProcess
from ..passives.tolerance import ToleranceClass
from .figure_of_merit import FomWeights
from .methodology import CandidateBuildUp
from .ranking import (
    DecisionFrame,
    cell_front_mask,
    name_codes,
    weighted_fom,
    winner_mask,
)
from .resultframe import ResultFrame, SweepRow


@dataclass(frozen=True)
class NreScenario:
    """A named non-recurring-engineering cost assumption.

    The paper publishes no NRE figures, so the volume axis only bites
    under an *assumed* NRE per candidate.  A scenario names one such
    assumption: ``by_candidate`` maps a candidate identifier (the GPS
    adapter uses the implementation number 1..4) to the NRE amortised
    over shipped units.  Stored as a tuple of pairs so the scenario is
    hashable and ``repr``-stable — the properties the sweep cache keys
    need.
    """

    name: str
    by_candidate: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for key, nre in self.by_candidate:
            if not math.isfinite(nre) or nre < 0:
                raise SpecificationError(
                    f"NRE scenario {self.name!r}: candidate {key} needs "
                    f"a non-negative finite NRE, got {nre}"
                )

    def as_mapping(self) -> dict[int, float]:
        """The scenario as a plain candidate-id → NRE mapping."""
        return dict(self.by_candidate)


def _q_model_label(q_model) -> str:
    """Compact axis label of a Q-model override (``paper`` for None)."""
    if q_model is None:
        return "paper"
    label = getattr(q_model, "label", None)
    if label is not None:
        return str(label)
    name = getattr(q_model, "name", None)
    if name is not None:
        return str(name)
    return type(q_model).__name__


def _weights_label(weights: Optional[FomWeights]) -> str:
    """Compact ``perf:size:cost`` label of a FoM weight vector."""
    if weights is None:
        return "paper"
    return f"{weights.performance:g}:{weights.size:g}:{weights.cost:g}"


def _check_volume(volume) -> None:
    if not (math.isfinite(volume) and volume > 0):
        raise SpecificationError(
            f"volume must be positive and finite, got {volume}"
        )


@dataclass(frozen=True)
class DesignPoint:
    """One coordinate of the design space.

    ``None`` on an axis means "the candidate factory's default" — the
    paper's choice for that knob.  The three scenario axes added on top
    of the physical ones:

    * ``q_model`` — a technology Q model (possibly frequency-dependent,
      see :mod:`repro.circuits.qfactor`) overriding the candidate
      factory's integrated-passives model;
    * ``nre`` — an :class:`NreScenario` replacing the factory's NRE
      assumption (what the volume axis amortises);
    * ``weights`` — a per-point
      :class:`~repro.core.figure_of_merit.FomWeights` vector used when
      ranking this point (overrides the sweep-wide weights).
    """

    volume: float = 10_000.0
    substrate: Optional[SubstrateRule] = None
    process: Optional[ThinFilmProcess] = None
    tolerance: Optional[ToleranceClass] = None
    q_model: Optional[object] = None
    nre: Optional[NreScenario] = None
    weights: Optional[FomWeights] = None

    def __post_init__(self) -> None:
        _check_volume(self.volume)

    def q_model_label(self) -> str:
        """The Q-model axis value as a short string (``paper`` default)."""
        return _q_model_label(self.q_model)

    def nre_label(self) -> str:
        """The NRE-scenario axis value as a short string."""
        return self.nre.name if self.nre is not None else "paper"

    def weights_label(self) -> str:
        """The FoM-weights axis value as ``perf:size:cost``."""
        return _weights_label(self.weights)

    def axis_labels(self) -> dict[str, str]:
        """Every axis but the volume as a short string (``paper`` for
        the factory default), keyed by result-frame column."""
        return {
            "substrate": self.substrate.name if self.substrate else "paper",
            "process": self.process.name if self.process else "paper",
            "tolerance": self.tolerance.name if self.tolerance else "paper",
            "q_model": self.q_model_label(),
            "nre": self.nre_label(),
            "weights": self.weights_label(),
        }

    def label(self) -> str:
        """Compact human-readable coordinate label."""
        parts = [f"volume={self.volume:g}"]
        for column, value in self.axis_labels().items():
            parts.append(f"{'q' if column == 'q_model' else column}={value}")
        return " ".join(parts)


#: :class:`SweepGrid`'s axes in canonical (volume-major) order, one per
#: :class:`DesignPoint` field in field order.
GRID_AXES = (
    "volumes",
    "substrates",
    "processes",
    "tolerances",
    "q_models",
    "nres",
    "fom_weights",
)


def _dedupe_axis(values) -> tuple:
    """Order-preserving removal of equal axis values.

    A value is dropped when it equals (``==``) an earlier one.  Hashable
    values are looked up in a set (equal values hash alike), so a
    32768-value volume axis dedupes in linear time; the scenario axes
    may carry arbitrary objects, and an unhashable one is compared with
    every kept value instead.
    """
    kept: list = []
    hashed: set = set()
    unhashable: list = []
    for value in values:
        try:
            hash(value)
        except TypeError:
            if not any(value == existing for existing in kept):
                kept.append(value)
                unhashable.append(value)
            continue
        if value in hashed or any(value == other for other in unhashable):
            continue
        hashed.add(value)
        kept.append(value)
    return tuple(kept)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian product of per-axis value lists.

    Every axis defaults to a single ``None`` (= paper default), so a
    grid is built by overriding only the axes under study::

        SweepGrid(volumes=(1e3, 1e4, 1e5),
                  tolerances=(None, PRECISION_CLASS))
    """

    volumes: tuple[float, ...] = (10_000.0,)
    substrates: tuple[Optional[SubstrateRule], ...] = (None,)
    processes: tuple[Optional[ThinFilmProcess], ...] = (None,)
    tolerances: tuple[Optional[ToleranceClass], ...] = (None,)
    q_models: tuple[Optional[object], ...] = (None,)
    nres: tuple[Optional[NreScenario], ...] = (None,)
    fom_weights: tuple[Optional[FomWeights], ...] = (None,)

    def __post_init__(self) -> None:
        for name in GRID_AXES:
            values = getattr(self, name)
            if not values:
                raise SpecificationError(f"grid axis {name!r} is empty")
            # Duplicate axis values would double-evaluate and
            # double-count the same cell (and adaptive zoom passes
            # naturally re-propose coordinates they already hold), so
            # each axis keeps only the first occurrence of equal
            # values — equality, not identity, so 1e4 and 10000.0
            # collapse.  Order-preserving: the surviving values keep
            # their original relative order.
            object.__setattr__(self, name, _dedupe_axis(values))
        # Checked here, not only as each point is built: an adaptive
        # sweep builds just the points it evaluates.
        for volume in self.volumes:
            _check_volume(volume)

    def __len__(self) -> int:
        return (
            len(self.volumes)
            * len(self.substrates)
            * len(self.processes)
            * len(self.tolerances)
            * len(self.q_models)
            * len(self.nres)
            * len(self.fom_weights)
        )

    def points(self) -> list[DesignPoint]:
        """All grid coordinates, volume-major.

        The scenario axes (Q model, NRE, weights) vary fastest, so
        grids that only use the physical axes enumerate in the same
        order they always did.
        """
        return [
            DesignPoint(*values)
            for values in product(*(getattr(self, a) for a in GRID_AXES))
        ]

    def point_at(self, index: int) -> DesignPoint:
        """The coordinate :meth:`points` lists at ``index``.

        Unravels ``index`` over the axes, last axis fastest, and builds
        the point from the grid's own axis values, so it equals
        ``self.points()[index]`` — sharing its axis objects — without
        enumerating the grid.  An index outside ``0 .. len(self) - 1``
        is an error, never wrapped around.
        """
        if not 0 <= index < len(self):
            raise SpecificationError(
                f"grid index {index} is out of range for a "
                f"{len(self)}-point grid"
            )
        values = []
        for name in reversed(GRID_AXES):
            axis = getattr(self, name)
            index, position = divmod(index, len(axis))
            values.append(axis[position])
        return DesignPoint(*reversed(values))


#: The cache's sub-result tables, in reporting order.
CACHE_TABLES = ("performance", "area", "cost")


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


@dataclass(frozen=True)
class SweepReport:
    """Everything a design-space sweep produced.

    Results live in a columnar
    :class:`~repro.core.resultframe.ResultFrame` (``frame``): winner
    counts, best-row lookup and candidate filters are vectorised
    column operations, so they stay cheap on reports merged from
    hundreds of shards.  The :attr:`rows` property is the row-object
    bridge — bit-identical :class:`~repro.core.resultframe.SweepRow`
    tuples, materialised on first use — kept for per-row consumers.

    ``cache_stats`` carries :meth:`EvaluationCache.stats`: flat
    ``hits`` / ``misses`` totals plus a ``tables`` breakdown per
    sub-result table; a report merged from shard artifacts sums the
    shards' counters.
    """

    frame: ResultFrame
    cache_stats: dict = field(default_factory=dict)

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """The frame as row objects (bit-exact bridge, memoised)."""
        return self.frame.to_rows()

    def winner_counts(self) -> dict[str, int]:
        """How often each candidate wins across the grid.

        A vectorised count over the frame's ``is_winner`` /
        ``candidate`` columns (every grid point has exactly one winning
        row), so it also works for reports reassembled from shard
        artifacts.
        """
        return self.frame.winner_counts()

    def best_row(self) -> SweepRow:
        """The single highest-FoM row of the whole sweep."""
        return self.frame.row(self.frame.best_index())


#: Environment switch for the out-of-core row budget (unset: in-RAM).
MAX_ROWS_ENV = "REPRO_SWEEP_MAX_ROWS"


def max_rows_from_env() -> Optional[int]:
    """The :envvar:`REPRO_SWEEP_MAX_ROWS` row budget, validated.

    Unset or empty means "no budget" (the in-RAM path); anything else
    must be a positive integer, so a typo exits the CLI with status 2
    instead of silently sweeping in RAM.
    """
    raw = os.environ.get(MAX_ROWS_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise SpecificationError(
            f"{MAX_ROWS_ENV} must be a positive integer row budget, "
            f"got {os.environ[MAX_ROWS_ENV]!r}"
        )
    return value


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


def frame_for_cells(
    points: Sequence[DesignPoint],
    names: Sequence[str],
    performance,
    size_ratio,
    cost_ratio,
    weights: FomWeights,
) -> DecisionFrame:
    """Rank one volume family's cells and lay them out as a frame.

    Methodology step 5 on the :mod:`repro.core.ranking` kernels: the
    weighted FoM, each point's first-max winner and its Pareto front,
    both broadcast by candidate name.  Every metric argument
    broadcasts to ``(len(points), k)`` — point *p*'s cell is row *p*,
    candidate *i* column *i* — and the frame holds the cells in the
    order given, ``k`` rows each, at point indices
    ``0 .. len(points) - 1``.  The points share every axis but the
    volume, so the labels come from the first one.
    """
    fom = weighted_fom(performance, size_ratio, cost_ratio, weights)
    shape = fom.shape
    codes = name_codes(names)

    def cells(values) -> np.ndarray:
        return np.broadcast_to(values, shape).ravel()

    candidate = np.empty(shape, dtype=object)
    candidate[:] = list(names)
    size, cost = cells(size_ratio), cells(cost_ratio)
    columns = {
        "volume": np.repeat([p.volume for p in points], shape[1]),
        **{
            name: np.full(fom.size, label, dtype=object)
            for name, label in points[0].axis_labels().items()
        },
        "candidate": candidate.ravel(),
        "performance": cells(performance),
        "area_percent": 100.0 * size,
        "cost_percent": 100.0 * cost,
        "figure_of_merit": fom.ravel(),
        "is_winner": winner_mask(
            np.arange(0, fom.size, shape[1]),
            fom.ravel(),
            np.tile(codes, shape[0]),
        ),
        "on_pareto_front": cell_front_mask(
            performance, size_ratio, cost_ratio, names
        ).ravel(),
    }
    return DecisionFrame(
        frame=ResultFrame.from_columns(columns),
        size_ratio=size,
        cost_ratio=cost,
        indices=tuple(range(shape[0])),
        row_counts=(shape[1],) * shape[0],
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


def evaluate_family(
    points: Sequence[DesignPoint],
    candidates: Sequence[CandidateBuildUp],
    area_keys: Sequence[str],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> DecisionFrame:
    """Evaluate and rank a whole volume family of grid points.

    All points share one candidate list (the family key excludes only
    the volume), with each candidate's area key alongside
    (:func:`candidate_area_keys`); each candidate is assessed across
    the whole volume axis at once, the ratios to the reference
    candidate follow the scalar formula's operation order, and
    :func:`frame_for_cells` ranks the cells — with the family's own
    weights-axis vector, else ``weights``.  Returns the cells in the
    order given, at point indices ``0 .. len(points) - 1``.
    """
    candidates = list(candidates)
    if not candidates:
        raise SpecificationError(
            f"candidate factory returned no candidates at "
            f"{points[0].label()}"
        )
    if not (0 <= reference < len(candidates)):
        raise SpecificationError(
            f"reference index {reference} out of range for "
            f"{len(candidates)} candidates"
        )
    volumes = [point.volume for point in points]
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
    return frame_for_cells(
        points,
        [candidate.name for candidate in candidates],
        np.asarray(performance, dtype=np.float64),
        area / area[reference],
        cost / cost[:, reference : reference + 1],
        points[0].weights if points[0].weights is not None else weights,
    )


def evaluate_cell(
    point: DesignPoint,
    candidates: Sequence[CandidateBuildUp],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> DecisionFrame:
    """Evaluate one grid point over ready-made candidates: the
    one-point family (:func:`evaluate_family`)."""
    candidates = list(candidates)
    (area_keys,) = candidate_area_keys([candidates], cache)
    return evaluate_family(
        [point], candidates, area_keys, reference, weights, cache
    )


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
) -> DecisionFrame:
    """Evaluate a run of grid points in order, sharing one cache.

    The sweep engine's whole job (its streaming surface,
    :meth:`~repro.core.executors.SerialExecutor.iter_cells`, calls
    this block by block).  Returns one decision frame with the
    points' cells in run order, at point indices
    ``0 .. len(points) - 1``.

    A candidate factory that declares ``volume_invariant = True``
    (it returns equal candidates for points differing only in volume —
    :func:`~repro.gps.study.sweep_candidates`, the one GPS factory,
    does) gets the batched
    fill: points are grouped into volume families
    (:func:`family_runs`), the factory runs **once per family and
    cache** — later calls on the same cache (the next stream block or
    adaptive pass) reuse its candidates through
    :meth:`EvaluationCache.memo` — placements are broadcast ahead of
    the evaluation, and each family is assessed with one
    :meth:`EvaluationCache.cost_batch` per (candidate, flow), which
    walks a flow only the first time the cache sees it.  Any other
    factory is called per point, each point its own family.  Both
    produce bit-identical frames.  Either way each distinct area key is
    rendered once per cache (:func:`candidate_area_keys`).
    """
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
    return DecisionFrame.concat(
        [
            evaluate_family(
                [points[position] for position in run],
                candidates,
                keys,
                reference,
                weights,
                cache,
            ).reindexed(run)
            for run, candidates, keys in zip(
                runs, family_candidates, area_keys
            )
        ]
    )


def resolve_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> tuple[list[DesignPoint], FomWeights, EvaluationCache]:
    """A sweep's points (at least one), weights and cache, defaulted."""
    points = grid.points() if isinstance(grid, SweepGrid) else list(grid)
    if not points:
        raise SpecificationError("design sweep needs at least one point")
    return (
        points,
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
) -> Iterator[DecisionFrame]:
    """Decision-frame blocks at canonical point indices, in canonical
    order: :meth:`~repro.core.executors.SerialExecutor.iter_cells`'s
    batched blocks."""
    from .executors import SerialExecutor  # cycle-free at import

    points, weights, cache = resolve_sweep(grid, weights, cache)
    yield from SerialExecutor().iter_cells(
        points, candidate_factory, reference, weights, cache
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
