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

*How* the grid is evaluated is pluggable: :func:`run_design_sweep`
delegates scheduling to an execution engine
(:mod:`repro.core.executors`) — serial, multi-process, in-process
sharding (:mod:`repro.core.sharding`) or asyncio-based — all of which
produce identical rows.  :func:`stream_design_sweep` is the generator
surface: it yields :class:`StreamedCell` results block by block
instead of blocking on the whole grid.  :class:`EvaluationCache` is
mergeable so per-worker caches fold back into one whole-sweep stats
report, and exports a :meth:`~EvaluationCache.portable_state` payload
so caches filled on *different hosts* can have their stats merged
too.

The subsystem is application-agnostic: a *candidate factory* maps each
:class:`DesignPoint` to the list of
:class:`~repro.core.methodology.CandidateBuildUp` to study there.  The
GPS adapter lives in :func:`repro.gps.study.sweep_candidates`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..area.placement import trivial_placement, trivial_placement_batch
from ..area.substrate import SubstrateRule
from ..circuits.performance import ChainPerformance, assess_chain
from ..cost.moe.analytic import evaluate, evaluate_batch
from ..errors import SpecificationError
from ..passives.thin_film import ThinFilmProcess
from ..passives.tolerance import ToleranceClass
from .figure_of_merit import FomWeights
from .methodology import (
    BuildUpAssessment,
    CandidateBuildUp,
    StudyResult,
    study_from_assessments,
)
from .pareto import analyze_study
from .resultframe import COLUMN_ORDER, ResultFrame, SweepRow


@dataclass(frozen=True)
class NreScenario:
    """A named non-recurring-engineering cost assumption.

    The paper publishes no NRE figures, so the volume axis only bites
    under an *assumed* NRE per candidate.  A scenario names one such
    assumption: ``by_candidate`` maps a candidate identifier (the GPS
    adapter uses the implementation number 1..4) to the NRE amortised
    over shipped units.  Stored as a tuple of pairs so the scenario is
    hashable, picklable and ``repr``-stable — the properties the sweep
    cache keys and the process execution engine need.
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
        if self.volume <= 0:
            raise SpecificationError(
                f"volume must be positive, got {self.volume}"
            )

    def q_model_label(self) -> str:
        """The Q-model axis value as a short string (``paper`` default)."""
        return _q_model_label(self.q_model)

    def nre_label(self) -> str:
        """The NRE-scenario axis value as a short string."""
        return self.nre.name if self.nre is not None else "paper"

    def weights_label(self) -> str:
        """The FoM-weights axis value as ``perf:size:cost``."""
        return _weights_label(self.weights)

    def label(self) -> str:
        """Compact human-readable coordinate label."""
        parts = [f"volume={self.volume:g}"]
        parts.append(
            f"substrate={self.substrate.name if self.substrate else 'paper'}"
        )
        parts.append(
            f"process={self.process.name if self.process else 'paper'}"
        )
        parts.append(
            f"tolerance={self.tolerance.name if self.tolerance else 'paper'}"
        )
        parts.append(f"q={self.q_model_label()}")
        parts.append(f"nre={self.nre_label()}")
        parts.append(f"weights={self.weights_label()}")
        return " ".join(parts)


def _dedupe_axis(values) -> tuple:
    """Order-preserving removal of equal axis values.

    Equality-based (not hash-based) so axis values only need ``__eq__``
    — the scenario axes carry arbitrary objects — and a linear scan per
    value, which is irrelevant at axis lengths.
    """
    kept: list = []
    for value in values:
        if not any(value == existing for existing in kept):
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
        for name in (
            "volumes",
            "substrates",
            "processes",
            "tolerances",
            "q_models",
            "nres",
            "fom_weights",
        ):
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
            DesignPoint(
                volume=volume,
                substrate=substrate,
                process=process,
                tolerance=tolerance,
                q_model=q_model,
                nre=nre,
                weights=weights,
            )
            for (
                volume,
                substrate,
                process,
                tolerance,
                q_model,
                nre,
                weights,
            ) in product(
                self.volumes,
                self.substrates,
                self.processes,
                self.tolerances,
                self.q_models,
                self.nres,
                self.fom_weights,
            )
        ]


#: The cache's sub-result tables, in reporting order.
CACHE_TABLES = ("performance", "area", "cost")


def cache_key_digest(key: str) -> str:
    """Short content digest of one cache key.

    Shard artifacts carry the *digests* of a worker cache's entry keys
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
    substrate rule only placement and cost.  Keys are built from the
    ``repr`` of the (frozen, content-rich) dataclasses involved, so two
    grid points that share an input share the computation.

    Caches are *mergeable*: every execution engine worker fills its own
    cache and :meth:`merge` folds the workers' tables and counters back
    into the parent, so one :meth:`stats` report covers the whole sweep
    regardless of how it was executed.
    """

    def __init__(self) -> None:
        self._tables: dict[str, dict[str, object]] = {
            name: {} for name in CACHE_TABLES
        }
        self._hits: dict[str, int] = {name: 0 for name in CACHE_TABLES}
        self._misses: dict[str, int] = {name: 0 for name in CACHE_TABLES}

    def _get(self, name: str, key: str, compute: Callable):
        table = self._tables[name]
        if key in table:
            self._hits[name] += 1
            return table[key]
        self._misses[name] += 1
        value = compute()
        table[key] = value
        return value

    @staticmethod
    def performance_key(assignments) -> str:
        """The content key of one chain's technology assignments."""
        return repr(assignments)

    def performance(self, assignments, compute) -> ChainPerformance:
        return self._get(
            "performance", self.performance_key(assignments), compute
        )

    @staticmethod
    def area_key(footprints, rule, laminate) -> str:
        """The content key of one placement call."""
        return f"{rule!r}|{laminate!r}|{footprints!r}"

    def area(self, footprints, rule, laminate, compute):
        return self._get(
            "area", self.area_key(footprints, rule, laminate), compute
        )

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

    def cost(self, flow, volume: float, compute):
        key = f"{volume!r}|{flow!r}"
        return self._get("cost", key, compute)

    def cost_batch(self, flow, volumes: Sequence[float], compute_missing):
        """Resolve one flow's cost reports at many volumes together.

        Counts exactly as ``len(volumes)`` single :meth:`cost` lookups
        would — a hit per already-cached volume, a miss per computed
        one — but all missing volumes are produced by a single
        ``compute_missing(missing_volumes)`` call (one batched flow
        walk) instead of one evaluation each.
        """
        flow_repr = repr(flow)
        keys = [f"{volume!r}|{flow_repr}" for volume in volumes]
        table = self._tables["cost"]
        pending: dict[str, float] = {}
        for key, volume in zip(keys, volumes):
            if key not in table and key not in pending:
                pending[key] = volume
        if pending:
            computed = compute_missing(list(pending.values()))
            for key, report in zip(pending, computed):
                table[key] = report
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

    def merge(self, other: "EvaluationCache") -> None:
        """Fold a worker's cache into this one.

        Entries are first-wins (both sides computed from the same
        content key, so values agree); hit/miss counters add up, making
        the merged :meth:`stats` the whole-sweep tally.
        """
        for name in CACHE_TABLES:
            table = self._tables[name]
            for key, value in other._tables[name].items():
                table.setdefault(key, value)
            self._hits[name] += other._hits[name]
            self._misses[name] += other._misses[name]

    def portable_state(self) -> dict:
        """The cache's *stats* state as a JSON-ready payload.

        Shard artifacts embed this instead of :meth:`stats`: hit/miss
        counters per table plus the :func:`cache_key_digest` of every
        entry key.  Merging shard artifacts sums the counters (stats
        stay additive across hosts) and unions the digests, so an
        entry computed independently by two shards — the same memoised
        sub-result, recomputed because worker caches start cold — is
        counted once in the merged ``entries`` tally.
        """
        return {
            "tables": {
                name: {
                    "hits": self._hits[name],
                    "misses": self._misses[name],
                    "keys": sorted(
                        cache_key_digest(key) for key in self._tables[name]
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
                    "entries": len(self._tables[name]),
                }
                for name in CACHE_TABLES
            },
        }


def assess_candidate_cached(
    candidate: CandidateBuildUp,
    volume: float,
    cache: EvaluationCache,
) -> BuildUpAssessment:
    """Methodology steps 2-4 for one candidate, through the memo.

    Mirrors :func:`repro.core.methodology.assess_candidate` exactly,
    with each sub-result resolved through the
    :class:`EvaluationCache`.
    """
    if candidate.fixed_performance is not None:
        performance = candidate.fixed_performance
        chain: Optional[ChainPerformance] = None
    else:
        chain = cache.performance(
            candidate.filter_assignments,
            lambda: assess_chain(candidate.filter_assignments),
        )
        performance = chain.score
    area = cache.area(
        candidate.footprints,
        candidate.substrate_rule,
        candidate.laminate,
        lambda: trivial_placement(
            candidate.footprints,
            candidate.substrate_rule,
            candidate.laminate,
        ),
    )
    flow = candidate.flow_factory(area.substrate_area_cm2)
    cost = cache.cost(flow, volume, lambda: evaluate(flow, volume=volume))
    return BuildUpAssessment(
        name=candidate.name,
        performance=performance,
        chain=chain,
        area=area,
        cost=cost,
    )


@dataclass(frozen=True)
class SweepCell:
    """The full study at one grid point."""

    point: DesignPoint
    result: StudyResult


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
    sub-result table, merged across workers whatever engine ran the
    sweep.
    """

    cells: tuple[SweepCell, ...]
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
        artifacts, which carry the frame but no ``cells``.
        """
        return self.frame.winner_counts()

    def rows_for(self, candidate: str) -> list[SweepRow]:
        """All grid rows of one candidate (vectorised filter)."""
        mask = self.frame.column("candidate") == candidate
        return list(self.frame.filter(mask).to_rows())

    def best_row(self) -> SweepRow:
        """The single highest-FoM row of the whole sweep."""
        return self.frame.row(self.frame.best_index())


def _cell_row_values(cell: SweepCell) -> Iterator[tuple]:
    """Per-candidate value tuples of one cell, in SweepRow field order.

    The single canonical cell → values mapping shared by
    :func:`rows_for_cell` (row objects) and :func:`frame_for_cells`
    (columns) — whatever representation a path materialises, the
    underlying values are identical.
    """
    point = cell.point
    winner = cell.result.winner.assessment.name
    pareto = analyze_study(cell.result)
    substrate = point.substrate.name if point.substrate else "paper"
    process = point.process.name if point.process else "paper"
    tolerance = point.tolerance.name if point.tolerance else "paper"
    q_model = point.q_model_label()
    nre = point.nre_label()
    weights = point.weights_label()
    for study_row in cell.result.rows:
        name = study_row.assessment.name
        yield (
            point.volume,
            substrate,
            process,
            tolerance,
            q_model,
            nre,
            weights,
            name,
            study_row.fom.performance,
            study_row.area_percent,
            study_row.cost_percent,
            study_row.fom.figure_of_merit,
            name == winner,
            pareto.is_on_front(name),
        )


def rows_for_cell(cell: SweepCell) -> list[SweepRow]:
    """Flatten one evaluated grid cell into its Pareto-ready rows.

    The row-object view of :func:`_cell_row_values`; per-row consumers
    (and the streaming bridge) use this, bulk paths build a
    :class:`~repro.core.resultframe.ResultFrame` with
    :func:`frame_for_cells` instead.
    """
    return [SweepRow(*values) for values in _cell_row_values(cell)]


def frame_for_cells(cells: Sequence[SweepCell]) -> ResultFrame:
    """Flatten evaluated grid cells into one columnar result frame.

    The canonical cells → frame mapping shared by
    :func:`run_design_sweep`, the streaming generator and the shard
    artifact writer — whatever path produced the cells, the frame (and
    hence its row bridge) is byte-identical.
    """
    columns: dict[str, list] = {name: [] for name in COLUMN_ORDER}
    for cell in cells:
        for values in _cell_row_values(cell):
            for name, value in zip(COLUMN_ORDER, values):
                columns[name].append(value)
    return ResultFrame.from_columns(columns)


def ratio_columns_for_cells(
    cells: Sequence[SweepCell],
) -> dict[str, tuple[float, ...]]:
    """The per-row FoM *input* ratios, aligned with :func:`frame_for_cells`.

    The frame stores ``area_percent`` / ``cost_percent`` — the rounded
    doubles ``fl(100 * ratio)`` — from which the underlying ratios
    cannot be recovered (``(100.0 * x) / 100.0 != x`` for a measurable
    fraction of doubles, and the map is not even injective).  Anything
    that re-ranks stored rows under new FoM weights byte-identically to
    a fresh sweep therefore needs the ratios themselves; the warehouse
    tier (:mod:`repro.core.warehouse`) persists these two auxiliary
    columns next to the frame for exactly that.
    """
    size: list[float] = []
    cost: list[float] = []
    for cell in cells:
        for study_row in cell.result.rows:
            size.append(study_row.fom.size_ratio)
            cost.append(study_row.fom.cost_ratio)
    return {"size_ratio": tuple(size), "cost_ratio": tuple(cost)}


def evaluate_cell(
    point: DesignPoint,
    candidates: Sequence[CandidateBuildUp],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> SweepCell:
    """Evaluate one grid point over ready-made candidates.

    The unit of work every execution engine schedules: validates the
    candidate list, assesses each candidate through the memo and ranks
    the result (methodology step 5).  A point carrying its own FoM
    weight vector (the weights axis) is ranked with it; ``weights`` is
    the sweep-wide default for all other points.
    """
    candidates = list(candidates)
    if not candidates:
        raise SpecificationError(
            f"candidate factory returned no candidates at "
            f"{point.label()}"
        )
    if not (0 <= reference < len(candidates)):
        raise SpecificationError(
            f"reference index {reference} out of range for "
            f"{len(candidates)} candidates"
        )
    assessments = [
        assess_candidate_cached(candidate, point.volume, cache)
        for candidate in candidates
    ]
    effective = point.weights if point.weights is not None else weights
    result = study_from_assessments(assessments, reference, effective)
    return SweepCell(point=point, result=result)


def family_runs(points: Sequence[DesignPoint]) -> list[list[int]]:
    """Group point positions into volume families.

    Two points belong to one family when every axis except the volume
    agrees (by content ``repr``, the cache-key discipline) — such
    points share candidates, performance and placement, differing only
    in the cost step's volume.  Grid enumeration is volume-major
    (volume varies *slowest*), so a family's members are strided across
    the run, not adjacent; positions within each family keep run order.
    """
    families: dict[tuple, list[int]] = {}
    for position, point in enumerate(points):
        key = (
            repr(point.substrate),
            repr(point.process),
            repr(point.tolerance),
            repr(point.q_model),
            repr(point.nre),
            repr(point.weights),
        )
        families.setdefault(key, []).append(position)
    return list(families.values())


def assess_candidate_family_cached(
    candidate: CandidateBuildUp,
    volumes: Sequence[float],
    cache: EvaluationCache,
) -> list[BuildUpAssessment]:
    """Steps 2-4 for one candidate across a volume family, memoised.

    The volume-invariant sub-results (performance, placement) are
    resolved through the cache **once** and re-counted as hits for the
    remaining volumes (:meth:`EvaluationCache.count_reuse`), so the
    stats match the lookups of a per-point evaluation; the cost step
    resolves all volumes through one :meth:`EvaluationCache.cost_batch`
    call backed by a single batched flow walk.  Produces assessments
    bit-identical to ``[assess_candidate_cached(candidate, v, cache)
    for v in volumes]``.
    """
    reuse = len(volumes) - 1
    if candidate.fixed_performance is not None:
        performance = candidate.fixed_performance
        chain: Optional[ChainPerformance] = None
    else:
        chain = cache.performance(
            candidate.filter_assignments,
            lambda: assess_chain(candidate.filter_assignments),
        )
        cache.count_reuse("performance", reuse)
        performance = chain.score
    area = cache.area(
        candidate.footprints,
        candidate.substrate_rule,
        candidate.laminate,
        lambda: trivial_placement(
            candidate.footprints,
            candidate.substrate_rule,
            candidate.laminate,
        ),
    )
    cache.count_reuse("area", reuse)
    flow = candidate.flow_factory(area.substrate_area_cm2)
    costs = cache.cost_batch(
        flow,
        volumes,
        lambda missing: evaluate_batch(flow, missing).to_reports(),
    )
    return [
        BuildUpAssessment(
            name=candidate.name,
            performance=performance,
            chain=chain,
            area=area,
            cost=cost,
        )
        for cost in costs
    ]


def evaluate_family(
    points: Sequence[DesignPoint],
    candidates: Sequence[CandidateBuildUp],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> list[SweepCell]:
    """Evaluate a whole volume family of grid points in one pass.

    All points share one candidate list (the family key excludes only
    the volume); each candidate is assessed across the whole volume
    axis at once and the per-point ranking (step 5) is applied last.
    Returns one cell per point, in the order given, each bit-identical
    to :func:`evaluate_cell` at that point.
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
    per_candidate = [
        assess_candidate_family_cached(candidate, volumes, cache)
        for candidate in candidates
    ]
    cells = []
    for column, point in enumerate(points):
        assessments = [family[column] for family in per_candidate]
        effective = point.weights if point.weights is not None else weights
        result = study_from_assessments(assessments, reference, effective)
        cells.append(SweepCell(point=point, result=result))
    return cells


def _seed_family_placements(
    family_candidates: Sequence[Sequence[CandidateBuildUp]],
    cache: EvaluationCache,
) -> None:
    """Pre-place every not-yet-cached candidate with broadcast calls.

    Candidates are grouped by (rule, laminate) so each group is one
    :func:`~repro.area.placement.trivial_placement_batch` call; results
    are seeded without counting (:meth:`EvaluationCache.seed_area`), so
    the later per-family lookups tally as ordinary hits.
    """
    pending: dict[str, CandidateBuildUp] = {}
    for candidates in family_candidates:
        for candidate in candidates:
            key = EvaluationCache.area_key(
                candidate.footprints,
                candidate.substrate_rule,
                candidate.laminate,
            )
            if not cache.has_area(key) and key not in pending:
                pending[key] = candidate
    groups: dict[str, list[tuple[str, CandidateBuildUp]]] = {}
    for key, candidate in pending.items():
        group_key = f"{candidate.substrate_rule!r}|{candidate.laminate!r}"
        groups.setdefault(group_key, []).append((key, candidate))
    for entries in groups.values():
        rule = entries[0][1].substrate_rule
        laminate = entries[0][1].laminate
        reports = trivial_placement_batch(
            [candidate.footprints for _, candidate in entries],
            rule,
            laminate,
        )
        for (key, _), report in zip(entries, reports):
            cache.seed_area(key, report)


def evaluate_cells_batched(
    points: Sequence[DesignPoint],
    candidate_factory: Callable[[DesignPoint], Sequence[CandidateBuildUp]],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> list[SweepCell]:
    """The batched fill: evaluate a run of points family by family.

    Points are grouped into volume families (:func:`family_runs`); the
    candidate factory runs **once per family** — it must therefore be
    volume-invariant, see :func:`evaluate_cells` — placements are
    broadcast ahead of the evaluation, and each family is assessed with
    one batched flow walk per (candidate, flow).  The returned cells
    are in run order and bit-identical to per-point
    :func:`evaluate_cell` calls.
    """
    runs = family_runs(points)
    family_points = [[points[position] for position in run] for run in runs]
    family_candidates = [
        list(candidate_factory(family[0])) for family in family_points
    ]
    _seed_family_placements(family_candidates, cache)
    cells: list[Optional[SweepCell]] = [None] * len(points)
    for run, family, candidates in zip(
        runs, family_points, family_candidates
    ):
        for position, cell in zip(
            run, evaluate_family(family, candidates, reference, weights, cache)
        ):
            cells[position] = cell
    return cells


def evaluate_cells(
    points: Sequence[DesignPoint],
    candidate_factory: Callable[[DesignPoint], Sequence[CandidateBuildUp]],
    reference: int,
    weights: FomWeights,
    cache: EvaluationCache,
) -> list[SweepCell]:
    """Evaluate a run of grid points in order, sharing one cache.

    The serial engine's whole job (its streaming surface calls this
    block by block), and the per-worker body of the process engine
    (each worker runs this over its slice with a fresh cache that is
    merged back afterwards).

    A candidate factory that declares ``volume_invariant = True``
    (it returns equal candidates for points differing only in volume —
    :class:`~repro.gps.study.GpsSweepFactory` does) gets the batched
    fill, which walks each production flow once per volume family
    instead of once per point; any other factory is called per point.
    Both produce bit-identical cells.
    """
    if getattr(candidate_factory, "volume_invariant", False):
        return evaluate_cells_batched(
            points, candidate_factory, reference, weights, cache
        )
    return [
        evaluate_cell(
            point, candidate_factory(point), reference, weights, cache
        )
        for point in points
    ]


def run_design_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    candidate_factory: Callable[[DesignPoint], Sequence[CandidateBuildUp]],
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    executor=None,
) -> SweepReport:
    """Fan the methodology out over a design-space grid.

    Parameters
    ----------
    grid:
        A :class:`SweepGrid` or an explicit iterable of
        :class:`DesignPoint`.
    candidate_factory:
        Maps a grid point to the build-up candidates to study there
        (step 1 stays the application's job).  The process engine ships
        the factory to worker processes, so it must be picklable there
        (a module-level function or class instance, not a lambda).
    reference:
        Index of the reference candidate (the 100 % marks), per point.
    weights:
        Optional FoM weighting; the paper's plain product by default.
    cache:
        Optional pre-warmed :class:`EvaluationCache`; a fresh one is
        created when omitted.  Worker caches are merged into it, so its
        stats always cover the whole sweep.
    executor:
        Optional :class:`~repro.core.executors.Executor`; defaults to
        the engine named by ``$REPRO_SWEEP_ENGINE`` (serial when unset).
        Every engine produces identical rows — they only change how the
        grid is scheduled.
    """
    points = grid.points() if isinstance(grid, SweepGrid) else list(grid)
    if not points:
        raise SpecificationError("design sweep needs at least one point")
    if weights is None:
        weights = FomWeights()
    if cache is None:
        cache = EvaluationCache()
    if executor is None:
        from .executors import default_executor  # cycle-free at import

        executor = default_executor()

    cells = executor.run_sweep(
        points, candidate_factory, reference, weights, cache
    )
    return SweepReport(
        cells=tuple(cells),
        frame=frame_for_cells(cells),
        cache_stats=cache.stats(),
    )


@dataclass(frozen=True)
class StreamedCell:
    """One grid cell as it streams out of :func:`stream_design_sweep`.

    ``index`` is the cell's canonical position in the grid.  The
    default serial engine yields cells in canonical order; an engine
    that streams in *completion* order (the async engine) yields them
    out of order, so a consumer that needs canonical order under any
    engine sorts or reorders by index.
    ``frame`` carries the cell's results columnar (concatenate streamed
    frames with :meth:`ResultFrame.concat` for an incremental report);
    :attr:`rows` is the row-object bridge.
    """

    index: int
    cell: SweepCell
    frame: ResultFrame

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """The cell's frame as row objects (bit-exact bridge)."""
        return self.frame.to_rows()


def stream_design_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    candidate_factory: Callable[[DesignPoint], Sequence[CandidateBuildUp]],
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    executor=None,
) -> Iterator[StreamedCell]:
    """The generator surface of :func:`run_design_sweep`.

    Yields one :class:`StreamedCell` per grid point as results become
    available instead of blocking until the whole grid is done.  The
    default engine, :class:`~repro.core.executors.SerialExecutor`,
    evaluates contiguous blocks of points through the batched fill and
    yields their cells in canonical order.  An engine with its own
    ``iter_cells`` streams through it (the async engine in completion
    order); any other :class:`~repro.core.executors.Executor` is
    driven to completion first and its cells are yielded in canonical
    order.

    The rows of every yielded cell are byte-identical to the rows
    :func:`run_design_sweep` would report for the same grid — streaming
    changes *when* results become visible, never *what* they are.
    """
    points = grid.points() if isinstance(grid, SweepGrid) else list(grid)
    if not points:
        raise SpecificationError("design sweep needs at least one point")
    if weights is None:
        weights = FomWeights()
    if cache is None:
        cache = EvaluationCache()
    if executor is None:
        from .executors import SerialExecutor  # cycle-free at import

        executor = SerialExecutor()

    iter_cells = getattr(executor, "iter_cells", None)
    if iter_cells is not None:
        indexed = iter_cells(
            points, candidate_factory, reference, weights, cache
        )
    else:
        indexed = enumerate(
            executor.run_sweep(
                points, candidate_factory, reference, weights, cache
            )
        )
    for index, cell in indexed:
        yield StreamedCell(
            index=index, cell=cell, frame=frame_for_cells([cell])
        )
