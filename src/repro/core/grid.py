"""The design-space grid and its identity: what a sweep covers.

The model-free half of the sweep subsystem.  Everything that stores,
moves, merges or queries decision frames — shard artifacts, the chunk
store, the warehouse, the queue, the gather and the query service —
needs to know *which* grid a frame belongs to, never how its cells
were evaluated.  So this module names the grid and nothing else, and
loads no circuit, area, cost, passives or GPS module:

* :class:`DesignPoint` — one coordinate in the design space (volume,
  substrate rule, thin-film process, tolerance class, technology
  Q model, NRE scenario, FoM weight vector), with :class:`NreScenario`
  for the NRE axis;
* :class:`SweepGrid` — the cartesian product of per-axis value lists
  (:data:`GRID_AXES`) and :func:`resolve_grid` (a grid as it is, a
  point list as a grid of its own points);
* :class:`GridIdentity` — which grid, in which canonical order, of how
  many points: :func:`grid_fingerprint` (a content hash over the
  *sorted* point representations, so it survives axis reordering), the
  order-sensitive :func:`grid_order_digest` (shard *indices* depend on
  the order) and the point count.  Artifacts, queue manifests,
  and warehouses (spilled ones included) all carry it, and
  :meth:`GridIdentity.check` is the one rule that compares two;
* :class:`SweepReport` — a sweep's results as a columnar
  :class:`~repro.core.resultframe.ResultFrame` plus the evaluation
  cache's stats (per :data:`CACHE_TABLES` table), whether evaluated
  in-process (:mod:`repro.core.sweep`) or merged from shard artifacts.

The axis values are the model's objects (substrate rules, thin-film
processes, tolerance classes, Q models); the grid only holds, compares
and ``repr`` s them, so their classes are named in annotations alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..errors import SpecificationError

if TYPE_CHECKING:
    from ..area.substrate import SubstrateRule
    from ..passives.thin_film import ThinFilmProcess
    from ..passives.tolerance import ToleranceClass
    from .figure_of_merit import FomWeights
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

    def point_reprs(self) -> list[str]:
        """``repr`` of every point :meth:`points` lists, joined from each
        axis value's ``repr`` without building a point."""
        axes = [
            [f"{field.name}={value!r}" for value in getattr(self, axis)]
            for axis, field in zip(GRID_AXES, fields(DesignPoint))
        ]
        return [f"DesignPoint({', '.join(parts)})" for parts in product(*axes)]

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


def resolve_grid(
    grid: SweepGrid | Iterable[DesignPoint],
) -> SweepGrid | list[DesignPoint]:
    """A :class:`SweepGrid` as it is, an explicit iterable of
    :class:`DesignPoint` as its list — a grid of its own points, flat
    index ``i`` its ``i``-th point; at least one point."""
    if isinstance(grid, SweepGrid):
        return grid
    points = list(grid)
    if not points:
        raise SpecificationError("design sweep needs at least one point")
    return points


def grid_order_digest(point_reprs: Iterable[str]) -> str:
    """Hash of point ``repr`` strings, in the order given.

    Over the grid's canonical order this is the order digest of
    :class:`GridIdentity`: two hosts that build the same point set with
    axes in different orders share a :func:`grid_fingerprint` but
    disagree on which canonical index names which point — merging their
    shards index-wise would assemble a silently wrong report.  The
    order digest catches exactly that.
    """
    digest = hashlib.sha256()
    for text in point_reprs:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def grid_fingerprint(points: Sequence[DesignPoint]) -> str:
    """Stable content hash of a resolved grid.

    The :func:`grid_order_digest` of the *sorted* ``repr`` of every
    design point (the same content key discipline
    :class:`~repro.core.sweep.EvaluationCache` relies on), so the
    fingerprint identifies the grid's content independently of axis
    ordering: a host that builds the same set of points with its volume
    axis reversed still addresses the same shard family.
    """
    return grid_order_digest(sorted(repr(point) for point in points))


#: :class:`GridIdentity`'s fields, in the order payloads write them.
IDENTITY_FIELDS = ("fingerprint", "order_digest", "total_points")


@dataclass(frozen=True)
class GridIdentity:
    """Which grid, in which canonical order, of how many points.

    The one value every shard artifact, queue manifest, warehouse and
    spilled frame store carries, and :meth:`check` is the one rule that
    compares two of them.
    """

    fingerprint: str
    order_digest: str
    total_points: int

    @classmethod
    def of(cls, grid: SweepGrid | Iterable[DesignPoint]) -> "GridIdentity":
        """The identity of a grid or its resolved points (at least one;
        each point ``repr`` ed once, a grid's by
        :meth:`SweepGrid.point_reprs`)."""
        grid = resolve_grid(grid)
        if isinstance(grid, SweepGrid):
            reprs = grid.point_reprs()
        else:
            reprs = [repr(point) for point in grid]
        return cls(
            grid_order_digest(sorted(reprs)),
            grid_order_digest(reprs),
            len(reprs),
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "GridIdentity":
        """The identity fields of a JSON payload (``None`` if absent)."""
        return cls(*(payload.get(name) for name in IDENTITY_FIELDS))

    def payload(self) -> dict:
        """The identity fields, in their on-disk order."""
        return {name: getattr(self, name) for name in IDENTITY_FIELDS}

    def check(
        self, found: "GridIdentity", error: type, subject: str, against: str
    ) -> None:
        """Raise ``error`` unless ``found`` (what ``subject`` carries) is
        this identity (what ``against`` carries).

        Fingerprint first (another grid), then the order digest (the
        same grid enumerated in another order: index-wise merging would
        pair rows with the wrong points), then the point count.
        """
        pair = f"{subject} and {against}"
        if found.fingerprint != self.fingerprint:
            raise error(
                f"{pair} fingerprint different grids "
                f"({found.fingerprint} vs {self.fingerprint}): refusing "
                f"the wrong sweep"
            )
        if found.order_digest != self.order_digest:
            raise error(
                f"{pair} enumerate the same grid in a different point "
                f"order (different canonical order digests "
                f"{found.order_digest} vs {self.order_digest}): re-run "
                f"with identically-ordered axes"
            )
        if found.total_points != self.total_points:
            raise error(
                f"{pair} disagree on the grid size "
                f"({found.total_points} vs {self.total_points} points)"
            )


#: The evaluation cache's sub-result tables, in reporting order.
CACHE_TABLES = ("performance", "area", "cost")


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

    ``cache_stats`` carries
    :meth:`~repro.core.sweep.EvaluationCache.stats`: flat ``hits`` /
    ``misses`` totals plus a ``tables`` breakdown per sub-result table;
    a report merged from shard artifacts sums the shards' counters.
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
