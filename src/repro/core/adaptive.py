"""Adaptive Pareto-refinement sweep driver (coarse → zoom passes).

Every other tier — batched MNA, sharding, the queue fabric, the
warehouse and its spill writer — evaluates the **exhaustive**
Cartesian grid.  This module attacks the evaluation count instead: run
a *coarse* pass over a subsampled grid, find the cells that put rows on
(or within a configurable dominance margin of) the current global
Pareto front, and **zoom** — refine only the continuous axes in the
neighbourhoods of front members, re-proposing subgrids until the front
is stable or an evaluation budget is exhausted.

Three axes are *refinable* — they carry orderable, continuous values:

* **volume** — refined by rank over the value-sorted axis, so a
  geometrically spaced axis is bisected on the log scale;
* **Q model** — custom ``tan=<x>`` loss-tangent models
  (:class:`~repro.circuits.qfactor.SubstrateLossQModel`), ordered by
  their parameter tuple; named scenarios and the paper default are
  discrete and never refined;
* **FoM weights** — explicit
  :class:`~repro.core.figure_of_merit.FomWeights` triples ordered by
  their exponent tuple.

Everything else (substrate rules, processes, tolerance classes, NRE
scenarios, the ``None`` paper defaults) is categorical: the coarse pass
always covers those values in full.

Refinement never leaves the target grid: proposals are *positions of
the exhaustive grid*, found by rank bisection between already-evaluated
neighbours of each front cell.  That is what makes the acceptance gate
checkable — the adaptive front can be byte-compared against the
exhaustive front restricted to the evaluated points, because every
evaluated point is an exhaustive-grid point evaluated through exactly
the same :func:`~repro.core.sweep.evaluate_cells` path.

Each pass is the grid plus the flat indices it evaluates, driven
through :func:`~repro.core.sweep.stream_decision_frames` (serial,
family-batched blocks) with one shared memoised
:class:`~repro.core.sweep.EvaluationCache`, so the sweep machinery
composes unchanged and refinement re-uses every sub-result (and every
rendered area key) the coarse pass already paid for.  A pass costs
the cells it evaluates, not the grid's size: zoom neighbours come from
an index of the evaluated set, never from a scan of the axis.  All
passes merge into one canonical
:class:`~repro.core.ranking.DecisionFrame` — deduplicated by design
point (one evaluation per grid coordinate, whatever pass proposed it
first) and ordered by the point's canonical grid position — the unit
a warehouse frame stores, so a spilled adaptive run
(:func:`spill_adaptive_sweep`) is a warehouse of the grid whose
frames cover the evaluated points.

The :class:`AdaptiveReport` records per-pass evaluation counts, front
deltas and cache reuse, so the "≥10x fewer evaluations at equal front
quality" claim is *observable* (``benchmarks/test_adaptive_speed.py``
gates on it, and on a ≥2x wall-clock win over the exhaustive sweep at
32768 points), not asserted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from ..circuits.qfactor import SubstrateLossQModel
from ..errors import SpecificationError
from .figure_of_merit import FomWeights
from .grid import (
    GRID_AXES,
    DesignPoint,
    GridIdentity,
    SweepGrid,
    SweepReport,
)
from .pareto import dominated_by
from .ranking import DecisionFrame
from .resultframe import ResultFrame
from .sweep import EvaluationCache, stream_decision_frames


def _refinable_order(axis: str, values: Sequence) -> list[int]:
    """Positions of the axis's refinable values, in *value* order.

    Returns the positions (indices into the axis tuple) of values the
    zoom may bisect between, sorted ascending by value so consecutive
    ranks are value-neighbours.  Categorical axes (and categorical
    values on a mixed axis) yield no positions — the coarse pass covers
    them in full instead.
    """
    if axis == "volumes":
        keyed = [(float(value), pos) for pos, value in enumerate(values)]
    elif axis == "q_models":
        keyed = [
            (
                (
                    value.tan_delta_ref,
                    value.f_ref_hz,
                    value.slope,
                    value.conductor_q,
                ),
                pos,
            )
            for pos, value in enumerate(values)
            if isinstance(value, SubstrateLossQModel)
        ]
    elif axis == "fom_weights":
        keyed = [
            ((value.performance, value.size, value.cost), pos)
            for pos, value in enumerate(values)
            if isinstance(value, FomWeights)
        ]
    else:
        return []
    keyed.sort()
    return [pos for _, pos in keyed]


def _coarse_ranks(length: int, coarse: int) -> list[int]:
    """Evenly spaced subsample of ``range(length)``, endpoints included.

    ``coarse`` is the number of ranks the coarse pass keeps per
    refinable axis; short axes are kept whole.
    """
    if length <= coarse:
        return list(range(length))
    ranks = {
        round(i * (length - 1) / (coarse - 1)) for i in range(coarse)
    }
    return sorted(ranks)


@dataclass(frozen=True)
class AdaptivePass:
    """Bookkeeping for one coarse or zoom pass.

    ``proposed`` counts the fresh grid positions the pass wanted (never
    a position some earlier pass already evaluated); ``evaluated`` is
    what the budget let through.  ``front_added`` / ``front_removed``
    compare global-front membership (cell, candidate) pairs against the
    previous pass.  ``cache_hits`` / ``cache_misses`` are the shared
    evaluation cache's deltas over the pass — the observable measure of
    how much of a zoom pass the memo made free.
    """

    index: int
    proposed: int
    evaluated: int
    cumulative_evaluations: int
    front_size: int
    front_added: int
    front_removed: int
    cache_hits: int
    cache_misses: int


@dataclass(frozen=True)
class AdaptiveReport:
    """Everything the adaptive driver produced.

    ``frame`` carries the merged results of every pass in canonical
    grid order — byte-identical to what an exhaustive sweep
    restricted to ``evaluated_indices`` would report, so all frame
    consumers (the warehouse, the spill writer, CSV) compose
    unchanged; ``dframe`` is that frame with its ratios and indices.
    ``grid_points`` is the exhaustive grid's size; ``savings`` is the
    headline evaluation-count ratio.
    """

    grid_points: int
    total_evaluations: int
    passes: tuple[AdaptivePass, ...]
    stable: bool
    budget_exhausted: bool
    refine_margin: float
    dframe: DecisionFrame
    cache_stats: dict = field(default_factory=dict)

    @property
    def frame(self) -> ResultFrame:
        """The merged rows of every pass, in canonical grid order."""
        return self.dframe.frame

    @property
    def evaluated_indices(self) -> tuple[int, ...]:
        """The grid indices evaluated, in canonical order."""
        return self.dframe.indices

    @property
    def savings(self) -> float:
        """Exhaustive-grid points per evaluation actually spent."""
        return self.grid_points / self.total_evaluations

    @property
    def report(self) -> SweepReport:
        """The merged results as an ordinary :class:`SweepReport`."""
        return SweepReport(
            frame=self.frame,
            cache_stats=self.cache_stats,
        )

    def front_mask(self, margin: float = 0.0) -> np.ndarray:
        """Global Pareto membership per merged-frame row."""
        return global_front_mask(self.frame, margin)

    def front_frame(self) -> ResultFrame:
        """The merged frame restricted to the global Pareto front."""
        return self.frame.filter(self.front_mask())


def global_front_mask(
    frame: ResultFrame, margin: float = 0.0
) -> np.ndarray:
    """Pareto membership of frame rows across *all* cells.

    The per-cell ``on_pareto_front`` column compares the four
    candidates of one grid point with each other; the adaptive driver
    needs dominance across the whole evaluated set.  Objectives are the
    frame's ``performance`` (maximised) and ``area_percent`` /
    ``cost_percent`` (minimised); ``margin = 0`` asks for the exact
    front (:meth:`ResultFrame.pareto_mask`).  A positive margin widens
    membership to rows whose fictitious improved copy — performance
    scaled up by ``1 + margin``, size and cost ratios scaled down by
    the same factor — no *original* row dominates: such a row is on
    the front or within the relative margin of it.  Objectives are
    non-negative throughout the study, so the margin is a relative
    factor that composes with the log-scale volume axis.  Both verdicts
    come from :func:`~repro.core.pareto.dominated_by`.
    """
    if not np.isfinite(margin) or margin < 0.0:
        raise SpecificationError(
            f"dominance margin must be a finite non-negative factor, got {margin!r}"
        )
    if margin == 0.0:
        return frame.pareto_mask()
    performance = frame.column("performance")
    area = frame.column("area_percent")
    cost = frame.column("cost_percent")
    boost = 1.0 + margin
    originals = np.column_stack([-performance, area, cost])
    boosted = np.column_stack(
        [-(performance * boost), area / boost, cost / boost]
    )
    return ~dominated_by(originals, boosted)


def _front_cells(
    merged: DecisionFrame, mask: np.ndarray
) -> tuple[set[int], set[tuple[int, str]]]:
    """Cells to refine around, plus front identity for delta tracking.

    ``merged`` holds every evaluated cell at its flat grid index (a
    stable identity across passes — row positions shift as the
    evaluated set grows).  The first return holds the flat indices of
    the cells to zoom around, deduplicated by objective vector: the
    reference rows are byte-identical at every grid point (always the
    ``100 %`` marks), so without dedup every evaluated cell would count
    as a front cell and the zoom would flood the grid.  Only the
    earliest cell carrying a distinct objective vector is refined;
    front *membership* (the second return, ``(flat index, candidate)``
    pairs) stays undeduped so pass deltas report what the front
    actually holds.
    """
    frame = merged.frame
    rows = np.flatnonzero(mask)
    refine: set[int] = set()
    members: set[tuple[int, str]] = set()
    seen: set[tuple[float, float, float]] = set()
    for index, name, objective in zip(
        merged.point_of_row()[rows].tolist(),
        frame.column("candidate")[rows].tolist(),
        zip(
            frame.column("performance")[rows].tolist(),
            frame.column("area_percent")[rows].tolist(),
            frame.column("cost_percent")[rows].tolist(),
        ),
    ):
        members.add((index, name))
        if objective not in seen:
            seen.add(objective)
            refine.add(index)
    return refine, members


def _line_key(positions: list[int], axis_rank: int) -> tuple:
    """The axis line through ``positions`` along axis ``axis_rank``:
    the axis plus every off-axis position."""
    return axis_rank, (*positions[:axis_rank], *positions[axis_rank + 1 :])


class _GridIndex:
    """Rank arithmetic over one :class:`SweepGrid`.

    Maps between flat canonical indices (the order
    :meth:`SweepGrid.points` enumerates, last axis fastest) and
    per-axis positions, and knows which positions of each axis are
    refinable and in what value order.
    """

    def __init__(self, grid: SweepGrid):
        self.grid = grid
        self.shape = tuple(len(getattr(grid, axis)) for axis in GRID_AXES)
        # ordered[a]: refinable positions of axis a, ascending by value.
        # rank_of[a]: position -> rank within ordered[a].
        self.ordered: list[list[int]] = []
        self.rank_of: list[dict[int, int]] = []
        for axis in GRID_AXES:
            order = _refinable_order(axis, getattr(grid, axis))
            self.ordered.append(order)
            self.rank_of.append(
                {pos: rank for rank, pos in enumerate(order)}
            )

    def flat(self, positions: Sequence[int]) -> int:
        index = 0
        for length, position in zip(self.shape, positions):
            index = index * length + position
        return index

    def unflat(self, index: int) -> list[int]:
        positions = [0] * len(self.shape)
        for axis in range(len(self.shape) - 1, -1, -1):
            index, positions[axis] = divmod(index, self.shape[axis])
        return positions

    def coarse_indices(self, coarse: int) -> list[int]:
        """Flat indices of the coarse pass, in canonical order."""
        kept: list[list[int]] = []
        for axis_rank, axis in enumerate(GRID_AXES):
            length = self.shape[axis_rank]
            order = self.ordered[axis_rank]
            refinable = set(order)
            positions = {
                pos for pos in range(length) if pos not in refinable
            }
            positions.update(
                order[rank] for rank in _coarse_ranks(len(order), coarse)
            )
            kept.append(sorted(positions))
        return [self.flat(combo) for combo in product(*kept)]

    def zoom_indices(
        self, refine: set[int], evaluated: set[int]
    ) -> list[int]:
        """Flat indices the next zoom pass should evaluate.

        For every front cell and every refinable axis, bisect by rank
        between the cell and its nearest *evaluated* value-neighbour on
        each side (falling back to the axis end when the budget starved
        an endpoint).  Gap-1 neighbours propose nothing — that line is
        locally resolved — so successive passes halve every gap and the
        proposal stream provably dries up.

        A front cell's evaluated neighbours come from one index of the
        evaluated set, built first: the sorted ranks of the evaluated
        cells on every axis line, keyed by the line's axis and its
        off-axis positions.  A pass therefore costs O(evaluated cells ×
        axes), whatever the axis lengths.
        """
        lines: dict[tuple, list[int]] = {}
        for index in evaluated:
            positions = self.unflat(index)
            for axis_rank, rank_of in enumerate(self.rank_of):
                rank = rank_of.get(positions[axis_rank])
                if rank is not None:
                    line_key = _line_key(positions, axis_rank)
                    lines.setdefault(line_key, []).append(rank)
        for ranks in lines.values():
            ranks.sort()
        proposals: set[int] = set()
        for index in sorted(refine):
            positions = self.unflat(index)
            for axis_rank in range(len(GRID_AXES)):
                order = self.ordered[axis_rank]
                rank = self.rank_of[axis_rank].get(positions[axis_rank])
                if rank is None or len(order) < 2:
                    continue
                line = list(positions)

                def line_flat(r: int) -> int:
                    line[axis_rank] = order[r]
                    return self.flat(line)

                evaluated_ranks = lines.get(
                    _line_key(positions, axis_rank), []
                )
                at = bisect_left(evaluated_ranks, rank)
                for anchor, end in (
                    (evaluated_ranks[at - 1] if at > 0 else None, 0),
                    (
                        evaluated_ranks[at + 1]
                        if at + 1 < len(evaluated_ranks)
                        else None,
                        len(order) - 1,
                    ),
                ):
                    if anchor is None:
                        targets = {end, (end + rank) // 2}
                    elif abs(anchor - rank) > 1:
                        targets = {(anchor + rank) // 2}
                    else:
                        continue
                    for target in targets:
                        flat = line_flat(target)
                        if flat not in evaluated:
                            proposals.add(flat)
        return sorted(proposals)


def run_adaptive_sweep(
    grid: SweepGrid,
    candidate_factory: Callable[[DesignPoint], Sequence],
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    *,
    passes: Optional[int] = None,
    budget: Optional[int] = None,
    refine_margin: float = 0.0,
    coarse: int = 4,
) -> AdaptiveReport:
    """Sweep a grid adaptively: coarse pass, then zoom on the front.

    Parameters beyond :func:`~repro.core.sweep.run_design_sweep`'s
    (which keep their meaning — shared cache, per-point weights):

    passes:
        Maximum number of passes, the coarse pass included.  ``None``
        (default) runs until the front is stable — rank bisection
        guarantees that takes at most ``log2(axis length)`` zooms.
    budget:
        Maximum total cell evaluations across all passes.  A pass that
        would overrun is truncated in canonical order and the report is
        flagged ``budget_exhausted``.
    refine_margin:
        Relative dominance margin for choosing which cells to refine
        around: ``0`` refines only exact front members, ``0.05`` also
        refines cells whose rows come within 5 % of the front
        (:func:`global_front_mask`).  Widening the margin trades
        evaluations for robustness against fronts that shift as
        refinement fills the grid in.
    coarse:
        Ranks the coarse pass keeps per refinable axis (endpoints
        always included; categorical values are always swept in full).

    Returns an :class:`AdaptiveReport`; its ``frame`` is byte-identical
    to the exhaustive sweep's frame restricted to the evaluated points.
    """
    if not isinstance(grid, SweepGrid):
        raise SpecificationError(
            "adaptive sweep needs a SweepGrid (axis structure drives "
            "refinement), not a bare point iterable"
        )
    if passes is not None and passes < 1:
        raise SpecificationError(
            f"adaptive sweep needs at least one pass, got {passes}"
        )
    if budget is not None and budget < 1:
        raise SpecificationError(
            f"evaluation budget must be positive, got {budget}"
        )
    if coarse < 2:
        raise SpecificationError(
            f"coarse pass needs at least 2 ranks per axis, got {coarse}"
        )
    if not np.isfinite(refine_margin) or refine_margin < 0.0:
        raise SpecificationError(
            "refine margin must be a finite non-negative factor, "
            f"got {refine_margin!r}"
        )
    if weights is None:
        weights = FomWeights()
    if cache is None:
        cache = EvaluationCache()
    index = _GridIndex(grid)
    evaluated: set[int] = set()
    blocks: list[DecisionFrame] = []
    merged = DecisionFrame.empty()
    pass_records: list[AdaptivePass] = []
    previous_members: set[tuple[int, str]] = set()
    refine: set[int] = set()
    stable = False
    budget_exhausted = False

    pass_number = 0
    while passes is None or pass_number < passes:
        pass_number += 1
        if pass_number == 1:
            proposals = index.coarse_indices(coarse)
        else:
            proposals = index.zoom_indices(refine, evaluated)
        if not proposals:
            stable = True
            break
        chosen = proposals
        if budget is not None:
            headroom = budget - len(evaluated)
            if headroom < len(chosen):
                budget_exhausted = True
                chosen = chosen[:headroom]
        if chosen:
            hits_before = cache.hits
            misses_before = cache.misses
            blocks.extend(
                stream_decision_frames(
                    grid,
                    candidate_factory,
                    reference,
                    weights,
                    cache,
                    chosen,
                )
            )
            evaluated.update(chosen)
            merged = DecisionFrame.concat(blocks)
            mask = global_front_mask(merged.frame, refine_margin)
            refine, members = _front_cells(merged, mask)
            pass_records.append(
                AdaptivePass(
                    index=pass_number,
                    proposed=len(proposals),
                    evaluated=len(chosen),
                    cumulative_evaluations=len(evaluated),
                    front_size=len(members),
                    front_added=len(members - previous_members),
                    front_removed=len(previous_members - members),
                    cache_hits=cache.hits - hits_before,
                    cache_misses=cache.misses - misses_before,
                )
            )
            previous_members = members
        if budget_exhausted:
            break
    else:
        # Pass limit reached; the run still counts as stable when the
        # next zoom would have proposed nothing anyway (the single-pass
        # "coarse covers the whole grid" case lands here).
        stable = not index.zoom_indices(refine, evaluated)

    return AdaptiveReport(
        grid_points=len(grid),
        total_evaluations=len(evaluated),
        passes=tuple(pass_records),
        stable=stable,
        budget_exhausted=budget_exhausted,
        refine_margin=refine_margin,
        dframe=merged,
        cache_stats=cache.stats(),
    )


def spill_adaptive_sweep(
    grid: SweepGrid,
    candidate_factory: Callable[[DesignPoint], Sequence],
    directory,
    max_rows_in_memory: int,
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    *,
    passes: Optional[int] = None,
    budget: Optional[int] = None,
    refine_margin: float = 0.0,
    coarse: int = 4,
    meta: Optional[dict] = None,
):
    """Adaptive sweep whose merged frame is spilled to a warehouse.

    Runs :func:`run_adaptive_sweep` and writes the merged
    :class:`~repro.core.ranking.DecisionFrame` at its grid indices
    through a :class:`~repro.core.framestore.ChunkedFrameStore` under
    ``directory``, under the full grid's identity: the frames cover the
    evaluated points, so ``warehouse query`` answers over them.  The
    manifest's meta carries the adaptive counters and the shared
    cache's stats.

    Returns ``(store, report)`` — the report keeps the in-RAM pass
    bookkeeping, the store the durable rows.
    """
    from .framestore import ChunkedFrameStore

    report = run_adaptive_sweep(
        grid,
        candidate_factory,
        reference=reference,
        weights=weights,
        cache=cache,
        passes=passes,
        budget=budget,
        refine_margin=refine_margin,
        coarse=coarse,
    )
    store = ChunkedFrameStore.create(
        directory,
        GridIdentity.of(grid),
        max_rows_in_memory=max_rows_in_memory,
        meta={
            **(meta or {}),
            "adaptive": {
                "grid_points": report.grid_points,
                "total_evaluations": report.total_evaluations,
                "passes": len(report.passes),
                "stable": report.stable,
                "budget_exhausted": report.budget_exhausted,
                "refine_margin": report.refine_margin,
            },
        },
    )
    store.append(report.dframe)
    return store.finish(meta={"cache_stats": report.cache_stats}), report
