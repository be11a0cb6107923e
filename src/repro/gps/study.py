"""End-to-end reproduction of the paper's GPS case study (§4).

:func:`sweep_candidates` is step 1 of the methodology: it turns the
four build-ups into candidates at one design point, and it is the only
code that does.  :func:`run_gps_study` evaluates it at the paper's own
point (:data:`PAPER_POINT`) and executes steps 2-5, producing the
quantities behind Fig. 3 (area), Fig. 5 (cost), Fig. 6 (figure of
merit) and the §4.1 performance scores in one call; every GPS sweep
entry point hands :func:`sweep_candidates` to its core engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from ..area.substrate import LAMINATE_RULE, MCM_D_RULE, PCB_RULE
from ..core.methodology import (
    CandidateBuildUp,
    StudyResult,
    run_study,
)
from ..core.figure_of_merit import FomWeights
from ..core.grid import DesignPoint, SweepGrid, SweepReport
from ..core.sweep import (
    EvaluationCache,
    StreamedCell,
    run_design_sweep,
    stream_design_sweep,
)
from ..passives.thin_film import SUMMIT_PROCESS
from . import data
from .data import NRE_SCENARIOS, SWEEP_NRE_SCENARIO
from .buildups import (
    flow_for,
    footprints_for,
    get_buildup,
    integrated_count_for,
)
from .filters_chain import technology_assignments


@dataclass(frozen=True)
class GpsStudyRow:
    """Convenience view of one implementation's results."""

    implementation: int
    name: str
    performance: float
    area_percent: float
    cost_percent: float
    figure_of_merit: float


def sweep_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    """The four GPS build-ups instantiated at one design point.

    This is the GPS candidate factory for :mod:`repro.core.sweep` and
    the study alike: the point's axes are mapped onto the paper's
    knobs —

    * ``process`` re-sizes the integrated passives (area step) and
      re-models the integrated filters' Q (performance step) of
      build-ups 3 and 4;
    * ``substrate`` replaces the MCM-D sizing rule of build-ups 2-4
      (the PCB reference keeps its board rule);
    * ``tolerance`` folds its module yield and trim cost into the
      substrate carrier of build-ups 3 and 4;
    * ``volume`` is consumed by the sweep's cost evaluation, made
      meaningful by the NRE scenario;
    * ``q_model`` replaces the integrated-passives technology Q model
      of build-ups 3 and 4 (possibly with a frequency-dependent one —
      the Q-model axis);
    * ``nre`` replaces the NRE assumption (:data:`SWEEP_NRE_SCENARIO`)
      with a named :class:`~repro.core.grid.NreScenario` (the NRE
      axis);
    * ``weights`` is consumed by the sweep's ranking step (the FoM
      weights axis — not this factory's business).
    """
    process = point.process if point.process is not None else SUMMIT_PROCESS
    if point.nre is not None:
        nre_by_impl: Mapping[int, float] = point.nre.as_mapping()
    else:
        nre_by_impl = SWEEP_NRE_SCENARIO
    result = []
    for implementation in (1, 2, 3, 4):
        buildup = get_buildup(implementation)
        footprints = footprints_for(implementation, process)

        substrate_rule = MCM_D_RULE if buildup.is_mcm else PCB_RULE
        if point.substrate is not None and buildup.is_mcm:
            substrate_rule = point.substrate

        yield_factor = 1.0
        trim_cost = 0.0
        if point.tolerance is not None and implementation in (3, 4):
            integrated = integrated_count_for(implementation, process)
            yield_factor = point.tolerance.module_yield(integrated)
            trim_cost = point.tolerance.trim_cost(integrated)

        def factory(
            area_cm2: float,
            _implementation: int = implementation,
            _yield_factor: float = yield_factor,
            _trim_cost: float = trim_cost,
        ):
            return flow_for(
                _implementation,
                area_cm2,
                nre=nre_by_impl.get(_implementation, 0.0),
                substrate_yield_factor=_yield_factor,
                extra_substrate_cost=_trim_cost,
            )

        result.append(
            CandidateBuildUp(
                name=buildup.name,
                footprints=footprints,
                substrate_rule=substrate_rule,
                laminate=LAMINATE_RULE if buildup.is_mcm else None,
                flow_factory=factory,
                filter_assignments=technology_assignments(
                    implementation, process, point.q_model
                ),
            )
        )
    return result


#: ``sweep_candidates`` never reads ``point.volume``, so the batched
#: fill may call it once per volume family (see
#: :func:`repro.core.sweep.evaluate_cells`).
sweep_candidates.volume_invariant = True

#: The paper's own design point: default axes and no NRE, which is what
#: §4 assumes.
PAPER_POINT = DesignPoint(nre=NRE_SCENARIOS["zero"])


def run_gps_study(
    *,
    weights: Optional[FomWeights] = None,
    volume: float = 10_000.0,
) -> StudyResult:
    """Run the complete GPS trade-off study at :data:`PAPER_POINT`.

    The reference is implementation 1 (PCB/SMD), as in the paper.
    """
    return run_study(
        sweep_candidates(PAPER_POINT),
        reference=0,
        weights=weights,
        volume=volume,
    )


def run_gps_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    *,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> SweepReport:
    """Design-space sweep over the GPS case study.

    The reference is implementation 1 (PCB/SMD) at every grid point, as
    in the paper.
    """
    return run_design_sweep(
        grid,
        sweep_candidates,
        reference=0,
        weights=weights,
        cache=cache,
    )


def stream_gps_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    *,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> Iterator[StreamedCell]:
    """Streaming variant of :func:`run_gps_sweep`.

    Yields one :class:`~repro.core.sweep.StreamedCell` per grid point,
    block by block in canonical order.  Each carries its
    results as a per-cell
    :class:`~repro.core.resultframe.ResultFrame` (plus the bridged
    ``rows``), byte-identical to the slice :func:`run_gps_sweep`
    reports for the same grid.
    """
    yield from stream_design_sweep(
        grid,
        sweep_candidates,
        reference=0,
        weights=weights,
        cache=cache,
    )


def spill_gps_sweep(
    grid: SweepGrid | Iterable[DesignPoint],
    directory,
    max_rows_in_memory: int,
    *,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
) -> "ChunkedFrameStore":
    """Out-of-core variant of :func:`run_gps_sweep`.

    Evaluates the grid while spilling completed cells into a
    warehouse directory through a
    :class:`~repro.core.framestore.ChunkedFrameStore`, buffering fewer
    than ``max_rows_in_memory`` rows beyond the frame being cut — the
    store's row stream (CSV, Pareto mask) is byte-identical to
    :func:`run_gps_sweep`'s in-RAM frame.  The CLI
    flow is ``repro-gps sweep --max-rows-in-memory N [--spill-dir
    DIR]`` (or ``$REPRO_SWEEP_MAX_ROWS``).
    """
    from ..core.framestore import spill_design_sweep

    return spill_design_sweep(
        grid,
        sweep_candidates,
        directory,
        max_rows_in_memory,
        reference=0,
        weights=weights,
        cache=cache,
    )


def run_adaptive_gps_sweep(
    grid: SweepGrid,
    *,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    passes: Optional[int] = None,
    budget: Optional[int] = None,
    refine_margin: float = 0.0,
    coarse: int = 4,
) -> "AdaptiveReport":
    """Adaptive (coarse → zoom) variant of :func:`run_gps_sweep`.

    Evaluates a coarse subsample of the grid, then refines the
    continuous axes only around Pareto-front members
    (:func:`~repro.core.adaptive.run_adaptive_sweep`) — typically an
    order of magnitude fewer cell evaluations than the exhaustive grid
    with a byte-identical front over the evaluated points.  The
    returned :class:`~repro.core.adaptive.AdaptiveReport` carries the
    merged canonical frame plus the per-pass counters behind that
    claim; its ``report`` property is an ordinary
    :class:`~repro.core.grid.SweepReport`.  CLI flow:
    ``repro-gps sweep --adaptive [--passes N --budget K
    --refine-margin X --coarse C]``.
    """
    from ..core.adaptive import run_adaptive_sweep

    return run_adaptive_sweep(
        grid,
        sweep_candidates,
        reference=0,
        weights=weights,
        cache=cache,
        passes=passes,
        budget=budget,
        refine_margin=refine_margin,
        coarse=coarse,
    )


def spill_adaptive_gps_sweep(
    grid: SweepGrid,
    directory,
    max_rows_in_memory: int,
    *,
    weights: Optional[FomWeights] = None,
    cache: Optional[EvaluationCache] = None,
    passes: Optional[int] = None,
    budget: Optional[int] = None,
    refine_margin: float = 0.0,
    coarse: int = 4,
):
    """Adaptive GPS sweep spilled to a warehouse directory.

    Combines :func:`run_adaptive_gps_sweep` with the spill writer
    (:func:`~repro.core.adaptive.spill_adaptive_sweep`): the merged
    decision frame lands under ``directory`` at its grid indices, with
    the adaptive counters in the manifest meta.  Returns
    ``(store, report)``.
    """
    from ..core.adaptive import spill_adaptive_sweep

    return spill_adaptive_sweep(
        grid,
        sweep_candidates,
        directory,
        max_rows_in_memory,
        reference=0,
        weights=weights,
        cache=cache,
        passes=passes,
        budget=budget,
        refine_margin=refine_margin,
        coarse=coarse,
    )


def run_gps_shard(
    grid: SweepGrid | Iterable[DesignPoint],
    shards: int,
    shard_index: int,
    *,
    weights: Optional[FomWeights] = None,
) -> ShardArtifact:
    """Evaluate one cross-host shard of a GPS design-space sweep.

    Resolves the full grid locally, evaluates shard ``shard_index`` of
    ``shards`` and returns the portable
    :class:`~repro.core.sharding.ShardArtifact` (results stored as a
    columnar :class:`~repro.core.resultframe.ResultFrame` payload);
    write it with
    :func:`~repro.core.sharding.write_shard_artifact`, ship it
    anywhere, and reassemble the canonical report with
    :func:`~repro.core.sharding.merge_shard_artifacts` (the CLI flow:
    ``repro-gps sweep --shards K --shard-index I --shard-dir DIR`` then
    ``repro-gps sweep --merge DIR``).
    """
    from ..core.sharding import run_shard

    return run_shard(
        grid,
        sweep_candidates,
        shards=shards,
        shard_index=shard_index,
        reference=0,
        weights=weights,
    )


def run_gps_queue_worker(
    manifest_path,
    grid: SweepGrid | Iterable[DesignPoint],
    *,
    weights: Optional[FomWeights] = None,
    **queue_options,
) -> QueueWorkerReport:
    """Drain one GPS sweep work queue as a resumable worker.

    The service counterpart of :func:`run_gps_shard`: instead of
    evaluating one fixed shard, the worker claims, evaluates and
    atomically publishes shards from the manifest-driven queue
    (:mod:`repro.core.queue`) until nothing is claimable — skipping
    shards with valid artifacts, retrying failed ones and stealing
    expired leases from dead or straggling hosts.  ``queue_options``
    pass through to :func:`~repro.core.queue.run_queue_worker`
    (``owner``, ``clock``, ``on_event``).  The CLI flow is
    ``repro-gps sweep --queue-init MANIFEST --shards K`` once, then
    ``repro-gps sweep --queue MANIFEST`` on every worker host, with
    ``repro-gps gather DIR --watch`` merging results as they land.
    """
    from ..core.queue import run_queue_worker

    return run_queue_worker(
        manifest_path,
        grid,
        sweep_candidates,
        reference=0,
        weights=weights,
        **queue_options,
    )


def build_gps_warehouse(
    directory,
    grid: SweepGrid | Iterable[DesignPoint],
    *,
    weights: Optional[FomWeights] = None,
    grid_spec=None,
) -> "WarehouseManifest":
    """Sweep the GPS grid and materialise it as a frame warehouse.

    The offline half of the decision service: runs the sweep and
    publishes the result as content-addressed frame files plus a
    manifest under ``directory``
    (:mod:`repro.core.warehouse`), ready for O(ms) queries through
    :class:`~repro.core.queryservice.QueryService` or ``repro-gps
    warehouse serve``.  ``grid_spec`` is an optional JSON-able record
    of how the grid was specified (the CLI stores its axis flags) —
    documentation for readers of the manifest, not used for lookup.
    """
    from ..core.warehouse import build_warehouse

    return build_warehouse(
        directory,
        grid,
        sweep_candidates,
        reference=0,
        weights=weights,
        grid_spec=grid_spec,
    )


def summary_rows(result: StudyResult) -> list[GpsStudyRow]:
    """Flatten a study result into per-implementation summary rows."""
    rows = []
    for implementation in (1, 2, 3, 4):
        name = data.IMPLEMENTATION_NAMES[implementation]
        row = result.row(name)
        rows.append(
            GpsStudyRow(
                implementation=implementation,
                name=name,
                performance=row.fom.performance,
                area_percent=row.area_percent,
                cost_percent=row.cost_percent,
                figure_of_merit=row.fom.figure_of_merit,
            )
        )
    return rows


def paper_comparison(result: StudyResult) -> dict[str, dict[int, tuple]]:
    """Paper-vs-measured pairs for every published number.

    Returns a mapping with keys ``"area"``, ``"cost"``, ``"performance"``
    and ``"fom"``; each value maps the implementation number to a
    ``(paper, measured)`` tuple.  EXPERIMENTS.md is generated from this.
    """
    rows = {row.implementation: row for row in summary_rows(result)}
    return {
        "area": {
            i: (data.PAPER_AREA_PERCENT[i], rows[i].area_percent)
            for i in (1, 2, 3, 4)
        },
        "cost": {
            i: (data.PAPER_COST_PERCENT[i], rows[i].cost_percent)
            for i in (1, 2, 3, 4)
        },
        "performance": {
            i: (data.PAPER_PERFORMANCE[i], rows[i].performance)
            for i in (1, 2, 3, 4)
        },
        "fom": {
            i: (data.PAPER_FOM[i], rows[i].figure_of_merit)
            for i in (1, 2, 3, 4)
        },
    }
