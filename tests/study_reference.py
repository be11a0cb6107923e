"""The per-candidate object path of a study, the reference for
differential tests.

:func:`repro.core.methodology.run_study` evaluates the study as a
one-point sweep: :func:`repro.core.sweep.evaluate_cells` assesses and
ranks the candidates as columns, and the study's objects are read back
from that frame and its cache.  This module keeps the plain object path
it replaced: every candidate assessed on its own
(:func:`assess_candidate`, its cost from the scalar walk in
``tests/moe_reference.py``), normalised to the reference, scored with
the scalar :func:`figure_of_merit`, ranked by :func:`rank_buildups`
and partitioned by the per-point Pareto loop of
``tests/pareto_reference.py``.  ``tests/core/test_methodology.py``
checks the production study against it bit for bit, refusals
included; ``tests/per_point.py`` builds its per-point sweep frames
from it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.area.placement import trivial_placement
from repro.circuits.performance import ChainPerformance, assess_chain
from repro.core.figure_of_merit import FomEntry, FomWeights, weighted_power
from repro.core.methodology import (
    BuildUpAssessment,
    CandidateBuildUp,
    StudyResult,
    StudyRow,
)
from repro.core.pareto import ParetoAnalysis, ParetoPoint
from repro.errors import SpecificationError

from moe_reference import evaluate
from pareto_reference import pareto_front


def figure_of_merit(
    performance: float,
    size_ratio: float,
    cost_ratio: float,
    weights: FomWeights | None = None,
) -> float:
    """The paper's figure of merit for one build-up (Fig. 6).

    ``performance^wp * (1/size)^ws * (1/cost)^wc`` with the ratios
    normalised to the reference; an overflowing factor is refused by
    :func:`~repro.core.figure_of_merit.weighted_power`, naming the
    weight.
    """
    if not performance >= 0:
        raise SpecificationError(
            f"performance cannot be negative or NaN, got {performance}"
        )
    if size_ratio <= 0 or cost_ratio <= 0:
        raise SpecificationError(
            "size and cost ratios must be positive, got "
            f"{size_ratio} and {cost_ratio}"
        )
    if weights is None:
        weights = FomWeights()
    return (
        weighted_power(performance, weights.performance, "performance")
        * weighted_power(1.0 / size_ratio, weights.size, "size")
        * weighted_power(1.0 / cost_ratio, weights.cost, "cost")
    )


def rank_buildups(entries: list[FomEntry]) -> list[FomEntry]:
    """Sort build-ups by descending figure of merit (best first; a
    stable sort, so tied build-ups keep their input order)."""
    if not entries:
        raise SpecificationError("cannot rank an empty list")
    return sorted(entries, key=lambda e: e.figure_of_merit, reverse=True)


def assess_candidate(
    candidate: CandidateBuildUp, volume: float = 10_000.0
) -> BuildUpAssessment:
    """Methodology steps 2-4 for one candidate."""
    if candidate.fixed_performance is not None:
        performance = candidate.fixed_performance
        chain: Optional[ChainPerformance] = None
    else:
        chain = assess_chain(candidate.filter_assignments)
        performance = chain.score
    area = trivial_placement(
        candidate.footprints, candidate.substrate_rule, candidate.laminate
    )
    flow = candidate.flow_factory(area.substrate_area_cm2)
    return BuildUpAssessment(
        name=candidate.name,
        performance=performance,
        chain=chain,
        area=area,
        cost=evaluate(flow, volume=volume),
    )


def study_from_assessments(
    assessments: Sequence[BuildUpAssessment],
    reference: int,
    weights: FomWeights,
) -> StudyResult:
    """Normalise ready-made assessments to the reference and score them
    (methodology step 5)."""
    ref = assessments[reference]
    rows = []
    for assessment in assessments:
        size_ratio = assessment.final_area_mm2 / ref.final_area_mm2
        cost_ratio = assessment.final_cost / ref.final_cost
        fom_value = figure_of_merit(
            assessment.performance, size_ratio, cost_ratio, weights
        )
        rows.append(
            StudyRow(
                assessment=assessment,
                area_percent=100.0 * size_ratio,
                cost_percent=100.0 * cost_ratio,
                fom=FomEntry(
                    name=assessment.name,
                    performance=assessment.performance,
                    size_ratio=size_ratio,
                    cost_ratio=cost_ratio,
                    figure_of_merit=fom_value,
                ),
            )
        )
    return StudyResult(
        rows=tuple(rows),
        reference_name=ref.name,
        weights=weights,
    )


def run_study(
    candidates: Sequence[CandidateBuildUp],
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    volume: float = 10_000.0,
) -> StudyResult:
    """Steps 2-5 over all candidates, one candidate at a time."""
    if not candidates:
        raise SpecificationError("run_study needs at least one candidate")
    if not (0 <= reference < len(candidates)):
        raise SpecificationError(
            f"reference index {reference} out of range for "
            f"{len(candidates)} candidates"
        )
    if weights is None:
        weights = FomWeights()
    assessments = [
        assess_candidate(candidate, volume) for candidate in candidates
    ]
    return study_from_assessments(assessments, reference, weights)


def winner_name(result: StudyResult) -> str:
    """The build-up step 5 selects: the first of :func:`rank_buildups`."""
    return rank_buildups([row.fom for row in result.rows])[0].name


def analyze_study(result: StudyResult) -> ParetoAnalysis:
    """Pareto analysis of a study through the per-point loop."""
    return pareto_front(
        [
            ParetoPoint(
                name=row.assessment.name,
                performance=row.fom.performance,
                size_ratio=row.fom.size_ratio,
                cost_ratio=row.fom.cost_ratio,
            )
            for row in result.rows
        ]
    )
