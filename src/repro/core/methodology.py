"""The paper's five-step trade-off methodology (§4).

    1) generate viable build-up implementations
    2) assess performance with regard to the specifications
    3) calculate the substrate area required
    4) calculate the cost including test and yield aspects
    5) make a decision

:class:`CandidateBuildUp` describes one implementation (step 1 is the
user's job); :func:`run_study` executes steps 2-5 over a list of
candidates and returns a :class:`StudyResult` whose rows reproduce
Fig. 3 (area), Fig. 5 (cost) and Fig. 6 (figure of merit) for the
application under study.

The methodology is application-agnostic: the GPS case study
(:mod:`repro.gps.study`) and the generic examples both drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..area.placement import AreaReport, trivial_placement
from ..area.substrate import LaminateRule, SubstrateRule
from ..area.footprint import Footprint
from ..circuits.performance import ChainPerformance, assess_chain
from ..circuits.synthesis import QModel
from ..cost.moe.analytic import evaluate
from ..cost.moe.flow import ProductionFlow
from ..cost.moe.report import CostReport
from ..errors import SpecificationError
from ..passives.filters import FilterSpec
from .figure_of_merit import FomEntry, FomWeights, figure_of_merit, rank_buildups


@dataclass
class CandidateBuildUp:
    """One implementation candidate (methodology step 1).

    Attributes
    ----------
    name:
        Build-up label.
    footprints:
        Everything placed on the substrate (step 3 input).
    substrate_rule:
        Sizing rule for the substrate (PCB or MCM class).
    laminate:
        BGA laminate rule when the module is packaged, else None.
    flow_factory:
        Maps the substrate area in cm^2 (from step 3) to the production
        flow (step 4 input) — the paper feeds the calculated area into
        the cost modelling step.
    filter_assignments:
        ``(spec, q_model)`` pairs for the performance step; mutually
        exclusive with ``fixed_performance``.
    fixed_performance:
        Performance score for applications whose performance is assessed
        outside the filter engine (e.g. purely digital boards: 1.0).
    """

    name: str
    footprints: Sequence[Footprint]
    substrate_rule: SubstrateRule
    flow_factory: Callable[[float], ProductionFlow]
    laminate: Optional[LaminateRule] = None
    filter_assignments: list[tuple[FilterSpec, Optional[QModel]]] = field(
        default_factory=list
    )
    fixed_performance: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fixed_performance is not None and self.filter_assignments:
            raise SpecificationError(
                f"candidate {self.name!r}: give either filter assignments "
                "or a fixed performance score, not both"
            )
        if self.fixed_performance is None and not self.filter_assignments:
            raise SpecificationError(
                f"candidate {self.name!r}: needs filter assignments or a "
                "fixed performance score"
            )
        if self.fixed_performance is not None and not (
            math.isfinite(self.fixed_performance)
            and self.fixed_performance >= 0
        ):
            # A NaN score compares false against everything, so it
            # would silently skew the winner instead of failing.
            raise SpecificationError(
                f"candidate {self.name!r}: fixed performance must be a "
                f"non-negative finite number, got {self.fixed_performance}"
            )


@dataclass(frozen=True)
class BuildUpAssessment:
    """Steps 2-4 results for one candidate."""

    name: str
    performance: float
    chain: Optional[ChainPerformance]
    area: AreaReport
    cost: CostReport

    @property
    def final_area_mm2(self) -> float:
        """Fig. 3 quantity."""
        return self.area.final_area_mm2

    @property
    def final_cost(self) -> float:
        """Fig. 5 quantity (Eq. (1))."""
        return self.cost.final_cost_per_shipped


@dataclass(frozen=True)
class StudyRow:
    """One build-up's full result, normalised to the reference."""

    assessment: BuildUpAssessment
    area_percent: float
    cost_percent: float
    fom: FomEntry


@dataclass(frozen=True)
class StudyResult:
    """Steps 2-5 over all candidates."""

    rows: tuple[StudyRow, ...]
    reference_name: str
    weights: FomWeights

    def row(self, name: str) -> StudyRow:
        """Look up one build-up's row by name."""
        for candidate in self.rows:
            if candidate.assessment.name == name:
                return candidate
        raise SpecificationError(f"no build-up named {name!r} in study")

    def ranked(self) -> list[StudyRow]:
        """Rows sorted by descending figure of merit (the decision)."""
        entries = {id(row.fom): row for row in self.rows}
        order = rank_buildups([row.fom for row in self.rows])
        return [entries[id(entry)] for entry in order]

    @property
    def winner(self) -> StudyRow:
        """The build-up the methodology selects (step 5)."""
        return self.ranked()[0]


def assess_candidate(
    candidate: CandidateBuildUp, volume: float = 10_000.0
) -> BuildUpAssessment:
    """Run methodology steps 2-4 for one candidate."""
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
    cost = evaluate(flow, volume=volume)
    return BuildUpAssessment(
        name=candidate.name,
        performance=performance,
        chain=chain,
        area=area,
        cost=cost,
    )


def run_study(
    candidates: Sequence[CandidateBuildUp],
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    volume: float = 10_000.0,
) -> StudyResult:
    """Execute the methodology over all candidates (steps 2-5).

    Parameters
    ----------
    candidates:
        The viable build-ups from step 1.
    reference:
        Index of the reference build-up (sets the 100 % marks).
    weights:
        Optional FoM weighting; defaults to the paper's plain product.
    volume:
        Production volume for NRE amortisation.
    """
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


def study_from_assessments(
    assessments: Sequence[BuildUpAssessment],
    reference: int,
    weights: FomWeights,
) -> StudyResult:
    """Normalise and rank ready-made assessments (methodology step 5).

    The object path of :func:`run_study` and the ``study`` command; the
    design-space sweep runs the same step as columns
    (:func:`repro.core.sweep.evaluate_family`).
    """
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
