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

A study is a one-point sweep; the per-candidate object path it
replaced is the test reference in ``tests/study_reference.py``.

The methodology is application-agnostic: the GPS case study
(:mod:`repro.gps.study`) and the generic examples both drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..area.placement import AreaReport
from ..area.substrate import LaminateRule, SubstrateRule
from ..area.footprint import Footprint
from ..circuits.performance import ChainPerformance
from ..circuits.synthesis import QModel
from ..cost.moe.flow import ProductionFlow
from ..cost.moe.report import CostReport
from ..errors import SpecificationError
from ..passives.filters import FilterSpec
from .figure_of_merit import FomEntry, FomWeights

if TYPE_CHECKING:
    from .ranking import DecisionFrame


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
        """Rows sorted by descending figure of merit (the decision);
        stable, so of tied rows the first wins, as in a sweep."""
        return sorted(
            self.rows, key=lambda row: row.fom.figure_of_merit, reverse=True
        )

    @property
    def winner(self) -> StudyRow:
        """The build-up the methodology selects (step 5)."""
        return self.ranked()[0]


def run_study(
    candidates: Sequence[CandidateBuildUp],
    reference: int = 0,
    weights: Optional[FomWeights] = None,
    volume: float = 10_000.0,
) -> StudyResult:
    """Execute the methodology over all candidates (steps 2-5): a
    one-point sweep (:func:`~repro.core.sweep.evaluate_cells`) on a
    fresh cache, read back by :func:`study_from_assessments`.

    Parameters
    ----------
    candidates:
        The viable build-ups from step 1.
    reference:
        Index of the reference build-up (sets the 100 % marks).
    weights:
        Optional FoM weighting; defaults to the paper's plain product.
    volume:
        Production volume for NRE amortisation; positive and finite,
        as a sweep's design point requires.
    """
    from .grid import SweepGrid

    # Imported here: the sweep module imports this one.
    from .sweep import (
        EvaluationCache,
        cached_assessment,
        candidate_area_keys,
        evaluate_cells,
    )

    if not candidates:
        raise SpecificationError("run_study needs at least one candidate")
    candidates = list(candidates)
    grid = SweepGrid(volumes=(volume,))
    weights = weights if weights is not None else FomWeights()
    cache = EvaluationCache()
    cell = evaluate_cells(
        grid, lambda _: candidates, reference, weights, cache
    )
    (keys,) = candidate_area_keys([candidates], cache)
    assessments = [
        cached_assessment(candidate, key, volume, cache)
        for candidate, key in zip(candidates, keys)
    ]
    return study_from_assessments(assessments, reference, weights, cell)


def study_from_assessments(
    assessments: Sequence[BuildUpAssessment],
    reference: int,
    weights: FomWeights,
    cell: DecisionFrame,
) -> StudyResult:
    """The study of ready-made assessments (methodology step 5).

    ``cell`` is the one-point decision frame :func:`run_study` ranked,
    a row per assessment in order; its columns give each row's ratios
    to the reference, percentages and figure of merit.
    """
    frame = cell.frame
    columns = zip(
        frame.column("area_percent").tolist(),
        frame.column("cost_percent").tolist(),
        cell.size_ratio.tolist(),
        cell.cost_ratio.tolist(),
        frame.column("figure_of_merit").tolist(),
    )
    rows = tuple(
        StudyRow(
            assessment,
            area_percent,
            cost_percent,
            FomEntry(assessment.name, assessment.performance, *fom),
        )
        for assessment, (area_percent, cost_percent, *fom) in zip(
            assessments, columns
        )
    )
    return StudyResult(rows, assessments[reference].name, weights)
