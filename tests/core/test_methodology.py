"""The five-step methodology driver on synthetic candidates."""

from __future__ import annotations

import pytest

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import LAMINATE_RULE, MCM_D_RULE, PCB_RULE
from repro.core.figure_of_merit import FomWeights, figure_of_merit
from repro.core.methodology import (
    CandidateBuildUp,
    assess_candidate,
    run_study,
)
from repro.cost.moe.builder import FlowBuilder
from repro.errors import SpecificationError


def toy_flow(chip_cost: float):
    def factory(area_cm2: float):
        return (
            FlowBuilder("toy")
            .carrier("sub", cost=area_cm2 * 1.0, yield_=0.99)
            .attach(
                "chip",
                quantity=1,
                component_cost=chip_cost,
                component_yield=0.99,
                attach_cost=0.1,
                attach_yield=0.99,
            )
            .test("final", cost=1.0, coverage=0.99)
            .build()
        )

    return factory


def candidate(
    name="ref",
    area=1000.0,
    chip_cost=50.0,
    performance=1.0,
    mcm=False,
):
    return CandidateBuildUp(
        name=name,
        footprints=[Footprint("chip", area, MountKind.PACKAGED)],
        substrate_rule=MCM_D_RULE if mcm else PCB_RULE,
        laminate=LAMINATE_RULE if mcm else None,
        flow_factory=toy_flow(chip_cost),
        fixed_performance=performance,
    )


class TestCandidateValidation:
    def test_needs_performance_source(self):
        with pytest.raises(SpecificationError):
            CandidateBuildUp(
                name="bad",
                footprints=[Footprint("c", 1.0, MountKind.SMD)],
                substrate_rule=PCB_RULE,
                flow_factory=toy_flow(1.0),
            )

    def test_rejects_both_performance_sources(self):
        from repro.gps.filters_chain import technology_assignments

        with pytest.raises(SpecificationError):
            CandidateBuildUp(
                name="bad",
                footprints=[Footprint("c", 1.0, MountKind.SMD)],
                substrate_rule=PCB_RULE,
                flow_factory=toy_flow(1.0),
                filter_assignments=technology_assignments(1),
                fixed_performance=1.0,
            )


class TestPerformanceValidation:
    """A NaN score compares false against everything, so a study of
    ``ref`` (FoM 1.0), ``nan`` and ``good`` (FoM 1.56) used to name
    ``ref`` the winner.  Non-finite and negative scores are refused up
    front."""

    @pytest.mark.parametrize(
        "score", [float("nan"), float("inf"), -float("inf"), -0.5]
    )
    def test_bad_fixed_performance_rejected(self, score):
        with pytest.raises(SpecificationError, match="fixed performance"):
            candidate("bad", performance=score)

    def test_nan_candidate_cannot_skew_the_winner(self):
        with pytest.raises(SpecificationError):
            run_study(
                [
                    candidate("ref"),
                    candidate("nan", performance=float("nan")),
                    candidate("good", area=300.0, mcm=True),
                ]
            )

    def test_figure_of_merit_rejects_nan_performance(self):
        with pytest.raises(SpecificationError, match="cannot be negative"):
            figure_of_merit(float("nan"), 1.0, 1.0)


class TestAssessment:
    def test_fixed_performance_skips_circuit_analysis(self):
        assessment = assess_candidate(candidate(performance=0.8))
        assert assessment.performance == 0.8
        assert assessment.chain is None

    def test_area_feeds_cost(self):
        """Bigger substrate means higher substrate cost in the flow."""
        small = assess_candidate(candidate(area=100.0))
        large = assess_candidate(candidate(area=10_000.0))
        assert (
            large.cost.cost_by_tag[
                list(large.cost.cost_by_tag)[0]
            ]
            is not None
        )
        assert large.final_cost > small.final_cost


class TestStudy:
    def make_study(self):
        return run_study(
            [
                candidate("ref", area=1000.0, chip_cost=50.0),
                candidate(
                    "small",
                    area=300.0,
                    chip_cost=50.0,
                    performance=0.9,
                    mcm=True,
                ),
            ]
        )

    def test_reference_row_is_100_percent(self):
        result = self.make_study()
        row = result.row("ref")
        assert row.area_percent == pytest.approx(100.0)
        assert row.cost_percent == pytest.approx(100.0)
        assert row.fom.figure_of_merit == pytest.approx(1.0)

    def test_row_lookup_unknown_raises(self):
        with pytest.raises(SpecificationError):
            self.make_study().row("nope")

    def test_winner_is_top_ranked(self):
        result = self.make_study()
        ranked = result.ranked()
        assert result.winner is ranked[0]
        assert (
            ranked[0].fom.figure_of_merit
            >= ranked[-1].fom.figure_of_merit
        )

    def test_weights_change_ranking(self):
        """With a huge cost weight the cheap reference wins; with a huge
        size weight the small module wins."""
        candidates = [
            candidate("ref", area=1000.0, chip_cost=10.0),
            candidate(
                "small", area=200.0, chip_cost=30.0, mcm=True
            ),
        ]
        by_cost = run_study(
            candidates, weights=FomWeights(size=0.0, cost=5.0)
        )
        by_size = run_study(
            candidates, weights=FomWeights(size=5.0, cost=0.0)
        )
        assert by_cost.winner.assessment.name == "ref"
        assert by_size.winner.assessment.name == "small"

    def test_empty_candidates_rejected(self):
        with pytest.raises(SpecificationError):
            run_study([])

    def test_bad_reference_index_rejected(self):
        with pytest.raises(SpecificationError):
            run_study([candidate()], reference=3)
