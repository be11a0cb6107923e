"""The five-step methodology driver on synthetic candidates, and the
study locked against the per-candidate object reference
(``tests/study_reference.py``)."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib.util
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import LAMINATE_RULE, MCM_D_RULE, PCB_RULE
from repro.core.figure_of_merit import FomWeights
from repro.core import sweep
from repro.core.methodology import CandidateBuildUp, run_study
from repro.core.pareto import analyze_study
from repro.core.ranking import weighted_fom
from repro.cost.moe.builder import FlowBuilder
from repro.errors import ReproError, SpecificationError
from repro.gps.study import PAPER_POINT, sweep_candidates

import study_reference

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


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
            weighted_fom([float("nan")], [1.0], [1.0], FomWeights())


class TestAssessment:
    def test_fixed_performance_skips_circuit_analysis(self):
        (row,) = run_study([candidate(performance=0.8)]).rows
        assert row.assessment.performance == 0.8
        assert row.assessment.chain is None

    def test_area_feeds_cost(self):
        """Bigger substrate means higher substrate cost in the flow."""
        small, large = (
            row.assessment
            for row in run_study(
                [candidate("small", area=100.0), candidate(area=10_000.0)]
            ).rows
        )
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

    @pytest.mark.parametrize(
        "volume", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_volume_refused_like_a_design_point(self, volume):
        """A study refuses the volumes a sweep point refuses, with the
        same message (NaN used to fail as a flow "too small", and an
        infinite volume was accepted)."""
        with pytest.raises(SpecificationError) as excinfo:
            run_study([candidate()], volume=volume)
        assert str(excinfo.value) == (
            f"volume must be positive and finite, got {volume}"
        )


@functools.lru_cache(maxsize=None)
def candidate_pools() -> tuple[tuple[CandidateBuildUp, ...], ...]:
    """The GPS build-ups at the paper's point and the digital board's
    three build-ups (``examples/digital_decap_board.py``)."""
    spec = importlib.util.spec_from_file_location(
        "digital_decap_board", EXAMPLES / "digital_decap_board.py"
    )
    board = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(board)
    with contextlib.redirect_stdout(io.StringIO()):
        board_candidates = board.build_candidates()
    return (
        tuple(sweep_candidates(PAPER_POINT)),
        tuple(board_candidates),
    )


#: Exponents that tie FoMs (0 removes an axis, large ones underflow
#: factors below 1 to 0) and overflow them (2000 on a ratio below 1).
exponents = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 700.0, 2000.0]),
    st.floats(min_value=0.0, max_value=50.0),
)
volumes = st.one_of(
    st.sampled_from([1.0, 10_000, 1e4, 1e9, 5e-324]),
    st.floats(min_value=1e-6, max_value=1e12),
)


@st.composite
def study_cases(draw):
    """Candidates drawn with repetition from one pool, some renamed to
    another candidate's name, plus a reference index (sometimes out of
    range), weights and a volume."""
    pool = draw(st.sampled_from(candidate_pools()))
    names = [candidate.name for candidate in pool]
    candidates = []
    for candidate in draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    ):
        if draw(st.booleans()):
            candidate = dataclasses.replace(
                candidate, name=draw(st.sampled_from(names))
            )
        candidates.append(candidate)
    reference = draw(st.integers(-1, len(candidates)))
    weights = FomWeights(draw(exponents), draw(exponents), draw(exponents))
    return candidates, reference, weights, draw(volumes)


class TestStudyMatchesReference:
    """``run_study`` and ``analyze_study`` against the object path."""

    @settings(max_examples=150, deadline=None)
    @given(case=study_cases())
    def test_rows_ranking_and_front_match_bit_for_bit(self, case):
        candidates, reference, weights, volume = case
        try:
            expected = study_reference.run_study(
                candidates, reference, weights, volume
            )
        except ReproError as exc:
            with pytest.raises(type(exc)):
                run_study(candidates, reference, weights, volume)
            return
        study = run_study(candidates, reference, weights, volume)
        assert study.reference_name == expected.reference_name
        assert study.weights == expected.weights
        # ``repr`` of every float is exact and tells -0.0 from 0.0.
        assert [repr(row) for row in study.rows] == [
            repr(row) for row in expected.rows
        ]
        assert [repr(row.fom) for row in study.ranked()] == [
            repr(entry)
            for entry in study_reference.rank_buildups(
                [row.fom for row in expected.rows]
            )
        ]
        assert study.winner.assessment.name == (
            study_reference.winner_name(expected)
        )
        assert repr(analyze_study(study)) == repr(
            study_reference.analyze_study(expected)
        )

    def test_rows_survive_a_memo_that_drops_entries(self, monkeypatch):
        """The study reads its chains, placements and kept walks back
        from the cache; entries the bounded object memo dropped while
        the cell was evaluated are built again, with the same bits."""
        monkeypatch.setattr(sweep, "OBJECT_MEMO_SIZE", 2)
        candidates = list(candidate_pools()[0]) * 2
        study = run_study(candidates, volume=7e3)
        expected = study_reference.run_study(candidates, volume=7e3)
        assert [repr(row) for row in study.rows] == [
            repr(row) for row in expected.rows
        ]
