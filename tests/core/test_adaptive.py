"""The adaptive Pareto-refinement driver, locked differentially.

The load-bearing properties, checked with hypothesis on random grids:

* every adaptive-front member is also on the exhaustive-grid front
  restricted to the evaluated points — in fact the two fronts are
  byte-identical over that restriction;
* the merged adaptive frame is byte-identical to the exhaustive frame
  filtered to the evaluated points, whatever blocks the passes
  streamed in;
* the evaluated subset never depends on the stream's blocks, only on
  the grid, the coarse sampling and the margin.

Around it: the zoom's proposals (identical to the full-axis scan in
``tests/zoom_reference.py`` on random grids, evaluated sets and front
sets), the margin front (``margin = 0`` coincides with
the ``first_dominators`` reference bit for bit, a positive
margin with the broadcast ``margin_dominators`` reference, growing
margins only widen survival), budget exhaustion, the single-pass
"coarse covers everything = plain sweep" edge, spill integration, a
guard that no pass enumerates the whole grid and the
parameter-validation matrix.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.circuits.qfactor import Q_MODEL_SCENARIOS, SubstrateLossQModel
from repro.core.adaptive import (
    AdaptiveReport,
    _GridIndex,
    global_front_mask,
    run_adaptive_sweep,
    spill_adaptive_sweep,
)
from repro.core import executors
from repro.core.figure_of_merit import FomWeights
from repro.core.grid import GridIdentity
from repro.core.methodology import CandidateBuildUp
from repro.core.sweep import (
    DesignPoint,
    SweepGrid,
    run_design_sweep,
)
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError
from repro.passives.tolerance import PRECISION_CLASS

from pareto_reference import (
    first_dominators,
    margin_dominators,
    objective_frame,
)
from zoom_reference import reference_zoom_indices

#: Volumes the random grids draw from — wide enough that NRE
#: amortisation moves the cost objective across the axis.
VOLUME_POOL = tuple(
    float(v)
    for v in (1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6)
)

WEIGHT_POOL = (
    None,
    FomWeights(performance=2.0),
    FomWeights(size=2.0),
    FomWeights(cost=0.5),
)


def _flow(area_cm2: float) -> ProductionFlow:
    flow = ProductionFlow(name="toy")
    flow.add(CarrierStep("ID1", "carrier", unit_cost=10.0 + area_cm2))
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def _nre_flow(area_cm2: float) -> ProductionFlow:
    # The NRE amortises over the volume axis, so this candidate's cost
    # ratio *varies along the axis* and front membership genuinely
    # moves — without it every volume would share one front verdict.
    flow = ProductionFlow(name="toy-nre", nre=30_000.0)
    flow.add(CarrierStep("ID1", "carrier", unit_cost=6.0 + area_cm2))
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def toy_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    footprints = [Footprint("chip", 25.0, MountKind.PACKAGED)]
    return [
        CandidateBuildUp(
            name="ref",
            footprints=footprints * 2,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=1.0,
        ),
        CandidateBuildUp(
            name="lean",
            footprints=footprints,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=0.9,
        ),
        CandidateBuildUp(
            name="tooled",
            footprints=footprints,
            substrate_rule=PCB_RULE,
            flow_factory=_nre_flow,
            fixed_performance=0.95,
        ),
    ]


def restricted_frame(exhaustive, grid, report):
    """The exhaustive frame filtered to the adaptive evaluated points."""
    rows_per_cell = len(exhaustive.frame) // len(grid)
    mask = np.zeros(len(exhaustive.frame), dtype=bool)
    for index in report.evaluated_indices:
        mask[index * rows_per_cell : (index + 1) * rows_per_cell] = True
    return exhaustive.frame.filter(mask)


grids = st.builds(
    SweepGrid,
    volumes=st.lists(
        st.sampled_from(VOLUME_POOL),
        min_size=1,
        max_size=8,
        unique=True,
    ).map(tuple),
    fom_weights=st.lists(
        st.sampled_from(WEIGHT_POOL),
        min_size=1,
        max_size=3,
        unique_by=id,
    ).map(tuple),
)


class TestDifferentialAdaptive:
    """The hypothesis harness behind the acceptance criteria."""

    @settings(max_examples=30, deadline=None)
    @given(
        grid=grids,
        coarse=st.integers(min_value=2, max_value=5),
        margin=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_front_and_frame_match_exhaustive_restriction(
        self, grid, coarse, margin
    ):
        exhaustive = run_design_sweep(grid, toy_candidates)
        report = run_adaptive_sweep(
            grid, toy_candidates, coarse=coarse, refine_margin=margin
        )
        sub = restricted_frame(exhaustive, grid, report)
        # Merged frame byte-identical to the exhaustive restriction.
        assert report.frame.csv_lines() == sub.csv_lines()
        # Front members of the adaptive run are front members of the
        # exhaustive grid restricted to the evaluated points — same
        # rows, same bytes.
        adaptive_front = report.front_frame()
        sub_front = sub.filter(global_front_mask(sub))
        assert adaptive_front.csv_lines() == sub_front.csv_lines()
        # And every adaptive-front row really does appear on the full
        # exhaustive front (the evaluated points include the true
        # front — refinement only ever *adds* dominated context).
        full_front = exhaustive.frame.filter(
            global_front_mask(exhaustive.frame)
        )
        assert set(adaptive_front.csv_lines()) <= set(
            full_front.csv_lines()
        )

    @settings(max_examples=10, deadline=None)
    @given(grid=grids)
    def test_stream_block_invariance(self, grid):
        """Where the stream cuts each pass into blocks moves nothing."""
        reports = []
        for block in (executors.STREAM_BLOCK, 1, 2):
            with mock.patch.object(executors, "STREAM_BLOCK", block):
                reports.append(run_adaptive_sweep(grid, toy_candidates))
        baseline = reports[0]
        for other in reports[1:]:
            assert other.evaluated_indices == baseline.evaluated_indices
            assert other.frame == baseline.frame
            assert len(other.passes) == len(baseline.passes)

    def test_budget_exhaustion_truncates_in_canonical_order(self):
        grid = SweepGrid(volumes=VOLUME_POOL)
        report = run_adaptive_sweep(grid, toy_candidates, budget=3)
        assert report.budget_exhausted
        assert report.total_evaluations == 3
        assert not report.stable
        # Truncation is canonical-prefix: the evaluated cells are the
        # first three coarse proposals.
        coarse_run = run_adaptive_sweep(
            grid, toy_candidates, passes=1
        )
        assert (
            report.evaluated_indices
            == coarse_run.evaluated_indices[:3]
        )

    def test_single_full_pass_equals_plain_sweep(self):
        grid = SweepGrid(volumes=VOLUME_POOL[:6])
        exhaustive = run_design_sweep(grid, toy_candidates)
        report = run_adaptive_sweep(
            grid, toy_candidates, passes=1, coarse=len(VOLUME_POOL)
        )
        assert report.total_evaluations == len(grid)
        assert report.stable
        assert report.frame == exhaustive.frame
        assert report.report.frame == exhaustive.frame

    def test_margin_only_widens_the_evaluated_set(self):
        grid = SweepGrid(volumes=VOLUME_POOL)
        tight = run_adaptive_sweep(grid, toy_candidates)
        wide = run_adaptive_sweep(
            grid, toy_candidates, refine_margin=0.25
        )
        assert set(tight.evaluated_indices) <= set(
            wide.evaluated_indices
        )

    def test_pass_counters_account_for_every_evaluation(self):
        grid = SweepGrid(
            volumes=VOLUME_POOL[:7],
            fom_weights=(None, FomWeights(performance=2.0)),
        )
        report = run_adaptive_sweep(grid, toy_candidates)
        assert report.total_evaluations == sum(
            record.evaluated for record in report.passes
        )
        assert report.passes[-1].cumulative_evaluations == (
            report.total_evaluations
        )
        assert report.savings == (
            len(grid) / report.total_evaluations
        )
        assert isinstance(report, AdaptiveReport)


class TestRefinableAxes:
    def test_tan_axis_is_refined_and_named_scenarios_kept(self):
        tans = tuple(
            SubstrateLossQModel(tan_delta_ref=t)
            for t in (0.001, 0.002, 0.004, 0.008, 0.016)
        )
        grid = SweepGrid(volumes=(1e4,), q_models=(None,) + tans)
        report = run_adaptive_sweep(
            grid, toy_candidates, coarse=2
        )
        points = grid.points()
        labels = {
            points[index].q_model_label()
            for index in report.evaluated_indices
        }
        # The paper default (categorical) is always evaluated; the tan
        # endpoints are the coarse sample of the refinable span.
        assert "paper" in labels
        assert "tan=0.001" in labels and "tan=0.016" in labels

    def test_weights_axis_refined_by_exponent_order(self):
        weights = tuple(
            FomWeights(performance=p) for p in (0.5, 1.0, 2.0, 4.0)
        )
        grid = SweepGrid(volumes=(1e4,), fom_weights=(None,) + weights)
        report = run_adaptive_sweep(grid, toy_candidates, coarse=2)
        labels = set(report.frame.column("weights").tolist())
        assert "paper" in labels
        assert "0.5:1:1" in labels and "4:1:1" in labels


#: Q-model values for the zoom grids: ``tan=<x>`` models (refinable,
#: ordered by loss tangent) mixed with named scenarios and the paper
#: default (categorical).
ZOOM_Q_POOL = (
    None,
    Q_MODEL_SCENARIOS["skin"],
    Q_MODEL_SCENARIOS["measured"],
) + tuple(
    SubstrateLossQModel(tan_delta_ref=t)
    for t in (0.001, 0.002, 0.004, 0.008, 0.016, 0.032)
)

#: Weight triples (refinable, ordered by exponents) plus the default.
ZOOM_WEIGHT_POOL = (None,) + tuple(
    FomWeights(performance=p, size=s)
    for p in (0.5, 1.0, 2.0)
    for s in (0.5, 2.0)
)

zoom_grids = st.builds(
    SweepGrid,
    volumes=st.lists(
        st.sampled_from(VOLUME_POOL), min_size=1, max_size=11, unique=True
    ).map(tuple),
    tolerances=st.sampled_from([(None,), (None, PRECISION_CLASS)]),
    q_models=st.lists(
        st.sampled_from(ZOOM_Q_POOL), min_size=1, max_size=5, unique_by=id
    ).map(tuple),
    fom_weights=st.lists(
        st.sampled_from(ZOOM_WEIGHT_POOL),
        min_size=1,
        max_size=4,
        unique_by=id,
    ).map(tuple),
)


class TestZoomProposals:
    """The evaluated-set index proposes exactly what the full-axis scan
    of ``tests/zoom_reference.py`` proposes."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_axis_scan(self, data):
        grid = data.draw(zoom_grids)
        index = _GridIndex(grid)
        evaluated = data.draw(
            st.sets(
                st.integers(0, len(grid) - 1),
                min_size=1,
                max_size=min(len(grid), 40),
            )
        )
        if data.draw(st.booleans()):
            # A coarse pass's dense lines under the random cells.
            coarse = data.draw(st.sampled_from((2, 3, 4)))
            evaluated |= set(index.coarse_indices(coarse))
        refine = data.draw(st.sets(st.sampled_from(sorted(evaluated))))
        assert index.zoom_indices(refine, evaluated) == (
            reference_zoom_indices(index, refine, evaluated)
        )

    def test_single_cell_line_bisects_towards_both_ends(self):
        # Nine ascending volumes, only rank 4 evaluated: both endpoints
        # are starved, so each side proposes its end and the midpoint.
        grid = SweepGrid(volumes=VOLUME_POOL[:9])
        index = _GridIndex(grid)
        assert index.zoom_indices({4}, {4}) == [0, 2, 6, 8]
        assert reference_zoom_indices(index, {4}, {4}) == [0, 2, 6, 8]

    def test_resolved_line_proposes_nothing(self):
        grid = SweepGrid(volumes=VOLUME_POOL[:3])
        index = _GridIndex(grid)
        assert index.zoom_indices({1}, {0, 1, 2}) == []


class TestWholeGridNeverEnumerated:
    """A pass resolves only the points it evaluates
    (:meth:`SweepGrid.point_at`), never the whole grid."""

    @pytest.fixture(autouse=True)
    def no_points(self, monkeypatch):
        def points(self):
            raise AssertionError("SweepGrid.points called")

        monkeypatch.setattr(SweepGrid, "points", points)

    GRID = SweepGrid(
        volumes=VOLUME_POOL, fom_weights=(None, FomWeights(cost=0.5))
    )

    def test_run(self):
        report = run_adaptive_sweep(self.GRID, toy_candidates)
        assert report.grid_points == len(self.GRID)
        assert report.total_evaluations < len(self.GRID)

    def test_spill(self, tmp_path):
        store, report = spill_adaptive_sweep(
            self.GRID, toy_candidates, tmp_path / "store", 8
        )
        assert store.to_frame() == report.frame


class TestSpill:
    def test_store_holds_the_merged_frame(self, tmp_path):
        grid = SweepGrid(volumes=VOLUME_POOL[:8])
        store, report = spill_adaptive_sweep(
            grid, toy_candidates, tmp_path / "store", 8
        )
        assert store.to_frame() == report.frame
        meta = store.meta["adaptive"]
        assert meta["grid_points"] == len(grid)
        assert meta["total_evaluations"] == report.total_evaluations
        # The frames cover the evaluated points of the full grid.
        assert store.manifest.grid == GridIdentity.of(grid)
        assert store.manifest.covered_points == report.total_evaluations


class TestValidation:
    def test_bare_point_lists_are_rejected(self):
        with pytest.raises(SpecificationError):
            run_adaptive_sweep(
                [DesignPoint(volume=1e4)], toy_candidates
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"passes": 0},
            {"budget": 0},
            {"coarse": 1},
            {"refine_margin": -0.1},
            {"refine_margin": float("nan")},
        ],
    )
    def test_bad_knobs_are_specification_errors(self, kwargs):
        with pytest.raises(SpecificationError):
            run_adaptive_sweep(
                SweepGrid(), toy_candidates, **kwargs
            )


class TestMarginKernel:
    objective_arrays = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=4.0),
            st.floats(min_value=0.1, max_value=4.0),
            st.floats(min_value=0.1, max_value=4.0),
        ),
        min_size=1,
        max_size=40,
    )

    @settings(max_examples=60, deadline=None)
    @given(points=objective_arrays)
    def test_zero_margin_equals_first_dominators(self, points):
        perf, size, cost = (np.asarray(axis) for axis in zip(*points))
        dominators = first_dominators(perf, size, cost)
        assert margin_dominators(perf, size, cost, 0.0).tolist() == (
            dominators.tolist()
        )
        assert global_front_mask(
            objective_frame(perf, size, cost), 0.0
        ).tolist() == (dominators < 0).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        points=objective_arrays,
        margins=st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    )
    def test_growing_margin_only_widens_survival(self, points, margins):
        perf, size, cost = (np.asarray(axis) for axis in zip(*points))
        frame = objective_frame(perf, size, cost)
        low, high = sorted(margins)
        survives_low = global_front_mask(frame, low)
        survives_high = global_front_mask(frame, high)
        assert np.all(survives_high >= survives_low)
        for margin, survives in ((low, survives_low), (high, survives_high)):
            assert survives.tolist() == (
                margin_dominators(perf, size, cost, margin) < 0
            ).tolist()

    def test_bad_margins_rejected(self):
        frame = objective_frame([1.0], [1.0], [1.0])
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(SpecificationError):
                global_front_mask(frame, bad)
            with pytest.raises(SpecificationError):
                margin_dominators([1.0], [1.0], [1.0], bad)
