"""The design-space sweep subsystem."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import MCM_D_COARSE_RULE, MCM_D_FINE_RULE, PCB_RULE
from repro.circuits.qfactor import (
    SkinEffectQModel,
    SubstrateLossQModel,
)
from repro.core.figure_of_merit import FomWeights
from repro.core.methodology import CandidateBuildUp
from repro.core.pareto import analyze_study
from repro.core.grid import GRID_AXES, DesignPoint, NreScenario, SweepGrid
from repro.core.sweep import (
    EvaluationCache,
    evaluate_cells,
    family_runs,
    run_design_sweep,
)
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError
from repro.gps.study import (
    NRE_SCENARIOS,
    PAPER_POINT,
    run_gps_study,
    run_gps_sweep,
    sweep_candidates,
)
from repro.passives.thin_film import SI3N4_PROCESS
from repro.passives.tolerance import MATCHING_CLASS, PRECISION_CLASS

from per_point import per_point_frame, per_point_studies

IMPL3 = "MCM-D(Si)/FC/IP"
IMPL4 = "MCM-D(Si)/FC/IP&SMD"


def empty_factory(point):
    """Module-level (hence picklable) factory returning no candidates."""
    return []


class TestGrid:
    def test_default_grid_is_one_point(self):
        grid = SweepGrid()
        assert len(grid) == 1
        assert grid.points() == [DesignPoint()]

    def test_cartesian_product(self):
        grid = SweepGrid(
            volumes=(1e3, 1e4),
            processes=(None, SI3N4_PROCESS),
            tolerances=(None, PRECISION_CLASS, MATCHING_CLASS),
        )
        assert len(grid) == 12
        assert len(grid.points()) == 12

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecificationError):
            SweepGrid(volumes=())

    def test_duplicate_axis_values_deduped(self):
        # Duplicates would double-evaluate and double-count the same
        # cell; the first occurrence wins, order preserved.
        grid = SweepGrid(volumes=(1e4, 1e3, 1e4, 1e3))
        assert grid.volumes == (1e4, 1e3)
        assert len(grid) == 2

    def test_dedup_uses_equality_not_repr(self):
        # 10000.0 and 1e4 are the same coordinate however spelled.
        grid = SweepGrid(volumes=(10_000.0, 1e4, 10_000.000001))
        assert grid.volumes == (10_000.0, 10_000.000001)

    def test_dedup_on_object_axes(self):
        grid = SweepGrid(
            tolerances=(None, PRECISION_CLASS, None, PRECISION_CLASS)
        )
        assert grid.tolerances == (None, PRECISION_CLASS)
        assert len(grid.points()) == 2

    def test_dedup_of_unhashable_axis_values(self):
        # Equality decides for values a set cannot hold, too.
        first, again = [1.5], [1.5]
        grid = SweepGrid(q_models=(first, None, again, (1.5,), None))
        assert grid.q_models == (first, None, (1.5,))
        assert grid.q_models[0] is first

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(SpecificationError):
            DesignPoint(volume=0.0)

    @pytest.mark.parametrize(
        "volume",
        [float("nan"), float("inf"), float("-inf"), 0, 0.0, -5.0],
        ids=["nan", "inf", "-inf", "int-0", "0.0", "negative"],
    )
    def test_non_finite_or_nonpositive_volume_rejected(self, volume):
        with pytest.raises(
            SpecificationError, match="volume must be positive"
        ):
            DesignPoint(volume=volume)

    def test_grid_with_non_finite_volume_rejected_before_evaluation(self):
        # Grid points are built up front, so an ``inf`` volume never
        # reaches the cost walk (it used to emit ``inf,...`` CSV rows).
        for bad in (float("inf"), float("nan")):
            with pytest.raises(
                SpecificationError, match="volume must be positive"
            ):
                run_gps_sweep(SweepGrid(volumes=(bad, 1e4)))

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), 0.0, -5.0]
    )
    def test_grid_with_bad_volume_rejected_at_construction(self, bad):
        # An adaptive sweep builds only the points it evaluates, so the
        # grid itself refuses a volume no point could carry.
        with pytest.raises(
            SpecificationError, match="volume must be positive"
        ):
            SweepGrid(volumes=(1e4, bad))

    def test_point_label_names_axes(self):
        label = DesignPoint(
            volume=5000.0, tolerance=PRECISION_CLASS
        ).label()
        assert "volume=5000" in label
        assert "tolerance=precision" in label
        assert "process=paper" in label
        assert "q=paper" in label
        assert "nre=paper" in label
        assert "weights=paper" in label

    def test_scenario_axes_multiply_the_grid(self):
        grid = SweepGrid(
            volumes=(1e3, 1e4),
            q_models=(None, SkinEffectQModel()),
            nres=(None, NRE_SCENARIOS["zero"]),
            fom_weights=(None, FomWeights(performance=2.0)),
        )
        assert len(grid) == 16
        assert len(grid.points()) == 16

    def test_scenario_axis_labels(self):
        point = DesignPoint(
            q_model=SubstrateLossQModel(tan_delta_ref=0.02),
            nre=NRE_SCENARIOS["mask-heavy"],
            weights=FomWeights(performance=2.0, size=1.0, cost=0.5),
        )
        assert point.q_model_label() == "tan=0.02"
        assert point.nre_label() == "mask-heavy"
        assert point.weights_label() == "2:1:0.5"
        label = point.label()
        assert "q=tan=0.02" in label
        assert "nre=mask-heavy" in label
        assert "weights=2:1:0.5" in label

    def test_empty_scenario_axis_rejected(self):
        with pytest.raises(SpecificationError):
            SweepGrid(q_models=())
        with pytest.raises(SpecificationError):
            SweepGrid(nres=())
        with pytest.raises(SpecificationError):
            SweepGrid(fom_weights=())

    def test_negative_nre_rejected(self):
        with pytest.raises(SpecificationError):
            NreScenario(name="bad", by_candidate=((1, -5.0),))


#: Axis value pools for the random grids of :class:`TestPointAt`.
POINT_AT_AXES = {
    "volumes": (1e3, 2.5e4, 4e5, 1e6),
    "substrates": (None, MCM_D_FINE_RULE, MCM_D_COARSE_RULE),
    "processes": (None, SI3N4_PROCESS),
    "tolerances": (None, PRECISION_CLASS, MATCHING_CLASS),
    "q_models": (
        None,
        SkinEffectQModel(),
        SubstrateLossQModel(tan_delta_ref=0.02),
    ),
    "nres": (None, NRE_SCENARIOS["zero"], NRE_SCENARIOS["mask-heavy"]),
    "fom_weights": (None, FomWeights(performance=2.0), FomWeights(cost=0.5)),
}

point_at_grids = st.fixed_dictionaries(
    {
        axis: st.lists(
            st.sampled_from(pool), min_size=1, max_size=3, unique_by=id
        ).map(tuple)
        for axis, pool in POINT_AT_AXES.items()
    }
).map(lambda axes: SweepGrid(**axes))


class TestPointAt:
    """:meth:`SweepGrid.point_at` is the inverse of the volume-major
    enumeration :meth:`SweepGrid.points` makes."""

    @given(grid=point_at_grids)
    @settings(max_examples=100, deadline=None)
    def test_every_index_is_the_enumerated_point(self, grid):
        points = grid.points()
        for index, expected in enumerate(points):
            point = grid.point_at(index)
            assert point == expected
            # The grid's own axis objects, so family_runs' identity
            # grouping batches resolved points like enumerated ones.
            for axis, field in zip(GRID_AXES, dataclasses.fields(point)):
                value = getattr(point, field.name)
                assert value is getattr(expected, field.name)
                assert any(value is own for own in getattr(grid, axis))

    @given(grid=point_at_grids, overshoot=st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_is_refused_never_wrapped(self, grid, overshoot):
        for index in (len(grid) + overshoot, -1 - overshoot):
            with pytest.raises(SpecificationError, match="out of range"):
                grid.point_at(index)


class TestRunDesignSweep:
    def test_empty_points_rejected(self):
        with pytest.raises(SpecificationError):
            run_design_sweep([], sweep_candidates)

    def test_bad_reference_rejected(self):
        with pytest.raises(SpecificationError):
            run_design_sweep(
                [DesignPoint()], sweep_candidates, reference=9
            )

    def test_empty_factory_rejected(self):
        with pytest.raises(SpecificationError):
            run_design_sweep([DesignPoint()], empty_factory)

    def test_matches_run_study_at_paper_point(self):
        """The paper's point (zero NRE) must equal the plain study
        exactly: every double, the winner and the front."""
        study = run_gps_study()
        front = analyze_study(study)
        report = run_gps_sweep([PAPER_POINT])
        assert len(report.rows) == len(study.rows)
        for study_row, sweep_row in zip(study.rows, report.rows):
            name = study_row.assessment.name
            assert sweep_row.candidate == name
            assert sweep_row.performance == study_row.fom.performance
            assert sweep_row.area_percent == study_row.area_percent
            assert sweep_row.cost_percent == study_row.cost_percent
            assert sweep_row.figure_of_merit == (
                study_row.fom.figure_of_merit
            )
            assert sweep_row.is_winner == (
                name == study.winner.assessment.name
            )
            assert sweep_row.on_pareto_front == front.is_on_front(name)

    def test_memoisation_shares_performance_and_area(self):
        cache = EvaluationCache()
        run_gps_sweep(SweepGrid(volumes=(1e3, 1e4, 1e5)), cache=cache)
        # Two follow-up volume points hit performance and area for all
        # four candidates (build-ups 1 and 2 even share one performance
        # key: identical discrete-filter assignments).
        assert cache.hits >= 2 * 4 * 2
        # The cost step genuinely depends on volume: four candidates
        # miss it at each of the three volumes.
        assert cache.misses >= 4 * 3

    def test_rows_are_pareto_ready(self):
        report = run_gps_sweep([DesignPoint()])
        assert len(report.rows) == 4
        winner_rows = [row for row in report.rows if row.is_winner]
        assert len(winner_rows) == 1
        assert winner_rows[0].candidate == IMPL4
        # Full integration (impl 3) is dominated by impl 4 on all axes.
        impl3 = next(r for r in report.rows if r.candidate == IMPL3)
        assert not impl3.on_pareto_front
        record = report.rows[0].as_dict()
        assert set(record) >= {
            "volume",
            "candidate",
            "performance",
            "area_percent",
            "cost_percent",
            "figure_of_merit",
            "on_pareto_front",
        }

    def test_winner_counts_and_best_row(self):
        report = run_gps_sweep(SweepGrid(volumes=(1e3, 1e5)))
        counts = report.winner_counts()
        assert sum(counts.values()) == 2
        best = report.best_row()
        assert best.figure_of_merit == max(
            row.figure_of_merit for row in report.rows
        )


class TestBatchedFill:
    GRID = SweepGrid(
        volumes=(500.0, 1e4, 1e5),
        tolerances=(None, PRECISION_CLASS),
    )

    def test_family_runs_groups_across_volume_major_stride(self):
        points = self.GRID.points()
        families = family_runs(points)
        # 3 volumes x 2 tolerances: two families of three points each,
        # strided across the run because volume varies slowest.
        assert sorted(pos for family in families for pos in family) == (
            list(range(len(points)))
        )
        assert len(families) == 2
        for family in families:
            assert len(family) == 3
            tolerances = {repr(points[pos].tolerance) for pos in family}
            assert len(tolerances) == 1
            volumes = [points[pos].volume for pos in family]
            assert len(set(volumes)) == 3

    def test_family_runs_merges_equal_content_held_by_distinct_objects(
        self,
    ):
        # Hand-built points whose tolerances are equal copies, not one
        # shared object: still one family, positions in run order; a
        # different tolerance starts its own family.
        copies = [copy.deepcopy(PRECISION_CLASS) for _ in range(2)]
        points = [
            DesignPoint(volume=1e3, tolerance=copies[0]),
            DesignPoint(volume=1e3, tolerance=MATCHING_CLASS),
            DesignPoint(volume=1e4, tolerance=copies[1]),
            DesignPoint(volume=1e5, tolerance=copies[0]),
            DesignPoint(volume=1e4, tolerance=MATCHING_CLASS),
        ]
        assert copies[0] is not copies[1]
        assert family_runs(points) == [[0, 2, 3], [1, 4]]

    def test_fills_produce_bit_identical_rows(self):
        batched = evaluate_cells(
            self.GRID.points(),
            sweep_candidates,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        scalar = per_point_frame(
            self.GRID.points(),
            sweep_candidates,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        assert batched == scalar
        assert batched.frame.to_json_columns() == (
            scalar.frame.to_json_columns()
        )

    def test_fills_report_equal_stat_totals(self):
        """Hit/miss *splits* may differ between the batched fill and
        the per-point loop (the batched fill seeds placements ahead of
        the lookups) but the totals per table may not — every
        sub-result is still resolved exactly once per point."""
        batch_cache = EvaluationCache()
        scalar_cache = EvaluationCache()
        evaluate_cells(
            self.GRID.points(),
            sweep_candidates,
            0,
            FomWeights(),
            batch_cache,
        )
        per_point_studies(
            self.GRID.points(),
            sweep_candidates,
            0,
            FomWeights(),
            scalar_cache,
        )
        fast, slow = batch_cache.stats(), scalar_cache.stats()
        for table in fast["tables"]:
            assert (
                fast["tables"][table]["hits"]
                + fast["tables"][table]["misses"]
            ) == (
                slow["tables"][table]["hits"]
                + slow["tables"][table]["misses"]
            )

    def test_unknown_factory_stays_scalar(self):
        """A factory without the volume_invariant marker must not be
        re-grouped into volume families."""
        calls = []

        def counting_factory(point):
            calls.append(point)
            return sweep_candidates(point)

        points = self.GRID.points()
        evaluate_cells(
            points,
            counting_factory,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        # Per-point path: the factory runs once per point, not per family.
        assert len(calls) == len(points)


class CarrierPriced:
    """A one-carrier flow at a fixed unit cost, whatever the area."""

    def __init__(self, unit_cost: float) -> None:
        self.unit_cost = unit_cost

    def __call__(self, area_cm2: float) -> ProductionFlow:
        flow = ProductionFlow(name="priced", nre=0.0)
        flow.add(CarrierStep("ID1", "carrier", unit_cost=self.unit_cost))
        flow.add(TestStep("ID2", "test"))
        return flow


class PricedFactory:
    """Equal candidates but for their carrier's unit cost; per
    tolerance label when ``costs`` maps labels to cost tuples."""

    def __init__(self, costs, invariant: bool) -> None:
        self.costs = costs
        if invariant:
            self.volume_invariant = True

    def __call__(self, point):
        costs = self.costs
        if isinstance(costs, dict):
            costs = costs[point.axis_labels()["tolerance"]]
        return [
            CandidateBuildUp(
                name=f"c{i}",
                footprints=[Footprint("chip", 10.0, MountKind.PACKAGED)],
                substrate_rule=PCB_RULE,
                flow_factory=CarrierPriced(cost),
                fixed_performance=1.0,
            )
            for i, cost in enumerate(costs)
        ]


RATIO_REFUSAL = (
    "decision frame cost_ratio values must be positive finite numbers"
)


class TestTrustedFrameRefusesBadRatios:
    """The engine builds its frames through the trusted constructor,
    which still refuses a ratio the ranking cannot use — with the
    validating constructor's own message."""

    GRID = SweepGrid(
        volumes=(1e3, 1e4), tolerances=(None, PRECISION_CLASS)
    )

    @pytest.mark.parametrize("invariant", [True, False])
    @pytest.mark.parametrize(
        "costs",
        [
            # A subnormal reference cost: 10 / 1e-310 is ``inf``.
            (1e-310, 10.0),
            # The smallest subnormal against 10: the ratio is 0.
            (10.0, 5e-324),
        ],
        ids=["inf", "zero"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_or_zero_ratio_is_refused(self, costs, invariant):
        with pytest.raises(SpecificationError) as excinfo:
            evaluate_cells(
                self.GRID.points(),
                PricedFactory(costs, invariant),
                0,
                FomWeights(),
                EvaluationCache(),
            )
        assert str(excinfo.value) == RATIO_REFUSAL

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_bad_family_refuses_the_block(self):
        """The refusal is vectorised over the whole block: one family's
        ``inf`` among good families still refuses it."""
        factory = PricedFactory(
            {"paper": (5.0, 10.0), "precision": (1e-310, 10.0)}, True
        )
        with pytest.raises(SpecificationError) as excinfo:
            evaluate_cells(
                self.GRID.points(), factory, 0, FomWeights(), EvaluationCache()
            )
        assert str(excinfo.value) == RATIO_REFUSAL

    def test_engine_frames_are_read_only(self):
        dframe = evaluate_cells(
            self.GRID.points(),
            PricedFactory((5.0, 10.0), True),
            0,
            FomWeights(),
            EvaluationCache(),
        )
        assert np.all(dframe.cost_ratio == [1.0, 2.0] * 4)
        arrays = [dframe.size_ratio, dframe.cost_ratio] + [
            dframe.frame.column(name) for name in ("performance", "volume")
        ]
        assert not any(array.flags.writeable for array in arrays)


class TestGpsAxes:
    def test_volume_moves_mcm_cost_through_nre(self):
        """Prototype volumes punish the MCM mask-set NRE."""
        report = run_gps_sweep(SweepGrid(volumes=(200.0, 100_000.0)))
        small, large = (
            next(
                r
                for r in report.rows
                if r.candidate == IMPL3 and r.volume == volume
            )
            for volume in (200.0, 100_000.0)
        )
        assert small.cost_percent > large.cost_percent + 5.0

    def test_tolerance_class_costs_yield_or_trim(self):
        """A tolerance class can only make build-ups 3/4 dearer."""
        report = run_gps_sweep(
            SweepGrid(tolerances=(None, MATCHING_CLASS, PRECISION_CLASS))
        )

        def cost(candidate, tolerance):
            return next(
                r.cost_percent
                for r in report.rows
                if r.candidate == candidate and r.tolerance == tolerance
            )

        for impl in (IMPL3, IMPL4):
            assert cost(impl, "matching") > cost(impl, "paper")
            assert cost(impl, "precision") > cost(impl, "paper")

    def test_substrate_axis_moves_area(self):
        report = run_gps_sweep(
            SweepGrid(substrates=(MCM_D_FINE_RULE, MCM_D_COARSE_RULE))
        )

        def area(candidate, substrate):
            return next(
                r.area_percent
                for r in report.rows
                if r.candidate == candidate and r.substrate == substrate
            )

        assert area(IMPL4, "MCM-D(Si) fine-line") < area(
            IMPL4, "MCM-D(Si) coarse"
        )

    def test_process_axis_resizes_integrated_passives(self):
        """A lower-density cap stack grows build-up 3's substrate."""
        report = run_gps_sweep(
            SweepGrid(processes=(None, SI3N4_PROCESS))
        )

        def area(process):
            return next(
                r.area_percent
                for r in report.rows
                if r.candidate == IMPL3 and r.process == process
            )

        assert area("Si3N4 thin film") > area("paper")

    def test_sweep_candidates_reject_nothing_silently(self):
        candidates = sweep_candidates(DesignPoint())
        assert [c.name for c in candidates] == [
            "PCB/SMD (reference)",
            "MCM-D(Si)/WB/SMD",
            IMPL3,
            IMPL4,
        ]

    def test_q_model_axis_moves_performance(self):
        """A lossier dielectric hurts the integrated build-ups only."""
        report = run_gps_sweep(
            SweepGrid(
                q_models=(
                    None,
                    SubstrateLossQModel(tan_delta_ref=0.005),
                    SubstrateLossQModel(tan_delta_ref=0.05),
                )
            )
        )
        assert len(report.rows) == 12

        def perf(candidate, q_model):
            return next(
                r.performance
                for r in report.rows
                if r.candidate == candidate and r.q_model == q_model
            )

        # The discrete build-up is untouched by the Q axis.
        assert perf("PCB/SMD (reference)", "paper") == perf(
            "PCB/SMD (reference)", "tan=0.05"
        )
        # The fully integrated build-up degrades with the loss tangent.
        assert perf(IMPL3, "tan=0.05") < perf(IMPL3, "tan=0.005")
        # The paper's constant-Q model differs from both scenarios.
        assert perf(IMPL3, "paper") not in (
            perf(IMPL3, "tan=0.005"),
            perf(IMPL3, "tan=0.05"),
        )

    def test_nre_axis_moves_cost(self):
        report = run_gps_sweep(
            SweepGrid(
                volumes=(500.0,),
                nres=(None, NRE_SCENARIOS["zero"], NRE_SCENARIOS["mask-heavy"]),
            )
        )

        def cost(nre):
            return next(
                r.cost_percent
                for r in report.rows
                if r.candidate == IMPL3 and r.nre == nre
            )

        # At prototype volume, dropping NRE is cheaper and doubling the
        # mask set dearer than the paper scenario.
        assert cost("zero") < cost("paper") < cost("mask-heavy")

    def test_weights_axis_reranks_without_touching_assessments(self):
        report = run_gps_sweep(
            SweepGrid(
                fom_weights=(None, FomWeights(performance=4.0))
            )
        )

        def row(candidate, weights):
            return next(
                r
                for r in report.rows
                if r.candidate == candidate and r.weights == weights
            )

        # Assessments (performance/area/cost) are weight-independent...
        for candidate in (IMPL3, IMPL4):
            plain = row(candidate, "paper")
            heavy = row(candidate, "4:1:1")
            assert plain.performance == heavy.performance
            assert plain.area_percent == heavy.area_percent
            assert plain.cost_percent == heavy.cost_percent
            # ...but the ranking number moves.
            assert plain.figure_of_merit != heavy.figure_of_merit
        # Weighting performance heavily dethrones the lossy build-up 4:
        # a perfect-performance candidate wins instead.
        assert row(IMPL4, "paper").is_winner
        assert not row(IMPL4, "4:1:1").is_winner

    def test_dispersive_q_axis_runs_through_the_circuit_engine(self):
        """A dispersive model on the axis reaches the MNA solves."""
        report = run_gps_sweep(
            [DesignPoint(q_model=SkinEffectQModel())]
        )
        impl3 = next(r for r in report.rows if r.candidate == IMPL3)
        assert 0.0 < impl3.performance <= 1.0
        assert impl3.q_model == "skin(Q0=40@1e+09Hz)"
