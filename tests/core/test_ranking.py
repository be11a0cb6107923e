"""The columnar ranking spine, locked against the per-point object path.

The sweep assesses whole volume families as columns
(:func:`repro.core.sweep.assess_family`) and ranks a whole block of
them in one call (:func:`repro.core.sweep.frame_for_cells`, on the
kernels of :mod:`repro.core.ranking`); ``tests/per_point.py`` keeps the
one-point-at-a-time path through ``BuildUpAssessment``,
``StudyResult`` and the scalar references of
``tests/study_reference.py``.  The hypothesis harness here
runs both over random grids — 1 to 8 candidates, exact FoM and
objective ties, duplicate candidate names, any reference index, a
weights axis with non-unit exponents, with and without the batched
family fill — and demands equal frame bytes, equal ratio columns and
equal cache tallies.  A second harness draws blocks whose families
differ in their candidates (and, for a factory that is not
``volume_invariant``, points of one family too), streamed across
``STREAM_BLOCK`` boundaries at final point indices.  A guard below
keeps per-cell objects out of every sweep entry point.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import MCM_D_RULE, PCB_RULE
from repro.core import executors, methodology, pareto
from repro.core.figure_of_merit import FomWeights
from repro.core.methodology import CandidateBuildUp
from repro.core.ranking import (
    DecisionFrame,
    cell_front_mask,
    group_first_max,
    weighted_fom,
    winner_mask,
)
from repro.core.resultframe import COLUMN_ORDER
from repro.core.sweep import EvaluationCache, SweepGrid, evaluate_cells
from repro.cost.moe.analytic import CostReportBatch
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError
from repro.gps.study import (
    build_gps_warehouse,
    run_adaptive_gps_sweep,
    run_gps_shard,
    run_gps_sweep,
    spill_gps_sweep,
    stream_gps_sweep,
)
from repro.passives.tolerance import MATCHING_CLASS, PRECISION_CLASS

from pareto_reference import first_dominators
from per_point import per_point_frame


class ToyFlow:
    """A carrier-plus-test flow priced by area, with amortised NRE."""

    def __init__(self, unit_cost: float, nre: float) -> None:
        self.unit_cost = unit_cost
        self.nre = nre

    def __call__(self, area_cm2: float) -> ProductionFlow:
        flow = ProductionFlow(name="toy", nre=self.nre)
        flow.add(
            CarrierStep(
                "ID1", "carrier", unit_cost=self.unit_cost + area_cm2
            )
        )
        flow.add(TestStep("ID2", "test", test_cost=1.0))
        return flow


class SpecFactory:
    """Candidates from ``(name, performance, area, mcm, cost, nre)``.

    ``volume_invariant`` is set only when asked for, so the other
    instances take the one-point :func:`~repro.core.sweep.evaluate_cell`
    path.
    """

    def __init__(self, specs, invariant: bool) -> None:
        self.specs = specs
        if invariant:
            self.volume_invariant = True

    def __call__(self, point):
        return [
            CandidateBuildUp(
                name=name,
                footprints=[Footprint("chip", area, MountKind.PACKAGED)],
                substrate_rule=MCM_D_RULE if mcm else PCB_RULE,
                flow_factory=ToyFlow(cost, nre),
                fixed_performance=performance,
            )
            for name, performance, area, mcm, cost, nre in self.specs
        ]


#: Small pools so draws collide: equal names, equal objectives, ties.
spec = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from([0.0, 0.25, 0.9, 1.0]),
    st.sampled_from([10.0, 25.0, 40.0]),
    st.booleans(),
    st.sampled_from([5.0, 12.5]),
    st.sampled_from([0.0, 2_000.0]),
)
exponent = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def spine_cases(draw):
    specs = tuple(draw(st.lists(spec, min_size=1, max_size=8)))
    reference = draw(st.integers(0, len(specs) - 1))
    volumes = draw(
        st.lists(
            st.sampled_from([1e2, 5e2, 1e3, 7e3, 1e4, 1e5]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    axis = FomWeights(
        performance=draw(exponent), size=draw(exponent), cost=draw(exponent)
    )
    grid = SweepGrid(
        volumes=tuple(volumes),
        fom_weights=(None, axis),
        tolerances=draw(st.sampled_from([(None,), (None, None)])),
    )
    default = FomWeights(
        performance=draw(exponent), size=draw(exponent), cost=draw(exponent)
    )
    return specs, reference, grid, default, draw(st.booleans())


def _table_totals(stats):
    return {
        name: (table["hits"] + table["misses"], table["entries"])
        for name, table in stats["tables"].items()
    }


class TestSpineMatchesPerPointObjects:
    @settings(max_examples=120, deadline=None)
    @given(case=spine_cases())
    def test_frames_ratios_and_stats_match(self, case):
        specs, reference, grid, weights, invariant = case
        factory = SpecFactory(specs, invariant)
        points = grid.points()
        spine_cache = EvaluationCache()
        object_cache = EvaluationCache()
        spine = evaluate_cells(
            points, factory, reference, weights, spine_cache
        )
        objects = per_point_frame(
            points, factory, reference, weights, object_cache
        )
        assert repr(spine.frame.to_json_columns()) == repr(
            objects.frame.to_json_columns()
        )
        assert spine.size_ratio.tolist() == objects.size_ratio.tolist()
        assert spine.cost_ratio.tolist() == objects.cost_ratio.tolist()
        assert spine.indices == objects.indices
        assert spine.row_counts == objects.row_counts
        if invariant:
            # The batched fill seeds placements uncounted, so only
            # the per-table totals and entries are comparable.
            assert _table_totals(spine_cache.stats()) == _table_totals(
                object_cache.stats()
            )
        else:
            assert spine_cache.stats() == object_cache.stats()


class KeyedFactory:
    """Candidates per tolerance label — and, unless ``volume_invariant``,
    per volume too — from :class:`SpecFactory` spec lists, so one block
    holds cells of different candidate counts and names."""

    def __init__(self, specs_by_key, invariant: bool) -> None:
        self.factories = {
            key: SpecFactory(specs, invariant)
            for key, specs in specs_by_key.items()
        }
        self.invariant = invariant
        if invariant:
            self.volume_invariant = True

    def __call__(self, point):
        tolerance = point.axis_labels()["tolerance"]
        key = tolerance if self.invariant else (tolerance, point.volume)
        return self.factories[key](point)


VOLUMES = (1e2, 5e2, 1e3, 7e3, 1e4, 1e5)
TOLERANCES = (None, PRECISION_CLASS, MATCHING_CLASS)


@st.composite
def block_cases(draw):
    volumes = tuple(
        draw(
            st.lists(
                st.sampled_from(VOLUMES), min_size=1, max_size=4, unique=True
            )
        )
    )
    tolerances = tuple(
        draw(
            st.lists(
                st.sampled_from(TOLERANCES),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    invariant = draw(st.booleans())
    labels = [t.name if t is not None else "paper" for t in tolerances]
    keys = labels if invariant else [
        (label, volume) for label in labels for volume in volumes
    ]
    specs_by_key = {
        key: tuple(draw(st.lists(spec, min_size=1, max_size=5)))
        for key in keys
    }
    reference = draw(
        st.integers(0, min(map(len, specs_by_key.values())) - 1)
    )
    axis = FomWeights(
        performance=draw(exponent), size=draw(exponent), cost=draw(exponent)
    )
    grid = SweepGrid(
        volumes=volumes, tolerances=tolerances, fom_weights=(None, axis)
    )
    default = FomWeights(
        performance=draw(exponent), size=draw(exponent), cost=draw(exponent)
    )
    factory = KeyedFactory(specs_by_key, invariant)
    block = draw(st.sampled_from([1, 2, 3, 5, executors.STREAM_BLOCK]))
    return factory, reference, grid, default, block


def _bits(dframe: DecisionFrame) -> dict:
    """Every column of a decision frame, floats and flags as raw bytes."""
    columns = {
        name: (
            column.tolist()
            if column.dtype == object
            else (column.dtype.str, column.tobytes())
        )
        for name, column in (
            (name, dframe.frame.column(name)) for name in COLUMN_ORDER
        )
    }
    return {
        **columns,
        "size_ratio": dframe.size_ratio.tobytes(),
        "cost_ratio": dframe.cost_ratio.tobytes(),
        "indices": dframe.indices,
        "row_counts": dframe.row_counts,
    }


class TestBlockRankerMatchesPerPointObjects:
    """One ranking call per block equals ranking every point alone."""

    @settings(max_examples=120, deadline=None)
    @given(case=block_cases())
    def test_mixed_blocks_match_bit_for_bit(self, case):
        factory, reference, grid, weights, block = case
        points = grid.points()
        expected = per_point_frame(
            points, factory, reference, weights, EvaluationCache()
        )
        whole = evaluate_cells(
            points, factory, reference, weights, EvaluationCache()
        )
        assert _bits(whole) == _bits(expected)
        with mock.patch.object(executors, "STREAM_BLOCK", block):
            streamed = list(
                executors.SerialExecutor().iter_cells(
                    points, factory, reference, weights, EvaluationCache()
                )
            )
        assert [len(part.indices) for part in streamed] == [
            len(points[start : start + block])
            for start in range(0, len(points), block)
        ]
        assert _bits(DecisionFrame.concat(streamed)) == _bits(expected)

    def test_final_indices_are_the_blocks_own(self):
        """A block built at its final point indices equals the block
        built at ``0 .. n - 1`` and reindexed."""
        factory = SpecFactory((("a", 1.0, 10.0, False, 5.0, 0.0),), True)
        points = SweepGrid(volumes=(1e3, 1e4, 1e5)).points()
        args = (points, factory, 0, FomWeights())
        placed = evaluate_cells(*args, EvaluationCache(), [7, 3, 9])
        assert placed.indices == (7, 3, 9)
        assert placed == evaluate_cells(*args, EvaluationCache()).reindexed(
            (7, 3, 9)
        )
        with pytest.raises(SpecificationError, match="2 indices but 3"):
            evaluate_cells(*args, EvaluationCache(), [0, 1])

    @pytest.mark.parametrize(
        "bad",
        [-1, 2.0, np.int64(2), True],
        ids=["negative", "float", "numpy-int", "bool"],
    )
    def test_final_indices_refuse_what_the_codec_refuses(self, bad):
        """Final indices take the validating constructor's index rule:
        an index ``to_payload`` or ``point_of_row`` could not carry is
        refused before the block is built."""
        factory = SpecFactory((("a", 1.0, 10.0, False, 5.0, 0.0),), True)
        points = SweepGrid(volumes=(1e3, 1e4, 1e5)).points()
        with pytest.raises(
            SpecificationError, match="indexs must be non-negative integers"
        ):
            evaluate_cells(
                points, factory, 0, FomWeights(), EvaluationCache(),
                [0, 1, bad],
            )


class TestKernels:
    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.5, 1.0, float("nan")]),
                    st.sampled_from([0.5, 1.0, 2.0]),
                    st.sampled_from([0.5, 1.0, float("inf")]),
                ),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=5,
        ),
        names=st.lists(
            st.sampled_from(["a", "b", "c"]), min_size=4, max_size=4
        ),
    )
    def test_cell_front_mask_matches_first_dominators(self, cells, names):
        values = np.asarray(cells, dtype=np.float64)
        mask = cell_front_mask(
            values[:, :, 0], values[:, :, 1], values[:, :, 2], names
        )
        for cell, row in zip(values, mask):
            front = first_dominators(cell[:, 0], cell[:, 1], cell[:, 2]) < 0
            expected = [
                any(f for f, other in zip(front, names) if other == name)
                for name in names
            ]
            assert row.tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(
        groups=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b", "c"]),
                    st.sampled_from([0.0, -0.0, 0.5, 1.0, float("inf")]),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_winner_mask_is_the_sorted_first_max(self, groups):
        starts = np.cumsum([0] + [len(rows) for rows in groups[:-1]])
        codes = {"a": 0, "b": 1, "c": 2}
        names = [codes[name] for rows in groups for name, _ in rows]
        fom = [value for rows in groups for _, value in rows]
        expected = []
        for rows in groups:
            best = sorted(rows, key=lambda row: row[1], reverse=True)[0]
            expected.extend(name == best[0] for name, _ in rows)
        assert winner_mask(starts, fom, names).tolist() == expected

    def test_any_nan_in_a_group_raises(self):
        with pytest.raises(SpecificationError, match="NaN"):
            group_first_max([0, 2], [1.0, float("nan"), 2.0])

    @pytest.mark.parametrize(
        "weights, axis",
        [
            (FomWeights(1.0, 1000.0, 1.0), "size"),
            (FomWeights(1.0, 1.0, 1e308), "cost"),
            (FomWeights(1e308, 1e308, 1e308), "size"),
        ],
    )
    def test_overflowing_weight_is_a_typed_error(self, weights, axis):
        """``x ** w`` beyond the largest double raised a bare
        ``OverflowError``; it is refused naming the weight."""
        with pytest.raises(SpecificationError) as excinfo:
            weighted_fom([0.5, 1.0], [0.25, 1.0], [0.5, 1.0], weights)
        message = str(excinfo.value)
        assert message.startswith(f"{axis} weight ")
        assert "overflows" in message and "\n" not in message

    @settings(max_examples=100, deadline=None)
    @given(
        bases=st.lists(
            st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=4
        ),
        exponent=st.one_of(
            st.floats(min_value=0.0, max_value=1e308),
            st.sampled_from([0.0, 1.0, 400.0, 1100.0, 1e308]),
        ),
    )
    def test_finite_results_keep_scalar_bits(self, bases, exponent):
        """Every result that fits a double, including exponents that
        underflow to 0, keeps the scalar operator's bits."""
        try:
            expected = [b**exponent for b in bases]
        except OverflowError:
            with pytest.raises(SpecificationError, match="overflows"):
                weighted_fom(bases, 1.0, 1.0, FomWeights(exponent, 0, 0))
            return
        got = weighted_fom(bases, 1.0, 1.0, FomWeights(exponent, 0, 0))
        assert got.tobytes() == np.asarray(expected).tobytes()

    def test_concat_restores_point_order(self):
        factory = SpecFactory((("a", 1.0, 10.0, False, 5.0, 0.0),), True)
        points = SweepGrid(volumes=(1e3, 1e4, 1e5)).points()
        whole = evaluate_cells(
            points, factory, 0, FomWeights(), EvaluationCache()
        )
        parts = [
            evaluate_cells(
                [points[i]], factory, 0, FomWeights(), EvaluationCache()
            ).reindexed((i,))
            for i in (2, 0, 1)
        ]
        assert DecisionFrame.concat(parts) == whole


def _refuse(*args, **kwargs):
    raise AssertionError("per-cell object built on the sweep path")


class TestNoPerCellObjects:
    """Every sweep entry point runs without a per-cell study object."""

    GRID = SweepGrid(volumes=(1e3, 1e4, 1e5))

    @pytest.fixture(autouse=True)
    def _guard(self, monkeypatch):
        monkeypatch.setattr(CostReportBatch, "report_at", _refuse)
        monkeypatch.setattr(methodology.StudyResult, "__init__", _refuse)
        monkeypatch.setattr(pareto, "analyze_study", _refuse)

    def test_guard_is_armed(self):
        with pytest.raises(AssertionError):
            pareto.analyze_study(None)

    def test_every_entry_point_completes(self, tmp_path):
        rows = len(run_gps_sweep(self.GRID).frame)
        assert rows == 4 * len(self.GRID)
        assert len(list(stream_gps_sweep(self.GRID))) == len(self.GRID)
        store = spill_gps_sweep(
            self.GRID, tmp_path / "store", max_rows_in_memory=5
        )
        assert store.total_rows == rows
        assert len(run_gps_shard(self.GRID, 2, 0).dframe) > 0
        manifest = build_gps_warehouse(tmp_path / "warehouse", self.GRID)
        assert manifest.complete
        assert run_adaptive_gps_sweep(self.GRID).total_evaluations > 0
