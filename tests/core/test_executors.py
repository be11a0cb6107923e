"""The sweep execution engines.

The serial engine's block streaming, the async library engine, the
reference cache fold, and the engines' shared result: identical
decision frames regardless of how the grid is scheduled.
The heavyweight GPS-level identity check lives in
``tests/gps/test_engines.py``; here small synthetic factories keep the
focus on the scheduling machinery itself.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import executors
from repro.core.executors import AsyncExecutor, SerialExecutor
from repro.core.figure_of_merit import FomWeights
from repro.core.methodology import CandidateBuildUp
from repro.core.ranking import DecisionFrame
from repro.core.sweep import (
    DesignPoint,
    EvaluationCache,
    SweepGrid,
    evaluate_cells,
    run_design_sweep,
    stream_design_sweep,
)
from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError

from sharded_reference import merge_caches


def _flow(area_cm2: float) -> ProductionFlow:
    """A minimal picklable carrier-plus-test production flow."""
    flow = ProductionFlow(name="toy")
    flow.add(
        CarrierStep("ID1", "carrier", unit_cost=10.0 + area_cm2)
    )
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def fixed_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    """Module-level (hence picklable) two-candidate factory."""
    footprints = [
        Footprint("chip", 25.0, MountKind.PACKAGED),
    ]
    return [
        CandidateBuildUp(
            name="ref",
            footprints=footprints,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=1.0,
        ),
        CandidateBuildUp(
            name="alt",
            footprints=footprints * 2,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=0.9,
        ),
    ]


class TestCacheMerge:
    def test_merge_adds_counters_and_unions_tables(self):
        left = EvaluationCache()
        right = EvaluationCache()
        left.cost_batch("flowA", [1.0], lambda missing: ["a"])
        right.cost_batch("flowA", [1.0], lambda missing: ["a"])  # same key
        right.cost_batch("flowB", [1.0], lambda missing: ["b"])
        right.cost_batch("flowB", [1.0], lambda missing: ["b"])  # a hit
        merge_caches(left, right)
        stats = left.stats()
        assert stats["tables"]["cost"] == {
            "hits": 1,
            "misses": 3,
            "entries": 2,
        }
        assert stats["hits"] == 1 and stats["misses"] == 3

    def test_merge_is_first_wins(self):
        left = EvaluationCache()
        right = EvaluationCache()
        left.cost_batch("flow", [1.0], lambda missing: ["mine"])
        right.cost_batch("flow", [1.0], lambda missing: ["theirs"])
        merge_caches(left, right)
        assert left.cost_batch(
            "flow", [1.0], lambda missing: ["recomputed"]
        ) == ["mine"]


class TestEnginesAgree:
    POINTS = [DesignPoint(volume=v) for v in (1e3, 1e4, 1e5, 1e6, 1e7)]

    def _frame(self, run_sweep):
        return run_sweep(
            self.POINTS, fixed_candidates, 0, FomWeights(), EvaluationCache()
        )

    def test_async_engine_matches_serial(self):
        assert self._frame(AsyncExecutor(jobs=3).run_sweep) == self._frame(
            evaluate_cells
        )


class TestAsyncStreaming:
    """The async engine's streaming and progress surfaces."""

    POINTS = TestEnginesAgree.POINTS

    def test_async_jobs_validated(self):
        with pytest.raises(SpecificationError):
            AsyncExecutor(0)
        assert AsyncExecutor(3).jobs == 3
        assert AsyncExecutor().jobs >= 1

    def test_progress_callback_counts_every_point(self):
        events = []
        executor = AsyncExecutor(
            jobs=2,
            progress=lambda done, total, dframe: events.append(
                (done, total, dframe.indices)
            ),
        )
        executor.run_sweep(
            self.POINTS, fixed_candidates, 0, FomWeights(), EvaluationCache()
        )
        assert [done for done, _, _ in events] == list(
            range(1, len(self.POINTS) + 1)
        )
        assert all(total == len(self.POINTS) for _, total, _ in events)
        assert sorted(indices for _, _, indices in events) == [
            (index,) for index in range(len(self.POINTS))
        ]

    def test_iter_cells_yields_every_index_exactly_once(self):
        executor = AsyncExecutor(jobs=3)
        streamed = list(
            executor.iter_cells(
                self.POINTS,
                fixed_candidates,
                0,
                FomWeights(),
                EvaluationCache(),
            )
        )
        indices = [index for block in streamed for index in block.indices]
        assert sorted(indices) == list(range(len(self.POINTS)))
        serial = evaluate_cells(
            self.POINTS,
            fixed_candidates,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        assert DecisionFrame.concat(streamed) == serial

    def test_stream_design_sweep_rows_match_run_design_sweep(self):
        """Completion-order cells, put back in canonical order, carry
        the rows of the whole-grid sweep."""
        report = run_design_sweep(self.POINTS, fixed_candidates)
        cells = sorted(
            (
                cell
                for block in AsyncExecutor(jobs=2).iter_cells(
                    self.POINTS,
                    fixed_candidates,
                    0,
                    FomWeights(),
                    EvaluationCache(),
                )
                for cell in block.cells()
            ),
            key=lambda cell: cell[0],
        )
        rows = tuple(row for _, frame in cells for row in frame.to_rows())
        assert rows == report.rows

    def test_errors_propagate_through_both_surfaces(self):
        def exploding_factory(point):
            raise RuntimeError("boom at " + point.label())

        engine = AsyncExecutor(jobs=2)
        arguments = (
            self.POINTS[:2],
            exploding_factory,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        with pytest.raises(RuntimeError, match="boom"):
            engine.run_sweep(*arguments)
        with pytest.raises(RuntimeError, match="boom"):
            list(engine.iter_cells(*arguments))

    def test_failure_does_not_run_the_whole_queue(self):
        """An early error drops not-yet-started points before raising."""
        import time

        calls = []

        def counting_exploder(point):
            calls.append(point)
            time.sleep(0.005)  # a realistically non-instant evaluation
            raise RuntimeError("boom")

        many = [DesignPoint(volume=float(v)) for v in range(1, 51)]
        # One worker: the first task fails, and the queued remainder
        # must be cancelled while it is still queued — not evaluated.
        with pytest.raises(RuntimeError, match="boom"):
            AsyncExecutor(jobs=1).run_sweep(
                many, counting_exploder, 0, FomWeights(), EvaluationCache()
            )
        assert len(calls) < len(many)

    def test_breaking_out_of_iter_cells_abandons_the_rest(self):
        """A consumer that stops early must not drag the sweep along."""
        import time

        calls = []

        def counting_factory(point):
            calls.append(point)
            time.sleep(0.005)  # keep the worker from outracing close()
            return fixed_candidates(point)

        many = [DesignPoint(volume=float(v)) for v in range(1, 51)]
        iterator = AsyncExecutor(jobs=1).iter_cells(
            many, counting_factory, 0, FomWeights(), EvaluationCache()
        )
        next(iterator)
        iterator.close()  # the generator's finally joins the worker
        assert len(calls) < len(many)


def _nre_flow(area_cm2: float) -> ProductionFlow:
    """A toy flow whose unit cost falls with volume (amortised NRE)."""
    flow = ProductionFlow(name="toy-nre", nre=5_000.0 * area_cm2)
    flow.add(CarrierStep("ID1", "carrier", unit_cost=10.0 + area_cm2))
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def family_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    """Volume-invariant two-candidate factory (takes the batched fill)."""
    footprints = [Footprint("chip", 25.0, MountKind.PACKAGED)]
    return [
        CandidateBuildUp(
            name="ref",
            footprints=footprints,
            substrate_rule=PCB_RULE,
            flow_factory=_nre_flow,
            fixed_performance=1.0,
        ),
        CandidateBuildUp(
            name="alt",
            footprints=footprints * 3,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=0.9,
        ),
    ]


family_candidates.volume_invariant = True

#: Distinct FoM weight vectors: each one is its own volume family.
WEIGHT_POOL = (
    None,
    FomWeights(performance=2.0),
    FomWeights(size=0.5, cost=2.0),
)


class TestSerialBlockStreaming:
    """``SerialExecutor.iter_cells`` streams family-batched blocks."""

    @settings(max_examples=25, deadline=None)
    @given(
        volumes=st.lists(
            st.floats(min_value=1e2, max_value=1e7),
            min_size=3,
            max_size=12,
            unique=True,
        ),
        families=st.integers(min_value=2, max_value=len(WEIGHT_POOL)),
        block=st.integers(min_value=1, max_value=5),
    )
    def test_blocks_match_run_sweep_cells_and_stats(
        self, volumes, families, block
    ):
        points = SweepGrid(
            volumes=tuple(volumes), fom_weights=WEIGHT_POOL[:families]
        ).points()
        assert len(points) > block
        run_cache = EvaluationCache()
        whole = evaluate_cells(
            points, family_candidates, 0, FomWeights(), run_cache
        )
        stream_cache = EvaluationCache()
        with mock.patch.object(executors, "STREAM_BLOCK", block):
            streamed = list(
                SerialExecutor().iter_cells(
                    points, family_candidates, 0, FomWeights(), stream_cache
                )
            )
        assert [
            index for dframe in streamed for index in dframe.indices
        ] == list(range(len(points)))
        assert DecisionFrame.concat(streamed) == whole
        assert stream_cache.stats() == run_cache.stats()

    def test_default_stream_evaluates_block_by_block(self, monkeypatch):
        """One ``evaluate_cells`` call per block, none per point."""
        points = SweepGrid(
            volumes=tuple(float(v) for v in range(1, 8)),
            fom_weights=WEIGHT_POOL[:2],
        ).points()
        block = 4
        calls = []
        evaluate = executors.evaluate_cells

        def counting(block_points, *args):
            calls.append(len(block_points))
            return evaluate(block_points, *args)

        monkeypatch.setattr(executors, "STREAM_BLOCK", block)
        monkeypatch.setattr(executors, "evaluate_cells", counting)
        streamed = list(stream_design_sweep(points, family_candidates))
        assert [item.index for item in streamed] == list(range(len(points)))
        assert len(calls) == math.ceil(len(points) / block)
        assert calls == [4, 4, 4, 2]
