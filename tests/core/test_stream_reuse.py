"""What a later stream block or adaptive pass re-does on a shared cache.

The cost recurrence never sees the volume, so once a cache has seen a
volume family, a later block or pass over that family should pay only
for its new volumes: the candidate factory runs once per family per
cache, each candidate's ``flow_factory`` once per area, and each flow's
recurrence is walked once (``EvaluationCache.memo`` and the kept walk
of ``repro.cost.moe.analytic``).  These tests count those calls across
a multi-block stream and an adaptive run sharing one cache, check the
outputs against fresh runs byte for byte, and check the memo's bound
with a factory that builds fresh candidates per call.  Stream cells
are views of their block's rows; the last class checks they read like
the row copies they replace.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.core.executors as executors
import repro.core.sweep as sweep
import repro.cost.moe.analytic as analytic
from repro.core.adaptive import run_adaptive_sweep
from repro.core.figure_of_merit import FomWeights
from repro.core.resultframe import COLUMN_ORDER, ResultFrame
from repro.core.sweep import (
    EvaluationCache,
    SweepGrid,
    evaluate_cells,
    run_design_sweep,
    stream_design_sweep,
)
from repro.gps.study import sweep_candidates
from repro.passives.tolerance import MATCHING_CLASS

#: Two volume families of 40 volumes each.
GRID = SweepGrid(
    volumes=tuple(np.geomspace(1e2, 1e7, 40)),
    tolerances=(None, MATCHING_CLASS),
)


def family_of(point) -> str:
    """A point's family: every axis label but the volume."""
    return repr(point.axis_labels())


class CountingFactory:
    """The GPS factory, counting its calls per family and its
    candidates' ``flow_factory`` calls per (family, candidate, area)."""

    volume_invariant = True

    def __init__(self):
        self.calls: Counter = Counter()
        self.flows: Counter = Counter()

    def __call__(self, point):
        family = family_of(point)
        self.calls[family] += 1
        return [
            dataclasses.replace(
                candidate,
                flow_factory=self._counted(family, candidate),
            )
            for candidate in sweep_candidates(point)
        ]

    def _counted(self, family, candidate):
        def flow_factory(area_cm2):
            self.flows[family, candidate.name, area_cm2] += 1
            return candidate.flow_factory(area_cm2)

        return flow_factory


@pytest.fixture
def walks(monkeypatch):
    """Walks of the cost recurrence, counted per flow ``repr``."""
    counts: Counter = Counter()
    walk = analytic._walk

    def counting_walk(flow):
        counts[repr(flow)] += 1
        return walk(flow)

    monkeypatch.setattr(analytic, "_walk", counting_walk)
    return counts


def csv_of_stream(grid, factory, cache) -> list[str]:
    return ResultFrame.concat(
        [cell.frame for cell in stream_design_sweep(grid, factory, cache=cache)]
    ).csv_lines()


class TestOncePerCache:
    @pytest.fixture
    def run(self, monkeypatch, walks):
        """A 9-point-block stream, then an adaptive run, one cache."""
        monkeypatch.setattr(executors, "STREAM_BLOCK", 9)
        factory = CountingFactory()
        cache = EvaluationCache()
        streamed = csv_of_stream(GRID, factory, cache)
        adaptive = run_adaptive_sweep(GRID, factory, cache=cache)
        return factory, cache, streamed, adaptive

    def test_outputs_match_fresh_runs(self, run):
        factory, cache, streamed, adaptive = run
        plain = run_design_sweep(GRID, sweep_candidates)
        assert streamed == plain.frame.csv_lines()
        fresh = run_adaptive_sweep(GRID, sweep_candidates)
        assert adaptive.frame.csv_lines() == fresh.frame.csv_lines()
        assert adaptive.evaluated_indices == fresh.evaluated_indices

    def test_factory_runs_once_per_family(self, run):
        factory = run[0]
        assert len(factory.calls) == 2
        assert set(factory.calls.values()) == {1}

    def test_flow_factory_runs_once_per_candidate_and_area(self, run):
        factory = run[0]
        assert len(factory.flows) == 2 * 4
        assert set(factory.flows.values()) == {1}

    def test_recurrence_walked_once_per_flow(self, run, walks):
        cache = run[1]
        # The matching class leaves build-ups 1 and 2 alone, so the two
        # families share those flows: six distinct flows, not eight.
        assert set(walks) == set(cache._tables["cost"])
        assert len(walks) == 6
        assert set(walks.values()) == {1}

    def test_cost_stats_still_count_every_volume(self, run):
        cache = run[1]
        cost = cache.stats()["tables"]["cost"]
        # Each flow is walked once, yet every volume it was missing is
        # a miss of its own.
        assert cost["entries"] == cost["misses"] == 6 * len(GRID.volumes)


class FreshCandidates:
    """The GPS factory with every candidate, footprint tuple included,
    built afresh per call: nothing the memo holds is ever handed over
    again, so only the bound keeps it small."""

    volume_invariant = True

    def __call__(self, point):
        return [
            dataclasses.replace(
                candidate, footprints=tuple(list(candidate.footprints))
            )
            for candidate in sweep_candidates(point)
        ]


class TestMemoBound:
    def test_a_memo_emptied_mid_call_keeps_every_key_right(
        self, monkeypatch
    ):
        monkeypatch.setattr(sweep, "OBJECT_MEMO_SIZE", 3)
        cache = EvaluationCache()
        frames = [
            evaluate_cells(
                GRID.points(), FreshCandidates(), 0, FomWeights(), cache
            )
            for _ in range(2)
        ]
        plain_cache = EvaluationCache()
        plain = run_design_sweep(GRID, sweep_candidates, cache=plain_cache)
        for dframe in frames:
            assert dframe.frame.csv_lines() == plain.frame.csv_lines()
        assert len(cache._memo) <= 3
        state = cache.portable_state()["tables"]
        plain_state = plain_cache.portable_state()["tables"]
        for name in sweep.CACHE_TABLES:
            assert state[name]["keys"] == plain_state[name]["keys"]
            # The second call hits every entry the first one made.
            assert state[name]["misses"] == plain_state[name]["misses"]
            assert state[name]["hits"] == (
                plain_state[name]["hits"] + len(GRID) * 4
            )


class TestCellViews:
    @pytest.fixture(scope="class")
    def dframe(self):
        return evaluate_cells(
            GRID.points()[:5], sweep_candidates, 0, FomWeights(),
            EvaluationCache(),
        )

    def test_cells_read_like_row_copies(self, dframe):
        stop = 0
        for (index, cell), count in zip(dframe.cells(), dframe.row_counts):
            start, stop = stop, stop + count
            copy = dframe.frame.take(np.arange(start, stop))
            assert cell.csv_lines() == copy.csv_lines()
            assert cell == copy
            assert cell.to_rows() == copy.to_rows()

    def test_cells_are_read_only_views_of_the_block(self, dframe):
        for _, cell in dframe.cells():
            for name in COLUMN_ORDER:
                column = cell.column(name)
                assert not column.flags.writeable
                assert np.shares_memory(column, dframe.frame.column(name))
                with pytest.raises(ValueError):
                    column[:1] = column[:1]
