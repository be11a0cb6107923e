"""Differential harness: every engine x every Q scenario, same bytes.

This is the systematic replacement for the ad-hoc per-engine
comparisons that used to live in ``test_engines.py``: one parametrised
matrix that runs a small GPS sweep through *every* reference engine
(the in-process sharded reference and the async library engine, each
driven directly — the production sweep is the reference) under
*every* Q-model scenario class (constant-Q, dispersive, custom
``tan=``) and asserts the rows are byte-identical to the production
sweep's — dataclass equality on ``SweepRow`` compares every float
exactly, not approximately.

The out-of-core, cross-host and queue paths get the same treatment per
scenario: a spilled store, shard artifacts round-tripped through JSON
and a drained queue must all come back to the same bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.circuits.qfactor import (
    MEASURED_SUMMIT_TABLE,
    SubstrateLossQModel,
)
from repro.core.executors import AsyncExecutor
from repro.core.gather import gather_directory
from repro.core.queue import manifest_for_grid, write_manifest
from repro.core.sharding import (
    artifact_to_payload,
    merge_shard_artifacts,
    payload_to_artifact,
)
from repro.core.figure_of_merit import FomWeights
from repro.core.sweep import EvaluationCache, SweepGrid
from repro.gps.study import (
    run_gps_queue_worker,
    run_gps_shard,
    run_gps_sweep,
    spill_gps_sweep,
    sweep_candidates,
)
from repro.passives.tolerance import PRECISION_CLASS

from per_point import per_point_frame
from sharded_reference import ShardedExecutor

#: Engine name -> factory.  The production sweep is the reference,
#: not a column.
ENGINES = {
    "sharded": lambda: ShardedExecutor(shards=3),
    "async": lambda: AsyncExecutor(jobs=2),
}

#: Scenario name -> grid.  One grid per Q-model class the engines must
#: reproduce: the constant-Q golden path, genuinely dispersive models
#: (frequency-dependent Q re-evaluated at every stamped frequency),
#: and a custom ``tan=`` loss tangent; each grid carries a second axis
#: so sharding and async scheduling have real work to repartition.
SCENARIO_GRIDS = {
    "constant-q": SweepGrid(volumes=(1_000.0, 100_000.0)),
    "dispersive": SweepGrid(
        volumes=(1_000.0,),
        q_models=(SubstrateLossQModel(), MEASURED_SUMMIT_TABLE),
    ),
    "custom-tan": SweepGrid(
        volumes=(1_000.0,),
        q_models=(SubstrateLossQModel(tan_delta_ref=0.02),),
        tolerances=(None, PRECISION_CLASS),
    ),
}


@pytest.fixture(scope="module")
def serial_reports():
    """The production sweep's reference rows, one report per scenario."""
    return {
        scenario: run_gps_sweep(grid)
        for scenario, grid in SCENARIO_GRIDS.items()
    }


class TestEngineMatrix:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("scenario", sorted(SCENARIO_GRIDS))
    def test_rows_byte_identical_to_serial(
        self, serial_reports, engine, scenario
    ):
        dframe = ENGINES[engine]().run_sweep(
            SCENARIO_GRIDS[scenario].points(),
            sweep_candidates,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        reference = serial_reports[scenario]
        assert dframe.frame.to_rows() == reference.rows
        assert dframe.frame == reference.frame

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_GRIDS))
    def test_scalar_fill_byte_identical_to_batched(
        self, serial_reports, scenario
    ):
        """The serial reference runs the batched family fill; the
        per-point loop must hit the same bytes under every scenario
        class."""
        dframe = per_point_frame(
            SCENARIO_GRIDS[scenario].points(),
            sweep_candidates,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        assert dframe.frame == serial_reports[scenario].frame

    def test_scenarios_genuinely_differ(self, serial_reports):
        """The matrix is not vacuous: each scenario moves the numbers."""
        performances = {
            scenario: tuple(
                row.performance for row in report.rows
            )
            for scenario, report in serial_reports.items()
        }
        assert len(set(performances.values())) == len(performances)


class TestChunkedStoreMatrix:
    """The out-of-core column: spilling through the chunked frame
    store under every scenario must stream back the exact in-RAM
    bytes — frame, CSV lines and cache statistics alike."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_GRIDS))
    def test_spilled_store_byte_identical_to_serial(
        self, serial_reports, scenario, tmp_path
    ):
        store = spill_gps_sweep(
            SCENARIO_GRIDS[scenario], tmp_path / "store", max_rows_in_memory=3
        )
        reference = serial_reports[scenario]
        assert store.to_frame() == reference.frame
        assert list(store.csv_lines()) == reference.frame.csv_lines()

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_GRIDS))
    def test_serial_spill_matches_cache_stats(
        self, serial_reports, scenario, tmp_path
    ):
        store = spill_gps_sweep(
            SCENARIO_GRIDS[scenario], tmp_path / "store", max_rows_in_memory=1
        )
        reference = serial_reports[scenario]
        assert store.to_frame() == reference.frame
        assert store.meta["cache_stats"] == reference.cache_stats


class TestCrossHostMatrix:
    """Shard -> JSON -> merge must hit the same bytes as serial."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_GRIDS))
    def test_merged_artifacts_byte_identical_to_serial(
        self, serial_reports, scenario
    ):
        grid = SCENARIO_GRIDS[scenario]
        artifacts = [
            payload_to_artifact(
                json.loads(
                    json.dumps(
                        artifact_to_payload(
                            run_gps_shard(grid, shards=2, shard_index=i)
                        )
                    )
                )
            )
            for i in range(2)
        ]
        merged = merge_shard_artifacts(reversed(artifacts))
        assert merged.rows == serial_reports[scenario].rows


class TestQueueFabricMatrix:
    """Queue worker + incremental gather must hit the serial bytes.

    The service tier gets the same differential treatment: a
    manifest-driven queue drained by a worker, gathered from the shard
    directory, must reproduce the in-RAM rows exactly under every
    scenario.
    """

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_GRIDS))
    def test_gathered_queue_byte_identical_per_scenario(
        self, serial_reports, scenario, tmp_path
    ):
        grid = SCENARIO_GRIDS[scenario]
        manifest = manifest_for_grid(grid, shards=2)
        manifest_path = write_manifest(tmp_path / "manifest.json", manifest)
        assert run_gps_queue_worker(manifest_path, grid).queue_drained
        gathered = gather_directory(tmp_path, expected=manifest)
        assert gathered.rows == serial_reports[scenario].rows
