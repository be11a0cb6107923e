"""Execution engines must not move a digit of the GPS reproduction.

The systematic engine x scenario identity matrix lives in
``test_engine_matrix.py`` (every engine, every Q-model scenario,
byte-identical rows).  What remains here is the anchor to the golden
files and the factory's pickling contract:

* at the paper's own design point, every engine reproduces the
  golden-locked study numbers exactly;
* the GPS candidate factory survives a pickle round trip.
"""

from __future__ import annotations

import pytest

from repro.core.executors import AsyncExecutor, SerialExecutor
from repro.core.sweep import DesignPoint
from repro.gps.study import (
    GpsSweepFactory,
    run_gps_study,
    run_gps_sweep,
)

from sharded_reference import ShardedExecutor

#: Engine name -> factory: the production engine and its substitutes.
ENGINES = {
    "serial": SerialExecutor,
    "sharded": lambda: ShardedExecutor(shards=2),
    "async": lambda: AsyncExecutor(jobs=2),
}


class TestPaperPointIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_paper_point_matches_study_under_every_engine(self, engine):
        """Zero-NRE sweep at the paper's point == the golden-locked study."""
        study = run_gps_study()
        report = run_gps_sweep(
            [DesignPoint()],
            nre_scenario={i: 0.0 for i in (1, 2, 3, 4)},
            executor=ENGINES[engine](),
        )
        assert len(report.rows) == len(study.rows)
        for study_row, sweep_row in zip(study.rows, report.rows):
            assert (
                sweep_row.figure_of_merit
                == study_row.fom.figure_of_merit
            )
            assert sweep_row.area_percent == study_row.area_percent
            assert sweep_row.cost_percent == study_row.cost_percent


class TestFactoryPicklability:
    def test_gps_factory_round_trips_through_pickle(self):
        import pickle

        factory = GpsSweepFactory(
            nre_scenario={1: 0.0, 2: 1.0, 3: 2.0, 4: 3.0}
        )
        clone = pickle.loads(pickle.dumps(factory))
        point = DesignPoint()
        assert [c.name for c in clone(point)] == [
            c.name for c in factory(point)
        ]
