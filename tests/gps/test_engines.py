"""Execution engines must not move a digit of the GPS reproduction.

The systematic engine x scenario identity matrix lives in
``test_engine_matrix.py`` (every engine, every Q-model scenario,
byte-identical rows).  What remains here is the anchor to the golden
files and the factory's pickling contract:

* at the paper's own design point (``PAPER_POINT``: default axes, the
  zero-NRE scenario on the NRE axis), the production sweep and each
  reference engine reproduce the golden-locked study numbers exactly;
* the GPS candidate factory survives a pickle round trip;
* it is the only factory: it takes just the point, and the GPS entry
  points take their options by keyword only.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core.executors import AsyncExecutor
from repro.core.figure_of_merit import FomWeights
from repro.core.sweep import DesignPoint, EvaluationCache, evaluate_cells
from repro.gps import study
from repro.gps.study import PAPER_POINT, run_gps_study, sweep_candidates

from sharded_reference import ShardedExecutor

#: Engine name -> ``run_sweep(points, factory, reference, weights,
#: cache)``: the production fill and the reference engines.
ENGINES = {
    "serial": evaluate_cells,
    "sharded": ShardedExecutor(shards=2).run_sweep,
    "async": AsyncExecutor(jobs=2).run_sweep,
}


class TestPaperPointIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_paper_point_matches_study_under_every_engine(self, engine):
        """Zero-NRE sweep at the paper's point == the golden-locked study."""
        study = run_gps_study()
        dframe = ENGINES[engine](
            [PAPER_POINT],
            sweep_candidates,
            0,
            FomWeights(),
            EvaluationCache(),
        )
        rows = dframe.frame.to_rows()
        assert len(rows) == len(study.rows)
        for study_row, sweep_row in zip(study.rows, rows):
            assert (
                sweep_row.figure_of_merit
                == study_row.fom.figure_of_merit
            )
            assert sweep_row.area_percent == study_row.area_percent
            assert sweep_row.cost_percent == study_row.cost_percent


class TestFactoryPicklability:
    def test_gps_factory_round_trips_through_pickle(self):
        import pickle

        clone = pickle.loads(pickle.dumps(sweep_candidates))
        assert clone.volume_invariant
        point = DesignPoint()
        assert [c.name for c in clone(point)] == [
            c.name for c in sweep_candidates(point)
        ]


#: GPS entry point -> its positional parameters; every other parameter
#: is keyword-only.
ENTRY_POINTS = {
    "run_gps_study": (),
    "run_gps_sweep": ("grid",),
    "stream_gps_sweep": ("grid",),
    "spill_gps_sweep": ("grid", "directory", "max_rows_in_memory"),
    "run_adaptive_gps_sweep": ("grid",),
    "spill_adaptive_gps_sweep": ("grid", "directory", "max_rows_in_memory"),
    "run_gps_shard": ("grid", "shards", "shard_index"),
    "run_gps_queue_worker": ("manifest_path", "grid"),
    "build_gps_warehouse": ("directory", "grid"),
}


class TestOneFactory:
    def test_factory_takes_only_the_point(self):
        assert list(inspect.signature(sweep_candidates).parameters) == [
            "point"
        ]

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_options_are_keyword_only(self, name):
        parameters = inspect.signature(getattr(study, name)).parameters
        positional = tuple(
            parameter.name
            for parameter in parameters.values()
            if parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        )
        assert positional == ENTRY_POINTS[name]

    def test_stale_positional_option_raises(self):
        with pytest.raises(TypeError):
            study.run_gps_sweep([DesignPoint()], None, FomWeights())
