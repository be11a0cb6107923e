"""Speed gate: the batched family fill must be ≥ 5x the per-point loop.

The PR that vectorised the per-cell assessment spine claims a sweep
over a volume-heavy grid walks each production flow **once per volume
family** (one batched ``evaluate_batch`` call) instead of once per
point, runs the candidate factory once per family instead of once per
point, and broadcasts the placements — while producing bit-identical
rows.  This benchmark pins that claim on a 64-volume × 2-tolerance GPS
grid (128 points, 512 rows):

* **per-point loop** (the reference, kept here as
  :func:`_per_point_frame`): every point builds its candidates,
  resolves the memo, walks all four production flows and is ranked
  on its own (:func:`~repro.core.sweep.evaluate_cell`);
* **batched fill** (:func:`~repro.core.sweep.evaluate_cells`): two
  volume families, each assessed by one batched flow walk per
  candidate.

Both sides start from the same warm cache — performance and placement
already memoised by a throwaway volume, so the MNA solves are off the
clock on *both* paths and the gate times the assessment spine itself,
not the circuit engine.  The frames must be byte-identical before any
timing matters; the batched fill must be at least ``MIN_SPEEDUP``
times faster than the per-point loop.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.core.figure_of_merit import FomWeights
from repro.core.ranking import DecisionFrame
from repro.core.sweep import (
    EvaluationCache,
    SweepGrid,
    evaluate_cell,
    evaluate_cells,
)
from repro.gps.study import sweep_candidates
from repro.passives.tolerance import PRECISION_CLASS

#: The acceptance criterion: batched fill vs per-point loop speedup.
MIN_SPEEDUP = 5.0

N_VOLUMES = 64

GRID = SweepGrid(
    volumes=tuple(float(v) for v in np.geomspace(1e2, 1e7, N_VOLUMES)),
    tolerances=(None, PRECISION_CLASS),
)

#: A volume outside the grid: warming with it memoises performance and
#: placement for every family without pre-computing any timed cost.
WARM_GRID = SweepGrid(
    volumes=(123.0,), tolerances=(None, PRECISION_CLASS)
)


def _per_point_frame(points, candidate_factory, reference, weights, cache):
    """The per-point reference: the factory and the memo once per point."""
    return DecisionFrame.concat(
        [
            evaluate_cell(
                point, candidate_factory(point), reference, weights, cache
            ).reindexed((index,))
            for index, point in enumerate(points)
        ]
    )


def _warm_cache() -> EvaluationCache:
    cache = EvaluationCache()
    _per_point_frame(
        WARM_GRID.points(), sweep_candidates, 0, FomWeights(), cache
    )
    return cache


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batched_fill_is_5x_the_scalar_fill():
    """≥ 5x on a 128-point volume-heavy grid, identical rows."""
    warm = _warm_cache()
    points = GRID.points()

    def run(evaluate):
        return evaluate(
            points, sweep_candidates, 0, FomWeights(), copy.deepcopy(warm)
        )

    scalar_s, scalar = _best_of(lambda: run(_per_point_frame), repeats=2)
    batch_s, batch = _best_of(lambda: run(evaluate_cells), repeats=5)

    assert batch == scalar
    scalar_frame, batch_frame = scalar.frame, batch.frame
    assert batch_frame.csv_lines() == scalar_frame.csv_lines()
    assert batch_frame.to_rows() == scalar_frame.to_rows()

    speedup = scalar_s / batch_s
    print(
        f"\n{len(points)}-cell assessment: per-point loop "
        f"{1e3 * scalar_s:.0f} ms, batched fill {1e3 * batch_s:.0f} ms "
        f"-> {speedup:.1f}x (gate {MIN_SPEEDUP}x)"
    )
    assert speedup >= MIN_SPEEDUP
