"""Acceptance gates: adaptive refinement vs the exhaustive GPS grid.

The adaptive driver claims **≥ 10x fewer cell evaluations at equal
front quality** on the GPS study, and on large grids a **≥ 2x faster
answer on the clock**.  This benchmark pins the claims, in that order:

* **front quality first** — the adaptive run's global Pareto front
  must be byte-identical (CSV row compare) to the exhaustive grid's
  front restricted to the evaluated points, and every adaptive front
  row must appear verbatim on the full exhaustive front.  A savings
  number without this check would be meaningless — skipping
  evaluations is trivial if the front is allowed to degrade;
* **then the evaluation-count gate** — ``AdaptiveReport`` must show at
  least :data:`MIN_SAVINGS` exhaustive grid points per evaluation
  actually spent, with the per-pass counters internally consistent
  (they are the observable evidence, not a synthesized summary);
* **then the clock gate** — on a grid of at least
  :data:`CLOCK_GRID_POINTS` points, after the same frame and front byte
  checks, the best of :data:`CLOCK_REPEATS` adaptive runs must take at
  most ``1 /`` :data:`MIN_SPEEDUP` of the best exhaustive
  ``run_gps_sweep`` + ``global_front_mask`` answer.

Evaluation count alone does not show a win: the exhaustive sweep
amortises a volume axis through the batched family fill, so on the
256-point grid the adaptive run is still *slower* on the clock (~0.5x,
its eight passes each pay fixed costs) despite 15x fewer evaluations.
Each pass costs only the cells it evaluates, so the driver pulls ahead
as the grid grows (~8x at 32768 points); the clock gate pins that.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.core.adaptive import global_front_mask
from repro.core.sweep import SweepGrid
from repro.gps.study import run_adaptive_gps_sweep, run_gps_sweep

#: The acceptance criterion: exhaustive points per adaptive evaluation.
MIN_SAVINGS = 10.0

#: Dense log-spaced volume axis — the paper's decisive knob, and the
#: axis the zoom refines on a log scale.
GRID = SweepGrid(volumes=tuple(np.geomspace(1e2, 1e7, 256)))

#: The clock gate: adaptive answers at least this much faster than the
#: exhaustive sweep plus its global front, on a grid of at least
#: ``CLOCK_GRID_POINTS`` points, best of ``CLOCK_REPEATS`` runs each.
MIN_SPEEDUP = 2.0
CLOCK_GRID_POINTS = 32768
CLOCK_REPEATS = 3
CLOCK_GRID = SweepGrid(
    volumes=tuple(np.geomspace(1e2, 1e7, CLOCK_GRID_POINTS))
)


def _restricted(exhaustive_frame, report):
    """Exhaustive rows of the adaptively evaluated points."""
    rows_per_cell = len(exhaustive_frame) // report.grid_points
    mask = np.zeros(len(exhaustive_frame), dtype=bool)
    for index in report.evaluated_indices:
        mask[index * rows_per_cell : (index + 1) * rows_per_cell] = True
    return exhaustive_frame.filter(mask)


def test_adaptive_front_quality_then_savings(benchmark):
    exhaustive = run_gps_sweep(GRID)
    report = benchmark(lambda: run_adaptive_gps_sweep(GRID))

    # -- front quality first ------------------------------------------
    sub = _restricted(exhaustive.frame, report)
    assert report.frame.csv_lines() == sub.csv_lines()
    adaptive_front = report.front_frame().csv_lines()
    sub_front_frame = sub.filter(global_front_mask(sub))
    assert adaptive_front == sub_front_frame.csv_lines()
    full_front = exhaustive.frame.filter(
        global_front_mask(exhaustive.frame)
    )
    assert set(adaptive_front) <= set(full_front.csv_lines())

    # -- then the evaluation-count gate -------------------------------
    assert report.stable and not report.budget_exhausted
    assert report.savings >= MIN_SAVINGS, (
        f"adaptive driver spent {report.total_evaluations} evaluations "
        f"on a {report.grid_points}-point grid "
        f"({report.savings:.1f}x < {MIN_SAVINGS}x)"
    )
    # The per-pass counters must prove the savings, not just assert
    # them: every evaluation is attributed to exactly one pass and the
    # zoom passes actually reused coarse-pass sub-results.
    assert report.total_evaluations == sum(
        record.evaluated for record in report.passes
    )
    assert report.passes[-1].cumulative_evaluations == (
        report.total_evaluations
    )
    assert sum(record.cache_hits for record in report.passes[1:]) > 0


def _best_of(run, repeats):
    """Best wall time of ``repeats`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _exhaustive_answer(grid):
    frame = run_gps_sweep(grid).frame
    return frame, global_front_mask(frame)


def test_adaptive_beats_exhaustive_on_the_clock():
    assert len(CLOCK_GRID) >= CLOCK_GRID_POINTS
    exhaustive_s, (frame, mask) = _best_of(
        lambda: _exhaustive_answer(CLOCK_GRID), CLOCK_REPEATS
    )
    adaptive_s, report = _best_of(
        lambda: run_adaptive_gps_sweep(CLOCK_GRID), CLOCK_REPEATS
    )

    # -- frame and front bytes first ----------------------------------
    sub = _restricted(frame, report)
    assert report.frame.csv_lines() == sub.csv_lines()
    adaptive_front = report.front_frame().csv_lines()
    assert adaptive_front == sub.filter(global_front_mask(sub)).csv_lines()
    assert set(adaptive_front) <= set(frame.filter(mask).csv_lines())

    # -- then the clock -----------------------------------------------
    speedup = exhaustive_s / adaptive_s
    print(
        f"\n{len(CLOCK_GRID)}-point grid: exhaustive + front "
        f"{exhaustive_s * 1e3:.1f} ms, adaptive {adaptive_s * 1e3:.1f} ms "
        f"({report.total_evaluations} cells), {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"adaptive took {adaptive_s * 1e3:.1f} ms against "
        f"{exhaustive_s * 1e3:.1f} ms exhaustive + front "
        f"({speedup:.2f}x < {MIN_SPEEDUP}x)"
    )
