"""Speed gate: the sharded engine must cost ≤ 10 % over serial.

The in-process ``ShardedExecutor`` (``tests/sharded_reference.py``)
cuts the grid into the same contiguous runs the cross-host flow
distributes, but drives them through the serial fill
(``evaluate_cells``) against the caller's *shared* cache — so memoisation still spans shard boundaries
and the only added work is partition bookkeeping.  This benchmark pins
that claim on the small GPS grid: identical rows, and wall-clock
within 10 % of the serial engine (best-of-5 timing, the two engines
alternating per repeat so a noisy burst on a shared host slows both,
keeps CI noise out of the signal; a small absolute allowance covers
timer resolution on sub-millisecond deltas).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.core.figure_of_merit import FomWeights
from repro.core.sweep import EvaluationCache, SweepGrid, evaluate_cells
from repro.gps.study import sweep_candidates

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from sharded_reference import ShardedExecutor  # noqa: E402

GRID = SweepGrid(volumes=(1_000.0, 10_000.0, 100_000.0))
POINTS = GRID.points()

#: The acceptance criterion: sharded overhead vs serial.
MAX_OVERHEAD = 0.10
#: Absolute allowance for timer resolution (seconds).
TIMER_SLACK_S = 0.010


def _best_of_interleaved(*fns, repeats: int = 5) -> list[float]:
    """Minimum wall-clock of each function over ``repeats`` rounds, one
    run of each per round (noise-robust, and fair under drift)."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for slot, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[slot] = min(best[slot], time.perf_counter() - start)
    return best


def test_sharded_engine_overhead_and_identity():
    """≤ 10 % overhead on the small grid, rows byte-identical."""

    def serial():
        return evaluate_cells(
            POINTS, sweep_candidates, 0, FomWeights(), EvaluationCache()
        )

    def sharded():
        return ShardedExecutor(2).run_sweep(
            POINTS, sweep_candidates, 0, FomWeights(), EvaluationCache()
        )

    assert sharded().frame.to_rows() == serial().frame.to_rows()

    serial_s, sharded_s = _best_of_interleaved(serial, sharded)
    overhead = sharded_s / serial_s - 1.0
    print(
        f"\n3-volume GPS grid: serial {1e3 * serial_s:.1f} ms, "
        f"sharded(2) {1e3 * sharded_s:.1f} ms "
        f"-> overhead {100 * overhead:+.1f}%"
    )
    assert sharded_s <= serial_s * (1.0 + MAX_OVERHEAD) + TIMER_SLACK_S
