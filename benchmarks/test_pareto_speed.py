"""Speed gate: the global Pareto mask must cost ≤ 10 % of its sweep.

:func:`~repro.core.adaptive.global_front_mask` ranks every row of a
sweep's frame against every other.  The baseline is the fastest
existing path that produces those rows — the batched serial
:func:`~repro.gps.study.run_gps_sweep` that built the frame — not a
slower dominance kernel kept alive for the comparison.  The grid is
the repository benchmark's ``grid-batch`` shape: 256 seeded
log-uniform volumes × 3 tolerance classes × 3 Q models, 2304 points
and 9216 rows, whose global front holds a quarter of the rows.

Identity comes first: the mask must equal the broadcast attribution
reference's verdict (``first_dominators(...) < 0``, from
``tests/pareto_reference.py``) before any timing is entertained.  Both timings are best-of-3 in the same process.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.circuits.qfactor import Q_MODEL_SCENARIOS
from repro.core.adaptive import global_front_mask
from repro.core.sweep import EvaluationCache, SweepGrid
from repro.gps.study import run_gps_sweep
from repro.passives.tolerance import TOLERANCE_CLASSES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from pareto_reference import first_dominators  # noqa: E402

#: The acceptance criterion: mask wall-clock as a share of the sweep.
MAX_SHARE = 0.10

N_VOLUMES = 256
SEED = 1


def _grid() -> SweepGrid:
    rng = np.random.default_rng(SEED)
    volumes: set = set()
    while len(volumes) < N_VOLUMES:
        volumes.update(
            (10.0 ** rng.uniform(2.0, 7.0, N_VOLUMES - len(volumes))).tolist()
        )
    return SweepGrid(
        volumes=tuple(sorted(volumes)),
        tolerances=tuple(TOLERANCE_CLASSES.values()),
        q_models=(
            None,
            Q_MODEL_SCENARIOS["skin"],
            Q_MODEL_SCENARIOS["substrate"],
        ),
    )


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    """Minimum wall-clock of ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_global_front_mask_costs_under_a_tenth_of_the_sweep():
    grid = _grid()
    sweep_s, report = _best_of(
        lambda: run_gps_sweep(grid, cache=EvaluationCache())
    )
    frame = report.frame
    assert len(frame) == 4 * len(grid.points())

    mask = global_front_mask(frame)
    reference = first_dominators(
        frame.column("performance"),
        frame.column("area_percent"),
        frame.column("cost_percent"),
    ) < 0
    assert np.array_equal(mask, reference)
    assert 0 < int(mask.sum()) < len(frame)

    mask_s, _ = _best_of(lambda: global_front_mask(frame))
    print(
        f"\n{len(grid.points())}-point grid ({len(frame)} rows, front "
        f"{int(mask.sum())}): sweep {1e3 * sweep_s:.1f} ms, global "
        f"front mask {1e3 * mask_s:.2f} ms "
        f"({100 * mask_s / sweep_s:.1f}% of the sweep)"
    )
    assert mask_s <= MAX_SHARE * sweep_s
