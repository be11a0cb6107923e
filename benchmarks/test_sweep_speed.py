"""Speed benchmark: batched frequency sweep vs the per-frequency loop.

The vectorised MNA engine stamps a 201-point sweep as one ``(F, n, n)``
tensor and solves it with a single batched ``numpy.linalg.solve`` call;
the pre-vectorisation path stamps and solves point by point in Python.
This benchmark pins down both properties the refactor claims:

* **agreement** — the two paths produce the same S-parameters;
* **speed** — the batched path is at least 5x faster on a 6-node chain
  (in practice ~20x; the 5x floor keeps CI noise out of the signal).

A second benchmark times the design-space sweep subsystem and asserts
its sub-result memoisation actually shares work across grid points.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.netlist import Circuit
from repro.circuits.twoport import sweep, sweep_pointwise
from repro.core.sweep import SweepGrid
from repro.gps.study import run_gps_sweep

SWEEP_POINTS = 201
START_HZ = 50e6
STOP_HZ = 500e6


def six_node_chain() -> Circuit:
    """A 6-node RLC ladder (plus ports), the benchmark workload."""
    c = Circuit("bench-chain")
    c.resistor("R1", "in", "n1", 10.0)
    c.inductor("L1", "n1", "n2", 50e-9, series_resistance=0.5)
    c.capacitor("C1", "n2", "0", 20e-12)
    c.inductor("L2", "n2", "n3", 80e-9, series_resistance=0.8)
    c.capacitor("C2", "n3", "0", 10e-12)
    c.resistor("R2", "n3", "n4", 5.0)
    c.capacitor("C3", "n4", "out", 15e-12)
    c.inductor("L3", "out", "0", 30e-9, series_resistance=0.2)
    c.port("p1", "in", 50.0)
    c.port("p2", "out", 50.0)
    return c


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall-clock of ``repeats`` runs (noise-robust timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_sweep_agrees_with_pointwise():
    circuit = six_node_chain()
    batched = sweep(circuit, START_HZ, STOP_HZ, points=SWEEP_POINTS)
    loop = sweep_pointwise(circuit, START_HZ, STOP_HZ, points=SWEEP_POINTS)
    np.testing.assert_allclose(
        batched.s_matrices, loop.s_matrices, rtol=1e-12, atol=1e-15
    )


def test_batched_sweep_speedup():
    """Acceptance criterion: >= 5x on a 201-point sweep of a 6-node chain."""
    circuit = six_node_chain()

    def batched():
        sweep(circuit, START_HZ, STOP_HZ, points=SWEEP_POINTS)

    def pointwise():
        sweep_pointwise(circuit, START_HZ, STOP_HZ, points=SWEEP_POINTS)

    # Warm both paths (imports, allocator, BLAS thread pools).
    batched()
    pointwise()
    batched_s = _best_of(batched)
    pointwise_s = _best_of(pointwise)
    speedup = pointwise_s / batched_s
    print(
        f"\n201-point sweep, 6-node chain: batched {1e3 * batched_s:.2f} ms, "
        f"per-frequency loop {1e3 * pointwise_s:.2f} ms "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= 5.0


def test_batched_sweep_benchmark(benchmark):
    """pytest-benchmark timing of the batched hot path."""
    circuit = six_node_chain()
    result = benchmark(
        lambda: sweep(circuit, START_HZ, STOP_HZ, points=SWEEP_POINTS)
    )
    assert len(result.frequencies_hz) == SWEEP_POINTS


def test_design_sweep_memoization(benchmark):
    """A volume axis must not re-solve circuits or re-place substrates."""
    grid = SweepGrid(volumes=(1_000.0, 10_000.0, 100_000.0))
    report = benchmark(lambda: run_gps_sweep(grid))
    # Three volumes share performance and placement: after the first
    # point, both steps hit for all four candidates.  Only the cost
    # step (which genuinely depends on volume) re-evaluates.
    candidates = len(report.rows) // len(grid)
    expected_hits = (len(grid) - 1) * candidates * 2
    assert report.cache_stats["hits"] >= expected_hits
    winners = report.winner_counts()
    print(f"\nwinners across volume axis: {winners}")
    assert sum(winners.values()) == len(grid)
