"""Speed gate: the columnar ResultFrame path must be ≥ 5x the row path.

The PR that introduced :mod:`repro.core.resultframe` claims the
merge → Pareto → CSV pipeline of a large sweep runs at numpy speed
instead of per-object speed.  This benchmark pins that claim on a
≥ 10k-row synthetic sweep split into shard payloads:

* **row-object path** (the pre-frame implementation, reconstructed
  here): deserialise every row dict into a ``SweepRow``, merge the
  shards point-index-wise through a Python dict, run the pointwise
  O(n²) Pareto loop (``pareto_front``, ``tests/pareto_reference.py``),
  and format the CSV row by row through ``as_dict``.  The row path's Pareto scan grows
  quadratically while the frame path's exact sort-and-sweep is
  O(n log n); at this grid size (20k rows) the pipeline measures
  ~18x against the 5x gate, and the best-of-N timing keeps runner
  noise (which only ever *inflates* a best-of) from eating that
  margin;
* **frame path** (what the library actually does now): rebuild one
  ``ResultFrame`` per shard from the columnar payload, concatenate and
  stable-sort into canonical order, take the vectorised
  ``pareto_mask`` and format the CSV column-at-a-time.

Both paths must produce byte-identical CSV text and the identical
Pareto verdict; the frame path must be at least ``MIN_SPEEDUP`` times
faster end to end.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.pareto import ParetoPoint
from repro.core.resultframe import COLUMN_ORDER, ResultFrame, SweepRow

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from pareto_reference import pareto_front  # noqa: E402

#: The acceptance criterion: columnar vs row-object speedup.
MIN_SPEEDUP = 5.0

N_POINTS = 5_000
CANDIDATES = ("PCB/SMD", "MCM-D/WB", "MCM-D/IP", "MCM-D/IP&SMD")
N_ROWS = N_POINTS * len(CANDIDATES)
N_SHARDS = 8


def _synthetic_shards():
    """A 10k-row sweep as shard payloads, in both serialisations.

    Objectives carry a genuine performance/size/cost trade-off (plus
    noise), so the global Pareto front has realistic breadth — the
    regime the row path's per-point scan is slowest in.
    """
    rng = np.random.default_rng(20260728)
    volumes = np.repeat(
        np.geomspace(1e2, 1e7, N_POINTS), len(CANDIDATES)
    )
    candidates = np.tile(np.array(CANDIDATES, dtype=object), N_POINTS)
    performance = rng.uniform(0.4, 1.0, N_ROWS)
    # Better performance costs area and money, imperfectly.
    area = 100.0 * (1.6 - performance) + rng.normal(0.0, 6.0, N_ROWS)
    cost = 100.0 * (0.4 + performance) + rng.normal(0.0, 6.0, N_ROWS)
    fom = performance * (100.0 / area) * (100.0 / cost)
    is_winner = np.zeros(N_ROWS, dtype=bool)
    is_winner[
        fom.reshape(N_POINTS, len(CANDIDATES)).argmax(axis=1)
        + np.arange(N_POINTS) * len(CANDIDATES)
    ] = True

    frame = ResultFrame.from_columns(
        {
            "volume": volumes,
            "substrate": np.full(N_ROWS, "paper", dtype=object),
            "process": np.full(N_ROWS, "paper", dtype=object),
            "tolerance": np.full(N_ROWS, "paper", dtype=object),
            "q_model": np.full(N_ROWS, "paper", dtype=object),
            "nre": np.full(N_ROWS, "paper", dtype=object),
            "weights": np.full(N_ROWS, "paper", dtype=object),
            "candidate": candidates,
            "performance": performance,
            "area_percent": area,
            "cost_percent": cost,
            "figure_of_merit": fom,
            "is_winner": is_winner,
            "on_pareto_front": np.zeros(N_ROWS, dtype=bool),
        }
    )
    rows = frame.to_rows()

    columnar_shards = []
    row_shards = []
    per_shard = N_POINTS // N_SHARDS
    for shard in range(N_SHARDS):
        start_point = shard * per_shard
        stop_point = (
            N_POINTS if shard == N_SHARDS - 1 else start_point + per_shard
        )
        indices = list(range(start_point, stop_point))
        lo = start_point * len(CANDIDATES)
        hi = stop_point * len(CANDIDATES)
        columnar_shards.append(
            {
                "indices": indices,
                "row_counts": [len(CANDIDATES)] * len(indices),
                "columns": frame.take(range(lo, hi)).to_json_columns(),
            }
        )
        row_shards.append(
            {
                "cells": [
                    {
                        "index": point,
                        "rows": [
                            rows[point * len(CANDIDATES) + k].as_dict()
                            for k in range(len(CANDIDATES))
                        ],
                    }
                    for point in indices
                ],
            }
        )
    # Merge in arrival order != canonical order: both paths must sort.
    order = list(reversed(range(N_SHARDS)))
    return (
        [columnar_shards[i] for i in order],
        [row_shards[i] for i in order],
    )


def _row_object_pipeline(row_shards) -> tuple[str, list[bool]]:
    """Merge + Pareto + CSV exactly as the pre-frame code did it."""
    by_index: dict[int, list[SweepRow]] = {}
    for payload in row_shards:
        for cell in payload["cells"]:
            by_index[cell["index"]] = [
                SweepRow(**{name: record[name] for name in COLUMN_ORDER})
                for record in cell["rows"]
            ]
    rows: list[SweepRow] = []
    for index in range(N_POINTS):
        rows.extend(by_index[index])

    points = [
        ParetoPoint(
            name=str(i),
            performance=row.performance,
            size_ratio=row.area_percent,
            cost_ratio=row.cost_percent,
        )
        for i, row in enumerate(rows)
    ]
    front_ids = {
        id(point) for point in pareto_front(points).front
    }
    mask = [id(point) in front_ids for point in points]

    lines = [",".join(COLUMN_ORDER)]
    for row in rows:
        record = row.as_dict()
        lines.append(",".join(str(record[key]) for key in record))
    return "\n".join(lines), mask


def _frame_pipeline(columnar_shards) -> tuple[str, list[bool]]:
    """Merge + Pareto + CSV through the columnar spine."""
    frames = []
    point_of_row = []
    for payload in columnar_shards:
        frames.append(ResultFrame.from_json_columns(payload["columns"]))
        point_of_row.append(
            np.repeat(
                np.asarray(payload["indices"], dtype=np.int64),
                np.asarray(payload["row_counts"], dtype=np.int64),
            )
        )
    merged = ResultFrame.concat(frames)
    merged = merged.take(
        np.argsort(np.concatenate(point_of_row), kind="stable")
    )
    mask = merged.pareto_mask()
    text = "\n".join([merged.csv_header(), *merged.csv_lines()])
    return text, mask.tolist()


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_frame_pipeline_is_5x_the_row_object_pipeline():
    """≥ 5x on merge+Pareto+CSV of a 10k-row sweep, identical output."""
    columnar_shards, row_shards = _synthetic_shards()

    row_s, (row_text, row_mask) = _best_of(
        lambda: _row_object_pipeline(row_shards), repeats=2
    )
    frame_s, (frame_text, frame_mask) = _best_of(
        lambda: _frame_pipeline(columnar_shards), repeats=5
    )

    assert frame_text == row_text
    assert frame_mask == row_mask
    assert sum(frame_mask) >= 10  # the front is not degenerate

    speedup = row_s / frame_s
    print(
        f"\n{N_ROWS}-row merge+Pareto+CSV: row objects "
        f"{1e3 * row_s:.0f} ms, frame {1e3 * frame_s:.0f} ms "
        f"-> {speedup:.1f}x (gate {MIN_SPEEDUP}x)"
    )
    assert speedup >= MIN_SPEEDUP