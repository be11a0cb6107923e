"""CI gate: the adaptive CLI front is the exhaustive front, fewer evals.

The ``tier1-adaptive`` job runs this script (with ``PYTHONPATH=src``).
It drives the walkthrough from docs/sweep-guide.md end to end through
the ``repro-gps`` CLI — a dense-volume GPS sweep run twice, once
exhaustively and once with ``--adaptive`` — then byte-compares the
outputs:

* every adaptive CSV row must appear **verbatim** in the exhaustive
  CSV, in canonical grid order (the adaptive frame is a strict
  restriction of the exhaustive frame, never a re-computation);
* the global Pareto front of the adaptive CSV must be byte-identical
  to the front of the exhaustive CSV restricted to the same rows, and
  a subset of the full exhaustive front;
* the adaptive run must actually have skipped work: its row count
  strictly below the exhaustive row count, with the summary on stderr
  reporting a stable front.

Any deviation — a re-evaluated value drifting by one ULP, a front
member lost to under-refinement, a driver that silently degenerates to
the full grid — fails the job.
"""

from __future__ import annotations

import csv
import io
import subprocess
import sys

import numpy as np

from repro.core.pareto import nondominated_mask

VOLUMES = ",".join(repr(float(v)) for v in np.geomspace(1e2, 1e7, 128))


def run_sweep(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "sweep",
            "--volumes",
            VOLUMES,
            "--csv",
            *extra,
        ],
        capture_output=True,
        text=True,
        check=True,
    )


def front_lines(csv_text: str) -> list[str]:
    """The global-Pareto-front rows of a sweep CSV, original bytes."""
    header, *lines = csv_text.splitlines()
    columns = next(csv.reader([header]))
    picks = [columns.index(n) for n in ("performance", "area_percent", "cost_percent")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    perf, size, cost = (
        np.array([float(row[i]) for row in rows]) for i in picks
    )
    mask = nondominated_mask(perf, size, cost)
    return [line for line, keep in zip(lines, mask) if keep]


def is_subsequence(needle: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(line in it for line in needle)


def main() -> int:
    exhaustive = run_sweep()
    adaptive = run_sweep("--adaptive")

    exhaustive_lines = exhaustive.stdout.splitlines()
    adaptive_lines = adaptive.stdout.splitlines()
    failures = []

    if adaptive_lines[0] != exhaustive_lines[0]:
        failures.append("CSV headers differ")
    # Restriction, byte for byte and in canonical order: filtering the
    # exhaustive CSV to the adaptive rows must reproduce the adaptive
    # CSV exactly.
    evaluated = set(adaptive_lines[1:])
    restricted = [line for line in exhaustive_lines[1:] if line in evaluated]
    if restricted != adaptive_lines[1:]:
        failures.append(
            "adaptive CSV is not the canonical restriction of the "
            "exhaustive CSV"
        )

    restricted_front = front_lines(
        "\n".join([exhaustive_lines[0], *restricted])
    )
    adaptive_front = front_lines(adaptive.stdout)
    if adaptive_front != restricted_front:
        failures.append("adaptive front differs from the restricted front")
    full_front = front_lines(exhaustive.stdout)
    missing = set(adaptive_front) - set(full_front)
    if missing:
        failures.append(
            f"{len(missing)} adaptive front rows absent from the "
            "exhaustive front"
        )

    if len(adaptive_lines) >= len(exhaustive_lines):
        failures.append("adaptive run evaluated the whole grid")
    if "stable front" not in adaptive.stderr:
        failures.append("adaptive summary does not report a stable front")

    print(
        f"adaptive CLI: {len(adaptive_lines) - 1} of "
        f"{len(exhaustive_lines) - 1} exhaustive rows evaluated, "
        f"front {len(adaptive_front)} rows "
        f"(full front {len(full_front)} rows)"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("adaptive check: adaptive front bytes == exhaustive front bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
