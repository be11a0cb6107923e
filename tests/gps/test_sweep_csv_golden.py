"""The ``repro-gps sweep --csv`` bytes of a multi-family grid, pinned.

``sweep_csv_golden.json`` holds the sha256 (and the line count) of the
CSV that ``repro-gps sweep --csv`` prints for a grid of several volume
families ranked together: 3 tolerance classes x 3 Q models x a
2-value ``--fom-weights`` axis (one weight vector with exponents other
than 0 and 1) x 16 volumes, 288 points.  Any change to how a block of
families is assessed, ranked or rendered that moves one byte fails
here.

Regenerate only for an intended change of the CSV::

    PYTHONPATH=src python tests/gps/test_sweep_csv_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "goldens" / "sweep_csv_golden.json"

VOLUMES = ",".join(
    repr(volume)
    for volume in (
        100.0, 250.0, 600.0, 1000.0, 2500.0, 6000.0, 10000.0, 25000.0,
        60000.0, 100000.0, 250000.0, 600000.0, 1000000.0, 2500000.0,
        6000000.0, 10000000.0,
    )
)

ARGV = [
    "sweep",
    "--volumes", VOLUMES,
    "--tolerances", "uncritical,matching,precision",
    "--q-models", "paper,skin,substrate",
    "--fom-weights", "paper,2:0.5:1.5",
    "--csv",
]


def render() -> dict:
    """Digest of the CLI's stdout for :data:`ARGV`."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(ARGV) == 0
    text = out.getvalue()
    return {
        "argv": ARGV,
        "lines": text.count("\n"),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def test_multi_family_sweep_csv_matches_golden():
    expected = json.loads(GOLDEN_PATH.read_text())
    assert render() == expected


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN_PATH.write_text(json.dumps(render(), indent=2) + "\n")
        print(f"wrote {GOLDEN_PATH}")
