"""The ``repro-gps sweep --csv`` bytes of multi-family grids, pinned.

``sweep_csv_golden.json`` holds the sha256 (and the line count) of the
CSV that ``repro-gps sweep --csv`` prints for a grid of several volume
families ranked together: 3 tolerance classes x 3 Q models x a
2-value ``--fom-weights`` axis (one weight vector with exponents other
than 0 and 1) x 16 volumes, 288 points.
``sweep_csv_golden_large.json`` does the same at scale, over every
scenario axis at once: 256 volumes x 3 tolerance classes x 3 Q models
x 2 NRE scenarios x 8 weight vectors, 36864 points in 144 volume
families.  Any change to how a block of families is
assessed, ranked or rendered that moves one byte fails here.

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

GOLDENS = Path(__file__).parent / "goldens"
GOLDEN_PATH = GOLDENS / "sweep_csv_golden.json"
LARGE_GOLDEN_PATH = GOLDENS / "sweep_csv_golden_large.json"

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

#: 256 log-spaced volumes from 1e2 to 1e7, each ``repr`` ed.
LARGE_VOLUMES = ",".join(
    repr(10.0 ** (2.0 + 5.0 * step / 255)) for step in range(256)
)

LARGE_ARGV = [
    "sweep",
    "--volumes", LARGE_VOLUMES,
    "--tolerances", "uncritical,matching,precision",
    "--q-models", "paper,skin,substrate",
    "--nres", "paper,mask-heavy",
    "--fom-weights",
    "paper,2:0.5:1.5,1:1:0,0:1:1,1:0:1,1:2:1,0.5:1:2,3:1:1",
    "--csv",
]


def render(argv=ARGV) -> dict:
    """Digest of the CLI's stdout for ``argv``."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    text = out.getvalue()
    return {
        "argv": argv,
        "lines": text.count("\n"),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def test_multi_family_sweep_csv_matches_golden():
    expected = json.loads(GOLDEN_PATH.read_text())
    assert render() == expected


def test_large_multi_axis_sweep_csv_matches_golden():
    expected = json.loads(LARGE_GOLDEN_PATH.read_text())
    assert render(LARGE_ARGV) == expected


if __name__ == "__main__":
    if "--write" in sys.argv:
        for path, argv in (
            (GOLDEN_PATH, ARGV),
            (LARGE_GOLDEN_PATH, LARGE_ARGV),
        ):
            path.write_text(json.dumps(render(argv), indent=2) + "\n")
            print(f"wrote {path}")
