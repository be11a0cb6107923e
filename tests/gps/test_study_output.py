"""The study commands' printed report, locked byte for byte.

``goldens/gps_study.json`` pins the study's numbers; this file pins what
``repro-gps study``, ``study --volume 1234``, ``compare`` and
``calibrate`` print: the per-step cost report, the signal-chain text,
the rounding of every figure, the paper-vs-measured lines and the
fitted chip costs.  ``study_output_golden.json``
maps each argv (space-joined) to its exact stdout.

Regenerate after an *intentional* change of the printed report with::

    PYTHONPATH=src python tests/gps/test_study_output.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).with_name("study_output_golden.json")

#: The commands whose stdout the golden holds.
COMMANDS = (
    ("study",),
    ("study", "--volume", "1234"),
    ("compare",),
    ("calibrate",),
)


def command_stdout(argv: tuple[str, ...]) -> str:
    """What ``repro-gps <argv>`` prints, run in this interpreter."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def render_golden() -> str:
    payload = {" ".join(argv): command_stdout(argv) for argv in COMMANDS}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_golden(argv):
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert command_stdout(argv) == expected, (
        f"`repro-gps {' '.join(argv)}` output drifted from "
        f"{GOLDEN.name}.  If the change is intentional, regenerate "
        "with: PYTHONPATH=src python tests/gps/test_study_output.py "
        "--write"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_study_output.py --write")
    GOLDEN.write_text(render_golden())
    print(f"wrote {GOLDEN}")
