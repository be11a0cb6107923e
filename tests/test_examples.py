"""Every example script's printed output, locked byte for byte.

The examples are the executable half of the documentation, and what
they print is what a reader runs them for: ``decision_support.py``
prints the cost-driver ranking, ``gps_case_study.py`` the analytic and
Monte Carlo cost reports.  Each runs in a fresh interpreter, as a
reader would run it, and its stdout must equal its entry in
``examples_golden.json``.  ``q_model_comparison.py`` also quotes its
output in its docstring, and that quote must hold too.

Regenerate after an *intentional* change of what an example prints
with::

    PYTHONPATH=src python tests/test_examples.py --write
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"
GOLDEN = Path(__file__).with_name("examples_golden.json")

SCRIPTS = tuple(sorted(path.name for path in EXAMPLES.glob("*.py")))


def example_stdout(name: str) -> str:
    """What ``python examples/<name>`` prints, run in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def render_golden() -> str:
    payload = {name: example_stdout(name) for name in SCRIPTS}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_golden_lists_every_example():
    assert sorted(json.loads(GOLDEN.read_text())) == list(SCRIPTS)


@pytest.mark.parametrize("name", SCRIPTS)
def test_stdout_matches_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert example_stdout(name) == expected, (
        f"examples/{name} output drifted from {GOLDEN.name}.  If the "
        "change is intentional, regenerate with: PYTHONPATH=src python "
        "tests/test_examples.py --write"
    )


def test_documented_expected_output_holds():
    """``q_model_comparison.py`` quotes its output in its docstring."""
    name = "q_model_comparison.py"
    docstring = ast.get_docstring(
        ast.parse((EXAMPLES / name).read_text()), clean=False
    )
    marker = "Expected output (numbers are deterministic):\n\n"
    _, quoted = docstring.split(marker)
    expected = json.loads(GOLDEN.read_text())[name]
    assert textwrap.dedent(quoted) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_examples.py --write")
    GOLDEN.write_text(render_golden())
    print(f"wrote {GOLDEN}")
