"""Cold-start guard: scipy stays off the ``repro-gps`` import path.

``scipy.signal`` alone costs most of a second to import, and only two
functions need scipy at all: ``elliptic_attenuation_db`` (the elliptic
reference response) and ``calibrate_chip_costs`` (``least_squares``).
Both import it inside the function.  These tests run each scenario in
a fresh interpreter, because the test process itself may already have
loaded scipy, and fail if any module named ``scipy`` or ``scipy.*``
appears where it should not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.circuits.approximation import elliptic_attenuation_db

SRC = Path(repro.__file__).resolve().parents[1]

#: Prepended to every probe: ``scipy_loaded()`` lists the scipy modules
#: in ``sys.modules``; ``quiet(argv)`` runs the CLI with stdout muted and
#: returns its exit code.
PRELUDE = """
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    )

def quiet(argv):
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
"""


def run_cold(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_importing_the_package_and_cli_loads_no_scipy():
    seen = run_cold(
        """
        import repro
        after_package = scipy_loaded()
        import repro.cli
        print(json.dumps({"repro": after_package, "repro.cli": scipy_loaded()}))
        """
    )
    assert seen == {"repro": [], "repro.cli": []}


def test_everyday_commands_load_no_scipy():
    seen = run_cold(
        """
        seen = {}
        for argv in (
            ["sweep", "--volumes", "1e3,1e4", "--csv"],
            ["study"],
            ["compare"],
            ["flow", "3"],
        ):
            code = quiet(argv)
            seen[" ".join(argv)] = [code, scipy_loaded()]
        print(json.dumps(seen))
        """
    )
    assert seen == {
        "sweep --volumes 1e3,1e4 --csv": [0, []],
        "study": [0, []],
        "compare": [0, []],
        "flow 3": [0, []],
    }


@pytest.mark.parametrize("discount", ["2", "nan", "0"])
def test_rejected_calibrate_never_imports_the_optimiser(discount):
    seen = run_cold(
        f"""
        code = quiet(["calibrate", "--bare-discount", {discount!r}])
        print(json.dumps({{"code": code, "scipy": scipy_loaded()}}))
        """
    )
    assert seen == {"code": 2, "scipy": []}


def test_elliptic_reference_imports_scipy_signal_on_first_call():
    seen = run_cold(
        """
        from repro.circuits.approximation import elliptic_attenuation_db
        before = scipy_loaded()
        attenuation = elliptic_attenuation_db(3, 0.5, 40.0, 2.0)
        print(json.dumps({
            "before": before,
            "attenuation": attenuation,
            "signal": "scipy.signal" in sys.modules,
        }))
        """
    )
    assert seen["before"] == []
    assert seen["signal"]
    assert seen["attenuation"] == elliptic_attenuation_db(3, 0.5, 40.0, 2.0)


def test_calibration_imports_the_optimiser_on_first_call():
    seen = run_cold(
        """
        from repro.cost.calibration import calibrate_chip_costs
        before = scipy_loaded()
        result = calibrate_chip_costs()
        print(json.dumps({
            "before": before,
            "ordering": bool(result.ordering_preserved),
            "optimize": "scipy.optimize" in sys.modules,
            "signal": "scipy.signal" in sys.modules,
        }))
        """
    )
    assert seen == {
        "before": [],
        "ordering": True,
        "optimize": True,
        "signal": False,
    }
