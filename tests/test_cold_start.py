"""Cold-start guard: a ``repro-gps`` command loads only what it runs.

``scipy.signal`` alone costs most of a second to import, and only two
functions need scipy at all: ``elliptic_attenuation_db`` (the elliptic
reference response) and ``calibrate_chip_costs`` (``least_squares``).
Both import it inside the function.  These tests run each scenario in
a fresh interpreter, because the test process itself may already have
loaded scipy, and fail if any module named ``scipy`` or ``scipy.*``
appears where it should not.

The same holds one level up: packages re-export lazily, so ``import
repro`` loads no subpackage, and the queue, gather, warehouse, query
service, adaptive driver, calibration, ``asyncio`` and ``http.server``
load only in the commands that use them.
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
from repro.cli import MAX_ROWS_ENV
from test_layering import DECISION_LAYER

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

def loaded(names):
    return sorted(name for name in names if name in sys.modules)

def quiet(argv):
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
"""


#: Modules only some commands need: none may load for ``import
#: repro.cli``, ``sweep --csv`` or ``study``.
COMMAND_ONLY = (
    "asyncio",
    "http.server",
    "repro.core.adaptive",
    "repro.core.framestore",
    "repro.core.gather",
    "repro.core.queryservice",
    "repro.core.queue",
    "repro.core.sharding",
    "repro.core.warehouse",
    "repro.cost.calibration",
)


def run_cold(body: str, cwd=None) -> dict:
    """Run ``body`` in a fresh interpreter; it prints one JSON object.

    The probes test the in-RAM command path, so a row budget set for
    the whole suite (``$REPRO_SWEEP_MAX_ROWS``) is not passed on.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(MAX_ROWS_ENV, None)
    completed = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
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


def test_importing_the_package_loads_no_subpackage():
    seen = run_cold(
        """
        import repro
        print(json.dumps(sorted(
            name for name in sys.modules if name.startswith("repro")
        )))
        """
    )
    assert seen == ["repro", "repro._lazy"]


#: Model packages the decision layer never calls.
MODEL_PACKAGES = ("area", "circuits", "cost", "passives", "gps")


@pytest.mark.parametrize(
    "module", [f"repro.core.{name}" for name in DECISION_LAYER]
)
def test_frame_kernels_load_no_model_package(module):
    """The decision layer (``tests/test_layering.py``) names model
    classes only in annotations and imports the engine only inside the
    producers that evaluate, so importing one of its modules loads no
    circuit, area, cost, passives or GPS module."""
    seen = run_cold(
        f"""
        import {module}
        print(json.dumps(sorted(
            name for name in sys.modules
            if name.startswith("repro.")
            and name.split(".")[1] in {MODEL_PACKAGES!r}
        )))
        """
    )
    assert seen == []


def test_sweep_and_study_load_no_command_only_module():
    seen = run_cold(
        f"""
        seen = {{}}
        import repro.cli
        seen["import repro.cli"] = loaded({COMMAND_ONLY!r})
        for argv in (
            ["sweep", "--volumes", "1e3,1e4,1e5", "--csv"],
            ["study"],
        ):
            code = quiet(argv)
            seen[" ".join(argv)] = [code, loaded({COMMAND_ONLY!r})]
        print(json.dumps(seen))
        """
    )
    assert seen == {
        "import repro.cli": [],
        "sweep --volumes 1e3,1e4,1e5 --csv": [0, []],
        "study": [0, []],
    }


#: Commands that need modules ``import repro.cli`` does not load, run in
#: order (each reads what the one before wrote), with the exact set of
#: command-only modules each loads.
SHARDS = ["repro.core.queue", "repro.core.sharding"]
SERVICE = [
    "http.server",
    "repro.core.queryservice",
    "repro.core.sharding",
    "repro.core.warehouse",
]
GRID = ["--volumes", "1e3,1e4"]
#: The evaluation engine and the model behind it: the commands that
#: only merge, gather, store or query frames load none of these.
ENGINE = (
    "repro.area.placement",
    "repro.circuits.mna",
    "repro.core.methodology",
    "repro.core.sweep",
    "repro.cost.moe.analytic",
    "repro.gps.study",
)
#: The commands below that evaluate nothing.
FRAME_ONLY = ("merge", "gather", "build", "serve", "query")
COMMANDS = (
    ("queue-init",
     ["sweep", *GRID, "--queue-init", "q/manifest.json", "--shards", "2"],
     SHARDS),
    ("queue", ["sweep", "--queue", "q/manifest.json"], SHARDS),
    ("merge", ["sweep", "--merge", "q", "--csv"], ["repro.core.sharding"]),
    ("gather", ["gather", "q", "--csv"], ["repro.core.gather", *SHARDS]),
    ("build", ["warehouse", "build", "wh", "--from-shards", "q"],
     ["repro.core.sharding", "repro.core.warehouse"]),
    ("serve", ["warehouse", "serve", "wh", "--port", "0"], SERVICE),
    ("query", ["warehouse", "query", "wh", "--kind", "winners"], SERVICE),
    ("adaptive", ["sweep", *GRID, "--adaptive", "--csv"],
     ["repro.core.adaptive"]),
)


def test_queue_and_warehouse_commands_load_what_they_run(tmp_path):
    """The per-command imports still happen: each command runs in its
    own interpreter, after ``import repro.cli``, and must load its own
    modules there (and never ``asyncio``), while the commands that
    evaluate nothing (:data:`FRAME_ONLY`) load no :data:`ENGINE`
    module.  ``warehouse serve`` binds a real server (on an ephemeral
    localhost port) whose loop is stopped at once."""
    seen = {}
    for label, argv, modules in COMMANDS:
        seen[label] = run_cold(
            f"""
            import socketserver

            def interrupted(self, *args, **kwargs):
                raise KeyboardInterrupt

            socketserver.BaseServer.serve_forever = interrupted
            import repro.cli
            before = loaded({COMMAND_ONLY!r})
            code = quiet({argv!r})
            print(json.dumps([
                code,
                before,
                loaded({COMMAND_ONLY!r}),
                loaded({ENGINE!r}) if {label!r} in {FRAME_ONLY!r} else [],
            ]))
            """,
            cwd=tmp_path,
        )
    assert seen == {
        label: [0, [], sorted(modules), []] for label, _, modules in COMMANDS
    }
