"""The CLI's usage contract, pinned by a golden of exit codes and stderr.

``cli_usage_golden.json`` records, for every argv below, the exit code
and the stderr bytes of ``repro-gps`` (plus stdout for ``--help``).
The argvs cover every run mode of ``sweep``, ``gather`` and
``warehouse build`` with one extra flag each, the same modes under
``$REPRO_SWEEP_MAX_ROWS``, the grid-axis refusal naming two axes, bad
values for every numeric flag, and asks that fail while running.
Each argv runs in a fresh copy of a small fixture directory (one shard
artifact of the default 1-volume grid, one queue manifest for it), so
every path is relative and the bytes are reproducible.

The golden was recorded before the flag table replaced the
hand-written checks; the argvs in :data:`NEWLY_REFUSED` exited 0 then
(the flag was silently ignored) and are refused now.  Regenerate only
for an intentional change of the usage contract::

    PYTHONPATH=src python tests/test_cli_usage.py --write
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_PATH = Path(__file__).parent / "cli_usage_golden.json"

ENV = "REPRO_SWEEP_MAX_ROWS"

#: The seven grid axes with a valid non-default value each.
GRID_FLAGS = {
    "--volumes": ["2000"],
    "--substrates": ["fine"],
    "--processes": ["nicr"],
    "--tolerances": ["precision"],
    "--q-models": ["skin"],
    "--nres": ["lean"],
    "--fom-weights": ["1:1:1"],
}

SWEEP_FLAGS = {
    **GRID_FLAGS,
    "--csv": [],
    "--shards": ["1"],
    "--shard-index": ["0"],
    "--shard-dir": ["out"],
    "--resume": [],
    "--merge": ["shards"],
    "--queue-init": ["q2/manifest.json"],
    "--queue": ["q/manifest.json"],
    "--lease-ttl": ["5"],
    "--max-attempts": ["2"],
    "--cache-stats": [],
    "--max-rows-in-memory": ["4"],
    "--spill-dir": ["spill"],
    "--adaptive": [],
    "--passes": ["2"],
    "--budget": ["3"],
    "--refine-margin": ["0.1"],
    "--coarse": ["2"],
}

GATHER_FLAGS = {
    "--watch": [],
    "--poll": ["0.01"],
    "--timeout": ["5"],
    "--manifest": ["q/manifest.json"],
    "--csv": [],
    "--cache-stats": [],
    "--max-rows-in-memory": ["4"],
    "--spill-dir": ["spill"],
}

BUILD_FLAGS = {**GRID_FLAGS, "--from-shards": ["shards"]}

#: Each run mode's base argv, per command.
MODES = {
    "sweep": (
        SWEEP_FLAGS,
        {
            "plain": ["sweep"],
            "adaptive": ["sweep", "--adaptive"],
            "shard": ["sweep", "--shards", "1", "--shard-index", "0"],
            "merge": ["sweep", "--merge", "shards"],
            "queue-init": [
                "sweep", "--queue-init", "q2/manifest.json", "--shards", "1",
            ],
            "queue": ["sweep", "--queue", "q/manifest.json"],
        },
    ),
    "gather": (
        GATHER_FLAGS,
        {
            "one-shot": ["gather", "shards"],
            "watch": ["gather", "shards", "--watch"],
        },
    ),
    "warehouse build": (
        BUILD_FLAGS,
        {
            "fresh": ["warehouse", "build", "wh"],
            "from-shards": [
                "warehouse", "build", "wh", "--from-shards", "shards",
            ],
        },
    ),
}

#: Numeric flags and the bad (or edge) values each must answer for.
NUMERIC_FLAGS = {
    ("sweep",): (
        "--shards", "--shard-index", "--lease-ttl", "--max-attempts",
        "--max-rows-in-memory", "--passes", "--budget", "--refine-margin",
        "--coarse",
    ),
    ("gather", "shards"): ("--poll", "--timeout", "--max-rows-in-memory"),
}
NUMERIC_VALUES = ("0", "-1", "1", "x", "nan", "inf", "1.5")

#: Asks that pass the flag checks and fail while running: missing or
#: empty directories, missing manifests, a file where a directory goes.
RUNTIME_FAILURES = (
    ["sweep", "--merge", "missing"],
    ["sweep", "--merge", "q"],
    ["sweep", "--merge", "q", "--max-rows-in-memory", "4"],
    ["sweep", "--merge", "q", "--max-rows-in-memory", "4",
     "--spill-dir", "spill"],
    ["sweep", "--queue", "missing.json"],
    ["sweep", "--max-rows-in-memory", "4", "--spill-dir",
     "q/manifest.json"],
    ["sweep", "--shards", "2", "--shard-index", "2"],
    ["sweep", "--shards", "1", "--shard-index", "0", "--shard-dir",
     "q/manifest.json"],
    ["gather", "missing"],
    ["gather", "q"],
    ["gather", "q", "--max-rows-in-memory", "4"],
    ["gather", "q", "--max-rows-in-memory", "4", "--spill-dir", "spill"],
    ["gather", "missing", "--max-rows-in-memory", "4", "--spill-dir",
     "spill"],
    ["gather", "shards", "--manifest", "missing.json"],
    ["gather", "shards", "--watch", "--manifest", "missing.json"],
    ["warehouse", "build", "wh", "--from-shards", "missing"],
    ["warehouse", "build", "q/manifest.json"],
    ["warehouse", "query", "missing", "--kind", "best"],
)

HELP_COMMANDS = (
    [], ["study"], ["flow"], ["compare"], ["calibrate"], ["sweep"],
    ["gather"], ["warehouse"], ["warehouse", "build"],
    ["warehouse", "serve"], ["warehouse", "query"],
)

#: Argvs that ran with a silently ignored flag before the flag table,
#: and the one-line refusal each gets now.
NEWLY_REFUSED = {
    "sweep --shard-dir out": (
        "--shard-dir names where a shard run writes its artifact; "
        "it needs --shard-index"
    ),
    "sweep --adaptive --shard-dir out": (
        "--shard-dir names where a shard run writes its artifact; "
        "it needs --shard-index"
    ),
    "sweep --merge shards --shard-dir out": (
        "--shard-dir names where a shard run writes its artifact; "
        "it needs --shard-index"
    ),
    "sweep --queue-init q2/manifest.json --shards 1 --shard-dir out": (
        "--shard-dir names where a shard run writes its artifact; "
        "it needs --shard-index"
    ),
    "sweep --queue q/manifest.json --shard-dir out": (
        "a queue worker publishes into its manifest's directory; "
        "drop --shard-dir"
    ),
    "sweep --queue-init q2/manifest.json --shards 1 --cache-stats": (
        "--queue-init evaluates nothing; --cache-stats applies where "
        "shards are evaluated"
    ),
    "sweep --queue q/manifest.json --cache-stats": (
        "a queue worker writes shard artifacts, not a report; gather "
        "the shard directory for --cache-stats"
    ),
}


def cases() -> list:
    """Every ``(argv, env)`` the golden covers, in a fixed order."""
    found = []

    def add(argv, env=None):
        if (argv, env) not in found:
            found.append((argv, env))

    for flags, bases in MODES.values():
        for base in bases.values():
            add(base)
            for flag, value in flags.items():
                if flag not in base:
                    add([*base, flag, *value])
            for env in ("4", "bad"):
                add(base, env)
            if "--spill-dir" in flags:
                for env in ("4", "", "bad"):
                    add([*base, "--spill-dir", "spill"], env)
    for base in (
        MODES["sweep"][1]["merge"],
        MODES["sweep"][1]["queue"],
        MODES["warehouse build"][1]["from-shards"],
    ):
        add([*base, "--volumes", "2000", "--nres", "lean"])
        add([*base, "--volumes", "1e4", "--nres", "paper"])
    for prefix, flags in NUMERIC_FLAGS.items():
        for flag in flags:
            for value in NUMERIC_VALUES:
                add([*prefix, flag, value])
    for argv in RUNTIME_FAILURES:
        add(list(argv))
    for command in HELP_COMMANDS:
        add([*command, "--help"])
    return found


def case_id(argv, env) -> str:
    """``argv`` joined by spaces, prefixed with the env when it is set."""
    text = " ".join(argv)
    return text if env is None else f"{ENV}={env!r} {text}"


def build_fixture(directory: Path) -> None:
    """One shard artifact and one queue manifest of the default grid."""
    directory.mkdir(parents=True)
    with _inside(directory, None):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            assert main(
                ["sweep", "--shards", "1", "--shard-index", "0",
                 "--shard-dir", "shards"]
            ) == 0
            assert main(
                ["sweep", "--queue-init", "q/manifest.json", "--shards", "1"]
            ) == 0


@contextmanager
def _inside(directory: Path, env):
    """Run with ``directory`` as cwd, a fixed width and ``env`` as the budget."""
    saved = {name: os.environ.get(name) for name in (ENV, "COLUMNS")}
    cwd = os.getcwd()
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    if env is None:
        os.environ.pop(ENV, None)
    else:
        os.environ[ENV] = env
    try:
        yield
    finally:
        os.chdir(cwd)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_case(fixture: Path, argv, env) -> dict:
    """Exit code and stderr (stdout too for ``--help``) of one argv."""
    work = fixture.parent / "run"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(fixture, work)
    out, err = io.StringIO(), io.StringIO()
    with _inside(work, env), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    shutil.rmtree(work)
    record = {
        "argv": list(argv),
        "env": env,
        "exit": code,
        "stderr": err.getvalue().replace(str(work), "<tmp>"),
    }
    if "--help" in argv:
        record["stdout"] = out.getvalue()
    return record


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        fixture = Path(scratch) / "fixture"
        build_fixture(fixture)
        records = [run_case(fixture, argv, env) for argv, env in cases()]
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")


def _golden() -> list:
    if not GOLDEN_PATH.exists():
        return []
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    fixture = tmp_path_factory.mktemp("usage") / "fixture"
    build_fixture(fixture)
    return fixture


def test_golden_covers_every_case():
    recorded = [(record["argv"], record["env"]) for record in _golden()]
    assert recorded == cases()


def test_newly_refused_argvs_ran_before():
    """The golden holds the old answer: each of these used to exit 0."""
    old = {
        case_id(record["argv"], record["env"]): record
        for record in _golden()
    }
    for key in NEWLY_REFUSED:
        assert old[key]["exit"] == 0, key


@pytest.mark.parametrize(
    "record",
    _golden(),
    ids=[case_id(record["argv"], record["env"]) for record in _golden()],
)
def test_usage_matches_golden(record, fixture_dir):
    actual = run_case(fixture_dir, record["argv"], record["env"])
    key = case_id(record["argv"], record["env"])
    if key in NEWLY_REFUSED:
        record = {
            **record,
            "exit": 2,
            "stderr": f"repro-gps sweep: error: {NEWLY_REFUSED[key]}\n",
        }
    assert actual == record


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_usage.py --write")
    write_golden()
    print(f"wrote {GOLDEN_PATH}")
