"""The CLI's flag table: complete, documented, and fuzzed.

:data:`repro.cli.MODE_TABLES` is the one place that says which flags a
run mode of ``sweep``, ``gather`` and ``warehouse build`` takes.  These
tests check that every flag is accounted for in every mode, that the
mode x flag table in ``docs/sweep-guide.md`` is the one the code
enforces, and that no argv drawn from the table's flag space — with
random values and a random ``$REPRO_SWEEP_MAX_ROWS`` — ends in a
traceback.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import MODE_TABLES, build_parser
from test_cli_usage import build_fixture, run_case

GUIDE = Path(__file__).resolve().parents[1] / "docs" / "sweep-guide.md"

#: A minimal argv per command, and the namespace entries that are not
#: option flags.
COMMANDS = {
    "sweep": ["sweep"],
    "gather": ["gather", "shards"],
    "warehouse build": ["warehouse", "build", "wh"],
}
NOT_FLAGS = {"command", "func", "directory", "warehouse_command"}


def options(command: str) -> list:
    """The command's option dests, in parser order."""
    namespace = build_parser().parse_args(COMMANDS[command])
    return [name for name in vars(namespace) if name not in NOT_FLAGS]


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def cell(mode, earlier, name: str, names: list) -> str:
    """What ``mode`` does with flag ``name``, as the guide prints it:
    ``—`` when the flag selects an earlier mode, else ``yes``, ``no``
    or what it needs (a need that is not a flag is the row budget)."""
    if any(other.selector == name for other in earlier):
        return "—"
    for rule in mode.rules:
        if name not in rule.flags:
            continue
        if not rule.needs:
            return "no"
        if mode.selector in rule.needs:
            return "yes"
        usable = [
            need
            for need in rule.needs
            if need in mode.accepts or need not in names
        ]
        if not usable:
            return "no"
        return "needs " + " or ".join(
            f"`{flag(need)}`" if need in names else "a row budget"
            for need in usable
        )
    return "yes"


def render(command: str) -> str:
    """The mode x flag table of ``command`` as a markdown table."""
    modes = MODE_TABLES[command]
    header = [
        f"`{mode.name}`" if mode.selector else mode.name for mode in modes
    ]
    lines = [
        "| flag | " + " | ".join(header) + " |",
        "|---" * (len(modes) + 1) + "|",
    ]
    names = options(command)
    for name in names:
        cells = [
            cell(mode, modes[:position], name, names)
            for position, mode in enumerate(modes)
        ]
        lines.append(f"| `{flag(name)}` | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", sorted(MODE_TABLES))
def test_every_flag_is_accounted_for_in_every_mode(command):
    """A mode accepts a flag, refuses it, requires something for it,
    or never sees it (the flag selects an earlier mode)."""
    names = set(options(command))
    modes = MODE_TABLES[command]
    assert modes[-1].selector is None
    for position, mode in enumerate(modes):
        ruled = {name for rule in mode.rules for name in rule.flags}
        refused = {
            name for rule in mode.rules if not rule.needs
            for name in rule.flags
        }
        earlier = {other.selector for other in modes[:position]}
        assert mode.accepts | ruled | earlier == names, mode.name
        assert not mode.accepts & refused, mode.name
        assert mode.selector is None or mode.selector in mode.accepts


@pytest.mark.parametrize("command", sorted(MODE_TABLES))
def test_guide_prints_the_enforced_table(command):
    assert render(command) in GUIDE.read_text(encoding="utf-8"), (
        f"docs/sweep-guide.md lacks the current `{command}` table:\n"
        + render(command)
    )


#: Candidate tokens per option dest: valid ones on 1-volume grids and
#: relative paths inside the fixture, plus bad ones.  ``None`` marks a
#: switch.
VALUES = {
    "volumes": ["1e3", "2000", "0", "x"],
    "substrates": ["fine", "paper", "bogus"],
    "processes": ["nicr", "paper"],
    "tolerances": ["precision", "paper"],
    "q_models": ["skin", "tan=0.01", "tan=-1"],
    "nres": ["lean", "paper"],
    "fom_weights": ["1:1:1", "1:1000:1", "1:2"],
    "csv": None,
    "shards": ["1", "2", "0", "x"],
    "shard_index": ["0", "1", "-1"],
    "shard_dir": ["out", "shards"],
    "resume": None,
    "merge": ["shards", "missing", "q"],
    "queue_init": ["q2/manifest.json", "shards/manifest.json"],
    "queue": ["q/manifest.json", "missing.json"],
    "lease_ttl": ["5", "0", "nan"],
    "max_attempts": ["2", "0"],
    "cache_stats": None,
    "max_rows_in_memory": ["4", "1", "0", "x"],
    "spill_dir": ["spill", "shards"],
    "adaptive": None,
    "passes": ["1", "2", "0"],
    "budget": ["1", "3", "0"],
    "refine_margin": ["0.1", "-1", "inf"],
    "coarse": ["2", "1"],
    "watch": None,
    "poll": ["0.01", "0"],
    "timeout": ["0.05", "-1"],
    "manifest": ["q/manifest.json", "nope.json"],
    "from_shards": ["shards", "missing", "q"],
}


def test_fuzz_values_cover_the_flag_space():
    assert {
        name for command in MODE_TABLES for name in options(command)
    } == set(VALUES)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(MODE_TABLES)))
    names = draw(
        st.lists(st.sampled_from(options(command)), unique=True, max_size=5)
    )
    argv = list(COMMANDS[command])
    for name in names:
        argv.append(flag(name))
        if VALUES[name] is not None:
            argv.append(draw(st.sampled_from(VALUES[name])))
    env = draw(st.sampled_from([None, "", "4", "0", "x"]))
    return command, argv, env


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    fixture = tmp_path_factory.mktemp("fuzz") / "fixture"
    build_fixture(fixture)
    return fixture


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=argvs())
def test_any_argv_answers_or_refuses_in_one_line(case, fixture_dir):
    """Every argv exits 0, 1 or 2 without a traceback; a refusal's last
    stderr line names the command it refuses."""
    command, argv, env = case
    record = run_case(fixture_dir, argv, env)
    assert record["exit"] in (0, 1, 2), record
    assert "Traceback" not in record["stderr"], record
    if record["exit"]:
        last = record["stderr"].rstrip("\n").rsplit("\n", 1)[-1]
        assert last.startswith(f"repro-gps {command.split()[0]}"), record
