"""Self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py

Each workload runs for one pass through the real command; the printed
metrics must match ``BENCHMARK.json`` by name and unit with no failed
op.  A wrong reference digest must count as a failed op and make the
command exit 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> tuple:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return completed, json.loads(completed.stdout.splitlines()[-1])


def _assert_metrics(completed, result, expected) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in expected}
    for entry in expected:
        assert f"metric {entry['name']} " in completed.stdout
    assert "metric error_rate 0 ratio" in completed.stdout


@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in BENCHMARK["workloads"]]
)
def test_every_end_to_end_metric_is_printed(workload):
    completed, result = _run(workload, 0)
    _assert_metrics(completed, result, BENCHMARK["end_to_end"])
    for entry in BENCHMARK["end_to_end"]:
        assert result["metrics"][entry["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    completed, result = _run("grid-stream", 1)
    _assert_metrics(completed, result, BENCHMARK["per_layer"])
    metrics = result["metrics"]
    assert metrics["cost.walks"]["value"] > 0
    assert metrics["adaptive.evaluations"]["value"] > 0
    assert metrics["framestore.chunks_written"]["value"] == 4
    assert metrics["cli.import_ms"]["value"] > 0


def test_benchmark_json_matches_the_code():
    assert [
        {"name": name, "why": cls.why}
        for name, cls in workloads.WORKLOADS.items()
    ] == BENCHMARK["workloads"]
    assert [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _, _ in layertrace.LAYER_METRICS
    ] == BENCHMARK["per_layer"]


def test_wrong_reference_digest_is_a_failed_op(monkeypatch):
    prepare = workloads.GridStream.prepare

    def prepare_wrong(self):
        prepare(self)
        self.adaptive_reference = "0" * 64

    monkeypatch.setattr(workloads.GridStream, "prepare", prepare_wrong)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(
            ["--workload", "grid-stream", "--seed", "7", "--seconds", "0.01",
             "--trace", "0"]
        )
    result = json.loads(out.getvalue().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["attempted"] == 3 and result["failed"] == 1
