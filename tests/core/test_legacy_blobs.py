"""Stores written before blob bytes were canonical stay readable.

``legacy_blobs/`` was written by commit ``6387989``, whose blobs were
``json.dumps`` lines (default separators, insertion key order) named by
the digest of the payload's canonical JSON::

    repro-gps warehouse build warehouse \\
        --volumes 1e3,1e4 --tolerances paper,precision
    repro-gps sweep --volumes 1e3,1e4 --tolerances paper,precision \\
        --max-rows-in-memory 8 --spill-dir store --csv > store.csv

Every blob in it fails the raw hash and is read through the fallback.
The same commands run by the current code must give the same file
names and manifests, byte-identical answers to every query kind and
the same CSV.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.framestore import ChunkedFrameStore
from repro.core.queryservice import QueryService, response_bytes

LEGACY = Path(__file__).parent / "legacy_blobs"

GRID = ["--volumes", "1e3,1e4", "--tolerances", "paper,precision"]

ASKS = [
    {"kind": "manifest"},
    {"kind": "pareto"},
    {"kind": "pareto", "where": {"tolerance": "precision"}},
    {"kind": "rerank", "fom_weights": "2:1:0.5"},
    {"kind": "rerank", "fom_weights": [0, 1, 3], "where": {"volume": 1e4}},
    {"kind": "winners"},
    {"kind": "winners", "fom_weights": "1:3:1"},
    {"kind": "best"},
    {"kind": "best", "fom_weights": "0.5:0.5:2"},
    {
        "kind": "sensitivity",
        "axis": "volume",
        "where": {"tolerance": "precision"},
    },
    {"kind": "sensitivity", "axis": "tolerance", "where": {"volume": 1e3}},
]


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    """The fixture's commands, run by the current code."""
    root = tmp_path_factory.mktemp("rebuilt")
    assert main(["warehouse", "build", str(root / "warehouse"), *GRID]) == 0
    return root


def _blobs(directory: Path) -> list[Path]:
    return sorted(directory.glob("frame-*.json")) + sorted(
        directory.glob("chunk-*.json")
    )


@pytest.mark.parametrize("container", ["warehouse", "store"])
def test_fixture_blobs_are_legacy(container):
    blobs = _blobs(LEGACY / container)
    assert blobs
    for blob in blobs:
        digest = blob.stem.rpartition("-")[2]
        data = blob.read_bytes()
        assert hashlib.sha256(data[:-1]).hexdigest()[:16] != digest


def test_same_names_and_manifest(rebuilt):
    legacy, current = LEGACY / "warehouse", rebuilt / "warehouse"
    assert [p.name for p in _blobs(legacy)] == [
        p.name for p in _blobs(current)
    ]
    assert (legacy / "warehouse.json").read_bytes() == (
        current / "warehouse.json"
    ).read_bytes()


@pytest.mark.parametrize(
    "ask", ASKS, ids=[f"{i}-{ask['kind']}" for i, ask in enumerate(ASKS)]
)
def test_every_query_kind_answers_the_same_bytes(rebuilt, ask):
    legacy = QueryService(LEGACY / "warehouse").execute(ask)
    current = QueryService(rebuilt / "warehouse").execute(ask)
    assert response_bytes(legacy) == response_bytes(current)


def test_store_csv_names_and_manifest(tmp_path, capsys):
    # A copy, so the reuse path never writes into the fixture.
    legacy = tmp_path / "legacy"
    shutil.copytree(LEGACY / "store", legacy)
    spill = ["--max-rows-in-memory", "8", "--spill-dir"]
    capsys.readouterr()
    assert main([
        "sweep", *GRID, *spill, str(tmp_path / "store"), "--csv"
    ]) == 0
    current_csv = capsys.readouterr().out
    assert current_csv == (LEGACY / "store.csv").read_text(encoding="utf-8")
    current = tmp_path / "store"
    assert [p.name for p in _blobs(legacy)] == [
        p.name for p in _blobs(current)
    ]
    assert (legacy / "framestore.json").read_bytes() == (
        current / "framestore.json"
    ).read_bytes()
    assert list(ChunkedFrameStore.open(legacy).csv_lines()) == list(
        ChunkedFrameStore.open(current).csv_lines()
    )
    # The CLI re-reads an existing spill store instead of re-merging.
    assert main(["sweep", *GRID, *spill, str(legacy), "--csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out == current_csv
    assert "reusing spilled frame store" in captured.err
