"""Stores written by an older release are refused; today's are pinned.

``legacy_blobs/`` holds a warehouse, a spilled chunk store and two
shard artifacts in older formats.  The warehouse and the store were
written by commit ``6387989``, whose blobs were ``json.dumps`` lines
(default separators, insertion key order) named by the digest of the
payload's canonical JSON, with numeric columns as JSON number lists::

    repro-gps warehouse build warehouse \\
        --volumes 1e3,1e4 --tolerances paper,precision
    repro-gps sweep --volumes 1e3,1e4 --tolerances paper,precision \\
        --max-rows-in-memory 8 --spill-dir store --csv > store.csv

The shard artifacts (format ``repro-sweep-shard/2``, numeric columns as
JSON number lists) were written by commit ``283add2``::

    repro-gps sweep --volumes 1e3,1e4 --tolerances paper,precision \\
        --shards 2 --shard-index I --shard-dir shards    # I = 0, 1

``answers.json`` is what the fixture's warehouse answered to
:data:`ASKS` before numeric columns were packed.

Every one of those files is refused at its format tag: through the CLI
as exit 2 with one stderr line that names the re-run.  The same
commands run today give the same CSV and the same answers to every
query kind; only the blob names and digests differ, and those are
pinned in ``blob_names_golden.json``.  After an intended format change,
regenerate that golden with::

    PYTHONPATH=src python tests/core/test_legacy_blobs.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.queryservice import QueryService, response_bytes

HERE = Path(__file__).parent
LEGACY = HERE / "legacy_blobs"
GOLDEN = HERE / "blob_names_golden.json"

GRID = ["--volumes", "1e3,1e4", "--tolerances", "paper,precision"]
SPILL = ["--max-rows-in-memory", "8", "--spill-dir"]

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


def _build(root: Path) -> None:
    """The fixture's warehouse and store commands, run today, into
    ``root`` (the CSV goes nowhere)."""
    assert main(["warehouse", "build", str(root / "warehouse"), *GRID]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", *GRID, *SPILL, str(root / "store"), "--csv"]) == 0


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    """The fixture's warehouse command, run by the current code."""
    root = tmp_path_factory.mktemp("rebuilt")
    assert main(["warehouse", "build", str(root / "warehouse"), *GRID]) == 0
    return root


def _blobs(directory: Path) -> list[Path]:
    return sorted(directory.glob("frame-*.json")) + sorted(
        directory.glob("chunk-*.json")
    )


def _snapshot(directory: Path, manifest: str) -> dict:
    """A container's blob names and its manifest, as the golden holds
    them."""
    return {
        "blobs": [path.name for path in _blobs(directory)],
        "manifest": json.loads((directory / manifest).read_bytes()),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _renamed(legacy: dict, current: dict, section: str) -> dict:
    """``legacy`` (a manifest) with ``current``'s format tag and blob
    names and digests: the declared format change, and nothing else."""
    expected = json.loads(json.dumps(legacy))
    expected["format"] = current["format"]
    for old, new in zip(expected[section], current[section]):
        old.update(file=new["file"], digest=new["digest"])
    return expected


def _refusal(argv: list[str], capsys) -> str:
    """The one stderr line of ``argv``, which must exit 2."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return lines[0]


@pytest.mark.parametrize("container", ["warehouse", "store"])
def test_fixture_blobs_are_legacy(container):
    blobs = _blobs(LEGACY / container)
    assert blobs
    for blob in blobs:
        digest = blob.stem.rpartition("-")[2]
        data = blob.read_bytes()
        assert hashlib.sha256(data[:-1]).hexdigest()[:16] != digest


def test_same_names_and_manifest(rebuilt):
    """Today's warehouse has the golden's blob names and manifest, which
    differ from the legacy one only in the format tag and the frame
    names and digests."""
    current = _snapshot(rebuilt / "warehouse", "warehouse.json")
    assert current == _golden()["warehouse"]
    legacy = json.loads((LEGACY / "warehouse" / "warehouse.json").read_bytes())
    assert current["manifest"] == _renamed(
        legacy, current["manifest"], "frames"
    )


@pytest.mark.parametrize(
    "ask", ASKS, ids=[f"{i}-{ask['kind']}" for i, ask in enumerate(ASKS)]
)
def test_every_query_kind_answers_the_same_bytes(rebuilt, ask):
    """Today's warehouse answers what the legacy one answered; the
    manifest answer differs only in the frame names and digests."""
    expected = json.loads((LEGACY / "answers.json").read_bytes())[
        ASKS.index(ask)
    ].encode("utf-8")
    answer = response_bytes(QueryService(rebuilt / "warehouse").execute(ask))
    if ask["kind"] == "manifest":
        frames = _golden()["warehouse"]["manifest"]["frames"]
        legacy = json.loads((LEGACY / "warehouse" / "warehouse.json").read_bytes())
        for old, new in zip(legacy["frames"], frames):
            expected = expected.replace(
                old["digest"].encode(), new["digest"].encode()
            )
    assert answer == expected


def test_store_csv_names_and_manifest(tmp_path, capsys):
    """Spilling today gives the legacy CSV and the golden's chunk names
    and manifest; reusing the legacy store is refused."""
    capsys.readouterr()
    assert main([
        "sweep", *GRID, *SPILL, str(tmp_path / "store"), "--csv"
    ]) == 0
    current_csv = capsys.readouterr().out
    assert current_csv == (LEGACY / "store.csv").read_text(encoding="utf-8")
    current = _snapshot(tmp_path / "store", "framestore.json")
    assert current == _golden()["store"]
    legacy_manifest = json.loads(
        (LEGACY / "store" / "framestore.json").read_bytes()
    )
    assert current["manifest"] == _renamed(
        legacy_manifest, current["manifest"], "chunks"
    )
    # A copy, so the reuse path never writes into the fixture.
    legacy = tmp_path / "legacy"
    shutil.copytree(LEGACY / "store", legacy)
    line = _refusal(["sweep", *GRID, *SPILL, str(legacy), "--csv"], capsys)
    assert "unsupported frame store format 'repro-framestore/1'" in line
    assert "re-run the sweep" in line


@pytest.mark.parametrize("ask", ["manifest", "pareto", "winners"])
def test_legacy_warehouse_query_is_refused(ask, capsys):
    line = _refusal(
        ["warehouse", "query", str(LEGACY / "warehouse"), "--kind", ask],
        capsys,
    )
    assert "unsupported warehouse manifest format 'repro-warehouse/1'" in line
    assert "rebuild the warehouse" in line


def test_legacy_shard_merge_is_refused(capsys):
    line = _refusal(["sweep", "--merge", str(LEGACY / "shards")], capsys)
    assert "unsupported shard artifact format 'repro-sweep-shard/2'" in line
    assert "re-run the shard" in line


def test_legacy_shard_merge_spill_is_refused(tmp_path, capsys):
    line = _refusal(
        [
            "sweep", "--merge", str(LEGACY / "shards"), "--csv",
            *SPILL, str(tmp_path / "store"),
        ],
        capsys,
    )
    assert "unsupported shard artifact format 'repro-sweep-shard/2'" in line
    assert "re-run the shard" in line


def test_legacy_shards_are_refused_by_ingest(tmp_path, capsys):
    line = _refusal(
        [
            "warehouse", "build", str(tmp_path / "wh"),
            "--from-shards", str(LEGACY / "shards"),
        ],
        capsys,
    )
    assert "re-run the shard" in line
    assert not (tmp_path / "wh" / "warehouse.json").exists()


def _write_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        _build(root)
        golden = {
            "warehouse": _snapshot(root / "warehouse", "warehouse.json"),
            "store": _snapshot(root / "store", "framestore.json"),
        }
    GOLDEN.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_legacy_blobs.py --write")
    _write_golden()
