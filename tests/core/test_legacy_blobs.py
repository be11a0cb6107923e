"""Stores written by an older release are refused; today's are pinned.

``legacy_blobs/`` holds warehouses, spilled chunk stores and two shard
artifacts in older formats.  ``warehouse`` and ``store`` were written
by commit ``6387989``, whose blobs were ``json.dumps`` lines (default
separators, insertion key order) named by the digest of the payload's
canonical JSON, with numeric columns as JSON number lists::

    repro-gps warehouse build warehouse \\
        --volumes 1e3,1e4 --tolerances paper,precision
    repro-gps sweep --volumes 1e3,1e4 --tolerances paper,precision \\
        --max-rows-in-memory 8 --spill-dir store --csv > store.csv

The shard artifacts (format ``repro-sweep-shard/2``, numeric columns as
JSON number lists) were written by commit ``283add2``::

    repro-gps sweep --volumes 1e3,1e4 --tolerances paper,precision \\
        --shards 2 --shard-index I --shard-dir shards    # I = 0, 1

``warehouse2`` (format ``repro-warehouse/2``: frame entries list
every point index) and ``store2`` (``repro-framestore/2``: a chunk
store beside the warehouse) were written by the same two warehouse and
store commands at commit ``442df8e``, the last before a spill directory
became a warehouse.

``answers.json`` is what the fixture's warehouse answered to
:data:`ASKS` before numeric columns were packed.

Every one of those files is refused at its format tag: through the CLI
as exit 2 with one stderr line that names the re-run.  The same
commands run today give the same CSV and the same answers to every
query kind, and so does the spill directory the store command leaves;
only the blob names, digests and the manifest layout differ, and those
are pinned in ``blob_names_golden.json``.  After an intended format
change, regenerate that golden with::

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
from repro.core.warehouse import WarehouseError, index_runs

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


def _renamed(legacy: dict, current: dict) -> dict:
    """``legacy`` (a warehouse manifest) with ``current``'s format tag,
    blob names and digests, and its point indices as runs: the declared
    format changes, and nothing else."""
    expected = json.loads(json.dumps(legacy))
    expected["format"] = current["format"]
    for old, new in zip(expected["frames"], current["frames"]):
        old.update(file=new["file"], digest=new["digest"])
        old["runs"] = [list(run) for run in index_runs(old.pop("indices"))]
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
    assert current["manifest"] == _renamed(legacy, current["manifest"])
    for older in ("warehouse", "warehouse2"):
        legacy = json.loads((LEGACY / older / "warehouse.json").read_bytes())
        assert current["manifest"] == _renamed(legacy, current["manifest"])


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
    """Spilling today gives the legacy CSV and the golden's frame names
    and manifest, whose grid and cache statistics are the legacy
    store's; reusing the legacy store is refused."""
    capsys.readouterr()
    assert main([
        "sweep", *GRID, *SPILL, str(tmp_path / "store"), "--csv"
    ]) == 0
    current_csv = capsys.readouterr().out
    assert current_csv == (LEGACY / "store.csv").read_text(encoding="utf-8")
    current = _snapshot(tmp_path / "store", "warehouse.json")
    assert current == _golden()["store"]
    for older in ("store", "store2"):
        meta = json.loads(
            (LEGACY / older / "framestore.json").read_bytes()
        )["meta"]
        assert {
            key: current["manifest"][key]
            for key in ("fingerprint", "order_digest", "total_points")
        } == {key: meta[key] for key in ("fingerprint", "order_digest", "total_points")}
        assert current["manifest"]["meta"] == {"cache_stats": meta["cache_stats"]}
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


#: The containers of the last release, each refused with its re-run.
PREVIOUS = {
    "store2": (
        "unsupported frame store format 'repro-framestore/2'",
        "re-run the sweep",
    ),
    "warehouse2": (
        "unsupported warehouse manifest format 'repro-warehouse/2'",
        "rebuild the warehouse",
    ),
}


@pytest.mark.parametrize("older", sorted(PREVIOUS))
def test_previous_formats_are_refused(older, tmp_path, capsys):
    """``sweep --spill-dir``, ``warehouse query`` and the query service
    refuse the last release's store and warehouse in one line that
    names the re-run."""
    refusal, rerun = PREVIOUS[older]
    copy = tmp_path / older  # the reuse path never writes the fixture
    shutil.copytree(LEGACY / older, copy)
    for argv in (
        ["sweep", *GRID, *SPILL, str(copy), "--csv"],
        ["warehouse", "query", str(copy), "--kind", "pareto"],
        ["warehouse", "query", str(copy), "--kind", "manifest"],
    ):
        line = _refusal(argv, capsys)
        assert refusal in line and rerun in line, argv
    with pytest.raises(WarehouseError) as excinfo:
        QueryService(copy).execute({"kind": "winners"})
    assert refusal in str(excinfo.value) and rerun in str(excinfo.value)
    assert sorted(path.name for path in copy.iterdir()) == sorted(
        path.name for path in (LEGACY / older).iterdir()
    )


@pytest.mark.parametrize(
    "ask", ASKS, ids=[f"{i}-{ask['kind']}" for i, ask in enumerate(ASKS)]
)
def test_spill_directory_answers_like_the_warehouse(rebuilt, ask):
    """A spill directory is a warehouse: every query kind answers what
    the warehouse build of the same grid answers, but for the revision
    and, in the manifest answer, the frame list and the grid spec (a
    sweep records none)."""
    spilled = rebuilt / "store"
    if not spilled.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", *GRID, *SPILL, str(spilled), "--csv"]) == 0
    answers = [
        QueryService(directory).execute(ask)
        for directory in (spilled, rebuilt / "warehouse")
    ]
    for answer in answers:
        answer.pop("revision")
        if ask["kind"] == "manifest":
            answer.pop("frames"), answer.pop("grid_spec")
    assert response_bytes(answers[0]) == response_bytes(answers[1])


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
            "store": _snapshot(root / "store", "warehouse.json"),
        }
    GOLDEN.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_legacy_blobs.py --write")
    _write_golden()
