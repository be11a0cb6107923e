"""``tools/check_blob_names.py`` on a fresh warehouse and a spill.

CI runs the tool after its warehouse and out-of-core walkthroughs; this
runs it on the same kinds of directory, and shows it notices a blob
that no longer hashes to its name.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_blob_names.py"
GRID = ["--volumes", "1e3,1e4", "--tolerances", "paper,precision"]


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    assert main(["warehouse", "build", str(root / "wh"), *GRID]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "sweep", *GRID, "--csv",
            "--max-rows-in-memory", "8", "--spill-dir", str(root / "spill"),
        ]) == 0
    return root


def _check(*directories: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, directories)],
        capture_output=True,
        text=True,
    )


def test_fresh_blobs_hash_to_their_names(containers):
    result = _check(containers / "wh", containers / "spill")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"{containers / 'wh'}: 1 blobs hash to their names",
        f"{containers / 'spill'}: 2 blobs hash to their names",
    ]


def test_a_rewritten_blob_fails(containers, tmp_path):
    frame = sorted((containers / "spill").glob("frame-*.json"))[0]
    copy = tmp_path / frame.name
    copy.write_bytes(frame.read_bytes().replace(b'"indices":[', b'"indices": ['))
    result = _check(copy.parent)
    assert result.returncode == 1
    assert result.stderr.startswith(f"{copy}: hashes to ")


def test_a_directory_without_blobs_fails(tmp_path):
    result = _check(tmp_path)
    assert result.returncode == 1
    assert "no frame blobs" in result.stderr
