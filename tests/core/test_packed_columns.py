"""The packed column codec of shard artifacts and warehouse frames
(spilled ones included).

Every numeric column is stored as the base64 text of its little-endian
bytes (``repro.core.resultframe.pack_column``).  This suite pins:

* the round trip — any float64 bit pattern (signed zeros, infinities,
  NaNs with payloads, subnormals) and the empty frame survive
  ``to_stored_columns`` → canonical JSON → ``from_stored_columns`` bit
  for bit, so CSV lines and ``json_columns_bytes`` come out identical;
* every refusal of the decoder — a packed column that is not a string,
  is not strict base64, holds a partial value, disagrees with the
  label columns' row count, or (a flag) holds a byte other than 0 or
  1, and a ratio that is not positive — in each container's typed
  error, and through the CLI as exit 2 with one stderr line.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import blobstore
from repro.core.framestore import ChunkedFrameStore
from repro.core.ranking import RATIO_CEILING, DecisionFrame
from repro.core.resultframe import (
    COLUMN_ORDER,
    FLOAT_COLUMNS,
    LABEL_COLUMNS,
    ResultFrame,
    pack_column,
    unpack_column,
)
from repro.core.sharding import (
    ShardMergeError,
    artifact_to_payload,
    payload_to_artifact,
    read_shard_artifact,
)
from repro.core.warehouse import (
    WarehouseError,
    frame_filename,
    read_warehouse_frame,
    read_warehouse_manifest,
)
from repro.errors import SpecificationError

GRID = ["--volumes", "1e3,1e4", "--tolerances", "paper,precision"]

#: Any float64, drawn as its bit pattern.
any_double = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: float(np.array([bits], dtype=np.uint64).view(np.float64)[0])
)
awkward = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310]
)
doubles = st.one_of(any_double, awkward)
flags = st.booleans()


def _frame(values: list[float], winners: list[bool]) -> ResultFrame:
    n = len(values)
    column = np.asarray(values, dtype=np.float64)
    columns = {
        name: np.roll(column, shift)
        for shift, name in enumerate(FLOAT_COLUMNS)
    }
    columns.update(
        {name: [f"{name}{i % 3}" for i in range(n)] for name in LABEL_COLUMNS}
    )
    columns["is_winner"] = winners
    columns["on_pareto_front"] = [not flag for flag in winners]
    return ResultFrame.from_columns(columns)


def _bits(frame: ResultFrame) -> list:
    return [
        frame.column(name).view(np.int64).tolist()
        if name in FLOAT_COLUMNS
        else frame.column(name).tolist()
        for name in COLUMN_ORDER
    ]


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(doubles, flags), max_size=30))
    def test_any_bit_pattern_survives_the_stored_payload(self, cells):
        frame = _frame([v for v, _ in cells], [f for _, f in cells])
        text = blobstore.canonical_json(frame.to_stored_columns())
        back = ResultFrame.from_stored_columns(json.loads(text))
        assert _bits(back) == _bits(frame)
        assert back.csv_lines() == frame.csv_lines()
        mask = np.ones(len(frame), dtype=bool)
        assert back.json_columns_bytes(mask) == frame.json_columns_bytes(mask)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                doubles,
                st.floats(min_value=5e-324, max_value=RATIO_CEILING),
                st.floats(min_value=5e-324, max_value=RATIO_CEILING),
            ),
            max_size=12,
        )
    )
    def test_decision_frame_ratios_survive(self, cells):
        n = len(cells)
        dframe = DecisionFrame(
            frame=_frame([c[0] for c in cells], [True] * n),
            size_ratio=np.array([c[1] for c in cells], dtype=np.float64),
            cost_ratio=np.array([c[2] for c in cells], dtype=np.float64),
            indices=tuple(range(n)),
            row_counts=(1,) * n,
        )
        text = blobstore.canonical_json(dframe.to_payload())
        back = DecisionFrame.from_payload(json.loads(text))
        assert _bits(back.frame) == _bits(dframe.frame)
        assert back.size_ratio.tobytes() == dframe.size_ratio.tobytes()
        assert back.cost_ratio.tobytes() == dframe.cost_ratio.tobytes()

    def test_empty_frame(self):
        payload = DecisionFrame.empty().to_payload()
        assert payload["columns"]["volume"] == ""
        assert payload["ratios"]["size_ratio"] == ""
        assert DecisionFrame.from_payload(payload) == DecisionFrame.empty()

    def test_stored_bytes_are_little_endian_base64(self):
        column = np.array([1.0, -0.0], dtype=np.float64)
        assert base64.b64decode(pack_column(column)) == (
            column.astype("<f8").tobytes()
        )
        assert base64.b64decode(
            pack_column(np.array([True, False, True]))
        ) == b"\x01\x00\x01"


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


#: ``(id, section, column, hostile value for an n-row frame, message)``:
#: every decoder refusal, on a float column, a flag and a ratio.
HOSTILE = [
    ("list", "columns", "volume", lambda n: [1.0] * n, "base64 text"),
    ("number", "ratios", "size_ratio", lambda n: 1.0, "base64 text"),
    ("null", "columns", "is_winner", lambda n: None, "base64 text"),
    ("not-base64", "columns", "performance",
     lambda n: "!" * (12 * n), "not valid base64"),
    ("non-ascii", "columns", "volume",
     lambda n: "é" * (12 * n), "not valid base64"),
    ("bad-padding", "columns", "cost_percent",
     lambda n: _b64(bytes(8 * n)).rstrip("=") + "A", "not valid base64"),
    ("excess-padding", "ratios", "cost_ratio",
     lambda n: _b64(bytes(8 * n)) + "==", "not valid base64"),
    ("partial-value", "columns", "area_percent",
     lambda n: _b64(bytes(8 * n - 1)), "whole number"),
    ("partial-ratio", "ratios", "size_ratio",
     lambda n: _b64(bytes(8 * n + 3)), "whole number"),
    ("too-long", "columns", "figure_of_merit",
     lambda n: _b64(bytes(8 * (n + 1))), "label columns"),
    ("too-short", "columns", "on_pareto_front",
     lambda n: _b64(bytes(n - 1)), "label columns"),
    ("ratio-rows", "ratios", "cost_ratio",
     lambda n: pack_column(np.ones(n + 2)), "label columns"),
    ("flag-byte", "columns", "is_winner",
     lambda n: _b64(b"\x02" * n), "0 or 1"),
    ("flag-255", "columns", "on_pareto_front",
     lambda n: _b64(b"\x00" * (n - 1) + b"\xff"), "0 or 1"),
    ("ratio-zero", "ratios", "size_ratio",
     lambda n: pack_column(np.zeros(n)), "positive finite"),
    ("ratio-negative", "ratios", "cost_ratio",
     lambda n: pack_column(-np.ones(n)), "positive finite"),
    ("ratio-nan", "ratios", "size_ratio",
     lambda n: pack_column(np.full(n, np.nan)), "positive finite"),
    ("ratio-percent-overflow", "ratios", "cost_ratio",
     lambda n: pack_column(np.full(n, np.nextafter(RATIO_CEILING, np.inf))),
     "finite percentage"),
]
IDS = [case[0] for case in HOSTILE]


def _spoil(payload: dict, case) -> dict:
    """``payload`` (a decision frame's, or a container's around one)
    with one column replaced by the hostile value."""
    _, section, name, value, _ = case
    rows = len(payload["columns"]["candidate"])
    spoiled = json.loads(json.dumps(payload))
    spoiled[section][name] = value(rows)
    return spoiled


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    for index in (0, 1):
        assert main([
            "sweep", *GRID, "--shards", "2", "--shard-index", str(index),
            "--shard-dir", str(root),
        ]) == 0
    return root


def _one_line_exit_2(argv, capsys) -> str:
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    lines = [
        line
        for line in err.splitlines()
        # A reused spill store is announced before its frames are read.
        if not line.startswith("reusing spilled frame store")
    ]
    assert "Traceback" not in err and len(lines) == 1, err
    return lines[0]


class TestHostileColumns:
    @pytest.mark.parametrize("case", HOSTILE, ids=IDS)
    def test_decision_frame_refuses(self, shard_dir, case):
        artifact = read_shard_artifact(shard_dir / "shard-0000-of-0002.json")
        payload = _spoil(artifact.dframe.to_payload(), case)
        with pytest.raises(SpecificationError, match=case[4]):
            DecisionFrame.from_payload(payload)

    @pytest.mark.parametrize("case", HOSTILE, ids=IDS)
    def test_shard_artifact_refuses(self, shard_dir, case, tmp_path, capsys):
        artifact = read_shard_artifact(shard_dir / "shard-0000-of-0002.json")
        payload = _spoil(artifact_to_payload(artifact), case)
        with pytest.raises(ShardMergeError, match=case[4]):
            payload_to_artifact(payload)
        for path in shard_dir.iterdir():
            (tmp_path / path.name).write_bytes(path.read_bytes())
        blobstore.write_json(tmp_path / "shard-0000-of-0002.json", payload)
        err = _one_line_exit_2(["sweep", "--merge", str(tmp_path)], capsys)
        assert case[4] in err and "re-run the shard" in err

    @pytest.mark.parametrize("case", HOSTILE, ids=IDS)
    def test_warehouse_frame_refuses(self, shard_dir, case, tmp_path, capsys):
        """A hostile frame file that hashes to its manifest entry gets
        past the digest, and is refused by the decoder."""
        warehouse = tmp_path / "wh"
        assert main([
            "warehouse", "build", str(warehouse),
            "--from-shards", str(shard_dir),
        ]) == 0
        manifest_file = warehouse / "warehouse.json"
        manifest = json.loads(manifest_file.read_bytes())
        entry = manifest["frames"][0]
        frame = json.loads((warehouse / entry["file"]).read_bytes())
        entry["file"], entry["digest"] = blobstore.put_blob(
            warehouse, frame_filename, _spoil(frame, case)
        )
        blobstore.write_json(manifest_file, manifest)
        with pytest.raises(WarehouseError, match=case[4]):
            read_warehouse_frame(
                warehouse / entry["file"], expected_digest=entry["digest"]
            )
        assert read_warehouse_manifest(warehouse).frames[0].file == (
            entry["file"]
        )
        err = _one_line_exit_2(
            ["warehouse", "query", str(warehouse), "--kind", "pareto"],
            capsys,
        )
        assert case[4] in err

    @pytest.mark.parametrize("case", HOSTILE, ids=IDS)
    def test_chunk_refuses(self, case, tmp_path, capsys):
        """A spilled frame is a warehouse frame: refused alike."""
        spill = ["--max-rows-in-memory", "5", "--spill-dir", str(tmp_path)]
        assert main(["sweep", *GRID, "--csv", *spill]) == 0
        manifest_file = tmp_path / "warehouse.json"
        manifest = json.loads(manifest_file.read_bytes())
        entry = manifest["frames"][0]
        chunk = json.loads((tmp_path / entry["file"]).read_bytes())
        entry["file"], entry["digest"] = blobstore.put_blob(
            tmp_path, frame_filename, _spoil(chunk, case)
        )
        blobstore.write_json(manifest_file, manifest)
        with pytest.raises(WarehouseError, match=case[4]):
            ChunkedFrameStore.open(tmp_path).to_frame()
        err = _one_line_exit_2(["sweep", *GRID, "--csv", *spill], capsys)
        assert case[4] in err


def test_unpack_checks_before_building():
    """The decoder's refusals in order: type, base64, whole values,
    row count, flag bytes."""
    with pytest.raises(SpecificationError, match="base64 text, got bytes"):
        unpack_column(b"AAAA", np.float64, 0, "x")
    with pytest.raises(SpecificationError, match="not valid base64"):
        unpack_column("A", np.float64, 0, "x")
    with pytest.raises(SpecificationError, match="3 bytes"):
        unpack_column(_b64(b"abc"), np.float64, 0, "x")
    with pytest.raises(SpecificationError, match="1 values but"):
        unpack_column(_b64(bytes(8)), np.float64, 2, "x")
    with pytest.raises(SpecificationError, match="0 or 1"):
        unpack_column(_b64(b"\x00\x01\x03"), bool, 3, "x")
    flags = unpack_column(_b64(b"\x00\x01"), bool, 2, "x")
    assert flags.dtype == np.bool_ and flags.tolist() == [False, True]
