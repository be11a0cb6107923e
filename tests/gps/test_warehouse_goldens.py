"""Golden query responses for a pinned GPS warehouse.

The query service's wire format is a reproduction surface: the Pareto
set, the winner tallies, the best candidate at the paper's 10k-unit
operating point and a re-rank under user weights are snapshotted for a
pinned GPS warehouse and compared **byte for byte** — every float at
full ``repr`` precision, every response exactly the canonical JSON the
HTTP server and ``repro-gps warehouse query`` emit.  Warehouse builds
are deterministic (content-addressed frames, no timestamps), so the
fingerprint and revision in the envelopes are stable too.

Regenerate after an *intentional* numeric change with::

    PYTHONPATH=src python tests/gps/test_warehouse_goldens.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.queryservice import QueryService, response_bytes
from repro.core.sweep import SweepGrid
from repro.gps.study import build_gps_warehouse

GOLDEN_PATH = (
    Path(__file__).parent / "goldens" / "gps_warehouse_queries.json"
)

#: The pinned grid: the paper's 10k-unit operating point bracketed a
#: decade each way, over all four implementations.
GRID = SweepGrid(volumes=(1e3, 1e4, 1e5))

#: Named queries the goldens lock, in golden-file key order.
QUERIES = {
    "pareto_front": {"kind": "pareto"},
    "winner_counts": {"kind": "winners"},
    "best_at_operating_point": {
        "kind": "best",
        "where": {"volume": 1e4},
    },
    "rerank_2_1_1": {"kind": "rerank", "fom_weights": "2:1:1"},
    "volume_sensitivity": {"kind": "sensitivity", "axis": "volume"},
}


def render_goldens(tmp_dir: Path) -> str:
    """Canonical JSON of every locked query response.

    Builds a fresh warehouse under ``tmp_dir`` and runs each query
    through the same :class:`QueryService` and wire serialiser the
    server uses; equal bytes mean equal IEEE doubles in every stored
    and re-ranked FoM.
    """
    directory = Path(tmp_dir) / "gps-warehouse"
    build_gps_warehouse(directory, GRID)
    service = QueryService(directory)
    payload = {
        name: json.loads(response_bytes(service.execute(request)))
        for name, request in QUERIES.items()
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestWarehouseGoldens:
    def test_golden_file_exists(self):
        assert GOLDEN_PATH.is_file(), (
            f"missing golden file {GOLDEN_PATH}; regenerate with "
            "PYTHONPATH=src python tests/gps/test_warehouse_goldens.py "
            "--write"
        )

    def test_query_responses_reproduce_goldens_byte_for_byte(
        self, tmp_path
    ):
        expected = GOLDEN_PATH.read_text()
        actual = render_goldens(tmp_path)
        assert actual == expected, (
            "warehouse query responses drifted from tests/gps/goldens/"
            "gps_warehouse_queries.json.  If the change is "
            "intentional, regenerate with: PYTHONPATH=src python "
            "tests/gps/test_warehouse_goldens.py --write"
        )


if __name__ == "__main__":
    if "--write" in sys.argv:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp_dir:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(render_goldens(Path(tmp_dir)))
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
