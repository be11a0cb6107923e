"""CI gate: warehouse query responses equal fresh serial sweeps.

The ``tier1-query-service`` job runs this script (with
``PYTHONPATH=src``).  It drives the documented decision-service flow
end to end and diffs every wire byte against ground truth recomputed
from scratch:

1. **queue-run the sweep** — a 4-shard GPS work queue is initialised
   and drained by one worker (the same fabric the cross-host story
   uses), so the warehouse is fed from shard artifacts, not a
   privileged in-process build;
2. **build the warehouse** — ``ingest_shard_directory`` appends every
   artifact; a second ingest must skip them all (resumability);
3. **serve it** — a real :class:`~repro.core.queryservice.
   WarehouseServer` on an ephemeral port, queried over actual HTTP;
4. **replay scripted queries** — Pareto, winner counts, best
   candidate, re-ranks under three user weight vectors and a volume
   sensitivity; every HTTP response body must be **byte-identical**
   to ``canonical_json`` of the envelope computed from a fresh serial
   :func:`~repro.gps.study.run_gps_sweep` (re-run with the query's
   weights where the query re-ranks) — the digest serialiser, not the
   server's own ``response_bytes``;
5. **probe bad requests** — ``Content-Length: -1``, a 400-digit
   integer as a volume filter or FoM weight, a 5000-digit integer and
   100 000 nested ``[`` must each be answered with HTTP 400 within
   two seconds, never left to block on the socket or dropped.

Any deviation — a torn frame, a stale manifest, one float one ulp
off the scalar formula — fails the job.
"""

from __future__ import annotations

import json
import socket
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.core.figure_of_merit import FomWeights
from repro.core.queue import manifest_for_grid, run_queue_worker, write_manifest
from repro.core.blobstore import canonical_json
from repro.core.queryservice import serve_warehouse
from repro.core.sweep import SweepGrid
from repro.core.warehouse import ingest_shard_directory, read_warehouse_manifest
from repro.gps.study import run_gps_sweep, sweep_candidates

SHARDS = 4
GRID = SweepGrid(volumes=(1e3, 1e4, 1e5, 1e6))

#: The scripted replay: (name, request) pairs sent over POST /query.
SCRIPT = (
    ("pareto", {"kind": "pareto"}),
    ("pareto@1e4", {"kind": "pareto", "where": {"volume": 1e4}}),
    ("winners", {"kind": "winners"}),
    ("best@1e4", {"kind": "best", "where": {"volume": 1e4}}),
    ("rerank 2:1:1", {"kind": "rerank", "fom_weights": "2:1:1"}),
    ("rerank 1:2:1", {"kind": "rerank", "fom_weights": "1:2:1"}),
    (
        "rerank 0.5:1:3",
        {"kind": "rerank", "fom_weights": "0.5:1:3"},
    ),
    ("sensitivity", {"kind": "sensitivity", "axis": "volume"}),
)


def expected_envelope(name: str, request: dict, manifest) -> dict:
    """Ground truth for one scripted query, from a fresh serial sweep.

    Deliberately *not* the warehouse code path: the sweep runs again
    through ``evaluate_cell`` (with the query's weights as the
    sweep-wide default when the query re-ranks) and the envelope is
    assembled from that fresh frame with plain column operations.
    """
    weights = None
    if "fom_weights" in request:
        parts = [float(p) for p in request["fom_weights"].split(":")]
        weights = FomWeights(
            performance=parts[0], size=parts[1], cost=parts[2]
        )
    frame = run_gps_sweep(GRID, weights=weights).frame
    where = request.get("where", {})
    mask = frame.column("volume") == frame.column("volume")
    for axis, value in where.items():
        mask = mask & (frame.column(axis) == value)
    envelope = {
        "kind": request["kind"],
        "fingerprint": manifest.fingerprint,
        "revision": manifest.revision,
    }
    if request["kind"] == "pareto":
        selected = frame.filter(mask & frame.column("on_pareto_front"))
        envelope["rows"] = selected.to_json_columns()
        envelope["count"] = len(selected)
    elif request["kind"] == "winners":
        selected = frame.filter(mask)
        envelope["winner_counts"] = selected.winner_counts()
        envelope["points"] = int(
            selected.column("is_winner").sum()
        )
        envelope["count"] = len(selected)
    elif request["kind"] == "best":
        selected = frame.filter(mask)
        envelope["best"] = selected.row(selected.best_index()).as_dict()
    elif request["kind"] == "rerank":
        selected = frame.filter(mask)
        envelope["fom_weights"] = [
            weights.performance,
            weights.size,
            weights.cost,
        ]
        envelope["rows"] = selected.to_json_columns()
        envelope["count"] = len(selected)
        envelope["winner_counts"] = selected.winner_counts()
        envelope["best"] = selected.row(selected.best_index()).as_dict()
    elif request["kind"] == "sensitivity":
        selected = frame.filter(mask)
        slices = []
        column = selected.column("volume")
        for value in dict.fromkeys(column.tolist()):
            vmask = column == value
            sub = selected.filter(vmask)
            winners = sub.column("candidate")[sub.column("is_winner")]
            slices.append(
                {
                    "value": value,
                    "winner": str(winners[0]),
                    "fom": {
                        str(candidate): float(fom)
                        for candidate, fom in zip(
                            sub.column("candidate").tolist(),
                            sub.column("figure_of_merit").tolist(),
                        )
                    },
                }
            )
        envelope["axis"] = "volume"
        envelope["slices"] = slices
        envelope["count"] = len(selected)
    else:
        raise AssertionError(f"unscripted kind in {name}")
    return envelope


#: Bad ``POST /query`` requests: (name, Content-Length, body).  Each
#: must be answered 400.
BAD_REQUESTS = (
    ("Content-Length: -1", b"-1", b""),
    (
        "400-digit volume filter",
        None,
        b'{"kind": "pareto", "where": {"volume": 1' + b"0" * 400 + b"}}",
    ),
    (
        "400-digit FoM weight",
        None,
        b'{"kind": "rerank", "fom_weights": [1' + b"0" * 400 + b", 1, 1]}",
    ),
    ("5000-digit integer", None, b'{"kind": ' + b"7" * 5000 + b"}"),
    ("100 000 nested [", None, b"[" * 100_000),
)


def probe(host: str, port: int, length, body: bytes) -> str:
    """The status code the server sends for one raw ``POST /query``
    (``"timeout"`` when nothing arrives within two seconds,
    ``"dropped"`` when the server hangs up without answering)."""
    if length is None:
        length = str(len(body)).encode()
    with socket.create_connection((host, port), timeout=2) as client:
        client.sendall(
            b"POST /query HTTP/1.1\r\nHost: check\r\n"
            b"Content-Length: " + length + b"\r\n\r\n" + body
        )
        try:
            status_line = client.makefile("rb").readline()
        except socket.timeout:
            return "timeout"
    parts = status_line.split()
    return parts[1].decode() if len(parts) > 1 else "dropped"


def main() -> int:
    directory = Path(tempfile.mkdtemp(prefix="query-service-"))
    shard_dir = directory / "shards"
    shard_dir.mkdir()

    # 1. Feed the warehouse from a drained 4-shard queue run.
    manifest_path = write_manifest(
        shard_dir / "queue.json",
        manifest_for_grid(GRID, shards=SHARDS),
    )
    report = run_queue_worker(
        manifest_path, GRID, sweep_candidates, reference=0
    )
    if len(report.evaluated) != SHARDS:
        print(
            f"FAIL: queue worker evaluated {len(report.evaluated)} "
            f"of {SHARDS} shards"
        )
        return 1

    # 2. Build (then resume) the warehouse from the artifacts.
    warehouse_dir = directory / "warehouse"
    _, appended, skipped = ingest_shard_directory(
        warehouse_dir, shard_dir
    )
    if len(appended) != SHARDS or skipped:
        print(f"FAIL: first ingest appended {appended}, skip {skipped}")
        return 1
    manifest, appended, skipped = ingest_shard_directory(
        warehouse_dir, shard_dir
    )
    if appended or len(skipped) != SHARDS:
        print(f"FAIL: second ingest not a no-op: {appended}")
        return 1
    if not manifest.complete:
        print("FAIL: warehouse incomplete after full ingest")
        return 1
    print(
        f"warehouse built from {SHARDS} queue shards: fingerprint "
        f"{manifest.fingerprint}, revision {manifest.revision}"
    )

    # 3. Serve it for real.
    server = serve_warehouse(warehouse_dir)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    # 4. Replay the script, diffing every byte against ground truth.
    failures = 0
    try:
        for name, request in SCRIPT:
            http_request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps(request).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(http_request) as response:
                served = response.read()
            expected = (
                canonical_json(expected_envelope(name, request, manifest))
                + "\n"
            ).encode("utf-8")
            if served == expected:
                print(f"OK   {name}: {len(served)} bytes identical")
            else:
                failures += 1
                print(
                    f"FAIL {name}: served response differs from the "
                    f"fresh serial sweep"
                )
                print(f"  served:   {served[:200]!r}")
                print(f"  expected: {expected[:200]!r}")
        # 5. Bad requests are refused, not read to EOF or dropped.
        for name, length, body in BAD_REQUESTS:
            status = probe(host, port, length, body)
            if status == "400":
                print(f"OK   {name} answered 400")
            else:
                failures += 1
                print(f"FAIL {name} answered {status!r}")
    finally:
        server.shutdown()
        server.server_close()

    # The manifest on disk never moved while serving.
    final = read_warehouse_manifest(warehouse_dir)
    if final.revision != manifest.revision:
        print("FAIL: manifest revision moved under a read-only server")
        failures += 1

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print(
        f"all {len(SCRIPT)} scripted queries byte-identical; "
        f"{len(BAD_REQUESTS)} bad requests refused"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
