"""CI gate: the queue + gather fabric heals faults, bytes stay serial.

The ``tier1-queue-fabric`` job runs this script (with ``PYTHONPATH=src``).
It stages the failure modes the service tier exists to absorb, all in
one 4-shard GPS queue sweep:

* an **injected transient failure** — the first evaluation raises, so
  one shard burns an attempt, lands in the failure ledger and must be
  retried to success;
* a **stale lease from a dead worker** — one shard starts out leased
  by a host that "died" long ago, with torn junk bytes at its artifact
  path; the lease must be stolen and the junk atomically replaced;
* an **incremental gather watching concurrently** — the watcher polls
  while the worker publishes, so every scan races a writer and only
  the atomic artifact protocol keeps the reads whole.

The gathered report's CSV must be byte-identical to the serial
in-process sweep.  Any deviation — a torn read, a double-counted
shard, a lost retry — fails the job.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path

from repro.core.gather import watch_directory
from repro.core.queue import (
    manifest_for_grid,
    run_queue_worker,
    write_manifest,
)
from repro.core.sharding import shard_filename
from repro.core.sweep import SweepGrid
from repro.gps.study import run_gps_sweep, sweep_candidates

SHARDS = 4
GRID = SweepGrid(volumes=(1e3, 1e4, 1e5, 1e6))


class FlakyOnce:
    """GPS candidate factory whose first call raises (then behaves).

    The marker file carries the "already failed" bit across retries,
    exactly like a transient host fault: the queue records the failed
    attempt and the next claim succeeds.
    """

    def __init__(self, marker: Path):
        self.marker = marker

    def __call__(self, point):
        if not self.marker.exists():
            self.marker.write_text("tripped", encoding="utf-8")
            raise RuntimeError("injected transient fault")
        return sweep_candidates(point)


def report_csv(report) -> str:
    return "\n".join([report.frame.csv_header(), *report.frame.csv_lines()])


def main() -> int:
    directory = Path(tempfile.mkdtemp(prefix="queue-fabric-"))
    manifest = manifest_for_grid(
        GRID, shards=SHARDS, lease_ttl=60.0, max_attempts=3
    )
    manifest_path = write_manifest(directory / "manifest.json", manifest)

    # A worker that died mid-shard 2: its lease expired long ago and
    # it left torn bytes at the artifact path.  The fabric must steal
    # the lease, ignore the junk and atomically replace it.
    stale_lease = directory / f"lease-0002-of-{SHARDS:04d}.json"
    stale_lease.write_text(
        json.dumps(
            {"owner": "dead-host:1", "token": "stale", "expires": 1.0}
        ),
        encoding="utf-8",
    )
    torn = directory / shard_filename(SHARDS, 2)
    torn.write_text('{"format": "repro-sw', encoding="utf-8")

    worker_report = {}

    def worker() -> None:
        worker_report["report"] = run_queue_worker(
            manifest_path,
            GRID,
            FlakyOnce(directory / "fault-injected.marker"),
            owner="ci-worker",
        )

    thread = threading.Thread(target=worker)
    thread.start()
    snapshots = []
    gathered = watch_directory(
        directory,
        expected=manifest,
        poll=0.05,
        timeout=300.0,
        on_snapshot=snapshots.append,
    )
    thread.join()
    report = worker_report["report"]

    failures = []
    if not report.queue_drained:
        failures.append(f"queue not drained: outstanding {report.outstanding}")
    if report.exhausted:
        failures.append(f"shards exhausted: {report.exhausted}")
    if len(report.failures) != 1:
        failures.append(
            f"expected exactly 1 recorded failure, got {report.failures}"
        )
    if stale_lease.exists():
        failures.append("stale lease survived the sweep")
    if not snapshots:
        failures.append("watcher published no snapshots")

    serial_csv = report_csv(run_gps_sweep(GRID))
    gathered_csv = report_csv(gathered)
    if gathered_csv != serial_csv:
        failures.append("gathered CSV differs from the serial sweep")

    print(
        f"queue fabric: {len(report.evaluated)} shards evaluated, "
        f"{len(report.failures)} injected failure recorded, "
        f"{len(snapshots)} gather snapshots, "
        f"{len(gathered_csv.splitlines()) - 1} rows gathered"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("queue fabric check: gathered bytes == serial bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
