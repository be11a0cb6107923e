"""The resumable shard work queue.

Coordination is files in a directory, so everything here is exercised
through real paths: manifest round trips (atomic, like every control
file), lease acquisition races, expiry stealing under an injected
clock, the failure ledger and its attempt budget, and the worker loop
end to end — including that a worker refuses a manifest whose
fingerprint does not match the grid it resolved locally.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core.methodology import CandidateBuildUp
from repro.core.queue import (
    QUEUE_FORMAT,
    QueueError,
    QueueManifest,
    ShardQueue,
    manifest_for_grid,
    manifest_to_payload,
    payload_to_manifest,
    read_manifest,
    run_queue_worker,
    write_manifest,
)
from repro.core.sharding import (
    merge_shard_artifacts,
    read_shard_artifact,
    run_shard,
)
from repro.core.sweep import DesignPoint, run_design_sweep
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError

POINTS = [
    DesignPoint(volume=volume) for volume in (1e3, 5e3, 1e4, 1e5, 1e6)
]


def _flow(area_cm2: float) -> ProductionFlow:
    flow = ProductionFlow(name="toy")
    flow.add(CarrierStep("ID1", "carrier", unit_cost=10.0 + area_cm2))
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def fixed_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    footprints = [Footprint("chip", 25.0, MountKind.PACKAGED)]
    return [
        CandidateBuildUp(
            name="ref",
            footprints=footprints,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=1.0,
        ),
        CandidateBuildUp(
            name="alt",
            footprints=footprints * 2,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=0.9,
        ),
    ]


class FakeClock:
    """An injectable wall clock the tests can move by hand."""

    def __init__(self, now: float = 1_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def manifest_path(tmp_path):
    manifest = manifest_for_grid(
        POINTS, shards=3, lease_ttl=60.0, max_attempts=2
    )
    return write_manifest(tmp_path / "manifest.json", manifest)


class TestManifest:
    def test_payload_round_trip(self):
        manifest = manifest_for_grid(
            POINTS,
            shards=4,
            lease_ttl=12.5,
            max_attempts=5,
            grid_spec={"volumes": "1e3"},
        )
        payload = json.loads(json.dumps(manifest_to_payload(manifest)))
        assert payload["format"] == QUEUE_FORMAT
        assert payload_to_manifest(payload) == manifest

    def test_file_round_trip_is_atomic(self, tmp_path):
        manifest = manifest_for_grid(POINTS, shards=2)
        path = write_manifest(tmp_path / "manifest.json", manifest)
        assert read_manifest(path) == manifest
        # The atomic-write protocol leaves no temp sibling behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(QueueError, match="cannot read"):
            read_manifest(tmp_path / "nope.json")

    def test_junk_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("not json{", encoding="utf-8")
        with pytest.raises(QueueError, match="not valid JSON"):
            read_manifest(path)
        path.write_bytes(b'{"format": "\xc2')
        with pytest.raises(QueueError, match="not valid JSON"):
            read_manifest(path)

    def test_foreign_format_rejected(self):
        payload = manifest_to_payload(manifest_for_grid(POINTS, shards=2))
        payload["format"] = "repro-sweep-queue/99"
        with pytest.raises(QueueError, match=QUEUE_FORMAT):
            payload_to_manifest(payload)

    def test_bad_fields_rejected(self):
        for kwargs in (
            {"shards": 0},
            {"shards": 2.0},
            {"total_points": 0},
            {"lease_ttl": 0.0},
            {"lease_ttl": -5},
            {"max_attempts": 0},
        ):
            fields = {
                "fingerprint": "f",
                "order_digest": "o",
                "shards": 2,
                "total_points": 5,
            }
            fields.update(kwargs)
            with pytest.raises(SpecificationError):
                QueueManifest(**fields)

    def test_empty_grid_rejected(self):
        with pytest.raises(SpecificationError, match="at least one"):
            manifest_for_grid([], shards=2)


class TestShardQueue:
    def test_claim_is_exclusive(self, manifest_path):
        clock = FakeClock()
        ours = ShardQueue(manifest_path, owner="a", clock=clock)
        theirs = ShardQueue(manifest_path, owner="b", clock=clock)
        claim = ours.claim(0)
        assert claim is not None and claim.attempt == 1
        assert ours.shard_state(0) == "leased"
        # Both a rival and a re-claim by the holder bounce off.
        assert theirs.claim(0) is None
        assert ours.claim(0) is None

    def test_expired_lease_is_stolen(self, manifest_path):
        clock = FakeClock()
        ours = ShardQueue(manifest_path, owner="a", clock=clock)
        theirs = ShardQueue(manifest_path, owner="b", clock=clock)
        assert ours.claim(0) is not None
        clock.advance(61.0)  # past the 60 s lease TTL
        stolen = theirs.claim(0)
        assert stolen is not None
        assert json.loads(stolen.lease_path.read_text())["owner"] == "b"

    def test_straggler_cannot_release_stolen_lease(self, manifest_path):
        """Completing after a steal must not delete the thief's lease —
        that would invite a third evaluation of the same shard."""
        clock = FakeClock()
        ours = ShardQueue(manifest_path, owner="a", clock=clock)
        theirs = ShardQueue(manifest_path, owner="b", clock=clock)
        old_claim = ours.claim(1)
        clock.advance(61.0)
        new_claim = theirs.claim(1)
        artifact = run_shard(
            POINTS, fixed_candidates, shards=3, shard_index=1
        )
        ours.complete(old_claim, artifact)  # the straggler finishes late
        assert new_claim.lease_path.exists()  # thief's lease survives
        assert ours.valid_artifact(1)

    def test_complete_publishes_and_cleans_up(self, manifest_path):
        queue = ShardQueue(manifest_path, owner="a", clock=FakeClock())
        claim = queue.claim(0)
        artifact = run_shard(
            POINTS, fixed_candidates, shards=3, shard_index=0
        )
        path = queue.complete(claim, artifact)
        assert queue.shard_state(0) == "complete"
        assert not claim.lease_path.exists()
        assert read_shard_artifact(path).shard_index == 0
        # A completed shard is never claimable again.
        assert queue.claim(0) is None

    def test_failure_ledger_and_exhaustion(self, manifest_path):
        clock = FakeClock()
        queue = ShardQueue(manifest_path, owner="a", clock=clock)
        claim = queue.claim(2)
        queue.fail(claim, "RuntimeError: boom")
        assert queue.attempts(2) == 1
        assert queue.errors(2) == ["RuntimeError: boom"]
        assert queue.shard_state(2) == "available"  # one attempt left
        claim = queue.claim(2)
        assert claim.attempt == 2
        queue.fail(claim, "RuntimeError: boom again")
        # max_attempts=2 spent: exhausted, no further claims.
        assert queue.shard_state(2) == "exhausted"
        assert queue.claim(2) is None
        assert queue.exhausted() == [2]
        # Success elsewhere clears nothing for shard 2...
        assert queue.outstanding() == [0, 1, 2]

    def test_success_clears_the_ledger(self, manifest_path):
        queue = ShardQueue(manifest_path, owner="a", clock=FakeClock())
        claim = queue.claim(0)
        queue.fail(claim, "RuntimeError: transient")
        claim = queue.claim(0)
        artifact = run_shard(
            POINTS, fixed_candidates, shards=3, shard_index=0
        )
        queue.complete(claim, artifact)
        assert queue.attempts(0) == 0
        assert queue.errors(0) == []

    def test_torn_artifact_does_not_count_as_complete(self, manifest_path):
        queue = ShardQueue(manifest_path, owner="a", clock=FakeClock())
        queue.artifact_path(1).write_text(
            '{"format": "repro-sw', encoding="utf-8"
        )
        assert not queue.valid_artifact(1)
        assert queue.shard_state(1) == "available"
        assert queue.claim(1) is not None

    def test_foreign_artifact_does_not_count_as_complete(
        self, manifest_path
    ):
        """An artifact for a *different grid* at the right filename must
        not satisfy the queue (it would poison the gather)."""
        queue = ShardQueue(manifest_path, owner="a", clock=FakeClock())
        other_points = POINTS[:-1] + [DesignPoint(volume=7e7)]
        foreign = run_shard(
            other_points, fixed_candidates, shards=3, shard_index=1
        )
        from repro.core.sharding import write_shard_artifact

        write_shard_artifact(queue.artifact_path(1), foreign)
        assert not queue.valid_artifact(1)
        assert queue.claim(1) is not None

    def test_misplaced_artifact_does_not_count_as_complete(
        self, manifest_path
    ):
        """An artifact named shard 1 of the grid that carries shard 2's
        points must not satisfy the queue either."""
        import dataclasses

        from repro.core.sharding import write_shard_artifact

        queue = ShardQueue(manifest_path, owner="a", clock=FakeClock())
        other = run_shard(POINTS, fixed_candidates, shards=3, shard_index=2)
        write_shard_artifact(
            queue.artifact_path(1), dataclasses.replace(other, shard_index=1)
        )
        assert not queue.valid_artifact(1)
        assert queue.claim(1) is not None

    def test_stale_torn_lease_is_expired(self, tmp_path):
        """A claimant killed between the exclusive create and the write
        leaves an empty lease; once older than the TTL it must not
        block the shard forever."""
        path = write_manifest(
            tmp_path / "manifest.json",
            manifest_for_grid(POINTS, shards=2, lease_ttl=1.0),
        )
        queue = ShardQueue(path, owner="a")
        lease = queue.lease_path(0)
        lease.write_text("", encoding="utf-8")
        hour_ago = time.time() - 3600.0
        os.utime(lease, (hour_ago, hour_ago))
        assert queue.claim(0) is not None

    def test_fresh_torn_lease_still_blocks(self, manifest_path):
        """A young unreadable lease may be mid-write: hands off."""
        queue = ShardQueue(manifest_path, owner="a")
        queue.lease_path(0).write_text("", encoding="utf-8")
        assert queue.claim(0) is None

    def test_out_of_range_claim_rejected(self, manifest_path):
        queue = ShardQueue(manifest_path, owner="a", clock=FakeClock())
        with pytest.raises(QueueError, match="out of range"):
            queue.claim(3)

    def test_claim_next_prefers_lowest_index(self, manifest_path):
        queue = ShardQueue(manifest_path, owner="a", clock=FakeClock())
        assert queue.claim_next().shard_index == 0
        assert queue.claim_next().shard_index == 1
        assert queue.claim_next().shard_index == 2
        assert queue.claim_next() is None


class TestQueueWorker:
    def test_drains_and_merges_to_serial_bytes(self, manifest_path, tmp_path):
        events = []
        report = run_queue_worker(
            manifest_path,
            POINTS,
            fixed_candidates,
            owner="worker-1",
            on_event=lambda kind, index, detail: events.append(
                (kind, index)
            ),
        )
        assert report.evaluated == (0, 1, 2)
        assert report.queue_drained
        assert events == [
            ("claim", 0),
            ("complete", 0),
            ("claim", 1),
            ("complete", 1),
            ("claim", 2),
            ("complete", 2),
        ]
        merged = merge_shard_artifacts(
            [tmp_path / f"shard-000{i}-of-0003.json" for i in range(3)]
        )
        serial = run_design_sweep(POINTS, fixed_candidates)
        assert merged.rows == serial.rows

    def test_second_worker_skips_everything(self, manifest_path):
        run_queue_worker(manifest_path, POINTS, fixed_candidates)
        report = run_queue_worker(manifest_path, POINTS, fixed_candidates)
        assert report.evaluated == ()
        assert report.skipped == (0, 1, 2)
        assert report.queue_drained

    def test_interleaved_workers_split_the_queue(self, manifest_path):
        """Two workers alternating claims never duplicate a shard."""
        clock = FakeClock()
        first = ShardQueue(manifest_path, owner="a", clock=clock)
        second = ShardQueue(manifest_path, owner="b", clock=clock)
        taken = []
        for queue in (first, second, first, second):
            claim = queue.claim_next()
            if claim is None:
                continue
            artifact = run_shard(
                POINTS,
                fixed_candidates,
                shards=3,
                shard_index=claim.shard_index,
            )
            queue.complete(claim, artifact)
            taken.append((queue.owner, claim.shard_index))
        assert [index for _, index in taken] == [0, 1, 2]
        assert first.outstanding() == []

    def test_foreign_grid_refused(self, manifest_path):
        other_points = POINTS[:-1] + [DesignPoint(volume=7e7)]
        with pytest.raises(QueueError, match="wrong sweep"):
            run_queue_worker(manifest_path, other_points, fixed_candidates)

    def test_reordered_grid_refused(self, manifest_path):
        """Same content fingerprint, different canonical order: the
        shard indices would not line up, so the worker must refuse."""
        with pytest.raises(QueueError, match="different canonical order"):
            run_queue_worker(
                manifest_path, list(reversed(POINTS)), fixed_candidates
            )

    def test_specification_error_is_raised_not_retried(
        self, manifest_path
    ):
        def broken_factory(point):
            raise SpecificationError("no candidates for this point")

        with pytest.raises(SpecificationError, match="no candidates"):
            run_queue_worker(manifest_path, POINTS, broken_factory)

    def test_transient_failures_are_retried_in_place(self, manifest_path):
        calls = {"failed": False}

        def flaky_factory(point):
            if not calls["failed"]:
                calls["failed"] = True
                raise RuntimeError("transient fault")
            return fixed_candidates(point)

        report = run_queue_worker(manifest_path, POINTS, flaky_factory)
        assert report.queue_drained
        assert len(report.failures) == 1
        assert "transient fault" in report.failures[0][1]
