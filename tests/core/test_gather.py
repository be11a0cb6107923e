"""The incremental gather service.

The headline regressions pinned here: (1) the same shard index
gathered twice — the lease-expiry race, where a straggler and a thief
both publish identical artifacts — must be ingested exactly once, so
frame rows *and* merged cache hit/miss counters stay correct; (2) a
PENDING temp file is progress display, never data; (3) a rejected file
is retried on the next scan, so the queue's atomic retry heals a
corrupt leftover without restarting the watcher — a misplaced one too
(a file holding another shard's points), which the watcher refuses as
it scans instead of ingesting it for good.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core.gather import (
    GatherError,
    IncrementalGather,
    gather_directory,
    watch_directory,
)
from repro.core.methodology import CandidateBuildUp
from repro.core.queue import manifest_for_grid
from repro.core.sharding import (
    merge_cache_states,
    run_shard,
    shard_filename,
    write_shard_artifact,
)
from repro.core.sweep import DesignPoint, run_design_sweep
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep

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


def make_artifacts(shards: int) -> list:
    return [
        run_shard(POINTS, fixed_candidates, shards=shards, shard_index=i)
        for i in range(shards)
    ]


def swapped_shards() -> tuple[list, list]:
    """The two shards of a 3-point grid, and the same two artifacts
    with their frames swapped and their headers kept."""
    artifacts = [
        run_shard(POINTS[:3], fixed_candidates, shards=2, shard_index=i)
        for i in range(2)
    ]
    first, second = artifacts
    swapped = [
        dataclasses.replace(first, dframe=second.dframe),
        dataclasses.replace(second, dframe=first.dframe),
    ]
    return artifacts, swapped


def write_all(directory, artifacts) -> None:
    for artifact in artifacts:
        write_shard_artifact(
            directory / shard_filename(artifact.shards, artifact.shard_index),
            artifact,
        )


class TestIncrementalIngest:
    def test_artifacts_accumulate_into_the_serial_report(self):
        gather = IncrementalGather()
        for artifact in make_artifacts(3):
            assert gather.ingest(artifact) is True
        assert gather.complete
        serial = run_design_sweep(POINTS, fixed_candidates)
        assert gather.report().rows == serial.rows

    def test_duplicate_shard_ingested_exactly_once(self):
        """The lease-expiry race fix: the second copy of a shard must
        change *nothing* — not the frame, not the cache counters."""
        artifacts = make_artifacts(2)
        gather = IncrementalGather()
        assert gather.ingest(artifacts[0]) is True
        before = gather.snapshot()
        # The straggler's identical artifact lands a second time.
        assert gather.ingest(artifacts[0]) is False
        after = gather.snapshot()
        assert after.covered_points == before.covered_points
        assert after.frame.csv_lines() == before.frame.csv_lines()
        # Cache statistics count the shard once, exactly as if only
        # one worker had published it.
        assert after.cache_stats == merge_cache_states(
            [artifacts[0].cache_state]
        )
        gather.ingest(artifacts[1])
        assert gather.snapshot().cache_stats == merge_cache_states(
            [a.cache_state for a in artifacts]
        )

    def test_duplicate_does_not_double_cache_counters_end_to_end(self):
        """Counters with vs without the duplicate are identical."""
        artifacts = make_artifacts(2)
        clean = IncrementalGather()
        raced = IncrementalGather()
        for artifact in artifacts:
            clean.ingest(artifact)
            raced.ingest(artifact)
        raced.ingest(artifacts[1])  # the duplicate publication
        assert (
            raced.snapshot().cache_stats == clean.snapshot().cache_stats
        )
        assert raced.report().cache_stats == clean.report().cache_stats

    def test_partial_snapshot_is_canonically_ordered(self):
        artifacts = make_artifacts(3)
        gather = IncrementalGather()
        gather.ingest(artifacts[2])
        gather.ingest(artifacts[0])
        snapshot = gather.snapshot()
        assert not snapshot.complete
        assert snapshot.shards_seen == (0, 2)
        volumes = list(snapshot.frame.column("volume"))
        assert volumes == sorted(volumes)
        assert 0.0 < snapshot.progress < 1.0
        assert sum(snapshot.winner_counts().values()) == len(
            artifacts[0].dframe.indices
        ) + len(artifacts[2].dframe.indices)

    def test_foreign_artifact_rejected(self):
        other_points = POINTS[:-1] + [DesignPoint(volume=7e7)]
        foreign = run_shard(
            other_points, fixed_candidates, shards=2, shard_index=0
        )
        gather = IncrementalGather()
        gather.ingest(make_artifacts(2)[1])
        with pytest.raises(GatherError, match="different grid"):
            gather.ingest(foreign)

    def test_manifest_pins_the_grid_up_front(self):
        other_points = POINTS[:-1] + [DesignPoint(volume=7e7)]
        manifest = manifest_for_grid(POINTS, shards=2)
        gather = IncrementalGather(expected=manifest)
        foreign = run_shard(
            other_points, fixed_candidates, shards=2, shard_index=0
        )
        with pytest.raises(GatherError, match="different grid"):
            gather.ingest(foreign)

    def test_overlapping_point_coverage_rejected(self):
        """Two different shard cuts of one grid cover the same points;
        gathering across cuts must be refused, not double-counted."""
        same_grid_other_cut = run_shard(
            POINTS, fixed_candidates, shards=3, shard_index=0
        )
        gather = IncrementalGather()
        gather.ingest(make_artifacts(3)[0])
        mangled = same_grid_other_cut
        # Same shard geometry, different index, overlapping indices is
        # impossible from run_shard; fake the overlap via shards=3,
        # index 1 artifact carrying index-0 points is not constructible
        # either — so exercise the guard with a same-index duplicate
        # dressed as a different shard via payload surgery.
        from repro.core.sharding import (
            artifact_to_payload,
            payload_to_artifact,
        )

        payload = artifact_to_payload(mangled)
        payload["shard_index"] = 1
        with pytest.raises(GatherError, match="already-gathered"):
            gather.ingest(payload_to_artifact(payload))

    def test_incomplete_report_names_missing_indices(self):
        gather = IncrementalGather()
        gather.ingest(make_artifacts(3)[0])
        with pytest.raises(GatherError, match="missing point indices"):
            gather.report()


class TestDirectoryScan:
    def _write(self, directory, artifact):
        write_shard_artifact(
            directory / shard_filename(artifact.shards, artifact.shard_index),
            artifact,
        )

    def test_scan_ingests_only_new_files(self, tmp_path):
        artifacts = make_artifacts(2)
        self._write(tmp_path, artifacts[0])
        gather = IncrementalGather()
        assert gather.scan(tmp_path) == 1
        assert gather.scan(tmp_path) == 0  # nothing new
        self._write(tmp_path, artifacts[1])
        assert gather.scan(tmp_path) == 1
        assert gather.complete

    def test_pending_temp_files_are_progress_not_data(self, tmp_path):
        artifacts = make_artifacts(2)
        self._write(tmp_path, artifacts[0])
        (tmp_path / "shard-0001-of-0002.json.tmp").write_text(
            '{"form', encoding="utf-8"
        )
        gather = IncrementalGather()
        gather.scan(tmp_path)
        snapshot = gather.snapshot()
        assert snapshot.pending == ("shard-0001-of-0002.json.tmp",)
        assert snapshot.shards_seen == (0,)
        assert not snapshot.rejected

    def test_rejected_file_is_retried_and_healed(self, tmp_path):
        """A torn leftover is picked up the moment a queue retry
        atomically replaces it — no watcher restart needed."""
        artifacts = make_artifacts(2)
        self._write(tmp_path, artifacts[0])
        torn = tmp_path / shard_filename(2, 1)
        torn.write_text('{"format": "repro-sw', encoding="utf-8")
        gather = IncrementalGather()
        gather.scan(tmp_path)
        snapshot = gather.snapshot()
        assert len(snapshot.rejected) == 1
        assert snapshot.rejected[0][0] == torn.name
        assert not gather.complete
        # The retry heals the file in place (atomic replace)...
        self._write(tmp_path, artifacts[1])
        gather.scan(tmp_path)
        assert gather.snapshot().rejected == ()
        assert gather.complete

    def test_misplaced_artifact_is_retried_and_healed(self, tmp_path):
        """Two files that swapped frames are refused, not remembered:
        once the queue rewrites them, the next scan takes both and the
        report is the serial one."""
        artifacts, swapped = swapped_shards()
        write_all(tmp_path, swapped)
        gather = IncrementalGather()
        assert gather.scan(tmp_path) == 0
        rejected = gather.snapshot().rejected
        assert [name for name, _ in rejected] == [
            shard_filename(2, 0),
            shard_filename(2, 1),
        ]
        for _, reason in rejected:
            assert "where shard" in reason
            assert "re-run the shard" in reason
        assert not gather.complete
        write_all(tmp_path, artifacts)
        assert gather.scan(tmp_path) == 2
        assert gather.snapshot().rejected == ()
        serial = run_design_sweep(POINTS[:3], fixed_candidates)
        assert gather.report().rows == serial.rows

    def test_missing_directory_is_gather_error(self, tmp_path):
        gather = IncrementalGather()
        with pytest.raises(GatherError, match="does not exist"):
            gather.scan(tmp_path / "nope")


class TestOneShotGather:
    def test_round_trip_matches_serial(self, tmp_path):
        for artifact in make_artifacts(3):
            write_shard_artifact(
                tmp_path / shard_filename(3, artifact.shard_index),
                artifact,
            )
        report = gather_directory(tmp_path)
        serial = run_design_sweep(POINTS, fixed_candidates)
        assert report.rows == serial.rows

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(GatherError, match="no shard artifacts"):
            gather_directory(tmp_path)

    def test_strict_about_rejects(self, tmp_path):
        (tmp_path / shard_filename(1, 0)).write_text(
            "junk", encoding="utf-8"
        )
        with pytest.raises(GatherError, match="not valid JSON"):
            gather_directory(tmp_path)


class TestWatch:
    def test_watch_returns_when_the_last_artifact_lands(self, tmp_path):
        """Drive the poll loop with an injected sleep that publishes
        one artifact per tick — no real timing involved."""
        artifacts = make_artifacts(3)
        snapshots = []

        def sleep(seconds):
            index = len(
                [a for a in artifacts if a is None]
            )  # artifacts already published
            artifact = artifacts[index]
            write_shard_artifact(
                tmp_path / shard_filename(3, artifact.shard_index),
                artifact,
            )
            artifacts[index] = None

        report = watch_directory(
            tmp_path,
            sleep=sleep,
            on_snapshot=snapshots.append,
        )
        serial = run_design_sweep(POINTS, fixed_candidates)
        assert report.rows == serial.rows
        # One snapshot per scan: 3 empty-ish polls plus the final one.
        assert snapshots[-1].complete
        assert [s.covered_points for s in snapshots] == sorted(
            s.covered_points for s in snapshots
        )

    def test_watch_heals_a_misplaced_artifact(self, tmp_path):
        """The watch loop outlives two swapped files: the first scan
        rejects both, the rewrite lands during the sleep, the second
        scan completes the gather."""
        artifacts, swapped = swapped_shards()
        write_all(tmp_path, swapped)
        snapshots = []
        clock = iter(range(100))
        report = watch_directory(
            tmp_path,
            poll=1.0,
            timeout=10.0,
            clock=lambda: float(next(clock)),
            sleep=lambda seconds: write_all(tmp_path, artifacts),
            on_snapshot=snapshots.append,
        )
        serial = run_design_sweep(POINTS[:3], fixed_candidates)
        assert report.rows == serial.rows
        assert [len(s.rejected) for s in snapshots] == [2, 0]
        assert [s.covered_points for s in snapshots] == [0, 3]

    def test_timeout_names_whats_missing(self, tmp_path):
        artifacts = make_artifacts(3)
        write_shard_artifact(
            tmp_path / shard_filename(3, 0), artifacts[0]
        )
        clock = iter(range(100))
        with pytest.raises(GatherError, match="timed out") as excinfo:
            watch_directory(
                tmp_path,
                poll=1.0,
                timeout=3.0,
                clock=lambda: float(next(clock)),
                sleep=lambda seconds: None,
            )
        message = str(excinfo.value)
        assert "missing" in message

    def test_bad_poll_interval_rejected(self, tmp_path):
        with pytest.raises(GatherError, match="positive"):
            watch_directory(tmp_path, poll=0.0)
