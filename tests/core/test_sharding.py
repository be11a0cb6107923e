"""The cross-host sharding layer.

The load-bearing property, checked exhaustively with hypothesis: for
*any* shard count and *any* order the shard artifacts come back in —
including a round-trip through their JSON serialisation — the merged
rows are byte-identical to what
:func:`~repro.core.sweep.run_design_sweep` produces on the same grid.  Around it: content addressing (grid fingerprints),
merge rejection of missing/duplicated/foreign shards with actionable
messages, and the shard-merge semantics of the
:class:`~repro.core.sweep.EvaluationCache` statistics (counters
additive, shared entries counted once).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core.figure_of_merit import FomWeights
from repro.core.methodology import CandidateBuildUp
from repro.core.gather import gather_directory
from repro.core.blobstore import ArtifactState, artifact_state, pending_path
from repro.core.queue import manifest_for_grid, run_queue_worker, write_manifest
from repro.core.resultframe import (
    BOOL_COLUMNS,
    pack_column,
    unpack_column,
)
from repro.core.sharding import (
    SHARD_FORMAT,
    ShardMergeError,
    artifact_to_payload,
    find_pending_artifacts,
    find_shard_artifacts,
    merge_cache_states,
    merge_shard_artifacts,
    payload_to_artifact,
    read_shard_artifact,
    run_shard,
    shard_filename,
    shard_indices,
    summarise_indices,
    summarise_missing,
    write_shard_artifact,
)
from repro.core.grid import DesignPoint, grid_fingerprint
from repro.core.sweep import EvaluationCache, run_design_sweep
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError

from sharded_reference import ShardedExecutor, merge_caches

POINTS = [
    DesignPoint(volume=volume)
    for volume in (1e3, 2e3, 5e3, 1e4, 5e4, 1e5, 1e6)
]


def _flow(area_cm2: float) -> ProductionFlow:
    """A minimal carrier-plus-test production flow."""
    flow = ProductionFlow(name="toy")
    flow.add(CarrierStep("ID1", "carrier", unit_cost=10.0 + area_cm2))
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def fixed_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    """Cheap two-candidate factory (no MNA), shared by every test."""
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


@functools.lru_cache(maxsize=1)
def serial_rows() -> tuple:
    """The reference rows every shard/merge combination must hit."""
    return run_design_sweep(POINTS, fixed_candidates).rows


def make_artifacts(shards: int) -> list:
    return [
        run_shard(POINTS, fixed_candidates, shards=shards, shard_index=i)
        for i in range(shards)
    ]


class TestShardIndices:
    def test_partition_is_exact_and_ordered(self):
        for shards in range(1, 11):
            covered = [
                i
                for shard in range(shards)
                for i in shard_indices(len(POINTS), shards, shard)
            ]
            assert covered == list(range(len(POINTS)))

    def test_shards_beyond_points_are_empty(self):
        assert list(shard_indices(2, 4, 3)) == []
        assert len(shard_indices(2, 4, 0)) == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(SpecificationError):
            shard_indices(5, 0, 0)
        with pytest.raises(SpecificationError):
            shard_indices(5, 2, 2)
        with pytest.raises(SpecificationError):
            shard_indices(5, 2, -1)


class TestFingerprint:
    def test_invariant_under_point_reordering(self):
        """Axis reordering must not change the grid's shard address."""
        assert grid_fingerprint(POINTS) == grid_fingerprint(
            list(reversed(POINTS))
        )

    def test_different_grids_differ(self):
        other = POINTS[:-1] + [DesignPoint(volume=7e7)]
        assert grid_fingerprint(POINTS) != grid_fingerprint(other)


class TestMergeIdentity:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_shard_count_and_order_merges_byte_identical(self, data):
        """The tentpole property: shards → merge == serial, exactly."""
        shards = data.draw(st.integers(1, 9), label="shards")
        artifacts = make_artifacts(shards)
        order = data.draw(
            st.permutations(range(shards)), label="artifact order"
        )
        merged = merge_shard_artifacts([artifacts[i] for i in order])
        assert merged.rows == serial_rows()

    @settings(max_examples=15, deadline=None)
    @given(shards=st.integers(1, 6))
    def test_json_round_trip_preserves_every_byte(self, shards):
        """Artifacts survive serialisation with exact floats."""
        artifacts = [
            payload_to_artifact(
                json.loads(json.dumps(artifact_to_payload(artifact)))
            )
            for artifact in make_artifacts(shards)
        ]
        merged = merge_shard_artifacts(artifacts)
        assert merged.rows == serial_rows()

    def test_single_artifact_out_of_point_order_is_sorted(self):
        """One artifact listing its points in reverse still merges into
        canonical point order."""
        payload = artifact_to_payload(make_artifacts(1)[0])
        counts = payload["row_counts"]
        starts = [sum(counts[:k]) for k in range(len(counts))]
        rows = [
            row
            for start, count in reversed(list(zip(starts, counts)))
            for row in range(start, start + count)
        ]
        for section in (payload["columns"], payload["ratios"]):
            for name, values in section.items():
                if isinstance(values, list):
                    section[name] = [values[row] for row in rows]
                else:
                    dtype = bool if name in BOOL_COLUMNS else np.float64
                    column = unpack_column(values, dtype, len(rows), name)
                    section[name] = pack_column(column[rows])
        payload["indices"].reverse()
        counts.reverse()
        merged = merge_shard_artifacts([payload_to_artifact(payload)])
        assert merged.rows == serial_rows()

    def test_mixed_producers_merge(self):
        """Shards cut by hosts with different cache histories still
        merge identically."""
        warm = EvaluationCache()
        run_design_sweep(POINTS, fixed_candidates, cache=warm)
        first = run_shard(
            POINTS, fixed_candidates, shards=2, shard_index=0, cache=warm
        )
        second = run_shard(
            POINTS, fixed_candidates, shards=2, shard_index=1
        )
        merged = merge_shard_artifacts([second, first])
        assert merged.rows == serial_rows()

    def test_file_round_trip(self, tmp_path):
        for artifact in make_artifacts(3):
            write_shard_artifact(
                tmp_path
                / shard_filename(artifact.shards, artifact.shard_index),
                artifact,
            )
        paths = find_shard_artifacts(tmp_path)
        assert [p.name for p in paths] == [
            "shard-0000-of-0003.json",
            "shard-0001-of-0003.json",
            "shard-0002-of-0003.json",
        ]
        merged = merge_shard_artifacts(paths)
        assert merged.rows == serial_rows()
        # A merged report has no cells, but winner counts still work
        # (one winning row per grid point).
        assert sum(merged.winner_counts().values()) == len(POINTS)

    def test_empty_shards_merge_cleanly(self):
        """More shards than points: trailing artifacts carry nothing."""
        two_points = POINTS[:2]
        artifacts = [
            run_shard(two_points, fixed_candidates, shards=4, shard_index=i)
            for i in range(4)
        ]
        assert [len(a.dframe.indices) for a in artifacts] == [1, 1, 0, 0]
        merged = merge_shard_artifacts(artifacts)
        reference = run_design_sweep(two_points, fixed_candidates)
        assert merged.rows == reference.rows


class TestSummariseMissing:
    """Missing indices are read off the gaps between covered ones."""

    @settings(max_examples=200, deadline=None)
    @given(
        total=st.integers(min_value=1, max_value=80),
        limit=st.integers(min_value=1, max_value=25),
        data=st.data(),
    )
    def test_matches_listing_every_missing_index(self, total, limit, data):
        covered = sorted(
            data.draw(st.sets(st.integers(min_value=0, max_value=total - 1)))
        )
        missing = sorted(set(range(total)) - set(covered))
        assert summarise_missing(covered, total, limit) == (
            summarise_indices(missing, limit)
        )


class TestMergeRejection:
    def test_empty_artifact_set(self):
        with pytest.raises(ShardMergeError, match="no shard artifacts"):
            merge_shard_artifacts([])

    def test_missing_shard_names_the_gap(self):
        artifacts = make_artifacts(3)
        with pytest.raises(ShardMergeError) as excinfo:
            merge_shard_artifacts([artifacts[0], artifacts[2]])
        message = str(excinfo.value)
        assert "missing" in message
        missing = list(artifacts[1].dframe.indices)
        assert ", ".join(str(i) for i in missing) in message

    def test_duplicated_shard_names_the_indices(self):
        artifacts = make_artifacts(2)
        with pytest.raises(ShardMergeError) as excinfo:
            merge_shard_artifacts(
                [artifacts[0], artifacts[0], artifacts[1]]
            )
        message = str(excinfo.value)
        assert "duplicated" in message
        assert str(artifacts[0].dframe.indices[0]) in message

    def test_reordered_grid_rejected_by_order_digest(self):
        """Same point set, different axis order: indices don't line up.

        The fingerprint matches (content addressing is order-blind),
        so without the order digest this would merge into a silently
        wrong report — volume 1e3 twice, 1e6 never.
        """
        reordered = list(reversed(POINTS))
        ours = run_shard(POINTS, fixed_candidates, shards=2, shard_index=0)
        theirs = run_shard(
            reordered, fixed_candidates, shards=2, shard_index=1
        )
        assert ours.grid.fingerprint == theirs.grid.fingerprint
        with pytest.raises(ShardMergeError, match="different point order"):
            merge_shard_artifacts([ours, theirs])

    def test_foreign_grid_rejected_by_fingerprint(self):
        other_points = POINTS[:-1] + [DesignPoint(volume=7e7)]
        ours = make_artifacts(2)
        theirs = run_shard(
            other_points, fixed_candidates, shards=2, shard_index=1
        )
        with pytest.raises(ShardMergeError, match="different grids"):
            merge_shard_artifacts([ours[0], theirs])

    def test_grid_size_disagreement_rejected(self):
        # Same fingerprint is impossible for different sizes, so build
        # the conflict directly at the payload level.
        artifacts = make_artifacts(2)
        payload = artifact_to_payload(artifacts[1])
        payload["total_points"] = 99
        payload["fingerprint"] = artifacts[0].grid.fingerprint
        payload["order_digest"] = artifacts[0].grid.order_digest
        with pytest.raises(ShardMergeError, match="grid size"):
            merge_shard_artifacts(
                [artifacts[0], payload_to_artifact(payload)]
            )

    def test_out_of_range_index_rejected(self):
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        payload["indices"][0] = len(POINTS) + 3
        with pytest.raises(ShardMergeError, match="outside"):
            merge_shard_artifacts([payload_to_artifact(payload)])

    def test_row_count_frame_mismatch_rejected(self):
        """Row counts must tie every frame row to a grid point."""
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        payload["row_counts"][0] += 1
        with pytest.raises(ShardMergeError, match="malformed"):
            payload_to_artifact(payload)

    def test_missing_column_rejected(self):
        """A columnar payload without every SweepRow column is junk."""
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        del payload["columns"]["figure_of_merit"]
        with pytest.raises(ShardMergeError, match="malformed"):
            payload_to_artifact(payload)

    def test_ragged_columns_rejected(self):
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        volume = unpack_column(
            payload["columns"]["volume"], np.float64, len(artifact.dframe), "v"
        )
        payload["columns"]["volume"] = pack_column(np.append(volume, 1.0))
        with pytest.raises(ShardMergeError, match="malformed"):
            payload_to_artifact(payload)

    def test_wrong_typed_column_values_rejected(self):
        """A non-numeric metric cell is a ShardMergeError, not a
        numpy ValueError traceback."""
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        payload["columns"]["volume"] = ["abc"] * len(artifact.dframe)
        with pytest.raises(ShardMergeError, match="malformed"):
            payload_to_artifact(payload)

    def test_wrong_typed_geometry_rejected(self):
        """String/float shards, shard_index or total_points must die in
        validation, not crash the merge's numpy comparisons."""
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        for field_name, bad in (
            ("total_points", "12"),
            ("total_points", 12.0),
            ("shards", 0),
            ("shard_index", -1),
            ("shard_index", "0"),
        ):
            corrupt = json.loads(json.dumps(payload))
            corrupt[field_name] = bad
            with pytest.raises(ShardMergeError, match="malformed"):
                payload_to_artifact(corrupt)

    def test_negative_or_float_row_counts_rejected(self):
        """Counts feed np.repeat: a negative or fractional count must
        die in validation, not crash (or silently truncate) the merge."""
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        for bad_first in (-1, 2.5, "2"):
            corrupt = json.loads(json.dumps(payload))
            counts = corrupt["row_counts"]
            counts[0] = bad_first
            # Rebalance so the sum check alone cannot catch the -1.
            if bad_first == -1:
                counts[1] += 3
            with pytest.raises(ShardMergeError, match="malformed"):
                payload_to_artifact(corrupt)

    def test_non_bool_flag_values_rejected(self):
        """'false' must not truthiness-coerce into a True winner flag."""
        artifact = make_artifacts(1)[0]
        payload = artifact_to_payload(artifact)
        payload["columns"]["is_winner"] = [
            "false" for _ in payload["columns"]["is_winner"]
        ]
        with pytest.raises(ShardMergeError, match="malformed"):
            payload_to_artifact(payload)

    @pytest.mark.parametrize(
        "cache",
        [
            [],
            {"tables": []},
            {"tables": {"area": []}},
            {"tables": {"area": {"hits": "x", "misses": 0, "keys": []}}},
            {"tables": {"area": {"hits": 0, "misses": True, "keys": []}}},
            {"tables": {"cost": {"hits": 0, "misses": 0, "keys": 5}}},
            {"tables": {"cost": {"hits": 0, "misses": 0, "keys": [7]}}},
            {"tables": {"cost": {"hits": 0, "keys": []}}},
        ],
    )
    def test_malformed_cache_section_rejected(self, cache):
        """The cache section must be a portable cache state; anything
        else used to crash merge_cache_states with a raw error."""
        payload = artifact_to_payload(make_artifacts(1)[0])
        payload["cache"] = cache
        with pytest.raises(ShardMergeError, match="malformed shard artifact"):
            merge_shard_artifacts([payload_to_artifact(payload)])

    def test_unknown_format_rejected(self):
        payload = artifact_to_payload(make_artifacts(1)[0])
        payload["format"] = "repro-sweep-shard/99"
        with pytest.raises(ShardMergeError, match=SHARD_FORMAT):
            payload_to_artifact(payload)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "shard-0000-of-0001.json"
        path.write_text("not json{", encoding="utf-8")
        with pytest.raises(ShardMergeError, match="not valid JSON"):
            read_shard_artifact(path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ShardMergeError, match="does not exist"):
            find_shard_artifacts(tmp_path / "nope")


class TestAtomicWrite:
    """The torn-artifact fix: publication is rename, never in place.

    The regression these tests pin down: the old writer streamed JSON
    straight into the destination, so a concurrent reader (or a crash)
    could observe a prefix of the file — valid-looking bytes, torn
    payload.  With the tmp + ``os.replace`` protocol the destination
    path must be absent or fully valid at every instant, no matter
    where the writer dies.
    """

    def _truncating_dump(self, monkeypatch, after_chars: int):
        """Make the artifact's single write die after ``after_chars``
        characters (simulated kill mid-serialisation)."""
        real_open = Path.open

        class TornHandle:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._inner.close()
                return False

            def write(self, text):
                self._inner.write(text[:after_chars])
                raise RuntimeError("injected kill mid-serialisation")

        def torn_open(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            return TornHandle(handle) if "w" in mode else handle

        monkeypatch.setattr(Path, "open", torn_open)

    def test_interrupted_write_leaves_destination_absent(
        self, tmp_path, monkeypatch
    ):
        artifact = make_artifacts(1)[0]
        path = tmp_path / shard_filename(1, 0)
        self._truncating_dump(monkeypatch, after_chars=40)
        with pytest.raises(RuntimeError, match="injected kill"):
            write_shard_artifact(path, artifact)
        # Absent-or-fully-valid: the destination never existed, and
        # the failed write cleaned up its temp file too.
        assert artifact_state(path) is ArtifactState.ABSENT
        assert not path.exists()
        assert not pending_path(path).exists()

    def test_interrupted_overwrite_preserves_previous_artifact(
        self, tmp_path, monkeypatch
    ):
        """Replacing a valid artifact can only succeed or change nothing."""
        artifact = make_artifacts(1)[0]
        path = tmp_path / shard_filename(1, 0)
        write_shard_artifact(path, artifact)
        before = path.read_bytes()
        self._truncating_dump(monkeypatch, after_chars=40)
        with pytest.raises(RuntimeError, match="injected kill"):
            write_shard_artifact(path, artifact)
        assert path.read_bytes() == before
        merged = merge_shard_artifacts([read_shard_artifact(path)])
        assert merged.rows == serial_rows()

    def test_state_protocol_absent_pending_complete(self, tmp_path):
        artifact = make_artifacts(1)[0]
        path = tmp_path / shard_filename(1, 0)
        assert artifact_state(path) is ArtifactState.ABSENT
        # A writer mid-flight: only the temp sibling exists.
        pending_path(path).write_text('{"form', encoding="utf-8")
        assert artifact_state(path) is ArtifactState.PENDING
        # Readers scanning the directory must not pick the temp file
        # up as an artifact — that is the whole point of the suffix.
        assert find_shard_artifacts(tmp_path) == []
        assert [p.name for p in find_pending_artifacts(tmp_path)] == [
            "shard-0000-of-0001.json.tmp"
        ]
        write_shard_artifact(path, artifact)
        assert artifact_state(path) is ArtifactState.COMPLETE
        assert find_shard_artifacts(tmp_path) == [path]

    def test_write_read_round_trip_after_interruption(
        self, tmp_path, monkeypatch
    ):
        """A retried write after a kill produces a fully valid artifact."""
        artifact = make_artifacts(1)[0]
        path = tmp_path / shard_filename(1, 0)
        self._truncating_dump(monkeypatch, after_chars=10)
        with pytest.raises(RuntimeError):
            write_shard_artifact(path, artifact)
        monkeypatch.undo()
        write_shard_artifact(path, artifact)
        assert read_shard_artifact(path).dframe.indices == (
            artifact.dframe.indices
        )

    def test_torn_multibyte_utf8_is_merge_error(self, tmp_path):
        """A file cut mid multi-byte character (legacy torn write) must
        raise ShardMergeError, not a UnicodeDecodeError traceback."""
        path = tmp_path / shard_filename(1, 0)
        artifact = make_artifacts(1)[0]
        write_shard_artifact(path, artifact)
        data = path.read_bytes()
        # Truncate mid multi-byte sequence: append a lone continuation
        # lead byte so decoding (not just JSON parsing) fails.
        path.write_bytes(data[: len(data) // 2] + b"\xc2")
        with pytest.raises(ShardMergeError, match="not valid UTF-8"):
            read_shard_artifact(path)


class _FaultPlanFactory:
    """Candidate factory that raises per a shard -> remaining-failures
    plan, simulating evaluations that die partway through the queue."""

    def __init__(self, plan: dict, n_points: int, shards: int):
        self.plan = plan
        self.shard_of_point = {}
        for shard in range(shards):
            for index in shard_indices(n_points, shards, shard):
                self.shard_of_point[index] = shard

    def __call__(self, point):
        index = next(
            i for i, candidate in enumerate(POINTS) if candidate == point
        )
        shard = self.shard_of_point[index]
        if self.plan.get(shard, 0) > 0:
            self.plan[shard] -= 1
            raise RuntimeError(f"injected fault on shard {shard}")
        return fixed_candidates(point)


class TestQueueFaultMatrix:
    """Kill/retry fault matrix over the queue + gather service tier.

    For any shard count, any per-shard injected-failure plan (within
    the retry budget) and optionally a dead worker's leftovers (stale
    lease + torn artifact), a worker draining the queue followed by a
    directory gather must reproduce the serial engine's bytes exactly
    — failure order can cost retries, never correctness.
    """

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_gather_byte_identical_to_serial_under_faults(
        self, data, tmp_path_factory
    ):
        shards = data.draw(st.integers(1, 5), label="shards")
        plan = {
            shard: data.draw(
                st.integers(0, 2), label=f"failures[{shard}]"
            )
            for shard in range(shards)
        }
        dead_worker_shard = data.draw(
            st.one_of(st.none(), st.integers(0, shards - 1)),
            label="dead worker shard",
        )
        directory = tmp_path_factory.mktemp("queue")
        manifest = manifest_for_grid(POINTS, shards=shards, max_attempts=3)
        manifest_path = write_manifest(
            directory / "manifest.json", manifest
        )
        if dead_worker_shard is not None:
            # A worker that died mid-shard: its lease expired long ago
            # and (pre-atomic-writes) it left torn bytes behind.  The
            # artifact name is claim-blocking only if it validates —
            # junk must be stolen and atomically replaced.
            lease = directory / (
                f"lease-{dead_worker_shard:04d}-of-{shards:04d}.json"
            )
            lease.write_text(
                json.dumps(
                    {"owner": "dead-host:1", "token": "t0", "expires": 1.0}
                ),
                encoding="utf-8",
            )
            torn = directory / shard_filename(shards, dead_worker_shard)
            torn.write_text('{"format": "repro-sw', encoding="utf-8")
        factory = _FaultPlanFactory(dict(plan), len(POINTS), shards)
        report = run_queue_worker(manifest_path, POINTS, factory)
        assert report.queue_drained
        assert not report.exhausted
        assert len(report.failures) == sum(plan.values())
        merged = gather_directory(directory, expected=manifest)
        assert merged.rows == serial_rows()

    def test_exhausted_shard_is_reported_not_raised(self, tmp_path):
        """A shard that fails more than max_attempts times poisons
        itself, not the fleet: the worker finishes the rest."""
        shards = 3
        manifest_path = write_manifest(
            tmp_path / "manifest.json",
            manifest_for_grid(POINTS, shards=shards, max_attempts=2),
        )
        factory = _FaultPlanFactory({1: 99}, len(POINTS), shards)
        report = run_queue_worker(manifest_path, POINTS, factory)
        assert report.exhausted == (1,)
        assert report.outstanding == (1,)
        assert not report.queue_drained
        assert sorted(report.evaluated) == [0, 2]
        # The retry budget bounds the damage.
        assert len(report.failures) == 2


class TestCacheStateMerge:
    """EvaluationCache statistics under cross-host shard merge."""

    def test_counters_additive_and_shared_entries_counted_once(self):
        # Both shards place the same two footprint sets (all volumes
        # share them), so each cold shard cache recomputes the same
        # two area entries: misses add up, the union stays at 2.
        artifacts = make_artifacts(2)
        merged = merge_shard_artifacts(artifacts)
        area = merged.cache_stats["tables"]["area"]
        assert area["misses"] == 4  # 2 candidates x 2 cold shard caches
        assert area["entries"] == 2  # ...but only 2 distinct sub-results
        # Cost keys depend on volume: every point's two evaluations
        # are distinct, nothing collapses.
        cost = merged.cache_stats["tables"]["cost"]
        assert cost["misses"] == 2 * len(POINTS)
        assert cost["entries"] == 2 * len(POINTS)
        # Totals mirror the per-table tallies.
        tables = merged.cache_stats["tables"].values()
        assert merged.cache_stats["hits"] == sum(
            table["hits"] for table in tables
        )

    def test_merged_stats_match_in_process_merge(self):
        """Artifact-level stats == the reference fold of the caches."""
        caches = [EvaluationCache() for _ in range(2)]
        artifacts = [
            run_shard(
                POINTS,
                fixed_candidates,
                shards=2,
                shard_index=i,
                cache=caches[i],
            )
            for i in range(2)
        ]
        parent = EvaluationCache()
        for cache in caches:
            merge_caches(parent, cache)
        via_artifacts = merge_cache_states(
            artifact.cache_state for artifact in artifacts
        )
        assert via_artifacts == parent.stats()

    def test_portable_state_digests_entries(self):
        cache = EvaluationCache()
        cache.cost_batch("flowA", [1.0], lambda missing: ["a"])
        cache.cost_batch("flowA", [1.0], lambda missing: ["a"])
        state = cache.portable_state()
        cost = state["tables"]["cost"]
        assert cost["hits"] == 1 and cost["misses"] == 1
        assert len(cost["keys"]) == 1
        # Digests, not raw keys: nothing content-bearing leaves the host.
        assert "flowA" not in cost["keys"][0]


class TestShardedExecutor:
    def test_matches_serial_for_every_shard_count(self):
        for shards in (1, 2, 3, 7, 12):
            dframe = ShardedExecutor(shards=shards).run_sweep(
                POINTS, fixed_candidates, 0, FomWeights(), EvaluationCache()
            )
            assert dframe.frame.to_rows() == serial_rows()

    def test_shared_cache_spans_shard_boundaries(self):
        """In-process sharding keeps memoisation across shards."""
        cache = EvaluationCache()
        ShardedExecutor(shards=3).run_sweep(
            POINTS, fixed_candidates, 0, FomWeights(), cache
        )
        serial_cache = EvaluationCache()
        run_design_sweep(POINTS, fixed_candidates, cache=serial_cache)
        assert cache.stats() == serial_cache.stats()

    def test_shard_count_validated(self):
        with pytest.raises(SpecificationError):
            ShardedExecutor(shards=0)
        assert ShardedExecutor(shards=5).shards == 5
        assert ShardedExecutor().shards >= 1
