"""The frame warehouse: content-addressed sweep materialisation.

The warehouse's contract is the queue fabric's, one level up: frame
files are immutable (their name *is* their content hash), the manifest
is the single mutable object and flips atomically, and existence means
completeness.  These tests pin the writer half — building, appending
shard artifacts, torn-file rejection, overlap refusal — plus the
:class:`~repro.core.warehouse.FrameCache` LRU the query tier leans on.
The reader/query semantics live in ``test_queryservice.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core.figure_of_merit import FomWeights
from repro.core.blobstore import content_digest
from repro.core.methodology import CandidateBuildUp
from repro.core.ranking import DecisionFrame
from repro.core.resultframe import ResultFrame
from repro.core.sharding import (
    ShardMergeError,
    payload_to_artifact,
    artifact_to_payload,
    run_shard,
    shard_filename,
    write_shard_artifact,
)
from repro.core.sweep import (
    DesignPoint,
    EvaluationCache,
    SweepGrid,
    evaluate_cells,
    run_design_sweep,
)
from repro.core.warehouse import (
    FrameCache,
    WarehouseError,
    WarehouseManifest,
    append_decision_frame,
    append_shard_artifact,
    build_warehouse,
    canonical_json,
    frame_filename,
    frame_payload,
    ingest_shard_directory,
    init_warehouse,
    load_warehouse,
    manifest_path,
    merge_decision_frames,
    read_warehouse_frame,
    read_warehouse_manifest,
)
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep

GRID = SweepGrid(volumes=(1e3, 2e3, 5e3, 1e4, 5e4, 1e5))


def _flow(area_cm2: float) -> ProductionFlow:
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


@pytest.fixture(scope="module")
def serial_report():
    return run_design_sweep(GRID, fixed_candidates)


@pytest.fixture(scope="module")
def artifacts():
    return [
        run_shard(GRID, fixed_candidates, shards=3, shard_index=i)
        for i in range(3)
    ]


class TestDecisionFrame:
    def test_from_cells_carries_ratio_columns(self, serial_report):
        dframe = evaluate_cells(
            GRID.points(), fixed_candidates, 0, FomWeights(), EvaluationCache()
        )
        assert dframe.frame == serial_report.frame
        assert len(dframe) == len(serial_report.frame)
        assert dframe.size_ratio.dtype == np.float64
        assert not dframe.size_ratio.flags.writeable
        assert np.all(dframe.size_ratio > 0)
        assert np.all(dframe.cost_ratio > 0)
        # The stored FoM must be reproducible from the stored inputs:
        # fom == perf**1 * (1/size)**1 * (1/cost)**1 at paper weights.
        recomputed = np.asarray(
            [
                p * (1.0 / s) * (1.0 / c)
                for p, s, c in zip(
                    dframe.frame.column("performance").tolist(),
                    dframe.size_ratio.tolist(),
                    dframe.cost_ratio.tolist(),
                )
            ]
        )
        assert recomputed.tolist() == (
            dframe.frame.column("figure_of_merit").tolist()
        )

    def test_point_of_row_repeats_indices(self, serial_report):
        dframe = evaluate_cells(
            GRID.points(), fixed_candidates, 0, FomWeights(), EvaluationCache()
        )
        point = dframe.point_of_row()
        assert point.shape == (len(dframe),)
        # Two candidates per point, canonical order.
        assert point.tolist() == [
            index // 2 for index in range(len(dframe))
        ]

    def test_from_artifact_needs_ratios(self, artifacts):
        payload = artifact_to_payload(artifacts[0])
        del payload["ratios"]
        with pytest.raises(ShardMergeError) as excinfo:
            payload_to_artifact(payload)
        assert "re-run" in str(excinfo.value)

    def test_merge_is_order_independent(self, artifacts, serial_report):
        frames = [a.dframe for a in artifacts]
        merged = merge_decision_frames(frames)
        shuffled = merge_decision_frames(frames[::-1])
        assert merged == shuffled
        assert merged.frame.to_json_columns() == (
            serial_report.frame.to_json_columns()
        )

    def test_merge_rejects_overlap(self, artifacts):
        frame = artifacts[0].dframe
        with pytest.raises(WarehouseError) as excinfo:
            merge_decision_frames([frame, frame])
        assert "overlap" in str(excinfo.value)


class TestFrameFiles:
    def test_payload_round_trips(self, artifacts, tmp_path):
        dframe = artifacts[0].dframe
        payload = frame_payload(
            dframe,
            fingerprint="f" * 16,
            order_digest="o" * 16,
            total_points=6,
        )
        digest = content_digest(payload)
        path = tmp_path / frame_filename(digest)
        path.write_text(canonical_json(payload) + "\n")
        loaded = read_warehouse_frame(path, expected_digest=digest)
        assert loaded == dframe

    def test_digest_mismatch_is_refused(self, artifacts, tmp_path):
        dframe = artifacts[0].dframe
        payload = frame_payload(
            dframe,
            fingerprint="f" * 16,
            order_digest="o" * 16,
            total_points=6,
        )
        path = tmp_path / "frame-bad.json"
        path.write_text(canonical_json(payload) + "\n")
        with pytest.raises(WarehouseError) as excinfo:
            read_warehouse_frame(path, expected_digest="0" * 16)
        assert "tampered or mispaired" in str(excinfo.value)

    def test_torn_file_is_refused(self, artifacts, tmp_path):
        dframe = artifacts[0].dframe
        payload = frame_payload(
            dframe,
            fingerprint="f" * 16,
            order_digest="o" * 16,
            total_points=6,
        )
        text = canonical_json(payload)
        path = tmp_path / "frame-torn.json"
        path.write_bytes(text.encode()[: len(text) // 2])
        with pytest.raises(WarehouseError):
            read_warehouse_frame(path)


class TestWriter:
    def test_build_matches_serial_sweep(self, tmp_path, serial_report):
        manifest = build_warehouse(
            tmp_path / "wh", GRID, fixed_candidates
        )
        assert manifest.complete
        assert manifest.covered_points == 6
        dframe = load_warehouse(tmp_path / "wh")
        assert dframe.frame.to_json_columns() == (
            serial_report.frame.to_json_columns()
        )

    def test_init_refuses_reinitialisation(self, tmp_path):
        init_warehouse(tmp_path, GRID)
        with pytest.raises(WarehouseError) as excinfo:
            init_warehouse(tmp_path, GRID)
        assert "already initialised" in str(excinfo.value)

    def test_shard_appends_reach_the_serial_frame(
        self, tmp_path, artifacts, serial_report
    ):
        init_warehouse(tmp_path, GRID)
        revisions = []
        for artifact in artifacts:
            manifest = append_shard_artifact(tmp_path, artifact)
            revisions.append(manifest.revision)
        assert revisions == [2, 3, 4]
        assert manifest.complete
        dframe = load_warehouse(tmp_path)
        assert dframe.frame.to_json_columns() == (
            serial_report.frame.to_json_columns()
        )

    def test_double_append_is_refused(self, tmp_path, artifacts):
        init_warehouse(tmp_path, GRID)
        append_shard_artifact(tmp_path, artifacts[0])
        with pytest.raises(WarehouseError) as excinfo:
            append_shard_artifact(tmp_path, artifacts[0])
        assert "already covers point index" in str(excinfo.value)

    def test_foreign_artifact_is_refused(self, tmp_path):
        init_warehouse(tmp_path, GRID)
        foreign = run_shard(
            SweepGrid(volumes=(123.0,)),
            fixed_candidates,
            shards=1,
            shard_index=0,
        )
        with pytest.raises(WarehouseError) as excinfo:
            append_shard_artifact(tmp_path, foreign)
        assert "fingerprint" in str(excinfo.value)

    def test_manifest_flip_is_atomic(self, tmp_path, artifacts):
        """No intermediate manifest state is ever on disk: the bytes
        at the manifest path always parse and always validate."""
        init_warehouse(tmp_path, GRID)
        path = manifest_path(tmp_path)
        before = path.read_bytes()
        append_shard_artifact(tmp_path, artifacts[0])
        after = path.read_bytes()
        assert before != after
        for raw in (before, after):
            json.loads(raw)  # both snapshots are complete documents
        # The referenced frame file landed before the manifest flipped.
        manifest = read_warehouse_manifest(tmp_path)
        for entry in manifest.frames:
            assert (tmp_path / entry.file).is_file()

    def test_ingest_directory_is_resumable(
        self, tmp_path, artifacts, serial_report
    ):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        for artifact in artifacts[:2]:
            write_shard_artifact(
                shard_dir / shard_filename(3, artifact.shard_index),
                artifact,
            )
        wh = tmp_path / "wh"
        manifest, appended, skipped = ingest_shard_directory(
            wh, shard_dir
        )
        assert len(appended) == 2 and not skipped
        assert not manifest.complete
        write_shard_artifact(
            shard_dir / shard_filename(3, artifacts[2].shard_index),
            artifacts[2],
        )
        manifest, appended, skipped = ingest_shard_directory(
            wh, shard_dir
        )
        assert len(appended) == 1 and len(skipped) == 2
        assert manifest.complete
        dframe = load_warehouse(wh)
        assert dframe.frame.to_json_columns() == (
            serial_report.frame.to_json_columns()
        )

    def test_ingest_refuses_a_foreign_artifact_on_covered_points(
        self, tmp_path, artifacts
    ):
        """A foreign artifact whose point indices the warehouse already
        covers used to be skipped as "already covered"."""
        shard_dir = tmp_path / "shards"
        for artifact in artifacts:
            write_shard_artifact(
                shard_dir / shard_filename(3, artifact.shard_index),
                artifact,
            )
        wh = tmp_path / "wh"
        ingest_shard_directory(wh, shard_dir)
        foreign = run_shard(
            SweepGrid(volumes=(123.0, 456.0)),
            fixed_candidates,
            shards=3,
            shard_index=0,
        )
        write_shard_artifact(shard_dir / shard_filename(3, 0), foreign)
        with pytest.raises(WarehouseError, match="different grids"):
            ingest_shard_directory(wh, shard_dir)

    def test_ingest_reads_each_artifact_once(
        self, tmp_path, artifacts, serial_report, monkeypatch
    ):
        """The artifact that initialises a new warehouse used to be read
        again as the loop's first; a re-ingest reads each one once."""
        from repro.core import warehouse

        shard_dir = tmp_path / "shards"
        for artifact in artifacts:
            write_shard_artifact(
                shard_dir / shard_filename(3, artifact.shard_index),
                artifact,
            )
        reads = []
        real = warehouse.read_shard_artifact

        def counting(path):
            reads.append(path.name)
            return real(path)

        monkeypatch.setattr(warehouse, "read_shard_artifact", counting)
        names = [shard_filename(3, i) for i in range(3)]
        for appended_names, skipped_names in ((names, []), ([], names)):
            reads.clear()
            manifest, appended, skipped = ingest_shard_directory(
                tmp_path / "wh", shard_dir
            )
            assert reads == names
            assert (appended, skipped) == (appended_names, skipped_names)
        assert manifest.revision == 4 and manifest.complete
        assert load_warehouse(tmp_path / "wh").frame.to_json_columns() == (
            serial_report.frame.to_json_columns()
        )

    @pytest.mark.parametrize("shards", [1, 3, 6])
    def test_ingest_reads_the_manifest_once(
        self, tmp_path, shards, monkeypatch
    ):
        """Each append used to re-read the manifest twice and rebuild
        the covered set from every frame entry; an ingest of K shards
        now reads it once, and writes the bytes one-by-one appends
        write."""
        from repro.core import warehouse

        shard_dir = tmp_path / "shards"
        for index in range(shards):
            write_shard_artifact(
                shard_dir / shard_filename(shards, index),
                run_shard(
                    GRID, fixed_candidates, shards=shards, shard_index=index
                ),
            )
        reference = tmp_path / "reference"
        init_warehouse(reference, GRID)
        for path in sorted(shard_dir.iterdir()):
            append_shard_artifact(
                reference, warehouse.read_shard_artifact(path)
            )

        reads = []
        real = warehouse.read_warehouse_manifest

        def counting(directory):
            reads.append(directory)
            return real(directory)

        monkeypatch.setattr(warehouse, "read_warehouse_manifest", counting)
        wh = tmp_path / "wh"
        manifest, appended, skipped = ingest_shard_directory(wh, shard_dir)
        assert len(reads) == 1
        assert (len(appended), skipped) == (shards, [])
        assert manifest == real(reference)
        assert manifest.covered == frozenset(range(len(GRID)))
        assert sorted(path.name for path in wh.iterdir()) == sorted(
            path.name for path in reference.iterdir()
        )
        written = manifest_path(wh).read_bytes()
        assert written == manifest_path(reference).read_bytes()

        reads.clear()
        manifest, appended, skipped = ingest_shard_directory(wh, shard_dir)
        assert len(reads) == 1
        assert (appended, len(skipped)) == ([], shards)
        assert manifest_path(wh).read_bytes() == written

    def test_append_reads_the_manifest_once(
        self, tmp_path, artifacts, monkeypatch
    ):
        from repro.core import warehouse

        init_warehouse(tmp_path, GRID)
        reads = []
        real = warehouse.read_warehouse_manifest

        def counting(directory):
            reads.append(directory)
            return real(directory)

        monkeypatch.setattr(warehouse, "read_warehouse_manifest", counting)
        manifest = append_shard_artifact(tmp_path, artifacts[0])
        assert len(reads) == 1
        assert manifest == real(tmp_path)
        assert manifest.covered == frozenset(artifacts[0].dframe.indices)
        # Handing the manifest over skips the read.
        append_shard_artifact(tmp_path, artifacts[1], manifest)
        assert len(reads) == 1

    def test_append_refuses_out_of_range_points(self, tmp_path, artifacts):
        init_warehouse(tmp_path, SweepGrid(volumes=GRID.volumes[:2]))
        with pytest.raises(WarehouseError) as excinfo:
            append_decision_frame(tmp_path, artifacts[2].dframe)
        assert str(excinfo.value) == (
            "frame carries point index 4, outside the 2-point grid"
        )

    def test_ingest_validates_each_frame_once(self, tmp_path, monkeypatch):
        """A K-shard ingest checks each new frame's indices on append
        and carries the covered set forward: it never re-walks every
        frame already in the warehouse (O(shard) per append, not
        O(K·N)).  A manifest read from disk is still fully checked."""
        grid = SweepGrid(volumes=tuple(1e3 * (i + 1) for i in range(64)))
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        for index in range(32):
            write_shard_artifact(
                shard_dir / shard_filename(32, index),
                run_shard(grid, fixed_candidates, shards=32, shard_index=index),
            )
        visits = []
        validate = WarehouseManifest.__post_init__

        def counting(manifest):
            visits.append(sum(len(entry.indices) for entry in manifest.frames))
            validate(manifest)

        monkeypatch.setattr(WarehouseManifest, "__post_init__", counting)
        manifest, appended, _ = ingest_shard_directory(
            tmp_path / "wh", shard_dir
        )
        assert manifest.complete and len(appended) == 32
        assert sum(visits) == 0
        on_disk = read_warehouse_manifest(tmp_path / "wh")
        assert visits[-1] == 64
        assert on_disk == manifest
        assert on_disk.covered == manifest.covered == frozenset(range(64))

    def test_append_refuses_a_frame_overlapping_itself(self, tmp_path):
        init_warehouse(tmp_path, GRID)
        dframe = evaluate_cells(
            GRID.points()[:1], fixed_candidates, 0, FomWeights(),
            EvaluationCache(),
        )
        doubled = DecisionFrame(
            ResultFrame.concat([dframe.frame, dframe.frame]),
            np.concatenate([dframe.size_ratio, dframe.size_ratio]),
            np.concatenate([dframe.cost_ratio, dframe.cost_ratio]),
            (0, 0),
            dframe.row_counts * 2,
        )
        with pytest.raises(WarehouseError, match="overlap on point index 0"):
            append_decision_frame(tmp_path, doubled)
        assert read_warehouse_manifest(tmp_path).frames == ()

    def test_ingest_empty_directory_is_an_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(WarehouseError):
            ingest_shard_directory(tmp_path / "wh", empty)


class TestFrameCache:
    def test_hits_and_misses(self, tmp_path, artifacts):
        init_warehouse(tmp_path, GRID)
        append_shard_artifact(tmp_path, artifacts[0])
        cache = FrameCache(capacity=4)
        first = load_warehouse(tmp_path, cache=cache)
        second = load_warehouse(tmp_path, cache=cache)
        assert first == second
        assert cache.misses == 1
        assert cache.hits == 1

    def test_capacity_one_evicts(self, tmp_path, artifacts):
        init_warehouse(tmp_path, GRID)
        for artifact in artifacts[:2]:
            append_shard_artifact(tmp_path, artifact)
        cache = FrameCache(capacity=1)
        load_warehouse(tmp_path, cache=cache)
        assert len(cache) == 1
        assert cache.misses == 2
        # Reloading re-reads at least the evicted frame.
        load_warehouse(tmp_path, cache=cache)
        assert cache.misses >= 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(WarehouseError):
            FrameCache(capacity=0)
        with pytest.raises(WarehouseError):
            FrameCache(capacity=True)


class TestRerankWeightRespectsPointAxis:
    def test_warehouse_of_weighted_grid_round_trips(self, tmp_path):
        """A grid with its own fom_weights axis builds and reloads
        byte-identically — the stored per-point ranking survives."""
        grid = SweepGrid(
            volumes=(1e3, 1e4),
            fom_weights=(None, FomWeights(performance=2.0)),
        )
        build_warehouse(tmp_path / "wh", grid, fixed_candidates)
        dframe = load_warehouse(tmp_path / "wh")
        fresh = run_design_sweep(grid, fixed_candidates)
        assert dframe.frame.to_json_columns() == (
            fresh.frame.to_json_columns()
        )
