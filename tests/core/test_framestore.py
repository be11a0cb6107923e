"""The out-of-core chunked frame store.

The load-bearing properties, checked with hypothesis:

* **byte identity** — for any rows, any chunk budget (including 1 and
  larger-than-the-frame) and any append granularity, the store's
  bridged frame, streamed CSV and chunk layout are bit-identical to
  the in-RAM reference;
* **chunked Pareto equivalence** — the carried-front kernel over any
  block cuts equals :func:`~repro.core.pareto.nondominated_mask` over
  the concatenated arrays, ties, NaNs and cross-chunk dominators
  included;
* **streaming merge** — for any shard count and any artifact order,
  :func:`merge_artifacts_to_store` reproduces
  :func:`~repro.core.sharding.merge_shard_artifacts` byte for byte
  (rows and merged cache statistics).

Around them: the atomic-publication discipline under fault injection
(a writer killed mid-chunk leaves absent-or-previous, never torn) and
the typed refusal of truncated, foreign or mispaired chunk files.
"""

from __future__ import annotations

import functools
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core import blobstore, executors, sharding
from repro.core.figure_of_merit import FomWeights
from repro.core.framestore import (
    CHUNK_FORMAT,
    MANIFEST_NAME,
    STORE_FORMAT,
    ChunkedFrameStore,
    FrameStoreError,
    chunked_nondominated_mask,
    merge_artifacts_to_store,
    spill_design_sweep,
)
from repro.core.methodology import CandidateBuildUp
from repro.core.pareto import nondominated_mask
from repro.core.resultframe import (
    ResultFrame,
    SweepRow,
    pack_column,
    unpack_column,
)
from repro.core.sharding import (
    GridIdentity,
    ShardMergeError,
    merge_shard_artifacts,
    run_shard,
    shard_filename,
    write_shard_artifact,
)
from repro.core.sweep import (
    MAX_ROWS_ENV,
    DesignPoint,
    SweepGrid,
    family_runs,
    max_rows_from_env,
    run_design_sweep,
)
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError

from pareto_reference import first_dominators

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

# Labels stay comma/newline-free so CSV lines stay parseable; the real
# axis labels never carry either.
labels = st.text(
    alphabet=st.characters(
        blacklist_characters=",\n\r", blacklist_categories=("Cs",)
    ),
    max_size=12,
)

rows_strategy = st.lists(
    st.builds(
        SweepRow,
        volume=finite_floats,
        substrate=labels,
        process=labels,
        tolerance=labels,
        q_model=labels,
        nre=labels,
        weights=labels,
        candidate=labels,
        performance=finite_floats,
        area_percent=finite_floats,
        cost_percent=finite_floats,
        figure_of_merit=finite_floats,
        is_winner=st.booleans(),
        on_pareto_front=st.booleans(),
    ),
    max_size=25,
)


def _spill(frame: ResultFrame, directory, budget: int, splits) -> ChunkedFrameStore:
    """Append ``frame`` in the given row-count granularity, finish."""
    store = ChunkedFrameStore.create(
        directory, max_rows_in_memory=budget
    )
    start = 0
    for size in splits:
        stop = min(start + size, len(frame))
        store.append(frame.take(np.arange(start, stop)))
        start = stop
        if start >= len(frame):
            break
    if start < len(frame):
        store.append(frame.take(np.arange(start, len(frame))))
    return store.finish()


class TestStoreByteIdentity:
    @settings(max_examples=60)
    @given(
        rows=rows_strategy,
        budget=st.integers(min_value=1, max_value=40),
        splits=st.lists(
            st.integers(min_value=1, max_value=9), max_size=30
        ),
    )
    def test_round_trip_any_budget_any_granularity(
        self, rows, budget, splits
    ):
        """to_frame/CSV are bit-identical for every spill schedule."""
        reference = ResultFrame.from_rows(rows)
        with tempfile.TemporaryDirectory() as tmp:
            store = _spill(reference, Path(tmp) / "store", budget, splits)
            assert store.to_frame() == reference
            assert list(store.csv_lines()) == reference.csv_lines()
            assert store.total_rows == len(reference)
            # The last chunk is the only one allowed to run short.
            sizes = [entry.rows for entry in store._entries]
            assert sizes[:-1] == [budget] * max(0, len(sizes) - 1)
            reopened = ChunkedFrameStore.open(Path(tmp) / "store")
            assert reopened.complete
            assert reopened.to_frame() == reference

    @settings(max_examples=40)
    @given(
        rows=rows_strategy,
        budget=st.integers(min_value=1, max_value=40),
        splits=st.lists(
            st.integers(min_value=1, max_value=9), max_size=30
        ),
    )
    def test_chunk_layout_independent_of_append_granularity(
        self, rows, budget, splits
    ):
        """Chunk digests depend only on the row stream and the budget."""
        reference = ResultFrame.from_rows(rows)
        with tempfile.TemporaryDirectory() as tmp:
            whole = _spill(
                reference, Path(tmp) / "a", budget, [len(reference) or 1]
            )
            pieces = _spill(reference, Path(tmp) / "b", budget, splits)
            assert [
                (entry.file, entry.digest, entry.rows)
                for entry in whole._entries
            ] == [
                (entry.file, entry.digest, entry.rows)
                for entry in pieces._entries
            ]

    def test_budget_larger_than_frame_is_one_chunk(self):
        frame = ResultFrame.from_rows(
            [_row(volume=float(i)) for i in range(5)]
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = _spill(frame, Path(tmp) / "s", 100, [5])
            assert store.chunk_count == 1
            assert store.to_frame() == frame

    def test_empty_appends_are_ignored(self, tmp_path):
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=3
        )
        store.append(ResultFrame.empty())
        store.finish()
        assert store.chunk_count == 0
        assert store.to_frame() == ResultFrame.empty()
        assert list(store.csv_lines()) == []

    def test_meta_survives_create_finish_open(self, tmp_path):
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=3, meta={"k": "v"}
        )
        store.finish(meta={"done": True})
        reopened = ChunkedFrameStore.open(tmp_path / "s")
        assert reopened.meta == {"k": "v", "done": True}


def _row(**overrides) -> SweepRow:
    """A fully-populated row with recognisable defaults."""
    base = dict(
        volume=1e4,
        substrate="pcb",
        process="none",
        tolerance="paper",
        q_model="paper",
        nre="paper",
        weights="paper",
        candidate="ref",
        performance=1.0,
        area_percent=100.0,
        cost_percent=100.0,
        figure_of_merit=1.0,
        is_winner=True,
        on_pareto_front=False,
    )
    base.update(overrides)
    return SweepRow(**base)


# Ties matter for Pareto semantics: sampled values collide often.
objective_floats = st.one_of(
    st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.25]),
    st.floats(min_value=0.01, max_value=2.0),
    st.just(float("nan")),
)


def _cut(arrays, cuts):
    """Split three aligned arrays at the same sorted cut points."""
    perf, size, cost = arrays
    bounds = sorted({min(c, len(perf)) for c in cuts} | {0, len(perf)})
    return [
        (perf[a:b], size[a:b], cost[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


class TestChunkedPareto:
    @settings(max_examples=200)
    @given(
        raw=st.lists(
            st.tuples(objective_floats, objective_floats, objective_floats),
            max_size=40,
        ),
        cuts=st.lists(
            st.integers(min_value=0, max_value=40), max_size=6
        ),
    )
    def test_equivalent_to_in_ram_kernel_for_any_cuts(self, raw, cuts):
        perf = np.array([r[0] for r in raw], dtype=np.float64)
        size = np.array([r[1] for r in raw], dtype=np.float64)
        cost = np.array([r[2] for r in raw], dtype=np.float64)
        expected = nondominated_mask(perf, size, cost)
        blocks = _cut((perf, size, cost), cuts)
        actual = chunked_nondominated_mask(blocks)
        assert np.array_equal(actual, expected)

    def test_dominator_in_earlier_chunk(self):
        """A block-0 front member kills a block-2 point."""
        perf = np.array([2.0, 1.0, 1.5])
        size = np.array([1.0, 5.0, 2.0])
        cost = np.array([1.0, 5.0, 2.0])
        blocks = _cut((perf, size, cost), [1, 2])
        mask = chunked_nondominated_mask(blocks)
        assert list(mask) == [True, False, False]
        # Attribution agrees: the in-RAM kernel blames point 0.
        dominators = first_dominators(perf, size, cost)
        assert dominators[2] == 0

    def test_late_chunk_retires_earlier_front_member(self):
        """A later block rewrites an already-emitted mask bit."""
        perf = np.array([1.0, 0.5, 2.0])
        size = np.array([2.0, 9.0, 1.0])
        cost = np.array([2.0, 9.0, 1.0])
        blocks = _cut((perf, size, cost), [1, 2])
        mask = chunked_nondominated_mask(blocks)
        # Point 0 led the front after block 0, then point 2 (better on
        # every objective) landed two blocks later and retired it.
        assert list(mask) == [False, False, True]
        dominators = first_dominators(perf, size, cost)
        assert dominators[0] == 2

    def test_duplicates_survive_across_chunks(self):
        perf = np.array([1.0, 1.0])
        size = np.array([1.0, 1.0])
        cost = np.array([1.0, 1.0])
        mask = chunked_nondominated_mask(_cut((perf, size, cost), [1]))
        assert list(mask) == [True, True]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(SpecificationError, match="equally-long"):
            chunked_nondominated_mask(
                [(np.zeros(2), np.zeros(3), np.zeros(2))]
            )

    def test_no_blocks_is_empty_mask(self):
        assert chunked_nondominated_mask([]).shape == (0,)


# -- streaming merge differential -------------------------------------

POINTS = [
    DesignPoint(volume=volume)
    for volume in (1e3, 2e3, 5e3, 1e4, 5e4, 1e5, 1e6)
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


@functools.lru_cache(maxsize=8)
def make_artifacts(shards: int) -> tuple:
    return tuple(
        run_shard(POINTS, fixed_candidates, shards=shards, shard_index=i)
        for i in range(shards)
    )


class TestStreamingMerge:
    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=5),
        budget=st.integers(min_value=1, max_value=20),
        order=st.permutations(list(range(5))),
    )
    def test_matches_in_ram_merge_for_any_order_and_budget(
        self, shards, budget, order
    ):
        artifacts = [
            make_artifacts(shards)[i] for i in order if i < shards
        ]
        reference = merge_shard_artifacts(artifacts)
        with tempfile.TemporaryDirectory() as tmp:
            store = merge_artifacts_to_store(
                artifacts, Path(tmp) / "store", budget
            )
            assert store.to_frame() == reference.frame
            assert list(store.csv_lines()) == reference.frame.csv_lines()
            assert store.meta["cache_stats"] == reference.cache_stats
            assert np.array_equal(
                store.pareto_mask(), reference.frame.pareto_mask()
            )

    def test_path_sources_round_trip_through_disk(self, tmp_path):
        artifacts = make_artifacts(3)
        paths = []
        for artifact in artifacts:
            path = tmp_path / shard_filename(3, artifact.shard_index)
            paths.append(write_shard_artifact(path, artifact))
        reference = merge_shard_artifacts(list(paths))
        store = merge_artifacts_to_store(paths, tmp_path / "store", 4)
        assert store.to_frame() == reference.frame
        assert store.meta["cache_stats"] == reference.cache_stats
        assert store.complete
        assert GridIdentity.from_payload(store.meta) == artifacts[0].grid

    def test_file_swapped_between_passes_is_refused(self, tmp_path):
        artifacts = make_artifacts(3)
        paths = [
            write_shard_artifact(
                tmp_path / shard_filename(3, artifact.shard_index), artifact
            )
            for artifact in artifacts
        ]

        def sources():
            # Shards 2 and 1 arrive early and are parked by their
            # points; shard 1's file changes before shard 0 lets the
            # merge reload it.
            yield paths[2]
            yield paths[1]
            paths[1].write_bytes(paths[2].read_bytes())
            yield paths[0]

        with pytest.raises(ShardMergeError, match="changed while"):
            merge_artifacts_to_store(sources(), tmp_path / "store", 4)

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ShardMergeError, match="no shard artifacts"):
            merge_artifacts_to_store([], tmp_path / "store", 4)

    def test_missing_shard_rejected_with_merge_message(self, tmp_path):
        artifacts = make_artifacts(3)
        with pytest.raises(ShardMergeError, match="missing"):
            merge_artifacts_to_store(
                artifacts[:2], tmp_path / "store", 4
            )

    def test_duplicate_shard_rejected(self, tmp_path):
        artifacts = make_artifacts(2)
        with pytest.raises(ShardMergeError, match="duplicated point"):
            merge_artifacts_to_store(
                [artifacts[0], artifacts[0], artifacts[1]],
                tmp_path / "store",
                4,
            )


class TestOneReadPerArtifact:
    """Both merges read a name-ordered shard directory once per
    artifact; sources out of point order are parked by their points
    and read at most twice."""

    @pytest.fixture
    def reads(self, monkeypatch):
        counts: Counter = Counter()
        read = sharding.read_shard_artifact

        def counting(path):
            counts[Path(path).name] += 1
            return read(path)

        monkeypatch.setattr(sharding, "read_shard_artifact", counting)
        return counts

    @staticmethod
    def _directory(tmp_path, shards=4):
        directory = tmp_path / "shards"
        for artifact in make_artifacts(shards):
            name = shard_filename(shards, artifact.shard_index)
            write_shard_artifact(directory / name, artifact)
        return sharding.find_shard_artifacts(directory)

    @pytest.mark.parametrize("spill", [False, True])
    def test_name_order_reads_each_artifact_once(
        self, tmp_path, reads, spill
    ):
        paths = self._directory(tmp_path)
        if spill:
            merge_artifacts_to_store(paths, tmp_path / "store", 3)
        else:
            merge_shard_artifacts(paths)
        assert reads == {path.name: 1 for path in paths}

    @pytest.mark.parametrize("spill", [False, True])
    def test_reversed_order_reads_each_artifact_at_most_twice(
        self, tmp_path, reads, spill
    ):
        paths = self._directory(tmp_path)
        reference = merge_shard_artifacts(paths)
        reads.clear()
        if spill:
            store = merge_artifacts_to_store(
                paths[::-1], tmp_path / "store", 3
            )
            assert list(store.csv_lines()) == reference.frame.csv_lines()
        else:
            assert merge_shard_artifacts(paths[::-1]) == reference
        assert set(reads) == {path.name for path in paths}
        assert max(reads.values()) == 2
        assert reads[paths[0].name] == 1


class TestSpillDesignSweep:
    def test_matches_run_design_sweep(self, tmp_path):
        report = run_design_sweep(POINTS, fixed_candidates)
        store = spill_design_sweep(
            POINTS, fixed_candidates, tmp_path / "store", max_rows_in_memory=3
        )
        assert store.to_frame() == report.frame
        assert store.meta["cache_stats"] == report.cache_stats
        assert store.winner_points() == len(POINTS)

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(SpecificationError, match="at least one"):
            spill_design_sweep(
                [], fixed_candidates, tmp_path / "s", max_rows_in_memory=3
            )

    def test_block_boundary_inside_a_family_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """Streaming blocks that cut volume families in two must spill
        the same files — chunks and manifest with its cache stats — as
        spilling the whole grid evaluated as one block."""
        grid = SweepGrid(
            volumes=(1e3, 1e4, 1e5), fom_weights=(None, FomWeights(cost=2.0))
        )
        # Volume-major order interleaves the two families; a 3-point
        # block ends mid-way through both of them.
        assert family_runs(grid.points()) == [[0, 2, 4], [1, 3, 5]]
        assert executors.STREAM_BLOCK >= len(grid.points())
        in_ram = spill_design_sweep(
            grid, volume_invariant_candidates, tmp_path / "in-ram", 5
        )
        monkeypatch.setattr(executors, "STREAM_BLOCK", 3)
        blocked = spill_design_sweep(
            grid, volume_invariant_candidates, tmp_path / "blocked", 5
        )
        assert blocked.meta["cache_stats"] == in_ram.meta["cache_stats"]
        assert _tree_bytes(tmp_path / "blocked") == _tree_bytes(
            tmp_path / "in-ram"
        )


def volume_invariant_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    """:func:`fixed_candidates`, declared volume-invariant."""
    return fixed_candidates(point)


volume_invariant_candidates.volume_invariant = True


def _tree_bytes(directory: Path) -> dict:
    return {
        path.name: path.read_bytes() for path in sorted(directory.iterdir())
    }


# -- fault injection ---------------------------------------------------


def _spilled_store(directory: Path) -> ChunkedFrameStore:
    frame = ResultFrame.from_rows(
        [_row(volume=float(i)) for i in range(10)]
    )
    return _spill(frame, directory, 3, [10])


class TestAtomicPublication:
    def test_writer_killed_before_chunk_lands(self, tmp_path, monkeypatch):
        """A crash writing the chunk file leaves the previous store."""
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=3
        )
        store.append(
            ResultFrame.from_rows([_row(volume=float(i)) for i in range(2)])
        )

        def explode(path, data):
            raise OSError("disk gone")

        # Every file (chunk blobs and manifests) lands through the one
        # publish seam.
        monkeypatch.setattr(blobstore, "publish_bytes", explode)
        with pytest.raises(OSError):
            store.append(
                ResultFrame.from_rows([_row(volume=99.0)])
            )
        monkeypatch.undo()
        survivor = ChunkedFrameStore.open(tmp_path / "s")
        assert survivor.chunk_count == 0
        assert survivor.total_rows == 0
        assert not survivor.complete

    def test_writer_killed_between_chunk_and_manifest(
        self, tmp_path, monkeypatch
    ):
        """An orphan chunk file never reaches readers: the manifest is
        the source of truth, and it still references only the chunks
        published before the crash."""
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=3
        )
        real = blobstore.publish_bytes

        def crash_on_manifest(path, data):
            if Path(path).name == MANIFEST_NAME:
                raise OSError("killed")
            real(path, data)

        monkeypatch.setattr(blobstore, "publish_bytes", crash_on_manifest)
        with pytest.raises(OSError):
            store.append(
                ResultFrame.from_rows(
                    [_row(volume=float(i)) for i in range(3)]
                )
            )
        monkeypatch.undo()
        # The chunk file landed but is unreferenced: absent-or-previous.
        assert list(tmp_path.glob("s/chunk-*.json"))
        survivor = ChunkedFrameStore.open(tmp_path / "s")
        assert survivor.chunk_count == 0
        assert survivor.total_rows == 0

    def test_interrupted_replace_leaves_no_tmp_litter(
        self, tmp_path, monkeypatch
    ):
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=2
        )

        def explode(src, dst):
            raise OSError("kill -9")

        monkeypatch.setattr(blobstore.os, "replace", explode)
        with pytest.raises(OSError):
            store.append(
                ResultFrame.from_rows(
                    [_row(volume=float(i)) for i in range(2)]
                )
            )
        monkeypatch.undo()
        assert not list(tmp_path.glob("s/*.tmp"))


class TestChunkRefusals:
    def test_truncated_chunk_refused(self, tmp_path):
        store = _spilled_store(tmp_path / "s")
        chunk = sorted((tmp_path / "s").glob("chunk-*.json"))[0]
        chunk.write_text(chunk.read_text()[:40], encoding="utf-8")
        with pytest.raises(FrameStoreError, match="not valid JSON"):
            store.to_frame()

    def test_foreign_format_refused(self, tmp_path):
        store = _spilled_store(tmp_path / "s")
        chunk = sorted((tmp_path / "s").glob("chunk-*.json"))[0]
        payload = json.loads(chunk.read_text(encoding="utf-8"))
        payload["format"] = "alien/9"
        chunk.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(
            FrameStoreError, match="unsupported frame chunk format"
        ):
            store.to_frame()

    def test_tampered_content_refused_by_digest(self, tmp_path):
        store = _spilled_store(tmp_path / "s")
        chunk = sorted((tmp_path / "s").glob("chunk-*.json"))[0]
        payload = json.loads(chunk.read_text(encoding="utf-8"))
        volume = unpack_column(
            payload["columns"]["volume"], np.float64, payload["rows"], "v"
        ).copy()
        volume[0] = 123456.0
        payload["columns"]["volume"] = pack_column(volume)
        chunk.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FrameStoreError, match="digest"):
            store.to_frame()

    def test_mispaired_chunk_files_refused(self, tmp_path):
        store = _spilled_store(tmp_path / "s")
        chunks = sorted((tmp_path / "s").glob("chunk-*.json"))
        assert len(chunks) >= 2
        a_text = chunks[0].read_text(encoding="utf-8")
        chunks[0].write_text(
            chunks[1].read_text(encoding="utf-8"), encoding="utf-8"
        )
        chunks[1].write_text(a_text, encoding="utf-8")
        with pytest.raises(FrameStoreError, match="digest"):
            store.to_frame()

    @pytest.mark.parametrize(
        "name",
        ["../other/{}", "/abs/{}", "sub/{}", "..\\{}", "", ".", ".."],
    )
    def test_chunk_outside_the_store_refused(self, tmp_path, name):
        """The regression: a manifest naming ``../other/chunk-….json``
        (digest intact) used to open, and ``to_frame()`` returned rows
        read from outside the store directory."""
        _spilled_store(tmp_path / "s")
        manifest = tmp_path / "s" / MANIFEST_NAME
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        chunk = payload["chunks"][0]["file"]
        (tmp_path / "other").mkdir()
        (tmp_path / "s" / chunk).rename(tmp_path / "other" / chunk)
        payload["chunks"][0]["file"] = name.format(chunk)
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FrameStoreError, match="bare file name"):
            ChunkedFrameStore.open(tmp_path / "s").to_frame()

    def test_missing_chunk_refused(self, tmp_path):
        store = _spilled_store(tmp_path / "s")
        sorted((tmp_path / "s").glob("chunk-*.json"))[0].unlink()
        with pytest.raises(FrameStoreError, match="cannot read"):
            store.to_frame()


class TestStoreContracts:
    def test_create_refuses_existing_store(self, tmp_path):
        ChunkedFrameStore.create(tmp_path / "s", max_rows_in_memory=3)
        with pytest.raises(FrameStoreError, match="already exists"):
            ChunkedFrameStore.create(
                tmp_path / "s", max_rows_in_memory=3
            )

    def test_create_refuses_stray_chunks(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "chunk-000000-dead.json").write_text("{}")
        with pytest.raises(FrameStoreError, match="crashed writer"):
            ChunkedFrameStore.create(
                tmp_path / "s", max_rows_in_memory=3
            )

    def test_append_after_finish_refused(self, tmp_path):
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=3
        )
        store.finish()
        with pytest.raises(FrameStoreError, match="complete"):
            store.append(ResultFrame.from_rows([_row()]))

    def test_double_finish_refused(self, tmp_path):
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=3
        )
        store.finish()
        with pytest.raises(FrameStoreError, match="already complete"):
            store.finish()

    def test_reading_with_unflushed_buffer_refused(self, tmp_path):
        store = ChunkedFrameStore.create(
            tmp_path / "s", max_rows_in_memory=10
        )
        store.append(ResultFrame.from_rows([_row()]))
        with pytest.raises(FrameStoreError, match="unflushed"):
            store.to_frame()

    @pytest.mark.parametrize("budget", [0, -1, 1.5, True, "3"])
    def test_bad_budget_refused(self, tmp_path, budget):
        with pytest.raises(FrameStoreError, match="positive integer"):
            ChunkedFrameStore.create(
                tmp_path / "s", max_rows_in_memory=budget
            )

    def test_open_refuses_missing_manifest(self, tmp_path):
        with pytest.raises(FrameStoreError, match="cannot read"):
            ChunkedFrameStore.open(tmp_path / "nope")

    def test_open_refuses_truncated_manifest(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / MANIFEST_NAME).write_text('{"format": ')
        with pytest.raises(FrameStoreError, match="not valid JSON"):
            ChunkedFrameStore.open(tmp_path / "s")

    def test_open_refuses_foreign_format(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / MANIFEST_NAME).write_text(
            json.dumps({"format": "alien/1"})
        )
        with pytest.raises(
            FrameStoreError, match="unsupported frame store format"
        ):
            ChunkedFrameStore.open(tmp_path / "s")

    def test_open_refuses_row_count_mismatch(self, tmp_path):
        _spilled_store(tmp_path / "s")
        manifest = tmp_path / "s" / MANIFEST_NAME
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        payload["total_rows"] += 1
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FrameStoreError, match="total_rows"):
            ChunkedFrameStore.open(tmp_path / "s")


class TestBufferCopies:
    """The writer copies each buffered row once: cutting one large frame
    into many chunks used to re-copy its unflushed tail at every chunk,
    O(F²/B) rows for an F-row frame at budget B."""

    ROWS, BUDGET = 10_000, 64

    @classmethod
    def _frame(cls) -> ResultFrame:
        rows = [_row(volume=float(i)) for i in range(8)]
        return ResultFrame.from_rows(rows).take(
            np.arange(cls.ROWS) % 8
        )

    def test_one_large_frame_is_copied_once(self, tmp_path, monkeypatch):
        frame = self._frame()
        taken = []
        real = ResultFrame.take

        def counting(self, indices):
            taken.append(len(indices))
            return real(self, indices)

        monkeypatch.setattr(ResultFrame, "take", counting)
        store = ChunkedFrameStore.create(
            tmp_path / "one", max_rows_in_memory=self.BUDGET
        )
        store.append(frame)
        store.finish()
        monkeypatch.undo()
        assert sum(taken) <= self.ROWS
        assert store.chunk_count == -(-self.ROWS // self.BUDGET)
        assert store.to_frame() == frame

    def test_chunk_bytes_do_not_depend_on_append_size(self, tmp_path):
        frame = self._frame()
        one = _spill(frame, tmp_path / "one", self.BUDGET, [self.ROWS])
        pieces = _spill(frame, tmp_path / "pieces", self.BUDGET, [37] * 300)
        names = sorted(path.name for path in one.directory.iterdir())
        assert names == sorted(
            path.name for path in pieces.directory.iterdir()
        )
        for name in names:
            assert (one.directory / name).read_bytes() == (
                pieces.directory / name
            ).read_bytes()


class TestMaxRowsEnv:
    def test_unset_or_blank_means_in_ram(self, monkeypatch):
        monkeypatch.delenv(MAX_ROWS_ENV, raising=False)
        assert max_rows_from_env() is None
        monkeypatch.setenv(MAX_ROWS_ENV, "   ")
        assert max_rows_from_env() is None

    def test_positive_budget_parses(self, monkeypatch):
        monkeypatch.setenv(MAX_ROWS_ENV, "8")
        assert max_rows_from_env() == 8

    @pytest.mark.parametrize("raw", ["0", "-3", "eight", "1.5"])
    def test_garbage_is_loud(self, monkeypatch, raw):
        monkeypatch.setenv(MAX_ROWS_ENV, raw)
        with pytest.raises(SpecificationError, match=MAX_ROWS_ENV):
            max_rows_from_env()
