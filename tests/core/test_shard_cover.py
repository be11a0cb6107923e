"""Every consumer of a shard directory against one model of its rules.

Five consumers read shard artifacts back: the in-RAM merge
(``merge_shard_artifacts``), the spilled merge
(``merge_artifacts_to_store``), the in-RAM gather (``gather_directory``),
the spilled gather (``gather_directory_to_store``) and the warehouse
ingest (``ingest_shard_directory``).  The hypothesis test below draws
shard directories with exactly one fault — a subset of the shards, a
renamed copy, a shard of another partition, a foreign, reordered or
resized grid, out-of-range point indices, two files that swapped their
frames but kept their headers — runs every consumer on the
same directory and checks each against a small model of its documented
rules: accept or refuse, the exception class and a message substring.
Consumers that promise the same answer must give it: the two merges
agree with each other, and so do the two gathers (exit status, message,
rows and cache statistics).
"""

from __future__ import annotations

import dataclasses
import functools
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core.framestore import merge_artifacts_to_store
from repro.core.gather import gather_directory, gather_directory_to_store
from repro.core.methodology import CandidateBuildUp
from repro.core.queue import manifest_for_grid
from repro.core.ranking import DecisionFrame
from repro.core.sharding import (
    GridIdentity,
    find_shard_artifacts,
    merge_shard_artifacts,
    run_shard,
    shard_filename,
    shard_indices,
    write_shard_artifact,
)
from repro.core.sweep import DesignPoint
from repro.core.warehouse import ingest_shard_directory
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep

POINTS = [
    DesignPoint(volume=volume) for volume in (1e3, 5e3, 1e4, 1e5, 1e6)
]
#: Another grid of the same size (one volume differs) and the same grid
#: enumerated in the opposite order.
GRIDS = {
    "home": POINTS,
    "foreign": POINTS[:-1] + [DesignPoint(volume=7e7)],
    "reordered": list(reversed(POINTS)),
}
TOTAL = len(POINTS)
#: Partitions up to more shards than points (empty shards included).
PARTITIONS = range(1, TOTAL + 3)


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


@functools.lru_cache(maxsize=None)
def shard(grid: str, shards: int, index: int):
    return run_shard(GRIDS[grid], fixed_candidates, shards, index)


def resized(artifact):
    """The artifact claiming a grid of another size."""
    grid = dataclasses.replace(artifact.grid, total_points=TOTAL + 3)
    return dataclasses.replace(artifact, grid=grid)


def shifted(artifact):
    """The artifact with every point index moved past the grid."""
    dframe = artifact.dframe
    moved = DecisionFrame(
        dframe.frame,
        dframe.size_ratio,
        dframe.cost_ratio,
        tuple(index + TOTAL for index in dframe.indices),
        dframe.row_counts,
    )
    return dataclasses.replace(artifact, dframe=moved)


# -- the drawn shard directories ---------------------------------------


@st.composite
def shard_directories(draw):
    """``(files, manifest_shards)``: the directory as ``{name: artifact}``
    with one fault at most, and the partition a queue manifest pins
    for the gathers (``None``: no manifest)."""
    shards = draw(st.sampled_from(PARTITIONS))
    files = {
        shard_filename(shards, index): shard("home", shards, index)
        for index in range(shards)
    }
    names = sorted(files)
    fault = draw(
        st.sampled_from(
            [
                "none",
                "subset",
                "copy",
                "extra-partition",
                "mixed-partition",
                "foreign",
                "reordered",
                "resized",
                "outside",
                "misplaced",
            ]
        )
    )
    if fault == "subset":
        keep = draw(st.lists(st.booleans(), min_size=shards, max_size=shards))
        files = {name: files[name] for name, kept in zip(names, keep) if kept}
    elif fault == "copy":
        name = draw(st.sampled_from(names))
        copy = draw(
            st.sampled_from(
                [name.replace(".json", "-copy.json"), "shard-copy.json"]
            )
        )
        files[copy] = files[name]
    elif fault in ("extra-partition", "mixed-partition"):
        other = draw(st.sampled_from([k for k in PARTITIONS if k != shards]))
        if fault == "extra-partition":
            index = draw(st.integers(0, other - 1))
            files[shard_filename(other, index)] = shard("home", other, index)
        else:
            # Swap one shard for the other partition's shards inside it:
            # a tiling cut from two partitions (or one with gaps).
            name = draw(st.sampled_from(names))
            inside = set(files.pop(name).dframe.indices)
            for index in range(other):
                cut = shard_indices(TOTAL, other, index)
                if cut and set(cut) <= inside:
                    files[shard_filename(other, index)] = shard(
                        "home", other, index
                    )
    elif fault in ("foreign", "reordered"):
        index = draw(st.integers(0, shards - 1))
        files[shard_filename(shards, index)] = shard(fault, shards, index)
    elif fault == "resized":
        name = draw(st.sampled_from(names))
        files[name] = resized(files[name])
    elif fault == "outside":
        filled = [name for name in names if files[name].dframe.indices]
        name = draw(st.sampled_from(filled))
        files[name] = shifted(files[name])
    elif fault == "misplaced":
        pairs = [
            (first, second)
            for first in names
            for second in names
            if first < second
            and files[first].dframe.indices != files[second].dframe.indices
        ]
        if pairs:  # one shard has nothing to swap with
            first, second = draw(st.sampled_from(pairs))
            files[first], files[second] = (
                dataclasses.replace(files[first], dframe=files[second].dframe),
                dataclasses.replace(files[second], dframe=files[first].dframe),
            )
    manifest = draw(st.sampled_from([None, shards]))
    return files, manifest


# -- the model of each consumer's rules --------------------------------


class Outcome(NamedTuple):
    """``error`` is the exception class name (``None``: accepted) and
    ``text`` a substring of its message."""

    error: Optional[str]
    text: str = ""


ACCEPTED = Outcome(None)


def grid_fault(found: GridIdentity, reference: GridIdentity) -> Optional[str]:
    if found.fingerprint != reference.fingerprint:
        return "different grids"
    if found.order_digest != reference.order_digest:
        return "different point order"
    if found.total_points != reference.total_points:
        return "grid size"
    return None


def misplaced(artifact) -> bool:
    """The artifact does not hold the points its header names."""
    shard = shard_indices(
        artifact.grid.total_points, artifact.shards, artifact.shard_index
    )
    return set(artifact.dframe.indices) != set(shard)


def merge_model(artifacts) -> Outcome:
    """Both merges: one grid, every point exactly once."""
    if not artifacts:
        return Outcome("ShardMergeError", "no shard artifacts")
    reference = artifacts[0].grid
    for artifact in artifacts:
        fault = grid_fault(artifact.grid, reference)
        if fault:
            return Outcome("ShardMergeError", fault)
    total = reference.total_points
    for artifact in artifacts:
        if any(index >= total for index in artifact.dframe.indices):
            return Outcome("ShardMergeError", "outside the")
    counts = Counter(i for a in artifacts for i in a.dframe.indices)
    if any(count > 1 for count in counts.values()):
        return Outcome("ShardMergeError", "duplicated point indices")
    if len(counts) != total:
        return Outcome("ShardMergeError", "missing point indices")
    if any(map(misplaced, artifacts)):
        return Outcome("ShardMergeError", "where shard")
    return ACCEPTED


def gather_model(artifacts, manifest_shards) -> Outcome:
    """Both gathers: artifacts in name order, each checked against
    those taken before it (or the manifest); a repeated shard index is
    dropped; the first refusal, else the gaps, decide."""
    reference, shards = None, manifest_shards
    if manifest_shards is not None:
        reference = GridIdentity.of(POINTS)
    seen: set[int] = set()
    covered: set[int] = set()
    taken, refusals = [], []
    for artifact in artifacts:
        indices = artifact.dframe.indices
        fault = reference and grid_fault(artifact.grid, reference)
        if not fault and shards is not None and artifact.shards != shards:
            fault = "different partition"
        if not fault and artifact.shard_index in seen:
            continue
        total = (reference or artifact.grid).total_points
        if not fault and any(index >= total for index in indices):
            fault = "outside the"
        if not fault and covered.intersection(indices):
            fault = "already-gathered"
        if fault:
            refusals.append(fault)
            continue
        if reference is None:
            reference, shards = artifact.grid, artifact.shards
        seen.add(artifact.shard_index)
        covered.update(indices)
        taken.append(artifact)
    if refusals:
        return Outcome("GatherError", refusals[0])
    if reference is None:
        return Outcome("GatherError", "no shard artifacts")
    if len(covered) != reference.total_points:
        return Outcome("GatherError", "missing point indices")
    if any(map(misplaced, taken)):
        return Outcome("GatherError", "where shard")
    return ACCEPTED


def ingest_model(artifacts) -> tuple[Outcome, list[int]]:
    """The warehouse ingest: fully covered artifacts are skipped,
    partial overlaps refused.  Also returns the positions appended."""
    if not artifacts:
        return Outcome("WarehouseError", "no shard artifacts"), []
    reference = artifacts[0].grid
    covered: set[int] = set()
    appended = []
    for position, artifact in enumerate(artifacts):
        indices = artifact.dframe.indices
        fault = grid_fault(artifact.grid, reference)
        if fault:
            return Outcome("WarehouseError", fault), appended
        if covered.issuperset(indices):
            continue
        if any(index >= reference.total_points for index in indices):
            return Outcome("WarehouseError", "outside the"), appended
        if covered.intersection(indices):
            return (
                Outcome("WarehouseError", "already covers point index"),
                appended,
            )
        covered.update(indices)
        appended.append(position)
    return ACCEPTED, appended


# -- running the consumers ---------------------------------------------


def run(consumer):
    """``(Outcome, result)``: what the consumer returned or raised."""
    try:
        return ACCEPTED, consumer()
    except Exception as exc:  # noqa: BLE001 - the class is the answer
        return Outcome(type(exc).__name__, str(exc)), None


def assert_matches(found: Outcome, expected: Outcome, consumer: str):
    assert found.error == expected.error, (consumer, found, expected)
    assert expected.text in found.text, (consumer, found, expected)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(directory=shard_directories())
def test_every_consumer_follows_its_rules(directory):
    files, manifest_shards = directory
    expected = (
        None
        if manifest_shards is None
        else manifest_for_grid(POINTS, shards=manifest_shards)
    )
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        shard_dir = scratch / "shards"
        shard_dir.mkdir()
        for name, artifact in files.items():
            write_shard_artifact(shard_dir / name, artifact)
        paths = find_shard_artifacts(shard_dir)
        artifacts = [files[path.name] for path in paths]

        merged, report = run(lambda: merge_shard_artifacts(paths))
        spilled, store = run(
            lambda: merge_artifacts_to_store(
                paths, scratch / "merge" / "store", 3
            )
        )
        assert_matches(merged, merge_model(artifacts), "merge")
        assert spilled == merged
        if store is None:  # a refused spill leaves no file or directory
            assert not (scratch / "merge").exists()
        if report is not None:
            assert list(store.csv_lines()) == report.frame.csv_lines()
            assert store.meta["cache_stats"] == report.cache_stats

        gathered, report = run(
            lambda: gather_directory(shard_dir, expected=expected)
        )
        spilled, store = run(
            lambda: gather_directory_to_store(
                shard_dir, scratch / "gather", 3, expected=expected
            )
        )
        assert_matches(
            gathered, gather_model(artifacts, manifest_shards), "gather"
        )
        assert spilled == gathered
        if report is not None:
            assert list(store.csv_lines()) == report.frame.csv_lines()
            assert store.meta["cache_stats"] == report.cache_stats

        model, appended = ingest_model(artifacts)
        ingested, result = run(
            lambda: ingest_shard_directory(scratch / "warehouse", shard_dir)
        )
        assert_matches(ingested, model, "ingest")
        if result is not None:
            manifest, names, skipped = result
            assert names == [paths[i].name for i in appended]
            assert len(names) + len(skipped) == len(paths)
            assert manifest.covered_points == sum(
                len(artifacts[i].dframe.indices) for i in appended
            )
