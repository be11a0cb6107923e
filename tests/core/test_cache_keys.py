"""The evaluation cache's content keys, locked byte for byte.

Shard artifacts carry the digests of a cache's entry keys and
``--cache-stats`` prints their counts, so the keys are a wire format.
The expected keys here are spelled out with the plain formulas:

* performance: ``repr(assignments)``;
* area: ``f"{rule!r}|{laminate!r}|{list(footprints)!r}"``;
* cost: ``f"{volume!r}|{flow!r}"``;

and compared with what the batched fill (``run_design_sweep``) and the
per-point reference (``tests/per_point.py``, single-volume
``cost_batch`` calls) leave in the cache.  A regression guard then
counts the key *builds* on a 256-point grid, a grid streamed in several
blocks and an adaptive run: every key is rendered once per distinct
input and cache, never once per lookup, block or pass, and no
per-volume cost key string exists until ``portable_state()`` spells it
out.  ``cache_state_golden.json`` pins ``portable_state()`` of fixed
runs byte for byte (``python tests/core/test_cache_keys.py --write``
rewrites it, for an intended key change only).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.area.footprint import Footprint
from repro.area.placement import trivial_placement
from repro.area.substrate import MCM_D_FINE_RULE
from repro.circuits.qfactor import SkinEffectQModel
from repro.core.adaptive import run_adaptive_sweep
from repro.core.figure_of_merit import FomWeights
from repro.core.executors import STREAM_BLOCK
from repro.core.sweep import (
    AREA_KEY_MEMO_SIZE,
    CACHE_TABLES,
    DesignPoint,
    EvaluationCache,
    SweepGrid,
    cache_key_digest,
    run_design_sweep,
    stream_design_sweep,
)
from repro.gps.study import run_adaptive_gps_sweep, sweep_candidates
from repro.passives.thin_film import SI3N4_PROCESS
from repro.passives.tolerance import MATCHING_CLASS, PRECISION_CLASS

from per_point import per_point_frame
from sharded_reference import merge_caches

#: ``portable_state()`` of the :func:`cache_states` runs.
GOLDEN = Path(__file__).with_name("cache_state_golden.json")

#: 2 substrates x 2 processes x 2 tolerances x 2 Q models, with the
#: volumes given as an int, a float and a numpy float.
MIXED_GRID = SweepGrid(
    volumes=(1000, 25_000.0, np.float64(4e5)),
    substrates=(None, MCM_D_FINE_RULE),
    processes=(None, SI3N4_PROCESS),
    tolerances=(None, PRECISION_CLASS),
    q_models=(None, SkinEffectQModel()),
)

#: One coordinate spelled three ways: equal values, distinct reprs, so
#: three distinct cost entries per flow.
SPELLINGS = [
    DesignPoint(volume=10_000),
    DesignPoint(volume=10_000.0),
    DesignPoint(volume=np.float64(10_000.0)),
]


def expected_keys(points) -> dict[str, set[str]]:
    """Every table's entry keys, from the plain per-lookup formulas."""
    keys: dict[str, set[str]] = {name: set() for name in CACHE_TABLES}
    for point in points:
        for candidate in sweep_candidates(point):
            keys["performance"].add(repr(candidate.filter_assignments))
            rule, laminate = candidate.substrate_rule, candidate.laminate
            footprints = list(candidate.footprints)
            keys["area"].add(f"{rule!r}|{laminate!r}|{footprints!r}")
            area = trivial_placement(footprints, rule, laminate)
            flow = candidate.flow_factory(area.substrate_area_cm2)
            keys["cost"].add(f"{point.volume!r}|{flow!r}")
    return keys


def expected_digests(points) -> dict[str, list[str]]:
    return {
        name: sorted(cache_key_digest(key) for key in keys)
        for name, keys in expected_keys(points).items()
    }


def batched_cache(points) -> EvaluationCache:
    cache = EvaluationCache()
    run_design_sweep(points, sweep_candidates, cache=cache)
    return cache


def per_point_cache(points) -> EvaluationCache:
    cache = EvaluationCache()
    per_point_frame(points, sweep_candidates, 0, FomWeights(), cache)
    return cache


def key_digests(cache: EvaluationCache) -> dict[str, list[str]]:
    state = cache.portable_state()["tables"]
    return {name: state[name]["keys"] for name in CACHE_TABLES}


@pytest.mark.parametrize(
    "points",
    [MIXED_GRID.points(), SPELLINGS],
    ids=["mixed-grid", "volume-spellings"],
)
class TestKeyBytes:
    def test_batched_fill_keys_match_the_formulas(self, points):
        assert key_digests(batched_cache(points)) == expected_digests(points)

    def test_per_point_keys_match_the_formulas(self, points):
        assert key_digests(per_point_cache(points)) == expected_digests(
            points
        )

    def test_stats_count_the_distinct_keys_and_every_lookup(self, points):
        expected = expected_keys(points)
        lookups = 4 * len(points)  # four GPS candidates per point
        for cache in (batched_cache(points), per_point_cache(points)):
            stats = cache.stats()
            state = cache.portable_state()["tables"]
            for name in CACHE_TABLES:
                table = stats["tables"][name]
                assert table["entries"] == len(expected[name])
                assert table["entries"] == len(state[name]["keys"])
                assert table["hits"] + table["misses"] == lookups
                assert state[name]["hits"] == table["hits"]
                assert state[name]["misses"] == table["misses"]
            assert stats["hits"] == sum(
                stats["tables"][name]["hits"] for name in CACHE_TABLES
            )

    def test_merged_halves_union_the_keys_and_add_the_counters(
        self, points
    ):
        halves = [points[::2], points[1::2]]
        caches = [batched_cache(half) for half in halves]
        merged = EvaluationCache()
        for cache in caches:
            merge_caches(merged, cache)
        assert key_digests(merged) == expected_digests(points)
        stats = merged.stats()
        expected = expected_keys(points)
        for name in CACHE_TABLES:
            table = stats["tables"][name]
            assert table["entries"] == len(expected[name])
            for counter in ("hits", "misses"):
                assert table[counter] == sum(
                    cache.stats()["tables"][name][counter]
                    for cache in caches
                )


def test_volume_spellings_stay_distinct_cost_entries():
    stats = batched_cache(SPELLINGS).stats()["tables"]["cost"]
    # Four candidates' flows, each at three spellings of one volume.
    assert stats["entries"] == 4 * 3
    assert stats["misses"] == 4 * 3


#: More than one stream block: 96 volumes x 2 tolerances x 2 Q models.
STREAM_GRID = SweepGrid(
    volumes=tuple(np.geomspace(1e2, 1e7, 96)),
    tolerances=(None, MATCHING_CLASS),
    q_models=(None, SkinEffectQModel()),
)

#: A grid the adaptive driver zooms on for several passes.
ADAPTIVE_GRID = SweepGrid(
    volumes=tuple(np.geomspace(1e2, 1e7, 64)),
    tolerances=(None, MATCHING_CLASS),
)


def streamed_cache(grid, factory=None) -> EvaluationCache:
    cache = EvaluationCache()
    for _ in stream_design_sweep(
        grid, factory or sweep_candidates, cache=cache
    ):
        pass
    return cache


class FreshFootprints:
    """The GPS factory, with every candidate's footprints copied into a
    fresh tuple per call and dropped with the candidates.

    Freed tuples leave their ``id`` s to the next call's allocations, so
    a key memo that forgot the objects behind an ``id`` would hand one
    build-up another's area key.  ``volume_invariant=False`` makes the
    sweep call it once per point.
    """

    def __init__(self, volume_invariant: bool = True):
        self.volume_invariant = volume_invariant

    def __call__(self, point):
        return [
            dataclasses.replace(
                candidate, footprints=tuple(list(candidate.footprints))
            )
            for candidate in sweep_candidates(point)
        ]


class _VolumeKey(str):
    """A volume's ``repr``, counting the strings built from it."""

    builds = 0

    def __format__(self, spec):
        _VolumeKey.builds += 1
        return str.__format__(self, spec)

    def __add__(self, other):
        _VolumeKey.builds += 1
        return str.__add__(self, other)


class _Volume(float):
    """A volume counting how often its ``repr`` is taken."""

    reprs = 0

    def __repr__(self):
        _Volume.reprs += 1
        return _VolumeKey(float.__repr__(self))


class TestKeysBuiltOncePerDistinctInput:
    """Deterministic stand-in for a timing gate: a per-lookup ``repr``
    creeping back into the sweep shows up as a count, not a clock — in
    one call, across the blocks of a stream and across the passes of an
    adaptive run sharing one cache."""

    GRID = SweepGrid(
        volumes=tuple(_Volume(v) for v in np.geomspace(1e2, 1e7, 64)),
        tolerances=(None, MATCHING_CLASS),
        q_models=(None, SkinEffectQModel()),
    )

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"area_key": 0, "footprint_repr": 0}
        area_key = EvaluationCache.area_key
        footprint_repr = Footprint.__repr__

        def counting_area_key(footprints, rule, laminate):
            counts["area_key"] += 1
            return area_key(footprints, rule, laminate)

        def counting_footprint_repr(self):
            counts["footprint_repr"] += 1
            return footprint_repr(self)

        monkeypatch.setattr(
            EvaluationCache, "area_key", staticmethod(counting_area_key)
        )
        monkeypatch.setattr(Footprint, "__repr__", counting_footprint_repr)
        monkeypatch.setattr(_Volume, "reprs", 0)
        monkeypatch.setattr(_VolumeKey, "builds", 0)
        return counts

    def test_grid_is_large(self):
        assert len(self.GRID) >= 256

    def test_key_builds(self, counted):
        points = self.GRID.points()
        cache = batched_cache(points)
        tables = cache.stats()["tables"]
        area_entries = tables["area"]["entries"]
        footprints_per_entry = {
            len(candidate.footprints)
            for candidate in sweep_candidates(points[0])
        }

        assert counted["area_key"] <= area_entries
        assert counted["footprint_repr"] <= area_entries * max(
            footprints_per_entry
        )
        # One repr per point, shared by the family's four candidates.
        assert _Volume.reprs == len(points)
        assert _VolumeKey.builds == 0

        # The flat ``volume|flow`` key exists only for the digests —
        # which also shows the counter sees such a build.
        cache.portable_state()
        assert _VolumeKey.builds == tables["cost"]["entries"]

    def test_stream_grid_spans_blocks(self):
        assert len(STREAM_GRID) > STREAM_BLOCK

    def test_multi_block_stream(self, counted):
        cache = streamed_cache(STREAM_GRID)
        entries = cache.stats()["tables"]["area"]["entries"]
        assert 0 < counted["area_key"] <= entries

    def test_adaptive_run(self, counted):
        cache = EvaluationCache()
        report = run_adaptive_gps_sweep(ADAPTIVE_GRID, cache=cache)
        assert len(report.passes) > 2
        entries = cache.stats()["tables"]["area"]["entries"]
        assert 0 < counted["area_key"] <= entries

    def test_fresh_footprints_stream_keys_match_their_inputs(self):
        cache = streamed_cache(STREAM_GRID, FreshFootprints())
        assert key_digests(cache) == expected_digests(STREAM_GRID.points())

    def test_per_point_fresh_footprints_stay_within_the_memo_bound(self):
        # Four fresh triples per point: more than the memo keeps.
        assert 4 * len(STREAM_GRID) > AREA_KEY_MEMO_SIZE
        cache = streamed_cache(STREAM_GRID, FreshFootprints(False))
        assert key_digests(cache) == expected_digests(STREAM_GRID.points())
        assert len(cache._area_keys) <= AREA_KEY_MEMO_SIZE

    def test_fresh_footprints_adaptive_keys_match_their_inputs(self):
        cache = EvaluationCache()
        report = run_adaptive_sweep(
            ADAPTIVE_GRID, FreshFootprints(), cache=cache
        )
        points = ADAPTIVE_GRID.points()
        evaluated = [points[index] for index in report.evaluated_indices]
        assert key_digests(cache) == expected_digests(evaluated)
        plain = run_adaptive_gps_sweep(ADAPTIVE_GRID)
        assert report.frame.csv_lines() == plain.frame.csv_lines()


def cache_states() -> dict:
    """``portable_state()`` after a plain sweep and an adaptive run."""
    adaptive = EvaluationCache()
    run_adaptive_gps_sweep(ADAPTIVE_GRID, cache=adaptive)
    return {
        "sweep": batched_cache(MIXED_GRID.points()).portable_state(),
        "adaptive": adaptive.portable_state(),
    }


def render_cache_states() -> str:
    return json.dumps(cache_states(), indent=1, sort_keys=True) + "\n"


def test_portable_state_matches_the_golden():
    assert render_cache_states() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cache_keys.py --write")
    GOLDEN.write_text(render_cache_states())
    print(f"wrote {GOLDEN}")
