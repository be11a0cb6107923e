"""The sort-and-sweep dominance kernel, locked differentially.

Every front mask in the library comes from
:func:`~repro.core.pareto.dominated_by`.  Each mask-only caller is
checked bit for bit against the broadcast references (``tests/
pareto_reference.py``), the attribution kernel
``first_dominators`` and the per-point loop ``pareto_front``:

* ``dominated_by`` for arbitrary candidate and target sets;
* ``nondominated_mask`` (and so ``ResultFrame.pareto_mask``);
* ``global_front_mask`` at margins 0, 0.05 and 0.5;
* ``chunked_nondominated_mask`` at every cut position.

Values come from a tie-heavy pool — signed zeros, infinities, NaN, a
denormal-adjacent tiny value and a handful of repeated magnitudes — so
the equal-vector, NaN and cross-chunk duplicate rules are exercised on
almost every draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import global_front_mask
from repro.core.framestore import chunked_nondominated_mask
from repro.core.pareto import ParetoPoint, dominated_by, nondominated_mask
from repro.errors import SpecificationError

from pareto_reference import (
    broadcast_dominated_by,
    first_dominators,
    margin_dominators,
    objective_frame,
    pareto_front,
)

INF = float("inf")
NAN = float("nan")

#: Tie-heavy value pool: every draw collides with earlier draws often.
POOL = (0.0, -0.0, 1.0, 2.0, 2.5, INF, -INF, NAN, 1e-300)

values = st.sampled_from(POOL)
rows = st.lists(st.tuples(values, values, values), max_size=30)


def _matrix(raw) -> np.ndarray:
    return np.array(raw, dtype=np.float64).reshape(-1, 3)


def _columns(raw):
    matrix = _matrix(raw)
    return matrix[:, 0], matrix[:, 1], matrix[:, 2]


def _pointwise_mask(raw) -> list[bool]:
    points = [ParetoPoint(f"p{i}", *values) for i, values in enumerate(raw)]
    front = {point.name for point in pareto_front(points).front}
    return [point.name in front for point in points]


def _cut(arrays, cuts):
    """Split three aligned arrays at the same sorted cut points."""
    perf, size, cost = arrays
    bounds = sorted({min(c, len(perf)) for c in cuts} | {0, len(perf)})
    return [
        (perf[a:b], size[a:b], cost[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]


class TestDominatedBy:
    @settings(max_examples=300, deadline=None)
    @given(candidates=rows, targets=rows)
    def test_equals_broadcast_reference(self, candidates, targets):
        c, t = _matrix(candidates), _matrix(targets)
        assert dominated_by(c, t).tolist() == (
            broadcast_dominated_by(c, t).tolist()
        )

    @settings(max_examples=100, deadline=None)
    @given(raw=rows)
    def test_self_query_equals_broadcast_reference(self, raw):
        """Passing one matrix twice sorts it once; same verdicts."""
        matrix = _matrix(raw)
        expected = broadcast_dominated_by(matrix, matrix).tolist()
        assert dominated_by(matrix, matrix).tolist() == expected
        assert dominated_by(matrix, matrix.copy()).tolist() == expected

    def test_seeded_tie_grids_equal_first_dominators(self):
        """Deep staircases: hundreds of rows on a coarse integer grid."""
        rng = np.random.default_rng(14)
        for n, levels in ((50, 3), (400, 6), (1500, 40), (1500, 1500)):
            perf, size, cost = rng.integers(0, levels, (3, n)).astype(float)
            expected = first_dominators(perf, size, cost) < 0
            assert np.array_equal(
                nondominated_mask(perf, size, cost), expected
            )

    def test_equal_vector_never_dominates(self):
        target = [[1.0, 2.0, 3.0]]
        assert dominated_by(target, target).tolist() == [False]
        assert dominated_by([[-0.0, 2.0, 0.0]], [[0.0, 2.0, -0.0]]).tolist() == [
            False
        ]
        # A strictly better candidate next to the equal one still wins.
        assert dominated_by(
            [[1.0, 2.0, 3.0], [1.0, 2.0, 2.5]], target
        ).tolist() == [True]

    def test_nan_rows_neither_dominate_nor_are_dominated(self):
        nan_rows = [[NAN, 0.0, 0.0], [0.0, NAN, 0.0], [0.0, 0.0, NAN]]
        assert dominated_by(nan_rows, [[1.0, 1.0, 1.0]]).tolist() == [False]
        assert dominated_by([[-INF, -INF, -INF]], nan_rows).tolist() == [
            False, False, False,
        ]

    def test_empty_and_all_nan_inputs(self):
        empty = np.empty((0, 3))
        one = [[1.0, 1.0, 1.0]]
        assert dominated_by(empty, one).tolist() == [False]
        assert dominated_by(one, empty).tolist() == []
        assert dominated_by(empty, empty).tolist() == []
        all_nan = np.full((4, 3), NAN)
        assert dominated_by(all_nan, all_nan).tolist() == [False] * 4

    def test_shape_checked(self):
        with pytest.raises(SpecificationError, match=r"\(n, 3\)"):
            dominated_by(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(SpecificationError, match=r"\(n, 3\)"):
            dominated_by(np.zeros((2, 3)), np.zeros(3))


class TestMaskCallers:
    @settings(max_examples=300, deadline=None)
    @given(raw=rows)
    def test_nondominated_mask_equals_references(self, raw):
        perf, size, cost = _columns(raw)
        mask = nondominated_mask(perf, size, cost).tolist()
        assert mask == (first_dominators(perf, size, cost) < 0).tolist()
        matrix = np.column_stack([-perf, size, cost])
        assert mask == (~broadcast_dominated_by(matrix, matrix)).tolist()
        if raw:
            assert mask == _pointwise_mask(raw)

    @settings(max_examples=300, deadline=None)
    @given(raw=rows, margin=st.sampled_from([0.0, 0.05, 0.5]))
    def test_global_front_mask_equals_margin_reference(self, raw, margin):
        perf, size, cost = _columns(raw)
        mask = global_front_mask(objective_frame(perf, size, cost), margin)
        assert mask.tolist() == (
            margin_dominators(perf, size, cost, margin) < 0
        ).tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        raw=rows,
        cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=6),
    )
    def test_chunked_mask_equals_in_ram_at_every_cut(self, raw, cuts):
        arrays = _columns(raw)
        expected = (first_dominators(*arrays) < 0).tolist()
        n = len(raw)
        cut_sets = [[cut] for cut in range(n + 1)]
        cut_sets += [cuts, list(range(n + 1))]
        for cut_set in cut_sets:
            mask = chunked_nondominated_mask(_cut(arrays, cut_set))
            assert mask.tolist() == expected

    def test_duplicates_across_chunk_boundaries_survive(self):
        perf = np.array([1.0, 1.0, 0.5, 1.0, 1.0])
        size = np.array([1.0, 1.0, 3.0, 1.0, 1.0])
        cost = np.array([-0.0, 0.0, 3.0, 0.0, -0.0])
        expected = [True, True, False, True, True]
        assert nondominated_mask(perf, size, cost).tolist() == expected
        for cuts in ([1], [2], [1, 2, 3, 4], [3]):
            mask = chunked_nondominated_mask(_cut((perf, size, cost), cuts))
            assert mask.tolist() == expected

    def test_single_row_and_empty_inputs(self):
        assert nondominated_mask([], [], []).tolist() == []
        assert nondominated_mask([NAN], [1.0], [1.0]).tolist() == [True]
        assert nondominated_mask([1.0], [1.0], [1.0]).tolist() == [True]
        empty = objective_frame([], [], [])
        for margin in (0.0, 0.05):
            assert global_front_mask(empty, margin).tolist() == []
        assert chunked_nondominated_mask([]).tolist() == []
        assert chunked_nondominated_mask(
            [(np.array([1.0]), np.array([1.0]), np.array([1.0]))]
        ).tolist() == [True]

    def test_all_nan_input_is_all_front(self):
        nan = np.full(5, NAN)
        assert nondominated_mask(nan, nan, nan).tolist() == [True] * 5
        assert global_front_mask(
            objective_frame(nan, nan, nan), 0.5
        ).tolist() == [True] * 5
        assert chunked_nondominated_mask(
            _cut((nan, nan, nan), [2])
        ).tolist() == [True] * 5
