"""The columnar ResultFrame spine.

The load-bearing properties, checked with hypothesis:

* the row bridge is exact in both directions —
  ``from_rows(to_rows(frame)) == frame`` and
  ``to_rows(from_rows(rows)) == rows`` bit for bit;
* floats survive the JSON column payload and the CSV formatting
  *exactly* (repr round-trip, never a tolerance);
* the Pareto dominance (`analyze_study`, `ResultFrame.pareto_mask`)
  is equivalent to the references in `tests/pareto_reference.py`,
  including dominator attribution.

Around them: the frame-vs-row byte-identical CSV on the GPS study and
unit coverage of the vectorised transforms and their error paths.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import ParetoPoint, analyze_study, nondominated_mask
from repro.core.blobstore import canonical_json
from repro.core.resultframe import (
    BOOL_COLUMNS,
    COLUMN_ORDER,
    FLOAT_COLUMNS,
    LABEL_COLUMNS,
    JsonTokenMemo,
    ResultFrame,
    SweepRow,
    json_tokens,
)
from repro.core.sweep import DesignPoint
from repro.errors import SpecificationError

from pareto_reference import (
    broadcast_pareto_front,
    dominates,
    first_dominators,
    pareto_front,
    study_of,
)

# Finite doubles across the full exponent range: repr-shortest float
# formatting (str/json) must survive every one of them exactly.
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


class TestRowBridge:
    @given(rows=rows_strategy)
    def test_round_trip_rows_to_frame_to_rows(self, rows):
        """to_rows(from_rows(rows)) == rows, bit for bit."""
        frame = ResultFrame.from_rows(rows)
        assert len(frame) == len(rows)
        assert frame.to_rows() == tuple(rows)

    @given(rows=rows_strategy)
    def test_round_trip_frame_to_rows_to_frame(self, rows):
        """from_rows(to_rows(frame)) == frame."""
        frame = ResultFrame.from_rows(rows)
        assert ResultFrame.from_rows(frame.to_rows()) == frame

    @given(rows=rows_strategy)
    def test_row_accessor_matches_to_rows(self, rows):
        frame = ResultFrame.from_rows(rows)
        bridged = frame.to_rows()
        for index in range(len(frame)):
            assert frame.row(index) == bridged[index]

    def test_row_values_are_python_scalars(self):
        frame = ResultFrame.from_rows(
            [SweepRow(1.5, "a", "b", "c", "d", "e", "f", "g",
                      0.5, 100.0, 90.0, 1.25, True, False)]
        )
        row = frame.row(0)
        assert type(row.volume) is float
        assert type(row.is_winner) is bool
        assert type(row.candidate) is str

    def test_row_index_out_of_range(self):
        frame = ResultFrame.empty()
        with pytest.raises(SpecificationError, match="out of range"):
            frame.row(0)


class TestSerialisation:
    @given(rows=rows_strategy)
    def test_json_columns_round_trip_exactly(self, rows):
        """Every float survives JSON serialisation bit for bit."""
        frame = ResultFrame.from_rows(rows)
        payload = json.loads(json.dumps(frame.to_json_columns()))
        assert ResultFrame.from_json_columns(payload) == frame

    @given(rows=rows_strategy)
    def test_csv_floats_round_trip_exactly(self, rows):
        """float(str(x)) == x for every metric cell in the CSV."""
        frame = ResultFrame.from_rows(rows)
        lines = frame.csv_lines()
        assert len(lines) == len(rows)
        float_slots = [
            COLUMN_ORDER.index(name) for name in FLOAT_COLUMNS
        ]
        for line, row in zip(lines, rows):
            cells = line.split(",")
            assert len(cells) == len(COLUMN_ORDER)
            for slot, name in zip(float_slots, FLOAT_COLUMNS):
                assert float(cells[slot]) == getattr(row, name)

    @given(rows=rows_strategy)
    def test_csv_matches_the_row_object_path(self, rows):
        """Byte-identical to ','.join(str(v)) over as_dict values."""
        frame = ResultFrame.from_rows(rows)
        legacy = [
            ",".join(str(value) for value in row.as_dict().values())
            for row in rows
        ]
        assert frame.csv_lines() == legacy

    def test_csv_header_is_the_as_dict_key_order(self):
        row = SweepRow(1.0, "s", "p", "t", "q", "n", "w", "c",
                       1.0, 100.0, 100.0, 1.0, True, True)
        assert ResultFrame.csv_header() == ",".join(row.as_dict())


class TestGpsCsvIdentity:
    def test_frame_csv_byte_identical_to_rows_on_gps(self):
        """The golden-locked GPS study prints the same CSV both ways."""
        from repro.gps.study import run_gps_sweep

        report = run_gps_sweep(
            [DesignPoint(), DesignPoint(volume=500.0)]
        )
        legacy = [
            ",".join(str(value) for value in row.as_dict().values())
            for row in report.rows
        ]
        assert report.frame.csv_lines() == legacy
        assert report.frame.csv_header() == ",".join(
            report.rows[0].as_dict()
        )


class TestVectorisedTransforms:
    def _frame(self):
        return ResultFrame.from_rows(
            [
                SweepRow(1e3, "s", "p", "t", "q", "n", "w", "A",
                         1.0, 100.0, 100.0, 1.0, True, True),
                SweepRow(1e3, "s", "p", "t", "q", "n", "w", "B",
                         0.9, 80.0, 110.0, 1.02, False, True),
                SweepRow(1e4, "s", "p", "t", "q", "n", "w", "A",
                         1.0, 100.0, 90.0, 1.11, False, True),
                SweepRow(1e4, "s", "p", "t", "q", "n", "w", "B",
                         0.9, 80.0, 85.0, 1.32, True, True),
            ]
        )

    def test_concat_is_row_concatenation(self):
        frame = self._frame()
        doubled = ResultFrame.concat([frame, frame])
        assert doubled.to_rows() == frame.to_rows() + frame.to_rows()
        assert ResultFrame.concat([]) == ResultFrame.empty()
        assert ResultFrame.concat([frame]) is frame

    def test_take_and_filter(self):
        frame = self._frame()
        rows = frame.to_rows()
        assert frame.take([3, 0]).to_rows() == (rows[3], rows[0])
        winners = frame.filter(frame.column("is_winner"))
        assert [row.candidate for row in winners.to_rows()] == ["A", "B"]
        with pytest.raises(SpecificationError, match="mask"):
            frame.filter([True])

    def test_sort_is_stable_and_primary_first(self):
        frame = self._frame()
        by_candidate = frame.sort(["candidate"])
        assert [r.candidate for r in by_candidate.to_rows()] == [
            "A", "A", "B", "B",
        ]
        # Stability: within each candidate the original (volume) order
        # survives.
        assert [r.volume for r in by_candidate.to_rows()] == [
            1e3, 1e4, 1e3, 1e4,
        ]
        with pytest.raises(SpecificationError):
            frame.sort([])

    def test_winner_counts_and_best_index(self):
        frame = self._frame()
        assert frame.winner_counts() == {"A": 1, "B": 1}
        assert frame.best_index() == 3
        assert ResultFrame.empty().winner_counts() == {}
        with pytest.raises(SpecificationError, match="empty"):
            ResultFrame.empty().best_index()

    def test_pareto_mask_orientation(self):
        # Row 1 dominates row 0 (better everywhere); rows 2/3 differ on
        # volume only, which is not an objective.
        frame = ResultFrame.from_rows(
            [
                SweepRow(1.0, "s", "p", "t", "q", "n", "w", "A",
                         0.5, 120.0, 120.0, 0.5, False, False),
                SweepRow(1.0, "s", "p", "t", "q", "n", "w", "B",
                         1.0, 80.0, 80.0, 1.5, True, True),
                SweepRow(2.0, "s", "p", "t", "q", "n", "w", "C",
                         1.0, 80.0, 80.0, 1.5, False, True),
            ]
        )
        assert frame.pareto_mask().tolist() == [False, True, True]

    def test_column_views_are_read_only(self):
        frame = self._frame()
        with pytest.raises(ValueError):
            frame.column("volume")[0] = 7.0
        with pytest.raises(SpecificationError, match="unknown result"):
            frame.column("bogus")

    def test_read_only_views_are_still_copied(self):
        """A read-only *view* aliases a writeable base; the frame must
        copy it or mutate when the base does."""
        frame = self._frame()
        base = np.array([5.0, 6.0, 7.0, 8.0])
        view = base[:]
        view.flags.writeable = False
        columns = dict(frame.to_json_columns())
        columns["volume"] = view
        aliased = ResultFrame.from_columns(columns)
        base[:] = -1.0
        assert aliased.column("volume").tolist() == [5.0, 6.0, 7.0, 8.0]

    def test_column_typing(self):
        frame = self._frame()
        for name in FLOAT_COLUMNS:
            assert frame.column(name).dtype == np.float64
        for name in BOOL_COLUMNS:
            assert frame.column(name).dtype == np.bool_
        for name in LABEL_COLUMNS:
            assert frame.column(name).dtype == object

    def test_malformed_columns_rejected(self):
        with pytest.raises(SpecificationError, match="missing"):
            ResultFrame.from_columns({"volume": [1.0]})
        good = {name: [] for name in COLUMN_ORDER}
        with pytest.raises(SpecificationError, match="unexpected"):
            ResultFrame.from_columns({**good, "extra": []})
        ragged = {name: [] for name in COLUMN_ORDER}
        ragged["volume"] = [1.0]
        with pytest.raises(SpecificationError, match="entries"):
            ResultFrame.from_columns(ragged)

    def test_non_bool_flag_values_rejected(self):
        """Truthiness coercion ('false' -> True) must never happen."""
        frame = self._frame()
        columns = frame.to_json_columns()
        for bad in (["false"] * 4, [0, 1, 0, 1], ["True"] * 4):
            with pytest.raises(SpecificationError, match="booleans"):
                ResultFrame.from_columns(
                    {**columns, "is_winner": bad}
                )
        # Actual booleans (plain or numpy) are of course fine.
        rebuilt = ResultFrame.from_columns(
            {**columns, "is_winner": [True, False, True, False]}
        )
        assert rebuilt.column("is_winner").tolist() == [
            True, False, True, False,
        ]

    def test_rendered_columns_is_the_shared_contract(self):
        frame = self._frame()
        rendered = frame.rendered_columns()
        assert [",".join(parts) for parts in zip(*rendered)] == (
            frame.csv_lines()
        )
        assert frame.rendered_columns(["candidate"]) == [
            ["A", "B", "A", "B"]
        ]


def _bits(pattern: int) -> float:
    """The double with the given IEEE-754 bit pattern."""
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


#: Values whose strings are easy to get wrong when formatting once per
#: distinct value: signed zeros, NaNs of several payloads and signs,
#: infinities, the smallest subnormal and other subnormals.
AWKWARD_FLOATS = [
    0.0,
    -0.0,
    float("nan"),
    _bits(0xFFF8000000000000),  # negative quiet NaN
    _bits(0x7FF0000000000001),  # signalling-payload NaN
    _bits(0x7FF8000000000ABC),  # quiet NaN with a payload
    float("inf"),
    float("-inf"),
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # the largest subnormal
    1e-310,
    1.5,
    0.1 + 0.2,
]


class TestFloatRendering:
    """``rendered_columns`` formats a float column once per distinct
    bit pattern; every cell must still be exactly ``str`` of its value."""

    @staticmethod
    def _frame(values) -> ResultFrame:
        values = np.asarray(values, dtype=np.float64)
        n = values.shape[0]
        label = np.full(n, "x", dtype=object)
        flags = np.arange(n) % 2 == 0
        columns = {name: label for name in LABEL_COLUMNS}
        columns.update({name: values for name in FLOAT_COLUMNS})
        columns.update({name: flags for name in BOOL_COLUMNS})
        return ResultFrame.from_columns(columns)

    @staticmethod
    def _assert_plain_str(frame: ResultFrame) -> None:
        expected = [
            [str(value) for value in frame.column(name).tolist()]
            for name in COLUMN_ORDER
        ]
        assert frame.rendered_columns() == expected
        assert frame.csv_lines() == [
            ",".join(parts) for parts in zip(*expected)
        ]
        for name in COLUMN_ORDER:
            assert frame.rendered_columns([name]) == [
                expected[COLUMN_ORDER.index(name)]
            ]

    def test_awkward_values_side_by_side(self):
        frame = self._frame(AWKWARD_FLOATS + AWKWARD_FLOATS[::-1])
        self._assert_plain_str(frame)
        rendered = frame.rendered_columns(["volume"])[0]
        assert rendered[:2] == ["0.0", "-0.0"]
        assert rendered[2:6] == ["nan"] * 4

    def test_long_runs_of_repeats(self):
        values = np.repeat([1e4, -0.0, 0.0, 3.5, float("nan")], 500)
        self._assert_plain_str(self._frame(values))

    def test_all_unique_column(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(1000) * 10.0 ** rng.integers(
            -300, 300, 1000
        )
        assert np.unique(values).shape[0] == values.shape[0]
        self._assert_plain_str(self._frame(values))

    def test_subnormals(self):
        values = [_bits(pattern) for pattern in (1, 2, 3, 0xFFFFF, 1 << 51)]
        values += [-value for value in values]
        self._assert_plain_str(self._frame(values))

    def test_one_row_frame(self):
        self._assert_plain_str(self._frame([-0.0]))

    def test_empty_frame(self):
        frame = ResultFrame.empty()
        assert frame.rendered_columns() == [[] for _ in COLUMN_ORDER]
        assert frame.csv_lines() == []
        self._assert_plain_str(self._frame([]))

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(AWKWARD_FLOATS),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=40,
        )
    )
    def test_any_float_column(self, values):
        self._assert_plain_str(self._frame(values))


#: Labels the JSON escaper must get right: quotes, backslashes, control
#: characters and non-ASCII text.
AWKWARD_LABELS = [
    'q"uote',
    "back\\slash",
    "ctl\x00\x01\x1f\t\n",
    "é☃𝄞",
    "",
]


class TestJsonColumnsBytes:
    """``json_columns_bytes`` is ``canonical_json`` of the selected
    rows' ``to_json_columns()``, with or without a token memo."""

    @staticmethod
    def _frame(values, labels, flags) -> ResultFrame:
        n = len(values)
        values = np.asarray(values, dtype=np.float64)
        columns = {
            name: np.roll(values, shift)
            for shift, name in enumerate(FLOAT_COLUMNS)
        }
        label_column = np.array(
            [labels[i % len(labels)] for i in range(n)], dtype=object
        )
        columns.update(
            {
                name: np.roll(label_column, shift)
                for shift, name in enumerate(LABEL_COLUMNS)
            }
        )
        flag_column = np.array(
            [flags[i % len(flags)] for i in range(n)], dtype=bool
        )
        columns.update(
            {
                name: np.roll(flag_column, shift)
                for shift, name in enumerate(BOOL_COLUMNS)
            }
        )
        return ResultFrame.from_columns(columns)

    @staticmethod
    def _reference(frame: ResultFrame, mask) -> bytes:
        return canonical_json(frame.filter(mask).to_json_columns()).encode()

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(AWKWARD_FLOATS + [1e16]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=30,
        ),
        labels=st.lists(
            st.one_of(st.sampled_from(AWKWARD_LABELS), st.text(max_size=6)),
            min_size=1,
            max_size=5,
        ),
        flags=st.lists(st.booleans(), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_equals_canonical_json_of_the_filtered_frame(
        self, values, labels, flags, data
    ):
        frame = self._frame(values, labels, flags)
        mask = np.array(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(frame), max_size=len(frame)
                )
            ),
            dtype=bool,
        )
        memo = JsonTokenMemo(frame)
        for selection in (mask, ~mask, np.ones(len(frame), dtype=bool)):
            expected = self._reference(frame, selection)
            assert frame.json_columns_bytes(selection) == expected
            assert frame.json_columns_bytes(selection, memo) == expected

    def test_empty_single_and_every_row(self):
        frame = self._frame(AWKWARD_FLOATS, AWKWARD_LABELS, [True, False])
        memo = JsonTokenMemo(frame)
        n = len(frame)
        for selection in (
            np.zeros(n, dtype=bool),
            np.arange(n) == 3,
            np.ones(n, dtype=bool),
        ):
            assert frame.json_columns_bytes(selection, memo) == (
                self._reference(frame, selection)
            )

    def test_a_frame_sharing_columns_uses_the_memo_for_them(self):
        stored = self._frame(AWKWARD_FLOATS, AWKWARD_LABELS, [True, False])
        memo = JsonTokenMemo(stored)
        columns = {name: stored.column(name) for name in COLUMN_ORDER}
        columns["figure_of_merit"] = -stored.column("figure_of_merit")
        columns["is_winner"] = ~stored.column("is_winner")
        reranked = ResultFrame.from_columns(columns)
        mask = np.arange(len(stored)) % 3 != 0
        assert reranked.json_columns_bytes(mask, memo) == (
            self._reference(reranked, mask)
        )
        shared = [
            name
            for name in COLUMN_ORDER
            if memo.get(name, reranked.column(name)) is not None
        ]
        assert sorted(shared) == sorted(
            set(COLUMN_ORDER) - {"figure_of_merit", "is_winner"}
        )

    def test_tokens_are_per_distinct_value(self):
        tokens, codes = json_tokens(
            np.array([0.0, -0.0, 0.0, float("nan"), float("-inf")])
        )
        assert codes.dtype == np.int32
        assert len(tokens) == 4
        assert [tokens[code] for code in codes] == [
            b"0.0", b"-0.0", b"0.0", b"NaN", b"-Infinity"
        ]
        tokens, codes = json_tokens(
            np.array(['a"b', "é", 'a"b', 1, True], dtype=object)
        )
        assert [tokens[code] for code in codes] == [
            b'"a\\"b"', b'"\\u00e9"', b'"a\\"b"', b"1", b"true"
        ]


# Objective values drawn from a small pool force ties and duplicated
# points — the edge cases of dominance (equal points never dominate).
tied_floats = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.25])
objective_floats = st.one_of(
    tied_floats, st.floats(min_value=0.01, max_value=2.0)
)


class TestVectorisedPareto:
    @settings(max_examples=200)
    @given(
        raw=st.lists(
            st.tuples(objective_floats, objective_floats, objective_floats),
            min_size=1,
            max_size=30,
        )
    )
    def test_vectorised_front_equals_pointwise_loop(self, raw):
        """``analyze_study`` == the per-point loop == its broadcast."""
        points = [
            ParetoPoint(f"p{i}", *values) for i, values in enumerate(raw)
        ]
        analysis = analyze_study(study_of(points))
        assert analysis == pareto_front(points)
        assert analysis == broadcast_pareto_front(points)

    @settings(max_examples=100)
    @given(
        raw=st.lists(
            st.tuples(objective_floats, objective_floats, objective_floats),
            min_size=1,
            max_size=40,
        )
    )
    def test_first_dominators_matches_scalar_dominates(self, raw):
        points = [
            ParetoPoint(f"p{i}", *values) for i, values in enumerate(raw)
        ]
        dominators = first_dominators(
            [p.performance for p in points],
            [p.size_ratio for p in points],
            [p.cost_ratio for p in points],
        )
        for j, point in enumerate(points):
            expected = next(
                (
                    i
                    for i, other in enumerate(points)
                    if dominates(other, point)
                ),
                -1,
            )
            assert dominators[j] == expected
        mask = nondominated_mask(
            [p.performance for p in points],
            [p.size_ratio for p in points],
            [p.cost_ratio for p in points],
        )
        assert mask.tolist() == [d == -1 for d in dominators.tolist()]

    def test_blocked_sweep_covers_every_block_boundary(self):
        """Force multiple blocks through the kernel's block budget."""
        import pareto_reference as pareto_module

        n = 64
        rng = np.random.default_rng(7)
        perf = rng.uniform(0.1, 1.0, n)
        size = rng.uniform(0.5, 2.0, n)
        cost = rng.uniform(0.5, 2.0, n)
        whole = first_dominators(perf, size, cost)
        original = pareto_module._BLOCK_BUDGET
        try:
            pareto_module._BLOCK_BUDGET = n * 5  # block of 5 columns
            blocked = first_dominators(perf, size, cost)
        finally:
            pareto_module._BLOCK_BUDGET = original
        assert np.array_equal(whole, blocked)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SpecificationError):
            first_dominators([1.0, 2.0], [1.0], [1.0, 2.0])

    def test_empty_arrays_yield_empty_mask(self):
        assert nondominated_mask([], [], []).tolist() == []

    def test_nan_rows_stay_on_the_front(self):
        """NaN comparisons are all False, so nothing dominates a NaN
        row and a NaN row dominates nothing — the mask, the dominator
        kernel and the pointwise loop must all agree on that."""
        nan = float("nan")
        perf = [1.0, nan, 0.5, 0.5]
        size = [1.0, 1.0, nan, 2.0]
        cost = [1.0, 1.0, 1.0, 2.0]
        # Row 3 is dominated by row 0; rows 1/2 carry NaN and survive.
        assert nondominated_mask(perf, size, cost).tolist() == [
            True, True, True, False,
        ]
        assert first_dominators(perf, size, cost).tolist() == [
            -1, -1, -1, 0,
        ]
        points = [
            ParetoPoint(f"p{i}", p, s, c)
            for i, (p, s, c) in enumerate(zip(perf, size, cost))
        ]
        for analysis in (
            analyze_study(study_of(points)),
            pareto_front(points),
        ):
            assert [point.name for point in analysis.front] == [
                "p0", "p1", "p2",
            ]
