"""Figure-of-merit math (Fig. 6): the column kernel, and the scalar
reference formula of ``tests/study_reference.py`` it must match."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.figure_of_merit import FomEntry, FomWeights
from repro.core.ranking import weighted_fom
from repro.errors import SpecificationError

from study_reference import figure_of_merit, rank_buildups


def fom(performance, size_ratio, cost_ratio, weights=FomWeights()) -> float:
    """One build-up's FoM through the column kernel."""
    (value,) = weighted_fom(
        [performance], [size_ratio], [cost_ratio], weights
    ).tolist()
    return value


class TestFigureOfMerit:
    def test_reference_is_unity(self):
        assert fom(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_paper_solution_4_arithmetic(self):
        """Fig. 6 row 4: 0.7 / (0.37 * 1.06) = 1.8."""
        assert fom(0.7, 0.37, 1.06) == pytest.approx(1.8, abs=0.02)

    def test_paper_solution_2_arithmetic(self):
        """Fig. 6 row 2: 1 / (0.79 * 1.05) = 1.2."""
        assert fom(1.0, 0.79, 1.05) == pytest.approx(1.2, abs=0.01)

    def test_paper_solution_3_arithmetic(self):
        """Fig. 6 row 3: 0.45 / (0.6 * 1.13) = 0.66."""
        assert fom(0.45, 0.6, 1.13) == pytest.approx(0.66, abs=0.01)

    def test_less_area_is_better(self):
        assert fom(1.0, 0.5, 1.0) > fom(1.0, 1.0, 1.0)

    def test_less_cost_is_better(self):
        assert fom(1.0, 1.0, 0.9) > fom(1.0, 1.0, 1.1)

    def test_rejects_negative_performance(self):
        with pytest.raises(SpecificationError, match="cannot be negative"):
            fom(-0.1, 1.0, 1.0)

    def test_rejects_nonpositive_ratios(self):
        with pytest.raises(SpecificationError):
            figure_of_merit(1.0, 0.0, 1.0)
        with pytest.raises(SpecificationError):
            figure_of_merit(1.0, 1.0, -1.0)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.5, max_value=2.0),
    )
    def test_monotone_in_performance(self, perf, size, cost):
        better = fom(min(1.0, perf * 1.1), size, cost)
        assert better >= fom(perf, size, cost)


class TestWeights:
    def test_zero_weight_removes_axis(self):
        weights = FomWeights(performance=1.0, size=0.0, cost=1.0)
        with_small = fom(1.0, 0.1, 1.0, weights)
        with_large = fom(1.0, 10.0, 1.0, weights)
        assert with_small == pytest.approx(with_large)

    def test_heavier_size_weight_amplifies(self):
        light = fom(1.0, 0.5, 1.0, FomWeights(size=1.0))
        heavy = fom(1.0, 0.5, 1.0, FomWeights(size=2.0))
        assert heavy > light

    def test_rejects_negative_weight(self):
        with pytest.raises(SpecificationError):
            FomWeights(performance=-1.0)


class TestRanking:
    def entries(self):
        return [
            FomEntry("a", 1.0, 1.0, 1.0, 1.0),
            FomEntry("b", 1.0, 0.79, 1.05, 1.2),
            FomEntry("c", 0.45, 0.6, 1.13, 0.66),
            FomEntry("d", 0.7, 0.37, 1.06, 1.8),
        ]

    def test_paper_ranking(self):
        """Fig. 6 order: solution 4 > 2 > 1 > 3."""
        ranked = rank_buildups(self.entries())
        assert [e.name for e in ranked] == ["d", "b", "a", "c"]

    def test_rejects_empty(self):
        with pytest.raises(SpecificationError):
            rank_buildups([])

    def test_reciprocals(self):
        entry = FomEntry("d", 0.7, 0.37, 1.06, 1.8)
        assert entry.size_reciprocal == pytest.approx(1 / 0.37)
        assert entry.cost_reciprocal == pytest.approx(1 / 1.06)


class TestOverflow:
    """One overflow rule for the scalar FoM and the column kernels."""

    def test_scalar_overflow_names_the_weight(self):
        """``(1/0.001) ** 1000`` raised a bare ``OverflowError``."""
        with pytest.raises(SpecificationError) as excinfo:
            fom(0.5, 0.001, 1.0, FomWeights(1, 1000, 1))
        assert str(excinfo.value) == (
            "size weight 1000 overflows the figure of merit (a base "
            "raised to it exceeds the largest double)"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        performance=st.floats(min_value=0.0, max_value=1.0),
        size=st.floats(min_value=1e-3, max_value=10.0),
        cost=st.floats(min_value=1e-3, max_value=10.0),
        weights=st.tuples(
            *[
                st.one_of(
                    st.floats(min_value=0.0, max_value=2000.0),
                    st.sampled_from([0.0, 1.0, 400.0, 1100.0, 1e308]),
                )
            ]
            * 3
        ),
    )
    def test_scalar_and_column_share_bits_and_refusals(
        self, performance, size, cost, weights
    ):
        """Every finite result (underflow to 0 included) keeps the
        plain formula's bits on both paths; an overflow is the same
        refusal on both."""
        weights = FomWeights(*weights)
        try:
            expected = (
                performance**weights.performance
                * (1.0 / size) ** weights.size
                * (1.0 / cost) ** weights.cost
            )
        except OverflowError:
            with pytest.raises(SpecificationError) as scalar:
                figure_of_merit(performance, size, cost, weights)
            with pytest.raises(SpecificationError) as column:
                weighted_fom([performance], [size], [cost], weights)
            assert str(scalar.value) == str(column.value)
            assert "overflows" in str(scalar.value)
            return
        scalar = figure_of_merit(performance, size, cost, weights)
        column = weighted_fom([performance], [size], [cost], weights)
        assert struct.pack("<d", scalar) == struct.pack("<d", expected)
        assert column.tobytes() == struct.pack("<d", expected)
