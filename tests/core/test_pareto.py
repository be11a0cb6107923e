"""Pareto-front analysis of build-ups: ``analyze_study``, and the
scalar dominance definition of ``tests/pareto_reference.py``."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pareto import ParetoPoint, analyze_study
from repro.errors import SpecificationError
from repro.gps import data

from pareto_reference import dominates, study_of


def point(name="p", perf=1.0, size=1.0, cost=1.0):
    return ParetoPoint(name, perf, size, cost)


class TestDomination:
    def test_strictly_better_dominates(self):
        better = point("a", 1.0, 0.5, 0.9)
        worse = point("b", 0.8, 0.7, 1.0)
        assert dominates(better, worse)
        assert not dominates(worse, better)

    def test_equal_points_do_not_dominate(self):
        a, b = point("a"), point("b")
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_tradeoff_points_incomparable(self):
        small = point("small", 0.7, 0.4, 1.1)
        cheap = point("cheap", 1.0, 1.0, 1.0)
        assert not dominates(small, cheap)
        assert not dominates(cheap, small)


class TestFront:
    def test_single_point_is_front(self):
        analysis = analyze_study(study_of([point()]))
        assert len(analysis.front) == 1
        assert analysis.dominated == ()

    def test_dominated_point_removed(self):
        a = point("a", 1.0, 0.5, 0.9)
        b = point("b", 0.8, 0.7, 1.0)
        analysis = analyze_study(study_of([a, b]))
        assert analysis.is_on_front("a")
        assert not analysis.is_on_front("b")
        assert analysis.dominator_of("b") == "a"

    def test_dominator_of_front_point_raises(self):
        analysis = analyze_study(study_of([point("a")]))
        with pytest.raises(SpecificationError):
            analysis.dominator_of("a")

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            analyze_study(study_of([]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1.0),
                st.floats(min_value=0.1, max_value=2.0),
                st.floats(min_value=0.5, max_value=2.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_front_nonempty_and_mutually_nondominated(self, raw):
        points = [
            point(f"p{i}", *values) for i, values in enumerate(raw)
        ]
        analysis = analyze_study(study_of(points))
        assert len(analysis.front) >= 1
        for a in analysis.front:
            for b in analysis.front:
                if a is not b:
                    assert not dominates(a, b)


class TestGpsPareto:
    def test_solution3_is_dominated(self, gps_result):
        """The paper's full-IP build loses on every axis to the
        passives-optimized build — Pareto-dominated, so no weighting
        could ever rescue it."""
        analysis = analyze_study(gps_result)
        name3 = data.IMPLEMENTATION_NAMES[3]
        assert not analysis.is_on_front(name3)
        assert analysis.dominator_of(name3) == (
            data.IMPLEMENTATION_NAMES[4]
        )

    def test_reference_and_winner_on_front(self, gps_result):
        analysis = analyze_study(gps_result)
        assert analysis.is_on_front(data.IMPLEMENTATION_NAMES[1])
        assert analysis.is_on_front(data.IMPLEMENTATION_NAMES[4])
