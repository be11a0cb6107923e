"""Cost-driver sensitivity analysis.

The ranking's final costs come from the production walk
(``evaluate_batch``); ``reference_ranking`` below recomputes every
elasticity from the independent scalar walk in
``tests/moe_reference.py``, and the two must agree bit for bit.
"""

from __future__ import annotations

import pytest

from repro.cost.moe import CarrierStep, FlowBuilder, ProductionFlow, TestStep
from repro.cost.sensitivity import (
    Knob,
    _applicable_knobs,
    _perturbation_bounds,
    _with_knob,
    rank_cost_drivers,
    sensitivity_of,
)
from repro.errors import CostModelError
from repro.gps.buildups import flow_for

from moe_reference import evaluate as reference_evaluate


def toy_flow():
    return (
        FlowBuilder("toy")
        .carrier("sub", cost=10.0, yield_=0.9)
        .attach("chip", 1, 100.0, 0.95, 0.1, 0.99)
        .test("final", cost=5.0, coverage=0.99)
        .build()
    )


def reference_ranking(flow, relative_step=0.01):
    """``(node_id, knob, base, elasticity)`` of every knob, ranked, from
    central differences over the scalar reference walk."""
    if not 0.0 < relative_step < 0.5:
        raise CostModelError(f"bad relative step {relative_step}")
    f_base = reference_evaluate(flow).final_cost_per_shipped
    ranking = []
    for index, step, knob, base in _applicable_knobs(flow):
        upper, lower = _perturbation_bounds(base, knob, relative_step)
        finals = []
        for value in (upper, lower):
            variant = ProductionFlow(name=flow.name, nre=flow.nre)
            variant.steps = list(flow.steps)
            variant.steps[index] = _with_knob(step, knob, value)
            finals.append(reference_evaluate(variant).final_cost_per_shipped)
        derivative = (finals[0] - finals[1]) / (upper - lower)
        ranking.append((step.node_id, knob, base, derivative * base / f_base))
    ranking.sort(key=lambda entry: abs(entry[3]), reverse=True)
    return ranking


def ranked(drivers):
    """A ranking as ``reference_ranking`` lays it out; every elasticity
    must be a Python float, as the scalar walk gives it."""
    assert all(type(d.elasticity) is float for d in drivers)
    return [(d.node_id, d.knob, d.base_value, d.elasticity) for d in drivers]


class TestSensitivityOf:
    def test_cost_elasticity_bounded_by_cost_share_and_one(self):
        """For a cost knob the elasticity is at least that cost's share
        of the final cost (direct contribution) and below one: the chip
        cost also scales the scrap losses, but not the other costs."""
        flow = toy_flow()
        sensitivity = sensitivity_of(flow, "ID1", Knob.COST)
        from repro.cost.moe import evaluate

        report = evaluate(flow)
        direct_share = 100.0 / report.final_cost_per_shipped
        assert direct_share < sensitivity.elasticity < 1.0

    def test_yield_elasticity_negative(self):
        """Better yield means lower final cost."""
        flow = toy_flow()
        sensitivity = sensitivity_of(flow, "ID0", Knob.YIELD)
        assert sensitivity.elasticity < 0

    def test_unknown_node_raises(self):
        with pytest.raises(CostModelError):
            sensitivity_of(toy_flow(), "ID99", Knob.COST)

    def test_missing_knob_raises(self):
        with pytest.raises(CostModelError):
            sensitivity_of(toy_flow(), "ID0", Knob.COVERAGE)

    def test_bad_step_size_rejected(self):
        with pytest.raises(CostModelError):
            sensitivity_of(toy_flow(), "ID0", Knob.COST, relative_step=0.9)

    def test_label(self):
        sensitivity = sensitivity_of(toy_flow(), "ID0", Knob.COST)
        assert "sub" in sensitivity.label
        assert "cost" in sensitivity.label


class TestRanking:
    def test_yields_are_top_drivers_toy(self):
        """Module-level yields have elasticity near -1 (losing a unit
        loses everything spent on it), outranking any single cost."""
        drivers = rank_cost_drivers(toy_flow())
        assert drivers[0].knob is Knob.YIELD
        assert drivers[0].elasticity < -0.9

    def test_chip_cost_is_top_cost_knob_toy(self):
        drivers = [
            d for d in rank_cost_drivers(toy_flow())
            if d.knob is Knob.COST
        ]
        assert drivers[0].step_name == "chip"

    def test_trivial_knobs_skipped(self):
        drivers = rank_cost_drivers(toy_flow())
        for driver in drivers:
            assert driver.base_value != 0.0

    def test_sorted_by_magnitude(self):
        drivers = rank_cost_drivers(toy_flow())
        magnitudes = [abs(d.elasticity) for d in drivers]
        assert magnitudes == sorted(magnitudes, reverse=True)


class TestZeroBaseline:
    def test_zero_base_cost_raises_named_error(self):
        """Regression: a finite-difference elasticity at a zero base
        value would divide by zero; the error must name the step and
        knob instead of propagating a warning or a NaN."""
        flow = (
            FlowBuilder("free-carrier")
            .carrier("freebie", cost=0.0, yield_=0.9)
            .attach("chip", 1, 100.0, 0.95, 0.1, 0.99)
            .test("final", cost=5.0, coverage=0.99)
            .build()
        )
        with pytest.raises(CostModelError, match="zero base value"):
            sensitivity_of(flow, "ID0", Knob.COST)
        with pytest.raises(CostModelError, match="freebie"):
            sensitivity_of(flow, "ID0", Knob.COST)

    def test_ranking_skips_zero_base_knobs(self):
        """rank_cost_drivers must silently skip the knobs that
        sensitivity_of would reject."""
        flow = (
            FlowBuilder("free-carrier")
            .carrier("freebie", cost=0.0, yield_=0.9)
            .attach("chip", 1, 100.0, 0.95, 0.1, 0.99)
            .test("final", cost=5.0, coverage=0.99)
            .build()
        )
        drivers = rank_cost_drivers(flow)
        assert drivers  # the non-trivial knobs still rank
        assert all(
            not (d.node_id == "ID0" and d.knob is Knob.COST)
            for d in drivers
        )


class TestBatchedRankingEquivalence:
    def test_toy_flow_matches_pointwise_exactly(self):
        drivers = rank_cost_drivers(toy_flow())
        assert drivers
        assert ranked(drivers) == reference_ranking(toy_flow())

    def test_gps_flows_match_pointwise_exactly(self):
        for implementation in (1, 2, 3, 4):
            assert ranked(
                rank_cost_drivers(flow_for(implementation))
            ) == reference_ranking(flow_for(implementation))

    def test_bad_step_size_rejected_by_both(self):
        for ranker in (rank_cost_drivers, reference_ranking):
            with pytest.raises(CostModelError):
                ranker(toy_flow(), relative_step=0.9)
        # Also for a flow with no knob to perturb, where no
        # sensitivity_of call would reach its own check.
        knobless = ProductionFlow(name="knobless")
        knobless.steps = [
            CarrierStep("ID0", "carrier", 0.0, 1.0),
            TestStep("ID1", "test", 0.0, 1.0),
        ]
        assert rank_cost_drivers(knobless) == []
        with pytest.raises(CostModelError, match="relative step"):
            rank_cost_drivers(knobless, relative_step=0.9)


class TestGpsDrivers:
    def test_chips_dominate_cost_knobs_every_buildup(self):
        """Among cost knobs the chips are the top driver of every
        build-up, consistent with Fig. 5's 'thereof: chip cost'."""
        for i in (1, 3):
            cost_drivers = [
                d
                for d in rank_cost_drivers(flow_for(i))
                if d.knob is Knob.COST
            ]
            assert cost_drivers[0].step_name in (
                "RF chip",
                "DSP correlator",
            )

    def test_impl3_substrate_yield_among_drivers(self):
        """Build-up 3's 90 % substrate yield is a visible cost driver."""
        drivers = rank_cost_drivers(flow_for(3))
        substrate_yield = next(
            d
            for d in drivers
            if d.step_name == "Substrate (MCM-D/PCB)"
            and d.knob is Knob.YIELD
        )
        # Negative (better yield, lower cost) and non-trivial.
        assert substrate_yield.elasticity < -0.05
