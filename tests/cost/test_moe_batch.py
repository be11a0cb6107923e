"""Batch/scalar equivalence of the vectorised assessment spine.

`evaluate_batch` is the package's one walk of the MOE cost recurrence,
and `evaluate` is its one-volume case.  Both must be **bit-identical**
to the independent scalar walk in ``tests/moe_reference.py`` — not
approximately equal — and must refuse what it refuses with the same
message; the array yield laws must equal their scalar forms the same
way.  Hypothesis generates random production flows (every step type,
optional rework), random volume families and random area arrays; every
`CostReport` field (including `cost_by_tag` and the per-step reports)
is compared with exact dataclass equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.moe.analytic import evaluate, evaluate_batch
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import (
    AttachStep,
    CarrierStep,
    ProcessStep,
    ReworkPolicy,
    TestStep,
)
from repro.cost.yieldmodels import (
    MurphyYield,
    PerOperationYield,
    PoissonYield,
    SeedsYield,
    StepYield,
    compound_yield,
)
from repro.errors import FlowError

from moe_reference import evaluate as reference_evaluate

# Yields and coverages stay off the degenerate corners so nearly every
# generated flow ships units (lost == 1 needs faulty == coverage == 1
# with no rework); the rare flow that still scraps everything must be
# refused by the batch and the looped path alike.
costs = st.floats(min_value=0.0, max_value=500.0)
yields = st.floats(min_value=0.5, max_value=1.0)
coverages = st.floats(min_value=0.0, max_value=0.999)
volumes = st.lists(
    st.floats(min_value=1e-3, max_value=1e9),
    min_size=1,
    max_size=8,
)


@st.composite
def flows(draw) -> ProductionFlow:
    """A random production flow exercising every step type."""
    steps = [
        CarrierStep(
            "ID0",
            "carrier",
            unit_cost=draw(costs),
            carrier_yield=draw(yields),
        )
    ]
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["process", "attach", "test"]))
        node_id = f"ID{index + 1}"
        if kind == "process":
            steps.append(
                ProcessStep(
                    node_id,
                    f"process {index}",
                    unit_cost=draw(costs),
                    process_yield=draw(yields),
                )
            )
        elif kind == "attach":
            steps.append(
                AttachStep(
                    node_id,
                    f"attach {index}",
                    quantity=draw(st.integers(min_value=0, max_value=20)),
                    component_cost=draw(costs),
                    component_yield=draw(yields),
                    attach_cost=draw(costs),
                    attach_yield=draw(yields),
                    per_operation=draw(st.booleans()),
                )
            )
        else:
            rework = None
            if draw(st.booleans()):
                rework = ReworkPolicy(
                    attempt_cost=draw(costs),
                    success_probability=draw(
                        st.floats(min_value=0.1, max_value=1.0)
                    ),
                    max_attempts=draw(st.integers(min_value=1, max_value=4)),
                )
            steps.append(
                TestStep(
                    node_id,
                    f"test {index}",
                    test_cost=draw(costs),
                    coverage=draw(coverages),
                    rework=rework,
                )
            )
    steps.append(
        TestStep("IDF", "final test", test_cost=draw(costs), coverage=1.0)
    )
    flow = ProductionFlow(
        name="random", nre=draw(st.floats(min_value=0.0, max_value=1e6))
    )
    flow.steps = steps
    return flow


def _assert_looped_refuses(flow, family, exc: FlowError) -> None:
    """The batch refused ``flow`` (it scraps every unit): the looped
    scalar reference must refuse it too, with the same message."""
    refusals = []
    for volume in family:
        try:
            reference_evaluate(flow, volume)
        except FlowError as scalar:
            refusals.append(str(scalar))
    assert str(exc) in refusals


class TestEvaluateBatch:
    @settings(max_examples=120, deadline=None)
    @given(flows(), volumes)
    def test_bit_identical_to_looped_evaluate(self, flow, family):
        try:
            batch = evaluate_batch(flow, family)
        except FlowError as exc:
            _assert_looped_refuses(flow, family, exc)
            return
        looped = tuple(reference_evaluate(flow, volume) for volume in family)
        # Frozen-dataclass equality compares every CostReport field —
        # cost_by_tag dicts and the per-step StepReport tuples included
        # — with exact float equality.
        assert tuple(
            batch.report_at(index) for index in range(len(family))
        ) == looped

    @settings(max_examples=60, deadline=None)
    @given(flows(), volumes)
    def test_columns_match_scalar_fields(self, flow, family):
        try:
            batch = evaluate_batch(flow, family)
        except FlowError as exc:
            _assert_looped_refuses(flow, family, exc)
            return
        assert len(batch) == len(family)
        for column, volume in enumerate(family):
            report = reference_evaluate(flow, volume)
            assert batch.started_units[column] == report.started_units
            assert batch.shipped_units[column] == report.shipped_units
            assert batch.scrapped_units[column] == report.scrapped_units
            assert batch.nre_per_shipped[column] == report.nre_per_shipped
            assert (
                batch.final_cost_per_shipped[column]
                == report.final_cost_per_shipped
            )

    def test_rejects_empty_family(self):
        flow = ProductionFlow(name="empty-family")
        flow.steps = [
            CarrierStep("ID0", "carrier", 1.0, 0.9),
            TestStep("ID1", "test", 1.0, 1.0),
        ]
        with pytest.raises(FlowError, match="at least one volume"):
            evaluate_batch(flow, [])

    def test_rejects_nonpositive_volume(self):
        flow = ProductionFlow(name="bad-volume")
        flow.steps = [
            CarrierStep("ID0", "carrier", 1.0, 0.9),
            TestStep("ID1", "test", 1.0, 1.0),
        ]
        with pytest.raises(FlowError, match="volume must be positive"):
            evaluate_batch(flow, [1e3, 0.0])


#: Volumes of every type a caller may pass, bad ones included: the
#: report keeps the caller's object and a refusal names it unchanged.
single_volumes = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9),
    st.integers(min_value=-10**6, max_value=10**12),
    st.floats(min_value=1e-3, max_value=1e9).map(np.float64),
)


def _outcome(walk, flow, volume):
    """``repr`` of a walk's report, or its exception's type and message.

    ``ZeroDivisionError`` counts as well as ``FlowError``: a volume so
    small that ``shipped * volume`` underflows to zero divides by zero
    in both walks alike.
    """
    try:
        return repr(walk(flow, volume))
    except (FlowError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


class TestEvaluate:
    @settings(max_examples=120, deadline=None)
    @given(flows(), single_volumes)
    def test_bit_identical_to_reference(self, flow, volume):
        # ``repr`` also tells an int from a float and a numpy float from
        # a Python one, which equality would not.
        assert _outcome(evaluate, flow, volume) == _outcome(
            reference_evaluate, flow, volume
        )

    @settings(max_examples=40, deadline=None)
    @given(single_volumes)
    def test_refuses_invalid_flows_like_reference(self, volume):
        no_test = ProductionFlow(name="no-test")
        no_test.steps = [CarrierStep("ID0", "carrier", 1.0, 0.9)]
        negative_nre = ProductionFlow(name="negative-nre", nre=-1.0)
        negative_nre.steps = [
            CarrierStep("ID0", "carrier", 1.0, 0.9),
            TestStep("ID1", "test", 1.0, 1.0),
        ]
        for flow in (ProductionFlow(name="empty"), no_test, negative_nre):
            assert _outcome(evaluate, flow, volume) == _outcome(
                reference_evaluate, flow, volume
            )
            assert _outcome(evaluate, flow, volume)[0] == "FlowError"


#: Edge areas the array laws must agree on: denormal-adjacent, tiny,
#: paper-sized, huge.
EDGE_AREAS = (1e-300, 1e-12, 1e-3, 0.5, 7.0, 123.456, 1e6, 1e12)


class TestArrayYieldLaws:
    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.lists(
            st.floats(min_value=1e-6, max_value=1e4),
            min_size=1,
            max_size=12,
        ),
    )
    def test_laws_elementwise_equal_scalar(self, density, areas):
        array = np.asarray(areas, dtype=np.float64)
        for law in (
            PoissonYield(density),
            MurphyYield(density),
            SeedsYield(density),
        ):
            vectorised = law.yield_for_area(array)
            assert isinstance(vectorised, np.ndarray)
            for index, area in enumerate(areas):
                assert vectorised[index] == law.yield_for_area(area)

    def test_edge_areas_elementwise_equal_scalar(self):
        array = np.asarray(EDGE_AREAS, dtype=np.float64)
        for law in (
            PoissonYield(0.015),
            MurphyYield(0.015),
            SeedsYield(0.015),
            PoissonYield(0.0),
            MurphyYield(0.0),
        ):
            vectorised = law.yield_for_area(array)
            for index, area in enumerate(EDGE_AREAS):
                assert vectorised[index] == law.yield_for_area(area)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=1.0),
        st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=1,
            max_size=8,
        ),
    )
    def test_effective_elementwise_equal_scalar(self, value, operations):
        counts = np.asarray(operations)
        for law in (StepYield(value), PerOperationYield(value)):
            vectorised = law.effective(counts)
            assert isinstance(vectorised, np.ndarray)
            for index, count in enumerate(operations):
                assert vectorised[index] == law.effective(count)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=1.0),
            min_size=2,
            max_size=4,
        ),
        st.lists(
            st.floats(min_value=0.5, max_value=1.0),
            min_size=1,
            max_size=6,
        ),
    )
    def test_compound_yield_broadcasts(self, scalars, lanes):
        array = np.asarray(lanes, dtype=np.float64)
        vectorised = compound_yield(*scalars, array)
        assert isinstance(vectorised, np.ndarray)
        for index, lane in enumerate(lanes):
            assert vectorised[index] == compound_yield(*scalars, lane)
