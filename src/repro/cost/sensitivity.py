"""Cost-driver sensitivity analysis.

The methodology's cost step answers "what does this build-up cost?";
this module answers the follow-up every program manager asks: *which
input moves the answer most?*  It perturbs one production-flow input at
a time (a step's cost, a yield, a test's coverage) and reports the
elasticity of the final cost per shipped unit:

    elasticity = (dF / F) / (dx / x)

computed by central finite differences over the analytic evaluator.
Applied to the GPS build-ups it quantifies the paper's §4.3 narrative —
e.g. that build-up 3's final cost is dominated by the substrate yield.

:func:`rank_cost_drivers` calls :func:`sensitivity_of` for every
knob, which re-walks the flow once per finite-difference side.  Every
final cost comes from the package's one walk of the Eq. (1)
recurrence, :func:`~repro.cost.moe.analytic.evaluate_batch`, at a
single volume; the scalar reference walk lives in
``tests/moe_reference.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import CostModelError
from .moe.analytic import evaluate_batch
from .moe.flow import ProductionFlow
from .moe.nodes import AttachStep, CarrierStep, ProcessStep, Step, TestStep


class Knob(enum.Enum):
    """Which scalar of a step is perturbed."""

    COST = "cost"
    YIELD = "yield"
    COVERAGE = "coverage"


@dataclass(frozen=True)
class Sensitivity:
    """Elasticity of the final cost with respect to one input."""

    node_id: str
    step_name: str
    knob: Knob
    base_value: float
    elasticity: float

    @property
    def label(self) -> str:
        """Human-readable ``"Substrate yield"`` style label."""
        return f"{self.step_name} {self.knob.value}"


def _with_knob(step: Step, knob: Knob, value: float) -> Step:
    """Copy a step with one scalar replaced."""
    if isinstance(step, CarrierStep):
        if knob is Knob.COST:
            return replace(step, unit_cost=value)
        if knob is Knob.YIELD:
            return replace(step, carrier_yield=value)
    elif isinstance(step, AttachStep):
        if knob is Knob.COST:
            return replace(step, component_cost=value)
        if knob is Knob.YIELD:
            return replace(step, attach_yield=value)
    elif isinstance(step, TestStep):
        if knob is Knob.COST:
            return replace(step, test_cost=value)
        if knob is Knob.COVERAGE:
            return replace(step, coverage=value)
    elif isinstance(step, ProcessStep):
        if knob is Knob.COST:
            return replace(step, unit_cost=value)
        if knob is Knob.YIELD:
            return replace(step, process_yield=value)
    raise CostModelError(
        f"step {step.name!r} has no knob {knob.value!r}"
    )


def _read_knob(step: Step, knob: Knob) -> Optional[float]:
    """Current value of a step's knob, or None if not applicable."""
    if isinstance(step, CarrierStep):
        return {
            Knob.COST: step.unit_cost,
            Knob.YIELD: step.carrier_yield,
        }.get(knob)
    if isinstance(step, AttachStep):
        return {
            Knob.COST: step.component_cost,
            Knob.YIELD: step.attach_yield,
        }.get(knob)
    if isinstance(step, TestStep):
        return {
            Knob.COST: step.test_cost,
            Knob.COVERAGE: step.coverage,
        }.get(knob)
    if isinstance(step, ProcessStep):
        return {
            Knob.COST: step.unit_cost,
            Knob.YIELD: step.process_yield,
        }.get(knob)
    return None


def _final_cost(flow: ProductionFlow) -> float:
    """Eq. (1) final cost per shipped unit at the default volume."""
    return float(evaluate_batch(flow, (10_000.0,)).final_cost_per_shipped[0])


def _evaluate_with(
    flow: ProductionFlow, index: int, step: Step
) -> float:
    modified = ProductionFlow(name=flow.name, nre=flow.nre)
    modified.steps = list(flow.steps)
    modified.steps[index] = step
    return _final_cost(modified)


def sensitivity_of(
    flow: ProductionFlow,
    node_id: str,
    knob: Knob,
    relative_step: float = 0.01,
) -> Sensitivity:
    """Elasticity of the final cost w.r.t. one step's knob.

    Yields and coverages are perturbed toward the interior of ``(0, 1]``
    when a symmetric step would leave the domain.
    """
    if not (0.0 < relative_step < 0.5):
        raise CostModelError(
            f"relative step must lie in (0, 0.5), got {relative_step}"
        )
    index = next(
        (i for i, s in enumerate(flow.steps) if s.node_id == node_id),
        None,
    )
    if index is None:
        raise CostModelError(f"no step with node id {node_id!r}")
    step = flow.steps[index]
    base = _read_knob(step, knob)
    if base is None:
        raise CostModelError(
            f"step {step.name!r} has no knob {knob.value!r}"
        )
    if base == 0.0:
        raise CostModelError(
            f"cannot compute elasticity at zero base value for "
            f"{step.name!r} {knob.value}"
        )
    upper, lower = _perturbation_bounds(base, knob, relative_step)
    f_upper = _evaluate_with(flow, index, _with_knob(step, knob, upper))
    f_lower = _evaluate_with(flow, index, _with_knob(step, knob, lower))
    f_base = _final_cost(flow)
    derivative = (f_upper - f_lower) / (upper - lower)
    return Sensitivity(
        node_id=node_id,
        step_name=step.name,
        knob=knob,
        base_value=base,
        elasticity=derivative * base / f_base,
    )


def _perturbation_bounds(
    base: float, knob: Knob, relative_step: float
) -> tuple[float, float]:
    """The central-difference evaluation points around one knob value.

    Yields and coverages are perturbed toward the interior of ``(0, 1]``
    when a symmetric step would leave the domain.
    """
    delta = base * relative_step
    upper = base + delta
    lower = base - delta
    if knob in (Knob.YIELD, Knob.COVERAGE) and upper > 1.0:
        upper = 1.0
        lower = 1.0 - 2.0 * delta
    return upper, lower


def _applicable_knobs(flow: ProductionFlow) -> list[tuple[int, Step, Knob, float]]:
    """Every (step index, step, knob, base value) worth perturbing.

    Knobs at trivial values (zero cost, perfect yield) are skipped —
    their elasticity is zero or undefined.
    """
    knobs: list[tuple[int, Step, Knob, float]] = []
    for index, step in enumerate(flow.steps):
        for knob in Knob:
            base = _read_knob(step, knob)
            if base is None or base == 0.0:
                continue
            if knob in (Knob.YIELD, Knob.COVERAGE) and base == 1.0:
                continue
            knobs.append((index, step, knob, base))
    return knobs


def rank_cost_drivers(
    flow: ProductionFlow, relative_step: float = 0.01
) -> list[Sensitivity]:
    """All applicable (step, knob) elasticities, largest magnitude first.

    Knobs at trivial values (zero cost, perfect yield) are skipped —
    their elasticity is zero or undefined.  Each knob is one
    :func:`sensitivity_of` call, which re-walks the flow once per
    finite-difference side.
    """
    if not (0.0 < relative_step < 0.5):
        raise CostModelError(
            f"relative step must lie in (0, 0.5), got {relative_step}"
        )
    results = [
        sensitivity_of(flow, step.node_id, knob, relative_step)
        for _, step, knob, _ in _applicable_knobs(flow)
    ]
    results.sort(key=lambda s: abs(s.elasticity), reverse=True)
    return results
