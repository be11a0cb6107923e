"""The scalar MOE cost walk, the reference for differential tests.

:func:`repro.cost.moe.analytic.evaluate_batch` is the package's one
walk of the Eq. (1) step recurrence, and
:func:`~repro.cost.moe.analytic.evaluate` is its one-volume case.  This
module keeps the plain scalar walk they replaced: one volume at a time,
in Python floats.  ``tests/cost/test_moe_batch.py`` checks the
production walk against it bit for bit, and the per-point sweep
reference (``tests/per_point.py``) costs its cells with it, so the
differential tests compare two independent walks.
"""

from __future__ import annotations

import math

from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import AttachStep, CostTag, TestStep
from repro.cost.moe.report import CostReport, StepReport
from repro.errors import FlowError


def evaluate(flow: ProductionFlow, volume: float = 10_000.0) -> CostReport:
    """Evaluate a flow analytically.

    Parameters
    ----------
    flow:
        The production flow to evaluate.
    volume:
        Number of started units; only affects the absolute unit counts
        and the NRE amortisation (Eq. (1) divides NRE by shipped units).
    """
    flow.validate()
    if volume <= 0:
        raise FlowError(f"volume must be positive, got {volume}")

    alive = 1.0
    faulty = 0.0
    accumulated = 0.0
    spend = 0.0
    scrap_cost_total = 0.0
    cost_by_tag: dict[CostTag, float] = {}
    step_reports: list[StepReport] = []

    def charge(amount: float, tag: CostTag) -> None:
        nonlocal accumulated, spend
        accumulated += amount
        spend += alive * amount
        cost_by_tag[tag] = cost_by_tag.get(tag, 0.0) + amount

    for step in flow.steps:
        scrap_units = 0.0
        scrap_cost = 0.0
        processed = alive
        if isinstance(step, TestStep):
            charge(step.cost, step.cost_tag)
            detected = faulty * step.coverage
            if step.rework is None:
                lost = detected
                sunk_extra = 0.0
            else:
                policy = step.rework
                lost = detected * (1.0 - policy.recovery_fraction)
                # Expected rework spend over all detected units
                # (repaired ones and eventual scrap alike).
                spend += alive * detected * policy.expected_cost
                sunk_extra = policy.max_attempts * policy.attempt_cost
            scrap_units = alive * lost
            scrap_cost = scrap_units * (accumulated + sunk_extra)
            scrap_cost_total += scrap_cost
            alive *= 1.0 - lost
            if lost < 1.0:
                # Survivors: never-detected escapes stay faulty;
                # reworked units are repaired.
                faulty = faulty * (1.0 - step.coverage) / (1.0 - lost)
            else:
                faulty = 0.0
        elif isinstance(step, AttachStep):
            charge(step.material_cost, step.component_tag)
            charge(step.operation_cost, CostTag.ASSEMBLY)
            faulty = 1.0 - (1.0 - faulty) * step.yield_
        else:
            charge(step.cost, step.cost_tag)
            faulty = 1.0 - (1.0 - faulty) * step.yield_
        step_reports.append(
            StepReport(
                node_id=step.node_id,
                name=step.name,
                unit_cost=step.cost,
                units_processed=processed * volume,
                scrap_units=scrap_units * volume,
                scrap_cost=scrap_cost * volume,
            )
        )

    shipped = alive
    if shipped <= 0:
        raise FlowError(
            f"flow {flow.name!r} ships no units (everything scrapped)"
        )
    direct = accumulated
    chip_cost = cost_by_tag.get(CostTag.CHIP, 0.0)
    # Eq. (1): everything spent, over everything shipped.  Without
    # rework this reduces to direct + scrap/shipped; with rework it also
    # carries the repair spend.
    yield_loss = spend / shipped - direct
    shipped_units = shipped * volume
    if not (shipped_units > 0 and math.isfinite(flow.nre / shipped_units)):
        # e.g. volume=5e-324: half a unit shipped underflows to zero.
        raise FlowError(
            f"volume {volume} is too small for flow {flow.name!r}: its "
            f"NRE per shipped unit is not a finite number"
        )
    nre_per_shipped = flow.nre / (shipped * volume)
    final = direct + yield_loss + nre_per_shipped
    return CostReport(
        flow_name=flow.name,
        started_units=volume,
        shipped_units=shipped * volume,
        scrapped_units=(1.0 - shipped) * volume,
        direct_cost_per_unit=direct,
        chip_cost_per_unit=chip_cost,
        yield_loss_per_shipped=yield_loss,
        nre_per_shipped=nre_per_shipped,
        final_cost_per_shipped=final,
        escape_fraction=faulty,
        cost_by_tag=cost_by_tag,
        steps=tuple(step_reports),
    )
