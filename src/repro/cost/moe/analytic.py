"""Exact expectation evaluation of a production flow.

The Monte Carlo engine (:mod:`repro.cost.moe.simulate`) mirrors the MOE
tool's "translate yield figures into faults using Monte Carlo simulation";
this module computes the same quantities in closed form, which is faster,
deterministic, and a cross-check the test suite exploits (the two must
agree within sampling error).

State tracked while walking the flow, all per started unit:

* ``alive`` — fraction of units not yet scrapped;
* ``faulty`` — probability a *surviving* unit carries a latent fault;
* ``accumulated`` — cost sunk into each surviving unit so far
  (deterministic, since every step charges every processed unit);
* ``spend`` — expected total spend, ``sum(alive_at_step * step_cost)``.

At a test with coverage ``c``: the detected fraction ``faulty * c`` of
survivors is scrapped, losing ``accumulated`` each (test cost included —
the test was performed).

The whole recurrence is *volume-independent*: volume enters Eq. (1)
only through the absolute unit counts and the NRE amortisation.
:func:`evaluate_batch` therefore walks the flow **once** for a whole
family of volumes and returns a columnar :class:`CostReportBatch`; it
is the one walk of the recurrence in the package.  :func:`evaluate` is
its one-volume case, and every other cost consumer (the sweep's cost
table, :mod:`repro.cost.sensitivity`) calls one of the two.  The plain
scalar walk lives in ``tests/moe_reference.py`` as the reference the
test suite checks this one against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...errors import FlowError
from .flow import ProductionFlow
from .nodes import AttachStep, CostTag, TestStep
from .report import CostReport, StepReport


def evaluate(flow: ProductionFlow, volume: float = 10_000.0) -> CostReport:
    """Evaluate a flow analytically.

    The one-volume case of :func:`evaluate_batch`; the report's
    ``started_units`` is the ``volume`` object as given.

    Parameters
    ----------
    flow:
        The production flow to evaluate.
    volume:
        Number of started units; only affects the absolute unit counts
        and the NRE amortisation (Eq. (1) divides NRE by shipped units).
    """
    return evaluate_batch(flow, (volume,)).report_at(0)


# ---------------------------------------------------------------------------
# Batched evaluation over a volume family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostReportBatch:
    """One flow evaluated at a whole family of volumes, columnar.

    Everything the recurrence produces is volume-independent and stored
    once as Python-float scalars (``shipped_fraction``,
    ``direct_cost_per_unit``, per-step fractions); the volume axis only
    scales unit counts and amortises NRE, so the per-volume columns are
    derived properties.  :meth:`report_at` builds the scalar
    :class:`~repro.cost.moe.report.CostReport` of one volume, which is
    what :func:`evaluate` returns.
    """

    flow_name: str
    volumes: tuple[float, ...]
    shipped_fraction: float
    escape_fraction: float
    direct_cost_per_unit: float
    chip_cost_per_unit: float
    yield_loss_per_shipped: float
    nre: float
    cost_by_tag: dict[CostTag, float]
    step_node_ids: tuple[str, ...]
    step_names: tuple[str, ...]
    step_unit_costs: tuple[float, ...]
    step_processed_fractions: tuple[float, ...]
    step_scrap_unit_fractions: tuple[float, ...]
    step_scrap_cost_fractions: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.volumes)

    @property
    def started_units(self) -> np.ndarray:
        """``(V,)`` started units — the volume axis itself."""
        return np.asarray(self.volumes, dtype=np.float64)

    @property
    def shipped_units(self) -> np.ndarray:
        """``(V,)`` shipped units."""
        return self.shipped_fraction * self.started_units

    @property
    def scrapped_units(self) -> np.ndarray:
        """``(V,)`` scrapped units."""
        return (1.0 - self.shipped_fraction) * self.started_units

    @property
    def nre_per_shipped(self) -> np.ndarray:
        """``(V,)`` NRE amortisation — the only genuinely per-volume cost."""
        return self.nre / (self.shipped_fraction * self.started_units)

    @property
    def final_cost_per_shipped(self) -> np.ndarray:
        """``(V,)`` Eq. (1) final cost per shipped unit."""
        return (
            self.direct_cost_per_unit + self.yield_loss_per_shipped
        ) + self.nre_per_shipped

    def report_at(self, index: int) -> CostReport:
        """The scalar :class:`CostReport` of one volume of the family."""
        volume = self.volumes[index]
        shipped = self.shipped_fraction
        nre_per_shipped = self.nre / (shipped * volume)
        final = (
            self.direct_cost_per_unit + self.yield_loss_per_shipped
        ) + nre_per_shipped
        steps = tuple(
            StepReport(
                node_id=node_id,
                name=name,
                unit_cost=unit_cost,
                units_processed=processed * volume,
                scrap_units=scrap_units * volume,
                scrap_cost=scrap_cost * volume,
            )
            for node_id, name, unit_cost, processed, scrap_units, scrap_cost
            in zip(
                self.step_node_ids,
                self.step_names,
                self.step_unit_costs,
                self.step_processed_fractions,
                self.step_scrap_unit_fractions,
                self.step_scrap_cost_fractions,
            )
        )
        return CostReport(
            flow_name=self.flow_name,
            started_units=volume,
            shipped_units=shipped * volume,
            scrapped_units=(1.0 - shipped) * volume,
            direct_cost_per_unit=self.direct_cost_per_unit,
            chip_cost_per_unit=self.chip_cost_per_unit,
            yield_loss_per_shipped=self.yield_loss_per_shipped,
            nre_per_shipped=nre_per_shipped,
            final_cost_per_shipped=final,
            escape_fraction=self.escape_fraction,
            cost_by_tag=dict(self.cost_by_tag),
            steps=steps,
        )


def evaluate_batch(
    flow: ProductionFlow, volumes: Sequence[float]
) -> CostReportBatch:
    """Evaluate a flow analytically at a whole family of volumes.

    The alive/faulty/accumulated/spend recurrence is walked **once**
    (it never sees the volume), recording the per-step fractions; the
    returned :class:`CostReportBatch` broadcasts them over the volume
    axis.  The batch keeps the caller's volume objects, so
    :meth:`CostReportBatch.report_at` does the same arithmetic on the
    same operands as a walk of that one volume would.
    """
    flow.validate()
    volume_list = tuple(volumes)
    if not volume_list:
        raise FlowError("evaluate_batch needs at least one volume")
    for volume in volume_list:
        if volume <= 0:
            raise FlowError(f"volume must be positive, got {volume}")

    alive = 1.0
    faulty = 0.0
    accumulated = 0.0
    spend = 0.0
    cost_by_tag: dict[CostTag, float] = {}
    node_ids: list[str] = []
    names: list[str] = []
    unit_costs: list[float] = []
    processed_fractions: list[float] = []
    scrap_unit_fractions: list[float] = []
    scrap_cost_fractions: list[float] = []

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
        node_ids.append(step.node_id)
        names.append(step.name)
        unit_costs.append(step.cost)
        processed_fractions.append(processed)
        scrap_unit_fractions.append(scrap_units)
        scrap_cost_fractions.append(scrap_cost)

    shipped = alive
    if shipped <= 0:
        raise FlowError(
            f"flow {flow.name!r} ships no units (everything scrapped)"
        )
    direct = accumulated
    # Eq. (1): everything spent, over everything shipped.  Without
    # rework this reduces to direct + scrap/shipped; with rework it also
    # carries the repair spend.
    yield_loss = spend / shipped - direct
    return CostReportBatch(
        flow_name=flow.name,
        volumes=volume_list,
        shipped_fraction=shipped,
        escape_fraction=faulty,
        direct_cost_per_unit=direct,
        chip_cost_per_unit=cost_by_tag.get(CostTag.CHIP, 0.0),
        yield_loss_per_shipped=yield_loss,
        nre=flow.nre,
        cost_by_tag=cost_by_tag,
        step_node_ids=tuple(node_ids),
        step_names=tuple(names),
        step_unit_costs=tuple(unit_costs),
        step_processed_fractions=tuple(processed_fractions),
        step_scrap_unit_fractions=tuple(scrap_unit_fractions),
        step_scrap_cost_fractions=tuple(scrap_cost_fractions),
    )
