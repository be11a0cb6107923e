"""Cost evaluation results and the Fig. 5 breakdown.

Both evaluators (analytic expectation and Monte Carlo) produce a
:class:`CostReport`.  Its headline number is Eq. (1) of the paper::

    Final Cost per Shipped Unit =
        (sum of direct cost + sum of scrap cost over all steps + NRE)
        / number of shipped units

and its breakdown matches the Fig. 5 stacked bars: direct cost (with the
"thereof: chip cost" portion) plus yield loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import CostModelError
from .nodes import CostTag


@dataclass(frozen=True)
class StepReport:
    """Per-step accounting."""

    node_id: str
    name: str
    unit_cost: float
    units_processed: float
    scrap_units: float
    scrap_cost: float


@dataclass(frozen=True)
class CostReport:
    """Result of evaluating one production flow.

    All "per shipped unit" figures follow Eq. (1).  ``escape_fraction``
    is the fraction of shipped units that still carry an undetected
    fault (test coverage < 100 %).

    Attributes
    ----------
    flow_name:
        Which flow was evaluated.
    started_units / shipped_units / scrapped_units:
        Unit flow accounting (fractions for the analytic evaluator,
        counts for Monte Carlo).
    direct_cost_per_unit:
        Build cost of one fault-free unit (materials + processing + test).
    chip_cost_per_unit:
        The chip-material portion of the direct cost ("thereof: chip
        cost" in Fig. 5).
    yield_loss_per_shipped:
        Scrap cost amortised over shipped units — the Fig. 5 top segment.
    nre_per_shipped:
        Amortised non-recurring engineering cost.
    final_cost_per_shipped:
        Eq. (1): direct + yield loss + NRE share.
    escape_fraction:
        Shipped-but-faulty fraction.
    cost_by_tag:
        Direct cost split by :class:`CostTag`.
    steps:
        Per-step detail.
    """

    flow_name: str
    started_units: float
    shipped_units: float
    scrapped_units: float
    direct_cost_per_unit: float
    chip_cost_per_unit: float
    yield_loss_per_shipped: float
    nre_per_shipped: float
    final_cost_per_shipped: float
    escape_fraction: float
    cost_by_tag: dict[CostTag, float] = field(default_factory=dict)
    steps: tuple[StepReport, ...] = ()

    @property
    def shipped_fraction(self) -> float:
        """Shipped units over started units."""
        if self.started_units == 0:
            return 0.0
        return self.shipped_units / self.started_units


def fig5_row(report: CostReport, reference: CostReport) -> dict[str, float]:
    """One Fig. 5 bar: percentages of the reference final cost.

    Keys mirror the stacked-bar legend: ``final``, ``direct``,
    ``chip`` ("thereof"), and ``yield_loss``.
    """
    base = reference.final_cost_per_shipped
    if base <= 0:
        raise CostModelError("reference flow has non-positive final cost")
    return {
        "final": 100.0 * report.final_cost_per_shipped / base,
        "direct": 100.0 * report.direct_cost_per_unit / base,
        "chip": 100.0 * report.chip_cost_per_unit / base,
        "yield_loss": 100.0 * report.yield_loss_per_shipped / base,
    }
