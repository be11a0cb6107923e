"""Calibration of the confidential chip costs (Table 2's XX/YY/ZZ/AA).

The paper redacts the chip costs ("chip cost is confidential") yet they
dominate the Fig. 5 bars ("thereof: chip cost").  This module recovers
values consistent with the published results by least-squares fitting the
Fig. 5 cost ratios (104.7 / 112.8 / 105.3 % of the PCB reference) over
the *actual* MOE evaluation of the four build-up flows, under two
plausibility constraints:

* bare dice are slightly cheaper than packaged, fully-tested parts
  (the paper calls them "the (cheaper) not fully tested chips") —
  expressed as a fixed bare/packaged discount;
* the DSP correlator costs more than the RF chip (it is the ~10x larger
  die, Table 1).

A perfect fit is impossible: as the analysis in EXPERIMENTS.md shows,
Table 2's inputs cannot produce the exact published triple for any chip
cost, because build-up 2's low penalty requires chip-dominated costs
while the build-up 3 vs 4 gap requires the opposite.  The calibrated
optimum preserves the published *ordering* (PCB < WB/SMD < FC/IP&SMD <
FC/IP) with penalties in the published few-percent band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import CalibrationError

#: Fig. 5 targets as ratios to the PCB reference.
FIG5_TARGET_RATIOS = {2: 1.047, 3: 1.128, 4: 1.053}

#: Bare-die cost as a fraction of the packaged part (plausibility prior).
DEFAULT_BARE_DISCOUNT = 0.95

#: DSP-to-RF cost ratio prior (the correlator die is far larger).
DEFAULT_DSP_TO_RF_RATIO = 2.0


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a chip-cost calibration run."""

    rf_packaged: float
    rf_bare: float
    dsp_packaged: float
    dsp_bare: float
    achieved_ratios: dict[int, float]
    target_ratios: dict[int, float]
    residual_norm: float
    ordering_preserved: bool

    @property
    def max_ratio_error(self) -> float:
        """Largest absolute error across the three Fig. 5 ratios."""
        return max(
            abs(self.achieved_ratios[i] - self.target_ratios[i])
            for i in self.target_ratios
        )


def check_bare_discount(bare_discount: float) -> float:
    """``bare_discount`` if it lies in (0, 1], else :class:`CalibrationError`."""
    if not (0.0 < bare_discount <= 1.0):
        raise CalibrationError(
            f"bare discount must lie in (0, 1], got {bare_discount}"
        )
    return bare_discount


def calibrate_chip_costs(
    evaluate_ratios: Optional[
        Callable[[float, float, float, float], dict[int, float]]
    ] = None,
    bare_discount: float = DEFAULT_BARE_DISCOUNT,
    initial_rf: float = 160.0,
    initial_dsp: float = 320.0,
    bounds: tuple[float, float] = (20.0, 800.0),
) -> CalibrationResult:
    """Solve for chip costs that best reproduce the Fig. 5 ratios.

    Parameters
    ----------
    evaluate_ratios:
        Callable mapping ``(rf_packaged, rf_bare, dsp_packaged,
        dsp_bare)`` to the final-cost ratios ``{2: r2, 3: r3, 4: r4}``
        relative to build-up 1.  Defaults to the full GPS MOE evaluation.
    bare_discount:
        Bare-die cost as a fraction of the packaged part.
    initial_rf / initial_dsp:
        Starting packaged-part costs.
    bounds:
        Box bounds on the packaged costs.

    Raises
    ------
    CalibrationError
        If the optimiser fails or the resulting ordering is degenerate.
    """
    check_bare_discount(bare_discount)
    # Imported here so only ``repro-gps calibrate`` pays for scipy.optimize.
    from scipy.optimize import least_squares

    if evaluate_ratios is None:
        evaluate_ratios = _gps_ratio_evaluator()

    targets = FIG5_TARGET_RATIOS

    def residuals(params: Sequence[float]) -> np.ndarray:
        rf_pkg, dsp_pkg = params
        ratios = evaluate_ratios(
            rf_pkg, rf_pkg * bare_discount, dsp_pkg, dsp_pkg * bare_discount
        )
        return np.array([ratios[i] - targets[i] for i in (2, 3, 4)])

    try:
        solution = least_squares(
            residuals,
            x0=[initial_rf, initial_dsp],
            bounds=([bounds[0], bounds[0]], [bounds[1], bounds[1]]),
        )
    except Exception as exc:  # pragma: no cover - scipy failure path
        raise CalibrationError(f"optimiser failed: {exc}") from exc
    if not solution.success:
        raise CalibrationError(
            f"calibration did not converge: {solution.message}"
        )
    rf_pkg, dsp_pkg = solution.x
    achieved = evaluate_ratios(
        rf_pkg, rf_pkg * bare_discount, dsp_pkg, dsp_pkg * bare_discount
    )
    ordering = 1.0 < achieved[2] < achieved[4] < achieved[3]
    return CalibrationResult(
        rf_packaged=float(rf_pkg),
        rf_bare=float(rf_pkg * bare_discount),
        dsp_packaged=float(dsp_pkg),
        dsp_bare=float(dsp_pkg * bare_discount),
        achieved_ratios=achieved,
        target_ratios=dict(targets),
        residual_norm=float(np.linalg.norm(solution.fun)),
        ordering_preserved=ordering,
    )


def _gps_ratio_evaluator() -> Callable[
    [float, float, float, float], dict[int, float]
]:
    """Default evaluator: the full GPS build-up flows under MOE.

    Substrate areas are computed once (they do not depend on chip cost).
    """
    from ..gps import data as gps_data
    from ..gps.buildups import area_for, flow_for
    from .moe import evaluate

    areas = {i: area_for(i).substrate_area_cm2 for i in (1, 2, 3, 4)}

    def evaluator(
        rf_pkg: float, rf_bare: float, dsp_pkg: float, dsp_bare: float
    ) -> dict[int, float]:
        costs = gps_data.ChipCosts(
            rf_packaged=rf_pkg,
            rf_bare=rf_bare,
            dsp_packaged=dsp_pkg,
            dsp_bare=dsp_bare,
        )
        reports = {
            i: evaluate(flow_for(i, areas[i], costs)) for i in (1, 2, 3, 4)
        }
        base = reports[1].final_cost_per_shipped
        return {
            i: reports[i].final_cost_per_shipped / base for i in (2, 3, 4)
        }

    return evaluator
