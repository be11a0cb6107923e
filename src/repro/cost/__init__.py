"""Cost modelling substrate: MOE engine, yield models, calibration."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "calibration": [
            "CalibrationResult",
            "DEFAULT_BARE_DISCOUNT",
            "FIG5_TARGET_RATIOS",
            "calibrate_chip_costs",
        ],
        "sensitivity": [
            "Knob",
            "Sensitivity",
            "rank_cost_drivers",
            "sensitivity_of",
        ],
        "yieldmodels": [
            "MurphyYield",
            "PerOperationYield",
            "PoissonYield",
            "SeedsYield",
            "StepYield",
            "compound_yield",
            "defect_probability",
        ],
        # Reachable as ``repro.cost.moe``, not re-exported.
        "moe": [],
    },
)
