"""repro — reproduction of Scheffler & Troester, *Assessing the Cost
Effectiveness of Integrated Passives* (DATE 2000).

The library implements the paper's trade-off methodology for deciding
between surface-mount and integrated (thin-film) passives, together with
every substrate it depends on:

* :mod:`repro.core` — the five-step methodology, figure of merit and the
  passives-optimized technology selector;
* :mod:`repro.passives` — SMD catalog and thin-film component models;
* :mod:`repro.circuits` — RLC netlists, nodal AC analysis, filter
  synthesis and technology Q models (performance step);
* :mod:`repro.area` — Table 1 placement/sizing rules (size step);
* :mod:`repro.cost` — the MOE production-flow cost modeller with Monte
  Carlo and analytic evaluation (cost step, Eq. (1));
* :mod:`repro.gps` — the GPS front-end case study reproducing every
  table and figure of the paper's evaluation.

Quickstart::

    from repro.gps import run_gps_study, summary_rows
    result = run_gps_study()
    for row in summary_rows(result):
        print(row.name, row.area_percent, row.cost_percent,
              row.figure_of_merit)

Every package re-exports lazily (:mod:`repro._lazy`): a subpackage or
name loads on first access.
"""

from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "errors": [
            "CalibrationError",
            "CircuitError",
            "ComponentError",
            "CostModelError",
            "FlowError",
            "PlacementError",
            "ReproError",
            "SpecificationError",
            "SynthesisError",
            "TechnologyError",
            "UnitError",
        ],
    },
    submodules=[
        "area",
        "circuits",
        "core",
        "cost",
        "gps",
        "passives",
        "reporting",
        "units",
    ],
)
__all__ += ["__version__"]
