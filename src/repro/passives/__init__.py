"""Passive-component technology libraries.

Public surface:

* :mod:`repro.passives.component` — requirement/realization abstractions
  and bills of materials;
* :mod:`repro.passives.smd` — surface-mount catalog (Fig. 1 data);
* :mod:`repro.passives.thin_film` — integrated thin-film models (§2);
* :mod:`repro.passives.tolerance` — scatter and laser-trim models;
* :mod:`repro.passives.filters` — filter-block components.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "component": [
            "BillOfMaterials",
            "BomLine",
            "MountingStyle",
            "PassiveKind",
            "PassiveRealization",
            "PassiveRequirement",
            "PassiveRole",
        ],
        "eseries": [
            "E_SERIES_BASES",
            "SERIES_TOLERANCE",
            "SnappedValue",
            "max_snap_error",
            "series_values",
            "snap",
            "snap_all",
        ],
        "filters": [
            "FilterBank",
            "FilterBlock",
            "FilterFamily",
            "FilterSpec",
            "realize_integrated_filter",
            "realize_smd_filter",
        ],
        "smd": [
            "CASE_SIZES",
            "FIG1_ORDER",
            "SMD_FILTER_AREA_MM2",
            "SmdCaseSize",
            "fig1_series",
            "get_case",
            "realize_smd",
        ],
        "thin_film": [
            "INTEGRATED_FILTER_AREA_MM2",
            "NICR_PROCESS",
            "SI3N4_PROCESS",
            "SUMMIT_PROCESS",
            "THIN_FILM_PROCESSES",
            "SpiralInductorDesign",
            "ThinFilmProcess",
            "capacitor_area_mm2",
            "design_spiral_inductor",
            "inductor_area_mm2",
            "realize_capacitor",
            "realize_inductor",
            "realize_integrated",
            "realize_resistor",
            "resistor_area_mm2",
            "resistor_squares",
            "with_cap_density",
            "with_loss",
        ],
        "tolerance": [
            "MATCHING_CLASS",
            "PRECISION_CLASS",
            "TOLERANCE_CLASSES",
            "ToleranceClass",
            "ToleranceModel",
            "TrimDecision",
            "TrimPlan",
            "UNCRITICAL_CLASS",
            "monte_carlo_network_yield",
            "network_value_yield",
            "trim_plan",
            "value_yield",
        ],
    },
)
