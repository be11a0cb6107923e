"""The GPS receiver front-end case study (paper §3-4)."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "bom": [
            "GPS_BOM_SUMMARY",
            "GpsBomSummary",
            "build_gps_bom",
            "validate_against_paper",
        ],
        "buildups": [
            "BUILDUPS",
            "BuildUp",
            "area_for",
            "flow_for",
            "footprints_for",
            "get_buildup",
            "smd_count_for",
        ],
        "filters_chain": [
            "filter_chain_specs",
            "if_filter_spec",
            "rf_image_reject_spec",
            "technology_assignments",
        ],
        "schematic": [
            "Block",
            "BlockKind",
            "ON_MODULE_FILTERS",
            "SignalChain",
            "build_gps_chain",
        ],
        "study": [
            "GpsStudyRow",
            "paper_comparison",
            "run_gps_study",
            "summary_rows",
        ],
    },
    submodules=["data"],
)
