"""Area estimation substrate (methodology step 3, Table 1 rules, Fig. 3)."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "footprint": [
            "CHIP_AREAS",
            "ChipAreas",
            "Footprint",
            "MountKind",
            "TABLE1_FILTER_AREAS",
            "TABLE1_IP_AREAS",
        ],
        "placement": [
            "AreaReport",
            "PlacedRect",
            "ShelfLayout",
            "ShelfPlacer",
            "area_breakdown",
            "area_ratio",
            "trivial_placement",
            "trivial_placement_batch",
        ],
        "substrate": [
            "LAMINATE_RULE",
            "LaminateRule",
            "MCM_D_COARSE_RULE",
            "MCM_D_FINE_RULE",
            "MCM_D_RULE",
            "PCB_RULE",
            "PackageSize",
            "SUBSTRATE_RULES",
            "SubstrateRule",
            "SubstrateSize",
        ],
    },
)
