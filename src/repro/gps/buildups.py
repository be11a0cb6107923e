"""The four physical build-ups of the GPS front end (paper §4).

1. **PCB/SMD** — reference: packaged chips and SMD passives on FR4.
2. **MCM-D(Si)/WB/SMD** — bare dice wire-bonded on a silicon MCM-D
   substrate, passives still SMD, module packaged on a BGA laminate.
3. **MCM-D(Si)/FC/IP** — flip-chip dice, *all* passives integrated in
   the thin-film substrate.
4. **MCM-D(Si)/FC/IP&SMD** — flip-chip dice, passives optimized: a
   passive is integrated only when that is the smaller realisation
   (decaps stay SMD) or when performance demands SMD (IF inductors).

Each build-up yields (a) the component footprint list for the area step,
(b) the MOE production flow for the cost step, and (c) the filter
technology assignment for the performance step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..area.footprint import Footprint, MountKind
from ..area.placement import AreaReport, trivial_placement
from ..area.substrate import LAMINATE_RULE, MCM_D_RULE, PCB_RULE
from ..cost.moe.builder import FlowBuilder
from ..cost.moe.flow import ProductionFlow
from ..cost.moe.nodes import CostTag
from ..errors import TechnologyError
from ..passives.smd import get_case
from ..passives.thin_film import (
    SUMMIT_PROCESS,
    ThinFilmProcess,
    capacitor_area_mm2,
    inductor_area_mm2,
    resistor_area_mm2,
)
from . import data
from .bom import (
    DECAP_CASE,
    DECAP_VALUE_F,
    GPS_BOM_SUMMARY,
    IF_FILTER_COUNT,
    MATCHING_INDUCTOR_CASE,
    MATCHING_INDUCTOR_VALUE_H,
    RESISTOR_CASE,
    RESISTOR_VALUE_OHM,
    SMALL_CAP_CASE,
    SMALL_CAP_VALUE_F,
    SMD_INDUCTORS_PER_IF_FILTER,
)

#: Integrated area of the hybrid IF filter's thin-film portion in
#: build-up 4 (capacitors + resistors + interconnect; the inductors are
#: SMD parts counted separately).
HYBRID_IF_FILTER_INTEGRATED_AREA_MM2 = 8.0


@dataclass(frozen=True)
class BuildUp:
    """Static description of one implementation."""

    number: int
    name: str
    is_mcm: bool
    chip_mount: MountKind


BUILDUPS: dict[int, BuildUp] = {
    1: BuildUp(1, data.IMPLEMENTATION_NAMES[1], False, MountKind.PACKAGED),
    2: BuildUp(2, data.IMPLEMENTATION_NAMES[2], True, MountKind.WIRE_BOND),
    3: BuildUp(3, data.IMPLEMENTATION_NAMES[3], True, MountKind.FLIP_CHIP),
    4: BuildUp(4, data.IMPLEMENTATION_NAMES[4], True, MountKind.FLIP_CHIP),
}


def get_buildup(implementation: int) -> BuildUp:
    """Look up a build-up; implementation must be 1..4."""
    try:
        return BUILDUPS[implementation]
    except KeyError:
        raise TechnologyError(
            f"implementation must be 1..4, got {implementation}"
        ) from None


# ---------------------------------------------------------------------------
# Footprints (area step)
# ---------------------------------------------------------------------------

def _chip_footprints(buildup: BuildUp) -> list[Footprint]:
    key = {
        MountKind.PACKAGED: "packaged",
        MountKind.WIRE_BOND: "wire_bond",
        MountKind.FLIP_CHIP: "flip_chip",
    }[buildup.chip_mount]
    return [
        Footprint("RF chip", data.RF_CHIP_AREA[key], buildup.chip_mount),
        Footprint(
            "DSP correlator", data.DSP_CHIP_AREA[key], buildup.chip_mount
        ),
    ]


def _smd_passive_footprints() -> list[Footprint]:
    """All 112 passives as SMDs (build-ups 1 and 2)."""
    summary = GPS_BOM_SUMMARY
    footprints: list[Footprint] = []

    def bulk(name: str, case: str, count: int) -> None:
        area = get_case(case).footprint_area_mm2
        footprints.extend(
            Footprint(f"{name}{i}", area, MountKind.SMD)
            for i in range(count)
        )

    bulk("R", RESISTOR_CASE, summary.resistor_count)
    bulk("C", SMALL_CAP_CASE, summary.small_cap_count)
    bulk("L", MATCHING_INDUCTOR_CASE, summary.matching_inductor_count)
    bulk("Cdec", DECAP_CASE, summary.decap_count)
    return footprints


def _smd_filter_footprints() -> list[Footprint]:
    return [
        Footprint(f"filter{i}", data.SMD_FILTER_AREA, MountKind.SMD)
        for i in range(GPS_BOM_SUMMARY.filter_count)
    ]


def _integrated_passive_footprints(
    include_decaps: bool,
    process: ThinFilmProcess = SUMMIT_PROCESS,
) -> list[Footprint]:
    """Thin-film realisations of the discrete passives (build-ups 3/4)."""
    summary = GPS_BOM_SUMMARY
    footprints: list[Footprint] = []

    r_area = resistor_area_mm2(RESISTOR_VALUE_OHM, process)
    footprints.extend(
        Footprint(f"IP-R{i}", r_area, MountKind.INTEGRATED)
        for i in range(summary.resistor_count)
    )
    c_area = capacitor_area_mm2(SMALL_CAP_VALUE_F, process)
    footprints.extend(
        Footprint(f"IP-C{i}", c_area, MountKind.INTEGRATED)
        for i in range(summary.small_cap_count)
    )
    l_area = inductor_area_mm2(MATCHING_INDUCTOR_VALUE_H, process)
    footprints.extend(
        Footprint(f"IP-L{i}", l_area, MountKind.INTEGRATED)
        for i in range(summary.matching_inductor_count)
    )
    if include_decaps:
        dec_area = capacitor_area_mm2(DECAP_VALUE_F, process)
        footprints.extend(
            Footprint(f"IP-Cdec{i}", dec_area, MountKind.INTEGRATED)
            for i in range(summary.decap_count)
        )
    return footprints


@lru_cache(maxsize=64)
def footprints_for(
    implementation: int,
    process: ThinFilmProcess = SUMMIT_PROCESS,
) -> tuple[Footprint, ...]:
    """Everything placed on the board/substrate of one build-up.

    ``process`` selects the thin-film process sizing the integrated
    passives of build-ups 3 and 4 (the design-space sweep's process
    axis); it has no effect on the all-SMD build-ups 1 and 2.

    Memoised per ``(implementation, process)``: every caller gets the
    same immutable tuple, so the sweep's candidates share it across
    volume families and render its area cache key once
    (:func:`repro.core.sweep.candidate_area_keys`).
    """
    return tuple(_build_footprints(implementation, process))


def _build_footprints(
    implementation: int, process: ThinFilmProcess
) -> list[Footprint]:
    buildup = get_buildup(implementation)
    footprints = _chip_footprints(buildup)
    if implementation in (1, 2):
        footprints.extend(_smd_passive_footprints())
        footprints.extend(_smd_filter_footprints())
        return footprints
    if implementation == 3:
        footprints.extend(
            _integrated_passive_footprints(include_decaps=True, process=process)
        )
        footprints.append(
            Footprint(
                "image reject filter",
                data.INTEGRATED_FILTER_AREA,
                MountKind.INTEGRATED,
            )
        )
        footprints.extend(
            Footprint(
                f"IF filter {i + 1}",
                data.INTEGRATED_FILTER_AREA,
                MountKind.INTEGRATED,
            )
            for i in range(IF_FILTER_COUNT)
        )
        return footprints
    # Build-up 4: passives optimized.
    footprints.extend(
        _integrated_passive_footprints(include_decaps=False, process=process)
    )
    dec_area = get_case(DECAP_CASE).footprint_area_mm2
    footprints.extend(
        Footprint(f"Cdec{i}", dec_area, MountKind.SMD)
        for i in range(GPS_BOM_SUMMARY.decap_count)
    )
    footprints.append(
        Footprint(
            "image reject filter",
            data.INTEGRATED_FILTER_AREA,
            MountKind.INTEGRATED,
        )
    )
    if_l_area = get_case(MATCHING_INDUCTOR_CASE).footprint_area_mm2
    for i in range(IF_FILTER_COUNT):
        footprints.append(
            Footprint(
                f"IF filter {i + 1} (thin-film part)",
                HYBRID_IF_FILTER_INTEGRATED_AREA_MM2,
                MountKind.INTEGRATED,
            )
        )
        footprints.extend(
            Footprint(f"IF{i + 1}-L{j}", if_l_area, MountKind.SMD)
            for j in range(SMD_INDUCTORS_PER_IF_FILTER)
        )
    return footprints


def area_for(implementation: int) -> AreaReport:
    """Run the paper's trivial placement for one build-up."""
    buildup = get_buildup(implementation)
    footprints = footprints_for(implementation)
    if buildup.is_mcm:
        return trivial_placement(footprints, MCM_D_RULE, LAMINATE_RULE)
    return trivial_placement(footprints, PCB_RULE, laminate=None)


def integrated_count_for(
    implementation: int,
    process: ThinFilmProcess = SUMMIT_PROCESS,
) -> int:
    """Number of integrated thin-film structures on the substrate.

    This is the count the tolerance-class yield model of the design-space
    sweep raises its per-structure yield to: every integrated passive
    (and integrated filter section) must land inside its acceptance
    window for the substrate to pass.
    """
    return sum(
        1
        for f in footprints_for(implementation, process)
        if f.mount is MountKind.INTEGRATED
    )


def smd_count_for(implementation: int) -> int:
    """Number of SMD passive positions (Table 2's "# SMD's" row).

    Discrete filter blocks are counted separately by the paper, so they
    are excluded here; the SMD inductors inside build-up 4's hybrid IF
    filters *are* individual SMD positions and count.
    """
    return sum(
        1
        for f in footprints_for(implementation)
        if f.mount is MountKind.SMD and not f.name.startswith("filter")
    )


# ---------------------------------------------------------------------------
# Production flows (cost step, Fig. 4)
# ---------------------------------------------------------------------------

def flow_for(
    implementation: int,
    substrate_area_cm2: Optional[float] = None,
    chip_costs: Optional[data.ChipCosts] = None,
    nre: float = 0.0,
    substrate_yield_factor: float = 1.0,
    extra_substrate_cost: float = 0.0,
) -> ProductionFlow:
    """Build the MOE production flow for one build-up.

    Parameters
    ----------
    implementation:
        Build-up number 1..4.
    substrate_area_cm2:
        Substrate area feeding the per-cm^2 substrate cost; computed from
        the area step when omitted ("the respective substrate/board area
        calculated in the last section was fed into the cost modeling
        step").
    chip_costs:
        The four confidential chip costs; calibrated defaults when
        omitted.
    nre:
        Non-recurring engineering cost amortised over shipped units.
    substrate_yield_factor:
        Multiplier on the substrate carrier yield; the design-space sweep
        folds its tolerance-class module yield in here.
    extra_substrate_cost:
        Additional per-substrate cost (e.g. laser trimming of precision
        structures).
    """
    buildup = get_buildup(implementation)
    if substrate_area_cm2 is None:
        substrate_area_cm2 = area_for(implementation).substrate_area_cm2
    if chip_costs is None:
        chip_costs = data.ChipCosts()
    if not (0.0 < substrate_yield_factor <= 1.0):
        raise TechnologyError(
            "substrate yield factor must lie in (0, 1], got "
            f"{substrate_yield_factor}"
        )

    i = implementation
    builder = FlowBuilder(buildup.name, nre=nre)
    builder.carrier(
        "Substrate (MCM-D/PCB)",
        cost=data.SUBSTRATE_COST_PER_CM2[i] * substrate_area_cm2
        + extra_substrate_cost,
        yield_=data.SUBSTRATE_YIELD[i] * substrate_yield_factor,
    )
    builder.process("Paste impression", cost=0.0, yield_=1.0)
    builder.process("Rerouting", cost=0.0, yield_=1.0)

    packaged = not buildup.is_mcm
    rf_cost = (
        chip_costs.rf_packaged if packaged else chip_costs.rf_bare
    )
    rf_yield = (
        data.RF_CHIP_YIELD_PACKAGED
        if packaged
        else data.RF_CHIP_YIELD_BARE
    )
    dsp_cost = (
        chip_costs.dsp_packaged if packaged else chip_costs.dsp_bare
    )
    dsp_yield = (
        data.DSP_CHIP_YIELD_PACKAGED
        if packaged
        else data.DSP_CHIP_YIELD_BARE
    )
    builder.attach(
        "RF chip",
        quantity=1,
        component_cost=rf_cost,
        component_yield=rf_yield,
        attach_cost=data.CHIP_ASSEMBLY_COST[i],
        attach_yield=1.0,
        component_tag=CostTag.CHIP,
    )
    builder.attach(
        "DSP correlator",
        quantity=1,
        component_cost=dsp_cost,
        component_yield=dsp_yield,
        attach_cost=data.CHIP_ASSEMBLY_COST[i],
        attach_yield=1.0,
        component_tag=CostTag.CHIP,
    )
    # Table 2 quotes the chip-assembly yield per step, so it is applied
    # once per module rather than per chip.
    builder.process(
        "Chip assembly",
        cost=0.0,
        yield_=data.CHIP_ASSEMBLY_YIELD[i],
        tag=CostTag.ASSEMBLY,
    )
    if implementation == 2:
        builder.attach(
            "Wire bonding",
            quantity=data.WIRE_BOND_COUNT,
            component_cost=0.0,
            component_yield=1.0,
            attach_cost=data.WIRE_BOND_COST,
            attach_yield=data.WIRE_BOND_YIELD,
            per_operation=True,
            component_tag=CostTag.ASSEMBLY,
        )
    smd_count = data.SMD_COUNT[i]
    if smd_count:
        builder.attach(
            "SMD mounting",
            quantity=smd_count,
            component_cost=data.SMD_PARTS_COST[i] / smd_count,
            component_yield=1.0,
            attach_cost=data.SMD_ASSEMBLY_COST,
            attach_yield=data.SMD_ASSEMBLY_YIELD,
            per_operation=True,
            component_tag=CostTag.PASSIVE,
        )
    builder.test(
        "Functional test",
        cost=data.FINAL_TEST_COST,
        coverage=data.FINAL_TEST_COVERAGE,
    )
    if buildup.is_mcm:
        builder.packaging(
            "Mount on laminate",
            cost=data.PACKAGING_COST[i],
            yield_=data.PACKAGING_YIELD,
        )
        builder.inspect("Outgoing inspection")
    return builder.build()
