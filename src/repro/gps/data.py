"""Published constants of the GPS case study (Tables 1 and 2, §3-4).

Everything the paper publishes numerically lives here, verbatim where
possible.  Two groups of values are *not* published and are filled by
documented substitutions (see DESIGN.md):

* the chip costs (Table 2 redacts them as XX/YY/ZZ/AA, "chip cost is
  confidential") — defaults below come from
  :mod:`repro.cost.calibration`, which solves for values reproducing the
  Fig. 5 cost ratios under plausibility constraints (bare dice slightly
  cheaper than packaged+tested parts);
* the detailed bill of materials (the paper publishes only aggregates:
  ~60 filter-network passives, 112 SMDs in build-ups 1/2, 12 SMDs kept
  in build-up 4) — synthesised in :mod:`repro.gps.bom`.

The sweep's NRE scenarios at the end are a third, purely assumed group:
the paper publishes no NRE at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.grid import NreScenario

# ---------------------------------------------------------------------------
# Table 1 — area-relevant data
# ---------------------------------------------------------------------------

#: RF chip area by first-level interconnect [mm^2].
RF_CHIP_AREA = {"packaged": 225.0, "wire_bond": 28.0, "flip_chip": 13.0}

#: DSP correlator area by first-level interconnect [mm^2].
DSP_CHIP_AREA = {"packaged": 1165.0, "wire_bond": 88.0, "flip_chip": 59.0}

#: SMD passive footprints [mm^2].
SMD_0603_AREA = 3.75
SMD_0805_AREA = 4.5

#: Integrated-passive reference areas [mm^2] (model anchors).
IP_R_100K_AREA = 0.25
IP_C_50PF_AREA = 0.30
IP_L_40NH_AREA = 1.0

#: Filter block areas [mm^2].
SMD_FILTER_AREA = 27.5
INTEGRATED_FILTER_AREA = 12.0

#: Substrate sizing rules (Table 1 footnotes).
MCM_PACKING_FACTOR = 1.1
MCM_EDGE_CLEARANCE_MM = 1.0
LAMINATE_EDGE_CLEARANCE_MM = 5.0

# ---------------------------------------------------------------------------
# Table 2 — cost and yield data (per implementation 1..4)
# ---------------------------------------------------------------------------

#: Chip incoming yields.  Implementation 1 buys packaged, fully tested
#: parts; implementations 2-4 buy bare dice that are only wafer-tested.
RF_CHIP_YIELD_PACKAGED = 0.999
RF_CHIP_YIELD_BARE = 0.95
DSP_CHIP_YIELD_PACKAGED = 0.9999
DSP_CHIP_YIELD_BARE = 0.99

#: Substrate yield and cost per cm^2, indexed by implementation number.
SUBSTRATE_YIELD = {1: 0.9999, 2: 0.99, 3: 0.90, 4: 0.90}
SUBSTRATE_COST_PER_CM2 = {1: 0.1, 2: 1.75, 3: 2.25, 4: 2.25}

#: Chip (die/package) placement: cost and yield per chip attach.
CHIP_ASSEMBLY_COST = {1: 0.15, 2: 0.10, 3: 0.10, 4: 0.10}
CHIP_ASSEMBLY_YIELD = {1: 0.933, 2: 0.99, 3: 0.99, 4: 0.99}

#: Wire bonding (implementation 2 only): per-bond cost/yield and count.
WIRE_BOND_COST = 0.01
WIRE_BOND_YIELD = 0.9999
WIRE_BOND_COUNT = 212

#: SMD mounting: per-part cost/yield, part counts and piece-part totals.
SMD_ASSEMBLY_COST = 0.01
SMD_ASSEMBLY_YIELD = 0.9999
SMD_COUNT = {1: 112, 2: 112, 3: 0, 4: 12}
SMD_PARTS_COST = {1: 11.0, 2: 8.6, 3: 0.0, 4: 2.6}

#: Packaging (mount the Si module on the BGA laminate): cost/yield.
PACKAGING_COST = {1: 0.0, 2: 7.30, 3: 4.70, 4: 3.50}
PACKAGING_YIELD = 0.968

#: Final test: cost and fault coverage (all implementations).
FINAL_TEST_COST = 10.0
FINAL_TEST_COVERAGE = 0.99

# ---------------------------------------------------------------------------
# Confidential chip costs — calibrated substitution (see DESIGN.md §3).
#
# The paper redacts XX (packaged RF), YY (bare RF), ZZ (packaged DSP),
# AA (bare DSP).  The defaults below are produced by
# ``repro.cost.calibration.calibrate_chip_costs()``: they reproduce the
# published Fig. 5 ordering (PCB < WB/SMD < FC/IP&SMD < FC/IP) with cost
# penalties in the published few-percent band, under the constraints
# that bare dice are slightly cheaper than packaged parts and the DSP
# correlator costs more than the RF chip.
# ---------------------------------------------------------------------------

#: Packaged, fully tested RF chip cost ("XX").
RF_CHIP_COST_PACKAGED = 209.5
#: Bare-die RF chip cost ("YY") — cheaper because only wafer-tested.
RF_CHIP_COST_BARE = 199.0
#: Packaged, fully tested DSP correlator cost ("ZZ").
DSP_CHIP_COST_PACKAGED = 357.0
#: Bare-die DSP correlator cost ("AA").
DSP_CHIP_COST_BARE = 339.2


@dataclass(frozen=True)
class ChipCosts:
    """The four confidential chip costs of Table 2."""

    rf_packaged: float = RF_CHIP_COST_PACKAGED
    rf_bare: float = RF_CHIP_COST_BARE
    dsp_packaged: float = DSP_CHIP_COST_PACKAGED
    dsp_bare: float = DSP_CHIP_COST_BARE

    @property
    def packaged_total(self) -> float:
        """Sum of packaged-chip costs (enters implementation 1)."""
        return self.rf_packaged + self.dsp_packaged

    @property
    def bare_total(self) -> float:
        """Sum of bare-die costs (enters implementations 2-4)."""
        return self.rf_bare + self.dsp_bare


# ---------------------------------------------------------------------------
# §4.1 — filter chain parameters (performance assessment)
# ---------------------------------------------------------------------------

#: GPS L1 carrier: the RF filter passband centre.
GPS_L1_HZ = 1.575e9
#: Image frequency the Cauer filter must reject.
IMAGE_HZ = 1.225e9
#: Intermediate frequency of the downconversion chain.
IF_HZ = 175.0e6

#: RF image-reject (Cauer) filter: bandwidth, loss spec, rejection spec.
RF_FILTER_BANDWIDTH_HZ = 500.0e6
RF_FILTER_MAX_LOSS_DB = 3.0
RF_FILTER_MIN_REJECTION_DB = 30.0

#: IF bandpass (2-pole Tchebyscheff) filters: bandwidth and loss spec.
IF_FILTER_BANDWIDTH_HZ = 25.0e6
IF_FILTER_MAX_LOSS_DB = 4.5
IF_FILTER_RIPPLE_DB = 0.5

#: SMD multilayer chip-inductor unloaded Q at the IF (build-up 4 falls
#: back to SMD inductors for the IF filters).
SMD_INDUCTOR_Q_AT_IF = 10.5

# ---------------------------------------------------------------------------
# Published results (the reproduction targets)
# ---------------------------------------------------------------------------

#: Fig. 3 — area consumed, percent of the PCB reference.
PAPER_AREA_PERCENT = {1: 100.0, 2: 79.0, 3: 60.0, 4: 37.0}

#: Fig. 5 — final cost, percent of the PCB reference.
PAPER_COST_PERCENT = {1: 100.0, 2: 104.7, 3: 112.8, 4: 105.3}

#: §4.1 — performance scores.
PAPER_PERFORMANCE = {1: 1.0, 2: 1.0, 3: 0.45, 4: 0.7}

#: Fig. 6 — figure of merit (product of perf, 1/size, 1/cost).
PAPER_FOM = {1: 1.0, 2: 1.2, 3: 0.66, 4: 1.8}

#: Implementation names as used in the paper.
IMPLEMENTATION_NAMES = {
    1: "PCB/SMD (reference)",
    2: "MCM-D(Si)/WB/SMD",
    3: "MCM-D(Si)/FC/IP",
    4: "MCM-D(Si)/FC/IP&SMD",
}

# ---------------------------------------------------------------------------
# Sweep NRE scenarios — an assumption, not a published value
# ---------------------------------------------------------------------------

#: Extension-scenario NRE per build-up for the design-space sweep: PCB
#: tooling, MCM-D mask set, plus the integrated-passive layers of 3/4.
#: The paper publishes no NRE figures; without one the volume axis would
#: be a no-op (Eq. (1) amortises only NRE over shipped units).
SWEEP_NRE_SCENARIO: dict[int, float] = {
    1: 5_000.0,
    2: 30_000.0,
    3: 45_000.0,
    4: 45_000.0,
}

#: Named NRE scenarios for the sweep's NRE axis (CLI
#: ``repro-gps sweep --nres``).  ``paper`` (= None) keeps
#: :data:`SWEEP_NRE_SCENARIO`; the others bracket it: no NRE at all,
#: a lean flow that halves every figure, and a mask-heavy flow where
#: the MCM-D mask set and integrated-passive layers cost double.
NRE_SCENARIOS: dict[str, NreScenario] = {
    "zero": NreScenario(
        name="zero", by_candidate=((1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0))
    ),
    "lean": NreScenario(
        name="lean",
        by_candidate=tuple(
            (i, 0.5 * SWEEP_NRE_SCENARIO[i]) for i in (1, 2, 3, 4)
        ),
    ),
    "mask-heavy": NreScenario(
        name="mask-heavy",
        by_candidate=(
            (1, SWEEP_NRE_SCENARIO[1]),
            (2, 2.0 * SWEEP_NRE_SCENARIO[2]),
            (3, 2.0 * SWEEP_NRE_SCENARIO[3]),
            (4, 2.0 * SWEEP_NRE_SCENARIO[4]),
        ),
    ),
}
