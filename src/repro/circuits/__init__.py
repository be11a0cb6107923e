"""RLC circuit analysis substrate.

A small but complete AC analysis stack:

* :mod:`~repro.circuits.elements` — lossy R/L/C element models;
* :mod:`~repro.circuits.netlist` — circuit container;
* :mod:`~repro.circuits.mna` — nodal-admittance solver;
* :mod:`~repro.circuits.twoport` — S-parameters / insertion loss;
* :mod:`~repro.circuits.synthesis` — Chebyshev/Butterworth/pseudo-elliptic
  bandpass ladder synthesis;
* :mod:`~repro.circuits.qfactor` — technology Q models;
* :mod:`~repro.circuits.performance` — spec scoring (paper step 2).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "elements": [
            "Capacitor",
            "DispersiveCapacitor",
            "DispersiveInductor",
            "Element",
            "GROUND",
            "Inductor",
            "Port",
            "Resistor",
            "dispersive_capacitor",
            "dispersive_inductor",
            "lossy_capacitor",
            "lossy_inductor",
        ],
        "approximation": [
            "bandpass_selectivity",
            "butterworth_attenuation_db",
            "chebyshev_attenuation_db",
            "elliptic_attenuation_db",
            "minimum_order",
            "required_order",
        ],
        "matching": [
            "LMatchDesign",
            "LNetworkTopology",
            "build_l_match_circuit",
            "design_l_match",
            "match_return_loss_db",
            "matching_network_area_mm2",
        ],
        "mna": [
            "AcAnalysis",
            "StampPlan",
            "batch_admittance_matrix",
            "batch_solve_nodal",
            "node_admittance_matrix",
            "node_index",
            "solve_nodal",
        ],
        "netlist": ["Circuit"],
        "performance": [
            "ChainPerformance",
            "FilterPerformance",
            "analyze_filter",
            "assess_chain",
            "loss_score",
            "measure_filter",
        ],
        "qfactor": [
            "ConstantQModel",
            "DiscreteFilterBlockQModel",
            "DispersiveQModel",
            "IdealQModel",
            "MEASURED_SUMMIT_TABLE",
            "MixedQModel",
            "SkinEffectQModel",
            "SmdQModel",
            "SubstrateLossQModel",
            "SummitQModel",
            "TabulatedQModel",
            "capacitor_q_profile",
            "combined_q_profile",
            "combined_unloaded_q",
            "inductor_q_profile",
            "is_dispersive",
            "process_q_model",
        ],
        "synthesis": [
            "BandpassDesign",
            "QModel",
            "ResonatorElements",
            "TrapElements",
            "build_bandpass_circuit",
            "butterworth_g_values",
            "chebyshev_g_values",
            "dissipation_loss_db",
            "prototype_g_values",
            "synthesize_bandpass",
        ],
        "twoport": [
            "SParameters",
            "SweepResult",
            "input_impedance",
            "measure_insertion_loss",
            "measure_insertion_loss_many",
            "measure_rejection",
            "sweep",
            "sweep_grid",
            "sweep_pointwise",
            "two_port_sparameters",
        ],
    },
)
