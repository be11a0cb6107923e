"""MOE — Modular Optimization Environment (reimplementation of ref [8]).

A production-flow cost modeller: typed steps (carrier, process, assembly,
test), latent-fault propagation, test-coverage scrap routing, and the
Eq. (1) cost roll-up, evaluated either analytically
(:func:`~repro.cost.moe.analytic.evaluate`) or by Monte Carlo
(:func:`~repro.cost.moe.simulate.simulate`).
"""

from ..._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "analytic": [
            "CostReportBatch",
            "evaluate",
            "evaluate_batch",
        ],
        "builder": ["FlowBuilder", "flow_node_summary", "render_flow"],
        "flow": ["ProductionFlow"],
        "nodes": [
            "AttachStep",
            "CarrierStep",
            "CostTag",
            "InspectStep",
            "ProcessStep",
            "ReworkPolicy",
            "Step",
            "TestStep",
            "UnitState",
        ],
        "report": ["CostReport", "StepReport", "fig5_row"],
        "simulate": ["simulate"],
    },
)
