"""The decision-query vocabulary: what a query may ask and name.

Kept apart from :mod:`repro.core.queryservice` so the ``repro-gps
warehouse query`` parser can offer these as ``--kind``/``--axis``
choices without loading the service or its HTTP server.
"""

#: Every query kind the service answers.
QUERY_KINDS = (
    "manifest",
    "pareto",
    "rerank",
    "winners",
    "best",
    "sensitivity",
)

#: Axes a ``where`` filter may pin (frame columns).
FILTER_AXES = (
    "volume",
    "substrate",
    "process",
    "tolerance",
    "q_model",
    "nre",
    "weights",
    "candidate",
)

#: Axes a sensitivity query may slice along (grid axes, not candidate).
SENSITIVITY_AXES = (
    "volume",
    "substrate",
    "process",
    "tolerance",
    "q_model",
    "nre",
    "weights",
)
