"""Broadcast dominance references, for differential tests.

Production masks come from the sort-and-sweep
:func:`repro.core.pareto.dominated_by`; these are the plain pairwise
broadcasts it must match bit for bit.  ``first_dominators`` (still in
:mod:`repro.core.pareto`, where ``pareto_front`` needs its dominator
attribution) and ``pareto_front_pointwise`` complete the reference set.
"""

from __future__ import annotations

import numpy as np

from repro.core.resultframe import ResultFrame
from repro.errors import SpecificationError


def objective_frame(performance, size, cost) -> ResultFrame:
    """A frame carrying the three objectives (other columns filler)."""
    performance = np.asarray(performance, dtype=np.float64)
    n = performance.shape[0]
    label = np.full(n, "x", dtype=object)
    flag = np.zeros(n, dtype=bool)
    return ResultFrame.from_columns(
        {
            "volume": np.ones(n),
            "substrate": label,
            "process": label,
            "tolerance": label,
            "q_model": label,
            "nre": label,
            "weights": label,
            "candidate": label,
            "performance": performance,
            "area_percent": np.asarray(size, dtype=np.float64),
            "cost_percent": np.asarray(cost, dtype=np.float64),
            "figure_of_merit": np.ones(n),
            "is_winner": flag,
            "on_pareto_front": flag,
        }
    )


def broadcast_dominated_by(candidates, targets) -> np.ndarray:
    """Which ``targets`` rows some ``candidates`` row dominates.

    Both arguments are ``(k, 3)`` / ``(m, 3)`` objective matrices
    oriented for minimisation; the full ``k × m`` comparison, so keep
    inputs small.
    """
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
    c = candidates[:, None, :]
    t = targets[None, :, :]
    at_least = (c <= t).all(axis=2)
    strictly = (c < t).any(axis=2)
    return (at_least & strictly).any(axis=0)


def margin_dominators(
    performance, size, cost, margin: float = 0.0
) -> np.ndarray:
    """Index of the first point dominating a margin-boosted copy (``-1``: none).

    Each column point *j* is replaced by a fictitious improved copy —
    its performance scaled up by ``1 + margin`` and its size and cost
    ratios scaled down by the same factor — and that copy is tested
    against the *original* points.  With ``margin = 0`` the boost is
    the identity and the verdicts coincide with
    :func:`repro.core.pareto.first_dominators` bit for bit.
    """
    if not np.isfinite(margin) or margin < 0.0:
        raise SpecificationError(
            f"dominance margin must be a finite non-negative factor, got {margin!r}"
        )
    perf = np.asarray(performance, dtype=np.float64)
    size = np.asarray(size, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    boost = 1.0 + margin
    p = perf * boost
    s = size / boost
    c = cost / boost
    # dominates[i, j]: original point i dominates the boosted copy of j.
    at_least = (
        (perf[:, None] >= p[None, :])
        & (size[:, None] <= s[None, :])
        & (cost[:, None] <= c[None, :])
    )
    strictly = (
        (perf[:, None] > p[None, :])
        | (size[:, None] < s[None, :])
        | (cost[:, None] < c[None, :])
    )
    dominates = at_least & strictly
    dominator = np.full(perf.shape[0], -1, dtype=np.int64)
    found = dominates.any(axis=0)
    if found.any():
        dominator[found] = dominates.argmax(axis=0)[found]
    return dominator
