"""Dominance references, for differential tests.

Production masks and dominator attribution
(:func:`repro.core.pareto.analyze_study`) all come from the
sort-and-sweep :func:`repro.core.pareto.dominated_by`.  This module
keeps what they must match bit for bit: the scalar definition
(:func:`dominates`), the per-point loop over it (:func:`pareto_front`)
and the plain pairwise broadcasts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.figure_of_merit import FomEntry, FomWeights
from repro.core.methodology import StudyResult, StudyRow
from repro.core.pareto import ParetoAnalysis, ParetoPoint
from repro.core.resultframe import ResultFrame
from repro.errors import SpecificationError

#: Upper bound on ``n_points * block`` in :func:`first_dominators` —
#: caps the transient boolean broadcast buffers at a few megabytes
#: however many rows a test throws at it.
_BLOCK_BUDGET = 4_000_000


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


def dominates(point: ParetoPoint, other: ParetoPoint) -> bool:
    """True if ``point`` is at least as good as ``other`` everywhere and
    strictly better somewhere (performance maximised, ratios
    minimised)."""
    at_least_as_good = (
        point.performance >= other.performance
        and point.size_ratio <= other.size_ratio
        and point.cost_ratio <= other.cost_ratio
    )
    strictly_better = (
        point.performance > other.performance
        or point.size_ratio < other.size_ratio
        or point.cost_ratio < other.cost_ratio
    )
    return at_least_as_good and strictly_better


def pareto_front(points: Sequence[ParetoPoint]) -> ParetoAnalysis:
    """Partition points into the Pareto front and the dominated set.

    The per-point loop: each dominated point is reported with the
    *first* point (in input order) that dominates it.
    """
    if not points:
        raise SpecificationError("pareto_front needs at least one point")
    front: list[ParetoPoint] = []
    dominated: list[tuple[ParetoPoint, str]] = []
    for point in points:
        dominator = next(
            (
                other
                for other in points
                if other is not point and dominates(other, point)
            ),
            None,
        )
        if dominator is None:
            front.append(point)
        else:
            dominated.append((point, dominator.name))
    return ParetoAnalysis(front=tuple(front), dominated=tuple(dominated))


def study_of(points: Sequence[ParetoPoint]) -> StudyResult:
    """A study whose rows carry ``points``' objectives: what
    :func:`repro.core.pareto.analyze_study` reads (each row's
    :class:`~repro.core.figure_of_merit.FomEntry`), and nothing else."""
    return StudyResult(
        rows=tuple(
            StudyRow(
                assessment=None,
                area_percent=100.0 * point.size_ratio,
                cost_percent=100.0 * point.cost_ratio,
                fom=FomEntry(
                    point.name,
                    point.performance,
                    point.size_ratio,
                    point.cost_ratio,
                    figure_of_merit=0.0,
                ),
            )
            for point in points
        ),
        reference_name=points[0].name if points else "",
        weights=FomWeights(),
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


def first_dominators(performance, size, cost) -> np.ndarray:
    """Index of the first dominating point per point (``-1``: none).

    Point *i* dominates point *j* when it is at least as good on every
    objective (``performance`` maximised, ``size`` and ``cost``
    minimised) and strictly better on one; the *lowest* dominating
    index is reported, the order :func:`pareto_front` names dominators
    in.  The pairwise comparison runs in blocks of
    columns so the broadcast buffers stay bounded; the arithmetic is
    exact float comparison, never a tolerance.
    """
    perf = np.ascontiguousarray(performance, dtype=np.float64)
    size = np.ascontiguousarray(size, dtype=np.float64)
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    if not (perf.shape == size.shape == cost.shape) or perf.ndim != 1:
        raise SpecificationError(
            "dominance needs three equally-long 1-D objective arrays, "
            f"got shapes {perf.shape}, {size.shape}, {cost.shape}"
        )
    n = perf.shape[0]
    dominator = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return dominator
    block = max(1, min(n, _BLOCK_BUDGET // n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        p, s, c = perf[start:stop], size[start:stop], cost[start:stop]
        # dominates[i, j]: row point i dominates column point start+j.
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
        found = dominates.any(axis=0)
        first = dominates.argmax(axis=0)
        view = dominator[start:stop]
        view[found] = first[found]
    return dominator


def broadcast_pareto_front(points: Sequence[ParetoPoint]) -> ParetoAnalysis:
    """:func:`pareto_front` through :func:`first_dominators`: the same
    partition and dominator names."""
    if not points:
        raise SpecificationError("pareto_front needs at least one point")
    dominator = first_dominators(
        [point.performance for point in points],
        [point.size_ratio for point in points],
        [point.cost_ratio for point in points],
    )
    front: list[ParetoPoint] = []
    dominated: list[tuple[ParetoPoint, str]] = []
    for point, index in zip(points, dominator.tolist()):
        if index < 0:
            front.append(point)
        else:
            dominated.append((point, points[index].name))
    return ParetoAnalysis(front=tuple(front), dominated=tuple(dominated))


def margin_dominators(
    performance, size, cost, margin: float = 0.0
) -> np.ndarray:
    """Index of the first point dominating a margin-boosted copy (``-1``: none).

    Each column point *j* is replaced by a fictitious improved copy —
    its performance scaled up by ``1 + margin`` and its size and cost
    ratios scaled down by the same factor — and that copy is tested
    against the *original* points.  With ``margin = 0`` the boost is
    the identity and the verdicts coincide with
    :func:`first_dominators` bit for bit.
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
