"""Pareto-front analysis of build-ups.

The paper folds performance, size and cost into a single multiplicative
figure of merit; a multi-objective view is the natural companion: which
build-ups are *Pareto-optimal* (no other build-up is at least as good on
every axis and strictly better on one)?  A build-up dominated on all
three axes can be discarded regardless of how the axes are weighted —
which is exactly what happens to the paper's full-IP solution 3, beaten
by solution 4 on performance, size *and* cost.

Dominance has one exact primitive, :func:`dominated_by`: a
sort-and-staircase sweep (Kung, Luccio & Preparata, JACM 1975) that
answers "which targets does some candidate dominate" in O(n log n).
Every mask — :func:`nondominated_mask` behind
:meth:`repro.core.resultframe.ResultFrame.pareto_mask`, the adaptive
driver's margin front and the out-of-core chunked front — is built on
it, and so is :func:`analyze_study`'s attribution of each dominated
build-up to its first dominator.  The kernels are locked equivalent to
the scalar definition, the per-point loop and the broadcast references
in ``tests/pareto_reference.py`` by hypothesis in
``tests/core/test_pareto_kernel.py`` and
``tests/core/test_resultframe.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SpecificationError

if TYPE_CHECKING:
    from .methodology import StudyResult


@dataclass(frozen=True)
class ParetoPoint:
    """One build-up in objective space.

    Objectives are oriented so *larger is better* for performance and
    *smaller is better* for size and cost ratios.
    """

    name: str
    performance: float
    size_ratio: float
    cost_ratio: float


@dataclass(frozen=True)
class ParetoAnalysis:
    """Partition of the candidates into front and dominated set."""

    front: tuple[ParetoPoint, ...]
    dominated: tuple[tuple[ParetoPoint, str], ...]

    def is_on_front(self, name: str) -> bool:
        """Whether the named build-up is Pareto-optimal."""
        return any(point.name == name for point in self.front)

    def dominator_of(self, name: str) -> str:
        """Name of a build-up dominating the given one.

        Raises
        ------
        SpecificationError
            If the build-up is on the front (nothing dominates it) or
            unknown.
        """
        for point, dominator in self.dominated:
            if point.name == name:
                return dominator
        raise SpecificationError(
            f"{name!r} is Pareto-optimal or unknown"
        )


def dominated_by(candidates, targets) -> np.ndarray:
    """Which ``targets`` rows some ``candidates`` row dominates.

    Both arguments are ``(k, 3)`` / ``(m, 3)`` objective matrices
    oriented for *minimisation* on every column.  Candidate *c*
    dominates target *t* when ``c <= t`` everywhere and ``c < t``
    somewhere — the literal scalar definition, so an equal vector
    (``-0.0 == 0.0`` included) never dominates, and a row carrying a
    NaN neither dominates nor is dominated (every NaN comparison is
    False).  Infinities compare like any other value.

    An exact sort-and-sweep (Kung, Luccio & Preparata, JACM 1975) in
    O((k + m) log(k + m)) time and O(k + m) memory: the union of the
    NaN-free rows is lex-sorted on the three columns and grouped into
    equal vectors, so every strict dominator of a group sits in an
    *earlier* group, never in its own.  The groups are swept in order
    over a 2-D staircase of the candidates seen so far, on the last two
    columns (size and cost in the study's orientation): sizes
    ascending, costs strictly descending, maintained with
    :mod:`bisect`.  Each group is queried against the staircase
    *before* its own candidates are inserted.  Groups that an earlier
    candidate group surely dominates (:func:`_settled`, vectorised)
    skip the sweep.
    """
    same = targets is candidates
    candidates = np.asarray(candidates, dtype=np.float64)
    targets = candidates if same else np.asarray(targets, dtype=np.float64)
    for name, matrix in (("candidates", candidates), ("targets", targets)):
        if matrix.ndim != 2 or matrix.shape[1] != 3:
            raise SpecificationError(
                f"dominance needs a (n, 3) {name} objective matrix, "
                f"got shape {matrix.shape}"
            )
    out = np.zeros(targets.shape[0], dtype=bool)
    clean = not np.isnan(targets).any()
    valid = (
        np.arange(targets.shape[0])
        if clean
        else np.flatnonzero(~np.isnan(targets).any(axis=1))
    )
    if same:
        # A self-query sorts the matrix once: each row plays both roles.
        rows = targets if clean else targets[valid]
        row_target = valid
        row_is_candidate = np.ones(valid.shape[0], dtype=bool)
    else:
        cand = candidates[~np.isnan(candidates).any(axis=1)]
        rows = np.concatenate([cand, targets[valid]])
        row_target = np.concatenate(
            [np.full(cand.shape[0], -1, dtype=valid.dtype), valid]
        )
        row_is_candidate = row_target < 0
    if not row_is_candidate.any() or valid.shape[0] == 0:
        return out
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    ordered = [rows[:, column][order] for column in range(3)]
    # Group starts: the first row of every run of equal vectors.
    new_group = np.empty(order.shape[0], dtype=bool)
    new_group[0] = True
    np.not_equal(ordered[0][1:], ordered[0][:-1], out=new_group[1:])
    for column in ordered[1:]:
        new_group[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new_group)
    group_has_candidate = np.logical_or.reduceat(
        row_is_candidate[order], starts
    )
    group_size, group_cost = ordered[1][starts], ordered[2][starts]
    group_dominated = _settled(group_size, group_cost, group_has_candidate)
    sweep = np.flatnonzero(~group_dominated)
    sizes: list[float] = []
    costs: list[float] = []
    swept = []
    for size, cost, inserts in zip(
        group_size[sweep].tolist(),
        group_cost[sweep].tolist(),
        group_has_candidate[sweep].tolist(),
    ):
        # Staircase points with size <= this one end at ``hi``; the
        # last of them carries the smallest cost.
        hi = bisect_right(sizes, size)
        dominated = hi > 0 and costs[hi - 1] <= cost
        swept.append(dominated)
        if inserts and not dominated:
            lo = bisect_left(sizes, size, 0, hi)
            # Retire the steps the new point covers: size >= its size
            # (from ``lo``) and cost >= its cost (a prefix of those,
            # since costs descend).
            stop = lo
            while stop < len(costs) and costs[stop] >= cost:
                stop += 1
            sizes[lo:stop] = [size]
            costs[lo:stop] = [cost]
    group_dominated[sweep] = swept
    verdict = group_dominated[np.cumsum(new_group) - 1]
    target = row_target[order]
    is_target = target >= 0
    out[target[is_target]] = verdict[is_target]
    return out


def _settled(size, cost, is_candidate) -> np.ndarray:
    """Lex-sorted groups that an earlier candidate group surely
    dominates, found without the staircase.

    A group is dominated by any earlier (lex-smaller, so distinct)
    candidate group no larger in size and cost.  Two such candidates
    are tried per group, vectorised: the earlier candidate group of
    least cost and the one of least size.  A dominated group never
    enters the staircase, so :func:`dominated_by` sweeps only the rest
    and every verdict stays as the full sweep gives it.
    """
    candidates = np.flatnonzero(is_candidate)
    # Per group: how many candidate groups precede it.
    before = np.cumsum(is_candidate) - is_candidate
    has = before > 0
    settled = np.zeros(size.shape[0], dtype=bool)
    for column in (size, cost):
        values = column[candidates]
        running = np.minimum.accumulate(values)
        improves = np.concatenate([[True], running[1:] < running[:-1]])
        best = np.maximum.accumulate(
            np.where(improves, np.arange(values.shape[0]), 0)
        )
        by = candidates[best[before[has] - 1]]
        settled[has] |= (size[by] <= size[has]) & (cost[by] <= cost[has])
    return settled


def nondominated_mask(performance, size, cost) -> np.ndarray:
    """Boolean mask of the Pareto-optimal points.

    ``~dominated_by(X, X)`` over the objectives oriented for
    minimisation (performance negated): O(n log n) and exact — exact
    duplicates of a front point and NaN-bearing rows survive, matching
    the scalar definition.  Equivalence with the per-point loop and the
    broadcast references is hypothesis-locked in
    ``tests/core/test_pareto_kernel.py``.
    """
    perf = np.asarray(performance, dtype=np.float64)
    size = np.asarray(size, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if not (perf.shape == size.shape == cost.shape) or perf.ndim != 1:
        raise SpecificationError(
            "dominance needs three equally-long 1-D objective arrays, "
            f"got shapes {perf.shape}, {size.shape}, {cost.shape}"
        )
    objectives = np.column_stack([-perf, size, cost])
    return ~dominated_by(objectives, objectives)


def analyze_study(result: StudyResult) -> ParetoAnalysis:
    """Pareto analysis of a complete study, on its rows' FoM entries.

    Membership is per row, and each dominated row is reported with the
    *first* row dominating it; :func:`dominated_by` answers, one row at
    a time, which rows that row dominates.
    """
    if not result.rows:
        raise SpecificationError("pareto analysis needs at least one row")
    points = [
        ParetoPoint(fom.name, fom.performance, fom.size_ratio, fom.cost_ratio)
        for fom in (row.fom for row in result.rows)
    ]
    objectives = np.array(
        [(-p.performance, p.size_ratio, p.cost_ratio) for p in points]
    )
    # beats[i, j]: row i dominates row j.
    beats = np.array(
        [dominated_by(row[None], objectives) for row in objectives]
    )
    front: list[ParetoPoint] = []
    dominated: list[tuple[ParetoPoint, str]] = []
    for point, beaten, first in zip(
        points, beats.any(axis=0).tolist(), beats.argmax(axis=0).tolist()
    ):
        if beaten:
            dominated.append((point, points[first].name))
        else:
            front.append(point)
    return ParetoAnalysis(front=tuple(front), dominated=tuple(dominated))
