"""The per-point object reference of a sweep, for differential tests.

Production sweeps assess each volume family as columns
(:func:`repro.core.sweep.assess_family`) and rank a whole block of
families in one call (:func:`repro.core.sweep.frame_for_cells`).  This
module keeps the
plain one-point-at-a-time object path that spine must match bit for
bit: every candidate assessed into a
:class:`~repro.core.methodology.BuildUpAssessment` (its scalar
:class:`~repro.cost.moe.report.CostReport` from the scalar walk in
``tests/moe_reference.py``), every point scored into a
:class:`~repro.core.methodology.StudyResult`, ranked and analysed by
the references in ``tests/study_reference.py``.

Give the reference its own :class:`~repro.core.sweep.EvaluationCache`:
its cost table holds whole reports, the spine's holds final costs.

It also keeps the per-point family grouping the engine used before it
read a block's families off the grid's flat indices
(:func:`repro.core.sweep.block_families`): :func:`family_runs` groups
a list of points by the ``id`` s, then the ``repr`` s, of their axes,
and :func:`grouped_frame` feeds those families to the production
assessment and ranking, so the two derivations can be compared bit
for bit, cache stats included.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

import numpy as np

from repro.area.placement import trivial_placement
from repro.circuits.performance import ChainPerformance, assess_chain
from repro.core.methodology import BuildUpAssessment, CandidateBuildUp
from repro.core.ranking import DecisionFrame
from repro.core.resultframe import COLUMN_ORDER, ResultFrame
from repro.core.sweep import (
    EvaluationCache,
    Family,
    _seed_family_placements,
    assess_family,
    candidate_area_keys,
    frame_for_cells,
)
from repro.errors import SpecificationError

from moe_reference import evaluate
from study_reference import analyze_study, study_from_assessments, winner_name


def assess_candidate_cached(
    candidate: CandidateBuildUp,
    volume: float,
    cache: EvaluationCache,
) -> BuildUpAssessment:
    """Methodology steps 2-4 for one candidate, through the memo.

    Mirrors ``tests/study_reference.py``'s ``assess_candidate`` exactly,
    with each sub-result resolved through the
    :class:`EvaluationCache`.
    """
    if candidate.fixed_performance is not None:
        performance = candidate.fixed_performance
        chain: Optional[ChainPerformance] = None
    else:
        chain = cache.performance(
            repr(candidate.filter_assignments),
            lambda: assess_chain(candidate.filter_assignments),
        )
        performance = chain.score
    area = cache.area(
        EvaluationCache.area_key(
            candidate.footprints,
            candidate.substrate_rule,
            candidate.laminate,
        ),
        lambda: trivial_placement(
            candidate.footprints,
            candidate.substrate_rule,
            candidate.laminate,
        ),
    )
    flow = candidate.flow_factory(area.substrate_area_cm2)
    (cost,) = cache.cost_batch(
        repr(flow), [volume], lambda missing: [evaluate(flow, volume=volume)]
    )
    return BuildUpAssessment(
        name=candidate.name,
        performance=performance,
        chain=chain,
        area=area,
        cost=cost,
    )


def per_point_studies(points, candidate_factory, reference, weights, cache):
    """``(point, StudyResult)`` per point, the factory called per point."""
    studies = []
    for point in points:
        candidates = list(candidate_factory(point))
        if not candidates:
            raise SpecificationError(
                f"candidate factory returned no candidates at "
                f"{point.label()}"
            )
        if not (0 <= reference < len(candidates)):
            raise SpecificationError(
                f"reference index {reference} out of range for "
                f"{len(candidates)} candidates"
            )
        assessments = [
            assess_candidate_cached(candidate, point.volume, cache)
            for candidate in candidates
        ]
        effective = point.weights if point.weights is not None else weights
        studies.append(
            (point, study_from_assessments(assessments, reference, effective))
        )
    return studies


def _row_values(point, result):
    """Per-candidate values of one study, in SweepRow field order."""
    winner = winner_name(result)
    pareto = analyze_study(result)
    substrate = point.substrate.name if point.substrate else "paper"
    process = point.process.name if point.process else "paper"
    tolerance = point.tolerance.name if point.tolerance else "paper"
    for study_row in result.rows:
        name = study_row.assessment.name
        yield (
            point.volume,
            substrate,
            process,
            tolerance,
            point.q_model_label(),
            point.nre_label(),
            point.weights_label(),
            name,
            study_row.fom.performance,
            study_row.area_percent,
            study_row.cost_percent,
            study_row.fom.figure_of_merit,
            name == winner,
            pareto.is_on_front(name),
        )


def per_point_frame(
    points, candidate_factory, reference, weights, cache
) -> DecisionFrame:
    """The object path's decision frame (points at ``0 .. n - 1``)."""
    studies = per_point_studies(
        points, candidate_factory, reference, weights, cache
    )
    columns: dict[str, list] = {name: [] for name in COLUMN_ORDER}
    size: list[float] = []
    cost: list[float] = []
    for point, result in studies:
        for values in _row_values(point, result):
            for name, value in zip(COLUMN_ORDER, values):
                columns[name].append(value)
        for study_row in result.rows:
            size.append(study_row.fom.size_ratio)
            cost.append(study_row.fom.cost_ratio)
    return DecisionFrame(
        frame=ResultFrame.from_columns(columns),
        size_ratio=np.asarray(size, dtype=np.float64),
        cost_ratio=np.asarray(cost, dtype=np.float64),
        indices=tuple(range(len(studies))),
        row_counts=tuple(len(result.rows) for _, result in studies),
    )


#: The axes a volume family shares: every ``DesignPoint`` field but
#: the volume.
_family_axes = attrgetter(
    "substrate", "process", "tolerance", "q_model", "nre", "weights"
)


def _families(points) -> dict[tuple, list[int]]:
    """:func:`family_runs`, each run under its family key: the ``repr``
    of every axis but the volume."""
    by_identity: dict[tuple[int, ...], list[int]] = {}
    for position, point in enumerate(points):
        identity = tuple(map(id, _family_axes(point)))
        by_identity.setdefault(identity, []).append(position)
    families: dict[tuple[str, ...], list[int]] = {}
    for run in by_identity.values():
        key = tuple(map(repr, _family_axes(points[run[0]])))
        family = families.get(key)
        if family is None:
            families[key] = run
        else:
            family.extend(run)
            family.sort()
    return families


def family_runs(points) -> list[list[int]]:
    """Group point positions into volume families.

    Two points belong to one family when every axis except the volume
    agrees (by content ``repr``, the cache-key discipline).  Points are
    first grouped by the ``id`` s of their axis objects, and one point
    per such group is ``repr`` ed; groups with equal reprs (equal
    content held by distinct objects) merge into one family, positions
    in run order.
    """
    return list(_families(points).values())


def grouped_frame(
    points, candidate_factory, reference, weights, cache, indices=None
):
    """A block of explicit points through the per-point grouping.

    The engine as it was before the grid handed out its families: a
    volume-invariant factory's points grouped by :func:`_families`
    (any other factory's one family per point), each family's volumes
    and their reprs gathered point by point, then the production
    candidate memo, placement seeding, :func:`assess_family` and
    :func:`frame_for_cells`.  Point ``p`` lands at ``indices[p]``.
    """
    indices = range(len(points)) if indices is None else indices
    batched = getattr(candidate_factory, "volume_invariant", False)
    if batched:
        grouped = list(_families(points).items())
    else:
        grouped = [(None, [position]) for position in range(len(points))]
    families = [
        Family(
            points[run[0]],
            key,
            np.asarray(run, dtype=np.intp),
            [points[position].volume for position in run],
            [repr(points[position].volume) for position in run],
        )
        for key, run in grouped
    ]
    if batched:
        family_candidates = [
            cache.memo(
                ("candidates", id(candidate_factory), family.key),
                candidate_factory,
                lambda: list(candidate_factory(family.point)),
            )
            for family in families
        ]
    else:
        family_candidates = [
            list(candidate_factory(family.point)) for family in families
        ]
    area_keys = candidate_area_keys(family_candidates, cache)
    if batched:
        _seed_family_placements(family_candidates, area_keys, cache)
    return frame_for_cells(
        [
            assess_family(family, candidates, keys, reference, weights, cache)
            for family, candidates, keys in zip(
                families, family_candidates, area_keys
            )
        ],
        np.asarray([point.volume for point in points], dtype=np.float64),
        indices,
    )
