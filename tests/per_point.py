"""The per-point reference evaluation of a sweep, for differential tests.

Production sweeps hand a volume-invariant factory's points to the
family-batched fill (:func:`repro.core.sweep.evaluate_cells`); this is
the plain one-point-at-a-time loop that fill must match bit for bit.
"""

from __future__ import annotations

from repro.core.sweep import evaluate_cell


def per_point_cells(points, candidate_factory, reference, weights, cache):
    """Evaluate ``points`` one by one, calling the factory per point."""
    return [
        evaluate_cell(
            point, candidate_factory(point), reference, weights, cache
        )
        for point in points
    ]
