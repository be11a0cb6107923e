"""The adaptive driver's zoom proposals by a full-axis scan.

:meth:`repro.core.adaptive._GridIndex.zoom_indices` finds each front
cell's evaluated neighbours in an index of the evaluated set built once
per pass.  This is the plain formulation it must match proposal for
proposal: for every front cell and refinable axis, walk *every* rank of
the axis line and keep the ones whose cell was evaluated —
O(front cells × axis length) per pass.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.adaptive import GRID_AXES


def reference_zoom_indices(index, refine, evaluated) -> list[int]:
    """The zoom pass ``index`` (a ``_GridIndex``) proposes, by scan."""
    proposals: set[int] = set()
    for cell in sorted(refine):
        positions = index.unflat(cell)
        for axis_rank in range(len(GRID_AXES)):
            order = index.ordered[axis_rank]
            rank = index.rank_of[axis_rank].get(positions[axis_rank])
            if rank is None or len(order) < 2:
                continue
            line = list(positions)

            def line_flat(r: int) -> int:
                line[axis_rank] = order[r]
                return index.flat(line)

            evaluated_ranks = [
                r for r in range(len(order)) if line_flat(r) in evaluated
            ]
            at = bisect_left(evaluated_ranks, rank)
            for anchor, end in (
                (evaluated_ranks[at - 1] if at > 0 else None, 0),
                (
                    evaluated_ranks[at + 1]
                    if at + 1 < len(evaluated_ranks)
                    else None,
                    len(order) - 1,
                ),
            ):
                if anchor is None:
                    targets = {end, (end + rank) // 2}
                elif abs(anchor - rank) > 1:
                    targets = {(anchor + rank) // 2}
                else:
                    continue
                for target in targets:
                    flat = line_flat(target)
                    if flat not in evaluated:
                        proposals.add(flat)
    return sorted(proposals)
