"""Methodology step 5 over columns: the one ranking spine.

The decision step normalises every build-up to the reference, folds
``perf · (1/size) · (1/cost)`` into the figure of merit (Fig. 6) and
picks the winner.  Over a block of cells that is a few array
operations, and the same operations re-rank a stored warehouse frame
under new weights, so both callers — the sweep's one ranking call,
:func:`repro.core.sweep.frame_for_cells`, and
:func:`repro.core.queryservice.rerank_frame` — share this module:
the :class:`DecisionFrame` unit, :func:`weighted_fom`,
:func:`winner_mask` (first-max winner, broadcast by name) and
:func:`cell_front_mask` (per-point front, broadcast by name).

A :class:`DecisionFrame` is built one of two ways.  The validating
constructor (and :meth:`DecisionFrame.from_payload`, which every file
reader goes through) checks every part; :meth:`DecisionFrame.adopt`,
the trusted constructor, takes arrays the engine has just built as
they are and keeps only the ratio refusal (:func:`check_ratio`),
vectorised.

``pow`` goes through the scalar ``**`` operator (``np.power`` drifts
by 1 ulp on a few percent of inputs); reciprocals and products
vectorise safely (they are correctly rounded).  Every output double
therefore equals the per-candidate object path's —
``tests/core/test_ranking.py`` locks that against the reference kept
in ``tests/study_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from ..errors import SpecificationError
from .figure_of_merit import FomWeights, weighted_power
from .resultframe import (
    ResultFrame,
    distinct_values,
    pack_column,
    unpack_column,
)

#: The auxiliary ratio columns every decision frame carries.
RATIO_COLUMNS = ("size_ratio", "cost_ratio")


@dataclass(frozen=True, eq=False)
class DecisionFrame:
    """Sweep rows plus their re-rank basis columns.

    ``frame`` holds the 14 :class:`~repro.core.resultframe.SweepRow`
    columns; ``size_ratio`` / ``cost_ratio`` are the FoM inputs the
    percent columns cannot recover (``fl(100 * ratio)`` is not
    invertible), so a stored frame can be re-ranked byte-identically
    to a fresh sweep.  ``indices`` / ``row_counts`` assign runs of
    rows to canonical grid points — ``row_counts[k]`` consecutive rows
    belong to point ``indices[k]``.  The unit a shard artifact carries
    and a warehouse frame file stores, through one codec
    (:meth:`to_payload` / :meth:`from_payload`).
    """

    frame: ResultFrame
    size_ratio: np.ndarray
    cost_ratio: np.ndarray
    indices: tuple[int, ...]
    row_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in RATIO_COLUMNS:
            try:
                array = np.asarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise SpecificationError(
                    f"decision frame {name} is not numeric: {exc}"
                ) from None
            if array.ndim != 1 or array.shape[0] != len(self.frame):
                raise SpecificationError(
                    f"decision frame {name} must be one value per row "
                    f"({len(self.frame)}), got shape {array.shape}"
                )
            check_ratio(name, array)
            if array.flags.writeable or array.base is not None:
                array = array.copy()
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        check_indices(self.indices, len(self.row_counts))
        _check_counts("row count", self.row_counts)
        if sum(self.row_counts) != len(self.frame):
            raise SpecificationError(
                f"decision frame row counts sum to {sum(self.row_counts)} "
                f"but the frame carries {len(self.frame)} rows"
            )

    @classmethod
    def adopt(
        cls,
        frame: ResultFrame,
        size_ratio: np.ndarray,
        cost_ratio: np.ndarray,
        indices: tuple[int, ...],
        row_counts: tuple[int, ...],
    ) -> "DecisionFrame":
        """The trusted constructor: a frame over parts its caller has
        just built or already holds (the sweep engine's ranked block,
        :meth:`concat`, :meth:`reindexed`).

        The ratio columns must be float64 arrays of one value per row
        that nothing else writes to, and ``indices`` / ``row_counts``
        tuples of Python ints that match the frame; they are taken as
        they are (the arrays marked read-only, nothing copied).  Only
        the ratio refusal (:func:`check_ratio`) runs, vectorised,
        because a ratio is a model output: a factory whose reference
        area or cost makes one ``inf`` or ``0`` is refused here exactly
        as the validating constructor refuses it.  :meth:`from_payload` and
        every file reader go through the validating constructor.
        """
        dframe = object.__new__(cls)
        for name, array in (
            ("size_ratio", size_ratio),
            ("cost_ratio", cost_ratio),
        ):
            check_ratio(name, array)
            array.flags.writeable = False
            object.__setattr__(dframe, name, array)
        object.__setattr__(dframe, "frame", frame)
        object.__setattr__(dframe, "indices", indices)
        object.__setattr__(dframe, "row_counts", row_counts)
        return dframe

    @classmethod
    def empty(cls) -> "DecisionFrame":
        """A zero-row, zero-point frame (the identity of :meth:`concat`)."""
        nothing = np.empty(0, dtype=np.float64)
        return cls(ResultFrame.empty(), nothing, nothing, (), ())

    @classmethod
    def concat(cls, frames: Sequence["DecisionFrame"]) -> "DecisionFrame":
        """Frames over disjoint points merged into canonical point order.

        One frame concat plus a stable sort on the point index, with
        the ratio columns carried through the same permutation; the
        sort is skipped when the rows already arrive in point order.
        Frames that overlap on a point are refused.
        """
        frames = list(frames)
        if not frames:
            return cls.empty()
        if len(frames) == 1 and all(
            a < b for a, b in zip(frames[0].indices, frames[0].indices[1:])
        ):
            return frames[0]
        indices, counts = (
            [np.asarray(getattr(f, name), dtype=np.int64) for f in frames]
            for name in ("indices", "row_counts")
        )
        point = np.concatenate(list(map(np.repeat, indices, counts)))
        indices, counts = np.concatenate(indices), np.concatenate(counts)
        order = np.argsort(indices, kind="stable")
        indices, counts = indices[order], counts[order]
        overlap = indices[1:][indices[1:] == indices[:-1]]
        if overlap.size:
            raise SpecificationError(
                f"decision frames overlap on point index {overlap[0]}"
            )
        merged = ResultFrame.concat([f.frame for f in frames])
        size = np.concatenate([f.size_ratio for f in frames])
        cost = np.concatenate([f.cost_ratio for f in frames])
        if np.any(point[1:] < point[:-1]):
            order = np.argsort(point, kind="stable")
            merged, size, cost = merged.take(order), size[order], cost[order]
        return cls.adopt(
            merged,
            size,
            cost,
            tuple(indices.tolist()),
            tuple(counts.tolist()),
        )

    def to_payload(self) -> dict:
        """The frame as stored columns: THE on-disk codec of decision
        frames, embedded by shard artifacts and warehouse frame files.

        Labels are JSON lists and every numeric column — the ratios
        included — is packed
        (:meth:`~repro.core.resultframe.ResultFrame.to_stored_columns`),
        so :meth:`from_payload` rebuilds every double bit for bit.
        """
        return {
            "indices": list(self.indices),
            "row_counts": list(self.row_counts),
            "columns": self.frame.to_stored_columns(),
            "ratios": {
                name: pack_column(getattr(self, name))
                for name in RATIO_COLUMNS
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DecisionFrame":
        """Rebuild a frame from its :meth:`to_payload` dict.

        Everything malformed is a :class:`SpecificationError`: a missing
        key, a ratio section without exactly the two packed ratio
        columns, non-list indices or row counts, every refusal of the
        column codec (:func:`~repro.core.resultframe.unpack_column`)
        and every refusal of the constructor.
        """
        try:
            ratios = payload["ratios"]
            if not isinstance(ratios, dict) or set(ratios) != set(
                RATIO_COLUMNS
            ):
                raise SpecificationError(
                    f"decision frame ratios must map exactly "
                    f"{' and '.join(RATIO_COLUMNS)} to packed columns, "
                    f"got {ratios!r:.120}"
                )
            for name in ("indices", "row_counts"):
                if not isinstance(payload[name], list):
                    raise SpecificationError(
                        f"decision frame {name} must be a list, got "
                        f"{payload[name]!r:.60}"
                    )
            frame = ResultFrame.from_stored_columns(payload["columns"])
            size_ratio, cost_ratio = (
                unpack_column(ratios[name], np.float64, len(frame), name)
                for name in RATIO_COLUMNS
            )
            return cls(
                frame=frame,
                size_ratio=size_ratio,
                cost_ratio=cost_ratio,
                indices=tuple(payload["indices"]),
                row_counts=tuple(payload["row_counts"]),
            )
        except KeyError as exc:
            raise SpecificationError(
                f"decision frame payload has no {exc} section"
            ) from None
        except (TypeError, ValueError) as exc:
            raise SpecificationError(
                f"decision frame payload: {exc}"
            ) from None

    def __len__(self) -> int:
        return len(self.frame)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionFrame):
            return NotImplemented
        return (
            self.frame == other.frame
            and np.array_equal(self.size_ratio, other.size_ratio)
            and np.array_equal(self.cost_ratio, other.cost_ratio)
            and self.indices == other.indices
            and self.row_counts == other.row_counts
        )

    def point_of_row(self) -> np.ndarray:
        """Canonical point index of every frame row (vectorised)."""
        return np.repeat(
            np.asarray(self.indices, dtype=np.int64),
            np.asarray(self.row_counts, dtype=np.int64),
        )

    @cached_property
    def starts(self) -> np.ndarray:
        """Offset of the first row of every point that has rows."""
        counts = np.asarray(self.row_counts, dtype=np.intp)
        return (np.cumsum(counts) - counts)[counts > 0]

    @cached_property
    def default_weight_rows(self) -> np.ndarray:
        """Rows of the points ranked under the sweep-wide weights.

        A point on the weights *axis* carries its own label; ``paper``
        marks the sweep-wide default, the rows a re-rank re-scores.
        The label is one per point, so each point's first row decides.
        """
        starts = self.starts
        return np.repeat(
            self.frame.column("weights")[starts] == "paper",
            np.diff(np.append(starts, len(self.frame))),
        )

    @cached_property
    def fom_basis(self) -> tuple[FomFactor, FomFactor, FomFactor]:
        """:func:`fom_factors` of the stored FoM inputs."""
        return fom_factors(
            self.frame.column("performance"), self.size_ratio, self.cost_ratio
        )

    @cached_property
    def name_codes(self) -> np.ndarray:
        """:func:`name_codes` of the candidate column."""
        return name_codes(self.frame.column("candidate").tolist())

    def reindexed(self, indices: Sequence[int]) -> "DecisionFrame":
        """The same rows assigned to other point indices (same count).

        Only the new indices are checked; the rows, ratios and row
        counts are this frame's own, shared as they are.
        """
        indices = tuple(indices)
        check_indices(indices, len(self.row_counts))
        return DecisionFrame.adopt(
            self.frame,
            self.size_ratio,
            self.cost_ratio,
            indices,
            self.row_counts,
        )

    def cells(self) -> Iterator[tuple[int, ResultFrame]]:
        """``(index, frame)`` per point, in row order; each cell's frame
        is a view of this frame's rows
        (:meth:`~repro.core.resultframe.ResultFrame.rows_between`)."""
        stop = 0
        for index, count in zip(self.indices, self.row_counts):
            start, stop = stop, stop + count
            yield index, self.frame.rows_between(start, stop)


#: The largest ratio whose percentage ``100.0 * ratio`` is finite.
RATIO_CEILING = float(np.finfo(np.float64).max) / 100.0


def check_ratio(name: str, array: np.ndarray) -> None:
    """Refuse a ratio column holding a zero, negative, NaN or infinite
    value, or one above :data:`RATIO_CEILING`.

    The re-rank kernel computes 1/ratio and raises it to a power, and
    a frame shows each ratio as the percentage ``100.0 * ratio``; such
    a value would turn a corrupt frame file (or a degenerate reference
    candidate) into silently wrong rankings or an infinite percentage
    beside a finite ratio.  Comparisons only, so a refused column
    raises no floating-point warning.
    """
    if np.all((array > 0.0) & (array <= RATIO_CEILING)):
        return
    if not np.all((array > 0.0) & (array < np.inf)):
        raise SpecificationError(
            f"decision frame {name} values must be positive finite numbers"
        )
    raise SpecificationError(
        f"decision frame {name} values must be at most {RATIO_CEILING!r}, "
        f"so that 100 times each is a finite percentage"
    )


def _check_counts(name: str, values: Sequence[int]) -> None:
    """Refuse anything but exact ints in ``[0, 2**63)``: a float would
    silently truncate (and a negative or huge value crash) in the int64
    cast :meth:`DecisionFrame.point_of_row` feeds to ``np.repeat``.
    The types and bounds are gathered in C, so a valid column costs no
    Python step per value."""
    if set(map(type, values)) - {int} or (
        values and not 0 <= min(values) <= max(values) < 2**63
    ):
        value = next(
            v for v in values if type(v) is not int or not 0 <= v < 2**63
        )
        raise SpecificationError(
            f"decision frame {name}s must be non-negative integers "
            f"below 2**63, got {value!r}"
        )


def check_indices(
    indices: Sequence[int], points: Optional[int] = None
) -> None:
    """Refuse point indices that are not exact non-negative ints, one
    per row run when the frame's ``points`` row runs are given."""
    if points is not None and len(indices) != points:
        raise SpecificationError(
            f"decision frame carries {len(indices)} indices but "
            f"{points} row counts"
        )
    _check_counts("index", indices)


#: One FoM factor's base as :func:`~repro.core.resultframe.distinct_values`:
#: ``(distinct, inverse)``; an ``inverse`` of ``None`` marks a base
#: :func:`weighted_fom` keeps whole (``distinct`` is the base itself)
#: because it raises it only to 0 or 1.
FomFactor = tuple[np.ndarray, Optional[np.ndarray]]


def fom_factors(
    performance, size_ratio, cost_ratio
) -> tuple[FomFactor, FomFactor, FomFactor]:
    """The weight-independent half of :func:`weighted_fom`.

    The bases ``performance``, ``1 / size_ratio`` and ``1 / cost_ratio``
    (correctly-rounded elementwise reciprocals), each as its distinct
    values plus every cell's index into them
    (:func:`~repro.core.resultframe.distinct_values`).  A stored frame
    keeps these (:attr:`DecisionFrame.fom_basis`) so a re-rank only
    raises the few distinct values to the new weights.
    """
    return (
        distinct_values(performance),
        distinct_values(1.0 / np.asarray(size_ratio, dtype=np.float64)),
        distinct_values(1.0 / np.asarray(cost_ratio, dtype=np.float64)),
    )


def _pow_factor(factor: FomFactor, exponent: float, axis: str) -> np.ndarray:
    """Elementwise ``base ** exponent`` with scalar-operator bits.

    ``np.power`` disagrees with Python's ``**`` by 1 ulp on a few
    percent of inputs (different libm paths), which would break the
    byte-identity contract with ``tests/study_reference.py``'s scalar
    ``figure_of_merit``.  The scalar operator runs once per distinct bit
    pattern (a stored column repeats each candidate's performance and
    size ratio at every volume), so ``-0.0`` and ``0.0`` stay apart.
    Exponents ``0.0`` and ``1.0`` short-circuit exactly
    (``pow(x, 0) == 1.0`` for every double including NaN,
    ``pow(x, 1) == x``), so a base kept whole needs no distinct values
    for them.  Overflow is refused by
    :func:`~repro.core.figure_of_merit.weighted_power`, the scalar
    formula's own rule, naming the ``axis`` weight.
    """
    distinct, inverse = factor
    if exponent == 0.0:
        return np.ones(distinct.shape if inverse is None else inverse.shape)
    if exponent != 1.0:
        distinct = np.asarray(
            [
                weighted_power(value, exponent, axis)
                for value in distinct.tolist()
            ],
            dtype=np.float64,
        )
    return distinct if inverse is None else distinct[inverse]


def fom_from_factors(
    factors: tuple[FomFactor, FomFactor, FomFactor], weights: FomWeights
) -> np.ndarray:
    """:func:`weighted_fom` from its :func:`fom_factors`."""
    performance, size, cost = factors
    return (
        _pow_factor(performance, weights.performance, "performance")
        * _pow_factor(size, weights.size, "size")
        * _pow_factor(cost, weights.cost, "cost")
    )


def weighted_fom(
    performance,
    size_ratio,
    cost_ratio,
    weights: FomWeights,
) -> np.ndarray:
    """Vector twin of ``tests/study_reference.py``'s ``figure_of_merit``.

    Same operations in the same order per element — scalar ``pow``
    bits, correctly-rounded elementwise reciprocal and product — so
    every output double matches the scalar formula exactly.  The
    arguments broadcast against each other (the sweep passes one
    performance and size ratio per candidate against a cost ratio per
    candidate and volume).  Performance must be non-negative, as in the
    scalar formula; the ratios are a :class:`DecisionFrame`'s to check.
    """
    performance = np.asarray(performance, dtype=np.float64)
    if not np.all(performance >= 0.0):
        bad = performance[~(performance >= 0.0)][0]
        raise SpecificationError(
            f"performance cannot be negative or NaN, got {bad}"
        )
    # A base whose exponent is 0 or 1 is never raised, so it is kept
    # whole: the ``np.unique`` pass of its distinct values would not
    # pay for itself.
    bases = (
        performance,
        1.0 / np.asarray(size_ratio, dtype=np.float64),
        1.0 / np.asarray(cost_ratio, dtype=np.float64),
    )
    exponents = (weights.performance, weights.size, weights.cost)
    factors = tuple(
        (base, None) if exponent in (0.0, 1.0) else distinct_values(base)
        for base, exponent in zip(bases, exponents)
    )
    return fom_from_factors(factors, weights)


def group_first_max(starts, values) -> np.ndarray:
    """Row index of the first maximum within every run of rows.

    ``starts`` are the ascending offsets of non-empty runs covering
    ``values`` (a decision frame's :attr:`DecisionFrame.starts`).  The
    vectorised twin of a per-group ``max()`` scan with first-wins
    tie-breaking — exactly the winner selection
    ``tests/study_reference.py``'s ``rank_buildups`` performs per cell
    (stable descending sort, take the head).  Equal-sized runs are one
    ``argmax`` over a reshaped view; ragged runs take their maxima with
    ``np.maximum.reduceat`` and the first row matching each.  No
    Python-level loop touches the rows.
    """
    data = np.asarray(values, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    if starts.size == 0:
        return np.empty(0, dtype=np.intp)
    if np.isnan(data).any():
        raise SpecificationError(
            "group maximum undefined (NaN values in a group)"
        )
    lengths = np.diff(np.append(starts, data.shape[0]))
    if np.all(lengths == lengths[0]):
        # Equal-sized cells (the sweep's k candidates per point):
        # ``argmax`` returns the first maximum of every row.
        return starts + data.reshape(-1, lengths[0]).argmax(axis=1)
    maxima = np.repeat(np.maximum.reduceat(data, starts), lengths)
    hits = np.flatnonzero(data == maxima)
    # Every group holds a hit, so the first hit at or after a group's
    # start is that group's first maximum.
    return hits[np.searchsorted(hits, starts)]


def name_codes(names: Sequence[str]) -> np.ndarray:
    """An integer per name, equal exactly where the names are."""
    codes: dict = {}
    return np.asarray([codes.setdefault(name, len(codes)) for name in names])


def winner_mask(starts, fom, codes) -> np.ndarray:
    """``is_winner`` per row: the group's first-max name, broadcast.

    ``codes`` are the rows' :func:`name_codes`, so every row sharing
    the winning candidate's *name* carries the flag — the stored
    semantics of ``name == study.winner.name`` per cell.
    """
    codes = np.asarray(codes)
    first = group_first_max(starts, fom)
    lengths = np.diff(np.append(starts, codes.shape[0]))
    return codes == np.repeat(codes[first], lengths)


def cell_front_mask(performance, size_ratio, cost_ratio, names) -> np.ndarray:
    """Per-point Pareto membership of ``(cells, k)`` objective rows.

    Candidate *i* dominates *j* within one cell when it is at least as
    good on every objective (performance maximised, ratios minimised)
    and strictly better on one — the exact comparisons of
    ``tests/pareto_reference.py``'s ``dominates``, so NaN never
    dominates nor is dominated.  Evaluated as one ``(cells, k, k)``
    broadcast; the arguments broadcast to ``(cells, k)``.  Membership
    is broadcast by name like
    :meth:`~repro.core.pareto.ParetoAnalysis.is_on_front`: a row is on
    the front when any row of its cell with the same candidate name
    is undominated.  ``names`` (or any labels equal exactly where the
    names are, such as :func:`name_codes`) broadcast to ``(cells, k)``
    too, so cells of one call may hold different candidates.
    """
    cost = np.asarray(cost_ratio, dtype=np.float64)
    perf = np.broadcast_to(
        np.asarray(performance, dtype=np.float64), cost.shape
    )
    size = np.broadcast_to(
        np.asarray(size_ratio, dtype=np.float64), cost.shape
    )
    # dominates[c, i, j]: candidate i dominates candidate j in cell c.
    at_least = (
        (perf[:, :, None] >= perf[:, None, :])
        & (size[:, :, None] <= size[:, None, :])
        & (cost[:, :, None] <= cost[:, None, :])
    )
    strictly = (
        (perf[:, :, None] > perf[:, None, :])
        | (size[:, :, None] < size[:, None, :])
        | (cost[:, :, None] < cost[:, None, :])
    )
    front = ~(at_least & strictly).any(axis=1)
    if not isinstance(names, np.ndarray):
        names = np.asarray(names, dtype=object)
    names = np.broadcast_to(names, cost.shape)
    same = names[:, :, None] == names[:, None, :]
    return (front[:, :, None] & same).any(axis=1)
