"""Columnar sweep results: the :class:`ResultFrame` spine.

Every layer above the per-point evaluation — executors, cross-host
shard merging, reporting, CSV export — used to funnel its output
through Python lists of :class:`SweepRow` dataclasses, re-scanned
object by object at every merge, Pareto pass, winner count and export.
This module replaces that representation with a single
structure-of-arrays container: one typed numpy column per
:class:`SweepRow` field (float64 for metrics, object for labels, bool
for flags), so 10k–1M-row sweeps concatenate, sort, filter, rank and
serialise at numpy speed.

Design rules the rest of the stack relies on:

* **The row bridge is exact.**  ``from_rows(to_rows(frame)) == frame``
  and ``to_rows(from_rows(rows)) == rows`` bit for bit: float columns
  are stored as float64 (the same IEEE double a :class:`SweepRow`
  field holds), labels as Python strings in object columns, flags as
  numpy bools — nothing is rounded, truncated or interned on the way
  through.  Public row-based APIs (``SweepReport.rows``, shard-merge
  identity tests, the GPS goldens) sit on this bridge.
* **Serialisation round-trips floats exactly.**  ``to_json_columns``
  emits Python floats (``repr``-based JSON formatting), and
  ``csv_lines`` formats with ``str(float)`` — byte-identical to what
  the row-object path printed, locked by
  ``tests/core/test_resultframe.py``.
* **Stored columns are packed.**  On disk (shard artifacts, warehouse
  frames, chunk-store chunks) every numeric column is the base64 text
  of its little-endian bytes (:func:`pack_column`), labels stay JSON
  lists: :meth:`ResultFrame.to_stored_columns` /
  :meth:`ResultFrame.from_stored_columns` are the one column codec,
  and the bits of every double — NaN payloads included — survive.
* **Column order is :class:`SweepRow` field order**, so a frame's CSV
  header matches the historical ``SweepRow.as_dict`` key order.

The dominance kernel behind :meth:`ResultFrame.pareto_mask` lives in
:mod:`repro.core.pareto` (:func:`~repro.core.pareto.nondominated_mask`,
an exact O(n log n) sort-and-staircase sweep).
"""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..errors import SpecificationError
from .blobstore import canonical_json
from .pareto import nondominated_mask


@dataclass(frozen=True)
class SweepRow:
    """One Pareto-ready row: a candidate at a grid point.

    Flat on purpose — every field is a scalar or short string, so the
    rows dump straight into a CSV, a dataframe, or the CLI table.  The
    columnar twin is :class:`ResultFrame`; the two convert losslessly
    in both directions.
    """

    volume: float
    substrate: str
    process: str
    tolerance: str
    q_model: str
    nre: str
    weights: str
    candidate: str
    performance: float
    area_percent: float
    cost_percent: float
    figure_of_merit: float
    is_winner: bool
    on_pareto_front: bool

    def as_dict(self) -> dict:
        """The row as a plain dict (CSV/dataframe-ready)."""
        return {
            "volume": self.volume,
            "substrate": self.substrate,
            "process": self.process,
            "tolerance": self.tolerance,
            "q_model": self.q_model,
            "nre": self.nre,
            "weights": self.weights,
            "candidate": self.candidate,
            "performance": self.performance,
            "area_percent": self.area_percent,
            "cost_percent": self.cost_percent,
            "figure_of_merit": self.figure_of_merit,
            "is_winner": self.is_winner,
            "on_pareto_front": self.on_pareto_front,
        }


#: Frame column order == :class:`SweepRow` field order (and hence the
#: historical CSV header order).
COLUMN_ORDER: tuple[str, ...] = tuple(
    field.name for field in fields(SweepRow)
)

#: Metric columns stored as float64.
FLOAT_COLUMNS: tuple[str, ...] = (
    "volume",
    "performance",
    "area_percent",
    "cost_percent",
    "figure_of_merit",
)

#: Axis/label columns stored as Python strings in object arrays.
LABEL_COLUMNS: tuple[str, ...] = (
    "substrate",
    "process",
    "tolerance",
    "q_model",
    "nre",
    "weights",
    "candidate",
)

#: Flag columns stored as numpy bools.
BOOL_COLUMNS: tuple[str, ...] = ("is_winner", "on_pareto_front")

_COLUMN_DTYPES: dict[str, object] = {
    **{name: np.float64 for name in FLOAT_COLUMNS},
    **{name: object for name in LABEL_COLUMNS},
    **{name: np.bool_ for name in BOOL_COLUMNS},
}

assert set(COLUMN_ORDER) == set(_COLUMN_DTYPES)


def _check_bool_values(name: str, values) -> None:
    """Reject non-bool flag values before the numpy cast.

    ``np.asarray(values, dtype=bool)`` would happily coerce strings and
    numbers by truthiness (``"false"`` → True), turning a corrupt shard
    artifact into a silently wrong report; a flag column must hold
    actual booleans.
    """
    raw = np.asarray(values)
    if raw.dtype == np.bool_ or raw.size == 0:
        return
    if raw.dtype == object and all(
        isinstance(value, (bool, np.bool_)) for value in raw
    ):
        return
    raise SpecificationError(
        f"result frame column {name!r} must hold booleans, got "
        f"dtype {raw.dtype}"
    )


#: The stored dtype of each numeric column dtype: little-endian doubles,
#: one byte per flag.  The column schema fixes which a column uses, so
#: a packed column carries no header.
_PACKED_DTYPES: dict[np.dtype, np.dtype] = {
    np.dtype(np.float64): np.dtype("<f8"),
    np.dtype(np.bool_): np.dtype("u1"),
}


def pack_column(column: np.ndarray) -> str:
    """A float64 or flag column as stored text: the RFC 4648 base64 of
    its little-endian bytes (eight per float, one per flag)."""
    data = np.ascontiguousarray(column, dtype=_PACKED_DTYPES[column.dtype])
    return binascii.b2a_base64(data.tobytes(), newline=False).decode("ascii")


def unpack_column(text, dtype, rows: int, name: str) -> np.ndarray:
    """The ``dtype`` column of ``rows`` values :func:`pack_column` stored
    as ``text``; ``name`` labels the refusals.

    Everything is checked before an array is built: ``text`` must be a
    string of strict base64 whose byte length is a whole number of
    values and exactly ``rows`` of them, and a flag byte must be 0 or 1.
    Each failure is a :class:`~repro.errors.SpecificationError`.
    """
    stored = _PACKED_DTYPES[np.dtype(dtype)]
    if not isinstance(text, str):
        raise SpecificationError(
            f"packed column {name!r} must be base64 text, got "
            f"{type(text).__name__}"
        )
    try:
        data = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:
        # binascii.Error, and the ValueError of a non-ASCII string.
        raise SpecificationError(
            f"packed column {name!r} is not valid base64 ({exc})"
        ) from None
    if len(data) % stored.itemsize:
        raise SpecificationError(
            f"packed column {name!r} holds {len(data)} bytes, not a "
            f"whole number of {stored.itemsize}-byte values"
        )
    if len(data) != rows * stored.itemsize:
        raise SpecificationError(
            f"packed column {name!r} holds {len(data) // stored.itemsize} "
            f"values but the label columns hold {rows} rows"
        )
    array = np.frombuffer(data, dtype=stored)
    if stored.kind == "u":
        if array.size and array.max() > 1:
            raise SpecificationError(
                f"packed flag column {name!r} holds a byte other than "
                f"0 or 1"
            )
        return array.view(np.bool_)
    return array.astype(np.float64, copy=False)


def distinct_values(values) -> tuple[np.ndarray, np.ndarray]:
    """A float array as its distinct values and each cell's index.

    Values are told apart by their bit pattern (the ``int64`` view),
    not by float equality, so ``-0.0`` and ``0.0`` — and NaNs of any
    payload — stay apart, and ``distinct[inverse]`` rebuilds ``values``
    bit for bit (``inverse`` has ``values``' shape).  The basis of
    every once-per-distinct-value column operation: CSV formatting
    here, the scalar ``pow`` of :mod:`repro.core.ranking`.
    """
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    return distinct.view(np.float64), inverse.reshape(bits.shape)


def _rendered_floats(column: np.ndarray) -> list[str]:
    """``[str(value) for value in column.tolist()]`` for a float64
    column, with ``str`` run once per distinct value."""
    distinct, inverse = distinct_values(column)
    strings = np.array(
        [str(value) for value in distinct.tolist()], dtype=object
    )
    return strings[inverse].tolist()


#: The JSON tokens of a flag column, indexed by the flag (0/1).
_FLAG_TOKENS = np.array([b"false", b"true"], dtype=object)


def _json_float(value: float) -> bytes:
    """``value`` as :mod:`json`'s encoder writes it (``allow_nan``)."""
    if math.isfinite(value):
        return repr(value).encode()
    if value != value:
        return b"NaN"
    return b"Infinity" if value > 0 else b"-Infinity"


def json_tokens(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A frame column as its distinct JSON tokens and each cell's code.

    ``tokens[codes]`` lists the canonical JSON text of every value of
    ``column.tolist()``, as ASCII bytes: floats are formatted once per
    distinct bit pattern (:func:`distinct_values`) as ``repr`` or
    ``NaN``/``Infinity``/``-Infinity``, labels once per distinct value
    with :func:`~repro.core.blobstore.canonical_json`, and flags are
    ``true``/``false``.  ``tokens`` is an object array and ``codes`` an
    ``int32`` array of ``column``'s shape — the compact form a
    long-lived memo keeps.
    """
    if column.dtype == np.bool_:
        return _FLAG_TOKENS, column.astype(np.int32)
    if column.dtype == np.float64:
        distinct, inverse = distinct_values(column)
        tokens = [_json_float(value) for value in distinct.tolist()]
    else:
        # Strings key themselves; any other value keys by its text (a
        # one-tuple, so it never meets a string), keeping 1, True and
        # 1.0 apart.
        index: dict = {}
        inverse = [
            index.setdefault(
                value if type(value) is str else (canonical_json(value),),
                len(index),
            )
            for value in column.tolist()
        ]
        tokens = [
            (canonical_json(key) if type(key) is str else key[0]).encode()
            for key in index
        ]
    return (
        np.array(tokens, dtype=object),
        np.asarray(inverse, dtype=np.int32),
    )


class JsonTokenMemo:
    """:func:`json_tokens` of one frame's columns, each built on first use.

    :meth:`ResultFrame.json_columns_bytes` asks it for a column; only
    the memo's own frame's arrays — by identity — are answered, so a
    frame that shares some of its arrays (a re-ranked frame shares all
    but ``figure_of_merit`` and ``is_winner``) reuses those tokens.
    Two threads may build the same column at once; both results are
    equal, and either one is kept.
    """

    __slots__ = ("frame", "_tokens")

    def __init__(self, frame: "ResultFrame") -> None:
        self.frame = frame
        self._tokens: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def get(self, name: str, column: np.ndarray):
        """The tokens of ``column`` if it is the frame's ``name``."""
        if column is not self.frame.column(name):
            return None
        tokens = self._tokens.get(name)
        if tokens is None:
            tokens = self._tokens[name] = json_tokens(column)
        return tokens


class ResultFrame:
    """Structure-of-arrays container for sweep results.

    Construct via :meth:`from_rows`, :meth:`from_columns` or
    :meth:`concat`; frames are immutable (columns are read-only numpy
    arrays), so views handed out by :meth:`column` are safe to share.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        missing = [name for name in COLUMN_ORDER if name not in columns]
        extra = [name for name in columns if name not in _COLUMN_DTYPES]
        if missing or extra:
            raise SpecificationError(
                f"result frame needs exactly the SweepRow columns; "
                f"missing {missing}, unexpected {extra}"
            )
        converted: dict[str, np.ndarray] = {}
        length = None
        for name in COLUMN_ORDER:
            if name in BOOL_COLUMNS:
                _check_bool_values(name, columns[name])
            array = np.asarray(columns[name], dtype=_COLUMN_DTYPES[name])
            if array.ndim != 1:
                raise SpecificationError(
                    f"result frame column {name!r} must be 1-D, got "
                    f"shape {array.shape}"
                )
            if length is None:
                length = array.shape[0]
            elif array.shape[0] != length:
                raise SpecificationError(
                    f"result frame column {name!r} has {array.shape[0]} "
                    f"entries, expected {length}"
                )
            if array.flags.writeable or array.base is not None:
                # Copy anything writeable *or* not owning its data: a
                # read-only view still aliases a caller buffer whose
                # base can mutate under the frame.
                array = array.copy()
                array.flags.writeable = False
            converted[name] = array
        object.__setattr__(self, "_columns", converted)

    def __reduce__(self):
        # Unpickled arrays come back writeable; rebuild through the
        # validating constructor so they are read-only again.
        return (ResultFrame, (self._columns,))

    # -- construction -------------------------------------------------

    @classmethod
    def _wrap(cls, columns: dict[str, np.ndarray]) -> "ResultFrame":
        """Adopt freshly-built arrays without the validating copy.

        Internal fast path for :meth:`concat` / :meth:`take` /
        :meth:`filter`, whose numpy outputs are already owned, typed
        and equal-length; the arrays are only marked read-only.
        """
        for array in columns.values():
            array.flags.writeable = False
        frame = object.__new__(cls)
        object.__setattr__(frame, "_columns", columns)
        return frame

    @classmethod
    def empty(cls) -> "ResultFrame":
        """A zero-row frame (the identity element of :meth:`concat`)."""
        return cls({name: [] for name in COLUMN_ORDER})

    @classmethod
    def from_rows(cls, rows: Iterable[SweepRow]) -> "ResultFrame":
        """Build a frame from row objects (the bridge in)."""
        rows = list(rows)
        return cls(
            {
                name: [getattr(row, name) for row in rows]
                for name in COLUMN_ORDER
            }
        )

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, Sequence]
    ) -> "ResultFrame":
        """Build a frame from per-column value sequences."""
        return cls(dict(columns))

    @classmethod
    def concat(
        cls, frames: Sequence["ResultFrame"]
    ) -> "ResultFrame":
        """Vectorised concatenation of frames (empty list -> empty)."""
        frames = list(frames)
        if not frames:
            return cls.empty()
        if len(frames) == 1:
            return frames[0]
        return cls._wrap(
            {
                name: np.concatenate(
                    [frame._columns[name] for frame in frames]
                )
                for name in COLUMN_ORDER
            }
        )

    # -- basic protocol ----------------------------------------------

    def __len__(self) -> int:
        return self._columns[COLUMN_ORDER[0]].shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultFrame):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(
            np.array_equal(self._columns[name], other._columns[name])
            for name in COLUMN_ORDER
        )

    def __repr__(self) -> str:
        return f"ResultFrame({len(self)} rows x {len(COLUMN_ORDER)} columns)"

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column."""
        try:
            return self._columns[name]
        except KeyError:
            raise SpecificationError(
                f"unknown result column {name!r} "
                f"(choose from {', '.join(COLUMN_ORDER)})"
            ) from None

    # -- row bridge ---------------------------------------------------

    def row(self, index: int) -> SweepRow:
        """One row as a :class:`SweepRow` (Python scalars, bit-exact)."""
        n = len(self)
        if not (-n <= index < n):
            raise SpecificationError(
                f"row index {index} out of range for {n}-row frame"
            )
        return SweepRow(
            *(
                self._columns[name][index].item()
                if name not in LABEL_COLUMNS
                else self._columns[name][index]
                for name in COLUMN_ORDER
            )
        )

    def to_rows(self) -> tuple[SweepRow, ...]:
        """The whole frame as row objects (the bridge out).

        ``tolist()`` converts float64 back to the identical Python
        float and numpy bools to Python bools; label columns already
        hold Python strings — so
        ``ResultFrame.from_rows(rows).to_rows() == tuple(rows)``
        exactly.
        """
        columns = [
            self._columns[name].tolist() for name in COLUMN_ORDER
        ]
        return tuple(SweepRow(*values) for values in zip(*columns))

    # -- vectorised transforms ---------------------------------------

    def take(self, indices) -> "ResultFrame":
        """A new frame of the given rows, in the given order."""
        indices = np.asarray(indices, dtype=np.intp)
        return ResultFrame._wrap(
            {
                name: self._columns[name][indices]
                for name in COLUMN_ORDER
            }
        )

    def filter(self, mask) -> "ResultFrame":
        """Rows where the boolean ``mask`` is true, original order."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise SpecificationError(
                f"filter mask has shape {mask.shape}, expected "
                f"({len(self)},)"
            )
        return ResultFrame._wrap(
            {name: self._columns[name][mask] for name in COLUMN_ORDER}
        )

    def sort(self, by: Sequence[str]) -> "ResultFrame":
        """Stable sort by the given columns (first key is primary)."""
        if not by:
            raise SpecificationError("sort needs at least one column")
        keys = [self.column(name) for name in reversed(list(by))]
        # Object (label) columns lexsort fine: they hold plain strings.
        return self.take(np.lexsort(keys))

    # -- vectorised queries ------------------------------------------

    def pareto_mask(self) -> np.ndarray:
        """Mask of rows no other row dominates (O(n log n) dominance).

        Orientation matches the per-cell study analysis: performance is
        maximised, ``area_percent`` and ``cost_percent`` minimised.
        Over a whole-sweep frame this is the *global* front; filter to
        one grid point first to reproduce the per-point
        ``on_pareto_front`` flag.
        """
        return nondominated_mask(
            self._columns["performance"],
            self._columns["area_percent"],
            self._columns["cost_percent"],
        )

    def winner_counts(self) -> dict[str, int]:
        """How often each candidate carries the ``is_winner`` flag."""
        winners = self._columns["candidate"][self._columns["is_winner"]]
        if winners.shape[0] == 0:
            return {}
        names, counts = np.unique(winners.astype(str), return_counts=True)
        return {
            str(name): int(count)
            for name, count in zip(names, counts)
        }

    def best_index(self) -> int:
        """Index of the highest-FoM row (first on ties, like ``max``)."""
        if len(self) == 0:
            raise SpecificationError("empty sweep report")
        return int(np.argmax(self._columns["figure_of_merit"]))

    # -- serialisation ------------------------------------------------

    def to_json_columns(self) -> dict[str, list]:
        """The columns as JSON-ready lists (exact float round-trip).

        ``tolist()`` yields Python floats/bools/strings; Python's JSON
        encoder formats floats with ``repr``, which round-trips every
        IEEE double exactly.
        """
        return {
            name: self._columns[name].tolist() for name in COLUMN_ORDER
        }

    def json_columns_bytes(
        self, mask, memo: Optional[JsonTokenMemo] = None
    ) -> bytes:
        """``canonical_json(self.filter(mask).to_json_columns())``,
        encoded.

        THE row serialiser of the query responses: the selected rows'
        columns in sorted-name order with no whitespace, each joined
        from :func:`json_tokens`.  A column ``memo`` holds takes its
        tokens and codes from there; any other is tokenised for the
        selected rows only.  The text is joined once, as bytes, so no
        intermediate copy of a multi-megabyte answer is made.
        """
        parts: list[bytes] = []
        for name in sorted(COLUMN_ORDER):
            column = self._columns[name]
            tokens = memo.get(name, column) if memo is not None else None
            if tokens is None:
                table, codes = json_tokens(column[mask])
            else:
                table, codes = tokens[0], tokens[1][mask]
            parts += (
                b',"' if parts else b'{"',
                name.encode(),
                b'":[',
                b",".join(table[codes].tolist()),
                b"]",
            )
        parts.append(b"}")
        return b"".join(parts)

    @classmethod
    def from_json_columns(
        cls, payload: Mapping[str, Sequence]
    ) -> "ResultFrame":
        """Rebuild a frame from its :meth:`to_json_columns` payload."""
        if not isinstance(payload, Mapping):
            raise SpecificationError(
                "result frame payload must be a column mapping"
            )
        return cls({name: payload[name] for name in payload})

    def to_stored_columns(self) -> dict[str, object]:
        """The columns as stored on disk: labels as JSON lists, every
        numeric column as :func:`pack_column` text."""
        return {
            name: self._columns[name].tolist()
            if name in LABEL_COLUMNS
            else pack_column(self._columns[name])
            for name in COLUMN_ORDER
        }

    @classmethod
    def from_stored_columns(cls, payload) -> "ResultFrame":
        """Rebuild a frame from its :meth:`to_stored_columns` payload.

        The label columns, which must be lists, give the row count every
        packed column must match (:func:`unpack_column`); any malformed
        payload is a :class:`~repro.errors.SpecificationError`.
        """
        if not isinstance(payload, Mapping):
            raise SpecificationError(
                "result frame payload must be a column mapping"
            )
        missing = [name for name in COLUMN_ORDER if name not in payload]
        if missing:
            raise SpecificationError(
                f"stored result frame has no {', '.join(missing)} column"
            )
        for name in LABEL_COLUMNS:
            if not isinstance(payload[name], list):
                raise SpecificationError(
                    f"stored label column {name!r} must be a list, got "
                    f"{type(payload[name]).__name__}"
                )
        rows = len(payload[LABEL_COLUMNS[0]])
        columns = dict(payload)
        for name in (*FLOAT_COLUMNS, *BOOL_COLUMNS):
            columns[name] = unpack_column(
                payload[name], _COLUMN_DTYPES[name], rows, name
            )
        return cls(columns)

    @staticmethod
    def csv_header() -> str:
        """The CSV header line (SweepRow field order)."""
        return ",".join(COLUMN_ORDER)

    def rendered_columns(
        self, names: Sequence[str] = ()
    ) -> list[list[str]]:
        """Each selected column as display strings (all when empty).

        THE formatting contract, shared by the CSV export and the
        text/markdown table renderers: floats via ``str(float)``
        (repr-shortest, exact round-trip), flags as ``True``/``False``,
        labels verbatim — exactly what ``str(value)`` over
        ``row.as_dict()`` values produced.  Columns are materialised
        once with ``tolist()``, so there is no per-cell attribute or
        dict traffic, and a float column is formatted once per distinct
        value (:func:`_rendered_floats`).
        """
        return [
            _rendered_floats(column)
            if column.dtype == np.float64
            else [str(value) for value in column.tolist()]
            for column in map(
                self.column, names if names else COLUMN_ORDER
            )
        ]

    def csv_lines(self) -> list[str]:
        """One CSV line per row, byte-identical to the row-object path
        (see :meth:`rendered_columns` for the formatting contract)."""
        return [
            ",".join(parts) for parts in zip(*self.rendered_columns())
        ]
