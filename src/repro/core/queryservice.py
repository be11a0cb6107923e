"""O(ms) decision queries over a frame warehouse: the online tier.

The offline tier (:mod:`repro.core.warehouse`) materialises sweeps
into content-addressed frame files; this module answers the paper's
decision questions against those frames with pure column operations —
no circuit is solved, no substrate placed, no flow walked:

* ``pareto`` — the stored per-point Pareto rows, filtered by axes;
* ``rerank`` — the whole frame re-ranked under *user* FoM weights.
  The frame-level lift of the PR-3 invariant: ranking weights touch
  only ``figure_of_merit`` and ``is_winner``, so re-ranking stored
  rows equals re-running the sweep with those weights, byte for byte
  (the differential harness in ``tests/core/test_queryservice.py``
  locks this);
* ``winners`` / ``best`` — winner tallies and the single
  highest-FoM row, optionally under user weights;
* ``sensitivity`` — how the winner and FoM landscape move along one
  axis with every other axis pinned;
* ``manifest`` — what the warehouse covers.

Numerical discipline: the re-rank is the sweep's own ranking spine
(:mod:`repro.core.ranking`) applied to stored columns — scalar ``pow``
bits, correctly-rounded reciprocals and products, first-max winners —
so its doubles are the sweep's doubles.

The HTTP surface is a stdlib ``ThreadingHTTPServer``: ``POST /query``
with a JSON body, ``GET /manifest``, ``GET /health``.  Responses are
canonical JSON (sorted keys, no whitespace, exact floats) — the same
bytes :meth:`QueryService.execute` produces in-process, which is what
the golden fixtures and the CI differential replay pin.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from ..errors import SpecificationError
from .figure_of_merit import FomWeights
from .ranking import DecisionFrame, fom_from_factors, winner_mask
from .resultframe import COLUMN_ORDER, JsonTokenMemo, ResultFrame
from .blobstore import canonical_json
from .queryvocab import FILTER_AXES, QUERY_KINDS, SENSITIVITY_AXES
from .warehouse import (
    FrameCache,
    WarehouseManifest,
    load_warehouse,
    parse_warehouse_manifest,
    read_manifest_bytes,
    read_warehouse_manifest,
)

#: Top-level request keys the service understands.
_REQUEST_KEYS = frozenset({"kind", "where", "fom_weights", "axis"})


class QueryError(SpecificationError):
    """The query asks something the warehouse cannot answer."""


def _as_float(value, what: str) -> float:
    """A JSON number as a float; an integer beyond the double range
    (JSON allows any number of digits) is refused, not an
    ``OverflowError``."""
    try:
        return float(value)
    except OverflowError:
        raise QueryError(
            f"{what} is an integer out of the float range"
        ) from None


def parse_fom_weights(value) -> FomWeights:
    """User FoM weights from a request value.

    Accepts a ``perf:size:cost`` string (``paper`` = all ones), a
    three-number list, or an existing :class:`FomWeights`.
    """
    if isinstance(value, FomWeights):
        return value
    if isinstance(value, str):
        token = value.strip().lower()
        if token == "paper":
            return FomWeights()
        parts = token.split(":")
        if len(parts) != 3:
            raise QueryError(
                f"fom_weights {value!r} must be perf:size:cost "
                f"(e.g. 2:1:1) or 'paper'"
            )
        try:
            numbers = [float(part) for part in parts]
        except ValueError:
            raise QueryError(
                f"fom_weights {value!r} must be three numbers"
            ) from None
    elif isinstance(value, (list, tuple)) and len(value) == 3:
        numbers = []
        for part in value:
            if isinstance(part, bool) or not isinstance(
                part, (int, float)
            ):
                raise QueryError(
                    f"fom_weights entries must be numbers, got {part!r}"
                )
            numbers.append(_as_float(part, "fom_weights entry"))
    else:
        raise QueryError(
            f"fom_weights must be 'perf:size:cost' or a three-number "
            f"list, got {value!r}"
        )
    try:
        return FomWeights(
            performance=numbers[0], size=numbers[1], cost=numbers[2]
        )
    except SpecificationError as exc:
        raise QueryError(str(exc)) from None


def _point_count(point_ids: np.ndarray) -> int:
    """How many points the rows of ``point_ids`` cover.

    The ids are a warehouse frame's :meth:`DecisionFrame.point_of_row`
    under a mask: the merged frame holds each point once, its rows
    together, so every change of id starts a new point.  Counting the
    runs keeps ``np.unique`` — whose first plain call imports
    ``numpy.ma`` — off a cold query.
    """
    return int(point_ids.size and 1 + np.count_nonzero(np.diff(point_ids)))


def rerank_frame(
    dframe: DecisionFrame, weights: FomWeights
) -> ResultFrame:
    """The stored frame re-ranked under sweep-wide user weights.

    Byte-identical to re-running the sweep with ``weights`` as the
    sweep-wide default: points on the frame's weights *axis* (a
    non-``paper`` ``weights`` label) keep their own per-point ranking —
    exactly as :func:`~repro.core.sweep.frame_for_cells` ranked them — while
    every ``paper``-label point is re-scored from the stored FoM
    inputs.  Both steps are the sweep's own ranking kernels
    (:mod:`repro.core.ranking`) applied to the stored columns: the
    weighted FoM — from the frame's memoised
    :attr:`~repro.core.ranking.DecisionFrame.fom_basis`, so only its
    few distinct bases are raised to the new weights — then the
    per-point first-max winner broadcast by name.
    """
    frame = dframe.frame
    fom = frame.column("figure_of_merit")
    paper = dframe.default_weight_rows
    if np.any(paper):
        # Every stored performance is one of the basis' distinct values.
        if not np.all(dframe.fom_basis[0][0] >= 0.0):
            raise QueryError(
                "stored performance column holds negative or NaN "
                "values; the warehouse frame is corrupt"
            )
        try:
            recomputed = fom_from_factors(dframe.fom_basis, weights)
        except SpecificationError as exc:
            raise QueryError(str(exc)) from None
        if np.all(paper):
            fom = recomputed
        else:
            fom = fom.copy()
            fom[paper] = recomputed[paper]
    columns = {name: frame.column(name) for name in COLUMN_ORDER}
    columns["figure_of_merit"] = fom
    columns["is_winner"] = winner_mask(dframe.starts, fom, dframe.name_codes)
    return ResultFrame.from_columns(columns)


def _validate_where(where) -> dict:
    """Normalise and validate a request's ``where`` axis filters."""
    if where is None:
        return {}
    if not isinstance(where, Mapping):
        raise QueryError("where must be an object of axis filters")
    normalised: dict = {}
    for axis, value in where.items():
        if axis not in FILTER_AXES:
            raise QueryError(
                f"unknown filter axis {axis!r} (choose from "
                f"{', '.join(FILTER_AXES)})"
            )
        if axis == "volume":
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise QueryError(
                    f"volume filter must be a number, got {value!r}"
                )
            normalised[axis] = _as_float(value, "volume filter")
        else:
            if not isinstance(value, str):
                raise QueryError(
                    f"{axis} filter must be a string, got {value!r}"
                )
            normalised[axis] = value
    return normalised


def _where_mask(frame: ResultFrame, where: dict) -> np.ndarray:
    """Boolean row mask of the axis filters (exact equality)."""
    mask = np.ones(len(frame), dtype=bool)
    for axis, value in where.items():
        mask &= frame.column(axis) == value
    return mask


class FrameRows(Mapping):
    """The ``rows`` of a response: ``frame``'s rows under ``mask``.

    A mapping equal to ``frame.filter(mask).to_json_columns()`` that
    holds no lists: :func:`response_bytes` writes its canonical JSON
    with :meth:`~repro.core.resultframe.ResultFrame.json_columns_bytes`,
    taking the tokens of the stored columns from the service's
    ``memo``, and a column list is built only when a caller reads it.
    """

    __slots__ = ("frame", "mask", "memo")

    def __init__(
        self,
        frame: ResultFrame,
        mask: np.ndarray,
        memo: Optional[JsonTokenMemo] = None,
    ) -> None:
        self.frame = frame
        self.mask = mask
        self.memo = memo

    def __getitem__(self, name: str) -> list:
        if name not in COLUMN_ORDER:
            raise KeyError(name)
        return self.frame.column(name)[self.mask].tolist()

    def __contains__(self, name) -> bool:
        return name in COLUMN_ORDER

    def __iter__(self) -> Iterator[str]:
        return iter(COLUMN_ORDER)

    def __len__(self) -> int:
        return len(COLUMN_ORDER)

    def json_bytes(self) -> bytes:
        """The rows' canonical JSON, encoded."""
        return self.frame.json_columns_bytes(self.mask, self.memo)


#: Re-ranked frames the service keeps per warehouse revision set.
RERANK_CACHE_CAPACITY = 16


class QueryService:
    """Answer decision queries against one warehouse directory.

    Thread-safe: the manifest file is re-read per query (so an append
    by a concurrent writer becomes visible at the next query — never
    mid-response) but parsed only when its bytes change, and the
    merged frame is memoised keyed by the manifest's content-addressed
    frame list, backed by the :class:`~repro.core.warehouse.FrameCache`
    LRU for the per-file loads.  All query work on the hot path is
    numpy column ops.

    Next to the merged frame sits its :class:`~repro.core.resultframe.
    JsonTokenMemo`: each stored column's distinct JSON tokens and
    ``int32`` codes, built the first time a response writes the column
    and dropped with the frame, so the rows of ``pareto`` and
    ``rerank`` answers format each stored value once per frame, not
    once per ask.

    Re-ranked frames are memoised too: the scalar ``pow`` loop in
    :func:`rerank_frame` is the one non-vectorised step on the query
    path, and dashboards ask the same handful of weight triples over
    and over.  The LRU key is the canonical weight triple plus the
    manifest's content-addressed frame list (the same identity the
    base-frame memo uses), so a warehouse append invalidates naturally;
    hit/miss counters surface in ``GET /health``.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        cache: Optional[FrameCache] = None,
        rerank_cache_capacity: int = RERANK_CACHE_CAPACITY,
    ) -> None:
        if rerank_cache_capacity < 1:
            raise SpecificationError(
                f"rerank cache capacity must be positive, got "
                f"{rerank_cache_capacity}"
            )
        self.directory = Path(directory)
        self.cache = cache if cache is not None else FrameCache()
        self._lock = threading.Lock()
        self._manifest_raw: Optional[bytes] = None
        self._manifest: Optional[WarehouseManifest] = None
        self._memo_key: Optional[tuple] = None
        self._memo: Optional[DecisionFrame] = None
        self._memo_tokens: Optional[JsonTokenMemo] = None
        self._rerank_capacity = rerank_cache_capacity
        self._rerank_cache: "OrderedDict[tuple, ResultFrame]" = (
            OrderedDict()
        )
        self._rerank_hits = 0
        self._rerank_misses = 0

    def manifest(self) -> WarehouseManifest:
        """The current manifest, parsed only when its bytes change.

        The file is read on every call; while its raw bytes equal the
        bytes last parsed, the parsed manifest is reused, and otherwise
        exactly the bytes just compared are parsed (no second read, so
        no window for a concurrent rewrite) by the one strict reader.
        A deleted or torn manifest fails as
        :func:`~repro.core.warehouse.read_warehouse_manifest` does.
        """
        raw = read_manifest_bytes(self.directory)
        with self._lock:
            if raw == self._manifest_raw:
                return self._manifest
        manifest = parse_warehouse_manifest(raw, self.directory)
        with self._lock:
            self._manifest_raw = raw
            self._manifest = manifest
        return manifest

    def state(self) -> tuple[WarehouseManifest, DecisionFrame]:
        """The current manifest and its merged decision frame.

        The manifest comes from :meth:`manifest` (parsed once per change
        of its bytes); the frame is memoised under the manifest's frame
        list, and a new list replaces it together with its token memo.
        """
        manifest = self.manifest()
        key = tuple(
            (entry.file, entry.digest) for entry in manifest.frames
        )
        with self._lock:
            if self._memo_key == key and self._memo is not None:
                return manifest, self._memo
        dframe = load_warehouse(
            self.directory, manifest=manifest, cache=self.cache
        )
        with self._lock:
            self._memo_key = key
            self._memo = dframe
            self._memo_tokens = JsonTokenMemo(dframe.frame)
        return manifest, dframe

    def _rows(self, dframe: DecisionFrame, frame, mask) -> FrameRows:
        """The response rows of ``frame`` under ``mask``, with the token
        memo of ``dframe`` when it is still the memoised frame."""
        with self._lock:
            memo = self._memo_tokens if self._memo is dframe else None
        return FrameRows(frame, mask, memo)

    def _reranked_frame(
        self,
        manifest: WarehouseManifest,
        dframe: DecisionFrame,
        weights: FomWeights,
    ) -> ResultFrame:
        """LRU-memoised :func:`rerank_frame` over the current frames."""
        key = (
            tuple(
                (entry.file, entry.digest) for entry in manifest.frames
            ),
            (weights.performance, weights.size, weights.cost),
        )
        with self._lock:
            cached = self._rerank_cache.get(key)
            if cached is not None:
                self._rerank_cache.move_to_end(key)
                self._rerank_hits += 1
                return cached
            self._rerank_misses += 1
        frame = rerank_frame(dframe, weights)
        with self._lock:
            self._rerank_cache[key] = frame
            self._rerank_cache.move_to_end(key)
            while len(self._rerank_cache) > self._rerank_capacity:
                self._rerank_cache.popitem(last=False)
        return frame

    def rerank_cache_stats(self) -> dict:
        """Hit/miss tallies of the re-rank LRU (the ``/health`` view)."""
        with self._lock:
            return {
                "hits": self._rerank_hits,
                "misses": self._rerank_misses,
                "entries": len(self._rerank_cache),
                "capacity": self._rerank_capacity,
            }

    # -- request handling ---------------------------------------------

    def execute(self, request) -> dict:
        """Answer one query request (a JSON-shaped mapping).

        Returns the JSON-ready response payload; raises
        :class:`QueryError` on any malformed or contradictory ask (the
        CLI maps that to exit 2, the HTTP layer to status 400).
        """
        if not isinstance(request, Mapping):
            raise QueryError("query request must be a JSON object")
        unknown = sorted(set(request) - _REQUEST_KEYS)
        if unknown:
            raise QueryError(
                f"unknown request keys {', '.join(map(repr, unknown))} "
                f"(allowed: {', '.join(sorted(_REQUEST_KEYS))})"
            )
        kind = request.get("kind")
        if kind not in QUERY_KINDS:
            raise QueryError(
                f"unknown query kind {kind!r} (choose from "
                f"{', '.join(QUERY_KINDS)})"
            )
        where = _validate_where(request.get("where"))
        raw_weights = request.get("fom_weights")
        axis = request.get("axis")
        if axis is not None and kind != "sensitivity":
            raise QueryError(
                f"axis applies to sensitivity queries only, not "
                f"{kind!r}"
            )
        if kind == "manifest" and (where or raw_weights is not None):
            raise QueryError(
                "manifest queries take no filters or weights"
            )
        if kind == "pareto" and raw_weights is not None:
            raise QueryError(
                "the Pareto front is weight-independent; drop "
                "fom_weights (re-rank with kind='rerank' instead)"
            )
        if kind == "rerank" and raw_weights is None:
            raise QueryError(
                "rerank needs fom_weights (perf:size:cost)"
            )

        manifest, dframe = self.state()
        if kind == "manifest":
            return self._manifest_response(manifest)

        weights = (
            parse_fom_weights(raw_weights)
            if raw_weights is not None
            else None
        )
        effective = (
            self._reranked_frame(manifest, dframe, weights)
            if weights is not None
            else dframe.frame
        )
        mask = _where_mask(effective, where)

        if kind == "pareto":
            front = mask & effective.column("on_pareto_front")
            return self._envelope(
                kind,
                manifest,
                rows=self._rows(dframe, effective, front),
                count=int(np.count_nonzero(front)),
            )
        if kind == "rerank":
            selected = effective.filter(mask)
            return self._envelope(
                kind,
                manifest,
                fom_weights=[
                    weights.performance,
                    weights.size,
                    weights.cost,
                ],
                rows=self._rows(dframe, effective, mask),
                count=len(selected),
                winner_counts=selected.winner_counts(),
                best=(
                    selected.row(selected.best_index()).as_dict()
                    if len(selected)
                    else None
                ),
            )
        if kind == "winners":
            selected = effective.filter(mask)
            return self._envelope(
                kind,
                manifest,
                winner_counts=selected.winner_counts(),
                points=_point_count(dframe.point_of_row()[mask]),
                count=len(selected),
            )
        if kind == "best":
            selected = effective.filter(mask)
            if not len(selected):
                raise QueryError(
                    "no stored rows match the filters; loosen the "
                    "where clause"
                )
            return self._envelope(
                kind,
                manifest,
                best=selected.row(selected.best_index()).as_dict(),
            )
        return self._sensitivity_response(
            manifest, dframe, effective, mask, where, axis
        )

    def _sensitivity_response(
        self,
        manifest: WarehouseManifest,
        dframe: DecisionFrame,
        effective: ResultFrame,
        mask: np.ndarray,
        where: dict,
        axis,
    ) -> dict:
        if axis is None:
            raise QueryError(
                f"sensitivity needs an axis (choose from "
                f"{', '.join(SENSITIVITY_AXES)})"
            )
        if axis not in SENSITIVITY_AXES:
            raise QueryError(
                f"unknown sensitivity axis {axis!r} (choose from "
                f"{', '.join(SENSITIVITY_AXES)})"
            )
        if axis in where:
            raise QueryError(
                f"sensitivity slices along {axis!r}; do not also pin "
                f"it in where"
            )
        selected = effective.filter(mask)
        if not len(selected):
            raise QueryError(
                "no stored rows match the filters; loosen the where "
                "clause"
            )
        point_ids = dframe.point_of_row()[mask]
        column = selected.column(axis)
        values = list(dict.fromkeys(column.tolist()))
        slices = []
        for value in values:
            vmask = column == value
            points = _point_count(point_ids[vmask])
            if points != 1:
                raise QueryError(
                    f"sensitivity slice {axis}={value!r} covers "
                    f"{points} grid points; pin the remaining "
                    f"axes in where so each slice is one point"
                )
            sub = selected.filter(vmask)
            winners = sub.column("candidate")[sub.column("is_winner")]
            slices.append(
                {
                    "value": value,
                    "winner": str(winners[0]),
                    "fom": {
                        str(name): float(fom)
                        for name, fom in zip(
                            sub.column("candidate").tolist(),
                            sub.column("figure_of_merit").tolist(),
                        )
                    },
                }
            )
        return self._envelope(
            "sensitivity",
            manifest,
            axis=axis,
            slices=slices,
            count=len(selected),
        )

    def _envelope(
        self, kind: str, manifest: WarehouseManifest, **fields
    ) -> dict:
        return {
            "kind": kind,
            "fingerprint": manifest.fingerprint,
            "revision": manifest.revision,
            **fields,
        }

    def _manifest_response(self, manifest: WarehouseManifest) -> dict:
        return {
            "kind": "manifest",
            "fingerprint": manifest.fingerprint,
            "order_digest": manifest.order_digest,
            "revision": manifest.revision,
            "total_points": manifest.total_points,
            "covered_points": manifest.covered_points,
            "complete": manifest.complete,
            "frames": [
                {
                    "file": entry.file,
                    "digest": entry.digest,
                    "points": entry.points,
                    "rows": entry.rows,
                }
                for entry in manifest.frames
            ],
            "grid_spec": manifest.grid_spec,
        }


def response_bytes(payload: dict) -> bytes:
    """A response payload as the canonical wire bytes.

    THE byte-identity surface: the HTTP server, the CLI ``query`` verb
    and the golden fixtures all serialise through here.  The bytes are
    ``canonical_json(payload) + "\\n"`` with every :class:`FrameRows`
    read as its dict of lists: a plain payload goes through
    :func:`~repro.core.blobstore.canonical_json` whole, and a payload
    carrying rows is written key by key in sorted order with the rows'
    text from :meth:`FrameRows.json_bytes` spliced in.
    """
    if not any(isinstance(value, FrameRows) for value in payload.values()):
        return (canonical_json(payload) + "\n").encode("utf-8")
    parts: list[bytes] = []
    for key, value in sorted(payload.items()):
        parts.append(b"," if parts else b"{")
        if isinstance(value, FrameRows):
            parts += (canonical_json(key).encode(), b":", value.json_bytes())
        else:
            parts.append(canonical_json({key: value})[1:-1].encode())
    parts.append(b"}\n")
    return b"".join(parts)


class _QueryHandler(BaseHTTPRequestHandler):
    server_version = "repro-warehouse/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        """Silence per-request stderr chatter (tests and CI replay)."""

    def _send(self, status: int, payload: dict) -> None:
        body = response_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/health":
            try:
                manifest = self.server.service.manifest()
            except SpecificationError as exc:
                self._send(500, {"status": "error", "error": str(exc)})
                return
            self._send(
                200,
                {
                    "status": "ok",
                    "revision": manifest.revision,
                    "rerank_cache": (
                        self.server.service.rerank_cache_stats()
                    ),
                },
            )
        elif self.path == "/manifest":
            self._dispatch({"kind": "manifest"})
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/query":
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            self.close_connection = True
            self._send(
                400,
                {
                    "error": "Content-Length must be a non-negative "
                    "integer"
                },
            )
            return
        body = self.rfile.read(length)
        try:
            request = json.loads(body)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON, bad UTF-8 and integers past
            # Python's digit limit; RecursionError, absurd nesting.
            self._send(
                400, {"error": f"request body is not valid JSON: {exc}"}
            )
            return
        self._dispatch(request)

    def _dispatch(self, request) -> None:
        try:
            payload = self.server.service.execute(request)
        except QueryError as exc:
            self._send(400, {"error": str(exc)})
        except SpecificationError as exc:
            # Warehouse-side trouble (manifest vanished, frame file
            # corrupt): the server's fault bucket, not the client's.
            self._send(500, {"error": str(exc)})
        else:
            self._send(200, payload)


class WarehouseServer(ThreadingHTTPServer):
    """One warehouse directory behind ``POST /query``.

    Thread-per-request on purpose: queries are read-only column ops
    over immutable frames, so concurrent handlers share the
    :class:`QueryService` (and its LRU) without coordination beyond
    the service's own locks.
    """

    daemon_threads = True

    def __init__(self, address, service: QueryService) -> None:
        super().__init__(address, _QueryHandler)
        self.service = service


def serve_warehouse(
    directory: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    cache: Optional[FrameCache] = None,
) -> WarehouseServer:
    """Bind a query server to a warehouse (``port=0`` = ephemeral).

    Validates the warehouse up front — a missing or corrupt manifest
    fails here, at bind time, not on the first request.  The caller
    runs ``serve_forever()`` (the CLI ``warehouse serve`` verb does).
    """
    service = QueryService(directory, cache=cache)
    read_warehouse_manifest(directory)
    return WarehouseServer((host, port), service)
