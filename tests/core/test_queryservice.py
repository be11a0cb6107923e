"""The decision query service, locked by a differential harness.

The load-bearing property, checked with hypothesis: for *any* user
FoM weight vector, re-ranking the warehouse's stored frame
(:func:`~repro.core.queryservice.rerank_frame`) is **byte-identical**
to re-running the whole sweep through ``evaluate_cell`` with those
weights as the sweep-wide default — including on grids that carry
their own ``fom_weights`` axis, where non-``paper`` points must keep
their per-point ranking.  Equality is asserted on the JSON column
serialisation, so equal means equal IEEE doubles, not "close".

Around it: the query semantics of all six kinds, the contradictory-ask
matrix (every bad request is a :class:`QueryError`, never a
traceback), the stdlib HTTP surface, and the concurrency satellite —
reader threads hammering mixed queries while a writer appends a shard
must only ever observe complete, canonical warehouse states.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core.figure_of_merit import FomWeights
from repro.core.methodology import CandidateBuildUp
from repro.core.blobstore import canonical_json, write_json
from repro.core.queryservice import (
    QUERY_KINDS,
    FrameRows,
    QueryError,
    QueryService,
    parse_fom_weights,
    rerank_frame,
    response_bytes,
    WarehouseServer,
    serve_warehouse,
)
from repro.core.sharding import run_shard
from repro.core.sweep import DesignPoint, SweepGrid, run_design_sweep
from repro.core.ranking import DecisionFrame, weighted_fom
from repro.core.resultframe import ResultFrame
from repro.core.warehouse import (
    WarehouseError,
    append_decision_frame,
    append_shard_artifact,
    build_warehouse,
    init_warehouse,
    load_warehouse,
    manifest_path,
    manifest_to_payload,
    read_warehouse_manifest,
)
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError

#: The differential grid carries a fom_weights *axis* on purpose: the
#: non-``paper`` point must keep its own ranking under every re-rank.
GRID = SweepGrid(
    volumes=(1e3, 5e3, 1e4, 1e5),
    fom_weights=(None, FomWeights(performance=2.0, cost=0.5)),
)


def _flow(area_cm2: float) -> ProductionFlow:
    flow = ProductionFlow(name="toy")
    flow.add(CarrierStep("ID1", "carrier", unit_cost=10.0 + area_cm2))
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def fixed_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    footprints = [Footprint("chip", 25.0, MountKind.PACKAGED)]
    return [
        CandidateBuildUp(
            name="ref",
            footprints=footprints,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=1.0,
        ),
        CandidateBuildUp(
            name="alt",
            footprints=footprints * 2,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=0.9,
        ),
    ]


@pytest.fixture(scope="module")
def warehouse_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("warehouse") / "wh"
    build_warehouse(directory, GRID, fixed_candidates)
    return directory


@pytest.fixture(scope="module")
def stored(warehouse_dir):
    return load_warehouse(warehouse_dir)


@pytest.fixture(scope="module")
def service(warehouse_dir):
    return QueryService(warehouse_dir)


#: Exponents stay in a band where FoM values neither overflow nor
#: denormalise — the regime the paper's weighting study lives in.
weight_values = st.floats(
    min_value=0.0,
    max_value=4.0,
    allow_nan=False,
    allow_infinity=False,
)


class TestDifferentialRerank:
    """The harness the tentpole is locked by."""

    @settings(max_examples=40, deadline=None)
    @given(
        performance=weight_values,
        size=weight_values,
        cost=weight_values,
    )
    def test_rerank_equals_fresh_sweep_byte_for_byte(
        self, stored, performance, size, cost
    ):
        weights = FomWeights(
            performance=performance, size=size, cost=cost
        )
        fresh = run_design_sweep(
            GRID, fixed_candidates, weights=weights
        )
        reranked = rerank_frame(stored, weights)
        assert reranked.to_json_columns() == (
            fresh.frame.to_json_columns()
        )

    def test_paper_weights_are_the_identity(self, stored):
        reranked = rerank_frame(stored, FomWeights())
        assert reranked.to_json_columns() == (
            stored.frame.to_json_columns()
        )

    def test_weighted_fom_matches_the_scalar_formula(self, stored):
        from repro.core.figure_of_merit import figure_of_merit

        weights = FomWeights(performance=1.7, size=0.3, cost=2.9)
        vector = weighted_fom(
            stored.frame.column("performance"),
            stored.size_ratio,
            stored.cost_ratio,
            weights,
        )
        scalar = [
            figure_of_merit(p, s, c, weights)
            for p, s, c in zip(
                stored.frame.column("performance").tolist(),
                stored.size_ratio.tolist(),
                stored.cost_ratio.tolist(),
            )
        ]
        assert vector.tolist() == scalar


class TestParseFomWeights:
    def test_string_forms(self):
        weights = parse_fom_weights("2:1:0.5")
        assert (weights.performance, weights.size, weights.cost) == (
            2.0,
            1.0,
            0.5,
        )
        assert parse_fom_weights("paper") == FomWeights()

    def test_list_form(self):
        assert parse_fom_weights([2, 1, 0.5]) == parse_fom_weights(
            "2:1:0.5"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "1:2",
            "a:b:c",
            "-1:1:1",
            "inf:1:1",
            [1, 2],
            [1, 2, True],
            {"performance": 1},
            None,
        ],
    )
    def test_bad_values_raise_query_errors(self, bad):
        with pytest.raises(QueryError):
            parse_fom_weights(bad)


class TestQueryKinds:
    def test_manifest_reports_coverage(self, service):
        payload = service.execute({"kind": "manifest"})
        assert payload["complete"] is True
        assert payload["covered_points"] == 8
        assert payload["total_points"] == 8

    def test_pareto_returns_only_front_rows(self, service, stored):
        payload = service.execute({"kind": "pareto"})
        front = stored.frame.filter(
            stored.frame.column("on_pareto_front")
        )
        assert payload["rows"] == front.to_json_columns()
        assert payload["count"] == len(front)

    def test_where_filters_compose(self, service, stored):
        payload = service.execute(
            {
                "kind": "pareto",
                "where": {"volume": 1e4, "candidate": "ref"},
            }
        )
        for volume in payload["rows"]["volume"]:
            assert volume == 1e4
        for name in payload["rows"]["candidate"]:
            assert name == "ref"

    def test_winners_counts_match_the_frame(self, service, stored):
        payload = service.execute({"kind": "winners"})
        assert payload["winner_counts"] == (
            stored.frame.winner_counts()
        )
        assert payload["points"] == 8

    def test_best_is_the_argmax_row(self, service, stored):
        payload = service.execute({"kind": "best"})
        best = stored.frame.row(stored.frame.best_index()).as_dict()
        assert payload["best"] == best

    def test_rerank_response_carries_ranking_artifacts(self, service):
        payload = service.execute(
            {"kind": "rerank", "fom_weights": "2:1:0.5"}
        )
        fresh = run_design_sweep(
            GRID,
            fixed_candidates,
            weights=FomWeights(performance=2.0, size=1.0, cost=0.5),
        )
        assert payload["rows"] == fresh.frame.to_json_columns()
        assert payload["winner_counts"] == (
            fresh.frame.winner_counts()
        )
        assert payload["best"] == fresh.frame.row(
            fresh.frame.best_index()
        ).as_dict()

    def test_sensitivity_slices_one_point_each(self, service):
        payload = service.execute(
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"weights": "paper"},
            }
        )
        assert [s["value"] for s in payload["slices"]] == [
            1e3,
            5e3,
            1e4,
            1e5,
        ]
        for entry in payload["slices"]:
            assert entry["winner"] in entry["fom"]
            assert set(entry["fom"]) == {"ref", "alt"}

    def test_sensitivity_under_user_weights(self, service):
        payload = service.execute(
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"weights": "paper"},
                "fom_weights": "0:0:1",
            }
        )
        fresh = run_design_sweep(
            GRID,
            fixed_candidates,
            weights=FomWeights(performance=0.0, size=0.0, cost=1.0),
        )
        mask = fresh.frame.column("weights") == "paper"
        sub = fresh.frame.filter(mask)
        for entry in payload["slices"]:
            vmask = sub.column("volume") == entry["value"]
            winners = sub.column("candidate")[
                vmask & sub.column("is_winner")
            ]
            assert entry["winner"] == winners[0]


class TestBadAsks:
    @pytest.mark.parametrize(
        "request_payload",
        [
            "not an object",
            {"kind": "nope"},
            {},
            {"kind": "pareto", "surprise": 1},
            {"kind": "pareto", "fom_weights": "2:1:1"},
            {"kind": "rerank"},
            {"kind": "rerank", "fom_weights": "1:2"},
            {"kind": "manifest", "where": {"volume": 1e3}},
            {"kind": "manifest", "fom_weights": "1:1:1"},
            {"kind": "winners", "axis": "volume"},
            {"kind": "sensitivity"},
            {"kind": "sensitivity", "axis": "candidate"},
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"volume": 1e3},
            },
            {"kind": "sensitivity", "axis": "volume"},
            {"kind": "pareto", "where": {"bogus": 1}},
            {"kind": "pareto", "where": {"volume": "lots"}},
            {"kind": "pareto", "where": {"volume": True}},
            {"kind": "pareto", "where": {"candidate": 7}},
            {"kind": "pareto", "where": "volume=1e3"},
            {"kind": "best", "where": {"volume": 77.0}},
        ],
    )
    def test_exit_contract_is_a_query_error(
        self, service, request_payload
    ):
        with pytest.raises(QueryError):
            service.execute(request_payload)

    def test_sensitivity_multi_point_slice_names_the_fix(
        self, service
    ):
        # Without pinning the weights axis, each volume slice covers
        # two grid points — ambiguous, and the error says how to fix.
        with pytest.raises(QueryError) as excinfo:
            service.execute({"kind": "sensitivity", "axis": "volume"})
        assert "pin the remaining" in str(excinfo.value)

    def test_missing_warehouse_is_a_specification_error(
        self, tmp_path
    ):
        with pytest.raises(SpecificationError):
            QueryService(tmp_path / "nowhere").execute(
                {"kind": "manifest"}
            )


def smaller_alternative(point: DesignPoint) -> list[CandidateBuildUp]:
    """``fixed_candidates`` with the alternative half the reference's
    area, so its ``1 / size_ratio`` base is 2."""
    ref, alt = fixed_candidates(point)
    return [
        replace(ref, footprints=alt.footprints),
        replace(alt, footprints=ref.footprints),
    ]


class TestOverflowingWeights:
    """A re-rank weight whose power exceeds the largest double escaped
    as ``OverflowError`` (not a ``QueryError``), so the CLI printed a
    traceback and ``POST /query`` could not answer 400."""

    ASK = {"kind": "rerank", "fom_weights": [1e308, 1e308, 1e308]}

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("overflow") / "wh"
        build_warehouse(directory, GRID, smaller_alternative)
        return directory

    def test_execute_raises_query_error(self, directory):
        with pytest.raises(QueryError) as excinfo:
            QueryService(directory).execute(self.ASK)
        assert str(excinfo.value) == (
            "size weight 1e+308 overflows the figure of merit (a base "
            "raised to it exceeds the largest double)"
        )

    def test_post_query_is_http_400(self, directory):
        server = serve_warehouse(directory)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps(self.ASK).encode(),
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
        finally:
            server.shutdown()
            server.server_close()
        assert excinfo.value.code == 400
        body = excinfo.value.read()
        assert body.count(b"\n") == 1
        assert json.loads(body)["error"].startswith("size weight 1e+308")


class TestHttpSurface:
    @pytest.fixture(scope="class")
    def server(self, warehouse_dir):
        server = serve_warehouse(warehouse_dir)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _post(self, server, payload):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.read()

    def test_query_bytes_match_in_process_execution(
        self, server, service
    ):
        for request_payload in (
            {"kind": "manifest"},
            {"kind": "winners"},
            {"kind": "rerank", "fom_weights": "2:1:0.5"},
        ):
            assert self._post(server, request_payload) == (
                response_bytes(service.execute(request_payload))
            )

    def test_get_manifest_and_health(self, server, service):
        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/manifest"
        ) as response:
            assert response.read() == response_bytes(
                service.execute({"kind": "manifest"})
            )
        with urllib.request.urlopen(
            f"http://{host}:{port}/health"
        ) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"

    def test_health_exposes_rerank_cache_counters(self, server):
        host, port = server.server_address[:2]

        def health():
            with urllib.request.urlopen(
                f"http://{host}:{port}/health"
            ) as response:
                return json.loads(response.read())["rerank_cache"]

        before = health()
        assert set(before) == {"hits", "misses", "entries", "capacity"}
        self._post(
            server, {"kind": "rerank", "fom_weights": "3:1:0.25"}
        )
        self._post(
            server, {"kind": "winners", "fom_weights": "3:1:0.25"}
        )
        after = health()
        assert after["misses"] >= before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1

    def test_bad_asks_are_http_400(self, server):
        host, port = server.server_address[:2]
        for body in (b"{torn", json.dumps({"kind": "rerank"}).encode()):
            request = urllib.request.Request(
                f"http://{host}:{port}/query", data=body
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            assert "error" in json.loads(excinfo.value.read())

    @pytest.mark.parametrize("length", [b"-1", b"-4096", b"lots", b"1.5"])
    def test_bad_content_length_is_http_400_without_reading(
        self, server, length
    ):
        """A negative length used to reach ``rfile.read(-1)``, which
        blocks until a keep-alive client hangs up."""
        with socket.create_connection(
            server.server_address[:2], timeout=3
        ) as client:
            client.sendall(
                b"POST /query HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
            )
            # The server answers and hangs up; a hang times out.
            response = b""
            while chunk := client.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert body.count(b"\n") == 1
        assert json.loads(body) == {
            "error": "Content-Length must be a non-negative integer"
        }

    def test_unknown_path_is_http_404(self, server):
        host, port = server.server_address[:2]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{host}:{port}/pareto")
        assert excinfo.value.code == 404

    def test_corrupt_performance_column_is_http_400(self, stored, tmp_path):
        columns = stored.frame.to_json_columns()
        columns["performance"][0] = -1.0
        directory = tmp_path / "corrupt"
        init_warehouse(directory, GRID)
        append_decision_frame(
            directory,
            DecisionFrame(
                frame=ResultFrame.from_json_columns(columns),
                size_ratio=stored.size_ratio,
                cost_ratio=stored.cost_ratio,
                indices=stored.indices,
                row_counts=stored.row_counts,
            ),
        )
        server = serve_warehouse(directory)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server, {"kind": "rerank", "fom_weights": "2:1:1"})
        finally:
            server.shutdown()
            server.server_close()
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read()) == {
            "error": "stored performance column holds negative or NaN "
            "values; the warehouse frame is corrupt"
        }


def _raw_post(address, request: bytes, shut_write: bool = False):
    """Send raw bytes to the server and read its first response:
    ``(status, body)``.  ``shut_write`` half-closes the socket so a
    server reading a too-long ``Content-Length`` sees the end."""
    with socket.create_connection(address[:2], timeout=10) as client:
        client.sendall(request)
        if shut_write:
            client.shutdown(socket.SHUT_WR)
        response = http.client.HTTPResponse(client)
        response.begin()
        return response.status, response.read()


def _post_body(body: bytes, length=None) -> bytes:
    """A ``POST /query`` request carrying ``body``."""
    length = str(len(body)).encode() if length is None else length
    return (
        b"POST /query HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: " + length + b"\r\n\r\n" + body
    )


def _assert_answer(status: int, body: bytes) -> None:
    """200 with a JSON answer, or 400 with one one-line ``error``."""
    assert status in (200, 400), (status, body[:200])
    assert body.count(b"\n") == 1
    payload = json.loads(body)
    if status == 400:
        assert set(payload) == {"error"}
        assert "\n" not in payload["error"]


class TestHugeAndDeepBodies:
    """Bodies that used to drop the connection (``RemoteDisconnected``
    plus a server-side traceback) must be answered with HTTP 400."""

    HUGE = 10**400

    @pytest.fixture(scope="class")
    def server(self, warehouse_dir):
        server = serve_warehouse(warehouse_dir)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    @pytest.mark.parametrize(
        "ask",
        [
            {"kind": "pareto", "where": {"volume": HUGE}},
            {"kind": "rerank", "fom_weights": [HUGE, 1, 1]},
        ],
        ids=["volume", "fom_weights"],
    )
    def test_huge_integer_is_a_query_error(self, service, server, ask):
        with pytest.raises(QueryError, match="out of the float range"):
            service.execute(ask)
        status, body = _raw_post(
            server.server_address, _post_body(json.dumps(ask).encode())
        )
        _assert_answer(status, body)
        assert status == 400

    @pytest.mark.parametrize(
        "body",
        [
            b'{"kind": "pareto", "where": {"volume": ' + b"7" * 5000 + b"}}",
            b"[" * 100_000,
        ],
        ids=["5000-digit-int", "deep-nesting"],
    )
    def test_unparseable_body_is_http_400(self, server, body):
        status, answer = _raw_post(server.server_address, _post_body(body))
        _assert_answer(status, answer)
        assert status == 400
        assert json.loads(answer)["error"].startswith(
            "request body is not valid JSON"
        )


#: JSON values: scalars (huge ints, NaN and infinities included) nested
#: in lists and objects.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(QUERY_KINDS),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Request-shaped objects, so the fuzz reaches the executor.
query_asks = st.fixed_dictionaries(
    {"kind": st.sampled_from(QUERY_KINDS) | json_values},
    optional={
        "where": st.dictionaries(
            st.sampled_from(["volume", "candidate", "substrate", "bogus"]),
            json_values,
            max_size=3,
        )
        | json_values,
        "fom_weights": st.lists(json_values, min_size=3, max_size=3)
        | st.sampled_from(["2:1:1", "paper", "1:x:1", "1e999:1:1"])
        | json_values,
        "axis": st.sampled_from(["volume", "weights", "candidate"])
        | json_values,
    },
)


@st.composite
def post_requests(draw):
    """``(request bytes, half-close?)`` of a ``POST /query``."""
    kind = draw(
        st.sampled_from(["json", "ask", "digits", "nesting", "binary"])
    )
    if kind == "json":
        body = json.dumps(draw(json_values)).encode()
    elif kind == "ask":
        body = json.dumps(draw(query_asks)).encode()
    elif kind == "digits":
        body = b'{"kind": "best", "fom_weights": [1, 1, ' + b"9" * draw(
            st.integers(300, 6000)
        ) + b"]}"
    elif kind == "nesting":
        depth = draw(st.integers(1, 120_000))
        body = draw(st.sampled_from([b"[", b'{"a":'])) * depth
    else:
        body = draw(st.binary(max_size=64))
    length = draw(
        st.sampled_from(["exact", "short", "long", "negative", "junk"])
    )
    if length == "exact":
        return _post_body(body), False
    if length == "short":
        return _post_body(body, str(len(body) // 2).encode()), False
    if length == "long":
        return _post_body(body, str(len(body) + 7).encode()), True
    if length == "negative":
        return _post_body(body, b"-3"), False
    return _post_body(body, b"12abc"), False


class TestPostQueryFuzz:
    """Any ``POST /query`` body is answered: 200, or 400 with a one-line
    JSON ``error`` — never a dropped connection — and the server keeps
    answering good queries."""

    @pytest.fixture(scope="class")
    def server(self, warehouse_dir):
        server = WarehouseServer(("127.0.0.1", 0), QueryService(warehouse_dir))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    @settings(max_examples=150, deadline=None)
    @given(request=post_requests())
    def test_every_body_is_answered(self, server, request):
        raw, shut_write = request
        status, body = _raw_post(server.server_address, raw, shut_write)
        _assert_answer(status, body)
        status, body = _raw_post(
            server.server_address, _post_body(b'{"kind": "winners"}')
        )
        assert status == 200


def reference_bytes(payload: dict) -> bytes:
    """The wire bytes by definition: ``canonical_json`` of the payload
    with its rows read as the plain dict of lists."""
    plain = {
        key: dict(value) if isinstance(value, FrameRows) else value
        for key, value in payload.items()
    }
    return (canonical_json(plain) + "\n").encode("utf-8")


#: Floats whose JSON text is easy to get wrong, and labels the JSON
#: escaper must get right.
AWKWARD_FLOATS = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
AWKWARD_LABELS = ['q"uote', "back\\slash", "ctl\x01\x1f\t", "é☃𝄞"]


def _awkward(stored: DecisionFrame) -> DecisionFrame:
    """``stored`` with awkward floats and labels (performance stays
    non-negative and the FoM finite, as the re-rank requires)."""
    columns = stored.frame.to_json_columns()
    rows = len(stored)
    volumes = sorted(set(columns["volume"]))
    columns["volume"] = [
        AWKWARD_FLOATS[volumes.index(volume)] for volume in columns["volume"]
    ]
    non_finite = AWKWARD_FLOATS + [float("nan"), float("-inf")]
    for shift, (name, pool) in enumerate(
        (
            ("performance", AWKWARD_FLOATS),
            ("area_percent", non_finite),
            ("cost_percent", non_finite),
            ("figure_of_merit", AWKWARD_FLOATS),
        )
    ):
        columns[name] = [pool[(i + shift) % len(pool)] for i in range(rows)]
    columns["substrate"] = [
        AWKWARD_LABELS[i % len(AWKWARD_LABELS)] for i in range(rows)
    ]
    columns["candidate"] = [
        name + AWKWARD_LABELS[0] for name in columns["candidate"]
    ]
    return DecisionFrame(
        frame=ResultFrame.from_json_columns(columns),
        size_ratio=stored.size_ratio,
        cost_ratio=stored.cost_ratio,
        indices=stored.indices,
        row_counts=stored.row_counts,
    )


def _points(dframe: DecisionFrame, start: int, stop: int) -> DecisionFrame:
    """The rows of points ``indices[start:stop]`` as their own frame."""
    first = sum(dframe.row_counts[:start])
    last = first + sum(dframe.row_counts[start:stop])
    return DecisionFrame(
        frame=dframe.frame.take(np.arange(first, last)),
        size_ratio=dframe.size_ratio[first:last],
        cost_ratio=dframe.cost_ratio[first:last],
        indices=dframe.indices[start:stop],
        row_counts=dframe.row_counts[start:stop],
    )


class TestSplicedResponseBytes:
    """``response_bytes`` splices the rows' text into the envelope; the
    result must be ``canonical_json(payload) + "\\n"`` byte for byte."""

    @staticmethod
    def _requests(frame: ResultFrame) -> list[dict]:
        front = int(np.flatnonzero(frame.column("on_pareto_front"))[0])
        one_row = {
            axis: frame.column(axis)[front]
            for axis in ("volume", "candidate", "weights")
        }
        nothing = {"candidate": "no such candidate"}
        return [
            {"kind": "manifest"},
            {"kind": "pareto"},
            {"kind": "pareto", "where": one_row},
            {"kind": "pareto", "where": nothing},
            {"kind": "pareto", "where": {"substrate": AWKWARD_LABELS[0]}},
            {"kind": "winners"},
            {"kind": "best"},
            {"kind": "best", "where": {"volume": -0.0}},
            {"kind": "rerank", "fom_weights": "2:1:0.5"},
            {"kind": "rerank", "fom_weights": "paper", "where": one_row},
            {"kind": "rerank", "fom_weights": "1:3:2", "where": nothing},
            {"kind": "rerank", "fom_weights": "2:1:0.5", "where": one_row},
            {"kind": "winners", "fom_weights": "0.5:1:2"},
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"weights": "paper"},
            },
        ]

    def _check(self, service: QueryService, frame: ResultFrame) -> list:
        answers = []
        for request_payload in self._requests(frame):
            payload = service.execute(request_payload)
            body = response_bytes(payload)
            assert body == reference_bytes(payload), request_payload
            if isinstance(payload.get("rows"), FrameRows):
                assert payload["rows"].memo is not None
            answers.append(body)
        return answers

    def test_awkward_values_every_kind(self, stored, tmp_path):
        awkward = _awkward(stored)
        init_warehouse(tmp_path, GRID)
        append_decision_frame(tmp_path, awkward)
        service = QueryService(tmp_path)
        first = self._check(service, awkward.frame)
        # Warm: the memo and the re-rank LRU answer the second round.
        assert self._check(service, awkward.frame) == first
        payload = service.execute({"kind": "pareto"})
        front = awkward.frame.filter(
            awkward.frame.column("on_pareto_front")
        )
        # NaN cells compare unequal as lists; their JSON text does not.
        assert canonical_json(dict(payload["rows"])) == canonical_json(
            front.to_json_columns()
        )

    def test_memo_follows_a_new_revision(self, stored, tmp_path):
        awkward = _awkward(stored)
        half = len(awkward.indices) // 2
        init_warehouse(tmp_path, GRID)
        append_decision_frame(tmp_path, _points(awkward, 0, half))
        service = QueryService(tmp_path)
        self._check(service, _points(awkward, 0, half).frame)
        append_decision_frame(
            tmp_path, _points(awkward, half, len(awkward.indices))
        )
        after = self._check(service, awkward.frame)
        assert after == self._check(QueryService(tmp_path), awkward.frame)
        assert service.execute({"kind": "manifest"})["revision"] == 3


class TestManifestMemo:
    """The manifest is parsed once per change of its bytes, and a warm
    service never answers from a stale one."""

    @pytest.fixture
    def partial(self, stored, tmp_path):
        init_warehouse(tmp_path, GRID)
        append_decision_frame(tmp_path, _points(stored, 0, 4))
        return tmp_path

    def test_an_append_shows_on_the_next_ask(self, stored, partial):
        service = QueryService(partial)
        before = service.execute({"kind": "winners"})
        append_decision_frame(partial, _points(stored, 4, 8))
        after = service.execute({"kind": "winners"})
        assert (before["revision"], after["revision"]) == (2, 3)
        assert (before["count"], after["count"]) == (8, len(stored))
        assert response_bytes(after) == response_bytes(
            QueryService(partial).execute({"kind": "winners"})
        )

    def test_a_same_size_rewrite_is_seen(self, partial):
        service = QueryService(partial)
        manifest = service.manifest()
        path = manifest_path(partial)
        size = path.stat().st_size
        payload = manifest_to_payload(manifest)
        payload["revision"] = manifest.revision + 1
        write_json(path, payload)
        assert path.stat().st_size == size
        assert service.execute({"kind": "manifest"})["revision"] == (
            manifest.revision + 1
        )
        assert service.manifest() == read_warehouse_manifest(partial)

    @pytest.mark.parametrize("damage", ["delete", "tear"])
    def test_a_deleted_or_torn_manifest_fails_as_before(
        self, partial, damage
    ):
        service = QueryService(partial)
        service.execute({"kind": "winners"})
        path = manifest_path(partial)
        if damage == "delete":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(WarehouseError) as expected:
            read_warehouse_manifest(partial)
        with pytest.raises(WarehouseError) as raised:
            service.execute({"kind": "winners"})
        assert str(raised.value) == str(expected.value)

        server = WarehouseServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            for path_name in ("/manifest", "/health"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"http://{host}:{port}{path_name}")
                assert excinfo.value.code == 500
                assert str(expected.value) in json.loads(
                    excinfo.value.read()
                )["error"]
        finally:
            server.shutdown()
            server.server_close()

    def test_health_agrees_on_the_revision(self, stored, partial):
        server = serve_warehouse(partial)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]

        def revisions():
            with urllib.request.urlopen(
                f"http://{host}:{port}/health"
            ) as response:
                health = json.loads(response.read())["revision"]
            with urllib.request.urlopen(
                f"http://{host}:{port}/manifest"
            ) as response:
                return health, json.loads(response.read())["revision"]

        try:
            assert revisions() == (2, 2)
            append_decision_frame(partial, _points(stored, 4, 8))
            assert revisions() == (3, 3)
        finally:
            server.shutdown()
            server.server_close()


class TestConcurrentAppendAndQuery:
    """The torn-state satellite: readers during a writer append."""

    N_THREADS = 6
    N_QUERIES = 25

    def test_queries_only_see_complete_canonical_states(
        self, tmp_path
    ):
        grid = SweepGrid(volumes=(1e3, 2e3, 5e3, 1e4))
        artifacts = [
            run_shard(grid, fixed_candidates, shards=4, shard_index=i)
            for i in range(4)
        ]
        init_warehouse(tmp_path, grid)
        for artifact in artifacts[:3]:
            append_shard_artifact(tmp_path, artifact)

        asks = {
            "winners": {"kind": "winners"},
            "rerank": {"kind": "rerank", "fom_weights": "2:1:0.5"},
            "pareto": {"kind": "pareto"},
        }

        # The only two states any reader may ever observe.
        def canonical(service):
            return {
                kind: response_bytes(service.execute(ask))
                for kind, ask in asks.items()
            }

        before = canonical(QueryService(tmp_path))
        probe = tmp_path / ".probe"
        probe.mkdir()
        init_warehouse(probe, grid)
        for artifact in artifacts:
            append_shard_artifact(probe, artifact)
        # The probe's revision (init + 4 appends = 5) equals what the
        # shared warehouse reports after its own 4th append, so its
        # response bytes are exactly the expected "after" state.
        after = canonical(QueryService(probe))

        service = QueryService(tmp_path)
        failures: list = []
        seen_after = threading.Event()
        start = threading.Barrier(self.N_THREADS + 1)

        def hammer():
            start.wait()
            for index in range(self.N_QUERIES):
                kind = ("winners", "rerank", "pareto")[index % 3]
                try:
                    body = response_bytes(service.execute(asks[kind]))
                except Exception as exc:  # noqa: BLE001
                    failures.append(repr(exc))
                    continue
                if body == after[kind]:
                    seen_after.set()
                elif body != before[kind]:
                    failures.append(
                        f"non-canonical {kind} response: {body[:120]!r}"
                    )

        threads = [
            threading.Thread(target=hammer)
            for _ in range(self.N_THREADS)
        ]
        # Switch threads often, so the manifest and token memos are
        # read and replaced mid-update.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            start.wait()
            append_shard_artifact(tmp_path, artifacts[3])
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        # After the append every new query reports the full grid.
        final = response_bytes(service.execute({"kind": "winners"}))
        assert final == after["winners"]


class TestRerankCache:
    """The re-rank LRU satellite: repeated weights skip the pow kernel."""

    def test_repeat_weights_hit_and_responses_stay_identical(
        self, warehouse_dir
    ):
        fresh = QueryService(warehouse_dir)
        request = {"kind": "rerank", "fom_weights": "2:1:0.5"}
        first = response_bytes(fresh.execute(request))
        stats = fresh.rerank_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = response_bytes(fresh.execute(request))
        stats = fresh.rerank_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert second == first

    def test_cache_is_shared_across_query_kinds(self, warehouse_dir):
        fresh = QueryService(warehouse_dir)
        fresh.execute({"kind": "rerank", "fom_weights": "2:1:1"})
        fresh.execute({"kind": "winners", "fom_weights": "2:1:1"})
        fresh.execute({"kind": "best", "fom_weights": "2:1:1"})
        stats = fresh.rerank_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_distinct_weights_miss_and_lru_evicts(self, warehouse_dir):
        fresh = QueryService(warehouse_dir, rerank_cache_capacity=2)
        for cost in ("0.5", "1.5", "2.5"):
            fresh.execute(
                {"kind": "rerank", "fom_weights": f"1:1:{cost}"}
            )
        stats = fresh.rerank_cache_stats()
        assert stats["misses"] == 3 and stats["entries"] == 2
        # The oldest entry (cost 0.5) was evicted: asking again misses.
        fresh.execute({"kind": "rerank", "fom_weights": "1:1:0.5"})
        assert fresh.rerank_cache_stats()["misses"] == 4

    def test_unweighted_queries_bypass_the_cache(self, warehouse_dir):
        fresh = QueryService(warehouse_dir)
        fresh.execute({"kind": "winners"})
        fresh.execute({"kind": "pareto"})
        stats = fresh.rerank_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_bad_capacity_rejected(self, warehouse_dir):
        with pytest.raises(SpecificationError):
            QueryService(warehouse_dir, rerank_cache_capacity=0)
