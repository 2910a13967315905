"""The evaluation server: protocol contract, cold and warm evaluation.

Three layers under test, mirroring the package:

* the wire protocol (`parse_request`, envelopes, stable error codes and
  their HTTP status mapping) — pure functions, no sockets;
* the dispatcher over one `ServerState` — every action's ok/error envelope,
  parameter validation, counters;
* the real `EvalServer` over HTTP — end-to-end queries, concurrent
  `evaluate` calls asserted bit-identical to direct single-threaded
  `Study` runs, and the warm path (second identical query is a store hit).
"""
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.results import _jsonify
from repro.core.store import ResultStore
from repro.core.study import Study
from repro.server import (
    EvalServer,
    ProtocolError,
    ServerState,
    dispatch,
    error_envelope,
    ok_envelope,
    parse_request,
    query,
)
from repro.server.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_INTERNAL,
    ERROR_INVALID_PARAMS,
    ERROR_UNKNOWN_ACTION,
    http_status,
)

#: A deliberately tiny workload: every server test sweeps real operators.
WORKLOAD = {"workload": "fft", "config": {"size": 16, "frames": 2}}


def wire(row):
    """A result row exactly as the JSON transport delivers it."""
    return json.loads(json.dumps(row, default=_jsonify))


# --------------------------------------------------------------------------- #
# Protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_parse_request_round_trip(self):
        action, params = parse_request(
            b'{"action": "evaluate", "params": {"workload": "fft"}}')
        assert action == "evaluate"
        assert params == {"workload": "fft"}

    def test_parse_request_defaults_params_to_empty(self):
        assert parse_request(b'{"action": "status"}') == ("status", {})

    @pytest.mark.parametrize("body", [
        b"", b"not json", b"[1, 2]", b'"string"',
        b'{"params": {}}',                    # missing action
        b'{"action": 7}',                     # non-string action
        b'{"action": ""}',                    # empty action
        b'{"action": "x", "params": [1]}',    # non-object params
        b"\xff\xfe",                          # not UTF-8
    ])
    def test_parse_request_rejects_malformed_documents(self, body):
        with pytest.raises(ProtocolError) as caught:
            parse_request(body)
        assert caught.value.code == ERROR_BAD_REQUEST

    def test_envelopes_and_http_status(self):
        ok = ok_envelope("status", {"x": 1})
        assert ok == {"status": "ok", "action": "status", "result": {"x": 1}}
        assert http_status(ok) == 200
        assert http_status(error_envelope(ERROR_BAD_REQUEST, "m")) == 400
        assert http_status(error_envelope(ERROR_INVALID_PARAMS, "m")) == 400
        assert http_status(error_envelope(ERROR_UNKNOWN_ACTION, "m")) == 404
        assert http_status(error_envelope(ERROR_INTERNAL, "m")) == 500
        assert http_status(error_envelope("never-heard-of-it", "m")) == 500

    def test_error_envelope_carries_the_action_when_known(self):
        envelope = ProtocolError(ERROR_INVALID_PARAMS, "bad").envelope(
            action="evaluate")
        assert envelope["action"] == "evaluate"
        assert envelope["code"] == ERROR_INVALID_PARAMS
        assert envelope["status"] == "error"


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #
class TestDispatch:
    @pytest.fixture()
    def state(self):
        return ServerState()

    def test_unknown_action_envelope(self, state):
        envelope = dispatch(state, "frobnicate", {})
        assert envelope["status"] == "error"
        assert envelope["code"] == ERROR_UNKNOWN_ACTION
        assert "frobnicate" in envelope["message"]
        assert "evaluate" in envelope["message"]  # lists the known actions

    def test_invalid_params_envelopes(self, state):
        missing = dispatch(state, "evaluate", {})
        assert missing["code"] == ERROR_INVALID_PARAMS
        bad_workload = dispatch(state, "evaluate",
                                {"workload": "no_such", "adder": "ADD(16)"})
        assert bad_workload["code"] == ERROR_INVALID_PARAMS
        bad_operator = dispatch(state, "evaluate",
                                dict(WORKLOAD, adder="FROB(16)"))
        assert bad_operator["code"] == ERROR_INVALID_PARAMS
        bad_axis = dispatch(state, "evaluate",
                            dict(WORKLOAD, operator="ADD(16)", axis="nope"))
        assert bad_axis["code"] == ERROR_INVALID_PARAMS
        ambiguous = dispatch(state, "evaluate",
                             dict(WORKLOAD, adder="ADD(16)",
                                  multiplier="MUL(8)"))
        assert ambiguous["code"] == ERROR_INVALID_PARAMS

    def test_evaluate_matches_direct_study_run(self, state):
        envelope = dispatch(state, "evaluate",
                            dict(WORKLOAD, adder="ACA(16,8)", energy=False))
        assert envelope["status"] == "ok"
        direct = (Study().workload("fft", size=16, frames=2)
                  .adders(["ACA(16,8)"]).seed(0).backend("lut").run())
        assert envelope["result"]["row"] == wire(direct.rows[0])
        assert envelope["result"]["cached"] is False

    def test_evaluate_sugar_is_equivalent_to_operator_axis(self, state):
        sugar = dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        explicit = dispatch(state, "evaluate",
                            dict(WORKLOAD, operator="ADD(16)", axis="adder"))
        assert sugar["result"]["row"] == explicit["result"]["row"]

    def test_pareto_front_over_a_described_space(self, state):
        envelope = dispatch(state, "pareto", dict(
            WORKLOAD, quality="psnr_db",
            space={"kind": "approximate_adder", "width": 16,
                   "reduced": True}))
        assert envelope["status"] == "ok"
        result = envelope["result"]
        assert result["sweep_points"] > 0
        assert result["rows"] == result["sweep_points"]
        assert result["front"]["points"]
        assert result["front"]["quality"] == "psnr_db"

    def test_pareto_space_validation(self, state):
        base = dict(WORKLOAD, quality="psnr_db")
        for space in (None, "joint", {"kind": "no_such"},
                      {"kind": "operators", "specs": []},
                      {"kind": "operators", "specs": [7]},
                      {"kind": "joint_adder", "width": "wide"},
                      {"kind": "joint_adder", "word_lengths": "all"}):
            envelope = dispatch(state, "pareto", dict(base, space=space))
            assert envelope["code"] == ERROR_INVALID_PARAMS, space

    def test_pareto_explicit_operator_specs(self, state):
        envelope = dispatch(state, "pareto", dict(
            WORKLOAD, quality="psnr_db",
            space={"kind": "operators",
                   "specs": ["ADD(16)", "ACA(16,8)", "ETAII(16,4)"]}))
        assert envelope["status"] == "ok"
        assert envelope["result"]["sweep_points"] == 3

    def test_experiments_lists_registry_and_capabilities(self, state):
        envelope = dispatch(state, "experiments", {})
        assert envelope["status"] == "ok"
        result = envelope["result"]
        names = [entry["name"] for entry in result["experiments"]]
        assert "fft_joint_frontier" in names
        assert "fft" in result["workloads"]
        assert "lut" in result["backends"]
        assert "aca" in result["operators"]
        details = result["operator_details"]
        assert set(details) == set(result["operators"])
        assert details["aca"]["role"] == "adder"
        assert details["aam"]["role"] == "multiplier"
        assert details["aca"]["factory"] == "ACAAdder"
        assert details["aca"]["summary"]
        filtered = dispatch(state, "experiments", {"ablations": False})
        assert all(not entry["ablation"]
                   for entry in filtered["result"]["experiments"])

    def test_status_reports_counters_and_caches(self, state):
        dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        dispatch(state, "frobnicate", {})
        envelope = dispatch(state, "status", {})
        assert envelope["status"] == "ok"
        result = envelope["result"]
        assert result["uptime_s"] >= 0
        assert result["requests"]["evaluate"] == 1
        assert result["requests"]["frobnicate"] == 1
        assert result["errors"][ERROR_UNKNOWN_ACTION] == 1
        assert result["in_flight"] == 1  # the status request itself
        assert result["table_cache"]["limit"] >= 1
        assert result["batching"]["requests"] == 1
        assert result["store"] is None
        assert result["hardware_cache"]["reports"] >= 1

    #: ``(workload, bad config keys)``; each key must be named in the error.
    INVALID_CONFIGS = [
        ("fft", {"frames": 0}), ("fft", {"frames": -1}),
        ("fft", {"amplitude": -0.1}), ("fft", {"amplitude": 1.5}),
        ("fft", {"amplitude": 1e300}), ("fft", {"amplitude": float("inf")}),
        ("fft", {"amplitude": float("nan")}),
        ("jpeg", {"frames": 0}), ("jpeg", {"frames": -3}),
    ]

    @pytest.mark.parametrize(
        "workload,config", INVALID_CONFIGS,
        ids=[f"config{index}" for index in range(len(INVALID_CONFIGS))])
    def test_invalid_fft_config_is_an_invalid_params_envelope(self, state,
                                                              workload,
                                                              config):
        base = {"fft": WORKLOAD["config"], "jpeg": {"size": 32}}[workload]
        envelope = dispatch(state, "evaluate", {
            "workload": workload, "config": dict(base, **config),
            "adder": "ADD(16)", "energy": False})
        assert envelope["code"] == ERROR_INVALID_PARAMS
        assert next(iter(config)) in envelope["message"]

    def test_store_backed_state_reports_and_hits(self, tmp_path):
        state = ServerState(store=str(tmp_path / "store"))
        cold = dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        assert cold["result"]["cached"] is False
        warm = dispatch(state, "evaluate", dict(WORKLOAD, adder="ADD(16)"))
        assert warm["result"]["cached"] is True
        assert warm["result"]["row"] == cold["result"]["row"]
        status = dispatch(state, "status", {})["result"]
        assert status["store"]["records"] > 0
        assert status["store"]["hits"] > 0

    def test_worker_count_is_validated(self):
        with pytest.raises(ValueError):
            ServerState(workers=0)


# --------------------------------------------------------------------------- #
# End to end over HTTP
# --------------------------------------------------------------------------- #
class TestEvalServer:
    def test_http_round_trip_and_error_statuses(self):
        with EvalServer() as server:
            envelope = query(server.url, "status")
            assert envelope["status"] == "ok"

            # Malformed JSON body -> 400 bad_request envelope.
            request = urllib.request.Request(
                server.url + "/", data=b"{nope", method="POST")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 400
            body = json.loads(caught.value.read())
            assert body["code"] == ERROR_BAD_REQUEST

            # Unknown action -> 404 (and the client surfaces the envelope).
            envelope = query(server.url, "frobnicate")
            assert envelope["code"] == ERROR_UNKNOWN_ACTION

            # GET /status and /health answer without a request document.
            for path in ("/status", "/health"):
                with urllib.request.urlopen(server.url + path,
                                            timeout=10) as response:
                    assert response.status == 200
                    document = json.loads(response.read())
                assert document["status"] == "ok"
                assert document["action"] == "status"

            # Non-finite numbers are refused at the boundary, before any
            # handler sees them.
            for number in (b"NaN", b"Infinity", b"-Infinity", b"1e400"):
                request = urllib.request.Request(
                    server.url + "/", method="POST",
                    data=b'{"action": "evaluate", "params": {"workload": '
                         b'"fft", "adder": "ADD(16)", "config": '
                         b'{"amplitude": ' + number + b'}}}')
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request, timeout=10)
                assert caught.value.code == 400, number
                assert json.loads(caught.value.read())["code"] == \
                    ERROR_BAD_REQUEST

            # Any other endpoint is a 400 with an envelope, not a stack dump.
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(server.url + "/nope", timeout=10)
            assert caught.value.code == 400
            assert json.loads(caught.value.read())["code"] == \
                ERROR_BAD_REQUEST

    def test_concurrent_evaluates_are_bit_identical_to_direct_runs(
            self, tmp_path):
        operators = ["ADD(16)", "ACA(16,8)", "ACA(16,4)", "ETAII(16,4)",
                     "ETAIV(16,4)", "ADDt(16,12)"]
        direct = (Study().workload("fft", size=16, frames=2)
                  .adders(operators).seed(0).backend("lut").run())
        expected = {operator: wire(row)
                    for operator, row in zip(operators, direct.rows)}

        with EvalServer(store=str(tmp_path / "store"),
                        workers=2) as server:
            envelopes = {}

            def hit(operator):
                envelopes[operator] = query(
                    server.url, "evaluate",
                    dict(WORKLOAD, adder=operator, energy=False))

            threads = [threading.Thread(target=hit, args=(operator,))
                       for operator in operators]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for operator in operators:
                envelope = envelopes[operator]
                assert envelope["status"] == "ok", envelope
                assert envelope["result"]["row"] == expected[operator], \
                    operator
            batching = query(server.url, "status")["result"]["batching"]
            assert batching["requests"] == len(operators)

    def test_concurrent_identical_cold_evaluates_share_one_record(
            self, tmp_path):
        params = dict(WORKLOAD, adder="ETAII(16,4)", energy=False)
        direct = (Study().workload("fft", size=16, frames=2)
                  .adders(["ETAII(16,4)"]).seed(0).backend("lut").run())
        store = tmp_path / "store"
        with EvalServer(store=str(store)) as server:
            barrier = threading.Barrier(6)
            envelopes = []

            def hit():
                barrier.wait(timeout=30)
                envelopes.append(query(server.url, "evaluate", params,
                                       timeout=60))

            threads = [threading.Thread(target=hit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
                assert not thread.is_alive()

            assert len(envelopes) == 6
            for envelope in envelopes:
                assert envelope["status"] == "ok", envelope
                assert envelope["result"]["row"] == wire(direct.rows[0])
            assert server.state.store.entry_count("sweep") == 1
        report = ResultStore(store).scrub(quarantine=False)
        assert report["scanned"] >= 1
        assert report["corrupt"] == 0

    def test_second_identical_query_is_a_warm_store_hit(self, tmp_path):
        with EvalServer(store=str(tmp_path / "store")) as server:
            params = dict(WORKLOAD, adder="ADD(16)")
            cold = query(server.url, "evaluate", params)
            assert cold["result"]["cached"] is False
            warm = query(server.url, "evaluate", params)
            assert warm["result"]["cached"] is True
            assert warm["result"]["row"] == cold["result"]["row"]
            store = query(server.url, "status")["result"]["store"]
            assert store["hits"] >= 1
            assert store["records"] >= 1

    def test_state_options_and_explicit_state_are_exclusive(self):
        with pytest.raises(ValueError):
            EvalServer(state=ServerState(), workers=2)

    def test_port_zero_binds_an_ephemeral_port(self):
        with EvalServer() as server:
            assert server.port > 0
            assert str(server.port) in server.url


# --------------------------------------------------------------------------- #
# Load shedding and graceful drain
# --------------------------------------------------------------------------- #
class TestLoadSheddingAndDrain:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ServerState(deadline_s=0)

    def test_worker_slot_sheds_when_no_slot_frees_in_time(self):
        from repro.server.protocol import ERROR_OVERLOADED

        state = ServerState(workers=1, deadline_s=0.05)
        assert state._slots.acquire(timeout=1)  # hog the only slot
        try:
            with pytest.raises(ProtocolError) as caught:
                with state.worker_slot():
                    pass  # pragma: no cover - never admitted
            assert caught.value.code == ERROR_OVERLOADED
            envelope = caught.value.envelope()
            assert envelope["retry_after_s"] > 0
            assert state.snapshot()["shed"] == 1
        finally:
            state._slots.release()
        # With the slot free the same state admits work again.
        with state.worker_slot():
            pass
        assert state.snapshot()["shed"] == 1

    def test_http_503_retry_after_and_client_fallback(self, tmp_path):
        from repro.server.protocol import ERROR_OVERLOADED

        with EvalServer(workers=1, deadline_s=0.05) as server:
            assert server.state._slots.acquire(timeout=1)
            try:
                params = dict(WORKLOAD, adder="ADD(16)", energy=False)
                body = json.dumps({"action": "evaluate",
                                   "params": params}).encode()
                request = urllib.request.Request(
                    server.url + "/", data=body, method="POST")
                with pytest.raises(urllib.error.HTTPError) as caught:
                    urllib.request.urlopen(request, timeout=10)
                assert caught.value.code == 503
                assert int(caught.value.headers["Retry-After"]) >= 1
                document = json.loads(caught.value.read())
                assert document["code"] == ERROR_OVERLOADED

                # The client retries, honours the floor until the retry
                # deadline refuses it, then returns the envelope as the
                # answer instead of raising.
                envelope = query(server.url, "evaluate", params,
                                 retries=1, retry_base_delay=0.01,
                                 retry_deadline_s=0.3)
                assert envelope["status"] == "error"
                assert envelope["code"] == ERROR_OVERLOADED

                # `status` does not need a compute slot: it still answers
                # (that is what makes shedding observable).
                status = query(server.url, "status")["result"]
                assert status["shed"] >= 2
            finally:
                server.state._slots.release()

            # Slot free again: the same request is served.
            envelope = query(server.url, "evaluate", params,
                             retries=2, retry_base_delay=0.05)
            assert envelope["status"] == "ok"

    def test_drain_finishes_in_flight_and_refuses_new(self):
        from repro.server import ServerUnavailable

        server = EvalServer().start()
        url = server.url
        assert query(url, "status")["status"] == "ok"
        remaining = server.drain(grace_s=5.0)
        assert remaining == 0
        with pytest.raises(ServerUnavailable):
            query(url, "status", retries=0, timeout=2)
        server.stop()  # idempotent after a drain

    def test_drain_waits_for_a_slow_request(self):
        import time as time_module

        done = {}
        state = ServerState()
        server = EvalServer(state=state).start()

        def slow_query():
            # A genuinely slow request: a cold evaluate pays LUT
            # construction, holding the request in flight while the
            # drain below runs.
            done["envelope"] = query(
                server.url, "evaluate",
                dict(WORKLOAD, adder="ACA(16,4)", energy=False),
                timeout=60)

        worker = threading.Thread(target=slow_query)
        worker.start()
        waited = 0.0
        while not state.snapshot()["in_flight"] and waited < 5.0:
            time_module.sleep(0.005)
            waited += 0.005
        remaining = server.drain(grace_s=30.0)
        worker.join(timeout=30)
        assert remaining == 0
        assert done["envelope"]["status"] == "ok"
