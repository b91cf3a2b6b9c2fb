"""End-to-end service tests over real TCP sockets.

Covers the service's acceptance criteria: (a) N parallel ``predict``
requests for one platform trigger exactly one calibration, (b) served
scalar queries return bit-identical results to direct
``PlacementModel.predict``, and (c) ``/metrics`` reports consistent
request/hit/kernel counters — plus timeouts, load shedding, error
envelopes and graceful shutdown.
"""

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench import SweepConfig
from repro.errors import ServiceError
from repro.evaluation import run_platform_experiment
from repro.service.client import ServiceResponseError
from repro.service.registry import ModelEntry, ModelKey, ModelRegistry

from tests.service.test_registry import CountingCalibrator

PLATFORM = "occigen"


def raw_exchange(port: int, wire: bytes) -> tuple[bytes, bytes]:
    """Send raw request bytes; read until the server hangs up.

    Returns ``(status line, body)``.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(wire)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0], body


def keep_alive_healthz(port: int) -> http.client.HTTPConnection:
    """A connection that has finished one keep-alive exchange and idles."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", "/healthz", headers={"Connection": "keep-alive"})
    response = conn.getresponse()
    response.read()
    assert response.status == 200
    assert response.getheader("Connection") == "keep-alive"
    return conn


class TestRoundTrip:
    def test_healthz(self, server):
        health = server.client().healthz()
        assert health["status"] == "ok"
        assert health["models_cached"] == 0

    def test_calibrate_then_predict_matches_library(self, server):
        client = server.client()
        calibration = client.calibrate(PLATFORM)
        assert calibration["cached"] is False
        assert client.calibrate(PLATFORM)["cached"] is True

        result = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
        assert calibration["local"] == result.model.local.to_dict()
        assert calibration["remote"] == result.model.remote.to_dict()

        served = client.predict(PLATFORM, n=8, m_comp=0, m_comm=1)
        assert served["comp_parallel"] == result.model.comp_parallel(8, 0, 1)
        assert served["comm_parallel"] == result.model.comm_parallel(8, 0, 1)

    def test_predict_grid(self, server):
        client = server.client()
        grid = client.predict_grid(
            PLATFORM, [1, 2, 4], placements=[(0, 0), (0, 1)]
        )
        result = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
        reference = result.model.predict_grid([1, 2, 4], [(0, 0), (0, 1)])
        by_key = {(g["m_comp"], g["m_comm"]): g for g in grid["grid"]}
        assert set(by_key) == set(reference)
        for key, pred in reference.items():
            assert by_key[key]["comp_parallel"] == pred.comp_parallel.tolist()
            assert by_key[key]["comm_parallel"] == pred.comm_parallel.tolist()

    def test_advise(self, server):
        recs = server.client().advise(
            PLATFORM, comp_bytes=1e9, comm_bytes=1e8, top=3
        )["recommendations"]
        assert len(recs) == 3
        assert recs[0]["makespan_s"] <= recs[-1]["makespan_s"]

    def test_advise_victim_matches_library(self, server):
        """Victim mode runs on the simulator: no calibration required."""
        from repro.advisor import advise_victim_placement
        from repro.topology import get_platform

        result = server.client().advise(PLATFORM, victim=True, top=2)
        assert result["victim"] is True
        placements = result["placements"]
        assert len(placements) == 2
        assert (
            placements[0]["degradation"] <= placements[1]["degradation"]
        )
        spec = get_platform(PLATFORM)
        expected = advise_victim_placement(spec.machine, spec.profile, top=2)
        assert placements[0]["m_comm"] == expected[0].m_comm
        assert placements[0]["worst_gbps"] == expected[0].worst_gbps
        assert placements[0]["worst_stressor"] == expected[0].worst_stressor
        # And no calibration was paid for it.
        assert server.client().healthz()["models_cached"] == 0

    def test_advise_victim_rejects_workload_fields(self, server):
        client = server.client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request(
                "POST",
                "/advise",
                {"platform": PLATFORM, "victim": True, "comp_bytes": 1.0},
            )
        assert excinfo.value.status == 400
        assert "comp_bytes" in excinfo.value.remote_message

    def test_advise_without_bytes_fails_before_the_wire(self, server):
        with pytest.raises(ServiceError, match="comp_bytes"):
            server.client().advise(PLATFORM)

    def test_error_envelope(self, server):
        client = server.client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client.predict(PLATFORM, n=8, m_comp=42, m_comm=0)
        assert excinfo.value.status == 422
        assert excinfo.value.error_type == "PlacementError"

        with pytest.raises(ServiceResponseError) as excinfo:
            client.calibrate("not-a-platform")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "TopologyError"

    def test_unknown_endpoint_and_method(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
        conn.close()

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/predict")
        response = conn.getresponse()
        assert response.status == 405
        conn.close()

    def test_invalid_json_body(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request(
            "POST", "/predict", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["error"]["type"] == "ServiceError"
        conn.close()


class TestAcceptance:
    def test_concurrent_predicts_single_calibration_and_metrics(
        self, server_factory
    ):
        """Acceptance (a) + (b) + (c) in one concurrent client scenario."""
        calibrator = CountingCalibrator(delay_s=0.05)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry)
        client = server.client()
        n_clients = 12
        queries = [(n % 7 + 1, 0, n % 2) for n in range(n_clients)]

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            results = list(
                pool.map(
                    lambda q: client.predict(
                        "henri", n=q[0], m_comp=q[1], m_comm=q[2]
                    ),
                    queries,
                )
            )

        # (a) single-flight: one calibration despite 12 parallel firsts.
        assert calibrator.calls == 1

        # (b) served answers are bit-identical to the direct model.
        model = registry._entries[ModelKey("henri", 0)].model
        for (n, mc, mm), served in zip(queries, results):
            assert served["comp_parallel"] == model.comp_parallel(n, mc, mm)
            assert served["comm_parallel"] == model.comm_parallel(n, mc, mm)
            assert served["comp_alone"] == model.comp_alone(n, mc)

        # (c) /metrics is consistent with what we just did.
        metrics = client.metrics()
        predict_requests = [
            row
            for row in metrics["requests"]["by_endpoint"]
            if row["endpoint"] == "predict"
        ]
        assert sum(r["count"] for r in predict_requests) == n_clients
        assert all(r["status"] == 200 for r in predict_requests)
        registry_stats = metrics["registry"]
        assert registry_stats["calibrations"] == 1
        assert registry_stats["misses"] == 1
        # Every other first request either joined the in-flight
        # calibration or hit the cache afterwards.
        assert (
            registry_stats["hits"] + registry_stats["waits"]
            == n_clients - 1
        )
        assert metrics["compiled"]["table_queries"] == n_clients
        latency = metrics["latency"]["predict"]
        assert latency["count"] == n_clients

    def test_bad_query_fails_alone(self, server):
        """Concurrent scalar requests are answered independently: an
        out-of-range query fails without touching its neighbours."""
        client = server.client()

        def ask(query):
            n, m_comp, m_comm = query
            try:
                return client.predict(
                    PLATFORM, n=n, m_comp=m_comp, m_comm=m_comm
                )
            except ServiceResponseError as exc:
                return exc

        with ThreadPoolExecutor(max_workers=3) as pool:
            good, bad, also_good = pool.map(
                ask, [(4, 0, 0), (4, 0, 99), (8, 1, 1)]
            )
        model = run_platform_experiment(
            PLATFORM, config=SweepConfig(seed=0)
        ).model
        assert good["comp_parallel"] == model.comp_parallel(4, 0, 0)
        assert isinstance(bad, ServiceResponseError)
        assert bad.status == 422
        assert "out of range" in bad.remote_message
        assert also_good["comp_parallel"] == model.comp_parallel(8, 1, 1)

    def test_batched_bulk_equals_direct_model(self, server):
        client = server.client()
        queries = [(n, mc, mm) for n in (1, 5, 9) for mc in (0, 1)
                   for mm in (0, 1)]
        served = client.predict_many(PLATFORM, queries)
        result = run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))
        for (n, mc, mm), row in zip(queries, served):
            assert row["comp_parallel"] == result.model.comp_parallel(n, mc, mm)
            assert row["comm_parallel"] == result.model.comm_parallel(n, mc, mm)


class TestOperational:
    def test_request_timeout_maps_to_504(self, server_factory):
        calibrator = CountingCalibrator(delay_s=2.0)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry, request_timeout_s=0.2)
        with pytest.raises(ServiceResponseError) as excinfo:
            server.client().calibrate("henri")
        assert excinfo.value.status == 504
        metrics = server.client().metrics()
        assert metrics["requests"]["timeouts"] == 1

    def test_concurrency_limit_sheds_load(self, server_factory):
        calibrator = CountingCalibrator(delay_s=0.8)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry, max_concurrency=1)
        client = server.client()

        statuses = []

        def slow_calibrate():
            try:
                client.calibrate("henri")
                statuses.append(200)
            except ServiceResponseError as exc:
                statuses.append(exc.status)

        first = threading.Thread(target=slow_calibrate)
        first.start()
        time.sleep(0.3)  # let the slow request occupy the only slot
        with pytest.raises(ServiceResponseError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        first.join(10)
        assert statuses == [200]
        metrics = server.client().metrics()
        assert metrics["requests"]["rejected"] == 1

    def test_graceful_shutdown_drains_in_flight(self, server_factory):
        calibrator = CountingCalibrator(delay_s=0.6)
        registry = ModelRegistry(calibrator=calibrator)
        server = server_factory(registry=registry)
        client = server.client()

        outcome = {}

        def slow_request():
            try:
                outcome["result"] = client.calibrate("henri")
            except ServiceError as exc:  # pragma: no cover - failure path
                outcome["error"] = exc

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.2)  # request is now in flight
        server.stop()  # graceful: must drain, not sever
        worker.join(10)
        assert "error" not in outcome
        assert outcome["result"]["platform"] == "henri"

        # The socket is actually closed afterwards.
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_shutdown_closes_idle_keep_alive_at_once(self, server_factory):
        server = server_factory()
        conn = keep_alive_healthz(server.port)
        try:
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
            assert conn.sock.recv(1) == b""  # the server hung up
        finally:
            conn.close()
        assert elapsed < 1.0

    def test_shutdown_finishes_in_flight_keep_alive_exchange(
        self, server_factory
    ):
        calibrator = CountingCalibrator(delay_s=0.6)
        server = server_factory(registry=ModelRegistry(calibrator=calibrator))
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        outcome = {}

        def slow_request():
            conn.request(
                "POST",
                "/calibrate",
                body=json.dumps({"platform": "henri"}).encode(),
                headers={"Connection": "keep-alive"},
            )
            response = conn.getresponse()
            outcome["status"] = response.status
            outcome["connection"] = response.getheader("Connection")
            outcome["body"] = json.loads(response.read())

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.2)  # request is now in flight
        server.stop()
        worker.join(10)
        conn.close()
        assert outcome["status"] == 200
        assert outcome["body"]["platform"] == "henri"
        # Answered, then hung up: no further exchange on a closing server.
        assert outcome["connection"] == "close"

    def test_negative_content_length_is_a_400(self, server):
        status, body = raw_exchange(
            server.port,
            b"POST /predict HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -1\r\n\r\n",
        )
        assert status.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert error["status"] == 400
        assert error["message"] == "invalid Content-Length"

    def test_cli_query_roundtrip(self, server, capsys):
        """`python -m repro query ...` drives a live server end to end."""
        from repro.cli import main

        remote = ["--port", str(server.port)]
        assert main(["query", "healthz"] + remote) == 0
        assert '"status": "ok"' in capsys.readouterr().out

        assert main(["query", "calibrate", PLATFORM] + remote) == 0
        assert '"b_comm_seq"' in capsys.readouterr().out

        assert main(
            ["query", "predict", PLATFORM, "-n", "8", "--comp", "0",
             "--comm", "1"] + remote
        ) == 0
        assert "predicted computation bandwidth" in capsys.readouterr().out

        assert main(
            ["query", "advise", PLATFORM, "--comp-bytes", "1e9",
             "--comm-bytes", "1e8", "--top", "2"] + remote
        ) == 0
        assert "Top 2 configurations" in capsys.readouterr().out

        assert main(
            ["query", "advise", PLATFORM, "--victim", "--top", "1"] + remote
        ) == 0
        out = capsys.readouterr().out
        assert f"Victim placements for {PLATFORM}" in out
        assert "worst case" in out

        assert main(
            ["query", "advise", PLATFORM, "--victim", "--comp-bytes", "1"]
            + remote
        ) == 11  # rejected client-side as a ServiceError
        assert "do not apply" in capsys.readouterr().err

        assert main(["query", "metrics"] + remote) == 0
        assert '"registry"' in capsys.readouterr().out

    def test_cli_query_error_exit_code(self, server, capsys):
        from repro.cli import main

        code = main(
            ["query", "predict", PLATFORM, "-n", "8", "--comp", "42",
             "--comm", "0", "--port", str(server.port)]
        )
        assert code == 11  # ServiceResponseError is a ServiceError
        assert "PlacementError" in capsys.readouterr().err
