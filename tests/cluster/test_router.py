"""ClusterRouter: shard routing, replica failover, fleet introspection."""

import json
import time

import pytest

from repro.cluster.shardmap import ShardMap
from repro.service.client import ServiceResponseError

from tests.service.test_server import keep_alive_healthz, raw_exchange


class TestRouting:
    def test_requests_reach_the_primary_owner(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        thread = router_factory()
        client = thread.client()
        for seed in range(8):
            result = client.predict(
                "occigen", n=4, m_comp=0, m_comm=0, seed=seed
            )
            assert result["worker"] == supervisor.shardmap.primary(
                "occigen", seed
            )

    def test_worker_response_is_relayed_verbatim(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        thread = router_factory()
        client = thread.client()
        result = client.predict("occigen", n=4, m_comp=0, m_comm=1, seed=3)
        assert result["echo"]["n"] == 4
        assert result["echo"]["platform"] == "occigen"

    def test_worker_error_envelope_passes_through(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        primary = supervisor.shardmap.primary("occigen", 0)
        workers[primary].responses["/predict"] = (
            422,
            {
                "error": {
                    "type": "PlacementError",
                    "message": "bad placement",
                    "status": 422,
                }
            },
        )
        client = router_factory().client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        # An HTTP-level worker error is an answer: no failover happened.
        assert excinfo.value.status == 422
        assert excinfo.value.error_type == "PlacementError"

    def test_missing_platform_rejected_at_the_router(
        self, stub_fleet, router_factory
    ):
        client = router_factory().client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request("POST", "/predict", {"n": 4})
        assert excinfo.value.status == 400

    def test_unknown_path_and_bad_method(self, stub_fleet, router_factory):
        client = router_factory().client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceResponseError) as excinfo:
            client._request("POST", "/healthz", {})
        assert excinfo.value.status == 405


class TestFraming:
    def test_negative_content_length_is_a_400(self, router_factory):
        status, body = raw_exchange(
            router_factory().port,
            b"POST /predict HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -1\r\n\r\n",
        )
        assert status.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"]["message"] == "invalid Content-Length"

    def test_shutdown_closes_idle_keep_alive_at_once(self, router_factory):
        thread = router_factory()
        conn = keep_alive_healthz(thread.port)
        try:
            started = time.monotonic()
            thread.stop()
            elapsed = time.monotonic() - started
            assert conn.sock.recv(1) == b""  # the router hung up
        finally:
            conn.close()
        assert elapsed < 1.0


class TestFailover:
    def test_dead_primary_fails_over_to_replica(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        owners = supervisor.shardmap.owners("occigen", 0)
        workers[owners[0]].stop()
        thread = router_factory()
        client = thread.client()
        result = client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        assert result["worker"] == owners[1]
        assert thread.router.metrics.failovers_total >= 1

    def test_all_replicas_dead_yields_503(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        owners = supervisor.shardmap.owners("occigen", 0)
        for worker_id in owners:
            workers[worker_id].stop()
        thread = router_factory()
        client = thread.client()
        with pytest.raises(ServiceResponseError) as excinfo:
            client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "ClusterError"
        assert thread.router.metrics.unroutable_total == 1

    def test_known_dead_worker_is_tried_last(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        owners = supervisor.shardmap.owners("occigen", 0)
        supervisor.down.add(owners[0])  # poll says dead; routing reorders
        client = router_factory().client()
        result = client.predict("occigen", n=4, m_comp=0, m_comm=0, seed=0)
        assert result["worker"] == owners[1]
        # The reordered walk never touched the dead primary.
        assert all(
            path != "/predict"
            for _, path, _ in workers[owners[0]].requests
        )


class TestHealthLoop:
    def test_dead_worker_is_respawned(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        thread = router_factory(health_interval_s=0.05)
        supervisor.down.add("w1")
        deadline = time.monotonic() + 5
        # respawn() runs on an executor thread; the router counts the
        # restart only once the loop resumes, so wait for both.
        while (
            "w1" not in supervisor.respawned
            or thread.router.metrics.worker_restarts < 1
        ):
            assert time.monotonic() < deadline, "health loop never respawned"
            time.sleep(0.02)
        assert thread.router.metrics.worker_restarts >= 1


class TestIntrospection:
    def test_healthz_summarizes_the_fleet(self, stub_fleet, router_factory):
        supervisor, workers = stub_fleet
        client = router_factory().client()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers_alive"] == 3
        assert {w["worker_id"] for w in health["workers"]} == {
            "w0",
            "w1",
            "w2",
        }
        supervisor.down.add("w2")
        assert client.healthz()["status"] == "degraded"

    def test_shards_table_rebuilds_identically(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        client = router_factory().client()
        table = client._request("GET", "/shards")
        rebuilt = ShardMap.from_spec(table["shardmap"])
        for seed in range(32):
            assert rebuilt.owners("henri", seed) == supervisor.shardmap.owners(
                "henri", seed
            )
        assert table["workers"]["w0"]["port"] == workers["w0"].port

    def test_metrics_scrapes_and_merges_workers(
        self, stub_fleet, router_factory
    ):
        supervisor, workers = stub_fleet
        for i, stub in enumerate(workers.values()):
            stub.responses["/metrics"] = (
                200,
                {
                    "tracing": {
                        "enabled": True,
                        "spans": 2,
                        "by_name": {
                            "service.request": {"count": 2, "total_ms": 1.5}
                        },
                        "counters": {"batch.coalesced": 1},
                    }
                },
            )
        client = router_factory().client()
        client.healthz()  # one observed request before the snapshot
        snapshot = client.metrics()
        assert set(snapshot["workers"]) == {"w0", "w1", "w2"}
        tracing = snapshot["tracing"]
        assert tracing["workers_enabled"] == 3
        assert tracing["by_name"]["service.request"]["count"] == 6
        assert tracing["counters"]["batch.coalesced"] == 3
        assert snapshot["router"]["requests"]["total"] >= 1
        # Pool health rides along in the router block.  The stub
        # workers are plain HTTP/1.0 closers, so nothing is reusable —
        # but every scrape went through the pool.
        pool = snapshot["router"]["connection_pool"]
        assert pool["opens"] >= 3
        assert set(pool) == {
            "idle", "opens", "reuses", "discards", "evictions",
            "stale_retries",
        }
