"""Fixtures for the cluster tests.

The router is exercised over real TCP against *stub* workers — tiny
threaded HTTP servers that answer canned JSON and record what they saw
— so routing, failover, and scraping are tested without paying for
real calibrations or subprocess spawns.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cluster.router import ClusterRouter
from repro.cluster.shardmap import ShardMap
from repro.cluster.supervisor import WorkerStatus
from repro.service.client import ServiceClient


class StubWorker:
    """A worker-shaped HTTP server: echoes its name, records requests."""

    def __init__(self, worker_id: str) -> None:
        self.worker_id = worker_id
        self.requests: list[tuple[str, str, dict | None]] = []
        #: Per-path canned (status, payload) overrides.
        self.responses: dict[str, tuple[int, dict]] = {}
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def _answer(self, method: str) -> None:
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length) if length else b""
                body = json.loads(raw) if raw else None
                stub.requests.append((method, self.path, body))
                status, payload = stub.responses.get(
                    self.path,
                    (200, {"worker": stub.worker_id, "echo": body}),
                )
                data = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self) -> None:
                self._answer("GET")

            def do_POST(self) -> None:
                self._answer("POST")

            def log_message(self, *args) -> None:
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.server.server_address[1]
        # A short poll keeps ``shutdown`` (and so every router test's
        # teardown) from waiting out the default 0.5 s select timeout.
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(5)


class FakeHandle:
    def __init__(self, worker_id: str, port: int) -> None:
        self.worker_id = worker_id
        self.host = "127.0.0.1"
        self.port = port


class FakeSupervisor:
    """Duck-typed supervisor over stub workers (no subprocesses)."""

    def __init__(self, workers: dict[str, StubWorker], replication: int = 2):
        self.shardmap = ShardMap(list(workers), replication=replication)
        self._handles = {
            wid: FakeHandle(wid, stub.port) for wid, stub in workers.items()
        }
        #: Workers the liveness poll reports as dead.
        self.down: set[str] = set()
        self.respawned: list[str] = []

    def handle(self, worker_id: str) -> FakeHandle:
        return self._handles[worker_id]

    def alive_workers(self) -> set[str]:
        return set(self._handles) - self.down

    def poll(self) -> dict[str, bool]:
        return {wid: wid not in self.down for wid in self._handles}

    def respawn(self, worker_id: str) -> bool:
        self.respawned.append(worker_id)
        self.down.discard(worker_id)
        return True

    def statuses(self) -> list[WorkerStatus]:
        return [
            WorkerStatus(
                worker_id=wid,
                host=handle.host,
                port=handle.port,
                pid=1000,
                alive=wid not in self.down,
                restarts=0,
                retired=False,
            )
            for wid, handle in sorted(self._handles.items())
        ]


class RouterThread:
    """A ClusterRouter on its own event-loop thread, like deployment."""

    def __init__(self, supervisor, **kwargs) -> None:
        self._supervisor = supervisor
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.router: ClusterRouter | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "RouterThread":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("router did not start within 10s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        router = ClusterRouter(self._supervisor, port=0, **self._kwargs)
        await router.start()
        self.router = router
        self.loop = asyncio.get_running_loop()
        self.port = router.port
        self._ready.set()
        await router.run_until_shutdown()
        await router.shutdown()

    def stop(self, timeout: float = 10.0) -> None:
        if self.loop is None or not self._thread.is_alive():
            return
        self.loop.call_soon_threadsafe(self.router.request_shutdown)
        self._thread.join(timeout)

    def client(self, **kwargs) -> ServiceClient:
        assert self.port is not None
        return ServiceClient("127.0.0.1", self.port, **kwargs)


@pytest.fixture
def stub_fleet():
    """Three stub workers plus a FakeSupervisor; stopped at teardown."""
    workers = {wid: StubWorker(wid) for wid in ("w0", "w1", "w2")}
    yield FakeSupervisor(workers, replication=2), workers
    for stub in workers.values():
        stub.stop()


@pytest.fixture
def router_factory(stub_fleet):
    """Start routers over the stub fleet; all stopped at teardown."""
    supervisor, workers = stub_fleet
    started: list[RouterThread] = []

    def start(**kwargs) -> RouterThread:
        # Health loop off by default: tests drive it explicitly.
        kwargs.setdefault("health_interval_s", 0)
        thread = RouterThread(supervisor, **kwargs).__enter__()
        started.append(thread)
        return thread

    yield start
    for thread in started:
        thread.stop()
