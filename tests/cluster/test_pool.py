"""The router's keep-alive worker pool and the HTTP/1.1 framing under it.

The pool is tested against the *real* service (the server loop it
reuses streams against) and against scripted asyncio servers for the
failure shapes a pool adds: a parked stream the worker closed (stale
retry), capacity eviction, and non-keep-alive peers.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster.pool import WorkerPool
from repro.service.http11 import HttpError, encode_response

from tests.service.conftest import ServerThread


def run(coro):
    return asyncio.run(coro)


class TestAgainstTheRealService:
    def test_streams_are_reused_across_requests(self):
        with ServerThread() as server:
            pool = WorkerPool()

            async def go():
                for _ in range(4):
                    status, raw = await pool.request(
                        "127.0.0.1", server.port, "GET", "/healthz"
                    )
                    assert status == 200
                    assert b'"status"' in raw
                await pool.aclose()

            run(go())
            assert pool.opens == 1
            assert pool.reuses == 3
            assert pool.idle_count() == 0

    def test_one_shot_clients_still_work(self):
        """The blocking client (Connection: close) is untouched by the
        server's keep-alive loop."""
        with ServerThread() as server:
            health = server.client().healthz()
            assert health["status"] == "ok"

    def test_pool_and_plain_clients_share_a_server(self):
        with ServerThread() as server:
            pool = WorkerPool()

            async def go():
                status, _ = await pool.request(
                    "127.0.0.1", server.port, "GET", "/healthz"
                )
                assert status == 200
                await pool.aclose()

            run(go())
            assert server.client().healthz()["status"] == "ok"


class _ScriptedServer:
    """An asyncio server answering canned responses, one per connection
    slot, closing each connection after ``exchanges_per_conn`` answers."""

    def __init__(self, *, keep_alive: bool, exchanges_per_conn: int = 10**9):
        self.keep_alive = keep_alive
        self.exchanges_per_conn = exchanges_per_conn
        self.connections = 0
        self.server: asyncio.AbstractServer | None = None

    async def start(self) -> int:
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self.server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        self.connections += 1
        try:
            for _ in range(self.exchanges_per_conn):
                line = await reader.readline()
                if not line:
                    return
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                writer.write(
                    encode_response(
                        200, b'{"ok": true}', keep_alive=self.keep_alive
                    )
                )
                await writer.drain()
        finally:
            writer.close()

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()


class TestFailureShapes:
    def test_stale_parked_stream_is_retried_on_a_fresh_connection(self):
        async def go():
            scripted = _ScriptedServer(keep_alive=True, exchanges_per_conn=1)
            port = await scripted.start()
            pool = WorkerPool()
            status, _ = await pool.request("127.0.0.1", port, "GET", "/x")
            assert status == 200
            assert pool.idle_count() == 1
            # The server closed after one exchange; the parked stream is
            # dead.  The next request must absorb that silently.
            status, _ = await pool.request("127.0.0.1", port, "GET", "/x")
            assert status == 200
            assert pool.stale_retries == 1
            assert scripted.connections == 2
            await pool.aclose()
            await scripted.stop()

        run(go())

    def test_non_keep_alive_server_is_never_pooled(self):
        async def go():
            scripted = _ScriptedServer(keep_alive=False, exchanges_per_conn=1)
            port = await scripted.start()
            pool = WorkerPool()
            for _ in range(3):
                status, _ = await pool.request("127.0.0.1", port, "GET", "/x")
                assert status == 200
            assert pool.idle_count() == 0
            assert pool.reuses == 0
            assert pool.opens == 3
            await pool.aclose()
            await scripted.stop()

        run(go())

    def test_dead_worker_raises_for_failover(self):
        async def go():
            scripted = _ScriptedServer(keep_alive=True)
            port = await scripted.start()
            await scripted.stop()
            pool = WorkerPool()
            with pytest.raises(OSError):
                await pool.request("127.0.0.1", port, "GET", "/x")
            await pool.aclose()

        run(go())

    def test_eviction_beyond_max_idle(self):
        async def go():
            scripted = _ScriptedServer(keep_alive=True)
            port = await scripted.start()
            pool = WorkerPool(max_idle_per_worker=1)
            # Two concurrent requests force two opens; only one stream
            # fits the idle stash when both finish.
            await asyncio.gather(
                pool.request("127.0.0.1", port, "GET", "/x"),
                pool.request("127.0.0.1", port, "GET", "/x"),
            )
            assert pool.opens == 2
            assert pool.idle_count() == 1
            assert pool.evictions == 1
            await pool.aclose()
            await scripted.stop()

        run(go())

    def test_negative_content_length_is_a_502(self):
        async def answer(reader, writer):
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n")
            await writer.drain()
            writer.close()

        async def go():
            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = WorkerPool()
            with pytest.raises(HttpError) as excinfo:
                await pool.request("127.0.0.1", port, "GET", "/x")
            assert excinfo.value.status == 502
            assert pool.idle_count() == 0
            await pool.aclose()
            server.close()
            await server.wait_closed()

        run(go())

    def test_snapshot_shape(self):
        pool = WorkerPool()
        snap = pool.snapshot()
        assert snap == {
            "idle": 0,
            "opens": 0,
            "reuses": 0,
            "discards": 0,
            "evictions": 0,
            "stale_retries": 0,
        }
