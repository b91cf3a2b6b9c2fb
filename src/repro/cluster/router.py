"""Router: the single front door of a worker fleet.

Clients speak the exact single-process service protocol
(``docs/SERVICE.md``) to one host:port; the router makes the fleet
behind it look like that one service:

* **sharded routing** — POST bodies carry ``platform`` (and optionally
  ``seed``); the shard map names the owning workers and the request is
  forwarded to the primary, so each model's cache traffic stays on the
  workers that preloaded it;
* **replica failover** — a connection-level failure (refused, reset,
  timed out) walks the remaining replicas in owner order before giving
  up; only when *every* replica is unreachable does the client see a
  503 envelope.  HTTP-level worker errors (4xx/5xx with a body) are
  relayed verbatim — they are answers, not outages;
* **self-healing** — a background health loop polls worker process
  liveness, respawns the dead (warm, from the shared artifact store)
  and retires crash-loopers, rebalancing the shard map;
* **keep-alive forwarding** — worker connections come from a
  :class:`~repro.cluster.pool.WorkerPool` of keep-alive streams, so a
  forward costs one exchange, not one TCP handshake; pool health
  (opens/reuses/discards/evictions/stale retries) is part of the
  ``/metrics`` router block.

Fleet-wide introspection: ``GET /healthz`` (worker states, shard-map
version), ``GET /shards`` (the routing table a shard-aware client
rebuilds), ``GET /metrics`` (router counters plus a scrape-and-merge of
every live worker's metrics and tracing snapshot).
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

from repro.cluster.pool import WorkerPool
from repro.errors import ClusterError, ServiceError
from repro.obs import merge_tracing_snapshots
from repro.service import protocol
from repro.service.http11 import HttpError, HttpServer

__all__ = ["ClusterRouter", "RouterMetrics"]

log = logging.getLogger("repro.cluster")

#: POST endpoints forwarded to shard owners; everything else is local.
FORWARDED_ENDPOINTS = ("/calibrate", "/predict", "/predict_grid", "/advise")


class RouterMetrics:
    """Counters of the routing tier itself (workers keep their own)."""

    def __init__(self, pool: WorkerPool | None = None) -> None:
        #: The router's worker connection pool, surfaced in snapshots.
        self.pool = pool
        #: (endpoint, status) -> count, as answered to the client.
        self.requests_total: dict[tuple[str, int], int] = {}
        #: worker_id -> requests forwarded to it (including failed tries).
        self.forwards: dict[str, int] = {}
        self.failovers_total = 0
        #: Requests for which every replica was unreachable.
        self.unroutable_total = 0
        self.worker_restarts = 0
        self.workers_retired = 0
        self.health_checks = 0

    def observe(self, endpoint: str, status: int) -> None:
        key = (endpoint, status)
        self.requests_total[key] = self.requests_total.get(key, 0) + 1

    def snapshot(self) -> dict:
        return {
            "connection_pool": (
                self.pool.snapshot() if self.pool is not None else None
            ),
            "requests": {
                "total": sum(self.requests_total.values()),
                "by_endpoint": [
                    {"endpoint": endpoint, "status": status, "count": count}
                    for (endpoint, status), count in sorted(
                        self.requests_total.items()
                    )
                ],
            },
            "forwards": dict(sorted(self.forwards.items())),
            "failovers": self.failovers_total,
            "unroutable": self.unroutable_total,
            "health": {
                "checks": self.health_checks,
                "worker_restarts": self.worker_restarts,
                "workers_retired": self.workers_retired,
            },
        }


class ClusterRouter:
    """Async HTTP front end over a :class:`~repro.cluster.Supervisor`."""

    def __init__(
        self,
        supervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        forward_timeout_s: float = 60.0,
        health_interval_s: float = 0.25,
    ) -> None:
        self.supervisor = supervisor
        self._pool = WorkerPool()
        self.metrics = RouterMetrics(pool=self._pool)
        self._host = host
        self._port = port
        self._forward_timeout_s = forward_timeout_s
        self._health_interval_s = health_interval_s
        self._http = HttpServer(self._handle)
        self._health_task: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()

    # ---- lifecycle -------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        port = self._http.port
        if port is None:
            raise ClusterError("router is not started")
        return port

    async def start(self) -> None:
        self._started_at = time.monotonic()
        await self._http.start(self._host, self._port)
        if self._health_interval_s > 0:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )
        log.info(
            "router listening on %s:%d over %d workers",
            self._host,
            self.port,
            len(self.supervisor.shardmap),
        )

    async def run_until_shutdown(self) -> None:
        if self._http.port is None:
            await self.start()
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def shutdown(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await self._http.close(drain_timeout_s=10.0)
        await self._pool.aclose()
        self._shutdown.set()

    # ---- health loop -----------------------------------------------------------

    async def _health_loop(self) -> None:
        """Respawn dead workers; retire ones that burn their restart budget."""
        while True:
            await asyncio.sleep(self._health_interval_s)
            self.metrics.health_checks += 1
            for worker_id, alive in self.supervisor.poll().items():
                if alive:
                    continue
                log.warning("worker %s is down; respawning", worker_id)
                # Subprocess spawn blocks for ~ms; run it off-loop so
                # in-flight proxying never stalls behind a restart.
                revived = await asyncio.get_running_loop().run_in_executor(
                    None, self.supervisor.respawn, worker_id
                )
                if revived:
                    self.metrics.worker_restarts += 1
                else:
                    self.metrics.workers_retired += 1

    # ---- request dispatch ------------------------------------------------------

    async def _handle(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, "dict | bytes"]:
        status, payload = await self._dispatch(method, path, body)
        self.metrics.observe(path.lstrip("/") or "_root", status)
        return status, payload

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, "dict | bytes"]:
        if method == "GET" and path == "/healthz":
            return 200, self._healthz()
        if method == "GET" and path == "/shards":
            return 200, self._shards()
        if method == "GET" and path == "/metrics":
            return 200, await self._cluster_metrics()
        if method == "POST" and path in FORWARDED_ENDPOINTS:
            return await self._forward(path, body)
        if path in FORWARDED_ENDPOINTS or path in (
            "/healthz",
            "/shards",
            "/metrics",
        ):
            exc = ServiceError(f"method {method} not allowed on {path}")
            return 405, protocol.error_payload(exc, status=405)
        exc = ServiceError(f"unknown endpoint {path}")
        return 404, protocol.error_payload(exc, status=404)

    # ---- local endpoints -------------------------------------------------------

    def _healthz(self) -> dict:
        from repro import __version__

        statuses = [s.as_dict() for s in self.supervisor.statuses()]
        alive = sum(1 for s in statuses if s["alive"])
        active = sum(1 for s in statuses if not s["retired"])
        return {
            "status": "ok" if alive == active and active > 0 else "degraded",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_at,
            "workers": statuses,
            "workers_alive": alive,
            "shard_version": self.supervisor.shardmap.version,
        }

    def _shards(self) -> dict:
        """The routing table: shard-map spec plus worker addresses."""
        return {
            "shardmap": self.supervisor.shardmap.spec(),
            "workers": {
                s.worker_id: s.as_dict() for s in self.supervisor.statuses()
            },
        }

    async def _cluster_metrics(self) -> dict:
        """Router counters plus a concurrent scrape of every live worker."""

        async def scrape(worker_id: str) -> "tuple[str, dict | None]":
            handle = self.supervisor.handle(worker_id)
            try:
                status, raw = await self._pool.request(
                    handle.host, handle.port, "GET", "/metrics", timeout=5.0
                )
                if status != 200:
                    return worker_id, None
                return worker_id, json.loads(raw.decode("utf-8"))
            except (HttpError, OSError, asyncio.TimeoutError, ValueError):
                return worker_id, None

        alive = sorted(self.supervisor.alive_workers())
        scraped = dict(await asyncio.gather(*(scrape(w) for w in alive)))
        workers = {w: snap for w, snap in scraped.items() if snap is not None}
        return {
            "router": self.metrics.snapshot(),
            "workers": workers,
            "tracing": merge_tracing_snapshots(
                [snap.get("tracing") for snap in workers.values()]
            ),
        }

    # ---- forwarding ------------------------------------------------------------

    @staticmethod
    def _routing_key(body: bytes) -> tuple[str, int]:
        """Extract ``(platform, seed)`` without validating the full schema.

        The owning worker re-parses and validates; the router only needs
        the key, so schema errors surface from the worker with the full
        single-process error envelope.
        """
        try:
            parsed = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"invalid JSON body: {exc}") from None
        if not isinstance(parsed, dict):
            raise ServiceError(
                "request body must be a JSON object, got "
                f"{type(parsed).__name__}"
            )
        platform = parsed.get("platform")
        if not isinstance(platform, str):
            raise ServiceError("missing required field 'platform'")
        seed = parsed.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ServiceError(f"field 'seed' must be an integer, got {seed!r}")
        return platform, seed

    async def _forward(
        self, path: str, body: bytes
    ) -> tuple[int, "dict | bytes"]:
        try:
            platform, seed = self._routing_key(body)
        except ServiceError as exc:
            return 400, protocol.error_payload(exc, status=400)
        try:
            owners = self.supervisor.shardmap.owners(
                platform, seed, alive=self.supervisor.alive_workers()
            )
        except ClusterError as exc:
            self.metrics.unroutable_total += 1
            return 503, protocol.error_payload(exc, status=503)
        last_error: Exception | None = None
        for i, worker_id in enumerate(owners):
            handle = self.supervisor.handle(worker_id)
            self.metrics.forwards[worker_id] = (
                self.metrics.forwards.get(worker_id, 0) + 1
            )
            try:
                status, raw = await self._pool.request(
                    handle.host,
                    handle.port,
                    "POST",
                    path,
                    body,
                    timeout=self._forward_timeout_s,
                )
            except (HttpError, OSError, asyncio.TimeoutError) as exc:
                last_error = exc
                if i + 1 < len(owners):
                    self.metrics.failovers_total += 1
                    log.warning(
                        "worker %s unreachable for %s (%s); failing over",
                        worker_id,
                        path,
                        exc,
                    )
                continue
            return status, raw
        self.metrics.unroutable_total += 1
        exc = ClusterError(
            f"no replica of {platform}:{seed} is reachable "
            f"(tried {', '.join(owners)}): {last_error}"
        )
        return 503, protocol.error_payload(exc, status=503)
