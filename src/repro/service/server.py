"""The asyncio HTTP/1.1 JSON server of the contention-prediction service.

Stdlib-only: requests are parsed off an :func:`asyncio.start_server`
stream, routed to handlers that drive the model registry, and answered
as JSON.  Operational behaviour:

* **per-request timeout** — a handler exceeding ``request_timeout_s``
  is cancelled and answered with 504;
* **concurrency limit** — more than ``max_concurrency`` in-flight
  requests are rejected immediately with 503 (load-shedding beats
  unbounded queueing for a latency-bound service);
* **structured errors** — every :class:`ReproError` maps to the JSON
  envelope and HTTP status of :mod:`repro.service.protocol`;
* **graceful shutdown** — :meth:`ContentionService.shutdown` stops
  accepting, closes idle keep-alive connections, and drains in-flight
  requests (bounded by ``drain_timeout_s``), so clients never see a
  torn response.

Endpoints: ``GET /healthz``, ``GET /metrics``, ``POST /calibrate``,
``POST /predict``, ``POST /predict_grid``, ``POST /advise`` — schemas
in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

from repro.advisor import Advisor, Workload, advise_victim_placement
from repro.core.placement import POINT_COLUMNS
from repro.errors import ReproError, ServiceError
from repro.topology import get_platform
from repro.obs import span
from repro.service import protocol
from repro.service.http11 import HttpServer
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelRegistry

__all__ = ["ContentionService"]

log = logging.getLogger("repro.service")


class ContentionService:
    """One serving instance: registry + HTTP front end."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: ModelRegistry | None = None,
        metrics: ServiceMetrics | None = None,
        request_timeout_s: float = 30.0,
        max_concurrency: int = 64,
        drain_timeout_s: float = 10.0,
        cache_dir: "str | None" = None,
    ) -> None:
        if registry is not None and cache_dir is not None:
            raise ServiceError("pass either registry or cache_dir, not both")
        self._host = host
        self._port = port
        self.metrics = metrics or (
            registry.metrics if registry is not None else ServiceMetrics()
        )
        # `is not None`, not truthiness: an empty registry has len() == 0.
        self.registry = (
            registry
            if registry is not None
            else ModelRegistry(metrics=self.metrics, cache_dir=cache_dir)
        )
        self._request_timeout_s = request_timeout_s
        self._max_concurrency = max_concurrency
        self._drain_timeout_s = drain_timeout_s
        self._http = HttpServer(self._dispatch)
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()
        self._routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/metrics"): self._handle_metrics,
            ("POST", "/calibrate"): self._handle_calibrate,
            ("POST", "/predict"): self._handle_predict,
            ("POST", "/predict_grid"): self._handle_predict_grid,
            ("POST", "/advise"): self._handle_advise,
        }

    # ---- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        port = self._http.port
        if port is None:
            raise ServiceError("service is not started")
        return port

    @property
    def host(self) -> str:
        return self._host

    async def start(self) -> None:
        self._started_at = time.monotonic()
        await self._http.start(self._host, self._port)
        log.info("service listening on %s:%d", self._host, self.port)

    async def run_until_shutdown(self) -> None:
        """Serve until :meth:`shutdown` is called (from any task)."""
        if self._http.port is None:
            await self.start()
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        """Signal :meth:`run_until_shutdown` to exit (signal-handler safe)."""
        self._shutdown.set()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, close sockets."""
        await self._http.close(self._drain_timeout_s)
        self._shutdown.set()

    # ---- request dispatch ------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        known_paths = {p for _, p in self._routes}
        # Unknown paths share one metrics label so scanners cannot grow
        # the metric cardinality without bound.
        endpoint = path.lstrip("/") if path in known_paths else "_unknown"
        handler = self._routes.get((method, path))
        if handler is None:
            if path in known_paths:
                status, payload = 405, protocol.error_payload(
                    ServiceError(f"method {method} not allowed on {path}"),
                    status=405,
                )
            else:
                status, payload = 404, protocol.error_payload(
                    ServiceError(f"unknown endpoint {path}"), status=404
                )
            self.metrics.observe_request(endpoint, status, 0.0)
            return status, payload

        if self.metrics.in_flight >= self._max_concurrency:
            self.metrics.rejected_total += 1
            self.metrics.observe_request(endpoint, 503, 0.0)
            return 503, protocol.error_payload(
                ServiceError(
                    f"concurrency limit reached "
                    f"({self._max_concurrency} requests in flight)"
                ),
                status=503,
            )

        self.metrics.in_flight += 1
        started = time.perf_counter()
        with span("service.request", endpoint=endpoint) as request_span:
            try:
                try:
                    parsed = json.loads(body.decode("utf-8")) if body else None
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ServiceError(f"invalid JSON body: {exc}") from None
                payload = await asyncio.wait_for(
                    handler(parsed), timeout=self._request_timeout_s
                )
                status = 200
            except asyncio.TimeoutError:
                self.metrics.timeouts_total += 1
                status = 504
                payload = protocol.error_payload(
                    ServiceError(
                        f"request exceeded the {self._request_timeout_s:g}s "
                        "timeout"
                    ),
                    status=504,
                )
            except ReproError as exc:
                status = protocol.http_status_for(exc)
                payload = protocol.error_payload(exc, status=status)
            except Exception as exc:  # noqa: BLE001 — the envelope must hold
                log.warning(
                    "internal error handling %s %s: %s", method, path, exc
                )
                status = 500
                payload = protocol.error_payload(exc, status=500)
            finally:
                self.metrics.in_flight -= 1
            request_span.tag(status=status)
        self.metrics.observe_request(
            endpoint, status, time.perf_counter() - started
        )
        return status, payload

    # ---- endpoint handlers -----------------------------------------------------

    async def _handle_healthz(self, _body: object) -> dict:
        from repro import __version__

        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_at,
            "models_cached": len(self.registry),
        }

    async def _handle_metrics(self, _body: object) -> dict:
        return self.metrics.snapshot()

    async def _handle_calibrate(self, body: object) -> dict:
        platform, seed = protocol.parse_calibrate(body)
        cached = self.registry.cached(platform, seed)
        entry = await self.registry.get(platform, seed)
        return {
            "platform": platform,
            "seed": seed,
            "cached": cached,
            "local": entry.model.local.to_dict(),
            "remote": entry.model.remote.to_dict(),
            "error_average_pct": entry.error_average_pct,
            "n_numa_nodes": entry.model.n_numa_nodes,
            "nodes_per_socket": entry.model.nodes_per_socket,
        }

    def _backend_model(self, entry: ModelEntry, backend: str):
        """Resolve a ``backend=`` selector against one registry entry.

        ``tournament`` answers with the per-regime winner router; any
        other name must be a backend calibrated for the entry.  Entries
        built by custom calibrators carry no backends and answer a
        structured 400.
        """
        if entry.backends is None or entry.tournament is None:
            raise ServiceError(
                f"backend selection is not available for platform "
                f"{entry.key.platform!r} (entry has no calibrated backends)"
            )
        if backend == "tournament":
            return entry.tournament
        try:
            return entry.backends[backend]
        except KeyError:
            known = ", ".join([*entry.backends, "tournament"])
            raise ServiceError(
                f"unknown backend {backend!r}; available: {known}"
            ) from None

    def _observe_backend_queries(
        self,
        entry: ModelEntry,
        backend: str,
        n_queries: int,
        routes_before: dict | None,
    ) -> None:
        """Count served queries per backend; tournament queries also
        count per routed winner (``tournament:<winner>``)."""
        self.metrics.observe_backend(backend, n_queries)
        if routes_before is not None and entry.tournament is not None:
            for winner, count in entry.tournament.route_counts.items():
                delta = count - routes_before.get(winner, 0)
                if delta > 0:
                    self.metrics.observe_backend(
                        f"tournament:{winner}", delta
                    )

    def _routes_before(
        self, entry: ModelEntry, backend: str | None
    ) -> dict | None:
        """The tournament's route counts before a ``backend=tournament``
        query, so :meth:`_observe_backend_queries` can count the delta."""
        if backend == "tournament" and entry.tournament is not None:
            return dict(entry.tournament.route_counts)
        return None

    async def _handle_predict(self, body: object) -> dict:
        platform, seed, queries, is_bulk, backend = protocol.parse_predict(
            body
        )
        entry = await self.registry.get(platform, seed)
        # The table's range bounds the work one request can ask of any
        # backend (it covers every platform's cores per socket).
        n_max = entry.compiled.n_max
        if max(queries)[0] > n_max:  # tuples order by ``n`` first
            index = next(i for i, q in enumerate(queries) if q[0] > n_max)
            raise ServiceError(
                f"query {index}: n={queries[index][0]} exceeds the "
                f"model's bound n_max={n_max}"
            )
        # ``threshold`` is the default model, answered by its compiled
        # kernel; any other name selects a backend or the tournament.
        backend = backend or "threshold"
        default = backend == "threshold"
        model = (
            entry.compiled if default else self._backend_model(entry, backend)
        )
        routes_before = self._routes_before(entry, backend)
        with span(
            "service.predict",
            platform=platform,
            size=len(queries),
            backend=backend,
        ):
            cols = model.predict_columns(queries)
        if default:
            self.metrics.compiled_queries_total += len(queries)
        self._observe_backend_queries(
            entry, backend, len(queries), routes_before
        )
        # A dict literal per row: ~40% cheaper than dict(zip(...)) on
        # 10k-row bulk bodies.
        rows = [
            {
                "n": n,
                "m_comp": mc,
                "m_comm": mm,
                "comp_parallel": cp,
                "comm_parallel": cm,
                "comp_alone": ca,
                "comm_alone": cal,
            }
            for n, mc, mm, cp, cm, ca, cal in zip(
                *(cols[name].tolist() for name in POINT_COLUMNS)
            )
        ]
        envelope = {"platform": platform, "seed": seed}
        if not default:
            envelope["backend"] = backend
        if is_bulk:
            envelope["results"] = rows
            return envelope
        return {**rows[0], **envelope}

    async def _handle_predict_grid(self, body: object) -> dict:
        platform, seed, core_counts, placements = protocol.parse_predict_grid(
            body
        )
        entry = await self.registry.get(platform, seed)
        grid = entry.compiled.predict_grid(core_counts, placements)
        return {
            "platform": platform,
            "seed": seed,
            "core_counts": core_counts,
            "grid": [
                {
                    "m_comp": m_comp,
                    "m_comm": m_comm,
                    "comp_parallel": pred.comp_parallel.tolist(),
                    "comm_parallel": pred.comm_parallel.tolist(),
                    "comp_alone": pred.comp_alone.tolist(),
                    "comm_alone": pred.comm_alone,
                }
                for (m_comp, m_comm), pred in grid.items()
            ],
        }

    async def _handle_advise(self, body: object) -> dict:
        if protocol.is_victim_advise(body):
            return self._advise_victim(body)
        platform, seed, comp_bytes, comm_bytes, top, backend = (
            protocol.parse_advise(body)
        )
        entry = await self.registry.get(platform, seed)
        if backend is not None and backend != "threshold":
            model = self._backend_model(entry, backend)
        else:
            model = entry.model
        routes_before = self._routes_before(entry, backend)
        advisor = Advisor(model, entry.platform.machine)
        workload = Workload(comp_bytes=comp_bytes, comm_bytes=comm_bytes)
        recommendations = advisor.recommend(workload, top=top)
        self._observe_backend_queries(
            entry, backend or "threshold", 1, routes_before
        )
        payload = {
            "platform": platform,
            "seed": seed,
            "recommendations": [r.to_dict() for r in recommendations],
        }
        if backend is not None:
            payload["backend"] = backend
        return payload

    def _advise_victim(self, body: object) -> dict:
        """Victim-placement mode of ``/advise``.

        Runs on the simulator directly (the multi-tenant scheduler
        needs the machine, not a calibrated model), so no registry
        entry — and no calibration — is required.
        """
        platform, seed, top = protocol.parse_advise_victim(body)
        spec = get_platform(platform)
        placements = advise_victim_placement(
            spec.machine, spec.profile, top=top
        )
        return {
            "platform": platform,
            "seed": seed,
            "victim": True,
            "placements": [p.to_dict() for p in placements],
        }
