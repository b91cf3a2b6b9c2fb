"""Service instrumentation: counters, histograms, registry/kernel stats.

A single :class:`ServiceMetrics` instance is shared by the server and
the model registry.  The server runs on one asyncio
event loop, so plain attribute updates are race-free; the snapshot the
``/metrics`` endpoint serves is a pure-data dict that json.dumps can
encode directly.
"""

from __future__ import annotations

import math

from repro.obs import tracing_snapshot

__all__ = ["ServiceMetrics", "LATENCY_BUCKETS_MS"]

#: Upper bounds (milliseconds) of the request-latency histogram buckets.
#: The last bucket is +Inf, so every observation lands somewhere.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1000.0,
    math.inf,
)


def _bucket_label(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else f"{bound:g}"


class ServiceMetrics:
    """Mutable counters behind the ``/metrics`` endpoint."""

    def __init__(self) -> None:
        #: (endpoint, status) -> count
        self.requests_total: dict[tuple[str, int], int] = {}
        #: endpoint -> {bucket label -> count}; cumulative-free buckets.
        self.latency_ms: dict[str, dict[str, int]] = {}
        #: endpoint -> total seconds (for average latency).
        self.latency_sum_s: dict[str, float] = {}
        self.in_flight = 0
        self.rejected_total = 0
        self.timeouts_total = 0
        # Registry.
        self.registry_hits = 0
        self.registry_misses = 0
        self.registry_waits = 0  # joined an in-flight calibration
        self.registry_evictions = 0
        self.calibrations_total = 0
        #: Entries hydrated synchronously by ``ModelRegistry.preload``
        #: (a subset of ``calibrations_total``).
        self.preloads_total = 0
        # Compiled prediction kernel.
        #: Queries answered from a compiled model's dense tables.
        self.compiled_queries_total = 0
        # Model backends.
        #: backend id -> queries served by that backend.  The default
        #: threshold path counts under "threshold"; tournament-routed
        #: queries count under "tournament" plus "tournament:<winner>"
        #: for the backend the router actually dispatched to.
        self.backend_queries: dict[str, int] = {}

    # ---- recording -------------------------------------------------------------

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        key = (endpoint, status)
        self.requests_total[key] = self.requests_total.get(key, 0) + 1
        hist = self.latency_ms.setdefault(
            endpoint, {_bucket_label(b): 0 for b in LATENCY_BUCKETS_MS}
        )
        ms = seconds * 1e3
        for bound in LATENCY_BUCKETS_MS:
            if ms <= bound:
                hist[_bucket_label(bound)] += 1
                break
        self.latency_sum_s[endpoint] = (
            self.latency_sum_s.get(endpoint, 0.0) + seconds
        )

    def registry_lookup(self, *, hit: bool, waited: bool = False) -> None:
        if hit:
            self.registry_hits += 1
        elif waited:
            self.registry_waits += 1
        else:
            self.registry_misses += 1

    def observe_backend(self, backend: str, queries: int = 1) -> None:
        self.backend_queries[backend] = (
            self.backend_queries.get(backend, 0) + queries
        )

    # ---- snapshot --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Pure-data view, directly JSON-encodable."""
        requests = [
            {"endpoint": endpoint, "status": status, "count": count}
            for (endpoint, status), count in sorted(self.requests_total.items())
        ]
        latency = {
            endpoint: {
                "buckets_ms": dict(hist),
                "sum_s": self.latency_sum_s.get(endpoint, 0.0),
                "count": sum(hist.values()),
            }
            for endpoint, hist in sorted(self.latency_ms.items())
        }
        return {
            "requests": {
                "total": sum(self.requests_total.values()),
                "by_endpoint": requests,
                "in_flight": self.in_flight,
                "rejected": self.rejected_total,
                "timeouts": self.timeouts_total,
            },
            "latency": latency,
            "registry": {
                "hits": self.registry_hits,
                "misses": self.registry_misses,
                "waits": self.registry_waits,
                "evictions": self.registry_evictions,
                "calibrations": self.calibrations_total,
                "preloads": self.preloads_total,
            },
            "compiled": {
                "table_queries": self.compiled_queries_total,
            },
            "backends": {
                "queries": {
                    k: v for k, v in sorted(self.backend_queries.items())
                },
            },
            # Per-span-name timing of the active tracer (requests,
            # predictions, calibrations); {"enabled": False} when off.
            "tracing": tracing_snapshot(),
        }
