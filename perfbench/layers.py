"""Per-layer metrics of a traced run, from span files and ``/metrics``.

Definitions (see README.md for how to read them):

* **self time** of a span = its duration minus the part of it covered by
  its child spans (union of the children's intervals, clipped to the
  parent's);
* **request time** of a front process (the server, or the fleet's
  router) = ``write_response`` start minus ``read_request`` end for one
  request id: everything the process did between having read the
  request and starting to write the answer;
* **unattributed** time of a request kind = client-side p50 latency of
  the traced phase minus the front process's request-time p50 of that
  kind: HTTP framing, sockets, scheduling and the client itself;
* **router hop** = router request time minus the ``WorkerPool.request``
  time of the same request id.

A metric of a layer the workload does not cross reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from loadgen import percentile

__all__ = ["PER_LAYER_UNITS", "layer_metrics"]

#: Every per-layer metric (BENCHMARK.json ``per_layer``) and its unit.
PER_LAYER_UNITS = {
    "loadgen.late_p99_ms": "ms",
    "loadgen.conn_wait_p50_ms": "ms",
    "http11.read_request.self_us_p50": "us",
    "http11.write_response.self_us_p50": "us",
    "http11.response_bytes_per_req": "bytes",
    "server.json_loads.self_us_p50": "us",
    "server.request_us_p50": "us",
    "server.unattributed_us_p50": "us",
    "server.unattributed.bulk_us_p50": "us",
    "server.unattributed.calibrate_us_p50": "us",
    "protocol.parse_predict.self_us_p50": "us",
    "protocol.parse_predict.us_per_query": "us",
    "registry.get.self_us_p50": "us",
    "registry.hits": "count",
    "registry.misses": "count",
    "registry.waits": "count",
    "registry.calibrate_queue_ms_p50": "ms",
    "batching.predict.wait_us_p50": "us",
    "batching.batches": "count",
    "batching.size1_share": "ratio",
    "compiled.predict_batch.us_per_query": "us",
    "compiled.predict_columns.us_per_query": "us",
    "compiled.table_queries": "count",
    "compiled.evaluator_queries": "count",
    "compiled.load_or_compile.self_ms_p50": "ms",
    "backends.tournament.predict_batch.us_per_query": "us",
    "backends.queries.tournament": "count",
    "tournament.run_platform_tournament.self_ms_p50": "ms",
    "experiments.run_platform_experiment.self_ms_p50": "ms",
    "bench.run_placement_grid.self_ms_p50": "ms",
    "memsim.arbiter.solve.calls_per_calibration": "count",
    "memsim.arbiter.solve.us_mean": "us",
    "core.calibrate_placement_model.self_ms_p50": "ms",
    "store.load.calls": "count",
    "store.save.calls": "count",
    "store.hits": "count",
    "router.hop_us_p50": "us",
    "pool.request.self_us_p50": "us",
    "pool.opens": "count",
    "pool.reuses": "count",
    "pool.stale_retries": "count",
    "shardmap.owners.self_us_p50": "us",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

_KIND = {"predict": "/predict", "bulk": "/predict:bulk", "calibrate": "/calibrate"}


class _Process:
    """The spans of one traced process, with self times."""

    def __init__(self, dump: dict) -> None:
        self.router = "cluster" in dump["argv"]
        self.spans = [
            dict(
                name=s[0], start=s[1], end=s[2], id=s[3], parent=s[4],
                request=s[5], attrs=s[7],
            )
            for s in dump["spans"]
        ]
        children = defaultdict(list)
        for span in self.spans:
            if span["parent"]:
                children[span["parent"]].append((span["start"], span["end"]))
        for span in self.spans:
            covered = _covered(span["start"], span["end"], children[span["id"]])
            span["self"] = span["end"] - span["start"] - covered

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def request_times(self) -> dict[int, tuple[str, int, int]]:
        """request id -> (kind, read end, write start)."""
        reads = {
            s["request"]: s for s in self.named("http11.read_request")
        }
        out = {}
        for write in self.named("http11.write_response"):
            read = reads.get(write["request"])
            if read is not None:
                out[write["request"]] = (
                    read["attrs"]["kind"], read["end"], write["start"]
                )
        return out


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    total, cursor = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _p50(values: list[float]) -> float:
    return percentile(values, 50) if values else 0.0


def _self_p50(procs, name: str, scale: float, where=None) -> float:
    return _p50(
        [
            s["self"] / scale
            for p in procs
            for s in p.named(name)
            if where is None or where(s)
        ]
    )


def _per_query_us(procs, name: str) -> float:
    spans = [s for p in procs for s in p.named(name)]
    queries = sum(s["attrs"].get("q", 0) for s in spans)
    total_ns = sum(s["end"] - s["start"] for s in spans)
    return total_ns / 1e3 / queries if queries else 0.0


def _worker_snapshots(metrics: dict) -> list[dict]:
    if "workers" in metrics:
        return list(metrics["workers"].values())
    return [metrics] if metrics else []


def _delta(before: dict, after: dict, *path) -> float:
    def total(metrics):
        value = 0
        for snap in _worker_snapshots(metrics):
            node = snap
            for key in path:
                node = node.get(key, {}) if isinstance(node, dict) else {}
            value += node if isinstance(node, (int, float)) else 0
        return value

    return total(after) - total(before)


def _pool_delta(before: dict, after: dict, key: str) -> float:
    def get(metrics):
        pool = (metrics.get("router") or {}).get("connection_pool") or {}
        return pool.get(key, 0)

    return get(after) - get(before)


def _client_p50(phase, kind: str) -> float:
    samples = [
        s for s in phase.samples.get(kind, []) if not s.error and s.status == 200
    ]
    return _p50([s.latency_ms for s in samples])


def layer_metrics(
    workload,
    *,
    plain,
    traced,
    span_files: list[dict],
    metrics_before: dict,
    metrics_after: dict,
    validity: dict,
) -> dict[str, float]:
    procs = [_Process(dump) for dump in span_files]
    workers = [p for p in procs if not p.router]
    routers = [p for p in procs if p.router]
    front = routers or workers
    m: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)

    m["loadgen.late_p99_ms"] = validity.get("late_p99_ms", 0.0)
    m["loadgen.conn_wait_p50_ms"] = validity.get("conn_wait_p50_ms", 0.0)

    m["http11.read_request.self_us_p50"] = _self_p50(
        procs, "http11.read_request", 1e3
    )
    m["http11.write_response.self_us_p50"] = _self_p50(
        procs, "http11.write_response", 1e3
    )
    writes = [s["attrs"]["out"] for p in front for s in p.named("http11.write_response")]
    m["http11.response_bytes_per_req"] = statistics.fmean(writes) if writes else 0.0
    m["server.json_loads.self_us_p50"] = _self_p50(workers, "server.json_loads", 1e3)

    request_us: dict[str, list[float]] = defaultdict(list)
    for proc in front:
        for kind, read_end, write_start in proc.request_times().values():
            request_us[kind].append((write_start - read_end) / 1e3)
    m["server.request_us_p50"] = _p50(request_us[_KIND[workload.primary]])
    for kind, name in (
        ("predict", "server.unattributed_us_p50"),
        ("bulk", "server.unattributed.bulk_us_p50"),
        ("calibrate", "server.unattributed.calibrate_us_p50"),
    ):
        client = _client_p50(traced, kind)
        server = _p50(request_us[_KIND[kind]])
        if client and server:
            m[name] = client * 1e3 - server

    m["protocol.parse_predict.self_us_p50"] = _self_p50(
        workers, "protocol.parse_predict", 1e3
    )
    m["protocol.parse_predict.us_per_query"] = _per_query_us(
        workers, "protocol.parse_predict"
    )

    m["registry.get.self_us_p50"] = _self_p50(
        workers, "registry.get", 1e3, where=lambda s: s["attrs"]["hit"]
    )
    for key in ("hits", "misses", "waits"):
        m[f"registry.{key}"] = _delta(metrics_before, metrics_after, "registry", key)
    queue_ms = []
    for proc in workers:
        starts = defaultdict(list)
        for span in proc.named("experiments.run_platform_experiment"):
            starts[span["attrs"]["key"]].append(span["start"])
        for get in proc.named("registry.get"):
            if get["attrs"]["hit"]:
                continue
            later = [t for t in starts[get["attrs"]["key"]] if t >= get["start"]]
            if later:
                queue_ms.append((min(later) - get["start"]) / 1e6)
    m["registry.calibrate_queue_ms_p50"] = _p50(queue_ms)

    m["batching.predict.wait_us_p50"] = _self_p50(workers, "batching.predict", 1e3)
    batches = _delta(metrics_before, metrics_after, "batching", "batches")
    m["batching.batches"] = batches
    if batches:
        size1 = _delta(metrics_before, metrics_after, "batching", "sizes", "1")
        m["batching.size1_share"] = size1 / batches

    m["compiled.predict_batch.us_per_query"] = _per_query_us(
        workers, "compiled.predict_batch"
    )
    m["compiled.predict_columns.us_per_query"] = _per_query_us(
        workers, "compiled.predict_columns"
    )
    m["compiled.table_queries"] = _delta(
        metrics_before, metrics_after, "compiled", "table_queries"
    )
    m["compiled.evaluator_queries"] = _delta(
        metrics_before, metrics_after, "compiled", "evaluator_queries"
    )
    m["compiled.load_or_compile.self_ms_p50"] = _self_p50(
        workers, "compiled.load_or_compile", 1e6
    )
    m["backends.tournament.predict_batch.us_per_query"] = _per_query_us(
        workers, "backends.tournament.predict_batch"
    )
    m["backends.queries.tournament"] = _delta(
        metrics_before, metrics_after, "backends", "queries", "tournament"
    )
    m["tournament.run_platform_tournament.self_ms_p50"] = _self_p50(
        workers, "tournament.run_platform_tournament", 1e6
    )

    m["experiments.run_platform_experiment.self_ms_p50"] = _self_p50(
        workers, "experiments.run_platform_experiment", 1e6
    )
    m["bench.run_placement_grid.self_ms_p50"] = _self_p50(
        workers, "bench.run_placement_grid", 1e6
    )
    calibrations = sum(
        len(p.named("experiments.run_platform_experiment")) for p in workers
    )
    solves = [s for p in workers for s in p.named("memsim.arbiter.solve")]
    if calibrations:
        m["memsim.arbiter.solve.calls_per_calibration"] = len(solves) / calibrations
    if solves:
        m["memsim.arbiter.solve.us_mean"] = statistics.fmean(
            (s["end"] - s["start"]) / 1e3 for s in solves
        )
    m["core.calibrate_placement_model.self_ms_p50"] = _self_p50(
        workers, "core.calibrate_placement_model", 1e6
    )

    loads = [s for p in procs for s in p.named("store.load")]
    m["store.load.calls"] = len(loads)
    m["store.save.calls"] = sum(len(p.named("store.save")) for p in procs)
    m["store.hits"] = sum(1 for s in loads if s["attrs"].get("hit"))

    hops = []
    for proc in routers:
        pool_ns = defaultdict(int)
        for span in proc.named("pool.request"):
            pool_ns[span["request"]] += span["end"] - span["start"]
        for request, (kind, read_end, write_start) in proc.request_times().items():
            if request in pool_ns and kind.startswith("/predict"):
                hops.append((write_start - read_end - pool_ns[request]) / 1e3)
    m["router.hop_us_p50"] = _p50(hops)
    m["pool.request.self_us_p50"] = _self_p50(routers, "pool.request", 1e3)
    for key in ("opens", "reuses", "stale_retries"):
        m[f"pool.{key}"] = _pool_delta(metrics_before, metrics_after, key)
    m["shardmap.owners.self_us_p50"] = _self_p50(routers, "shardmap.owners", 1e3)

    untraced = _client_p50(plain, workload.primary)
    traced_p50 = _client_p50(traced, workload.primary)
    m["trace.untraced_p50_ms"] = untraced
    m["trace.traced_p50_ms"] = traced_p50
    if untraced:
        m["trace.overhead_pct"] = (traced_p50 / untraced - 1.0) * 100.0
    m["trace.spans"] = sum(len(p.spans) for p in procs)
    return m
