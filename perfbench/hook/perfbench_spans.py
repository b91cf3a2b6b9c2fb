"""Span recorders wrapped around the public functions of each layer.

Loaded by this directory's ``sitecustomize`` in every Python process
started with it on ``PYTHONPATH`` and ``PERFBENCH_SPANS`` set to an
output directory: the traced ``repro serve``, the traced fleet router,
and the workers the router's supervisor spawns (which inherit the
environment).  Nothing in ``src/`` changes; a meta-path finder patches
each target module right after it executes, before any other module
imports names from it.

A span is ``(name, start_ns, end_ns, span_id, parent_id, request_id,
thread_id, attrs)``.  The parent is the innermost open span of the same
task or thread (a context variable), and the request id is assigned
when ``read_request`` returns, so every span a request causes on the
event loop shares it.  The calibrator runs in an executor thread, which
starts with no parent and no request id.  Spans stay in memory, appended
under a lock, and are written to ``<dir>/spans-<pid>.json`` at exit.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib.abc
import importlib.machinery
import itertools
import json
import os
import sys
import threading
import time

ENV = "PERFBENCH_SPANS"

_lock = threading.Lock()
_spans: list[tuple] = []
_span_ids = itertools.count(1)
_request_ids = itertools.count(1)
_current = contextvars.ContextVar("perfbench_span", default=0)
_request = contextvars.ContextVar("perfbench_request", default=0)
_now = time.perf_counter_ns


def _record(name, start, end, span_id, parent, attrs) -> None:
    span = (
        name,
        start,
        end,
        span_id,
        parent,
        _request.get(),
        threading.get_ident(),
        attrs,
    )
    with _lock:
        _spans.append(span)


def wrap_sync(name, fn, before=None, after=None):
    """Span ``name`` around a plain callable.  ``before(args, kwargs)``
    returns the span's attrs; ``after(result, attrs)`` may add to them."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        parent = _current.get()
        span_id = next(_span_ids)
        token = _current.set(span_id)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            _current.reset(token)
        if after:
            after(result, attrs)
        _record(name, start, end, span_id, parent, attrs)
        return result

    return wrapper


def wrap_async(name, fn, before=None):
    """Span ``name`` around a coroutine function."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before else {}
        parent = _current.get()
        span_id = next(_span_ids)
        token = _current.set(span_id)
        start = _now()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = _now()
            _current.reset(token)
            _record(name, start, end, span_id, parent, attrs)

    return wrapper


# ---- attribute extractors ----------------------------------------------------------


def _n_queries(index):
    return lambda args, kwargs: {"q": len(args[index])}


def _experiment_key(args, kwargs):
    platform = args[0] if args else kwargs["platform"]
    name = platform if isinstance(platform, str) else platform.name
    config = kwargs.get("config")
    return {"key": f"{name}:{getattr(config, 'seed', None)}"}


def _registry_key(args, kwargs):
    registry, platform = args[0], args[1]
    seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
    return {
        "key": f"{platform}:{seed}",
        "hit": registry.cached(platform, seed),
    }


def _parsed_queries(result, attrs):
    attrs["q"] = len(result[2])


def _store_hit(result, attrs):
    attrs["hit"] = result is not None


# ---- the http11 layer: reads start at the first byte, writes count bytes -----------


class _StampedReader:
    """Records when the request line arrived, so a keep-alive read does
    not count the idle wait for the client's next request."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.first = 0

    async def readline(self):
        line = await self._reader.readline()
        if not self.first:
            self.first = _now()
        return line

    def __getattr__(self, name):
        return getattr(self._reader, name)


class _CountingWriter:
    def __init__(self, writer) -> None:
        self._writer = writer
        self.bytes = 0

    def write(self, data) -> None:
        self.bytes += len(data)
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


def _wrap_read_request(fn):
    @functools.wraps(fn)
    async def read_request(reader):
        stamped = _StampedReader(reader)
        parent = _current.get()
        span_id = next(_span_ids)
        result = await fn(stamped)
        end = _now()
        _request.set(next(_request_ids))
        method, path, body, _keep_alive = result
        kind = path
        if path == "/predict" and b'"queries"' in body:
            kind = "/predict:bulk"
        _record(
            "http11.read_request",
            stamped.first or end,
            end,
            span_id,
            parent,
            {"kind": kind, "in": len(body)},
        )
        return result

    return read_request


def _wrap_write_response(fn):
    @functools.wraps(fn)
    async def write_response(writer, *args, **kwargs):
        counting = _CountingWriter(writer)
        parent = _current.get()
        span_id = next(_span_ids)
        start = _now()
        try:
            return await fn(counting, *args, **kwargs)
        finally:
            _record(
                "http11.write_response",
                start,
                _now(),
                span_id,
                parent,
                {"out": counting.bytes},
            )

    return write_response


class _JsonProxy:
    """Stands in for the ``json`` module held by the server module."""

    def __init__(self, module) -> None:
        self._module = module
        self.loads = wrap_sync("server.json_loads", module.loads)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---- what to wrap, per module ---------------------------------------------------------


def _patch_method(cls, name, span, wrap=wrap_sync, **kw) -> None:
    setattr(cls, name, wrap(span, getattr(cls, name), **kw))


def _patch_function(module, name, span, **kw) -> None:
    setattr(module, name, wrap_sync(span, getattr(module, name), **kw))


def _http11(m):
    m.read_request = _wrap_read_request(m.read_request)
    m.write_response = _wrap_write_response(m.write_response)


def _server(m):
    m.json = _JsonProxy(m.json)


def _protocol(m):
    _patch_function(
        m, "parse_predict", "protocol.parse_predict", after=_parsed_queries
    )


def _registry(m):
    _patch_method(
        m.ModelRegistry, "get", "registry.get", wrap_async, before=_registry_key
    )


def _batching(m):
    _patch_method(m.PredictBatcher, "predict", "batching.predict", wrap_async)


def _compiled(m):
    _patch_method(
        m.CompiledModel,
        "predict_batch",
        "compiled.predict_batch",
        before=_n_queries(1),
    )
    _patch_method(
        m.CompiledModel,
        "predict_columns",
        "compiled.predict_columns",
        before=_n_queries(1),
    )
    _patch_function(m, "load_or_compile", "compiled.load_or_compile")


def _tournament(m):
    _patch_method(
        m.TournamentRouter,
        "predict_batch",
        "backends.tournament.predict_batch",
        before=_n_queries(1),
    )
    _patch_function(
        m, "run_platform_tournament", "tournament.run_platform_tournament"
    )


def _experiments(m):
    _patch_function(
        m,
        "run_platform_experiment",
        "experiments.run_platform_experiment",
        before=_experiment_key,
    )


def _sweep(m):
    _patch_function(m, "run_placement_grid", "bench.run_placement_grid")


def _arbiter(m):
    _patch_method(m.Arbiter, "solve", "memsim.arbiter.solve")


def _calibration(m):
    _patch_function(
        m, "calibrate_placement_model", "core.calibrate_placement_model"
    )


def _store(m):
    _patch_method(m.ArtifactStore, "load", "store.load", after=_store_hit)
    _patch_method(m.ArtifactStore, "save", "store.save")


def _pool(m):
    _patch_method(m.WorkerPool, "request", "pool.request", wrap_async)


def _shardmap(m):
    _patch_method(m.ShardMap, "owners", "shardmap.owners")


PATCHES = {
    "repro.service.http11": _http11,
    "repro.service.server": _server,
    "repro.service.protocol": _protocol,
    "repro.service.registry": _registry,
    "repro.service.batching": _batching,
    "repro.core.compiled": _compiled,
    "repro.backends.tournament": _tournament,
    "repro.evaluation.experiments": _experiments,
    "repro.bench.sweep": _sweep,
    "repro.memsim.arbiter": _arbiter,
    "repro.core.calibration": _calibration,
    "repro.pipeline.store": _store,
    "repro.cluster.pool": _pool,
    "repro.cluster.shardmap": _shardmap,
}


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, patch) -> None:
        self._loader = loader
        self._patch = patch

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        self._patch(module)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        patch = PATCHES.get(name)
        if patch is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, patch)
        return spec


def _dump(out_dir: str) -> None:
    with _lock:
        spans = list(_spans)
    path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump({"pid": os.getpid(), "argv": sys.argv, "spans": spans}, fh)
    os.replace(path + ".tmp", path)


def install() -> None:
    out_dir = os.environ.get(ENV)
    if not out_dir:
        return
    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(_dump, out_dir)
