"""Supervisor: a fleet of worker processes, each one ContentionService.

The scale-out unit is the *existing* single-process service: the
supervisor forks N workers with ``python -m repro serve`` (one port
each), all backed by the same pipeline artifact store.  That shared
store is what makes the fleet cheap to operate:

* **warm starts** — every worker is spawned with ``--preload`` for the
  keys the shard map assigns it, so calibrations are hydrated from the
  content-addressed store (a file read) before the worker accepts its
  first request;
* **cheap replication** — a model replica is just another worker
  preloading the same artifact; nothing is copied between processes;
* **cheap restarts** — a crashed worker is relaunched on its original
  port with its original preload list and is warm as soon as it binds.

The supervisor itself is deliberately policy-free about *when* to
restart: it exposes ``poll``/``respawn``/``retire`` and the router's
health loop decides.  After ``max_restarts`` failed revivals a worker
is retired and the shard map rebalances its keys (~1/N of the space)
onto the survivors.
"""

from __future__ import annotations

import logging
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ClusterError, ServiceError
from repro.cluster.shardmap import ShardMap
from repro.service.client import ServiceClient

__all__ = ["Supervisor", "WorkerHandle", "WorkerStatus"]

log = logging.getLogger("repro.cluster")


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's externally visible state (for ``/shards`` and the CLI)."""

    worker_id: str
    host: str
    port: int
    pid: int | None
    alive: bool
    restarts: int
    retired: bool

    def as_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "alive": self.alive,
            "restarts": self.restarts,
            "retired": self.retired,
        }


class WorkerHandle:
    """One supervised worker process slot (port and identity are stable)."""

    def __init__(self, worker_id: str, host: str, port: int) -> None:
        self.worker_id = worker_id
        self.host = host
        self.port = port
        self.process: subprocess.Popen | None = None
        self.restarts = 0
        self.retired = False

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return (
            not self.retired
            and self.process is not None
            and self.process.poll() is None
        )

    def status(self) -> WorkerStatus:
        return WorkerStatus(
            worker_id=self.worker_id,
            host=self.host,
            port=self.port,
            pid=self.pid,
            alive=self.alive(),
            restarts=self.restarts,
            retired=self.retired,
        )


def _free_port(host: str) -> int:
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class Supervisor:
    """Spawn, track, restart, and retire the worker fleet."""

    def __init__(
        self,
        *,
        workers: int = 3,
        replication: int = 2,
        cache_dir: Path | str,
        host: str = "127.0.0.1",
        preload: "tuple[tuple[str, int], ...] | list[tuple[str, int]]" = (),
        request_timeout_s: float = 30.0,
        max_concurrency: int = 64,
        max_restarts: int = 3,
    ) -> None:
        if workers < 1:
            raise ClusterError(f"need at least 1 worker, got {workers}")
        if replication > workers:
            raise ClusterError(
                f"replication {replication} exceeds worker count {workers}"
            )
        if max_restarts < 0:
            raise ClusterError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        if cache_dir is None:
            raise ClusterError(
                "a cluster needs a shared cache_dir: it is the warm-restart "
                "and replication medium"
            )
        self._cache_dir = Path(cache_dir)
        self._host = host
        self._preload = tuple((str(p), int(s)) for p, s in preload)
        self._request_timeout_s = request_timeout_s
        self._max_concurrency = max_concurrency
        self._max_restarts = max_restarts
        worker_ids = [f"w{i}" for i in range(workers)]
        self.shardmap = ShardMap(worker_ids, replication=replication)
        self._handles: dict[str, WorkerHandle] = {}
        for worker_id in worker_ids:
            self._handles[worker_id] = WorkerHandle(
                worker_id, host, _free_port(host)
            )

    # ---- inspection ------------------------------------------------------------

    @property
    def cache_dir(self) -> Path:
        return self._cache_dir

    @property
    def handles(self) -> dict[str, WorkerHandle]:
        return dict(self._handles)

    def handle(self, worker_id: str) -> WorkerHandle:
        try:
            return self._handles[worker_id]
        except KeyError:
            raise ClusterError(f"unknown worker {worker_id!r}") from None

    def statuses(self) -> list[WorkerStatus]:
        return [h.status() for _, h in sorted(self._handles.items())]

    def alive_workers(self) -> set[str]:
        return {wid for wid, h in self._handles.items() if h.alive()}

    def preload_keys_for(self, worker_id: str) -> list[tuple[str, int]]:
        """The configured preload keys this worker owns (any replica rank)."""
        return [
            key
            for key in self._preload
            if worker_id in self.shardmap.owners(*key)
        ]

    def backend_artifacts_for(self, worker_id: str) -> list[str]:
        """The store entry ids of this worker's shard-assigned model
        backends: every roster calibration plus the tournament winner
        table of each preload key it owns.

        Passed to the worker as ``--prefetch-artifact`` hints so its
        warm start faults the tournament winners in alongside the sweep
        and calibration artifacts — the first ``backend=`` query is
        then a pure in-memory answer instead of a cold store read.
        """
        from repro.backends import BACKENDS, backend_key
        from repro.backends.tournament import (
            tournament_fingerprint,
            tournament_key,
        )
        from repro.bench.config import SweepConfig
        from repro.pipeline.fingerprint import config_fingerprint

        entry_ids: list[str] = []
        for platform, seed in self.preload_keys_for(worker_id):
            config_fp = config_fingerprint(SweepConfig(seed=seed))
            for backend in BACKENDS.values():
                entry_ids.append(
                    backend_key(platform, backend, config_fp).entry_id
                )
            entry_ids.append(
                tournament_key(
                    platform, tournament_fingerprint(config_fp, BACKENDS)
                ).entry_id
            )
        return entry_ids

    # ---- spawning --------------------------------------------------------------

    def worker_command(self, handle: WorkerHandle) -> list[str]:
        """The exact ``repro serve`` invocation of one worker."""
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            handle.host,
            "--port",
            str(handle.port),
            "--cache-dir",
            str(self._cache_dir),
            "--timeout",
            str(self._request_timeout_s),
            "--max-concurrency",
            str(self._max_concurrency),
        ]
        for entry_id in self.backend_artifacts_for(handle.worker_id):
            command += ["--prefetch-artifact", entry_id]
        for platform, seed in self.preload_keys_for(handle.worker_id):
            command += ["--preload", f"{platform}:{seed}"]
        return command

    def _spawn(self, handle: WorkerHandle) -> None:
        log_dir = self._cache_dir / "worker-logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        log_path = log_dir / f"{handle.worker_id}.log"
        with open(log_path, "ab") as log_file:
            handle.process = subprocess.Popen(
                self.worker_command(handle),
                stdout=log_file,
                stderr=subprocess.STDOUT,
            )
        log.info(
            "spawned worker %s on %s:%d (pid %d, log %s)",
            handle.worker_id,
            handle.host,
            handle.port,
            handle.process.pid,
            log_path,
        )

    def start(self) -> None:
        """Spawn every worker (readiness is polled separately)."""
        for _, handle in sorted(self._handles.items()):
            if handle.process is None:
                self._spawn(handle)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until every live worker answers ``/healthz``."""
        deadline = time.monotonic() + timeout_s
        for _, handle in sorted(self._handles.items()):
            if handle.retired:
                continue
            client = ServiceClient(handle.host, handle.port, timeout=5.0)
            while True:
                if handle.process is not None and handle.process.poll() is not None:
                    raise ClusterError(
                        f"worker {handle.worker_id} exited with code "
                        f"{handle.process.returncode} before becoming ready "
                        f"(see {self._cache_dir}/worker-logs/"
                        f"{handle.worker_id}.log)"
                    )
                try:
                    client.healthz()
                    break
                # Only "not up yet" failures are retried: the client
                # wraps connection problems in ServiceError, and the
                # socket layer can surface raw OSErrors.  Anything else
                # (a genuine bug) propagates instead of being polled
                # into a misleading timeout.
                except (ServiceError, OSError):
                    if time.monotonic() > deadline:
                        raise ClusterError(
                            f"worker {handle.worker_id} did not become ready "
                            f"within {timeout_s:g}s"
                        ) from None
                    time.sleep(0.05)

    # ---- lifecycle management ---------------------------------------------------

    def poll(self) -> dict[str, bool]:
        """worker_id -> process liveness (no network probe)."""
        return {
            wid: handle.alive()
            for wid, handle in self._handles.items()
            if not handle.retired
        }

    def respawn(self, worker_id: str) -> bool:
        """Relaunch one worker on its original port.

        Returns ``False`` (and retires the worker, rebalancing the
        shard map) once ``max_restarts`` revivals have been spent —
        a port squatter or a crash loop must not wedge the health loop
        forever.
        """
        handle = self.handle(worker_id)
        if handle.retired:
            return False
        if handle.restarts >= self._max_restarts:
            self.retire(worker_id)
            return False
        if handle.process is not None and handle.process.poll() is None:
            handle.process.kill()
            handle.process.wait()
        handle.restarts += 1
        self._spawn(handle)
        return True

    def retire(self, worker_id: str) -> None:
        """Remove a worker for good; its keys rebalance to survivors."""
        handle = self.handle(worker_id)
        if handle.retired:
            return
        handle.retired = True
        if handle.process is not None and handle.process.poll() is None:
            handle.process.kill()
        if len(self.shardmap) > 1:
            self.shardmap.remove_worker(worker_id)
        log.warning(
            "retired worker %s after %d restarts; shard map rebalanced "
            "across %d workers",
            worker_id,
            handle.restarts,
            len(self.shardmap),
        )

    def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Graceful fleet shutdown: SIGTERM (drain), then SIGKILL stragglers."""
        procs = [
            h.process
            for h in self._handles.values()
            if h.process is not None and h.process.poll() is None
        ]
        for proc in procs:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
        deadline = time.monotonic() + drain_timeout_s
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
