#!/usr/bin/env python3
"""Kill-one-worker cluster smoke: zero client-visible errors, warm restart.

Boots ``python -m repro cluster serve`` (3 workers, replication 2) as a
real subprocess against a pre-seeded artifact store, streams predictions
through the router, SIGKILLs the primary owner of the streamed key
mid-stream, and requires:

* every request in the stream succeeds — the router fails the victim's
  keys over to a replica, so the client never sees the crash;
* the health loop restarts the victim (``restarts == 1``) *warm*: its
  calibration is hydrated from the shared store, so the cache directory
  gains no new artifacts and the victim's registry reports the preload;
* SIGINT drains the whole fleet to a clean exit 0.

CI runs this exact script as its cluster smoke test; run it yourself
with::

    PYTHONPATH=src python examples/cluster_smoke.py
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

from repro.service.client import ServiceClient
from repro.service.registry import ModelRegistry

PLATFORM = "occigen"
SEED = 0
STREAM_TOTAL = 300
KILL_AT = 100


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


#: Store bookkeeping (persistent hit counters), not payload artifacts.
_STATS_FILES = {"stats.json", ".stats.lock"}


def artifact_entries(cache_dir: str) -> set[str]:
    """Payload files under the store (logs and hit counters excluded)."""
    entries = set()
    for root, _, files in os.walk(cache_dir):
        if "worker-logs" in root:
            continue
        for name in files:
            if name in _STATS_FILES:
                continue
            entries.add(os.path.relpath(os.path.join(root, name), cache_dir))
    return entries


def store_hits(cache_dir: str) -> int:
    """Total persistent store hits across every artifact's counter."""
    import json

    total = 0
    for root, _, files in os.walk(cache_dir):
        if "stats.json" in files:
            with open(os.path.join(root, "stats.json")) as fh:
                total += json.load(fh).get("hits", 0)
    return total


def wait_until_ready(client: ServiceClient, proc: subprocess.Popen) -> dict:
    deadline = time.time() + 120
    while True:
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise SystemExit(
                f"cluster exited early ({proc.returncode}):\n{err}"
            )
        try:
            health = client.healthz()
            if health["status"] == "ok":
                return health
        except Exception:
            pass
        if time.time() > deadline:
            raise SystemExit("cluster did not become healthy within 120s")
        time.sleep(0.25)


def wait_for_restart(client: ServiceClient, victim: str) -> dict:
    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            health = client.healthz()
        except Exception:
            time.sleep(0.25)
            continue
        workers = {w["worker_id"]: w for w in health["workers"]}
        status = workers.get(victim)
        if status and status["alive"] and status["restarts"] == 1:
            return status
        time.sleep(0.25)
    raise SystemExit(f"health loop never restarted {victim} within 60s")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as cache_dir:
        # Seed the shared store through the calibrator the workers run
        # (sweep, calibration, compiled table, backends, tournament):
        # every worker (and every restart) must warm-start from these
        # artifacts instead of recalibrating.
        ModelRegistry(cache_dir=cache_dir).preload([(PLATFORM, SEED)])
        seeded = artifact_entries(cache_dir)
        print(f"seeded store: {len(seeded)} artifact file(s)")

        port = free_port()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster", "serve",
                "--port", str(port),
                "--workers", "3",
                "--replication", "2",
                "--cache-dir", cache_dir,
                "--preload", f"{PLATFORM}:{SEED}",
            ],
            env=os.environ.copy(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        client = ServiceClient("127.0.0.1", port, timeout=15)
        try:
            health = wait_until_ready(client, proc)
            hits_at_boot = store_hits(cache_dir)
            print(f"cluster up: {health['workers_alive']} workers alive, "
                  f"{hits_at_boot} store hit(s) from preloads")

            # Locate the primary owner of the key we are about to stream.
            table = client._request("GET", "/shards")
            from repro.cluster import ShardMap

            shardmap = ShardMap.from_spec(table["shardmap"])
            victim = shardmap.owners(PLATFORM, SEED)[0]
            victim_pid = table["workers"][victim]["pid"]
            print(f"primary owner of {PLATFORM}:{SEED} is {victim} "
                  f"(pid {victim_pid})")

            failures = 0
            for i in range(STREAM_TOTAL):
                if i == KILL_AT:
                    os.kill(victim_pid, signal.SIGKILL)
                    print(f"killed {victim} at request {i}")
                try:
                    result = client.predict(
                        PLATFORM, n=4 + i % 8, m_comp=0, m_comm=1, seed=SEED
                    )
                    assert result["comp_parallel"] > 0
                except Exception as exc:
                    failures += 1
                    print(f"request {i} failed: {exc!r}")
            assert failures == 0, (
                f"{failures} of {STREAM_TOTAL} requests failed across the "
                "worker kill — failover must hide the crash"
            )
            print(f"streamed {STREAM_TOTAL} predicts across the kill: "
                  "0 failures")

            status = wait_for_restart(client, victim)
            assert not status["retired"]
            print(f"{victim} restarted warm (restarts={status['restarts']})")

            # Warm-restart proof, part 1: the respawned worker's registry
            # hydrated its model via preload, visible in the fleet scrape.
            # (restarts=1 means the process is back; give it a moment to
            # answer HTTP before reading its registry counters.)
            deadline = time.time() + 60
            while True:
                metrics = client.metrics()
                if victim in metrics["workers"]:
                    break
                if time.time() > deadline:
                    raise SystemExit(
                        f"{victim} restarted but never answered /metrics"
                    )
                time.sleep(0.25)
            victim_registry = metrics["workers"][victim]["registry"]
            assert victim_registry["preloads"] >= 1, victim_registry
            # Part 2: the restart *read* from the shared store (hit
            # counters moved) and *wrote* nothing — no worker anywhere
            # recalibrated from scratch.
            assert store_hits(cache_dir) > hits_at_boot, (
                "restarted worker never touched the shared store"
            )
            assert artifact_entries(cache_dir) == seeded, (
                "store changed: a worker recalibrated instead of "
                "hydrating from the shared cache"
            )
            print("warm restart verified: preload served from the seeded "
                  "store, no new artifacts")

            assert metrics["router"]["failovers"] >= 1
            assert metrics["router"]["unroutable"] == 0
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit("cluster ignored SIGINT; killed")

    assert code == 0, f"cluster exited {code} instead of a clean shutdown"
    print("clean shutdown — cluster smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
