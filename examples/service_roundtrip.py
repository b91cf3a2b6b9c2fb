#!/usr/bin/env python3
"""Serve predictions over HTTP: start, calibrate, query, shut down.

Starts ``python -m repro serve`` as a real subprocess on an ephemeral
port, drives it with :class:`repro.service.client.ServiceClient`
(calibrate → predict → advise → metrics), then stops it with SIGINT and
checks the shutdown is clean.  CI runs this exact script as its service
smoke test; run it yourself with::

    PYTHONPATH=src python examples/service_roundtrip.py
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time

from repro.service.client import ServiceClient

PLATFORM = "occigen"


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def wait_until_up(client: ServiceClient, proc: subprocess.Popen) -> None:
    deadline = time.time() + 30
    while True:
        try:
            client.healthz()
            return
        except Exception:
            if proc.poll() is not None:
                out, err = proc.communicate()
                raise SystemExit(
                    f"server exited early ({proc.returncode}):\n{err}"
                )
            if time.time() > deadline:
                raise SystemExit("server did not come up within 30s")
            time.sleep(0.2)


def main() -> int:
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port)],
        env=os.environ.copy(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    client = ServiceClient("127.0.0.1", port, timeout=15)
    try:
        wait_until_up(client, proc)

        calibration = client.calibrate(PLATFORM)
        assert calibration["cached"] is False, "fresh server must calibrate"
        assert client.calibrate(PLATFORM)["cached"] is True, "second hit cached"
        print(
            f"calibrated {PLATFORM}: average model error "
            f"{calibration['error_average_pct']:.2f} %"
        )

        prediction = client.predict(PLATFORM, n=8, m_comp=0, m_comm=1)
        assert prediction["comp_parallel"] > 0
        print(
            f"predict n=8 (0,1): comp {prediction['comp_parallel']:.2f} GB/s, "
            f"comm {prediction['comm_parallel']:.2f} GB/s"
        )

        bulk = client.predict_many(
            PLATFORM, [(n, 0, n % 2) for n in range(1, 15)]
        )
        assert len(bulk) == 14

        best = client.advise(PLATFORM, comp_bytes=1e9, comm_bytes=1e8, top=1)
        rec = best["recommendations"][0]
        print(
            f"advised: {rec['n_cores']} cores, data on nodes "
            f"({rec['m_comp']}, {rec['m_comm']})"
        )

        metrics = client.metrics()
        assert metrics["registry"]["calibrations"] == 1, "calibrated once"
        assert metrics["requests"]["total"] >= 5
        assert metrics["compiled"]["table_queries"] >= 15
        print(
            f"metrics: {metrics['requests']['total']} requests, "
            f"{metrics['registry']['hits']} registry hits, "
            f"{metrics['compiled']['table_queries']} table queries"
        )
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("server ignored SIGINT; killed")

    assert code == 0, f"server exited {code} instead of a clean shutdown"
    print("clean shutdown — service round trip OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
