"""Out-of-process serving benchmark of ``repro serve`` / ``repro cluster serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scalar --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics of one workload with
tracing off.  ``--trace 1`` runs the same seed and schedule twice, first
untraced and then with the servers started under the span recorders of
``perfbench/hook``, and reports per-layer metrics plus the tracing
overhead.  ``--workload all`` runs every workload untraced and prints
their tables.  Human-readable lines come first; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  A wrong answer, a failed request, an invalid
(generator-bound) run or a leaked process exits non-zero.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from layers import PER_LAYER_UNITS, layer_metrics
from loadgen import Conn, build_request, percentile
from procs import LeakError, ServerGroup, become_subreaper
from workloads import BULK_ROWS, LATE_SHARE, WORKLOADS

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The benchmark stops itself (and its servers) after this long.
RUN_TIMEOUT_S = 150.0

#: The end-to-end metrics of ``--trace 0`` (BENCHMARK.json ``end_to_end``).
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "server_cpu_us_per_req": "us",
    "server_rss_mb": "MB",
}


class Stopped(Exception):
    """Raised in the main thread by SIGINT, SIGTERM or the run timeout."""


class InvalidRun(Exception):
    """The generator fell behind its schedule: reported, not counted."""


def _raise_stopped(signum, _frame):
    # One stop is enough: further signals must not interrupt teardown.
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(sig, signal.SIG_IGN)
    raise Stopped(signal.Signals(signum).name)


#: Output directory of the span recorders (``hook/perfbench_spans.py``).
PERFBENCH_SPANS = "PERFBENCH_SPANS"


class Run:
    """Owns every server, connection and temporary directory of a run,
    and tears all of them down in :meth:`close`."""

    def __init__(self) -> None:
        self.tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.servers: list[ServerGroup] = []
        self.conns: list[Conn] = []
        self.stop = threading.Event()
        self._serial = 0

    def _env(self, trace_dir: Path | None) -> dict[str, str]:
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)  # every set-up must be cold
        env.pop(PERFBENCH_SPANS, None)
        path = [str(SRC)]
        if trace_dir is not None:
            path.insert(0, str(HERE / "hook"))
            env[PERFBENCH_SPANS] = str(trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(path)
        return env

    def spawn(self, workload, *, trace_dir: Path | None = None) -> ServerGroup:
        """Start the workload's server (or fleet) and wait for /healthz."""
        self._serial += 1
        tmp_dirs: list[Path] = []
        preload = [arg for key in workload.preload() for arg in ("--preload", key)]
        if workload.fleet:
            cache = self.tmp / f"cache-{self._serial}"
            tmp_dirs.append(cache)
            argv = [
                sys.executable, "-m", "repro", "cluster", "serve",
                "--port", "0", "--workers", "2", "--replication", "1",
                "--cache-dir", str(cache), *preload,
            ]
        else:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0", *preload]
        server = ServerGroup(
            argv, env=self._env(trace_dir), cwd=ROOT, tmp_dirs=tmp_dirs
        )
        self.servers.append(server)
        server.wait_ready()
        server.wait_healthy()
        return server

    def connect(self, server: ServerGroup, count: int = 2) -> list[Conn]:
        conns = [Conn(server.host, server.port) for _ in range(count)]
        self.conns += conns
        return conns

    def stop_server(self, server: ServerGroup) -> None:
        """Close the clients first, so the server's drain has nothing to
        wait for, then stop the group."""
        self.stop.set()
        for conn in self.conns:
            conn.close()
        self.conns.clear()
        server.stop()
        self.stop.clear()

    def close(self) -> None:
        errors = []
        self.stop.set()
        for conn in self.conns:
            conn.close()
        for server in self.servers:
            try:
                server.stop()
            except LeakError as exc:
                errors.append(exc)
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
        if errors:
            raise errors[0]


def _stats(values: list[float]) -> dict[str, float]:
    return {
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "n": len(values),
    }


def _ok(samples) -> list:
    return [s for s in samples if not s.error and s.status == 200]


def _latency(phase, kind: str) -> dict[str, float]:
    return _stats([s.latency_ms for s in _ok(phase.samples[kind])])


def loadgen_validity(workload, phase) -> dict[str, float]:
    """Generator lateness and connection wait of the open-loop phase."""
    samples = _ok(phase.samples.get("predict", []))
    if not samples:
        return {}
    late_p99 = percentile([s.late * 1e3 for s in samples], 99)
    return {
        "late_p99_ms": late_p99,
        "conn_wait_p50_ms": percentile([s.conn_wait * 1e3 for s in samples], 50),
        "late_limit_ms": LATE_SHARE * workload.limit_ms,
        "valid": late_p99 <= LATE_SHARE * workload.limit_ms,
    }


def named_metrics(workload, phase, server) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of the workload under their own names."""
    out: dict[str, tuple[float, str]] = {}
    if "predict" in phase.samples:
        lat = _latency(phase, "predict")
        out["predict_p50_ms"] = (lat["p50"], "ms")
        out["predict_p90_ms"] = (lat["p90"], "ms")
        out["predict_p99_ms"] = (lat["p99"], "ms")
        out["predict_samples"] = (lat["n"], "count")
    if phase.ladder:
        passed = [s["rate"] for s in phase.ladder if s["passed"]]
        out["predict_max_rps"] = (max(passed) if passed else 0.0, "req/s")
    if "bulk" in phase.samples:
        lat = _latency(phase, "bulk")
        out["bulk_p50_ms"] = (lat["p50"], "ms")
        out["bulk_p90_ms"] = (lat["p90"], "ms")
        rows = len(_ok(phase.samples["bulk"])) * BULK_ROWS
        out["bulk_rows_per_s"] = (rows / phase.seconds, "rows/s")
        out["bulk_samples"] = (lat["n"], "count")
    if "calibrate" in phase.samples:
        lat = _latency(phase, "calibrate")
        out["calibrate_p50_ms"] = (lat["p50"], "ms")
        out["calibrate_p90_ms"] = (lat["p90"], "ms")
        out["calibrate_samples"] = (lat["n"], "count")
    completed = sum(len(_ok(s)) for s in phase.samples.values())
    out["server_cpu_us_per_req"] = (phase.cpu_s / max(completed, 1) * 1e6, "us")
    out["server_rss_mb"] = (server.peak_rss_mb(), "MB")
    return out


def _print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")


def run_untraced(run: Run, workload, seconds: float) -> tuple[dict, dict]:
    """Set up ``SETUP_REPEATS`` times (keeping the last server), run the
    timed phase, tear down.  Returns (named metrics, contract metrics)."""
    setups = []
    for i in range(SETUP_REPEATS):
        server = run.spawn(workload)
        setups.append(server.setup_s)
        if i + 1 < SETUP_REPEATS:
            run.stop_server(server)
    phase = workload.run(
        run.connect(server), server, seconds, run.stop, ladder=True
    )
    named = named_metrics(workload, phase, server)
    run.stop_server(server)
    workload.verify(phase)
    named = {"setup_s": (statistics.median(setups), "s"), **named}
    validity = loadgen_validity(workload, phase)
    if validity:
        named["loadgen.late_p99_ms"] = (validity["late_p99_ms"], "ms")
        named["loadgen.conn_wait_p50_ms"] = (validity["conn_wait_p50_ms"], "ms")
    for step in phase.ladder:
        print(
            f"  ladder {step['rate']:>6.0f} req/s: p99 "
            f"{step.get('p99_ms', float('nan')):.2f} ms, late p99 "
            f"{step.get('late_p99_ms', float('nan')):.2f} ms, conn wait p50 "
            f"{step.get('conn_wait_p50_ms', float('nan')):.2f} ms, "
            f"{'valid' if step['valid'] else 'INVALID'}, "
            f"{'pass' if step['passed'] else 'fail'}"
        )
    primary = _latency(phase, workload.primary)
    contract = {
        "setup_s": named["setup_s"][0],
        "latency_p50_ms": primary["p50"],
        "server_cpu_us_per_req": named["server_cpu_us_per_req"][0],
        "server_rss_mb": named["server_rss_mb"][0],
    }
    if validity and not validity["valid"]:
        raise InvalidRun(
            f"generator late p99 {validity['late_p99_ms']:.2f} ms exceeds "
            f"{validity['late_limit_ms']:.2f} ms ({LATE_SHARE:.0%} of the "
            f"{workload.limit_ms:g} ms limit)"
        )
    return named, contract


def _fetch_metrics(server: ServerGroup) -> dict:
    conn = Conn(server.host, server.port)
    try:
        status, body = conn.exchange(build_request("GET", "/metrics"))
    finally:
        conn.close()
    return json.loads(body) if status == 200 else {}


def run_traced(run: Run, workload, seconds: float) -> dict[str, float]:
    """Untraced then traced phase on the same schedule; per-layer metrics."""
    half = max(1.0, seconds / 2)
    server = run.spawn(workload)
    plain = workload.run(run.connect(server), server, half, run.stop, ladder=False)
    run.stop_server(server)
    workload.verify(plain)

    trace_dir = run.tmp / "spans"
    trace_dir.mkdir()
    server = run.spawn(workload, trace_dir=trace_dir)
    before = _fetch_metrics(server)
    traced = workload.run(run.connect(server), server, half, run.stop, ladder=False)
    after = _fetch_metrics(server)
    run.stop_server(server)
    workload.verify(traced)
    spans = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        spans.append(json.loads(path.read_text()))
    return layer_metrics(
        workload,
        plain=plain,
        traced=traced,
        span_files=spans,
        metrics_before=before,
        metrics_after=after,
        validity=loadgen_validity(workload, plain),
    )


def _result_line(workload, metrics: dict[str, dict]) -> str:
    checker = workload.checker
    return json.dumps(
        {
            "correct": checker.failed == 0,
            "attempted": max(checker.attempted, 1),
            "failed": checker.failed,
            "metrics": metrics,
        }
    )


def _report_answers(workload) -> None:
    checker = workload.checker
    ratio = checker.failed / max(checker.attempted, 1)
    print(
        f"  error_ratio {ratio:.6f} (attempted {checker.attempted}, "
        f"succeeded {checker.attempted - checker.failed}, failed "
        f"{checker.failed}, wrong answers {checker.wrong})"
    )
    for error in checker.errors:
        print(f"  failure: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--timeout", type=float, default=RUN_TIMEOUT_S,
        help="stop everything and fail after this many seconds",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no repro sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(sig, _raise_stopped)
    signal.setitimer(signal.ITIMER_REAL, args.timeout)
    become_subreaper()
    # The generator's threads hand the interpreter lock over every 0.5 ms
    # instead of 5 ms, so a thread whose request fell due does not wait
    # behind the other thread's response handling.
    sys.setswitchinterval(0.0005)
    compileall.compile_dir(SRC, quiet=2)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = Run()
    status = 0
    try:
        for name in names:
            workload = WORKLOADS[name](args.seed)
            if args.trace:
                layers = run_traced(run, workload, args.seconds)
                _print_table(f"{name}: per-layer (traced run)", {
                    k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()
                })
                metrics = {
                    k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                    for k, v in layers.items()
                }
            else:
                named, contract = run_untraced(run, workload, args.seconds)
                _print_table(f"{name}: end-to-end", named)
                metrics = {
                    k: {"value": v, "unit": E2E_UNITS[k]} for k, v in contract.items()
                }
            _report_answers(workload)
            if workload.checker.failed:
                status = 1
        if len(names) == 1:
            print(_result_line(workload, metrics), flush=True)
    except InvalidRun as exc:
        print(f"INVALID run (not counted): {exc}", file=sys.stderr)
        status = 3
    except Stopped as exc:
        print(f"stopped by {exc}; tearing down", file=sys.stderr)
        status = 4
    except LeakError as exc:
        print(f"LEAK: {exc}", file=sys.stderr)
        status = 5
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, signal.SIG_IGN)
        try:
            run.close()
        except LeakError as exc:
            print(f"LEAK: {exc}", file=sys.stderr)
            status = 5
    return status


if __name__ == "__main__":
    sys.exit(main())
