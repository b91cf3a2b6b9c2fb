"""Smoke runs and schema checks of the serving benchmark.

Run from the root of a checkout (takes about two minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

from layers import PER_LAYER_UNITS  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _benchmark_processes() -> list[str]:
    """Command lines of live ``repro`` servers running in this checkout."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            argv = Path(f"/proc/{entry}/cmdline").read_bytes().split(b"\0")
            cwd = Path(os.readlink(f"/proc/{entry}/cwd"))
        except OSError:
            continue
        if b"repro" in argv and b"--port" in argv and cwd == ROOT:
            found.append(b" ".join(argv).decode(errors="replace"))
    return found


def _assert_clean() -> None:
    deadline = time.monotonic() + 2.0
    while _benchmark_processes() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _benchmark_processes() == []
    assert not (ROOT / ".perfbench_tmp").exists()


def _run(*args: str, timeout: float = 170.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_schema_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_metric(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "2", "--trace", trace
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = E2E_UNITS if trace == "0" else PER_LAYER_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    _assert_clean()


def test_sigint_tears_everything_down():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "30"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    time.sleep(8)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 4, err
    assert '"correct"' not in out  # an interrupted run prints no result
    _assert_clean()


def test_self_timeout_tears_everything_down():
    done = _run(
        "--workload", "scalar", "--seed", "1", "--seconds", "30", "--timeout", "5"
    )
    assert done.returncode == 4
    assert "SIGALRM" in done.stderr
    _assert_clean()
