"""Server processes under test: spawn, readiness, /proc accounting, teardown.

Every server (``repro serve``) or fleet (``repro cluster serve``) runs in
its own session, so its process group holds the server and everything it
spawns (the fleet's workers).  :meth:`ServerGroup.stop` is the single
teardown path, used on normal exit, exceptions, signals and timeouts:

1. the caller has already closed every client connection;
2. SIGINT goes to the group leader, which drains and exits;
3. the leader gets longer than the server's 10 s drain to do so;
4. the whole group is SIGKILLed and reaped;
5. the temporary directories are deleted;
6. any process still in the group fails the run (:class:`LeakError`).
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

__all__ = [
    "DRAIN_WAIT_S",
    "LeakError",
    "ServerGroup",
    "become_subreaper",
    "group_pids",
]

#: Longer than the server's own 10 s shutdown drain.
DRAIN_WAIT_S = 12.0
#: ``serve`` and ``cluster serve`` both end their ready line with the URL.
_READY = re.compile(r" on http://([0-9A-Za-z.\-]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class LeakError(RuntimeError):
    """A process of a stopped server group is still alive."""


def become_subreaper() -> None:
    """Adopt orphaned descendants so that killed fleets can be reaped.

    Without this, a worker whose router was SIGKILLed is re-parented to
    PID 1, which in a container may never reap it.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2 :].split()


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields and int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


class ServerGroup:
    """One server or fleet process group plus its temporary directories."""

    def __init__(
        self,
        argv: list[str],
        *,
        env: dict[str, str],
        cwd: Path,
        tmp_dirs: list[Path],
    ) -> None:
        self.tmp_dirs = tmp_dirs
        self.output: list[str] = []
        self._ready = threading.Event()
        self.host = ""
        self.port = 0
        #: Seconds from spawn to the first 200 from ``/healthz``.
        self.setup_s = 0.0
        self.stopped = False
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        """Wait for the ready line and read the bound port from it."""
        deadline = time.monotonic() + timeout_s
        # Short waits keep the main thread responsive to signals.
        while not self._ready.wait(0.2):
            if time.monotonic() > deadline:
                break
        if not self.port:
            raise RuntimeError(
                "server printed no ready line:\n" + self.log_tail()
            )

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace").rstrip()
            if len(self.output) < 2000:
                self.output.append(line)
            match = _READY.search(line)
            if match and not self._ready.is_set():
                self.host, self.port = match.group(1), int(match.group(2))
                self._ready.set()
        self._ready.set()  # EOF: wake the waiter, which sees no port

    def log_tail(self, lines: int = 30) -> str:
        return "\n".join(self.output[-lines:])

    def wait_healthy(self, timeout_s: float = 60.0) -> float:
        """Poll ``GET /healthz`` until it answers 200; returns the time
        from spawn to that answer (the set-up time)."""
        deadline = time.monotonic() + timeout_s
        request = (
            b"GET /healthz HTTP/1.1\r\nHost: bench\r\n"
            b"Connection: close\r\n\r\n"
        )
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=5.0
                ) as sock:
                    sock.sendall(request)
                    head = sock.recv(64)
                if head.startswith(b"HTTP/1.1 200"):
                    self.setup_s = time.perf_counter() - self.spawned_at
                    return self.setup_s
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz:\n" + self.log_tail())

    # ---- /proc accounting --------------------------------------------------------

    def cpu_seconds(self) -> float:
        """User + system CPU of every live process of the group."""
        total = 0
        for pid in group_pids(self.pgid):
            fields = _stat_fields(pid)
            if fields:
                total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Peak RSS (``VmHWM``) summed over the group's processes."""
        total_kb = 0
        for pid in group_pids(self.pgid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    # ---- teardown ----------------------------------------------------------------

    def stop(self) -> None:
        """Stop the group (see the module docstring).  Idempotent."""
        if self.stopped:
            return
        self.stopped = True
        try:
            if self.proc.poll() is None:
                try:
                    self.proc.send_signal(signal.SIGINT)
                    self.proc.wait(timeout=DRAIN_WAIT_S)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self.proc.wait()
            deadline = time.monotonic() + 5.0
            while True:
                _reap_orphans()
                left = group_pids(self.pgid)
                if not left or time.monotonic() > deadline:
                    break
                time.sleep(0.02)
            if self.proc.stdout is not None:
                self._reader.join(timeout=5.0)
                self.proc.stdout.close()
        finally:
            for path in self.tmp_dirs:
                shutil.rmtree(path, ignore_errors=True)
        if left:
            raise LeakError(
                f"process(es) {left} of group {self.pgid} outlived SIGKILL"
            )
