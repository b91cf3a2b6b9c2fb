"""Load generator: keep-alive HTTP/1.1 connections driven open or closed loop.

Request bytes are built before timing starts.  Each connection is a
plain blocking socket owned by one thread, so the generator uses at most
two threads and two connections.

Open loop: request ``i`` is *due* at ``start + i / rate`` and goes to
connection ``i % len(conns)``.  Its latency is timed from the due time,
so a stall charges the wait it imposes on later requests.  Two waits
are told apart:

* ``conn_wait`` -- the connection was still busy with the previous
  request when this one fell due (the server's queueing, counted in
  latency);
* ``late`` -- the generator itself sent after both the due time and the
  connection were ready (scheduling or interpreter delay of the
  generator, which makes the phase invalid when it grows).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

__all__ = [
    "Conn",
    "Sample",
    "build_request",
    "closed_loop",
    "open_loop",
    "percentile",
]


def build_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def percentile(values: list[float], q: float) -> float:
    """Percentile (``q`` in 0..100) of a non-empty list, interpolating
    linearly between the two nearest ranks (so p50 is the median)."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Conn:
    """One keep-alive connection; ``exchange`` sends a request and reads
    one ``Content-Length`` framed response."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def exchange(self, wire: bytes) -> tuple[int, bytes]:
        self.sock.sendall(wire)
        buf = self._buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            self._fill(buf, 65536)
        head = bytes(buf[:end]).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = next(
            int(line.split(":", 1)[1])
            for line in head[1:]
            if line.lower().startswith("content-length:")
        )
        need = end + 4 + length
        while len(buf) < need:
            self._fill(buf, need - len(buf))
        body = bytes(buf[end + 4 : need])
        del buf[:need]
        return status, body

    def _fill(self, buf: bytearray, want: int) -> None:
        chunk = self.sock.recv(max(want, 65536))
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        buf += chunk

    def close(self) -> None:
        """Close now; also unblocks a thread waiting in ``exchange``."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


@dataclass
class Sample:
    """One request as the generator saw it (times from ``perf_counter``)."""

    tag: object
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    conn_wait: float = 0.0
    late: float = 0.0
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def _run_threads(targets: list, alongside=None) -> None:
    """Run ``targets`` on daemon threads and ``alongside`` on this one.

    On an exception the threads are left to the caller's teardown, which
    sets the stop event and closes their connections.
    """
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    if alongside is not None:
        alongside()
    for thread in threads:
        # Short joins keep the main thread responsive to signals.
        while thread.is_alive():
            thread.join(0.2)


def open_loop(
    conns: list[Conn],
    requests: list[tuple[object, bytes]],
    *,
    rate: float,
    stop: threading.Event,
    alongside=None,
) -> list[Sample]:
    """Send ``requests`` on schedule at ``rate`` req/s; one thread per
    connection, while ``alongside`` (if any) runs on the calling thread.
    Returns every sample sent, in schedule order."""
    start = time.perf_counter() + 0.05
    per_conn: list[list[Sample]] = [[] for _ in conns]

    def drive(index: int) -> None:
        conn, out = conns[index], per_conn[index]
        free_at = start
        for i in range(index, len(requests), len(conns)):
            if stop.is_set():
                return
            due = start + i / rate
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            tag, wire = requests[i]
            sent = time.perf_counter()
            try:
                status, body = conn.exchange(wire)
                error = ""
            except OSError as exc:
                status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            out.append(
                Sample(
                    tag,
                    due,
                    sent,
                    done,
                    status,
                    body,
                    conn_wait=max(0.0, free_at - due),
                    late=max(0.0, sent - max(due, free_at)),
                    error=error,
                )
            )
            if error:
                return  # the connection is unusable
            free_at = done

    _run_threads([lambda i=i: drive(i) for i in range(len(conns))], alongside)
    samples = [s for out in per_conn for s in out]
    samples.sort(key=lambda s: s.due)
    return samples


def closed_loop(
    conn: Conn,
    requests: list[tuple[object, bytes]],
    *,
    deadline: float,
    stop: threading.Event,
    on_sample=None,
    multiple: int = 1,
) -> list[Sample]:
    """Send ``requests`` back to back (cycling) until ``deadline``
    (a ``perf_counter`` time), then on until the count is a multiple of
    ``multiple``.  ``on_sample`` sees each sample as it completes,
    outside the timed interval."""
    samples: list[Sample] = []
    i = 0
    while not stop.is_set() and (time.perf_counter() < deadline or i % multiple):
        tag, wire = requests[i % len(requests)]
        i += 1
        sent = time.perf_counter()
        try:
            status, body = conn.exchange(wire)
            error = ""
        except OSError as exc:
            status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        sample = Sample(tag, sent, sent, done, status, body, error=error)
        if on_sample is not None:
            on_sample(sample)
        samples.append(sample)
        if error:
            break
    return samples
