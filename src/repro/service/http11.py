"""Minimal HTTP/1.1 framing shared by the service and the cluster tier.

A connection carries JSON requests and JSON responses, which keeps the
parser small enough to audit: a request line, up to
:data:`MAX_HEADER_LINES` headers of which only ``Content-Length`` and
``Connection`` matter, and an exact-length body.  Connections close
after one exchange unless the client explicitly opts into
``Connection: keep-alive`` — the conservative default keeps the stdlib
``http.client`` (which the blocking :class:`ServiceClient` uses)
behaving exactly as before, while the router's worker pool reuses its
streams across forwards.

Three parties speak this dialect:

* :class:`~repro.service.server.ContentionService` — the worker-side
  server, whose connections run on an :class:`HttpServer`;
* :class:`~repro.cluster.router.ClusterRouter` — both sides: its client
  connections run on an :class:`HttpServer` too, and it forwards
  requests to workers through a :class:`~repro.cluster.pool.WorkerPool`
  of keep-alive streams (:func:`encode_request` / :func:`read_response`);
* the stdlib ``http.client`` used by :class:`ServiceClient`, which
  interoperates because this *is* plain HTTP/1.1.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable

from repro.errors import ServiceError
from repro.service.protocol import error_payload

__all__ = [
    "HttpError",
    "HttpServer",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "REASONS",
    "encode_request",
    "read_request",
    "read_response",
    "request",
    "write_response",
]

MAX_BODY_BYTES = 1 << 20
MAX_HEADER_LINES = 100

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """Protocol-level failure with a fixed HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _content_length(value: str, status: int) -> int:
    """A ``Content-Length`` value; anything but a non-negative integer
    is a framing error reported with ``status``."""
    try:
        length = int(value.strip())
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(status, "invalid Content-Length")
    return length


# ---- server half -----------------------------------------------------------------


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes, bool]:
    """Parse one request off a stream -> ``(method, path, body, keep_alive)``.

    ``keep_alive`` is True only when the client explicitly sent
    ``Connection: keep-alive`` — a server loop that honours it keeps
    reading requests off the same stream; everything else keeps the
    historical close-after-one behaviour.  Raises :class:`HttpError`
    for malformed framing; a peer that closed between requests (EOF
    before any request line) raises :class:`ConnectionResetError` so
    connection loops can distinguish a clean close from garbage.
    The query string, if any, is stripped — the API is body-driven.
    """
    raw_line = await reader.readline()
    if not raw_line:
        raise ConnectionResetError("peer closed the connection")
    request_line = raw_line.decode("latin-1").strip()
    if not request_line:
        raise HttpError(400, "empty request")
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts
    content_length = 0
    keep_alive = False
    for _ in range(MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        header = name.strip().lower()
        if header == "content-length":
            content_length = _content_length(value, 400)
        elif header == "connection":
            keep_alive = value.strip().lower() == "keep-alive"
    else:
        raise HttpError(400, "too many headers")
    if content_length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = (
        await reader.readexactly(content_length) if content_length else b""
    )
    path = target.split("?", 1)[0]
    return method, path, body, keep_alive


def encode_response(
    status: int, body: bytes, *, keep_alive: bool = False
) -> bytes:
    """One complete JSON response as wire bytes."""
    reason = REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict | bytes,
    *,
    keep_alive: bool = False,
) -> None:
    """Serialise and send one response; a vanished client is not an error."""
    body = (
        payload
        if isinstance(payload, bytes)
        else json.dumps(payload).encode("utf-8")
    )
    try:
        writer.write(encode_response(status, body, keep_alive=keep_alive))
        await writer.drain()
    except (ConnectionError, OSError):
        pass  # client went away; nothing to salvage


#: ``handle(method, path, body) -> (status, payload)`` of an HttpServer.
Handler = Callable[[str, str, bytes], Awaitable[tuple[int, "dict | bytes"]]]


class HttpServer:
    """The keep-alive connection loop and graceful drain shared by the
    service and the router.

    ``handle`` answers one parsed request.  A connection is *idle* while
    it waits for its next request and *busy* from a request read in
    full until its response is written.  :meth:`close` stops accepting,
    closes idle connections at once, lets busy ones finish their
    exchange (answered with ``Connection: close``) and cancels those
    still busy after ``drain_timeout_s``.
    """

    def __init__(self, handle: Handler) -> None:
        self._handle = handle
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._idle: set[asyncio.Task] = set()
        self._closing = False

    @property
    def port(self) -> int | None:
        """The bound port (useful with ``port=0``); ``None`` if unstarted."""
        if self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )

    async def close(self, drain_timeout_s: float) -> None:
        """Stop accepting, drain busy connections, drop idle ones."""
        if self._server is not None:
            self._server.close()
        self._closing = True
        for task in self._idle:
            task.cancel()
        pending = {t for t in self._connections if not t.done()}
        if pending:
            _, stragglers = await asyncio.wait(
                pending, timeout=drain_timeout_s
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            # Serve requests until the client closes or stops asking for
            # keep-alive; one-shot clients exit the loop after one turn.
            while not self._closing:
                self._idle.add(task)
                try:
                    method, path, body, keep_alive = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer,
                        exc.status,
                        error_payload(
                            ServiceError(str(exc)), status=exc.status
                        ),
                    )
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away mid-request or between requests
                finally:
                    self._idle.discard(task)
                status, payload = await self._handle(method, path, body)
                keep_alive = keep_alive and not self._closing
                await write_response(
                    writer, status, payload, keep_alive=keep_alive
                )
                if not keep_alive:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# ---- client half (used by the router to reach workers) ---------------------------


def encode_request(
    method: str, path: str, body: bytes | None, *, keep_alive: bool = False
) -> bytes:
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: cluster\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {0 if body is None else len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + (body or b"")


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, bytes, bool]:
    """Parse one response off a stream -> ``(status, body, reusable)``.

    ``reusable`` is True only when the server explicitly answered
    ``Connection: keep-alive`` — the stream can carry another exchange.
    A peer that closed before sending a status line raises
    :class:`ConnectionResetError` (the signature of a parked keep-alive
    stream the server timed out); malformed framing raises
    :class:`HttpError` with a 502.
    """
    raw_line = await reader.readline()
    if not raw_line:
        raise ConnectionResetError("peer closed the connection")
    status_line = raw_line.decode("latin-1").strip()
    parts = status_line.split(maxsplit=2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(502, f"malformed status line {status_line!r}")
    status = int(parts[1])
    content_length: int | None = None
    reusable = False
    for _ in range(MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        header = name.strip().lower()
        if header == "content-length":
            content_length = _content_length(value, 502)
        elif header == "connection":
            reusable = value.strip().lower() == "keep-alive"
    else:
        raise HttpError(502, "too many headers in response")
    if content_length is not None:
        if content_length > MAX_BODY_BYTES:
            raise HttpError(502, "response body too large")
        payload = await reader.readexactly(content_length)
    else:
        # No length means the body runs to EOF: the stream cannot be
        # reused regardless of what the Connection header claimed.
        reusable = False
        payload = await reader.read(MAX_BODY_BYTES + 1)
        if len(payload) > MAX_BODY_BYTES:
            raise HttpError(502, "response body too large")
    return status, payload, reusable


async def _request_on_stream(
    host: str, port: int, method: str, path: str, body: bytes | None
) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_request(method, path, body))
        await writer.drain()
        status, payload, _reusable = await read_response(reader)
        return status, payload
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    *,
    timeout: float = 30.0,
) -> tuple[int, bytes]:
    """One async request -> ``(status, raw body)``.

    Connection-level failures propagate as their concrete ``OSError``
    subclasses (``ConnectionRefusedError``, ``ConnectionResetError``,
    ``asyncio.TimeoutError``…) so callers can distinguish a dead peer —
    the router's failover trigger — from an HTTP-level error response,
    which is returned, never raised.
    """
    return await asyncio.wait_for(
        _request_on_stream(host, port, method, path, body), timeout=timeout
    )
