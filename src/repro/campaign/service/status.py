"""Live campaign status: polling JSON and SSE streaming over plain HTTP.

The status server is a deliberately tiny hand-rolled HTTP/1.1 responder
on asyncio streams — the repo's no-new-dependencies rule rules out web
frameworks, and two fixed routes do not justify one:

``GET /status``
    One JSON snapshot: service metadata, full scheduler state (points,
    workers, leases, counters) and the live merged obs-registry
    rollup of every completed point.
``GET /events``
    The same snapshot as a ``text/event-stream`` (SSE): one ``status``
    event per update interval until the client disconnects.  SSE rides on
    bare HTTP, works with ``curl -N`` and browsers' ``EventSource``, and
    needs no websocket machinery.

The client half — :func:`fetch_status`, :func:`iter_status_events`,
:func:`render_service_status`, :func:`watch` — backs ``repro campaign
watch`` and the smoke tests, and sticks to the stdlib for the same
reason.
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import time
import urllib.request
from typing import Iterator, Optional

__all__ = [
    "StatusServer",
    "fetch_status",
    "iter_status_events",
    "render_service_status",
    "watch",
]


class StatusServer:
    """Polling-JSON + SSE endpoint for one :class:`CampaignService`."""

    def __init__(
        self, service, host: str, port: int, *, sse_interval_s: float = 1.0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.sse_interval_s = sse_interval_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # SSE subscribers stream until *they* hang up; at service stop we
        # hang up on them instead of leaking their handler tasks
        for task in list(self._conns):
            task.cancel()
        await asyncio.gather(*self._conns, return_exceptions=True)
        self._conns.clear()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        try:
            request = await reader.readline()
            parts = request.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:  # drain request headers
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if path.startswith("/events"):
                await self._serve_events(writer)
            elif path.startswith("/status"):
                self._respond_json(writer, self.service._status_unlocked())
            else:
                self._respond_json(
                    writer,
                    {"routes": ["/status", "/events"]},
                    status="404 Not Found",
                )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass
        finally:
            if task is not None:
                self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):  # pragma: no cover
                pass

    def _respond_json(
        self, writer: asyncio.StreamWriter, payload: dict, *, status: str = "200 OK"
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )

    async def _serve_events(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        while not writer.is_closing():
            body = json.dumps(self.service._status_unlocked(), sort_keys=True)
            writer.write(f"event: status\ndata: {body}\n\n".encode("utf-8"))
            await writer.drain()
            await asyncio.sleep(self.sse_interval_s)


# -- client side -----------------------------------------------------------------
def fetch_status(host: str, port: int, *, timeout_s: float = 10.0) -> dict:
    """One ``GET /status`` poll; returns the parsed snapshot."""
    with urllib.request.urlopen(
        f"http://{host}:{port}/status", timeout=timeout_s
    ) as response:
        return json.loads(response.read().decode("utf-8"))


def iter_status_events(
    host: str, port: int, *, timeout_s: Optional[float] = None
) -> Iterator[dict]:
    """Subscribe to ``GET /events``; yields one snapshot per SSE event.

    Runs until the server closes the stream (service stopped) or the
    optional socket timeout fires.
    """
    sock = socket.create_connection((host, port), timeout=timeout_s)
    try:
        sock.sendall(
            f"GET /events HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")
        )
        fh = sock.makefile("rb")
        while True:  # skip response headers
            line = fh.readline()
            if not line:
                return
            if line in (b"\r\n", b"\n"):
                break
        for raw in fh:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("data: "):
                yield json.loads(line[len("data: "):])
    finally:
        sock.close()


def render_service_status(snapshot: dict) -> str:
    """The live-service counterpart of ``render_campaign_status``."""
    service = snapshot.get("service", {})
    scheduler = snapshot.get("scheduler", {})
    points = scheduler.get("points", {})
    lines = [
        f"campaign service @ {service.get('store', '?')}",
        (
            f"  uptime: {service.get('uptime_s', 0.0):.1f}s"
            f"  sealed: {'yes' if service.get('sealed') else 'no'}"
            f"  connections: {service.get('connections', 0)}"
        ),
        (
            f"  points: {points.get('done', 0)}/{points.get('total', 0)} done,"
            f" {points.get('leased', 0)} leased,"
            f" {points.get('pending', 0)} pending,"
            f" {points.get('failed', 0)} failed"
        ),
    ]
    for worker, info in sorted(scheduler.get("workers", {}).items()):
        leases = ", ".join(d[:8] for d in info.get("leases", [])) or "idle"
        lines.append(f"  worker {worker}: {leases}")
    for digest, info in sorted(scheduler.get("leases", {}).items()):
        lines.append(
            f"  lease {digest[:8]}: {info.get('worker')}"
            f" expires in {info.get('expires_in_s', 0.0):.1f}s"
        )
    for digest, info in sorted(scheduler.get("failed_points", {}).items()):
        lines.append(
            f"  FAILED {info.get('label')} [{info.get('kind')}]:"
            f" {info.get('error')}"
        )
    counters = scheduler.get("counters", {})
    if counters:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        lines.append(f"  counters: {rendered}")
    return "\n".join(lines)


def watch(
    host: str,
    port: int,
    *,
    interval_s: float = 1.0,
    stream=None,
    max_updates: Optional[int] = None,
) -> int:
    """Poll and render status until the campaign drains; CLI backend.

    Returns the number of failed points seen in the final snapshot (so
    ``repro campaign watch`` can exit non-zero on failures).  Stops when
    the service is sealed with nothing pending or leased, when the
    service goes away, or after ``max_updates`` polls.
    """
    stream = stream or sys.stdout
    updates = 0
    snapshot: dict = {}
    while True:
        try:
            snapshot = fetch_status(host, port)
        except (ConnectionError, OSError):
            print("service is gone; stopping watch", file=stream)
            break
        print(render_service_status(snapshot), file=stream)
        print("--", file=stream)
        updates += 1
        points = snapshot.get("scheduler", {}).get("points", {})
        drained = (
            points.get("pending", 0) == 0 and points.get("leased", 0) == 0
        )
        if snapshot.get("service", {}).get("sealed") and drained:
            break
        if max_updates is not None and updates >= max_updates:
            break
        time.sleep(interval_s)
    return len(snapshot.get("scheduler", {}).get("failed_points", {}))
