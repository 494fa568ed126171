"""Line-delimited-JSON worker protocol: framing and message vocabulary.

One campaign service talks to N remote workers over TCP.  Every message
is a single JSON object on one ``\\n``-terminated line — trivially
debuggable with ``nc`` and immune to partial-read framing bugs.

The conversation is strict lockstep request/response from the worker's
point of view, with exactly one exception:

========== =============================== ===========================
direction  message                          reply
========== =============================== ===========================
worker →   ``hello`` {worker,               ``welcome`` {lease_ttl,
           schema_version,                  heartbeat_s, schema_version}
           protocol_version}
worker →   ``claim`` {}                     ``lease`` {digest, config,
                                            label, attempt} |
                                            ``idle`` {retry_after_s} |
                                            ``done`` {}
worker →   ``heartbeat`` {digest}           *(no reply — see below)*
worker →   ``result`` {digest, artifact,    ``ack`` {status}
           attempts, slot_forks}
worker →   ``point-failed`` {digest,        ``ack`` {status}
           error, kind, attempts,
           slot_forks}
worker →   ``bye`` {}                       *(connection closes)*
========== =============================== ===========================

Heartbeats are deliberately unacknowledged: they are sent from a side
thread while the worker's main thread is blocked running a point, and an
ack would race the main thread's pending request/response pairing.  The
server replies ``error`` {detail} to malformed or out-of-order traffic.

A ``welcome`` whose ``schema_version`` differs from the worker's store
schema aborts the session — shipping artifacts across schema versions
would poison the store (same refusal the :class:`~repro.campaign.store.
StoreSchemaError` path enforces on disk).
"""

from __future__ import annotations

import json
import socket
from typing import Optional

__all__ = [
    "PROTOCOL_VERSION",
    "encode",
    "decode",
    "send_line",
    "recv_line",
    "ProtocolError",
]

#: bumped when the message vocabulary changes incompatibly
PROTOCOL_VERSION = 1

#: generous per-line bound — an artifact for a paper-scale point is ~10 kB;
#: anything near this bound is a framing bug, not data
MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed or out-of-order worker-protocol traffic."""


def encode(message: dict) -> bytes:
    """One message as a single LDJSON line (compact separators)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes | str) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"protocol message must be an object with a "
                            f"'type' field, got: {line[:200]!r}")
    return message


def send_line(sock: socket.socket, message: dict) -> None:
    """Ship one message over a blocking socket (used by the worker client)."""
    sock.sendall(encode(message))


def recv_line(fh) -> Optional[dict]:
    """Read one message from a binary socket makefile; ``None`` on clean EOF."""
    line = fh.readline(MAX_LINE_BYTES)
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError(
            f"oversized or truncated protocol line ({len(line)} bytes)"
        )
    return decode(line)
