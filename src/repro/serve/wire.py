"""Length-prefixed pickle framing over a stream socket.

The serve daemon speaks the PR 4 run protocol verbatim — picklable
:class:`~repro.apps.harness.RunRequest` in,
:class:`~repro.apps.harness.RunResult` (or a pickled
:class:`~repro.serve.errors.ServiceError` instance) out — so the wire
layer only needs framing: an 8-byte big-endian length followed by the
pickle bytes.  Frames are capped at :data:`MAX_FRAME` to keep a
corrupt or hostile length prefix from ballooning a read into memory
exhaustion; anything malformed raises
:class:`~repro.serve.errors.ServiceProtocolError`.

Trust model: the daemon binds localhost and the protocol is pickle —
the same trust boundary as the service's own worker pipes, which
already ship pickled requests between local processes.  Do not expose
the port beyond the machine.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

from repro.serve.errors import ServiceProtocolError

#: struct format of the length prefix (8-byte unsigned big-endian).
_HEADER = struct.Struct("!Q")

#: Hard cap on a single frame (1 GiB) — far above any real RunResult,
#: low enough to bound the damage of a garbage length prefix.
MAX_FRAME = 1 << 30


def send_frame(sock, obj: Any) -> None:
    """Pickle *obj* and write one length-prefixed frame to *sock*."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock, n: int) -> bytes:
    """Read exactly *n* bytes or raise on EOF mid-frame."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> Any:
    """Read one frame from *sock*; EOFError on a clean close.

    A clean close *between* frames raises plain :class:`EOFError`
    (callers treat it as end-of-conversation); a torn or oversized
    frame raises :class:`ServiceProtocolError`.
    """
    header = sock.recv(_HEADER.size)
    if not header:
        raise EOFError("connection closed")
    while len(header) < _HEADER.size:
        more = sock.recv(_HEADER.size - len(header))
        if not more:
            raise ServiceProtocolError(
                f"torn frame header ({len(header)} of "
                f"{_HEADER.size} bytes)")
        header += more
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServiceProtocolError(
            f"frame length {length} exceeds cap {MAX_FRAME}")
    try:
        payload = _recv_exact(sock, length)
    except EOFError as exc:
        raise ServiceProtocolError(f"torn frame body: {exc}") from exc
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise ServiceProtocolError(
            f"undecodable frame payload: {type(exc).__name__}: "
            f"{exc}") from exc
