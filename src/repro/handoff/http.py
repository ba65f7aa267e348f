"""Minimal HTTP parsing for the hand-off prototype.

The front-end must *inspect the target content of a request prior to
assigning the request to a back-end node* (paper Section 5) — concretely,
it reads bytes from the accepted connection until the request head is
complete, extracts the method and target, and only then picks a back-end.
This module implements exactly that much HTTP: request-head parsing and
response serialization for GET over HTTP/1.0 and 1.1.

A *target*, per the paper's footnote, is "a URL and any applicable
arguments to the HTTP GET command" — i.e. the path including the query
string, which is what :attr:`HTTPRequest.target` carries.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "HTTPRequest",
    "HTTPError",
    "parse_request_head",
    "read_request_head",
    "build_response",
    "HEAD_TERMINATOR",
]

HEAD_TERMINATOR = b"\r\n\r\n"
_MAX_HEAD_BYTES = 16384
_RECV_BYTES = 65536


class HTTPError(ValueError):
    """Malformed request head."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(f"{status} {reason}")
        self.status = status
        self.reason = reason


@dataclass(frozen=True)
class HTTPRequest:
    """A parsed request head."""

    method: str
    target: str
    version: str
    headers: Dict[str, str] = field(default_factory=dict)
    head_bytes: int = 0

    @property
    def keep_alive(self) -> bool:
        """Connection persistence per HTTP/1.0 and 1.1 defaults."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"


def parse_request_head(data: bytes) -> Optional[HTTPRequest]:
    """Parse a request head from ``data``.

    Returns None when the head is not yet complete (caller should read
    more bytes), the parsed :class:`HTTPRequest` when it is, and raises
    :class:`HTTPError` on malformed or oversized input.
    """
    end = data.find(HEAD_TERMINATOR)
    if end < 0:
        if len(data) > _MAX_HEAD_BYTES:
            raise HTTPError(431, "request head too large")
        return None
    # The limit applies to the parsed head too: a complete oversized head
    # arriving in one buffer must be rejected, not accepted.
    if end + len(HEAD_TERMINATOR) > _MAX_HEAD_BYTES:
        raise HTTPError(431, "request head too large")
    head = data[:end]
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise HTTPError(400, "undecodable request head")
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HTTPError(505, f"unsupported version {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line: {line!r}")
        key = name.strip().lower()
        folded = value.strip()
        # RFC 9110 Section 5.2: a repeated field is equivalent to one
        # field whose value is the comma-joined list — fold, don't drop.
        if key in headers:
            headers[key] = f"{headers[key]}, {folded}"
        else:
            headers[key] = folded
    return HTTPRequest(
        method=method.upper(),
        target=target,
        version=version,
        headers=headers,
        head_bytes=end + len(HEAD_TERMINATOR),
    )


def read_request_head(
    conn: socket.socket, data: bytes
) -> Tuple[Optional[HTTPRequest], bytes]:
    """Read from ``conn`` until ``data`` holds a complete request head.

    Returns ``(request, data)``, where the bytes past
    ``request.head_bytes`` are pipelined leftovers, or ``(None, data)``
    when the peer closes first.  Raises :class:`HTTPError` as
    :func:`parse_request_head` does; socket errors propagate.
    """
    request = parse_request_head(data)
    while request is None:
        chunk = conn.recv(_RECV_BYTES)
        if not chunk:
            return None, data
        data += chunk
        request = parse_request_head(data)
    return request, data


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


def build_response(
    status: int,
    body: bytes = b"",
    keep_alive: bool = False,
    version: str = "HTTP/1.1",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialize a full response (head + body)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"{version} {status} {reason}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if extra_headers:
        lines.extend(f"{k}: {v}" for k, v in extra_headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
