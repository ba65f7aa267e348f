"""Closed-loop HTTP load generator (the paper's client software).

"Our client software is an event-driven program that simulates multiple
HTTP clients.  Each simulated HTTP client makes HTTP requests as fast as
the server cluster can handle them."  Here each simulated client is a
thread in a closed loop: connect, send GET, read the full response,
repeat — optionally reusing a persistent connection for several requests.

Responses are fully parsed (status line + Content-Length framing) and can
be verified byte-for-byte against the :class:`DocumentStore`, so the
prototype benches double as end-to-end correctness checks.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .http import HEAD_TERMINATOR

__all__ = ["LoadGenerator", "LoadResult", "fetch_one"]

_RECV_BYTES = 65536


class _ResponseError(RuntimeError):
    pass


def _read_response(conn: socket.socket, buffered: bytes) -> Tuple[int, bytes, bytes, bool]:
    """Read one response; returns (status, body, leftover, keep_alive)."""
    data = buffered
    while HEAD_TERMINATOR not in data:
        chunk = conn.recv(_RECV_BYTES)
        if not chunk:
            raise _ResponseError("connection closed mid-head")
        data += chunk
    head, _, rest = data.partition(HEAD_TERMINATOR)
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2:
        raise _ResponseError(f"malformed status line {lines[0]!r}")
    status = int(parts[1])
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = conn.recv(_RECV_BYTES)
        if not chunk:
            raise _ResponseError("connection closed mid-body")
        rest += chunk
    keep_alive = headers.get("connection", "").lower() == "keep-alive"
    return status, rest[:length], rest[length:], keep_alive


def fetch_one(
    address: Tuple[str, int],
    path: str,
    timeout: float = 10.0,
    version: str = "HTTP/1.1",
    keep_alive: bool = False,
) -> Tuple[int, bytes]:
    """One-shot GET; returns (status, body)."""
    with socket.create_connection(address, timeout=timeout) as conn:
        connection = "keep-alive" if keep_alive else "close"
        conn.sendall(
            f"GET {path} {version}\r\nHost: cluster\r\nConnection: {connection}\r\n\r\n".encode()
        )
        status, body, _, _ = _read_response(conn, b"")
        return status, body


@dataclass
class LoadResult:
    """Aggregate measurements from one load-generation run."""

    requests: int = 0
    errors: int = 0
    #: Requests answered ``503 Service Unavailable`` — the server refused
    #: cleanly (admission timeout or no surviving back-end), as opposed to
    #: an error, where no usable response arrived at all.
    rejected: int = 0
    #: Transport failures recovered by client-side retry.
    retries: int = 0
    bytes_received: int = 0
    elapsed_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def answered(self) -> int:
        """Requests that received *some* HTTP response (success or 503)."""
        return self.requests + self.rejected

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def mean_latency_s(self) -> float:
        return sum(self.latencies_s) / len(self.latencies_s) if self.latencies_s else 0.0


class LoadGenerator:
    """Drives a cluster with ``concurrency`` closed-loop HTTP clients.

    Parameters
    ----------
    address:
        Front-end (host, port).
    urls:
        Request stream; workers consume it round-robin by a shared cursor.
    concurrency:
        Number of simultaneous simulated clients.
    requests_per_connection:
        >1 exercises persistent connections (HTTP/1.1 keep-alive).
    verify:
        Optional ``fn(path, body) -> bool``; failures count as errors.
    retry_errors:
        Transport failures (connection reset/closed mid-response) are
        retried this many times on a fresh connection before counting as
        an error — what any real HTTP client does for idempotent GETs,
        and what makes a mid-run back-end crash invisible to clients.
        ``503`` responses are *not* retried; they are counted in
        :attr:`LoadResult.rejected`.
    """

    #: The round-robin URL cursor is shared by every client thread.
    __guarded_by__ = {"_cursor": "_cursor_lock"}

    def __init__(
        self,
        address: Tuple[str, int],
        urls: Sequence[str],
        concurrency: int = 8,
        requests_per_connection: int = 1,
        verify: Optional[Callable[[str, bytes], bool]] = None,
        timeout_s: float = 30.0,
        retry_errors: int = 0,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"need at least one client, got {concurrency}")
        if requests_per_connection < 1:
            raise ValueError("requests_per_connection must be >= 1")
        if not urls:
            raise ValueError("need at least one URL")
        if retry_errors < 0:
            raise ValueError("retry_errors must be >= 0")
        self.address = address
        self.urls = list(urls)
        self.concurrency = concurrency
        self.requests_per_connection = requests_per_connection
        self.verify = verify
        self.timeout_s = timeout_s
        self.retry_errors = retry_errors
        self._cursor = 0
        self._cursor_lock = threading.Lock()

    def _next_urls(self, count: int) -> List[str]:
        with self._cursor_lock:
            start = self._cursor
            self._cursor += count
        return [self.urls[(start + i) % len(self.urls)] for i in range(count)]

    def run(self, total_requests: int) -> LoadResult:
        """Issue ``total_requests`` requests and return aggregate results."""
        if total_requests < 1:
            raise ValueError("total_requests must be >= 1")
        result = LoadResult()
        result_lock = threading.Lock()
        remaining = [total_requests]

        def take(count: int) -> int:
            with result_lock:
                granted = min(count, remaining[0])
                remaining[0] -= granted
                return granted

        def worker() -> None:
            while True:
                batch = take(self.requests_per_connection)
                if batch == 0:
                    return
                paths = self._next_urls(batch)
                served, errors, rejected, received, latencies, failed = (
                    self._run_connection(paths)
                )
                retries = 0
                for path in failed:
                    outcome, nbytes, latency = self._retry_one(path)
                    if outcome == "ok":
                        retries += 1
                        served += 1
                        received += nbytes
                        latencies.append(latency)
                    elif outcome == "rejected":
                        retries += 1
                        rejected += 1
                    else:
                        errors += 1
                with result_lock:
                    result.requests += served
                    result.errors += errors
                    result.rejected += rejected
                    result.retries += retries
                    result.bytes_received += received
                    result.latencies_s.extend(latencies)

        threads = [
            threading.Thread(target=worker, name=f"client-{i}", daemon=True)
            for i in range(self.concurrency)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.elapsed_s = time.perf_counter() - started
        return result

    def _run_connection(self, paths: List[str]):
        """Issue ``paths`` on one (possibly persistent) connection.

        Returns ``(served, errors, rejected, received, latencies,
        failed_paths)`` where ``failed_paths`` are requests that hit a
        transport failure (including those never attempted because the
        connection broke) — candidates for client-side retry.
        """
        served = 0
        errors = 0
        rejected = 0
        received = 0
        latencies: List[float] = []
        persistent = self.requests_per_connection > 1
        try:
            conn = socket.create_connection(self.address, timeout=self.timeout_s)
        except OSError:
            return served, errors, rejected, received, latencies, list(paths)
        buffered = b""
        failed: List[str] = []
        try:
            for index, path in enumerate(paths):
                last = index == len(paths) - 1
                connection = "close" if (last or not persistent) else "keep-alive"
                started = time.perf_counter()
                try:
                    conn.sendall(
                        f"GET {path} HTTP/1.1\r\nHost: cluster\r\n"
                        f"Connection: {connection}\r\n\r\n".encode()
                    )
                    status, body, buffered, _ = _read_response(conn, buffered)
                except (OSError, _ResponseError, ValueError):
                    failed = list(paths[index:])
                    break
                latencies.append(time.perf_counter() - started)
                if status == 503:
                    rejected += 1
                elif status == 200 and (self.verify is None or self.verify(path, body)):
                    served += 1
                    received += len(body)
                else:
                    errors += 1
        finally:
            try:
                conn.close()
            except OSError:
                pass
        return served, errors, rejected, received, latencies, failed

    def _retry_one(self, path: str):
        """Retry one request on fresh connections after a transport failure.

        Returns ``(outcome, bytes, latency_s)`` with outcome one of
        ``"ok"``, ``"rejected"`` (503), or ``"error"``.
        """
        for _ in range(self.retry_errors):
            started = time.perf_counter()
            try:
                with socket.create_connection(
                    self.address, timeout=self.timeout_s
                ) as conn:
                    conn.sendall(
                        f"GET {path} HTTP/1.1\r\nHost: cluster\r\n"
                        "Connection: close\r\n\r\n".encode()
                    )
                    status, body, _, _ = _read_response(conn, b"")
            except (OSError, _ResponseError, ValueError):
                continue
            if status == 503:
                return "rejected", 0, 0.0
            if status == 200 and (self.verify is None or self.verify(path, body)):
                return "ok", len(body), time.perf_counter() - started
            return "error", 0, 0.0
        return "error", 0, 0.0
