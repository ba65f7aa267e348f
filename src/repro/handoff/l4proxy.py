"""Layer-4 proxy front-end — the commercial comparator (paper Section 7).

"State-of-the-art commercial cluster front-ends (e.g. Cisco LocalDirector,
IBM Network Dispatcher) assign requests without regard to the requested
content and can therefore forward client requests to a back-end node prior
to establishing a connection with the client."  Two consequences the paper
exploits:

* such a front-end **cannot** run LARD — it never sees the URL before
  committing to a back-end — so only load-based policies (WRR) apply;
* because the client's connection terminates at (or is relayed through)
  the front-end, response bytes flow *through* it, unlike hand-off where
  the back-end answers the client directly.

:class:`L4ProxyFrontEnd` implements the relay variant in user space:
accept, pick a back-end by WRR *before reading a single request byte*,
open a TCP connection to that back-end, and pump bytes both ways.  The
per-byte relay cost it pays on the response path is precisely what the
paper's hand-off protocol eliminates; the sec6.2 bench quantifies the
difference on the same workload.

Back-ends must run in *listening* mode
(:meth:`repro.handoff.backend.BackendServer.listen`) so the proxy can
reach them over TCP like any L4 device would.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.base import PolicyError
from .dispatcher import Dispatcher
from .net import Listener, close_quietly

__all__ = ["L4ProxyFrontEnd", "L4ProxyStats"]

_RELAY_BYTES = 65536
_IO_TIMEOUT_S = 10.0


@dataclass
class L4ProxyStats:
    accepted: int = 0
    proxied: int = 0
    errors: int = 0
    bytes_to_backend: int = 0
    bytes_to_client: int = 0
    #: Back-end TCP connects that failed (the L4 failure signal).
    connect_failures: int = 0
    #: Connections retried against a surviving back-end after a failure.
    failovers: int = 0

    @property
    def bytes_relayed(self) -> int:
        """Every byte of this total crossed the front-end's CPU — the cost
        hand-off avoids."""
        return self.bytes_to_backend + self.bytes_to_client


class L4ProxyFrontEnd:
    """Content-oblivious relay front-end over listening back-ends."""

    #: Counters are bumped by the accept loop, per-connection threads,
    #: and both pump directions concurrently.
    __guarded_by__ = {"stats": "_stats_lock"}

    def __init__(
        self,
        dispatcher: Dispatcher,
        backend_addresses: Sequence[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if len(backend_addresses) != dispatcher.policy.num_nodes:
            raise ValueError(
                f"dispatcher expects {dispatcher.policy.num_nodes} back-ends, "
                f"got {len(backend_addresses)}"
            )
        self.dispatcher = dispatcher
        self.backend_addresses = list(backend_addresses)
        self.host = host
        self.port = port
        self._listener: Optional[Listener] = None
        self.stats = L4ProxyStats()
        self._stats_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("proxy not started")
        return self._listener.address

    def start(self) -> None:
        """Bind, listen, and start relaying accepted connections."""
        if self._listener is not None:
            raise RuntimeError("proxy already started")
        self._listener = Listener("l4-accept", self._accept, self.host, self.port)

    def stop(self) -> None:
        """Close the listener and stop accepting."""
        if self._listener is not None:
            self._listener.close()

    # -- proxying -------------------------------------------------------------

    def _accept(self, client: socket.socket) -> None:
        with self._stats_lock:
            self.stats.accepted += 1
        threading.Thread(
            target=self._proxy_connection, args=(client,), daemon=True
        ).start()

    def _proxy_connection(self, client: socket.socket) -> None:
        # The defining L4 limitation: the back-end is chosen NOW, before
        # any request byte has been read.
        node = self.dispatcher.admit(target=None)
        if node is None:  # pragma: no cover - blocking admit
            client.close()
            return
        upstream: Optional[socket.socket] = None
        try:
            node, upstream = self._connect_with_failover(node)
            if upstream is None:
                with self._stats_lock:
                    self.stats.errors += 1
                return
            with self._stats_lock:
                self.stats.proxied += 1
            done = threading.Event()
            to_backend = threading.Thread(
                target=self._pump,
                args=(client, upstream, "bytes_to_backend", done),
                daemon=True,
            )
            to_backend.start()
            self._pump(upstream, client, "bytes_to_client", done)
            to_backend.join(timeout=_IO_TIMEOUT_S)
        except OSError:
            with self._stats_lock:
                self.stats.errors += 1
        finally:
            for conn in (client, upstream):
                if conn is not None:
                    close_quietly(conn)
            self.dispatcher.complete(node)

    def _connect_with_failover(self, node: int):
        """Connect to ``node``, failing over when its connect is refused —
        the only failure signal an L4 front-end has.  Returns
        ``(final_node, socket or None)``; load accounting tracks the
        final node."""
        attempts = 0
        while True:
            try:
                upstream = socket.create_connection(
                    self.backend_addresses[node], timeout=_IO_TIMEOUT_S
                )
                return node, upstream
            except OSError:
                with self._stats_lock:
                    self.stats.connect_failures += 1
                try:
                    self.dispatcher.fail_node(node)
                except PolicyError:
                    pass  # last alive back-end: nothing to fail over to
                attempts += 1
                if attempts > len(self.backend_addresses):
                    return node, None
                try:
                    node = self.dispatcher.reassign(node)
                except PolicyError:
                    return node, None
                with self._stats_lock:
                    self.stats.failovers += 1

    def _pump(
        self,
        src: socket.socket,
        dst: socket.socket,
        counter: str,
        done: threading.Event,
    ) -> None:
        """Relay bytes src -> dst until EOF — every byte costs front-end CPU."""
        try:
            src.settimeout(_IO_TIMEOUT_S)
            while not done.is_set():
                try:
                    chunk = src.recv(_RELAY_BYTES)
                except socket.timeout:
                    break
                if not chunk:
                    break
                dst.sendall(chunk)
                with self._stats_lock:
                    setattr(self.stats, counter, getattr(self.stats, counter) + len(chunk))
        except OSError:
            pass
        finally:
            done.set()
            # Half-close so the peer pump sees EOF promptly.
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass
