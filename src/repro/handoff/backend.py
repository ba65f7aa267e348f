"""Back-end HTTP server for the hand-off prototype.

Plays the role of the paper's Apache back-ends: it never accepts TCP
connections itself — every connection it serves arrived *established*,
handed off by the front-end together with the bytes already read.  The
response is written straight to the client socket; the front-end never
touches outgoing data (paper Figure 15, step 5).

Each back-end keeps a bounded main-memory cache of whole files over the
shared :class:`~repro.handoff.docroot.DocumentStore`.  A cache miss reads
the file from the real filesystem *and sleeps* ``miss_penalty_s`` — the
stand-in for the 1998 disk documented in DESIGN.md, preserving the paper's
huge cached/uncached cost ratio on modern hardware (where the page cache
would otherwise hide misses entirely).

Persistent connections (paper Section 5, HTTP/1.1 discussion) support the
two policies the hand-off protocol was designed for: ``sticky`` lets one
back-end serve every request on the connection; ``rehandoff`` re-consults
the dispatcher per request and forwards the connection to the newly chosen
back-end.

Fault tolerance (paper Section 2.6, made live):

* :meth:`BackendServer.stop` *drains*: queued and in-flight requests are
  served, keep-alive connections are told ``Connection: close``, and idle
  ones are shut promptly — no worker thread is leaked.
* :meth:`BackendServer.kill` *crashes* the node for chaos testing: active
  connections are severed with an RST, queued-but-unserved connections
  are reclaimed by the front-end (which fails them over to survivors),
  and heartbeats start failing so the
  :class:`~repro.handoff.health.HealthMonitor` marks the node down.
* :meth:`BackendServer.start` works again after ``stop``/``kill`` — a
  rejoined node comes back with a cold cache, exactly as in the
  simulator's ``join_node``.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from ..cache import GDSCache
from ..obs.span import Span, SpanWriter
from .dispatcher import Dispatcher
from .docroot import DocumentStore
from .http import HTTPError, HTTPRequest, build_response, parse_request_head
from .net import Listener, abort_socket, close_quietly

__all__ = [
    "BackendServer",
    "BackendStats",
    "BackendUnavailableError",
    "HandoffItem",
    "PERSISTENT_MODES",
]

PERSISTENT_MODES = ("sticky", "rehandoff")

_KEEPALIVE_TIMEOUT_S = 5.0
_DRAIN_POLL_S = 0.05
_RECV_BYTES = 65536


class BackendUnavailableError(ConnectionError):
    """Hand-off refused: the target back-end is down or not accepting."""


@dataclass
class HandoffItem:
    """One handed-off connection: the live socket plus bytes already read.

    ``span`` is the in-progress :class:`repro.obs.span.Span` opened by
    the front-end for the first request on the connection (None when
    tracing is off); the serving back-end completes and emits it.
    """

    conn: socket.socket
    buffered: bytes
    request: Optional[HTTPRequest]
    span: Optional[Span] = None


@dataclass
class BackendStats:
    requests_served: int = 0
    connections: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_sent: int = 0
    errors: int = 0
    rehandoffs_out: int = 0
    #: Keep-alive connections wound down by a graceful drain.
    drained: int = 0
    #: Connections severed by :meth:`BackendServer.kill`.
    severed: int = 0
    #: Queued connections handed back to the front-end at kill time.
    reclaimed: int = 0


class BackendServer:
    """A threaded back-end serving handed-off HTTP connections."""

    #: Shared-state locking discipline, checked by lardlint:
    #: the cache and its payload map are touched by every worker; the
    #: active-connection set by workers and ``kill``; the lifecycle flags
    #: by the control thread and ``handoff``/``heartbeat`` callers; the
    #: stats counters by every worker thread.
    __guarded_by__ = {
        "_cache": "_cache_lock",
        "_payload": "_cache_lock",
        "_active_conns": "_conn_lock",
        "_accepting": "_handoff_lock",
        "_running": "_handoff_lock",
        "_draining": "_handoff_lock",
        "stats": "_stats_lock",
    }

    def __init__(
        self,
        node_id: int,
        store: DocumentStore,
        cache_bytes: int = 8 * 2**20,
        miss_penalty_s: float = 0.02,
        workers: int = 4,
        persistent_mode: str = "sticky",
    ) -> None:
        if persistent_mode not in PERSISTENT_MODES:
            raise ValueError(
                f"persistent_mode must be one of {PERSISTENT_MODES}, got {persistent_mode!r}"
            )
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.node_id = node_id
        self.store = store
        self.miss_penalty_s = miss_penalty_s
        self.persistent_mode = persistent_mode
        self._cache = GDSCache(cache_bytes, name=f"be{node_id}")
        self._payload: Dict[str, bytes] = {}
        self._cache.evict_listener = lambda name, size: self._payload.pop(name, None)
        self._cache_lock = threading.Lock()
        self._queue: "queue.Queue[Optional[HandoffItem]]" = queue.Queue()
        self._workers = workers
        self._threads: list = []
        self._running = False
        self._accepting = False
        self._draining = False
        self._handoff_lock = threading.Lock()
        self._conn_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._active_conns: Set[socket.socket] = set()
        self._listener: Optional[Listener] = None
        self.stats = BackendStats()
        #: Wired by the cluster: the shared dispatcher and peer list.
        self.dispatcher: Optional[Dispatcher] = None
        self.peers: Sequence["BackendServer"] = ()
        #: Wired by the cluster: reclaims queued connections at kill time
        #: (``fn(item, from_node)``, usually the front-end's failover path).
        self.reclaim: Optional[Callable[[HandoffItem, int], None]] = None
        #: Optional fault-injection hooks (:class:`repro.handoff.faults.BackendFaults`).
        self.faults = None
        #: Wired by the cluster when span tracing is on: the shared
        #: :class:`repro.obs.span.SpanWriter` all emitters append to.
        self.trace_writer: Optional[SpanWriter] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads that serve handed-off connections.

        Callable again after :meth:`stop`/:meth:`kill`: the node rejoins
        with whatever cache state it has — the cluster's health monitor
        clears it so a rejoined node re-enters cold.
        """
        with self._handoff_lock:
            if self._running:
                raise RuntimeError(f"backend {self.node_id} already started")
            self._running = True
            self._draining = False
            self._accepting = True
        for i in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"backend{self.node_id}-w{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Graceful drain: serve queued and in-flight requests, wind down
        keep-alive connections, then join every worker thread."""
        with self._handoff_lock:
            self._accepting = False
            self._draining = True
            self._running = False
        self._close_listener()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        with self._handoff_lock:
            self._draining = False

    def kill(self) -> None:
        """Crash the node (chaos testing): sever live connections with an
        RST, reclaim queued-but-unserved connections through
        :attr:`reclaim` (front-end failover) and fail future heartbeats.
        Worker threads are joined so a kill never leaks them."""
        with self._handoff_lock:
            self._running = False
            self._accepting = False
            pending = []
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not None:
                    pending.append(item)
        self._close_listener()
        for _ in self._threads:
            self._queue.put(None)
        with self._conn_lock:
            victims = list(self._active_conns)
        for conn in victims:
            abort_socket(conn)
            with self._stats_lock:
                self.stats.severed += 1
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        for item in pending:
            if self.reclaim is not None:
                with self._stats_lock:
                    self.stats.reclaimed += 1
                self.reclaim(item, self.node_id)
            else:
                abort_socket(item.conn)
                with self._stats_lock:
                    self.stats.severed += 1
                if self.dispatcher is not None:
                    target = item.request.target if item.request else None
                    self.dispatcher.complete(self.node_id, target)

    def heartbeat(self) -> bool:
        """Liveness probe used by the health monitor (and fault-injectable)."""
        faults = self.faults
        if faults is not None and not faults.heartbeat_ok():
            return False
        return self._running and self._accepting

    def reset_cache(self) -> None:
        """Drop every cached file — a rejoining node starts cold."""
        with self._cache_lock:
            self._cache.clear()
            self._payload.clear()

    @property
    def accepting(self) -> bool:
        return self._accepting

    @property
    def running(self) -> bool:
        return self._running

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()

    # -- listening mode (for L4-proxy deployments) -----------------------------

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Accept TCP connections directly (no hand-off front-end).

        Used by the Layer-4 proxy comparator
        (:mod:`repro.handoff.l4proxy`), where the front-end relays bytes
        instead of transferring connections, so the back-end must be
        reachable over ordinary TCP.  Returns the listening (host, port).
        """
        if self._listener is not None:
            raise RuntimeError(f"backend {self.node_id} is already listening")
        self._listener = Listener(f"backend{self.node_id}-accept", self._accept, host, port)
        return self._listener.address

    def _accept(self, conn: socket.socket) -> None:
        try:
            self.handoff(HandoffItem(conn=conn, buffered=b"", request=None))
        except (BackendUnavailableError, OSError):
            abort_socket(conn)

    # -- the hand-off entry point ------------------------------------------------

    def handoff(self, item: HandoffItem) -> None:
        """Take over an established client connection (front-end API).

        Raises :class:`BackendUnavailableError` when the node is down,
        draining, or refusing hand-offs under fault injection — the
        front-end reacts by failing the connection over to a survivor.
        """
        faults = self.faults
        if faults is not None:
            faults.before_handoff(self)
        with self._handoff_lock:
            if not self._accepting:
                raise BackendUnavailableError(
                    f"backend {self.node_id} is not accepting hand-offs"
                )
            # The accepting-check and the enqueue must be atomic, or a
            # kill() could drain the queue between them and strand the
            # connection.
            self._queue.put(item)  # lardlint: disable=blocking-call-in-lock -- the queue is unbounded, so put() never blocks

    # -- serving -------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            try:
                self._serve_connection(item)
            except Exception:
                with self._stats_lock:
                    self.stats.errors += 1
                close_quietly(item.conn)

    def _serve_connection(self, item: HandoffItem) -> None:
        """Serve requests on a handed-off connection until it closes."""
        conn, buffered, request = item.conn, item.buffered, item.request
        span = item.span
        with self._stats_lock:
            self.stats.connections += 1
        target = request.target if request else None
        # The node the dispatcher books this connection's load on.
        owner = self.node_id
        forwarded = False
        with self._conn_lock:
            self._active_conns.add(conn)
        try:
            while True:
                if request is None:
                    request, buffered = self._read_request(conn, buffered)
                    if request is None:
                        break  # client closed or idle timeout
                    target = request.target
                    # Subsequent keep-alive requests (and listening-mode
                    # connections) get fresh spans opened here.
                    span = self._begin_span(request)
                    if self.persistent_mode == "rehandoff" and self.dispatcher is not None:
                        owner = self.dispatcher.reroute(owner, request.target)
                        if owner != self.node_id:
                            try:
                                self.peers[owner].handoff(
                                    HandoffItem(
                                        conn=conn,
                                        buffered=buffered,
                                        request=request,
                                        span=span,
                                    )
                                )
                            except BackendUnavailableError:
                                pass  # the peer refused: serve it here, booked there
                            else:
                                with self._stats_lock:
                                    self.stats.rehandoffs_out += 1
                                forwarded = True
                                return  # connection now belongs to the peer
                buffered = buffered[request.head_bytes:] if request.head_bytes else buffered
                keep_alive = self._serve_one(conn, request, span)
                request = None
                span = None
                if not keep_alive:
                    break
        finally:
            with self._conn_lock:
                self._active_conns.discard(conn)
            if not forwarded:
                close_quietly(conn)
                if self.dispatcher is not None:
                    self.dispatcher.complete(owner, target)

    def _read_request(self, conn: socket.socket, buffered: bytes):
        """Read the next request head on a persistent connection.

        Polls in short slices so a drain (or kill) in progress is noticed
        within ``_DRAIN_POLL_S`` instead of a full keep-alive timeout.
        """
        data = buffered
        deadline = time.monotonic() + _KEEPALIVE_TIMEOUT_S
        while True:
            try:
                request = parse_request_head(data)
            except HTTPError as exc:
                self._send_error(conn, exc)
                return None, b""
            if request is not None:
                return request, data
            if self._draining and not data:
                with self._stats_lock:
                    self.stats.drained += 1
                return None, b""  # idle keep-alive connection under drain
            if time.monotonic() >= deadline:
                return None, b""
            conn.settimeout(_DRAIN_POLL_S)
            try:
                chunk = conn.recv(_RECV_BYTES)
            except socket.timeout:
                continue
            except OSError:
                return None, b""
            if not chunk:
                return None, b""
            data += chunk

    def _serve_one(
        self,
        conn: socket.socket,
        request: HTTPRequest,
        span: Optional[Span] = None,
    ) -> bool:
        """Serve one parsed request; returns whether to keep the connection."""
        writer = self.trace_writer
        if writer is None:
            span = None
        serve_start = writer.clock() if (writer and span is not None) else 0.0
        if request.method != "GET":
            self._send(conn, build_response(501, b"GET only", version=request.version))
            with self._stats_lock:
                self.stats.errors += 1
            if writer and span is not None:
                span.t_complete = writer.clock()
                writer.write_span(span)
            return False
        body = self._fetch(request.target, span)
        keep_alive = request.keep_alive and not self._draining
        if body is None:
            payload = build_response(
                404, b"not found", keep_alive=keep_alive, version=request.version
            )
        else:
            payload = build_response(
                200,
                body,
                keep_alive=keep_alive,
                version=request.version,
                extra_headers={"X-Backend": str(self.node_id)},
            )
        self._send(conn, payload)
        with self._stats_lock:
            self.stats.requests_served += 1
            self.stats.bytes_sent += len(payload)
        if writer and span is not None:
            now = writer.clock()
            span.node = self.node_id
            # Hand-off phase: dispatch decision to the worker picking the
            # connection up (includes the back-end queue wait); serve is
            # the rest minus the explicit disk stand-in.
            span.phases["handoff"] = max(0.0, serve_start - span.t_dispatch)
            span.phases["serve"] = max(
                0.0, (now - serve_start) - span.phases.get("disk", 0.0)
            )
            span.t_complete = now
            writer.write_span(span)
        return keep_alive

    def _begin_span(self, request: HTTPRequest) -> Optional[Span]:
        """Open a span for a request that arrived on an already-held
        connection (keep-alive follow-up or direct listening mode): the
        back-end itself is both the arrival and the dispatch point."""
        writer = self.trace_writer
        if writer is None:
            return None
        now = writer.clock()
        policy = ""
        if self.dispatcher is not None:
            policy = str(getattr(self.dispatcher.policy, "name", ""))
        return Span(
            req=writer.next_req(),
            target=request.target,
            size=self.store.size_of(request.target) or 0,
            policy=policy,
            node=self.node_id,
            t_arrival=now,
            t_dispatch=now,
        )

    def _send(self, conn: socket.socket, payload: bytes) -> None:
        faults = self.faults
        if faults is not None:
            faults.before_send(self, conn, payload)
        conn.settimeout(_KEEPALIVE_TIMEOUT_S)
        conn.sendall(payload)

    def _send_error(self, conn: socket.socket, exc: HTTPError) -> None:
        with self._stats_lock:
            self.stats.errors += 1
        try:
            self._send(conn, build_response(exc.status, exc.reason.encode("latin-1")))
        except OSError:
            pass

    # -- the file cache ----------------------------------------------------------

    def _fetch(self, name: str, span: Optional[Span] = None) -> Optional[bytes]:
        """Whole-file cache lookup with the disk-penalty miss path."""
        size = self.store.size_of(name)
        if size is None:
            return None
        if span is not None:
            span.outcome = "miss"
        with self._cache_lock:
            if self._cache.access(name, size):
                body = self._payload.get(name)
                if body is not None:
                    with self._stats_lock:
                        self.stats.cache_hits += 1
                    if span is not None:
                        span.outcome = "hit"
                    return body
                # The entry is booked in the cache but its bytes are still
                # being read by another worker: treat as a miss and read
                # independently (the simulator's coalescing has no cheap
                # threaded analogue here).
                with self._stats_lock:
                    self.stats.cache_misses += 1
            else:
                with self._stats_lock:
                    self.stats.cache_misses += 1
        # Miss path: real file read plus the simulated disk penalty, done
        # outside the lock so misses on different files overlap (the
        # simulator's per-disk queue analogue is the OS scheduler here).
        disk_start = time.perf_counter() if span is not None else 0.0
        if self.miss_penalty_s > 0:
            time.sleep(self.miss_penalty_s)
        body = self.store.read(name)
        if span is not None:
            span.phases["disk"] = span.phases.get("disk", 0.0) + (
                time.perf_counter() - disk_start
            )
        with self._cache_lock:
            if self._cache.peek(name):
                self._payload[name] = body
        return body

    @property
    def cache_stats(self):
        return self._cache.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BackendServer {self.node_id} served={self.stats.requests_served}>"
