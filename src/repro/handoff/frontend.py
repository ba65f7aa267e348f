"""Front-end server: accept, inspect, hand off (paper Figure 15).

The sequence per connection, mirroring the paper:

1. the client connects to the front-end (the only address it knows);
2. the front-end accepts and reads until the request head is complete —
   this is the *content inspection* that makes content-based distribution
   possible, and the reason a hand-off mechanism is needed at all;
3. the dispatcher (any :mod:`repro.core` policy) picks a back-end;
4. the established connection is handed off: the socket object and every
   byte already read travel to the back-end;
5. the back-end replies directly to the client — the front-end is out of
   the data path from this point on.

In-kernel TCP hand-off and the ACK-forwarding module are replaced by
in-process socket transfer (or cross-process FD passing, see
:mod:`repro.handoff.fdpass`); the control flow and accounting are the
paper's.  Hand-off latency and throughput counters correspond to the
Section 6.2 measurements.

Failure handling (paper Section 2.6): a hand-off that fails — the target
back-end is down, refusing, or errors — marks the node failed (dropping
its LARD mappings, "as if they had not been assigned before"), re-runs
the policy over the surviving nodes, and retries with capped exponential
backoff.  Only when every retry is exhausted does the client get a
``503 Service Unavailable``; the admission slot is returned on every
path, success or failure, so the front-end can never wedge at
``max_in_flight`` because of dead back-ends.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.base import PolicyError
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.span import Span, SpanWriter
from .backend import BackendServer, BackendUnavailableError, HandoffItem
from .dispatcher import Dispatcher
from .docroot import DocumentStore
from .health import HealthMonitor
from .http import HTTPError, HTTPRequest, build_response, read_request_head
from .net import Listener, close_quietly, reply_and_close

__all__ = ["FrontEndServer", "FrontEndStats"]

_HEAD_TIMEOUT_S = 5.0
_HANDLER_THREADS = 16
#: Failed hand-off attempts tolerated per connection before a ``503``.
_MAX_HANDOFF_RETRIES = 3
#: Initial and maximum sleep between failover attempts (exponential, capped).
_RETRY_BACKOFF_S = 0.02
_RETRY_BACKOFF_CAP_S = 0.25


@dataclass
class FrontEndStats:
    accepted: int = 0
    handoffs: int = 0
    errors: int = 0
    handoff_time_total_s: float = 0.0
    #: Hand-off attempts that failed (target down or refusing).
    handoff_failures: int = 0
    #: Connections successfully moved to a surviving back-end.
    failovers: int = 0
    #: Back-off retry sleeps taken during failover.
    retries: int = 0
    #: Connections answered 503: admission timed out or no back-end could
    #: take the hand-off within the retry budget.
    rejected: int = 0
    #: Queued connections reclaimed from a killed back-end and re-dispatched.
    reclaimed: int = 0

    @property
    def mean_handoff_latency_s(self) -> float:
        """Mean accept-to-handoff time (the Section 6.2 hand-off latency)."""
        return self.handoff_time_total_s / self.handoffs if self.handoffs else 0.0


class FrontEndServer:
    """Accepts client connections and hands them to back-ends.

    Parameters
    ----------
    health:
        The cluster's monitor: a failed hand-off marks its node down
        through :meth:`HealthMonitor.mark_down` at once, so heartbeat
        bookkeeping stays consistent.
    admit_timeout_s:
        How long an accepted connection may wait for an admission slot
        before being answered ``503`` (None blocks forever — the
        pre-fault-tolerance behavior).
    """

    #: ``stats`` is mutated by the accept loop and every handler-pool
    #: thread; all counter updates take ``_stats_lock``.
    __guarded_by__ = {"stats": "_stats_lock"}

    def __init__(
        self,
        dispatcher: Dispatcher,
        backends: Sequence[BackendServer],
        health: HealthMonitor,
        store: Optional[DocumentStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        admit_timeout_s: Optional[float] = 10.0,
    ) -> None:
        if len(backends) != dispatcher.policy.num_nodes:
            raise ValueError(
                f"dispatcher expects {dispatcher.policy.num_nodes} back-ends, "
                f"got {len(backends)}"
            )
        self.dispatcher = dispatcher
        self.backends = backends
        self.health = health
        self.store = store
        self.host = host
        self.port = port
        self.admit_timeout_s = admit_timeout_s
        self._listener: Optional[Listener] = None
        self._pool = ThreadPoolExecutor(max_workers=_HANDLER_THREADS, thread_name_prefix="fe")
        self.stats = FrontEndStats()
        self._stats_lock = threading.Lock()
        #: Wired by the cluster: when set, ``GET /metrics`` is answered
        #: by the front-end itself (Prometheus text format) instead of
        #: being handed to a back-end.
        self.metrics: Optional[MetricsRegistry] = None
        #: Wired by the cluster alongside ``metrics``: accept-to-handoff
        #: latency observations (the Section 6.2 hand-off latency).
        self.handoff_latency: Optional[Histogram] = None
        #: Wired by the cluster when span tracing is on.
        self.trace_writer: Optional[SpanWriter] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) clients should connect to (valid after start)."""
        if self._listener is None:
            raise RuntimeError("front-end not started")
        return self._listener.address

    def start(self) -> None:
        """Bind, listen, and start the accept loop."""
        if self._listener is not None:
            raise RuntimeError("front-end already started")
        self._listener = Listener("fe-accept", self._accept, self.host, self.port)

    def stop(self) -> None:
        """Close the listener and drain handler threads."""
        if self._listener is not None:
            self._listener.close()
        self._pool.shutdown(wait=True)

    # -- accept / inspect / hand off ------------------------------------------

    def _accept(self, conn: socket.socket) -> None:
        with self._stats_lock:
            self.stats.accepted += 1
        self._pool.submit(self._handle, conn, time.perf_counter())

    def _handle(self, conn: socket.socket, accepted_at: float) -> None:
        try:
            conn.settimeout(_HEAD_TIMEOUT_S)
            request, data = read_request_head(conn, b"")
            if request is None:
                conn.close()
                return
            if request.target == "/metrics" and self.metrics is not None:
                # Observability endpoint: served by the front-end itself,
                # outside admission control, so a scrape can never steal a
                # back-end slot or skew the hand-off counters it reports.
                self._serve_metrics(conn, request)
                return
            size = 0
            if self.store is not None:
                size = self.store.size_of(request.target) or 0
            writer = self.trace_writer
            inspected_at = writer.clock() if writer is not None else 0.0
            node = self.dispatcher.admit(request.target, size, timeout=self.admit_timeout_s)
            if node is None:
                # Admission control timed out: tell the client instead of
                # silently dropping the connection.
                with self._stats_lock:
                    self.stats.rejected += 1
                if writer is not None:
                    span = self._begin_span(
                        writer, request, size, -1, accepted_at, inspected_at
                    )
                    span.outcome = "rejected"
                    span.t_complete = writer.clock()
                    writer.write_span(span)
                self._refuse(conn, b"admission queue full")
                return
            span = None
            if writer is not None:
                span = self._begin_span(
                    writer, request, size, node, accepted_at, inspected_at
                )
            item = HandoffItem(conn=conn, buffered=data, request=request, span=span)
            if self._dispatch(item, node, request.target, size):
                elapsed = time.perf_counter() - accepted_at
                with self._stats_lock:
                    self.stats.handoffs += 1
                    self.stats.handoff_time_total_s += elapsed
                hist = self.handoff_latency
                if hist is not None:
                    hist.observe(elapsed)
        except HTTPError as exc:
            with self._stats_lock:
                self.stats.errors += 1
            reply_and_close(conn, build_response(exc.status, exc.reason.encode("latin-1")))
        except OSError:
            with self._stats_lock:
                self.stats.errors += 1
            close_quietly(conn)

    # -- observability ----------------------------------------------------------

    def _serve_metrics(self, conn: socket.socket, request: HTTPRequest) -> None:
        """Answer ``GET /metrics`` with the registry's text exposition."""
        registry = self.metrics
        body = registry.render().encode("utf-8") if registry is not None else b""
        reply_and_close(
            conn,
            build_response(
                200,
                body,
                version=request.version,
                extra_headers={
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
                },
            ),
        )

    def _begin_span(
        self,
        writer: SpanWriter,
        request: HTTPRequest,
        size: int,
        node: int,
        accepted_at: float,
        inspected_at: float,
    ) -> Span:
        """Open a span at the dispatch decision: arrival is the accept
        time, ``inspect`` covers the head read, ``admit`` the admission
        wait.  ``node`` is -1 when admission rejected the request."""
        t_arrival = max(0.0, writer.at(accepted_at))
        t_inspect = max(t_arrival, inspected_at)
        t_dispatch = max(t_inspect, writer.clock())
        return Span(
            req=writer.next_req(),
            target=request.target,
            size=size,
            policy=str(getattr(self.dispatcher.policy, "name", "")),
            node=node,
            t_arrival=t_arrival,
            t_dispatch=t_dispatch,
            load=self.dispatcher.loads,
            phases={
                "inspect": t_inspect - t_arrival,
                "admit": t_dispatch - t_inspect,
            },
        )

    # -- failover (paper Section 2.6) ------------------------------------------

    def _dispatch(self, item: HandoffItem, node: int, target, size: int) -> bool:
        """Hand ``item`` (already admitted at ``node``) to a back-end,
        failing over across surviving nodes with capped exponential
        backoff.  Exactly one of these happens:

        * the hand-off succeeds (returns True);
        * every retry is exhausted — the admission slot is released, the
          client gets a 503, and False is returned.

        The slot can never leak: any unexpected error aborts the
        admission before propagating.
        """
        backoff = _RETRY_BACKOFF_S
        attempts = 0
        try:
            while True:
                if self.dispatcher.is_alive(node):
                    try:
                        self.backends[node].handoff(item)
                        return True
                    except (BackendUnavailableError, OSError):
                        with self._stats_lock:
                            self.stats.handoff_failures += 1
                        # Fail fast: a refused hand-off is better evidence
                        # than the heartbeats that would confirm it later.
                        self.health.mark_down(node)
                attempts += 1
                if attempts > _MAX_HANDOFF_RETRIES:
                    break
                if attempts > 1:
                    # First failover is immediate (the policy already
                    # avoids the failed node); later ones back off.
                    with self._stats_lock:
                        self.stats.retries += 1
                    time.sleep(backoff)
                    backoff = min(backoff * 2, _RETRY_BACKOFF_CAP_S)
                try:
                    new_node = self.dispatcher.reassign(node, target, size)
                except PolicyError:
                    break  # no surviving node can take it
                if new_node != node:
                    with self._stats_lock:
                        self.stats.failovers += 1
                node = new_node
        except BaseException:
            self.dispatcher.abort(node, target, size)
            raise
        # Retries exhausted: release the slot, then tell the client.
        self.dispatcher.abort(node, target, size)
        with self._stats_lock:
            self.stats.rejected += 1
        self._finish_rejected_span(item, node)
        self._refuse(item.conn, b"no back-end available")
        return False

    def _finish_rejected_span(self, item: HandoffItem, node: int) -> None:
        """Close out a span whose connection the cluster gave up on."""
        writer = self.trace_writer
        span = item.span
        if writer is None or span is None:
            return
        span.node = node
        span.outcome = "rejected"
        span.t_complete = max(span.t_dispatch, writer.clock())
        writer.write_span(span)
        item.span = None

    def failover_item(self, item: HandoffItem, from_node: int) -> None:
        """Re-dispatch a connection reclaimed from a failed back-end.

        Wired as :attr:`BackendServer.reclaim`: when a node is killed, its
        queued-but-unserved connections come back here instead of dying
        with it.  The connection keeps its admission slot; it is moved to
        a survivor or answered 503.
        """
        with self._stats_lock:
            self.stats.reclaimed += 1
        target = item.request.target if item.request is not None else None
        self.health.mark_down(from_node)
        try:
            node = self.dispatcher.reassign(from_node, target)
        except PolicyError:
            self.dispatcher.abort(from_node, target)
            with self._stats_lock:
                self.stats.rejected += 1
            self._finish_rejected_span(item, from_node)
            self._refuse(item.conn, b"no back-end available")
            return
        if self._dispatch(item, node, target, 0):
            with self._stats_lock:
                self.stats.failovers += 1

    def _refuse(self, conn: socket.socket, reason: bytes) -> None:
        """Best-effort 503 + close (never silently drop a connection)."""
        reply_and_close(conn, build_response(503, reason, extra_headers={"Retry-After": "1"}))
