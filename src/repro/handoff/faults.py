"""Reproducible fault injection for the live cluster (chaos harness).

The simulator exercises paper Section 2.6 with a declarative
``membership_events`` schedule; this module is the live-socket analogue.
:class:`FaultInjector` scripts failures against a running
:class:`~repro.handoff.cluster.HandoffCluster`:

* :meth:`~FaultInjector.kill` / :meth:`~FaultInjector.revive` — crash a
  back-end (RST on live connections, queued connections reclaimed by the
  front-end) and bring it back cold;
* :meth:`~FaultInjector.refuse_handoffs` — the node is up but rejects
  every hand-off, exercising the front-end's fail-fast failover path;
* :meth:`~FaultInjector.stall_handoffs` — hand-offs block for a fixed
  delay before being accepted (slow node, not dead node);
* :meth:`~FaultInjector.delay_responses` — every response waits before
  the first byte (latency degradation without failure);
* :meth:`~FaultInjector.sever_responses` — the next N responses are cut
  mid-body with an RST (crash *during* a response);
* :meth:`~FaultInjector.fail_heartbeats` — the node serves fine but
  looks dead to the health monitor (gray failure / partition).
* :meth:`~FaultInjector.at` — schedule any of the above relative to now,
  so whole failure timelines (fail at t=2s, rejoin at t=5s — the
  ext-failure shape) replay deterministically on real sockets.

Faults are injected through the per-backend :class:`BackendFaults` hook
object (``backend.faults``); the serving code consults it at the
hand-off, heartbeat, and send boundaries, which keeps injection entirely
out of the fast path when no injector is attached.

Use as a context manager: exiting cancels pending timers and clears
every standing fault (it does not revive killed nodes — tests decide
whether recovery is part of the scenario).

Pass a :class:`~repro.obs.span.SpanWriter` and every injected fault is
also emitted as a ``fault`` record (``kill``, ``revive``, ``refuse``,
``stall``, ``delay``, ``sever``, ``gray``) on the writer's clock, so
live chaos runs and simulated ones share the same ``lard-repro spans``
tooling.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from .backend import BackendServer, BackendUnavailableError
from .net import abort_socket

__all__ = ["BackendFaults", "FaultInjector"]


class BackendFaults:
    """Standing fault state for one back-end, consulted at hook points."""

    #: The sever counter is decremented by worker threads racing the test
    #: thread that arms it; the standing flags are cleared under the same
    #: lock so a clear() is atomic.
    __guarded_by__ = {"_sever_remaining": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.refuse_handoffs = False
        self.handoff_stall_s = 0.0
        self.fail_heartbeats = False
        self.response_delay_s = 0.0
        self._sever_remaining = 0

    # -- hook points (called by BackendServer) ---------------------------------

    def before_handoff(self, backend: BackendServer) -> None:
        """May stall, then refuse, a hand-off to ``backend``."""
        if self.handoff_stall_s > 0:
            time.sleep(self.handoff_stall_s)
        if self.refuse_handoffs:
            raise BackendUnavailableError(
                f"backend {backend.node_id} refusing hand-offs (fault injection)"
            )

    def before_send(self, backend: BackendServer, conn, payload: bytes) -> None:
        """May delay the response, or sever the connection mid-body."""
        if self.response_delay_s > 0:
            time.sleep(self.response_delay_s)
        with self._lock:
            sever = self._sever_remaining > 0
            if sever:
                self._sever_remaining -= 1
        if sever:
            try:
                conn.sendall(payload[: max(1, len(payload) // 2)])
            except OSError:
                pass
            abort_socket(conn)
            with backend._stats_lock:
                backend.stats.severed += 1
            raise OSError("connection severed mid-response (fault injection)")

    def heartbeat_ok(self) -> bool:
        """Whether the node should answer its next heartbeat probe."""
        return not self.fail_heartbeats

    def sever_next(self, count: int) -> None:
        """Arm an RST mid-body on the next ``count`` responses."""
        with self._lock:
            self._sever_remaining += count

    def clear(self) -> None:
        """Lift every standing fault on this back-end."""
        with self._lock:
            self.refuse_handoffs = False
            self.handoff_stall_s = 0.0
            self.fail_heartbeats = False
            self.response_delay_s = 0.0
            self._sever_remaining = 0


class FaultInjector:
    """Scripts failures against a running :class:`HandoffCluster`."""

    #: Timer registration races timer expiry callbacks and clear().
    __guarded_by__ = {"_timers": "_timer_lock"}

    def __init__(self, cluster, writer=None) -> None:
        self.cluster = cluster
        #: Optional :class:`~repro.obs.span.SpanWriter`: every injected
        #: fault is then also logged as a ``fault`` record.
        self.writer = writer
        self._timers: List[threading.Timer] = []
        self._timer_lock = threading.Lock()

    # -- plumbing --------------------------------------------------------------

    def _faults(self, node: int) -> BackendFaults:
        backend = self.cluster.backends[node]
        if backend.faults is None:
            backend.faults = BackendFaults()
        return backend.faults

    def _log(self, event: str, node: int, **details) -> None:
        if self.writer is not None:
            self.writer.write_fault(self.writer.clock(), node, event, **details)

    # -- fault primitives ------------------------------------------------------

    def kill(self, node: int, detect: bool = True) -> None:
        """Crash back-end ``node`` (see :meth:`HandoffCluster.fail_backend`)."""
        self._log("kill", node, detect=detect)
        self.cluster.fail_backend(node, detect=detect)

    def revive(self, node: int, immediate: bool = True) -> None:
        """Restart a killed back-end cold, clearing its standing faults."""
        self._log("revive", node, immediate=immediate)
        backend = self.cluster.backends[node]
        if backend.faults is not None:
            backend.faults.clear()
        self.cluster.restart_backend(node, immediate=immediate)

    def refuse_handoffs(self, node: int, refuse: bool = True) -> None:
        """Make ``node`` reject hand-offs while staying up."""
        self._log("refuse", node, enabled=refuse)
        self._faults(node).refuse_handoffs = refuse

    def stall_handoffs(self, node: int, delay_s: float) -> None:
        """Make hand-offs to ``node`` block ``delay_s`` before acceptance."""
        self._log("stall", node, delay_s=delay_s)
        self._faults(node).handoff_stall_s = delay_s

    def delay_responses(self, node: int, delay_s: float) -> None:
        """Add ``delay_s`` before the first byte of every response."""
        self._log("delay", node, delay_s=delay_s)
        self._faults(node).response_delay_s = delay_s

    def sever_responses(self, node: int, count: int = 1) -> None:
        """Cut the next ``count`` responses mid-body with an RST."""
        self._log("sever", node, count=count)
        self._faults(node).sever_next(count)

    def fail_heartbeats(self, node: int, fail: bool = True) -> None:
        """Make ``node`` look dead to the health monitor while serving fine."""
        self._log("gray", node, enabled=fail)
        self._faults(node).fail_heartbeats = fail

    # -- scheduling ------------------------------------------------------------

    def at(self, delay_s: float, fn, *args, **kwargs) -> threading.Timer:
        """Run ``fn(*args, **kwargs)`` ``delay_s`` seconds from now.

        Builds reproducible failure timelines::

            injector.at(1.0, injector.kill, 2)
            injector.at(3.0, injector.revive, 2)
        """
        timer = threading.Timer(delay_s, fn, args=args, kwargs=kwargs)
        timer.daemon = True
        with self._timer_lock:
            self._timers.append(timer)
        timer.start()
        return timer

    def join(self, timeout_s: Optional[float] = None) -> None:
        """Wait for every scheduled fault to have fired."""
        with self._timer_lock:
            timers = list(self._timers)
        for timer in timers:
            timer.join(timeout_s)

    def clear(self) -> None:
        """Cancel pending timers and lift every standing fault."""
        with self._timer_lock:
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()
        for backend in self.cluster.backends:
            if backend.faults is not None:
                backend.faults.clear()

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.clear()
