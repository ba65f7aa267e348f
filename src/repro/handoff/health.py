"""Failure detection for the live cluster (paper Section 2.6, made live).

The paper argues LARD needs "no elaborate front-end state" to survive a
back-end failure: "the front end simply re-assigns targets assigned to
the failed back end as if they had not been assigned before."  The
simulator implements that with a scheduled crash its front-end detects
at once or after a set lag; a live cluster has to *discover* failures
instead.  :class:`HealthMonitor` is that discovery layer:

* a monitor thread probes every back-end's :meth:`~repro.handoff.backend.
  BackendServer.heartbeat` each ``interval_s``;
* ``_FAILURE_THRESHOLD`` (2) consecutive missed heartbeats mark the node
  down — :meth:`mark_down` calls :meth:`Dispatcher.fail_node`, which
  drops the node's LARD/LARD-R mappings and load and shrinks the
  admission limit, exactly mirroring the simulator's ``fail_node``;
* ``_RECOVERY_THRESHOLD`` (2) consecutive good heartbeats from a down
  node mark it up again — the node's cache is cleared first so it
  re-enters the policy's node set *cold*, mirroring the simulator's
  ``cold`` rejoin;
* the front-end can also call :meth:`mark_down` directly when a hand-off
  fails (fail-fast detection: a refused hand-off is better evidence than
  any heartbeat).

The authoritative alive/dead state lives in the policy (via the
dispatcher); the monitor only keeps probe streaks and counters, so the
dispatcher, front-end, and monitor can never disagree about membership.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.base import PolicyError
from ..obs.metrics import Histogram
from .backend import BackendServer
from .dispatcher import Dispatcher

__all__ = ["HealthMonitor", "HealthStats"]

#: Consecutive failed probes before a node is marked down; a single
#: flaky probe is absorbed.
_FAILURE_THRESHOLD = 2
#: Consecutive good probes before a down node rejoins.
_RECOVERY_THRESHOLD = 2


@dataclass
class HealthStats:
    """Observability counters for failure detection and recovery."""

    probes: int = 0
    probe_failures: int = 0
    marks_down: int = 0
    marks_up: int = 0
    #: Consecutive failed probes per node (diagnostic snapshot).
    failure_streaks: List[int] = field(default_factory=list)


class HealthMonitor:
    """Heartbeat-driven membership management for a live cluster.

    Parameters
    ----------
    dispatcher:
        The cluster's shared dispatcher; owns the authoritative
        alive/dead state through its policy.
    backends:
        The probe targets, indexed by node id.
    interval_s:
        Seconds between heartbeat rounds.
    """

    #: Probe streaks and counters are updated by the monitor thread and
    #: by mark_down/mark_up callers (front-end threads, tests).
    __guarded_by__ = {"stats": "_lock", "_success_streak": "_lock"}

    def __init__(
        self,
        dispatcher: Dispatcher,
        backends: Sequence[BackendServer],
        interval_s: float = 0.25,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.dispatcher = dispatcher
        self.backends = list(backends)
        self.interval_s = interval_s
        self.stats = HealthStats(failure_streaks=[0] * len(self.backends))
        #: Wired by the cluster: per-probe latency observations (the
        #: health-check latency series on ``/metrics``).
        self.probe_latency: Optional[Histogram] = None
        self._success_streak = [0] * len(self.backends)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the background probe thread."""
        if self._thread is not None:
            raise RuntimeError("health monitor already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="health-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the probe thread (idempotent; safe to call before start)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.check_now()

    # -- probing ---------------------------------------------------------------

    def check_now(self) -> None:
        """One heartbeat round over every back-end (also callable from tests
        for deterministic detection without waiting out the interval)."""
        for node, backend in enumerate(self.backends):
            probe_start = time.perf_counter()
            try:
                ok = backend.heartbeat()
            except Exception:
                ok = False
            hist = self.probe_latency
            if hist is not None:
                hist.observe(time.perf_counter() - probe_start)
            with self._lock:
                self.stats.probes += 1
                if ok:
                    self.stats.failure_streaks[node] = 0
                    self._success_streak[node] += 1
                    streak = self._success_streak[node]
                else:
                    self.stats.probe_failures += 1
                    self._success_streak[node] = 0
                    self.stats.failure_streaks[node] += 1
                    streak = self.stats.failure_streaks[node]
            if ok:
                if not self.dispatcher.is_alive(node) and streak >= _RECOVERY_THRESHOLD:
                    self.mark_up(node)
            elif self.dispatcher.is_alive(node) and streak >= _FAILURE_THRESHOLD:
                self.mark_down(node)

    # -- state transitions -----------------------------------------------------

    def mark_down(self, node: int) -> bool:
        """Remove ``node`` from the routing set (idempotent).

        Called by the probe loop on missed heartbeats and by the
        front-end on hand-off failure.  Returns True on an actual
        down-transition.  The last alive node is never removed — the
        policy cannot represent an empty cluster — so a cluster that has
        lost everything keeps 503ing until something comes back.
        """
        try:
            changed = self.dispatcher.fail_node(node)
        except PolicyError:
            return False
        if changed:
            with self._lock:
                self.stats.marks_down += 1
                self._success_streak[node] = 0
        return changed

    def mark_up(self, node: int) -> bool:
        """Rejoin ``node`` cold (idempotent): its cache is cleared before
        the policy sees it, like the simulator's ``cold`` rejoin."""
        if self.dispatcher.is_alive(node):
            return False
        self.backends[node].reset_cache()
        changed = self.dispatcher.join_node(node)
        if changed:
            with self._lock:
                self.stats.marks_up += 1
                self.stats.failure_streaks[node] = 0
        return changed

    # -- introspection ---------------------------------------------------------

    @property
    def alive(self) -> List[bool]:
        """Per-node liveness as the policy currently sees it."""
        alive_set = set(self.dispatcher.alive_nodes)
        return [node in alive_set for node in range(len(self.backends))]
