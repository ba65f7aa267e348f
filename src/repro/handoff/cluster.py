"""One-call wiring for a complete prototype cluster (paper Section 6).

:class:`HandoffCluster` assembles the pieces — a shared
:class:`~repro.handoff.docroot.DocumentStore`, N
:class:`~repro.handoff.backend.BackendServer` threads, a
:class:`~repro.handoff.dispatcher.Dispatcher` around any
:mod:`repro.core` policy, the
:class:`~repro.handoff.frontend.FrontEndServer`, and a
:class:`~repro.handoff.health.HealthMonitor` for failure detection —
on loopback TCP, and tears them down cleanly.  Use it as a context
manager:

>>> from repro.handoff import HandoffCluster, DocumentStore, LoadGenerator
>>> import tempfile
>>> store = DocumentStore.build(tempfile.mkdtemp(), {"/a": 512})  # doctest: +SKIP
>>> with HandoffCluster(store, num_backends=2, policy="lard/r") as cluster:
...     result = LoadGenerator(cluster.address, ["/a"], concurrency=2).run(20)
...     # doctest: +SKIP

Failure handling is always on: dead back-ends are detected by
heartbeat (or fail-fast on a refused hand-off), their LARD mappings are
dropped, in-flight work fails over to survivors, and a restarted
back-end rejoins cold.  :meth:`HandoffCluster.fail_backend` /
:meth:`HandoffCluster.restart_backend` (and
:class:`repro.handoff.faults.FaultInjector` for scripted chaos) drive
those transitions from tests and benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, TypeVar

from ..core import make_policy
from ..obs.metrics import MetricsRegistry
from ..obs.span import SpanWriter
from .backend import BackendServer, BackendStats
from .dispatcher import Dispatcher
from .docroot import DocumentStore
from .frontend import FrontEndServer, FrontEndStats
from .health import HealthMonitor, HealthStats
from .l4proxy import L4ProxyFrontEnd, L4ProxyStats

__all__ = ["HandoffCluster", "L4ProxyCluster", "ClusterStats"]

_C = TypeVar("_C", bound="_Cluster")


@dataclass
class _BackendTotals:
    """The back-end totals both deployments report."""

    backends: List[BackendStats]
    loads: List[int]

    @property
    def requests_served(self) -> int:
        return sum(b.requests_served for b in self.backends)

    @property
    def cache_hits(self) -> int:
        return sum(b.cache_hits for b in self.backends)

    @property
    def cache_misses(self) -> int:
        return sum(b.cache_misses for b in self.backends)

    @property
    def cache_miss_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_misses / total if total else 0.0


@dataclass
class ClusterStats(_BackendTotals):
    """Aggregated statistics across the front-end and all back-ends."""

    frontend: FrontEndStats
    #: Heartbeat / failover observability.
    health: HealthStats
    #: Per-node liveness at snapshot time (policy's view).
    alive: List[bool]
    #: Connections that died with a failed back-end (simulator's
    #: ``orphaned_connections``, live).
    orphaned: int = 0
    #: Connections moved to a survivor after their back-end failed.
    failovers: int = 0

    @property
    def per_backend_requests(self) -> List[int]:
        return [b.requests_served for b in self.backends]


@dataclass
class L4ClusterStats(_BackendTotals):
    """Aggregated statistics for the L4 proxy deployment."""

    proxy: L4ProxyStats


class _Cluster:
    """What both deployments share: a dispatcher around the policy, the
    back-ends over one document store, the context-manager lifecycle and
    the load generator's hooks.  Subclasses supply ``_start``/``_stop``
    and ``address``."""

    def __init__(
        self,
        store: DocumentStore,
        policy: str,
        num_backends: int,
        cache_bytes: int,
        miss_penalty_s: float,
        workers_per_backend: int,
        t_low: int,
        t_high: int,
        max_in_flight: Optional[int],
        persistent_mode: str = "sticky",
    ) -> None:
        self.store = store
        policy_obj = make_policy(
            policy, num_backends, node_cache_bytes=cache_bytes, t_low=t_low, t_high=t_high
        )
        self.dispatcher = Dispatcher(policy_obj, max_in_flight=max_in_flight)
        self.backends = [
            BackendServer(
                node_id,
                store,
                cache_bytes=cache_bytes,
                miss_penalty_s=miss_penalty_s,
                workers=workers_per_backend,
                persistent_mode=persistent_mode,
            )
            for node_id in range(num_backends)
        ]
        self._started = False

    @property
    def address(self) -> Tuple[str, int]:
        raise NotImplementedError

    def _start(self) -> None:
        raise NotImplementedError

    def _stop(self) -> None:
        raise NotImplementedError

    def start(self) -> Tuple[str, int]:
        """Start the cluster; returns the address clients connect to."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._start()
        self._started = True
        return self.address

    def stop(self) -> None:
        """Shut the cluster down (idempotent)."""
        if not self._started:
            return
        self._stop()
        self._started = False

    def __enter__(self: _C) -> _C:
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def wait_idle(self, timeout_s: float = 5.0) -> bool:
        """Block until every admitted connection has completed.

        Clients observe their final response bytes a moment before the
        back-end finishes its own bookkeeping, so call this before reading
        :meth:`stats` after a load run.  Returns False on timeout.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.dispatcher.in_flight == 0:
                return True
            time.sleep(0.005)
        return self.dispatcher.in_flight == 0

    def verify(self, path: str, body: bytes) -> bool:
        """End-to-end content check callback for :class:`LoadGenerator`."""
        try:
            return body == self.store.expected_content(path)
        except KeyError:
            return False


class HandoffCluster(_Cluster):
    """A running front-end + back-ends prototype cluster on loopback."""

    def __init__(
        self,
        store: DocumentStore,
        num_backends: int = 4,
        policy: str = "lard/r",
        cache_bytes: int = 8 * 2**20,
        miss_penalty_s: float = 0.02,
        workers_per_backend: int = 4,
        persistent_mode: str = "sticky",
        t_low: int = 4,
        t_high: int = 12,
        max_in_flight: Optional[int] = None,
        health_interval_s: float = 0.25,
        admit_timeout_s: Optional[float] = 10.0,
        trace_path: Optional[str] = None,
    ) -> None:
        super().__init__(
            store, policy, num_backends, cache_bytes, miss_penalty_s,
            workers_per_backend, t_low, t_high, max_in_flight, persistent_mode,
        )
        self.health = HealthMonitor(
            self.dispatcher, self.backends, interval_s=health_interval_s
        )
        self.frontend = FrontEndServer(
            self.dispatcher,
            self.backends,
            self.health,
            store=store,
            admit_timeout_s=admit_timeout_s,
        )
        for backend in self.backends:
            backend.dispatcher = self.dispatcher
            backend.peers = self.backends
            backend.reclaim = self.frontend.failover_item
        #: The cluster's metrics registry, served at ``GET /metrics`` on
        #: the front-end address.  Counter/gauge instruments read the
        #: authoritative stats structures at scrape time, so the page can
        #: never disagree with :meth:`stats`.
        self.metrics = MetricsRegistry()
        self._register_metrics()
        #: Shared span writer (``source="live"``) when tracing is on.
        self.trace_writer: Optional[SpanWriter] = None
        if trace_path is not None:
            writer = SpanWriter(trace_path, source="live")
            self.trace_writer = writer
            self.frontend.trace_writer = writer
            for backend in self.backends:
                backend.trace_writer = writer

    def _register_metrics(self) -> None:
        """Register the paper's runtime series over the live structures."""
        registry = self.metrics
        fe = self.frontend
        dispatcher = self.dispatcher
        for name, help_text, read in (
            ("accepted", "Client connections accepted", lambda: fe.stats.accepted),
            ("handoffs", "Connections handed off to a back-end", lambda: fe.stats.handoffs),
            ("handoff_failures", "Hand-off attempts that failed", lambda: fe.stats.handoff_failures),
            ("failovers", "Connections moved to a surviving back-end", lambda: fe.stats.failovers),
            ("rejected", "Connections answered 503", lambda: fe.stats.rejected),
            ("reclaimed", "Queued connections reclaimed from a killed back-end", lambda: fe.stats.reclaimed),
            ("errors", "Connections that died in the front-end", lambda: fe.stats.errors),
        ):
            registry.counter(f"lard_frontend_{name}_total", help_text, fn=read)
        for name, help_text, read in (
            ("admitted", "Connections granted an admission slot", lambda: dispatcher.admitted),
            ("completed", "Connections fully served", lambda: dispatcher.completed),
            ("orphaned", "Connections that died with a failed back-end", lambda: dispatcher.orphaned),
            ("node_failures", "Back-ends removed from the routing set", lambda: dispatcher.node_failures),
            ("node_joins", "Back-ends (re)joined to the routing set", lambda: dispatcher.node_joins),
        ):
            registry.counter(f"lard_dispatcher_{name}_total", help_text, fn=read)
        registry.gauge(
            "lard_in_flight_connections",
            "Admitted connections not yet completed",
            fn=lambda: dispatcher.in_flight,
        )
        for node, backend in enumerate(self.backends):
            labels = {"node": str(node)}
            registry.gauge(
                "lard_backend_connections",
                "Active connections per back-end (the policy's load)",
                labels=labels,
                fn=lambda n=node: dispatcher.loads[n],
            )
            registry.gauge(
                "lard_backend_alive",
                "1 when the back-end is in the routing set",
                labels=labels,
                fn=lambda n=node: 1.0 if dispatcher.is_alive(n) else 0.0,
            )
            registry.counter(
                "lard_backend_requests_total",
                "Requests served per back-end",
                labels=labels,
                fn=lambda b=backend: b.stats.requests_served,
            )
            registry.counter(
                "lard_backend_cache_hits_total",
                "Cache hits per back-end",
                labels=labels,
                fn=lambda b=backend: b.stats.cache_hits,
            )
            registry.counter(
                "lard_backend_cache_misses_total",
                "Cache misses per back-end",
                labels=labels,
                fn=lambda b=backend: b.stats.cache_misses,
            )
        fe.metrics = registry
        fe.handoff_latency = registry.histogram(
            "lard_handoff_latency_seconds",
            "Accept-to-handoff latency (paper Section 6.2)",
        )
        health = self.health
        registry.counter(
            "lard_health_probes_total",
            "Heartbeat probes sent",
            fn=lambda: health.stats.probes,
        )
        registry.counter(
            "lard_health_probe_failures_total",
            "Heartbeat probes that failed",
            fn=lambda: health.stats.probe_failures,
        )
        registry.counter(
            "lard_health_marks_down_total",
            "Down-transitions (failure detection)",
            fn=lambda: health.stats.marks_down,
        )
        registry.counter(
            "lard_health_marks_up_total",
            "Up-transitions (recovery)",
            fn=lambda: health.stats.marks_up,
        )
        health.probe_latency = registry.histogram(
            "lard_health_probe_seconds",
            "Heartbeat probe latency",
        )

    # -- lifecycle -----------------------------------------------------------

    def _start(self) -> None:
        """Back-ends first, then the front-end, then health."""
        for backend in self.backends:
            backend.start()
        self.frontend.start()
        self.health.start()

    def _stop(self) -> None:
        """Health first, then the front-end, then drain the back-ends."""
        self.health.stop()
        self.frontend.stop()
        for backend in self.backends:
            if backend.running:
                backend.stop()
        if self.trace_writer is not None:
            self.trace_writer.close()

    @property
    def address(self) -> Tuple[str, int]:
        return self.frontend.address

    @property
    def num_backends(self) -> int:
        return len(self.backends)

    # -- membership (paper Section 2.6, live) ----------------------------------

    def fail_backend(self, node: int, detect: bool = True) -> None:
        """Crash one back-end (see :meth:`BackendServer.kill`).

        With ``detect=True`` the failure is marked immediately (as the
        hand-off fail-fast path would); with ``detect=False`` only the
        heartbeat monitor will notice, after two missed beats — useful
        for exercising detection latency.
        """
        self.backends[node].kill()
        if detect:
            self.health.mark_down(node)

    def restart_backend(self, node: int, immediate: bool = True) -> None:
        """Bring a crashed/stopped back-end back, cold.

        ``immediate=True`` rejoins the policy's node set right away;
        otherwise the health monitor rejoins it after two clean
        heartbeats.
        """
        backend = self.backends[node]
        if not backend.running:
            backend.start()
        if immediate:
            self.health.mark_up(node)

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> ClusterStats:
        """Snapshot of front-end, health, and per-back-end statistics."""
        alive_set = set(self.dispatcher.alive_nodes)
        return ClusterStats(
            backends=[b.stats for b in self.backends],
            loads=self.dispatcher.loads,
            frontend=self.frontend.stats,
            health=self.health.stats,
            alive=[n in alive_set for n in range(len(self.backends))],
            orphaned=self.dispatcher.orphaned,
            failovers=self.dispatcher.failovers,
        )


class L4ProxyCluster(_Cluster):
    """The commercial-comparator deployment: an L4 relay over TCP back-ends.

    Content-oblivious by construction (the back-end is chosen before any
    request byte is read), so only load-based distribution applies — WRR,
    exactly as the paper says of 1998's commercial front-ends.  Response
    bytes flow through the front-end; compare
    ``stats().proxy.bytes_relayed`` against a
    :class:`HandoffCluster`, whose front-end never touches them.

    Failure handling matches the L4 reality: the proxy discovers a dead
    back-end when its TCP connect fails, drops it from rotation, and
    retries the connection against a survivor.
    """

    def __init__(
        self,
        store: DocumentStore,
        num_backends: int = 4,
        cache_bytes: int = 8 * 2**20,
        miss_penalty_s: float = 0.02,
        workers_per_backend: int = 4,
        t_low: int = 4,
        t_high: int = 12,
        max_in_flight: Optional[int] = None,
    ) -> None:
        super().__init__(
            store, "wrr", num_backends, cache_bytes, miss_penalty_s,
            workers_per_backend, t_low, t_high, max_in_flight,
        )
        self.proxy: Optional[L4ProxyFrontEnd] = None

    def _start(self) -> None:
        """Listening back-ends first, then the relay proxy."""
        addresses = []
        for backend in self.backends:
            backend.start()
            addresses.append(backend.listen())
        self.proxy = L4ProxyFrontEnd(self.dispatcher, addresses)
        self.proxy.start()

    def _stop(self) -> None:
        if self.proxy is None:
            raise RuntimeError("cluster marked started but has no proxy")
        self.proxy.stop()
        for backend in self.backends:
            backend.stop()

    @property
    def address(self) -> Tuple[str, int]:
        if self.proxy is None:
            raise RuntimeError("cluster not started")
        return self.proxy.address

    def stats(self) -> L4ClusterStats:
        """Snapshot of proxy and per-back-end statistics."""
        if self.proxy is None:
            raise RuntimeError("cluster not started")
        return L4ClusterStats(
            backends=[b.stats for b in self.backends],
            loads=self.dispatcher.loads,
            proxy=self.proxy.stats,
        )
