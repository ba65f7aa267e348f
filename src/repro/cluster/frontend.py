"""Front-end model: admission control plus policy-driven dispatch.

The simulated front-end follows the paper's assumptions (Sections 2.1 and
3.1): it has **no processing overhead**, it hands each admitted connection
to the back-end chosen by the distribution policy, and it "limits the sum
total of connections handed to all back-end nodes" to the admission limit
S.  The request arrival rate "was matched to the aggregate throughput of
the server" — i.e. the system runs closed-loop: a new connection is
admitted the moment a slot frees up, so back-ends are never starved by the
arrival process itself.

Beyond the paper's HTTP/1.0 evaluation, this front-end also implements the
**persistent-connection** protocol support described (but not evaluated)
in Section 5: with ``requests_per_connection > 1`` each admitted
connection carries several consecutive trace requests, and
``persistent_policy`` selects between the two options the hand-off
protocol provides — ``"sticky"`` (one back-end serves all of a
connection's requests) and ``"rehandoff"`` (the front-end re-runs the
policy per request and moves the connection when the policy says so).

It also owns cluster-membership dynamics (paper Section 2.6): failures
drop a node's mappings, load accounting and (on rejoin) cache, while
connections already in flight drain without corrupting the books.

The front-end decides *who* serves and keeps the books; the request
lifecycle itself — every run's, whatever is attached to it — is the
state machine in :mod:`repro.cluster.fastpath`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.base import Policy
from ..sim import Engine
from ..workload.trace import Trace
from .fastpath import FastPath
from .metrics import LoadTracker
from .node import BackendNode

__all__ = ["FrontEnd", "PERSISTENT_POLICIES"]

PERSISTENT_POLICIES = ("sticky", "rehandoff")


class FrontEnd:
    """Closed-loop connection admission and dispatch over a trace."""

    def __init__(
        self,
        engine: Engine,
        policy: Policy,
        nodes: Sequence[BackendNode],
        trace: Trace,
        tracker: LoadTracker,
        max_in_flight: Optional[int] = None,
        requests_per_connection: int = 1,
        persistent_policy: str = "sticky",
    ) -> None:
        if len(nodes) != policy.num_nodes:
            raise ValueError(
                f"policy expects {policy.num_nodes} nodes, cluster has {len(nodes)}"
            )
        self.engine = engine
        self.policy = policy
        self.nodes = nodes
        self.trace = trace
        self.tracker = tracker
        self._auto_limit = max_in_flight is None
        self.max_in_flight = (
            max_in_flight if max_in_flight is not None else policy.admission_limit
        )
        self.requests_per_connection = requests_per_connection
        self.persistent_policy = persistent_policy
        # Plain-list views of the trace: indexing a numpy array yields a
        # numpy scalar that must be unboxed per request, which dominates
        # the admission loop on long traces.  Memoized on the trace so
        # sweeps reusing one trace across cells convert it once.
        self._target_list, self._size_list = trace.request_lists()
        # The LB/GC front-end cache model is the only policy with
        # per-request hit predictions; resolve the hook once.
        self._take_prediction = getattr(policy, "take_prediction", None)
        self._next = 0
        self.in_flight = 0
        self.completed = 0
        self.connections = 0
        self.rehandoffs = 0
        self.total_delay_s = 0.0
        self.per_node_dispatches = [0] * len(nodes)
        self.per_node_delay_s = [0.0] * len(nodes)
        self.per_node_completions = [0] * len(nodes)
        # Membership epochs: bumped when a node fails so that connections
        # dispatched before the failure do not corrupt load accounting
        # when they drain (paper Section 2.6 failure handling).
        self._epoch = [0] * len(nodes)
        self.orphaned = 0
        #: When set (seconds), completions are counted into time buckets —
        #: used by the failure-recovery experiment to plot throughput dips.
        self.timeline_interval_s: Optional[float] = None
        self.timeline: Dict[int, int] = {}
        #: When True, every request's delay is recorded (percentiles).
        self.collect_delays: bool = False
        self.delays_s: List[float] = []
        #: Optional :class:`repro.obs.tracer.SimTracer` and
        #: :class:`repro.cluster.faults.FaultRuntime`, attached from
        #: outside before ``start()`` (like the invariant sanitizer).
        #: Neither changes what runs: each selects the connection class
        #: the state machine is built from, the tracer's stamping spans
        #: around the stages, the fault runtime's adding crash detection
        #: lag, client retries and lost-request accounting — with an
        #: empty schedule it replays the plain stages exactly.
        self.tracer: Optional[Any] = None
        self.faults: Optional[Any] = None
        #: The request lifecycle (:mod:`repro.cluster.fastpath`), built
        #: by ``start()`` once the observers above are in place.
        self._fastpath: Optional[FastPath] = None

    # -- driving ---------------------------------------------------------------

    def start(self) -> None:
        """Build the state machine for this run's observers and admit
        the initial batch; completions keep the pipeline full."""
        self._fastpath = FastPath(self)
        self._admit()

    def release(self) -> None:
        """The run is over: drop the state machine's per-run state and
        its link back to this object (``FastPath.release``).  The
        counters, and ``_fastpath.conn_class``, remain readable."""
        self._fastpath.release()

    @property
    def done(self) -> bool:
        return self.completed == len(self.trace)

    # -- cluster membership (paper Section 2.6) ---------------------------------

    def fail_node(self, node: int) -> None:
        """A back-end died: drop its mappings and load, orphan its
        in-flight connections, and stop routing to it."""
        self.policy.on_node_failure(node)
        self.tracker.observe(node, self.engine.now)
        self._epoch[node] += 1
        backend = self.nodes[node]
        if backend.gms is not None:
            backend.gms.drop_node(node)
        if self._auto_limit:
            self.max_in_flight = self.policy.admission_limit

    def join_node(
        self, node: int, cache_mode: str = "cold", aged_fraction: float = 0.5
    ) -> None:
        """A back-end (re)joined.

        ``cache_mode`` selects what its cache survived with: ``"cold"``
        (cleared — the default, and the only behavior before the fault
        model existed), ``"warm"`` (kept exactly as it died), or
        ``"aged"`` (``aged_fraction`` of its bytes evicted in policy
        order).  GMS-backed nodes have no private cache and always
        effectively rejoin cold.
        """
        if cache_mode not in ("cold", "warm", "aged"):
            raise ValueError(
                f"cache_mode must be 'cold', 'warm' or 'aged', got {cache_mode!r}"
            )
        self.policy.on_node_join(node)
        backend = self.nodes[node]
        if backend.cache is not None:
            if cache_mode == "cold":
                backend.cache.clear()
            elif cache_mode == "aged":
                backend.cache.age(aged_fraction)
        if self._auto_limit:
            self.max_in_flight = self.policy.admission_limit
        self._admit()

    # -- admission ---------------------------------------------------------------

    def _admit(self) -> None:
        """Fill the free admission slots (the one seam the reference
        oracle in ``tests/cluster_oracle.py`` replaces)."""
        self._fastpath.admit()

    # -- per-connection accounting --------------------------------------------------

    def _attach(self, node_id: int) -> None:
        self.policy.on_dispatch(node_id)
        self.tracker.observe(node_id, self.engine.now)
        self.per_node_dispatches[node_id] += 1

    def _detach(self, node_id: int, epoch: int) -> None:
        """Release a connection's load at ``node_id``, unless the node
        failed since the dispatch (then the connection is an orphan)."""
        if self._epoch[node_id] != epoch:
            self.orphaned += 1
            return
        self.policy.on_complete(node_id)
        self.tracker.observe(node_id, self.engine.now)

    def _account_request(self, node_id: int, epoch: int, start: float) -> None:
        now = self.engine.now
        delay = now - start
        self.total_delay_s += delay
        if self.collect_delays:
            self.delays_s.append(delay)
        if self._epoch[node_id] == epoch:
            self.per_node_delay_s[node_id] += delay
            self.per_node_completions[node_id] += 1
        if self.timeline_interval_s is not None:
            bucket = int(now // self.timeline_interval_s)
            self.timeline[bucket] = self.timeline.get(bucket, 0) + 1
        self.completed += 1

    def _account_lost(self, start: float) -> None:
        """Terminal accounting for a request abandoned after retries.

        It still counts toward ``completed`` (the closed loop must
        drain) and, when delays are collected, contributes its
        abandonment delay — but never lands in ``timeline``, whose
        buckets count goodput only.
        """
        now = self.engine.now
        self.total_delay_s += now - start
        if self.collect_delays:
            self.delays_s.append(now - start)
        self.completed += 1
