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
state machine in :mod:`repro.cluster.fastpath`, whose connections share
the front-end's per-run state: the pool, the cost tables and the
references into the policy's and the tracker's hot state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..core.base import Policy
from ..sim import Engine
from ..workload.trace import Trace
from .costs import CostModel
from .fastpath import _TRACED, DiskTimes, FastConnection, FaultyConnection
from .metrics import LoadTracker
from .node import BackendNode

__all__ = ["FrontEnd", "PERSISTENT_POLICIES"]

PERSISTENT_POLICIES = ("sticky", "rehandoff")


class FrontEnd:
    """Closed-loop connection admission and dispatch over a trace.

    What the state machine's connections share is held here too — the
    tables, the pool and the connection class are built by ``start()``,
    so a simulator that is built and never run pays for none of them:

    * ``units[t]`` — target ``t``'s size in 512-byte transmit blocks;
      multiplied by a node's folded ``_transmit_per_unit`` this is
      bit-for-bit the oracle's ``((size + 511) // 512) * per_unit``;
    * one :class:`DiskTimes` per distinct :class:`CostModel`
      (:meth:`disk_times`), handed to each node for its own model;
    * the policy's ``loads``/``_alive`` lists and the tracker's arrays
      (which integrate over that same ``loads``), captured by reference
      — they are mutated in place, never reassigned — so the
      per-request accounting runs on plain list indexing;
    * the connection pool, and the connection class this run needs: a
      run without a tracer or a fault runtime executes none of their
      code.
    """

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
        #: ``persistent_policy == "rehandoff"``: the policy is re-run
        #: for every request of a connection, not only its first.
        self.rehandoff = persistent_policy == "rehandoff"
        # Plain-list views of the trace: indexing a numpy array yields a
        # numpy scalar that must be unboxed per request, which dominates
        # the admission loop on long traces.  Memoized on the trace so
        # sweeps reusing one trace across cells convert it once.
        self._target_list, self._size_list = trace.request_lists()
        # The LB/GC front-end cache model is the only policy with
        # per-request hit predictions; resolve the hook once.
        self._take_prediction = getattr(policy, "take_prediction", None)
        #: Trace length: admission stops here.
        self.n = len(self._target_list)
        self.choose = policy.choose
        self.p_loads: List[int] = policy.loads
        self.p_alive: List[bool] = policy._alive
        self.t_under_since: List[float] = tracker._under_since
        self.t_under_time: List[float] = tracker._under_time
        self.t_is_under: List[bool] = tracker._is_under
        self.t_threshold: float = tracker.threshold
        # One bound method for every connection: posting an event is
        # the single hottest call each stage makes.
        self.post = engine.post
        # What an admission looks at to tell whether the start event it
        # is about to stage would be the very next one dispatched (see
        # ``admit``): the engine's two queues, never written from here.
        self.heap = engine._queue  # lardlint: disable=event-queue -- read-only: is anything else due at this instant
        self.nowq = engine._nowq  # lardlint: disable=event-queue -- read-only: is anything staged ahead
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

    # -- driving ---------------------------------------------------------------

    def start(self) -> None:
        """Pick the connection class for this run's observers, hand each
        node its disk-time table and admit the initial batch;
        completions keep the pipeline full."""
        base = FastConnection if self.faults is None else FaultyConnection
        self.conn_class = base if self.tracer is None else _TRACED[base]
        #: The admission loop may run a start event in place.  Not a
        #: traced one: it snapshots ``policy.loads``, which the later
        #: admissions of the same loop still change.
        self.inplace: bool = self.tracer is None
        self.units: List[int] = self.trace.transmit_units(512)
        self.tables: Dict[CostModel, DiskTimes] = {}
        self.pool: List[FastConnection] = []
        for node in self.nodes:
            for resource in (node.cpu, *node.disks):
                if resource.capacity != 1:
                    raise ValueError(
                        "the request state machine books single-server "
                        f"resources only: {resource.name} has capacity "
                        f"{resource.capacity}"
                    )
            node.disk_times_for = self.disk_times
            node.disk_times = self.disk_times(node.costs)
        self.admit()

    def release(self) -> None:
        """The run is over: free its connections and cut the links from
        the nodes back to this object (``disk_times_for``), so that
        nothing left is a reference cycle.  Every connection of a
        finished run is parked in the pool, and a pooled connection's
        only way back to itself is the pool; what is read afterwards
        (the counters, ``conn_class``, the cost tables) stays."""
        self.pool.clear()
        for node in self.nodes:
            node.disk_times_for = None

    def disk_times(self, costs: CostModel) -> DiskTimes:
        """The disk-time table for ``costs``, built on first use (a
        brownout's scaled model gets its own, shared by every node and
        every interval that scales the same way)."""
        table = self.tables.get(costs)
        if table is None:
            table = self.tables[costs] = DiskTimes(costs, self.trace.sizes_by_target)
        return table

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
        self.admit()

    # -- admission ---------------------------------------------------------------

    def admit(self) -> None:
        """Admit connections while slots and trace requests remain: one
        policy decision, one load/tracker/counter update and one
        scheduled start event per connection, which takes the next
        ``requests_per_connection`` trace requests (the first one picks
        the node).  The one seam the reference oracle in
        ``tests/cluster_oracle.py`` replaces.

        This loop serves pipeline (re)fills — ``start()`` and
        ``join_node`` — a fault-model connection given up after its
        retries, and the rare completion that frees more than the one
        slot it refills; the steady-state single admission is inlined
        in :meth:`FastConnection._complete`.

        A start event is staged (``post(0.0, ...)``) unless it would
        be the very next event dispatched anyway, in which case it runs
        here, in place, and is counted in ``engine.events_dispatched``
        as the dispatch it replaces.  That is so exactly when nothing
        is staged ahead of it (``_nowq`` empty), the run loop is going
        to dispatch another event (engine not stopped — which also
        keeps every run's initial fill, made before ``run()``, staged)
        and nothing else is due at this instant (heap empty, or its top
        strictly later than ``now``: a heap entry for ``now`` goes
        first).  A sanitizer's hook must see every event, so the site
        that ran one in place calls it, as the run loop would have:
        ``hook(now, stage)`` right after the event.  Every admission
        here is the last thing its event does
        to the policy, the tracker and the front-end's books; what is
        left of the loop is more admissions, whose decisions read none
        of what an untraced start event writes (its own clock, the
        node's CPU queue, the engine's heap).
        """
        engine = self.engine
        now = engine.now
        n = self.n
        while self.in_flight < self.max_in_flight and self._next < n:
            first = self._next
            end = first + self.requests_per_connection
            if end > n:
                end = n
            self._next = end
            target = self._target_list[first]
            size = self._size_list[target]
            node_id = self.choose(target, size, now=now)
            # LB/GC's idealized front-end cache model dictates hit/miss.
            take = self._take_prediction
            hit_hint = take() if take is not None else None
            # Policy.on_dispatch, inlined (no subclass overrides it; the
            # canonical call reproduces the error on the failure branch).
            policy = self.policy
            if not self.p_alive[node_id]:
                policy.on_dispatch(node_id)
            p_loads = self.p_loads
            load = p_loads[node_id] + 1
            p_loads[node_id] = load
            policy.dispatches += 1
            # LoadTracker.observe, inlined.  Admission never moves the
            # clock, so one ``now`` read serves the whole loop; a +1
            # delta can only cross the threshold upward, so only the
            # leaves-underutilization transition is reachable.
            if load >= self.t_threshold and self.t_is_under[node_id]:
                self.t_under_time[node_id] += now - self.t_under_since[node_id]
                self.t_is_under[node_id] = False
            self.per_node_dispatches[node_id] += 1
            self.connections += 1
            self.in_flight += 1
            pool = self.pool
            conn = pool.pop() if pool else self.new_connection()
            conn.epoch = self._epoch[node_id]
            conn.node = self.nodes[node_id]
            conn.target = target
            conn.size = size
            conn.hit_hint = hit_hint
            conn.index = first
            conn.last = end - 1
            # One start event per connection, in admission order.
            if (
                self.inplace
                and not (self.nowq or engine._stopped)
                and (not self.heap or self.heap[0][0] > now)
            ):
                engine.events_dispatched += 1
                begin = conn.begin_stage
                begin(conn)
                hook = engine._sanitizer
                if hook is not None:
                    hook(now, begin)
            else:
                self.post(0.0, conn.begin_stage, conn)

    def new_connection(self) -> FastConnection:
        """A connection object for the pool, of the class this run
        needs."""
        return self.conn_class(self)

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
