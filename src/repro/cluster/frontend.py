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

It also owns cluster-membership dynamics (paper Section 2.6), driven
by the fault runtime (:mod:`repro.cluster.faults`): failures drop a
node's mappings and load accounting, a rejoin sets the node's cache
state, and connections already in flight drain without corrupting the
books.

The front-end decides *who* serves and keeps the books; the request
lifecycle itself — every run's, whatever is attached to it — is the
state machine in :mod:`repro.cluster.fastpath`, whose connections share
the front-end's per-run state: the pool, the cost tables and the
references into the policy's and the tracker's hot state.  Every run
that can runs on the compiled engine (``ClusterSimulator.engine``
chooses it), and a plain, traced, faulty or sanitized run takes the same
lifecycle compiled as well (:mod:`repro.sim.native`): :meth:`FrontEnd.start`
decides that, and says why not.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.base import Policy
from ..sim.engine import Engine
from ..sim.sanitize import InvariantSanitizer
from ..workload.trace import Trace
from .costs import CostModel
from .fastpath import DiskTimes, FastConnection, FaultyConnection
from .metrics import LoadTracker
from .node import BackendNode

__all__ = ["FrontEnd"]


class FrontEnd:
    """Closed-loop connection admission and dispatch over a trace.

    What the state machine's connections share is held here too — the
    tables, the pool and the connection class are built by ``start()``,
    so a simulator that is built and never run pays for none of them:

    * ``units[t]`` — target ``t``'s size in 512-byte transmit blocks;
      multiplied by a node's folded ``_transmit_per_unit`` this is
      bit-for-bit the oracle's ``((size + 511) // 512) * per_unit``;
    * ``dynamic_costs[t]`` — target ``t``'s CGI CPU cost in seconds
      (``None`` for an all-static catalog), one table for every node;
    * one :class:`DiskTimes` per distinct :class:`CostModel`
      (:meth:`disk_times`), handed to each node for its own model;
    * the policy's ``loads``/``_alive`` lists and the tracker's arrays
      (which integrate over that same ``loads``), captured by reference
      — they are mutated in place, never reassigned — so the
      per-request accounting runs on plain list indexing;
    * the connection pool, and the connection class this run needs: a
      run without a fault runtime executes none of its code.
    """

    def __init__(
        self,
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
        #: The run's engine, given by ``ClusterSimulator.engine`` when it
        #: makes it (before ``start()``).
        self.engine: Any = None
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
        # The request stream as a read-only memoryview of the trace's
        # array, and the catalog's sizes as a list.  Indexing the view
        # returns a plain int, as a list would, but costs no memory per
        # request (indexing the numpy array itself would box a numpy
        # scalar).  Read-only: nothing here may write to the trace.
        self._targets, self._size_list = trace.request_lists()
        # The LB/GC front-end cache model is the only policy with
        # per-request hit predictions; resolve the hook once.
        self._take_prediction = getattr(policy, "take_prediction", None)
        #: Trace length: admission stops here.
        self.n = len(self._targets)
        self.choose = policy.choose
        self.p_loads: List[int] = policy.loads
        self.p_alive: List[bool] = policy._alive
        self.t_under_since: List[float] = tracker._under_since
        self.t_under_time: List[float] = tracker._under_time
        self.t_is_under: List[bool] = tracker._is_under
        self.t_threshold: float = tracker.threshold
        self._next = 0
        self.in_flight = 0
        self.completed = 0
        self.connections = 0
        self.rehandoffs = 0
        self.total_delay_s = 0.0
        self.per_node_delay_s = [0.0] * len(nodes)
        self.per_node_completions = [0] * len(nodes)
        # Membership epochs: bumped when a node fails so that connections
        # dispatched before the failure do not corrupt load accounting
        # when they drain (paper Section 2.6 failure handling).
        self._epoch = [0] * len(nodes)
        self.orphaned = 0
        #: When True, every request's delay is recorded (percentiles).
        self.collect_delays: bool = False
        self.delays_s: List[float] = []
        #: Optional :class:`repro.obs.tracer.SimTracer` and
        #: :class:`repro.cluster.faults.FaultRuntime`, attached from
        #: outside before ``start()`` (like the invariant sanitizer).
        #: Neither changes what runs.  The tracer is a row sink either
        #: core writes a span into as each request completes; the fault
        #: runtime selects the connection class the state machine is
        #: built from (and the compiled core its faulty stages), adding
        #: crash detection lag, client retries and lost-request
        #: accounting — with an empty schedule it replays the plain
        #: stages exactly.
        self.tracer: Optional[Any] = None
        self.faults: Optional[Any] = None
        #: Which lifecycle ``start()`` chose: ``"native"`` (the compiled
        #: core) or ``"python"`` (``fastpath.py``), and for the latter
        #: why; ``None`` before ``start()``.
        self.core: Optional[str] = None
        self.core_reason = ""
        self._native: Optional[Any] = None

    # -- driving ---------------------------------------------------------------

    def start(self) -> None:
        """Install the fault schedule, pick the connection class for this
        run's observers and the core that runs it, hand each node its
        disk-time table and admit the initial batch; completions keep
        the pipeline full."""
        #: The fault runtime's transitions, scheduled before the run: the
        #: one kind of event from outside the compiled core runs beside.
        self._fault_events = 0
        if self.faults is not None:
            self._fault_events = self.faults.schedule_events(self.engine)
        self.conn_class = FastConnection if self.faults is None else FaultyConnection
        #: The admission loop may run a start event in place.  Not a
        #: traced one: it snapshots ``policy.loads``, which the later
        #: admissions of the same loop still change.
        self.inplace: bool = self.tracer is None
        self.units: List[int] = self.trace.transmit_units(512)
        self.dynamic_costs: Optional[List[float]] = self.trace.dynamic_cost_list()
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
            node.disk_times = self.disk_times(node.costs)
        core, self.core_reason = self._pick_core()
        self.core = "python" if core is None else "native"
        if core is None:
            self.admit()
        else:
            self._native = core(self, self._sanitizer())
            self._native.admit()

    def _pick_core(self) -> Tuple[Optional[Any], str]:
        """The compiled core's ``Core`` class for a run it covers, else
        ``None`` and why the run takes ``fastpath.py``.

        The compiled core is the :class:`FastConnection` lifecycle over
        private caches, one disk per node, CGI costs, coalesced and
        chunked reads, persistent connections and delay collection, and
        :class:`FaultyConnection`'s under a fault runtime, whose
        transitions tell the core what they change (:meth:`fail_node`,
        :meth:`join_node`, :meth:`refresh_node`, :meth:`flush_rows`).
        A tracer is a row sink the core writes too, and the invariant
        sanitizer watching this front-end is checked by the core: its
        per-event laws over the core's own books, its deep sweep over
        the books written back for it (:meth:`_sanitizer`).  What
        watches every event of a run otherwise (a foreign engine hook,
        which could read the books the core keeps until the run ends,
        or a profiler) and what the core does not implement (GMS,
        LB/GC's hit hints, several disks per node, the test oracle's
        admission seam, events scheduled from outside that are not the
        fault runtime's, which could read those books too) keeps the
        reference.  The core's events are native events of the compiled
        engine, so a run on ``engine.py`` (under a profiler, whose every
        stage and helper is its own entry there, or with the extension
        unavailable) keeps the reference too.
        """
        from ..sim import native

        if self.engine._sanitizer is not None and self._sanitizer() is None:
            return None, "foreign event hook"
        if native.profiled():
            return None, "profiler attached"
        unsupported = self._unsupported()
        if unsupported:
            return None, f"unsupported configuration: {unsupported}"
        module, why = native.load()
        if module is None:
            return None, f"extension unavailable: {why}"
        if type(self.engine) is Engine:  # made while a profiler watched
            return None, "profiler attached"
        return module.Core, ""

    def _sanitizer(self) -> Optional[InvariantSanitizer]:
        """The invariant sanitizer whose :meth:`~InvariantSanitizer
        .after_event` is the engine's hook and which watches this
        front-end, else ``None``: the one hook whose checks the compiled
        core makes itself."""
        hook = self.engine._sanitizer
        sanitizer = getattr(hook, "__self__", None)
        if (
            type(sanitizer) is InvariantSanitizer
            and hook == sanitizer.after_event
            and sanitizer._frontend is self
        ):
            return sanitizer
        return None

    def _unsupported(self) -> str:
        """What in this run the compiled core does not cover, or ``""``."""
        nodes = self.nodes
        if any(node.gms is not None for node in nodes):
            return "GMS"
        if self._take_prediction is not None:
            return "LB/GC hit hints"
        if any(len(node.disks) != 1 for node in nodes):
            return "multi-disk nodes"
        if "admit" in vars(self):
            return "replaced admission"
        if self.engine.pending > self._fault_events:
            return "events scheduled before the run"
        return ""

    def run(self) -> float:
        """Dispatch the run's events to the end with :meth:`Engine.run
        <repro.sim.engine.Engine.run>` and return the clock; on the
        compiled core, then write its books back into these objects.
        A tracer's last rows go to its writer however the run ends."""
        try:
            return self.engine.run()
        finally:
            core, self._native = self._native, None
            try:
                if core is not None:
                    core.finish()
            finally:
                if self.tracer is not None:
                    self.tracer.flush()

    def release(self) -> None:
        """The run is over: free its connections, so that nothing left
        is a reference cycle.  Every connection of a finished run is
        parked in the pool, and a pooled connection's only way back to
        itself is the pool; what is read afterwards (the counters,
        ``conn_class``, the cost tables) stays."""
        self.pool.clear()
        self._native = None

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
    #
    # The fault runtime's transitions run as Python events beside the
    # compiled core, which holds copies of the admission limit, the
    # nodes' cost constants and the span rows written since the last
    # flush: each transition tells it what changed.

    def fail_node(self, node: int) -> None:
        """A back-end died: drop its mappings and load, orphan its
        in-flight connections, and stop routing to it."""
        self.policy.on_node_failure(node)
        self.tracker.observe(node, self.engine.now)
        self._epoch[node] += 1
        backend = self.nodes[node]
        if backend.gms is not None:
            backend.gms.drop_node(node)
        self._relimit()

    def join_node(self, node: int, cache_mode: str, aged_fraction: float) -> None:
        """A back-end (re)joined.

        ``cache_mode`` selects what its cache survived with: ``"cold"``
        (cleared — the paper's join), ``"warm"`` (kept exactly as it
        died), or ``"aged"`` (``aged_fraction`` of its bytes evicted in
        policy order).  GMS-backed nodes have no private cache and
        always effectively rejoin cold.
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
        self._relimit()
        if self._native is not None:
            self._native.admit()
        else:
            self.admit()

    def _relimit(self) -> None:
        """The alive count changed: so does an automatic admission
        limit (the paper's S), on the compiled core too."""
        if self._auto_limit:
            self.max_in_flight = self.policy.admission_limit
            if self._native is not None:
                self._native.max_in_flight = self.max_in_flight

    def refresh_node(self, node: int) -> None:
        """``node``'s cost model and disk-time table were replaced (a
        brownout): the compiled core reads their constants again."""
        if self._native is not None:
            self._native.reload_node(node)

    def flush_rows(self) -> None:
        """The span rows the compiled core has written since the
        tracer's last flush go to its writer, ahead of a fault record
        (on the reference they are the tracer's own to flush)."""
        if self._native is not None:
            self._native.flush_rows()

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
        as the dispatch it replaces.  The engine says when that is
        (:meth:`~repro.sim.engine.Engine.runs_next`): nothing is staged
        ahead of it, the run loop is going to dispatch another event
        (which also keeps every run's initial fill, made before
        ``run()``, staged) and nothing else is due at this instant.
        A sanitizer's hook must see every event, so the site
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
            target = self._targets[first]
            size = self._size_list[target]
            node_id = self.choose(target, size, now)
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
            if self.inplace and engine.runs_next():
                engine.events_dispatched += 1
                begin = conn.begin_stage
                begin(conn)
                hook = engine._sanitizer
                if hook is not None:
                    hook(now, begin)
            else:
                engine.post(0.0, conn.begin_stage, conn)

    def new_connection(self) -> FastConnection:
        """A connection object for the pool, of the class this run
        needs."""
        return self.conn_class(self)

    # -- per-connection accounting --------------------------------------------------

    def _attach(self, node_id: int) -> None:
        self.policy.on_dispatch(node_id)
        self.tracker.observe(node_id, self.engine.now)

    def _detach(self, node_id: int, epoch: int) -> None:
        """Release a connection's load at ``node_id``, unless the node
        failed since the dispatch (then the connection is an orphan)."""
        if self._epoch[node_id] != epoch:
            self.orphaned += 1
            return
        self.policy.on_complete(node_id)
        self.tracker.observe(node_id, self.engine.now)

    def _account_request(self, node_id: int, epoch: int, start: float) -> None:
        delay = self.engine.now - start
        self.total_delay_s += delay
        if self.collect_delays:
            self.delays_s.append(delay)
        if self._epoch[node_id] == epoch:
            self.per_node_delay_s[node_id] += delay
            self.per_node_completions[node_id] += 1
        self.completed += 1

    def _account_lost(self, start: float) -> None:
        """Terminal accounting for a request abandoned after retries.

        It still counts toward ``completed`` (the closed loop must
        drain) and, when delays are collected, contributes its
        abandonment delay; the fault runtime books it lost.
        """
        now = self.engine.now
        self.total_delay_s += now - start
        if self.collect_delays:
            self.delays_s.append(now - start)
        self.completed += 1
