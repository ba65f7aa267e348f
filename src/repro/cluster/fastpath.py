"""Flattened request lifecycle: the fault-free fast path, traced or not.

The generator lifecycle in :mod:`repro.cluster.frontend` /
:mod:`repro.cluster.node` expresses one request as a coroutine that yields
``Service``/``Wait`` commands; every lifecycle stage then costs a
``Process._step`` dispatch, a ``generator.send``, a command-object
allocation, an ``_activate`` call and a ``Resource._finish`` ->
``resume()`` indirection.  This module replays the *exact same*
simulation as an explicit state machine: each stage is one pre-bound
callback handed directly to the engine, with the resource bookkeeping
that ``Resource._enqueue``/``_finish`` would do inlined at the head and
tail of each stage, so one event dispatch performs one whole lifecycle
step with no coroutine machinery in between.

Resource waiters need care here.  In a fast-path run *every* job on a
node resource belongs to a fast-path connection (the front end picks
the path per run, a fault runtime forces the generator lifecycle for
the whole run, and the serve paths use plain FIFO services only), so the
canonical ``Resource._finish`` wrapper never runs: a contended enqueue
appends the stage callback itself to ``_waiting``, and the completing
stage promotes it by scheduling it directly — the stage callback books
its own completion when it fires.  The promotion skips the canonical
``_start`` busy-integral fold deliberately: the promoting stage has
just set ``_last_change`` to the current instant, so the fold would add
``busy * 0.0`` — bit-identical to not folding at all (the integral is
always >= +0.0).  Mixing generator waiters into these queues would
double-book a service; the byte-identity suite catches that immediately
because utilization integrals land in the golden CSVs.

Byte-identity contract (enforced by ``tests/test_fastpath_identity.py``
and the golden-CSV suite):

* the relative order of every ``engine.schedule`` call — admissions,
  service starts, waiter promotions, coalesced-read wakeups — matches
  the generator path exactly, so the engine consumes the same
  ``(time, seq)`` stream and dispatches the same events;
* per-request state reads happen at the same event boundaries: the
  membership epoch and start timestamp are read when the connection's
  start event dispatches (not at admit time); the pending-read table is
  deregistered after the last data chunk completes and before teardown
  is enqueued; a freed server promotes its next waiter *before* the
  finishing request's own logic runs (the CPU round-robins at service
  granularity, exactly as ``Resource._finish`` does it);
* all float arithmetic mirrors the generator lifecycle operation for
  operation: resource busy-time integrals fold the identical
  ``busy * (now - last_change)`` terms in the identical order, transmit
  time is ``units * per_unit`` with the precomputed integer ``units``,
  and the GMS paths call the exact ``CostModel`` methods the generator
  calls.

Several canonical bodies are deliberately inlined here — from
``Resource`` (enqueue/finish), ``Policy.on_dispatch``/``on_complete``,
``LoadTracker._update`` and ``FrontEnd._account_request``/``_detach`` —
because at ~4 events per request the call frames themselves dominated
the profile.  Any semantic change to those canonical implementations
must be mirrored below; the identity tests exist to catch a missed
mirror.

The front end falls back to the generator lifecycle whenever a fault
runtime is attached, for persistent connections
(``requests_per_connection > 1``), or when back-ends disagree on their
cost model — the fallback *is* the identity test's reference.

A tracer does not change the path.  With ``FrontEnd.tracer`` set when
the connection objects are built they are :class:`TracedConnection` objects:
stage wrappers that stamp the span's phases around the unchanged stage
bodies, plus the one ``_served_hook`` call inside ``_complete`` (see
there for why that point cannot be a wrapper).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..cache.gms import GMSOutcome
from ..sim.resources import SimEvent

__all__ = ["FastPath", "FastConnection", "TracedConnection"]

# Audited by lardlint's twin-drift pass: each side's call-graph closure
# must expose the same effect skeleton (see docs/static-analysis.md).
__twin_of__ = {
    "FastPath.admit": "repro.cluster.frontend.FrontEnd._admit",
    "FastConnection._begin": "repro.cluster.frontend.FrontEnd._connection",
}

#: Shared empty plan for single-service data paths (cache hits,
#: coalesced reads): ``_advance`` sees no remaining steps and proceeds
#: straight to teardown.
_EMPTY_PLAN: Tuple[Tuple[Any, float], ...] = ()


class FastPath:
    """Per-front-end state for the flattened path: precomputed cost
    tables (the vectorized cost side of arrival generation), resolved
    references into the policy/tracker hot state, and the connection
    pool.

    Cost tables are derived once per front end from the shared
    :class:`~repro.cluster.costs.CostModel` with numpy:

    * ``units[t]`` — target ``t``'s size in 512-byte transmit blocks;
      multiplied by a node's folded ``_transmit_per_unit`` this is
      bit-for-bit the generator's ``((size + 511) // 512) * per_unit``.
    * ``single_disk_time[t]`` — the full disk service time for targets
      that fit one 44 KB chunk (the overwhelming majority), mirroring
      ``CostModel.disk_chunks`` arithmetic exactly.

    Multi-chunk read plans are built lazily per target and memoized.
    The policy's ``loads``/``_alive`` lists and the tracker's arrays are
    captured by reference (they are mutated in place, never reassigned),
    so the per-request accounting below runs on plain list indexing.
    """

    __slots__ = (
        "fe",
        "pool",
        "units",
        "single_disk_time",
        "chunk_bytes",
        "costs",
        "dynamic",
        "plans",
        "targets_l",
        "sizes_l",
        "n",
        "choose",
        "take",
        "policy",
        "p_loads",
        "p_alive",
        "tracker",
        "t_load",
        "t_under_since",
        "t_under_time",
        "t_is_under",
        "t_threshold",
        "epochs",
        "nodes",
        "per_node_dispatches",
        "per_node_delay_s",
        "per_node_completions",
    )

    def __init__(self, fe: Any) -> None:
        self.fe = fe
        self.pool: List[FastConnection] = []
        trace = fe.trace
        costs = fe.nodes[0].costs
        self.costs = costs
        self.units: List[int] = trace.transmit_units(512)
        sizes = trace.sizes_by_target
        # Vectorized single-chunk disk time: latency/disk_speed +
        # ((size + 4095) // 4096) * transfer/disk_speed, the same
        # left-to-right float operations CostModel.disk_chunks performs.
        disk_units = (sizes + 4095) // 4096
        disk_time = (
            costs.disk_initial_latency_s / costs.disk_speed
            + disk_units * costs.disk_transfer_s_per_4kb / costs.disk_speed
        )
        self.single_disk_time: List[float] = disk_time.tolist()
        self.chunk_bytes: int = costs.disk_chunk_bytes
        # Per-target dynamic (CGI) CPU cost table.  The eligibility gate
        # guarantees every node holds this same object, so one capture
        # mirrors the generator's per-node lookup.
        self.dynamic: Optional[List[float]] = fe.nodes[0].dynamic_cost_of_target
        self.plans: Dict[int, Tuple[Tuple[float, int], ...]] = {}
        # Admission-side references, resolved once.
        self.targets_l, self.sizes_l = fe._target_list, fe._size_list
        self.n = len(self.targets_l)
        policy = fe.policy
        self.policy = policy
        self.choose = policy.choose
        self.take = fe._take_prediction
        self.p_loads: List[int] = policy.loads
        self.p_alive: List[bool] = policy._alive
        tracker = fe.tracker
        self.tracker = tracker
        self.t_load: List[int] = tracker._load
        self.t_under_since: List[float] = tracker._under_since
        self.t_under_time: List[float] = tracker._under_time
        self.t_is_under: List[bool] = tracker._is_under
        self.t_threshold: float = tracker.threshold
        self.epochs: List[int] = fe._epoch
        self.nodes = fe.nodes
        self.per_node_dispatches: List[int] = fe.per_node_dispatches
        self.per_node_delay_s: List[float] = fe.per_node_delay_s
        self.per_node_completions: List[int] = fe.per_node_completions

    def admit(self) -> None:
        """The flattened twin of ``FrontEnd._admit``'s single-request
        loop: same policy calls, same counter updates, same one
        scheduled start event per admitted connection.

        This loop form serves pipeline (re)fills — ``start()`` and
        ``join_node`` — and the rare completion that frees more than the
        one slot it refills; the steady-state single admission is
        inlined in :meth:`FastConnection._complete`.
        """
        fe = self.fe
        engine = fe.engine
        now = engine.now
        targets, sizes = self.targets_l, self.sizes_l
        n = self.n
        choose = self.choose
        take = self.take
        policy = self.policy
        p_loads = self.p_loads
        p_alive = self.p_alive
        t_load = self.t_load
        t_is_under = self.t_is_under
        t_under_time = self.t_under_time
        t_under_since = self.t_under_since
        threshold = self.t_threshold
        dispatches = self.per_node_dispatches
        nodes = self.nodes
        pool = self.pool
        schedule = engine.schedule
        while fe.in_flight < fe.max_in_flight and fe._next < n:
            target = targets[fe._next]
            fe._next += 1
            size = sizes[target]
            node_id = choose(target, size, now=now)
            hit_hint = take() if take is not None else None
            # Policy.on_dispatch, inlined (no subclass overrides it; the
            # canonical call reproduces the error on the failure branch).
            if not p_alive[node_id]:
                policy.on_dispatch(node_id)
            p_loads[node_id] += 1
            policy.dispatches += 1
            # LoadTracker.on_dispatch, inlined.  Admission never moves
            # the clock, so one ``now`` read serves the whole loop; a
            # +1 delta can only cross the threshold upward, so only the
            # leaves-underutilization transition is reachable.
            load = t_load[node_id] + 1
            t_load[node_id] = load
            if load >= threshold and t_is_under[node_id]:
                t_under_time[node_id] += now - t_under_since[node_id]
                t_is_under[node_id] = False
            dispatches[node_id] += 1
            fe.connections += 1
            fe.in_flight += 1
            conn = pool.pop() if pool else self.new_connection()
            conn.node_id = node_id
            conn.node = nodes[node_id]
            conn.target = target
            conn.size = size
            conn.hit_hint = hit_hint
            # The start event replaces engine.process(generator): same
            # single seq consumed, same (now, seq) dispatch slot.
            schedule(0.0, conn._begin_cb)

    def new_connection(self) -> "FastConnection":
        """A connection object for the pool: the tracer, when one is
        attached, is bound here — once per pooled object, never per
        request — so an untraced run executes no tracing code at all."""
        tracer = self.fe.tracer
        if tracer is None:
            return FastConnection(self)
        return TracedConnection(self, tracer)

    def chunk_plan(self, target: int, size: int) -> Tuple[Tuple[float, int], ...]:
        """Memoized multi-chunk read plan: ``((disk_time, cpu_units), ...)``."""
        plan = self.plans.get(target)
        if plan is None:
            plan = tuple(
                (disk_time, (chunk_bytes + 511) // 512)
                for chunk_bytes, disk_time in self.costs.disk_chunks(size)
            )
            self.plans[target] = plan
        return plan


class FastConnection:
    """One in-flight request as a state machine.

    Stages map one-to-one onto the generator path's suspension points:

    ``_begin`` (start event) -> establish service -> ``_decide`` (cache
    / GMS / pending-read decision, enqueues the data plan) ->
    ``_advance`` per data service -> teardown service -> ``_complete``
    (node counters, front-end accounting, re-admission).

    Each service-completion stage (``_decide``, ``_advance``,
    ``_complete``) opens with the inlined body of ``Resource._finish``
    — jobs counter, busy-integral fold, direct waiter promotion — for
    the resource that served it, then runs the stage logic; the same
    callback sits in a contended resource's waiter queue (see the
    module docstring for why that is sound).

    Instances are pooled by the owning :class:`FastPath`: a completing
    connection parks itself before re-admission runs, so the steady
    state allocates no per-request objects at all.
    """

    __slots__ = (
        "fp",
        "fe",
        "engine",
        "node",
        "node_id",
        "target",
        "size",
        "hit_hint",
        "epoch",
        "start",
        "plan",
        "plan_i",
        "res",
        "read_event",
        "schedule",
        "units",
        "_begin_cb",
        "_decide_cb",
        "_advance_cb",
        "_complete_cb",
        "_coalesced_cb",
        "_served_hook",
    )

    def __init__(self, fp: FastPath) -> None:
        self.fp = fp
        self.fe = fp.fe
        self.engine = fp.fe.engine
        # Bound once: scheduling is the single hottest call each stage
        # makes, and the per-target transmit-unit table is read on every
        # hit path.
        self.schedule = self.engine.schedule
        self.units = fp.units
        self.node: Any = None
        self.node_id = 0
        self.target = 0
        self.size = 0
        self.hit_hint: Optional[bool] = None
        self.epoch = 0
        self.start = 0.0
        self.plan: Any = _EMPTY_PLAN
        self.plan_i = 0
        #: Resource serving the in-flight data service (read by _advance
        #: to book its completion; establish/teardown book the CPU).
        self.res: Any = None
        self.read_event: Optional[SimEvent] = None
        # Stage callbacks, bound once per pooled object (not per request).
        self._begin_cb = self._begin
        self._decide_cb = self._decide
        self._advance_cb = self._advance
        self._complete_cb = self._complete
        self._coalesced_cb = self._coalesced
        #: Stage-observer hook called from inside ``_complete``; ``None``
        #: on an unobserved connection.
        self._served_hook: Any = None

    # -- lifecycle stages ------------------------------------------------------

    def _begin(self) -> None:
        """Start event: read epoch/start *now* (exactly where the
        generator's first resume reads them), then queue establishment."""
        node = self.node
        self.epoch = self.fp.epochs[self.node_id]
        engine = self.engine
        now = engine.now
        self.start = now
        cpu = node.cpu
        # Resource._enqueue, inlined (establish service).
        if cpu._busy < cpu.capacity:
            cpu._busy_integral += cpu._busy * (now - cpu._last_change)
            cpu._last_change = now
            cpu._busy += 1
            self.schedule(node._conn_time, self._decide_cb)
        else:
            cpu._waiting.append((self._decide_cb, node._conn_time))

    def _decide(self) -> None:
        """Establishment done: book it, then replay the fetch decision
        and enqueue the first data service (twin of ``_fetch_*``)."""
        node = self.node
        cpu = node.cpu
        now = self.engine.now
        # Resource._finish, inlined: the freed server promotes its next
        # waiter *before* this request's own logic continues.
        cpu.jobs_served += 1
        cpu._busy_integral += cpu._busy * (now - cpu._last_change)
        cpu._last_change = now
        cpu._busy -= 1
        waiting = cpu._waiting
        if waiting and cpu._busy < cpu.capacity:
            wcb, wdur = waiting.popleft()
            cpu._busy += 1
            self.schedule(wdur, wcb)
        target = self.target
        dyn = self.fp.dynamic
        if dyn is not None and dyn[target] > 0.0:
            # Twin of serve()'s dynamic (CGI) branch: uncacheable
            # CPU-bound compute + transmit as one combined service,
            # neither a hit nor a miss.
            node.dynamic_requests += 1
            self.plan = _EMPTY_PLAN
            self.plan_i = 0
            self._enqueue_data(
                node.cpu,
                node.costs.dynamic_service_time(dyn[target])
                + self.units[target] * node._transmit_per_unit,
            )
            return
        hint = self.hit_hint
        if hint is not None:
            # LB/GC: the front-end's idealized cache model dictated the
            # outcome (twin of _fetch_hinted: hit checked first).
            if hint:
                node.cache_hits += 1
                self.plan = _EMPTY_PLAN
                self.plan_i = 0
                self._enqueue_data(
                    node.cpu, self.units[target] * node._transmit_per_unit
                )
                return
            if node._pending:
                pending = node._pending.get(target)
                if pending is not None:
                    self._join_pending(pending)
                    return
            node.cache_misses += 1
            self._start_disk_read()
            return
        gms = node.gms
        if gms is None:
            # Private cache (twin of _fetch_local: in-flight read
            # checked before the cache is touched).
            if node._pending:
                pending = node._pending.get(target)
                if pending is not None:
                    self._join_pending(pending)
                    return
            if node.cache.access(target, self.size):
                node.cache_hits += 1
                self.plan = _EMPTY_PLAN
                self.plan_i = 0
                self._enqueue_data(
                    node.cpu, self.units[target] * node._transmit_per_unit
                )
                return
            node.cache_misses += 1
            self._start_disk_read()
            return
        # WRR/GMS (twin of _fetch_gms).
        if node._pending:
            pending = node._pending.get(target)
            if pending is not None:
                self._join_pending(pending)
                return
        result = gms.access(node.node_id, target, self.size)
        outcome = result.outcome
        costs = node.costs
        if outcome is GMSOutcome.LOCAL_HIT:
            node.cache_hits += 1
            node.gms_local_hits += 1
            self.plan = _EMPTY_PLAN
            self.plan_i = 0
            self._enqueue_data(node.cpu, costs.transmit_time(self.size))
        elif outcome is GMSOutcome.REMOTE_HIT:
            node.cache_hits += 1
            node.gms_remote_hits += 1
            holder = node.peers[result.holder]
            fetch = costs.gms_fetch_time(self.size)
            self.plan = (
                (node.cpu, fetch),
                (node.cpu, costs.transmit_time(self.size)),
            )
            self.plan_i = 0
            self._enqueue_data(holder.cpu, fetch)
        else:
            node.cache_misses += 1
            self._start_disk_read()

    def _enqueue_data(self, resource: Any, duration: float) -> None:
        """Resource._enqueue, inlined, with ``_advance`` as the fused
        completion callback."""
        self.res = resource
        if resource._busy < resource.capacity:
            now = self.engine.now
            resource._busy_integral += resource._busy * (now - resource._last_change)
            resource._last_change = now
            resource._busy += 1
            self.schedule(duration, self._advance_cb)
        else:
            resource._waiting.append((self._advance_cb, duration))

    def _join_pending(self, pending: SimEvent) -> None:
        """Twin of ``_serve_inflight``: the file is already being
        read from disk on this node."""
        node = self.node
        node.cache_misses += 1
        if node.coalesce_reads:
            node.coalesced_reads += 1
            # Twin of ``yield Wait(pending)``: the event is registered in
            # _pending, hence not yet triggered — join its waiter list in
            # arrival order.
            pending._waiters.append(self._coalesced_cb)
        else:
            self._start_chunked_read()

    def _coalesced(self, value: Any = None) -> None:
        """The awaited disk read finished: transmit from memory."""
        node = self.node
        self.plan = _EMPTY_PLAN
        self.plan_i = 0
        self._enqueue_data(
            node.cpu, self.units[self.target] * node._transmit_per_unit
        )

    def _start_disk_read(self) -> None:
        """Twin of ``_disk_read``: first reader registers the in-flight
        marker, then performs the chunked read."""
        node = self.node
        event = SimEvent(self.engine)
        node._pending[self.target] = event
        self.read_event = event
        self._start_chunked_read()

    def _start_chunked_read(self) -> None:
        """Twin of ``_chunked_read``: disk service then CPU transmit per
        44 KB chunk, first chunk enqueued here, the rest via the plan."""
        node = self.node
        target = self.target
        size = self.size
        fp = self.fp
        node.disk_reads += 1
        cpu = node.cpu
        per_unit = node._transmit_per_unit
        if size <= fp.chunk_bytes:
            # Single chunk (the common case): both durations precomputed.
            self.plan = ((cpu, fp.units[target] * per_unit),)
            self.plan_i = 0
            self._enqueue_data(node.disk_for(target), fp.single_disk_time[target])
            return
        pairs = fp.chunk_plan(target, size)
        disk = node.disk_for(target)
        plan: List[Tuple[Any, float]] = [(cpu, pairs[0][1] * per_unit)]
        append = plan.append
        for disk_time, cpu_units in pairs[1:]:
            append((disk, disk_time))
            append((cpu, cpu_units * per_unit))
        self.plan = plan
        self.plan_i = 0
        self._enqueue_data(disk, pairs[0][0])

    def _advance(self) -> None:
        """One data service done: book it, then enqueue the next plan
        step, or close out the read and move to teardown."""
        res = self.res
        now = self.engine.now
        # Resource._finish, inlined (waiter promotion before our logic).
        res.jobs_served += 1
        res._busy_integral += res._busy * (now - res._last_change)
        res._last_change = now
        res._busy -= 1
        waiting = res._waiting
        if waiting and res._busy < res.capacity:
            wcb, wdur = waiting.popleft()
            res._busy += 1
            self.schedule(wdur, wcb)
        plan = self.plan
        i = self.plan_i
        if i < len(plan):
            self.plan_i = i + 1
            resource, duration = plan[i]
            self._enqueue_data(resource, duration)
            return
        event = self.read_event
        node = self.node
        if event is not None:
            # Twin of _disk_read's epilogue: deregister *after* the last
            # chunk completes and *before* teardown is enqueued, so
            # coalesced waiters wake in exactly the generator's order.
            self.read_event = None
            del node._pending[self.target]
            event.trigger()
        # Resource._enqueue, inlined (teardown service).
        cpu = node.cpu
        if cpu._busy < cpu.capacity:
            cpu._busy_integral += cpu._busy * (now - cpu._last_change)
            cpu._last_change = now
            cpu._busy += 1
            self.schedule(node._teardown_time, self._complete_cb)
        else:
            cpu._waiting.append((self._complete_cb, node._teardown_time))

    def _complete(self) -> None:
        """Teardown done: book it, fold the request into the node and
        front-end counters, park the object, refill the admission
        pipeline (twin of the tail of ``serve`` + ``_connection``,
        with ``_account_request``/``_detach``/``_admit`` inlined)."""
        node = self.node
        cpu = node.cpu
        now = self.engine.now
        # Resource._finish, inlined.
        cpu.jobs_served += 1
        cpu._busy_integral += cpu._busy * (now - cpu._last_change)
        cpu._last_change = now
        cpu._busy -= 1
        waiting = cpu._waiting
        if waiting and cpu._busy < cpu.capacity:
            wcb, wdur = waiting.popleft()
            cpu._busy += 1
            self.schedule(wdur, wcb)
        # serve()'s epilogue.
        node.requests_served += 1
        node.bytes_served += self.size
        # The one point a stage wrapper cannot reach: the generator
        # finishes the span after serve()'s epilogue and before
        # _account_request, so a sample taken there sees this request
        # served but not yet completed, detached or replaced.
        hook = self._served_hook
        if hook is not None:
            hook(now)
        fe = self.fe
        fp = self.fp
        node_id = self.node_id
        delay = now - self.start
        # FrontEnd._account_request, inlined.
        fe.total_delay_s += delay
        if fe.collect_delays:
            fe.delays_s.append(delay)
        live = fp.epochs[node_id] == self.epoch
        if live:
            fp.per_node_delay_s[node_id] += delay
            fp.per_node_completions[node_id] += 1
        if fe.timeline_interval_s is not None:
            bucket = int(now // fe.timeline_interval_s)
            fe.timeline[bucket] = fe.timeline.get(bucket, 0) + 1
        fe.completed += 1
        # FrontEnd._detach, inlined (Policy.on_complete — least-load
        # bound included — and LoadTracker.on_complete bodies folded in;
        # the canonical calls reproduce the errors on the failure
        # branches, and a -1 delta can only cross the threshold
        # downward, so only the enters-underutilization transition is
        # reachable).
        policy = fp.policy
        if live:
            p_loads = fp.p_loads
            load = p_loads[node_id] - 1
            if load < 0:
                policy.on_complete(node_id)
            p_loads[node_id] = load
            if load < policy._min_load:
                policy._min_load = load
            policy.completions += 1
            t_load = fp.t_load
            load = t_load[node_id] - 1
            if load < 0:
                fp.tracker.on_complete(node_id, now)
            t_load[node_id] = load
            if load < fp.t_threshold and not fp.t_is_under[node_id]:
                fp.t_under_since[node_id] = now
                fp.t_is_under[node_id] = True
        else:
            fe.orphaned += 1
        fe.in_flight -= 1
        # Park before re-admission so the next admitted request can
        # reuse this object; nothing below touches self.
        fp.pool.append(self)
        # The steady-state single admission, inlined from FastPath.admit.
        i = fe._next
        if i < fp.n and fe.in_flight < fe.max_in_flight:
            target = fp.targets_l[i]
            fe._next = i + 1
            size = fp.sizes_l[target]
            node_id = fp.choose(target, size, now=now)
            take = fp.take
            hit_hint = take() if take is not None else None
            if not fp.p_alive[node_id]:
                policy.on_dispatch(node_id)
            fp.p_loads[node_id] += 1
            policy.dispatches += 1
            t_load = fp.t_load
            load = t_load[node_id] + 1
            t_load[node_id] = load
            if load >= fp.t_threshold and fp.t_is_under[node_id]:
                fp.t_under_time[node_id] += now - fp.t_under_since[node_id]
                fp.t_is_under[node_id] = False
            fp.per_node_dispatches[node_id] += 1
            fe.connections += 1
            fe.in_flight += 1
            pool = fp.pool
            conn = pool.pop() if pool else fp.new_connection()
            conn.node_id = node_id
            conn.node = fp.nodes[node_id]
            conn.target = target
            conn.size = size
            conn.hit_hint = hit_hint
            self.schedule(0.0, conn._begin_cb)
            # A single freed slot admits a single connection; anything
            # more (a raised admission limit racing this completion)
            # falls through to the general loop.
            if fe.in_flight < fe.max_in_flight and fe._next < fp.n:
                fp.admit()


class TracedConnection(FastConnection):
    """A :class:`FastConnection` observed by a tracer: each stage is the
    unchanged base stage behind a wrapper that stamps the request's span.

    The phase floats reproduce the generator lifecycle's arithmetic
    exactly — ``BackendNode.serve(span=...)`` is the reference, and
    ``tests/test_fastpath_identity.py`` compares span-log bytes against
    it: one delta per ``Service`` on a chunked read, one delta across
    all the CPU services of any other data path (a GMS remote hit's
    three included), ``queue`` then ``cpu`` for a coalesced read.

    The wrappers never replay a decision.  ``_decide`` reads the node's
    outcome counters around the base stage: every fetch decision bumps
    ``cache_hits`` or ``cache_misses`` or ``dynamic_requests``, and the
    GMS / coalescing counters tell the rest apart.  The tracer is
    duck-typed (``begin``/``finish``), so this module never imports
    :mod:`repro.obs`.
    """

    __slots__ = ("tracer", "span", "mark", "disk_s", "cpu_s", "on_disk")

    def __init__(self, fp: FastPath, tracer: Any) -> None:
        super().__init__(fp)
        self.tracer = tracer
        self.span: Any = None
        #: When the phase now being timed began.
        self.mark = 0.0
        # Chunked-read accumulators (the generator's disk_total/cpu_total).
        self.disk_s = 0.0
        self.cpu_s = 0.0
        self.on_disk = False
        self._served_hook = self._served

    def _begin(self) -> None:
        self.span = self.tracer.begin(
            self.target, self.size, self.node_id, self.engine.now
        )
        FastConnection._begin(self)

    def _decide(self) -> None:
        now = self.engine.now
        self.span.phases["establish"] = now - self.start
        self.mark = now
        node = self.node
        hits = node.cache_hits
        misses = node.cache_misses
        local = node.gms_local_hits
        remote = node.gms_remote_hits
        coalesced = node.coalesced_reads
        FastConnection._decide(self)
        span = self.span
        if node.cache_hits != hits:
            if node.gms_local_hits != local:
                span.outcome = "gms_local"
            elif node.gms_remote_hits != remote:
                span.outcome = "gms_remote"
            else:
                span.outcome = "hit"
        elif node.cache_misses == misses:
            span.outcome = "dynamic"
        elif node.coalesced_reads != coalesced:
            span.outcome = "coalesced"
        else:
            span.outcome = "miss"
            self.disk_s = self.cpu_s = 0.0
            self.on_disk = True

    def _coalesced(self, value: Any = None) -> None:
        now = self.engine.now
        self.span.phases["queue"] = now - self.mark
        self.mark = now
        FastConnection._coalesced(self, value)

    def _advance(self) -> None:
        now = self.engine.now
        span = self.span
        last = self.plan_i >= len(self.plan)
        if span.outcome == "miss":
            if self.on_disk:
                self.disk_s += now - self.mark
            else:
                self.cpu_s += now - self.mark
            self.on_disk = not self.on_disk
            self.mark = now
            if last:
                span.phases["disk"] = self.disk_s
                span.phases["cpu"] = self.cpu_s
        elif last:
            span.phases["cpu"] = now - self.mark
            self.mark = now
        FastConnection._advance(self)

    def _served(self, now: float) -> None:
        span = self.span
        span.phases["teardown"] = now - self.mark
        span.t_complete = now
        self.span = None
        self.tracer.finish(span)
