"""The request lifecycle: one explicit state machine for every run.

One request is a handful of stages — establish, fetch decision, data
services, teardown — and each stage is one function of the connection's
class, scheduled with the connection as its argument and dispatched as
``stage(conn)``.  A service that ends strictly after the clock is the
engine's frameless ``push((when, next(seqs), stage, conn))``; any other
duration (zero, or a NaN or negative one) and every zero-delay or rare
event take ``engine.post(delay, stage, conn)``, which stages or refuses
it.  The resource bookkeeping ``Resource._enqueue``/``_finish`` would
do is inlined at the head and tail of each stage, so one event
dispatch performs one whole lifecycle step with no coroutine machinery
in between.  A connection is one object: it holds no method bound to
itself, so a run's connections are not reference cycles and cost one
allocation each, however many stages they pass through.

Every simulation the compiled core does not take runs here.  A fault
runtime is a connection *class*, chosen once by
:meth:`FrontEnd.start() <repro.cluster.frontend.FrontEnd.start>`, that
overrides only the stages where it intervenes:

* :class:`FastConnection` — a client connection carrying consecutive
  trace requests ``index..last``: the first pays establishment, the
  last teardown, and each next request's fetch decision is made inline
  when the previous data plan ends.  The paper's HTTP/1.0 connection is
  a batch of one; ``requests_per_connection > 1`` (``sticky`` or
  ``rehandoff``, paper Section 5) only makes the batches longer;
* :class:`FaultyConnection` — a connection under a
  :class:`~repro.cluster.faults.FaultRuntime`: a dispatch to a dark
  node times out, backs off and re-runs the policy, or is counted lost.

A tracer is not a class: each stage that ends a phase times it behind
one ``if self.tracer:`` test, and the served hook writes the finished
span as a row into the tracer's chunk (:mod:`repro.obs.tracer`), the
row ``_lifecycle.c`` writes for the same request.

The coroutine form of the same lifecycle (``yield Service(...)`` per
stage) lives on as the reference oracle in ``tests/cluster_oracle.py``;
the contract below is stated against it.

Resource waiters need care here.  *Every* job on a node resource belongs
to a state-machine connection, so the canonical ``Resource._finish``
wrapper never runs: a contended enqueue appends the event its start
will schedule — ``(duration, stage, conn)``, the shape of every
``Resource`` job — to ``_waiting``, and the completing stage promotes
it by scheduling it directly — the stage books its own
completion when it fires.  The promotion skips the canonical ``_start``
busy-integral fold deliberately: the promoting stage has just set
``_last_change`` to the current instant, so the fold would add
``busy * 0.0`` — bit-identical to not folding at all (the integral is
always >= +0.0).  Mixing generator waiters into these queues would
double-book a service; the byte-identity suite catches that immediately
because utilization integrals land in the golden CSVs.

A disk read pays one frame per stage, like a hit.  The node's
pending-read table maps a target to the *waiters* of the read in flight:
the shared empty ``_NO_WAITERS`` until a second request for the file
arrives (nearly every read ends that way, so nothing is allocated for
it), then a list of the waiting connections in arrival order.  The
connection that registered the read carries a flag (``reading``); when
its last chunk completes it pops the entry and stages one wake-up per
waiter (its class's ``_coalesced`` stage), in order, before it enqueues
its own teardown — the posts a ``SimEvent`` registered, triggered and
waited on would have made, which is how the oracle still does it.
``_start_disk_read`` registers the read and, for a file of one chunk,
enqueues the disk service itself; only files of several chunks (and the
reads a request issues beside one in flight when coalescing is off)
build their plan in ``_start_chunked_read``.

Byte-identity contract (enforced by ``tests/test_fastpath_identity.py``,
``tests/test_cluster_differential.py`` and the golden-CSV suite; the
closed forms of ``tests/test_cluster_analytic.py`` check the same books
from outside):

* the relative order of every ``push`` and ``post`` — admissions,
  service starts, waiter promotions, coalesced-read wakeups, retry
  timers — matches the oracle exactly, so the engine consumes the same
  ``(time, seq)`` stream and dispatches the same events; a connection's
  start event may be *run* where the oracle stages it, but only when it
  is the event the engine would dispatch next (``FrontEnd.admit`` has
  the conditions), and it is counted in ``engine.events_dispatched``;
* per-request state reads happen at the same event boundaries: the
  membership epoch is read where the load is attached (admission, retry,
  rehandoff — a node may fail between an admission and its start event,
  and that connection is an orphan), the start timestamp when the
  connection's start event dispatches; the pending-read table is
  deregistered after the last data chunk completes and before teardown
  is enqueued; a freed server promotes its next waiter *before* the
  finishing request's own logic runs (the CPU round-robins at service
  granularity, exactly as ``Resource._finish`` does it); a node's cost
  constants and disk-time table are read when a service is enqueued, so
  a brownout changes new work and never a service already queued;
* all float arithmetic mirrors the oracle operation for operation:
  resource busy-time integrals fold the same terms in the same order
  (see below for why ``now - last_change`` is the oracle's
  ``busy * (now - last_change)``), transmit time is
  ``units * per_unit`` with the precomputed integer ``units``, and the
  GMS paths call the exact ``CostModel`` methods the oracle calls.

Every node resource is a single FCFS server (paper Section 3.1: one
CPU, and each disk, with its own queue; ``FrontEnd.start`` refuses
anything else), and the inlined bookkeeping is written for exactly that.  A
finish counts the job, adds ``now - _last_change`` to the busy integral
(the server was busy: ``1 * x == x``) and either promotes the head
waiter, leaving ``_busy`` at 1, or sets it to 0.  An enqueue on a busy
server appends; on an idle one it restarts the busy period —
``_last_change = now; _busy = 1`` — without the canonical fold, which
would add ``0 * x`` to an integral that is never below ``+0.0``.

Several canonical bodies are deliberately inlined in the connection
classes and ``FrontEnd.admit`` — from ``Resource`` (enqueue/finish),
``Policy.on_dispatch``/``on_complete``, ``LoadTracker.observe`` and
``FrontEnd._account_request``/``_detach`` — because at ~4 events per
request the call frames themselves dominated the profile.  Any semantic
change to those canonical implementations must be mirrored below; the
identity tests exist to catch a missed mirror.  Of the tracker only the
threshold crossing is left to inline: it integrates over the policy's
own ``loads``, so the load a policy update has just computed is the one
it compares, and a +1 (-1) can only leave (enter) underutilization.
What a run adds should cost what it records, not a frame per stage on
top: the fault runtime's goodput record and a tracer's span row both
ride the served hook, called where a request is booked, and a class
that changes a stage carries that stage in full
(``FaultyConnection._fetch``) rather than wrapping the base one.  Only the rare paths — a rehandoff, a
retry, a lost request — call the canonical ``FrontEnd`` accounting.

The front-end is a closed loop, so in steady state a completion admits
exactly one connection, and ``_complete`` hands its slot over: the
completing object becomes the admitted connection and ``fe.in_flight``
is not written.  (Parking first was a round trip: the pool is LIFO, so
the object appended was the object popped, and the count went down and
up by one within an event in which nothing reads it.)  The slot is
given up, and the object parked, only on the exit that admits nothing;
``tests/test_fastpath_exits.py`` drives every exit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..cache.gms import GMSOutcome
from .costs import CostModel

__all__ = [
    "DiskTimes",
    "FastConnection",
    "FaultyConnection",
]

#: Shared empty plan for single-service data paths (cache hits,
#: coalesced reads): ``_advance`` sees no remaining steps and proceeds
#: straight to teardown.
_EMPTY_PLAN: Tuple[Tuple[Any, float], ...] = ()

#: What ``BackendNode._pending[target]`` holds while a read is in flight
#: and nobody else waits for it — nearly every read.  The first request
#: to join replaces it with a list of the connections waiting.
_NO_WAITERS: Tuple[Any, ...] = ()

# The span-row layout (``repro.obs.span.ROW_PHASES`` / ``ROW_OUTCOMES``,
# which ``_lifecycle.c`` writes too): a phase's slot in ``phases`` and
# its bit in ``mask``, and the outcome codes.
_ESTABLISH, _QUEUE, _DISK, _CPU, _TEARDOWN = range(5)
_HIT, _MISS, _COALESCED, _GMS_LOCAL, _GMS_REMOTE, _DYNAMIC = range(6)
#: A span's phases before any is timed (the ``retry`` slot stays 0.0).
_NO_PHASES = (0.0,) * 6


class DiskTimes:
    """Per-target disk service times under one :class:`CostModel`.

    ``single[t]`` is the full disk service time for a target that fits
    one 44 KB chunk (the overwhelming majority), computed for the whole
    catalog in one numpy pass that mirrors ``CostModel.disk_chunks``
    arithmetic exactly; multi-chunk read plans are built lazily per
    target and memoized.  A node holds the table of its *own* cost model
    (``BackendNode.disk_times``), so heterogeneous back-ends and
    brownouts each read the right one.
    """

    __slots__ = ("costs", "chunk_bytes", "single", "plans")

    def __init__(self, costs: CostModel, sizes: Any) -> None:
        self.costs = costs
        self.chunk_bytes: int = costs.disk_chunk_bytes
        # latency/disk_speed + ((size + 4095) // 4096) * transfer/disk_speed,
        # the same left-to-right float operations disk_chunks performs.
        disk_units = (sizes + 4095) // 4096
        disk_time = (
            costs.disk_initial_latency_s / costs.disk_speed
            + disk_units * costs.disk_transfer_s_per_4kb / costs.disk_speed
        )
        self.single: List[float] = disk_time.tolist()
        self.plans: Dict[int, Tuple[Tuple[float, int], ...]] = {}

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
    """One in-flight client connection as a state machine: trace
    requests ``index..last``, a batch of one in the paper's HTTP/1.0
    runs, of up to ``requests_per_connection`` with persistent
    connections (paper Section 5, HTTP/1.1).

    Stages map one-to-one onto the oracle coroutine's suspension points:

    ``_begin`` (start event) -> establish service -> ``_decide`` (books
    establishment, then ``_fetch``: the cache / GMS / pending-read
    decision, which enqueues the data plan) -> ``_advance`` per data
    service -> teardown service -> ``_complete`` (node counters,
    front-end accounting, re-admission).  A data plan that ends before
    the batch does starts the next request in the same event instead
    of teardown (``_advance`` -> ``_continue`` -> ``_resume`` ->
    ``_fetch``); ``sticky`` keeps the node the first request chose,
    ``rehandoff`` re-runs the policy per request and moves the
    connection's load when the policy says so.

    Each service-completion stage (``_decide``, ``_advance``,
    ``_complete``) opens with the inlined body of ``Resource._finish``
    — jobs counter, busy-integral fold, direct waiter promotion — for
    the resource that served it, then runs the stage logic; the same
    stage function and connection sit in a contended resource's waiter
    queue (see the module docstring for why that is sound).

    A connection is one object.  An event is a stage function of its
    class and the connection itself, run as ``stage(conn)``: the stage
    functions are read off the class once per pooled object into the
    ``*_stage`` slots, shared with every other connection of the run, so
    a connection holds no bound method — nothing it references leads
    back to it, and a finished run frees it with its pool.

    Instances are reused: a completing connection carries the request
    its freed slot admits, and parks itself in the front-end's pool
    only when there is none, so the steady state allocates no
    per-request objects at all.  Its one link to the run is ``fe``, the
    :class:`~repro.cluster.frontend.FrontEnd` that admitted it.
    """

    __slots__ = (
        "fe",
        "engine",
        "node",
        "target",
        "size",
        "hit_hint",
        "epoch",
        "start",
        "index",
        "last",
        "plan",
        "plan_i",
        "res",
        "reading",
        "push",
        "seqs",
        "units",
        "dynamic_costs",
        "begin_stage",
        "decide_stage",
        "advance_stage",
        "complete_stage",
        "_served_hook",
        "tracer",
        "req",
        "load",
        "mark",
        "phases",
        "mask",
        "outcome",
        "on_disk",
    )

    def __init__(self, fe: Any) -> None:
        self.fe = fe
        self.engine = engine = fe.engine
        # The engine's frameless scheduling pair, one for every
        # connection, and the cluster's per-target tables read on every
        # fetch: transmit units and CGI costs.
        self.push = engine.push
        self.seqs = engine.seqs
        self.units = fe.units
        self.dynamic_costs = fe.dynamic_costs
        self.node: Any = None
        self.target = 0
        self.size = 0
        self.hit_hint: Optional[bool] = None
        self.epoch = 0
        self.start = 0.0
        #: Trace index of the request now being served, and of the
        #: connection's last one; the admission sets both.
        self.index = 0
        self.last = 0
        self.plan: Any = _EMPTY_PLAN
        self.plan_i = 0
        #: Resource serving the in-flight data service (read by _advance
        #: to book its completion; establish/teardown book the CPU).
        self.res: Any = None
        #: This connection's disk read is the one registered in the
        #: node's pending table (it wakes the waiters when it ends).
        self.reading = False
        # The class's stage functions, each posted with this connection:
        # plain functions, not methods bound to it.
        cls = type(self)
        self.begin_stage = cls._begin
        self.decide_stage = cls._decide
        self.advance_stage = cls._advance
        self.complete_stage = cls._complete
        #: The run's tracer, or ``None``: the one test each stage that
        #: ends a phase makes.
        self.tracer = tracer = fe.tracer
        #: Observer hook, ``hook(conn, now)``, called when a request is
        #: served (by ``_request_done``, and by ``_complete`` for a
        #: batch's last request); ``None`` on an unobserved connection.
        self._served_hook: Any = cls._write_row if tracer else None
        # The span of the request being served: its number, the
        # dispatch-time loads, the phases paid so far (``mask``) and when
        # the one being timed began, the outcome, and on a disk read
        # whether the service in flight is the disk's.  The lists are
        # the span's own, made when it opens: an untraced connection is
        # one allocation.
        self.req = 0
        self.load: Any = ()
        self.mark = 0.0
        self.phases: Any = _NO_PHASES
        self.mask = 0
        self.outcome = _HIT
        self.on_disk = False

    # -- lifecycle stages ------------------------------------------------------

    def _begin(self) -> None:
        """Start event: the request's clock starts *now* (exactly where
        the oracle's first resume reads it), then queue establishment."""
        node = self.node
        now = self.engine.now
        self.start = now
        if self.tracer:
            self._open_span()
        cpu = node.cpu
        # Resource._enqueue, inlined (establish service).
        if cpu._busy:
            cpu._waiting.append((node._conn_time, self.decide_stage, self))
        else:
            cpu._last_change = now
            cpu._busy = 1
            when = now + node._conn_time
            if when > now:
                self.push((when, next(self.seqs), self.decide_stage, self))
            else:
                self.engine.post(node._conn_time, self.decide_stage, self)

    def _decide(self) -> None:
        """Establishment done: book it, then make the fetch decision."""
        cpu = self.node.cpu
        now = self.engine.now
        # Resource._finish, inlined: the freed server promotes its next
        # waiter *before* this request's own logic continues.
        cpu.jobs_served += 1
        cpu._busy_integral += now - cpu._last_change
        cpu._last_change = now
        waiting = cpu._waiting
        if waiting:
            duration, stage, conn = waiting.popleft()
            when = now + duration
            if when > now:
                self.push((when, next(self.seqs), stage, conn))
            else:
                self.engine.post(duration, stage, conn)
        else:
            cpu._busy = 0
        if self.tracer:
            self.phases[_ESTABLISH] = now - self.start
            self.mask = 1 << _ESTABLISH
            self.mark = now
            self._traced_fetch()
        else:
            self._fetch()

    def _fetch(self) -> None:
        """The fetch decision: count the outcome on the node and enqueue
        the request's first data service.  A stage of its own because a
        batch's later requests decide without an establishment to
        book."""
        node = self.node
        target = self.target
        dyn = self.dynamic_costs
        if dyn is not None and dyn[target] > 0.0:
            # Dynamic (CGI) request: uncacheable CPU-bound compute +
            # transmit as one combined service, neither a hit nor a miss.
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
            # outcome (hit checked first).
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
            # Private cache (in-flight read checked before the cache
            # is touched).
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
        # WRR/GMS.
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
            holder = self.fe.nodes[result.holder]
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
        completion stage."""
        self.res = resource
        if resource._busy:
            resource._waiting.append((duration, self.advance_stage, self))
        else:
            now = self.engine.now
            resource._last_change = now
            resource._busy = 1
            when = now + duration
            if when > now:
                self.push((when, next(self.seqs), self.advance_stage, self))
            else:
                self.engine.post(duration, self.advance_stage, self)

    def _join_pending(self, waiters: Any) -> None:
        """The file is already being read from disk on this node:
        wait for that read, or (coalescing off) issue another."""
        node = self.node
        node.cache_misses += 1
        if node.coalesce_reads:
            node.coalesced_reads += 1
            # Join the read's waiters in arrival order.
            if waiters:
                waiters.append(self)
            else:
                node._pending[self.target] = [self]
        else:
            self._start_chunked_read()

    def _coalesced(self) -> None:
        """The awaited disk read finished: transmit from memory."""
        if self.tracer:
            now = self.engine.now
            self.phases[_QUEUE] = now - self.mark
            self.mask |= 1 << _QUEUE
            self.mark = now
        node = self.node
        self.plan = _EMPTY_PLAN
        self.plan_i = 0
        self._enqueue_data(
            node.cpu, self.units[self.target] * node._transmit_per_unit
        )

    def _start_disk_read(self) -> None:
        """First reader: register the read as in flight, then start it
        — a file of one chunk (the common case, both durations
        precomputed) right here, with ``Resource._enqueue`` inlined."""
        node = self.node
        target = self.target
        node._pending[target] = _NO_WAITERS
        self.reading = True
        times = node.disk_times
        if self.size > times.chunk_bytes:
            self._start_chunked_read()
            return
        node.disk_reads += 1
        self.plan = ((node.cpu, self.units[target] * node._transmit_per_unit),)
        self.plan_i = 0
        disks = node.disks  # disk_for's one-disk answer, without its frame
        disk = disks[0] if len(disks) == 1 else node.disk_for(target)
        self.res = disk
        duration = times.single[target]
        if disk._busy:
            disk._waiting.append((duration, self.advance_stage, self))
        else:
            now = self.engine.now
            disk._last_change = now
            disk._busy = 1
            when = now + duration
            if when > now:
                self.push((when, next(self.seqs), self.advance_stage, self))
            else:
                self.engine.post(duration, self.advance_stage, self)

    def _start_chunked_read(self) -> None:
        """Disk service then CPU transmit per 44 KB chunk, first chunk
        enqueued here, the rest via the plan — every duration taken from
        the node's cost model as it stands now.  The general form:
        files of several chunks, and every read a request issues beside
        one already in flight when coalescing is off."""
        node = self.node
        target = self.target
        node.disk_reads += 1
        cpu = node.cpu
        per_unit = node._transmit_per_unit
        pairs = node.disk_times.chunk_plan(target, self.size)
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
        step, or close out the read and move to teardown — or, when the
        plan that ended is not the connection's last, to its next
        request."""
        if self.tracer:
            self._time_service()
        res = self.res
        now = self.engine.now
        # Resource._finish, inlined (waiter promotion before our logic).
        res.jobs_served += 1
        res._busy_integral += now - res._last_change
        res._last_change = now
        waiting = res._waiting
        if waiting:
            duration, stage, conn = waiting.popleft()
            when = now + duration
            if when > now:
                self.push((when, next(self.seqs), stage, conn))
            else:
                self.engine.post(duration, stage, conn)
        else:
            res._busy = 0
        plan = self.plan
        i = self.plan_i
        if i < len(plan):
            self.plan_i = i + 1
            resource, duration = plan[i]
            self._enqueue_data(resource, duration)
            return
        node = self.node
        if self.reading:
            # Deregister *after* the last chunk completes and *before*
            # teardown is enqueued, so coalesced waiters wake in exactly
            # the oracle's order.
            self.reading = False
            for waiter in node._pending.pop(self.target):
                self.engine.post(0.0, type(waiter)._coalesced, waiter)
        if self.index == self.last:
            # Resource._enqueue, inlined (teardown service).
            cpu = node.cpu
            if cpu._busy:
                cpu._waiting.append((node._teardown_time, self.complete_stage, self))
            else:
                cpu._last_change = now
                cpu._busy = 1
                when = now + node._teardown_time
                if when > now:
                    self.push((when, next(self.seqs), self.complete_stage, self))
                else:
                    self.engine.post(node._teardown_time, self.complete_stage, self)
            return
        self._request_done(now)
        fe = self.fe
        self.index += 1
        target = fe._targets[self.index]
        self.target = target
        self.size = fe._size_list[target]
        self._continue(now)

    def _continue(self, now: float) -> None:
        """Serve the next request on the open connection: the hit
        prediction belonged to the first request, the node is the
        policy's to change."""
        self.hit_hint = None
        if self.fe.rehandoff:
            self._rehandoff(now)
        self._resume()

    def _resume(self) -> None:
        """A request on an already-established connection starts."""
        now = self.start = self.engine.now
        if self.tracer:
            self._open_span()
            self.mark = now
            self._traced_fetch()
        else:
            self._fetch()

    def _rehandoff(self, now: float) -> None:
        """Re-run the policy for this request; if it names another node
        (or this one failed meanwhile) move the connection there."""
        fe = self.fe
        new_node = fe.choose(self.target, self.size, now)
        take = fe._take_prediction
        self.hit_hint = take() if take is not None else None
        node_id = self.node.node_id
        if new_node == node_id and fe._epoch[node_id] == self.epoch:
            return
        # Release the old node's slot (or count it orphaned), take the new.
        fe._detach(node_id, self.epoch)
        fe._attach(new_node)
        fe.rehandoffs += 1
        self.node = fe.nodes[new_node]
        self.epoch = fe._epoch[new_node]

    def _request_done(self, now: float) -> None:
        """One request served: node counters, observer hook, front-end
        accounting (``FrontEnd._account_request``, inlined) — in that
        order: a span finishes after the node counts the request and
        before the front-end does, so a sample taken there sees this
        request served but not yet completed, detached or replaced."""
        node = self.node
        node.requests_served += 1
        node.bytes_served += self.size
        if self._served_hook:
            self._served_hook(self, now)
        fe = self.fe
        node_id = node.node_id
        delay = now - self.start
        fe.total_delay_s += delay
        if fe.collect_delays:
            fe.delays_s.append(delay)
        if fe._epoch[node_id] == self.epoch:
            fe.per_node_delay_s[node_id] += delay
            fe.per_node_completions[node_id] += 1
        fe.completed += 1

    def _complete(self) -> None:
        """Teardown done: book it, count the last request, release the
        connection's load and hand its slot to the next trace requests
        (``_request_done``/``_detach``/``admit`` inlined)."""
        node = self.node
        cpu = node.cpu
        engine = self.engine
        now = engine.now
        # Resource._finish, inlined.
        cpu.jobs_served += 1
        cpu._busy_integral += now - cpu._last_change
        cpu._last_change = now
        waiting = cpu._waiting
        if waiting:
            duration, stage, conn = waiting.popleft()
            when = now + duration
            if when > now:
                self.push((when, next(self.seqs), stage, conn))
            else:
                engine.post(duration, stage, conn)
        else:
            cpu._busy = 0
        # The batch's last request is done: _request_done, inlined, since
        # in the paper's HTTP/1.0 runs it is every request.
        node.requests_served += 1
        node.bytes_served += self.size
        if self._served_hook:
            self._served_hook(self, now)
        fe = self.fe
        node_id = node.node_id
        delay = now - self.start
        fe.total_delay_s += delay
        if fe.collect_delays:
            fe.delays_s.append(delay)
        live = fe._epoch[node_id] == self.epoch
        if live:
            fe.per_node_delay_s[node_id] += delay
            fe.per_node_completions[node_id] += 1
        fe.completed += 1
        # FrontEnd._detach, inlined (Policy.on_complete — least-load
        # bound and scan cursor included — and LoadTracker.observe on
        # the load just written; the canonical call reproduces the error
        # on the failure branch, and a -1 delta can only cross the
        # threshold downward, so only the enters-underutilization
        # transition is reachable).
        policy = fe.policy
        p_loads = fe.p_loads
        if live:
            load = p_loads[node_id] - 1
            if load < 0:
                policy.on_complete(node_id)
            p_loads[node_id] = load
            low = policy._min_load
            if load <= low:
                if load < low:
                    policy._min_load = load
                    policy._min_cursor = node_id
                elif node_id < policy._min_cursor:
                    policy._min_cursor = node_id
            policy.completions += 1
            if load < fe.t_threshold and not fe.t_is_under[node_id]:
                fe.t_under_since[node_id] = now
                fe.t_is_under[node_id] = True
        else:
            fe.orphaned += 1
        # The freed slot admits the next trace requests on this object:
        # one connection out, one in, so ``fe.in_flight`` and the pool
        # are left alone (FrontEnd.admit's single admission, inlined).
        # ``room`` is the slots free once this connection is out, less
        # one: the one it frees is the one it refills.
        room = fe.max_in_flight - fe.in_flight
        first = fe._next
        n = fe.n
        if first < n and room >= 0:
            end = first + fe.requests_per_connection
            if end > n:
                end = n
            fe._next = end
            target = fe._targets[first]
            size = fe._size_list[target]
            node_id = fe.choose(target, size, now)
            take = fe._take_prediction
            self.hit_hint = take() if take else None
            if not fe.p_alive[node_id]:
                policy.on_dispatch(node_id)
            load = p_loads[node_id] + 1
            p_loads[node_id] = load
            policy.dispatches += 1
            if load >= fe.t_threshold and fe.t_is_under[node_id]:
                fe.t_under_time[node_id] += now - fe.t_under_since[node_id]
                fe.t_is_under[node_id] = False
            fe.connections += 1
            self.epoch = fe._epoch[node_id]
            self.node = fe.nodes[node_id]
            self.target = target
            self.size = size
            self.index = first
            self.last = end - 1
            # A single freed slot admits a single connection; anything
            # more (a raised admission limit racing this completion)
            # goes to the general loop, behind this one's staged start.
            if room > 0 and end < n:
                engine.post(0.0, self.begin_stage, self)
                fe.admit()
                return
            # Nothing follows in this event, so a traced or faulty
            # connection may start in place too (the conditions are
            # ``FrontEnd.admit``'s).
            if engine.runs_next():
                engine.events_dispatched += 1
                self.begin_stage(self)
                if engine._sanitizer is not None:
                    engine._sanitizer(now, self.begin_stage)
            else:
                engine.post(0.0, self.begin_stage, self)
        else:
            # Nothing to admit (the trace ran out, or a failure lowered
            # the limit): the slot is given up and the object parked.
            fe.in_flight -= 1
            fe.pool.append(self)

    # -- the span of a traced request -------------------------------------------
    #
    # The phase floats reproduce the oracle's arithmetic exactly
    # (``tests/cluster_oracle.py`` ``serve(span=...)``; the identity tests
    # compare span-log bytes against it): ``establish`` and ``teardown``
    # only where the request paid them, one delta per service on a disk
    # read, one delta across all the CPU services of any other data path
    # (a GMS remote hit's three included), ``queue`` then ``cpu`` for a
    # coalesced read.

    def _open_span(self) -> None:
        """The request starts: draw its span number and snapshot the
        policy's loads (its dispatch context)."""
        tracer = self.tracer
        self.req = tracer.seq
        tracer.seq += 1
        self.load = list(self.fe.p_loads)
        self.phases = list(_NO_PHASES)
        self.mask = 0

    def _traced_fetch(self) -> None:
        """The fetch decision, its outcome read off the node's counters
        around it: every decision bumps ``cache_hits``, ``cache_misses``
        or ``dynamic_requests``, and the GMS / coalescing counters tell
        the rest apart.  Nothing is decided twice."""
        node = self.node
        hits = node.cache_hits
        misses = node.cache_misses
        local = node.gms_local_hits
        remote = node.gms_remote_hits
        coalesced = node.coalesced_reads
        self._fetch()
        if node.cache_hits != hits:
            if node.gms_local_hits != local:
                self.outcome = _GMS_LOCAL
            elif node.gms_remote_hits != remote:
                self.outcome = _GMS_REMOTE
            else:
                self.outcome = _HIT
        elif node.cache_misses == misses:
            self.outcome = _DYNAMIC
        elif node.coalesced_reads != coalesced:
            self.outcome = _COALESCED
        else:
            self.outcome = _MISS
            self.on_disk = True

    def _time_service(self) -> None:
        """A data service ended (before ``_advance`` books it): a disk
        read adds it to ``disk`` or ``cpu``, alternately; any other
        path times its services as one ``cpu`` delta, at the last."""
        now = self.engine.now
        last = self.plan_i >= len(self.plan)
        if self.outcome == _MISS:
            if self.on_disk:
                self.phases[_DISK] += now - self.mark
            else:
                self.phases[_CPU] += now - self.mark
            self.on_disk = not self.on_disk
            self.mark = now
            if last:
                self.mask |= 1 << _DISK | 1 << _CPU
        elif last:
            self.phases[_CPU] = now - self.mark
            self.mask |= 1 << _CPU
            self.mark = now

    def _write_row(self, now: float) -> None:
        """The served hook of a traced connection: the span's row, with
        the teardown a batch's last request paid."""
        if self.last == self.index:
            self.phases[_TEARDOWN] = now - self.mark
            self.mask |= 1 << _TEARDOWN
        self.tracer.row(
            self.req, self.target, self.size, self.node.node_id, self.start, now,
            self.outcome, self.mask, self.phases, self.load,
        )


class FaultyConnection(FastConnection):
    """A connection under a :class:`~repro.cluster.faults.FaultRuntime`.

    While the chosen back-end is crashed but undetected, a dispatch is a
    black hole: the client waits out its timeout, backs off, and
    re-requests through the front-end (which re-runs the policy); after
    ``max_retries`` unanswered attempts the connection's remaining
    requests are abandoned and counted lost.  The check happens wherever
    a request is about to be handed to a node — the start event, a retry,
    the next request of a batch, a rehandoff — and a live node serves
    exactly as it serves a :class:`FastConnection`, with every served
    request also recorded by the fault runtime (the served hook).  With
    an empty schedule no node is ever dark and the two classes run the
    same stages.  ``_lifecycle.c`` runs the same stages compiled
    (``stage_dispatch``, ``stage_timed_out``, ``stage_retry``,
    ``next_turn``), line for line.
    """

    __slots__ = (
        "faults",
        "dark",
        "retry",
        "t_first",
        "first",
        "attempts",
        "missed",
    )

    def __init__(self, fe: Any) -> None:
        FastConnection.__init__(self, fe)
        faults = fe.faults
        self.faults = faults
        self.dark: List[bool] = faults._dark
        self.retry = faults.retry
        # Per-connection state (t_first, first, attempts) is set by the
        # start event, ``missed`` by each fetch decision.
        cls = type(self)
        self.begin_stage = cls._dispatch
        self._served_hook = cls._record_served
        if self.tracer:
            self._served_hook = cls._trace_and_record

    def _dispatch(self) -> None:
        """Start event: the connection's clock starts, whatever becomes
        of the first dispatch — the delay of the request it starts with
        (``first``) runs from ``t_first``, however many attempts it
        takes."""
        self.t_first = self.engine.now
        self.first = self.index
        self.attempts = 0
        if self.dark[self.node.node_id]:
            self._doomed()
        else:
            self._begin()

    def _doomed(self) -> None:
        """The chosen node is dark: nothing answers until the client's
        timeout fires."""
        self.engine.post(self.retry.timeout_s, type(self)._timed_out, self)

    def _timed_out(self) -> None:
        """Client timeout: give the dark node's slot back, then either
        back off for another attempt or abandon what is left."""
        fe = self.fe
        faults = self.faults
        fe._detach(self.node.node_id, self.epoch)
        if self.attempts >= self.retry.max_retries:
            now = self.engine.now
            t_first = self.t_first
            tracer = self.tracer
            for index in range(self.index, self.last + 1):
                fe._account_lost(t_first)
                faults.record_lost(now, now - t_first)
                if tracer is not None:
                    target = fe._targets[index]
                    tracer.lost(target, fe._size_list[target], self.node.node_id, t_first, now)
            # The connection is over: its load was released above.
            fe.in_flight -= 1
            fe.pool.append(self)
            fe.admit()
            return
        self.attempts += 1
        faults.retried_requests += self.last + 1 - self.index
        self.engine.post(self.retry.backoff_s(self.attempts), type(self)._retry, self)

    def _retry(self) -> None:
        """Back-off over: the front-end dispatches the request afresh."""
        fe = self.fe
        node_id = fe.choose(self.target, self.size, self.engine.now)
        take = fe._take_prediction
        self.hit_hint = take() if take is not None else None
        fe._attach(node_id)
        self.node = fe.nodes[node_id]
        self.epoch = fe._epoch[node_id]
        if self.dark[node_id]:
            self._doomed()
        else:
            self._begin()

    def _continue(self, now: float) -> None:
        """As the base step, with the dark-node check before the node
        is kept and again after a rehandoff picks another.  A rehandoff
        connection whose node the front-end has already failed moves
        first; only a crash not yet detected swallows the request."""
        dark = self.dark
        fe = self.fe
        node_id = self.node.node_id
        if dark[node_id] and (not fe.rehandoff or fe.p_alive[node_id]):
            self._doomed()
            return
        self.hit_hint = None
        if fe.rehandoff:
            self._rehandoff(now)
            if dark[self.node.node_id]:
                # Rehandoff landed on a dark node: the attempt times out
                # there like any doomed dispatch.
                self._doomed()
                return
        self._resume()

    def _fetch(self) -> None:
        """The base decision, with its outcome read off the node's own
        miss counter for the degraded-mode series."""
        node = self.node
        misses = node.cache_misses
        FastConnection._fetch(self)
        # Every miss and every coalesced read counts one cache miss.
        self.missed = node.cache_misses != misses

    def _record_served(self, now: float) -> None:
        """The served hook: the fault runtime's goodput record, with the
        delay the front-end is about to book."""
        if self.index == self.first:
            # ``start`` has done its other job (a traced span's arrival
            # and establish phase) by now; from here it is the
            # accounting origin.
            self.start = self.t_first
        self.faults.record_served(now, now - self.start, self.missed)

    def _trace_and_record(self, now: float) -> None:
        """A traced connection's served hook: the span's row, then the
        goodput record (which moves ``start``)."""
        self._write_row(now)
        self._record_served(now)

