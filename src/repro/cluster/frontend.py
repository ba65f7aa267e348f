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
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.base import Policy
from ..sim import Delay, Engine
from ..workload.trace import Trace
from .fastpath import FastPath
from .metrics import LoadTracker
from .node import BackendNode

__all__ = ["FrontEnd", "PERSISTENT_POLICIES"]

# Audited by lardlint's twin-drift pass: the faulty connection wraps a
# retry loop around the plain one and must keep its effect skeleton.
__twin_of__ = {
    "FrontEnd._connection_faulty": "repro.cluster.frontend.FrontEnd._connection",
}

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
        if requests_per_connection < 1:
            raise ValueError(
                f"requests_per_connection must be >= 1, got {requests_per_connection}"
            )
        if persistent_policy not in PERSISTENT_POLICIES:
            raise ValueError(
                f"persistent_policy must be one of {PERSISTENT_POLICIES}, "
                f"got {persistent_policy!r}"
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
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        self.requests_per_connection = requests_per_connection
        self.persistent_policy = persistent_policy
        self._targets = trace.targets
        self._sizes = trace.sizes_by_target
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
        #: Optional :class:`repro.obs.tracer.SimTracer`, attached from
        #: outside (before ``start()``) like the invariant sanitizer.  It
        #: does not pick the lifecycle: the state machine builds traced
        #: connection objects, the generator opens a span per request
        #: and hands it to ``BackendNode.serve``; the state mutations are
        #: the same either way, so results stay byte-identical.
        self.tracer: Optional[Any] = None
        #: Optional :class:`repro.cluster.faults.FaultRuntime`.  Same
        #: attach-from-outside pattern: when set, connections run
        #: ``_connection_faulty``, which adds crash detection lag, client
        #: retries and lost-request accounting.  With an empty schedule
        #: it replays the plain path exactly.
        self.faults: Optional[Any] = None
        #: Flattened state-machine request path (repro.cluster.fastpath):
        #: byte-identical to the generator lifecycle, minus the coroutine
        #: machinery.  Eligible only for the paper's one-request
        #: connections over a uniform cost model.  ``_admit`` re-reads
        #: this (and the fault attachment) on every call, so the
        #: identity tests clear it on a built simulator to get the
        #: generator reference.
        self._fastpath: Optional[FastPath] = None
        if (
            requests_per_connection == 1
            and len(nodes) > 0
            and all(n.costs is nodes[0].costs for n in nodes)
            # Provable equivalence for dynamic (CGI) catalogs: the fast
            # path captures one dynamic-cost table, so every node must
            # hold the *same* table object (None included).
            and all(
                n.dynamic_cost_of_target is nodes[0].dynamic_cost_of_target
                for n in nodes
            )
        ):
            self._fastpath = FastPath(self)

    # -- driving ---------------------------------------------------------------

    def start(self) -> None:
        """Admit the initial batch; completions keep the pipeline full."""
        self._admit()

    @property
    def done(self) -> bool:
        return self.completed == len(self.trace)

    # -- cluster membership (paper Section 2.6) ---------------------------------

    def fail_node(self, node: int) -> None:
        """A back-end died: drop its mappings and load, orphan its
        in-flight connections, and stop routing to it."""
        self.policy.on_node_failure(node)
        self.tracker.reset_node(node, self.engine.now)
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

    def _take_batch(self) -> List[Tuple[int, int]]:
        """Next connection's requests: up to requests_per_connection."""
        targets = self._target_list
        sizes = self._size_list
        n = len(targets)
        batch: List[Tuple[int, int]] = []
        while self._next < n and len(batch) < self.requests_per_connection:
            target = targets[self._next]
            batch.append((target, sizes[target]))
            self._next += 1
        return batch

    def _admit(self) -> None:
        if self._fastpath is not None and self.faults is None:
            self._fastpath.admit()
            return
        connection = (
            self._connection if self.faults is None else self._connection_faulty
        )
        n = len(self._target_list)
        while self.in_flight < self.max_in_flight and self._next < n:
            batch = self._take_batch()
            target, size = batch[0]
            node_id = self.policy.choose(target, size, now=self.engine.now)
            # LB/GC's idealized front-end cache model dictates hit/miss.
            take = self._take_prediction
            hit_hint = take() if take is not None else None
            self._attach(node_id)
            self.connections += 1
            self.in_flight += 1
            self.engine.process(connection(batch, node_id, hit_hint))

    # -- the faulty connection (repro.cluster.faults) ---------------------------

    def _connection_faulty(self, batch: List[Tuple[int, int]], node_id: int, hit_hint):
        """Faulty twin of :meth:`_connection`.

        While the chosen back-end is crashed but undetected, a dispatch
        is a black hole: the client waits out its timeout, backs off,
        and re-requests through the front-end (which re-runs the
        policy); after ``max_retries`` unanswered attempts the
        connection's remaining requests are abandoned and counted lost.
        A live back-end serves exactly as in :meth:`_connection`, always
        with a span so the per-request cache outcome feeds the
        degraded-mode series (a tracer span when tracing, otherwise a
        throwaway probe).
        """
        faults = self.faults
        retry = faults.retry
        tracer = self.tracer
        engine = self.engine
        t_first = engine.now
        n = len(batch)
        index = 0
        attempts = 0
        epoch = self._epoch[node_id]
        # True for the first request served after each (re)dispatch: it
        # pays connection establishment and skips the rehandoff check
        # (the policy just chose its node).
        fresh_dispatch = True
        while index < n:
            if faults.is_dark(node_id):
                faults.doomed_dispatches += 1
                yield Delay(retry.timeout_s)
                self._detach(node_id, epoch)
                if attempts >= retry.max_retries:
                    now = engine.now
                    for i in range(index, n):
                        self._account_lost(t_first)
                        faults.record_lost(now, now - t_first)
                        if tracer is not None:
                            lost_target, lost_size = batch[i]
                            tracer.lost(lost_target, lost_size, node_id, t_first, now)
                    break
                attempts += 1
                faults.retried_requests += n - index
                yield Delay(retry.backoff_s(attempts))
                target, size = batch[index]
                node_id = self.policy.choose(target, size, now=engine.now)
                take = self._take_prediction
                hit_hint = take() if take is not None else None
                self._attach(node_id)
                epoch = self._epoch[node_id]
                fresh_dispatch = True
                continue
            target, size = batch[index]
            if not fresh_dispatch:
                hit_hint = None
                if self.persistent_policy == "rehandoff":
                    node_id, epoch, hit_hint = self._maybe_rehandoff(
                        node_id, epoch, target, size
                    )
                    if faults.is_dark(node_id):
                        # Rehandoff landed on a dark node: the attempt
                        # times out there like any doomed dispatch.
                        fresh_dispatch = True
                        continue
            start = engine.now
            span = (
                tracer.begin(target, size, node_id, start)
                if tracer is not None
                else faults.probe()
            )
            yield from self.nodes[node_id].serve(
                target,
                size,
                hit_hint=hit_hint,
                establish=fresh_dispatch,
                teardown=(index == n - 1),
                span=span,
            )
            now = engine.now
            if tracer is not None:
                span.t_complete = now
                tracer.finish(span)
            request_start = t_first if index == 0 else start
            self._account_request(node_id, epoch, request_start)
            faults.record_served(
                now, now - request_start, span.outcome in ("miss", "coalesced")
            )
            fresh_dispatch = False
            index += 1
        else:
            self._detach(node_id, epoch)
        self.in_flight -= 1
        self._admit()

    # -- per-connection accounting --------------------------------------------------

    def _attach(self, node_id: int) -> None:
        now = self.engine.now
        self.policy.on_dispatch(node_id)
        self.tracker.on_dispatch(node_id, now)
        self.per_node_dispatches[node_id] += 1

    def _detach(self, node_id: int, epoch: int) -> bool:
        """Release a connection's load at ``node_id``; False if orphaned."""
        if self._epoch[node_id] != epoch:
            self.orphaned += 1
            return False
        self.policy.on_complete(node_id)
        self.tracker.on_complete(node_id, self.engine.now)
        return True

    def _account_request(self, node_id: int, epoch: int, start: float) -> None:
        now = self.engine.now
        self.total_delay_s += now - start
        if self.collect_delays:
            self.delays_s.append(now - start)
        if self._epoch[node_id] == epoch:
            self.per_node_delay_s[node_id] += now - start
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

    # -- the connection process ----------------------------------------------------

    def _connection(self, batch: List[Tuple[int, int]], node_id: int, hit_hint):
        """One admitted connection: serve its requests in order, then
        release the slot.  With a tracer attached each request gets a
        span; the paper's HTTP/1.0 case is simply a batch of one."""
        tracer = self.tracer
        span = None
        epoch = self._epoch[node_id]
        last_index = len(batch) - 1
        for index, (target, size) in enumerate(batch):
            if index > 0:
                hit_hint = None
                if self.persistent_policy == "rehandoff":
                    node_id, epoch, hit_hint = self._maybe_rehandoff(
                        node_id, epoch, target, size
                    )
            start = self.engine.now
            if tracer is not None:
                span = tracer.begin(target, size, node_id, start)
            yield from self.nodes[node_id].serve(
                target,
                size,
                hit_hint=hit_hint,
                establish=(index == 0),
                teardown=(index == last_index),
                span=span,
            )
            if tracer is not None:
                span.t_complete = self.engine.now
                tracer.finish(span)
            self._account_request(node_id, epoch, start)
        self._detach(node_id, epoch)
        self.in_flight -= 1
        self._admit()

    def _maybe_rehandoff(self, node_id: int, epoch: int, target: int, size: int):
        """Re-run the policy for the next request on a persistent connection."""
        now = self.engine.now
        new_node = self.policy.choose(target, size, now=now)
        take = self._take_prediction
        hit_hint = take() if take is not None else None
        if new_node == node_id and self._epoch[node_id] == epoch:
            return node_id, epoch, hit_hint
        # Move the connection: release the old node's slot, take the new.
        if self._epoch[node_id] == epoch:
            self.policy.on_complete(node_id)
            self.tracker.on_complete(node_id, now)
        else:
            self.orphaned += 1
        self._attach(new_node)
        self.rehandoffs += 1
        return new_node, self._epoch[new_node], hit_hint
