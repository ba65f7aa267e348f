"""Reference oracle: the request lifecycle as generator coroutines.

Until PR 16 this code shipped in ``src/`` — ``BackendNode.serve`` and its
``_fetch_*`` helpers, ``FrontEnd._connection``, ``_connection_faulty`` and
``_maybe_rehandoff`` — as the lifecycle persistent, faulty and
heterogeneous-cost runs took.  Every run now takes the state machine in
:mod:`repro.cluster.fastpath`; the coroutines live on here, moved
verbatim (``self`` became an explicit ``node`` / ``fe`` argument), as the
independent implementation the identity and differential tests compare
it against.  One request is one generator that yields ``Service`` /
``Wait`` / ``Delay`` commands to :class:`repro.sim.Process`, which is as
direct a transcription of the paper's Figure 4 as the engine allows.

One deliberate edit: a GMS remote hit computes its transmit time before
its first ``yield`` rather than after the second.  The two agree unless a
brownout changes the node's cost model between the two fetch services of
one request; "a service's duration is fixed when the request decides" is
the rule every other data path already follows (a chunked read fixes
``per_unit`` and its chunk times up front), and the one the state machine
implements.

:func:`use_oracle` swaps a built simulator onto this lifecycle:

>>> sim = ClusterSimulator(trace, config)
>>> use_oracle(sim)
>>> reference = sim.run()
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.cache.gms import GMSOutcome
from repro.sim import Delay, Service, SimEvent, Wait

__all__ = ["use_oracle", "serve"]


def use_oracle(sim: Any) -> Any:
    """Make ``sim`` (a built, not yet run ``ClusterSimulator``) admit
    its connections as generator processes; returns ``sim``."""
    fe = sim.frontend
    fe.admit = lambda: _admit(fe)
    return sim


# -- the back-end: one request on one node ------------------------------------------
#
# When the caller passes a ``span``, the data path's outcome lands in
# ``span.outcome`` and, if the span carries a ``phases`` dict (a tracer
# span does, the fault probe does not), each stage records its
# simulated-time delta into it; the state mutations and the yielded
# command sequence are the same either way.


def serve(
    fe: Any,
    node: Any,
    target: Hashable,
    size: int,
    hit_hint: Optional[bool] = None,
    establish: bool = True,
    teardown: bool = True,
    span: Optional[Any] = None,
):
    """Generator process serving one request end to end on ``node``,
    one of the nodes of front-end ``fe`` (which holds what every node
    shares: the peer list and the CGI cost table).

    ``hit_hint`` is set only for LB/GC: the front-end's idealized cache
    model dictates whether this request hits, so the node obeys the
    prediction instead of consulting a private cache.

    ``establish``/``teardown`` amortize connection costs over
    persistent connections: only a connection's first request pays
    establishment and only its last pays teardown (paper Section 5's
    HTTP/1.1 discussion).
    """
    engine = node.cpu.engine
    phases: Optional[Dict[str, float]] = None if span is None else span.phases
    if establish:
        t0 = engine.now
        yield Service(node.cpu, node._conn_time)
        if phases is not None:
            phases["establish"] = phases.get("establish", 0.0) + (engine.now - t0)
    dyn = fe.dynamic_costs
    if dyn is not None and isinstance(target, int) and dyn[target] > 0.0:
        # Dynamic (CGI) request: CPU-bound compute, uncacheable, so it
        # bypasses the cache entirely and is neither a hit nor a miss.
        node.dynamic_requests += 1
        t0 = engine.now
        yield Service(
            node.cpu,
            node.costs.dynamic_service_time(dyn[target])
            + ((size + 511) // 512) * node._transmit_per_unit,
        )
        if phases is not None:
            phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t0)
        outcome = "dynamic"
    elif hit_hint is not None:
        outcome = yield from _fetch_hinted(node, target, size, hit_hint, phases)
    elif node.gms is not None:
        outcome = yield from _fetch_gms(fe.nodes, node, target, size, phases)
    else:
        outcome = yield from _fetch_local(node, target, size, phases)
    if teardown:
        t0 = engine.now
        yield Service(node.cpu, node._teardown_time)
        if phases is not None:
            phases["teardown"] = phases.get("teardown", 0.0) + (engine.now - t0)
    node.requests_served += 1
    node.bytes_served += size
    if span is not None:
        span.outcome = outcome


# Each fetch helper completes the request's data path and returns its
# span outcome ("hit", "miss", "coalesced", "gms_local", "gms_remote").


def _fetch_hinted(node, target, size, hit, phases):
    if hit:
        node.cache_hits += 1
        t0 = node.cpu.engine.now
        yield Service(node.cpu, ((size + 511) // 512) * node._transmit_per_unit)
        if phases is not None:
            phases["cpu"] = phases.get("cpu", 0.0) + (node.cpu.engine.now - t0)
        return "hit"
    pending = node._pending.get(target)
    if pending is not None:
        return (yield from _serve_inflight(node, pending, target, size, phases))
    node.cache_misses += 1
    yield from _disk_read(node, target, size, phases)
    return "miss"


def _fetch_local(node, target, size, phases):
    pending = node._pending.get(target)
    if pending is not None:
        return (yield from _serve_inflight(node, pending, target, size, phases))
    if node.cache.access(target, size):
        node.cache_hits += 1
        t0 = node.cpu.engine.now
        yield Service(node.cpu, ((size + 511) // 512) * node._transmit_per_unit)
        if phases is not None:
            phases["cpu"] = phases.get("cpu", 0.0) + (node.cpu.engine.now - t0)
        return "hit"
    node.cache_misses += 1
    yield from _disk_read(node, target, size, phases)
    return "miss"


def _serve_inflight(node, pending, target, size, phases):
    """Data path for a request whose file is already being read from disk.

    With coalescing the request waits for the one read in progress;
    without it, the request issues its own independent read (the
    paper's baseline the coalescing optimization removes).
    """
    node.cache_misses += 1
    if not node.coalesce_reads:
        yield from _chunked_read(node, target, size, phases)
        return "miss"
    node.coalesced_reads += 1
    engine = node.cpu.engine
    t0 = engine.now
    yield Wait(pending)
    t1 = engine.now
    yield Service(node.cpu, ((size + 511) // 512) * node._transmit_per_unit)
    if phases is not None:
        phases["queue"] = phases.get("queue", 0.0) + (t1 - t0)
        phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t1)
    return "coalesced"


def _disk_read(node, target, size, phases):
    """First read of a file: registers the in-flight marker."""
    event = SimEvent(node.cpu.engine, name=f"read[{node.node_id}:{target}]")
    node._pending[target] = event
    yield from _chunked_read(node, target, size, phases)
    del node._pending[target]
    event.trigger()


def _chunked_read(node, target, size, phases):
    """Chunked read from disk, interleaving transmit per block."""
    node.disk_reads += 1
    disk = node.disk_for(target)
    cpu = node.cpu
    per_unit = node._transmit_per_unit
    engine = node.cpu.engine
    disk_total = cpu_total = 0.0
    if phases is not None:
        disk_total = phases.get("disk", 0.0)
        cpu_total = phases.get("cpu", 0.0)
    for chunk_bytes, disk_time in node.costs.disk_chunks(size):
        t0 = engine.now
        yield Service(disk, disk_time)
        t1 = engine.now
        yield Service(cpu, ((chunk_bytes + 511) // 512) * per_unit)
        if phases is not None:
            disk_total += t1 - t0
            cpu_total += engine.now - t1
    if phases is not None:
        phases["disk"] = disk_total
        phases["cpu"] = cpu_total


def _fetch_gms(peers, node, target, size, phases):
    pending = node._pending.get(target)
    if pending is not None:
        return (yield from _serve_inflight(node, pending, target, size, phases))
    result = node.gms.access(node.node_id, target, size)
    engine = node.cpu.engine
    if result.outcome is GMSOutcome.LOCAL_HIT:
        node.cache_hits += 1
        node.gms_local_hits += 1
        t0 = engine.now
        yield Service(node.cpu, node.costs.transmit_time(size))
        if phases is not None:
            phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t0)
        return "gms_local"
    if result.outcome is GMSOutcome.REMOTE_HIT:
        # Counted as a memory hit cluster-wide: the request is served
        # without touching a disk, but both peers pay fetch CPU.
        node.cache_hits += 1
        node.gms_remote_hits += 1
        holder = peers[result.holder]
        fetch = node.costs.gms_fetch_time(size)
        transmit = node.costs.transmit_time(size)  # see the module docstring
        t0 = engine.now
        yield Service(holder.cpu, fetch)
        yield Service(node.cpu, fetch)
        yield Service(node.cpu, transmit)
        if phases is not None:
            phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t0)
        return "gms_remote"
    node.cache_misses += 1
    yield from _disk_read(node, target, size, phases)
    return "miss"


# -- the front end: admission and the connection process ----------------------------


def _take_batch(fe) -> List[Tuple[int, int]]:
    """Next connection's requests: up to requests_per_connection."""
    targets = fe._targets
    sizes = fe._size_list
    n = len(targets)
    batch: List[Tuple[int, int]] = []
    while fe._next < n and len(batch) < fe.requests_per_connection:
        target = targets[fe._next]
        batch.append((target, sizes[target]))
        fe._next += 1
    return batch


def _admit(fe) -> None:
    connection = _connection if fe.faults is None else _connection_faulty
    n = len(fe._targets)
    while fe.in_flight < fe.max_in_flight and fe._next < n:
        batch = _take_batch(fe)
        target, size = batch[0]
        node_id = fe.policy.choose(target, size, now=fe.engine.now)
        # LB/GC's idealized front-end cache model dictates hit/miss.
        take = fe._take_prediction
        hit_hint = take() if take is not None else None
        fe._attach(node_id)
        fe.connections += 1
        fe.in_flight += 1
        # The epoch is read here, where the load is attached: the node
        # may fail before the process is first resumed.
        fe.engine.process(connection(fe, batch, node_id, fe._epoch[node_id], hit_hint))


def _connection(fe, batch: List[Tuple[int, int]], node_id: int, epoch: int, hit_hint):
    """One admitted connection: serve its requests in order, then
    release the slot.  With a tracer attached each request gets a
    span; the paper's HTTP/1.0 case is simply a batch of one."""
    tracer = fe.tracer
    span = None
    last_index = len(batch) - 1
    for index, (target, size) in enumerate(batch):
        if index > 0:
            hit_hint = None
            if fe.rehandoff:
                node_id, epoch, hit_hint = _maybe_rehandoff(
                    fe, node_id, epoch, target, size
                )
        start = fe.engine.now
        if tracer is not None:
            span = _open_span(fe, target, size, node_id, start)
        yield from serve(
            fe,
            fe.nodes[node_id],
            target,
            size,
            hit_hint=hit_hint,
            establish=(index == 0),
            teardown=(index == last_index),
            span=span,
        )
        if tracer is not None:
            span.t_complete = fe.engine.now
            _finish_span(fe, span)
        fe._account_request(node_id, epoch, start)
    fe._detach(node_id, epoch)
    fe.in_flight -= 1
    fe.admit()


def _maybe_rehandoff(fe, node_id: int, epoch: int, target: int, size: int):
    """Re-run the policy for the next request on a persistent connection."""
    now = fe.engine.now
    new_node = fe.policy.choose(target, size, now=now)
    take = fe._take_prediction
    hit_hint = take() if take is not None else None
    if new_node == node_id and fe._epoch[node_id] == epoch:
        return node_id, epoch, hit_hint
    # Move the connection: release the old node's slot, take the new.
    if fe._epoch[node_id] == epoch:
        fe.policy.on_complete(node_id)
        fe.tracker.observe(node_id, now)
    else:
        fe.orphaned += 1
    fe._attach(new_node)
    fe.rehandoffs += 1
    return new_node, fe._epoch[new_node], hit_hint


def _open_span(fe, target, size: int, node_id: int, now: float):
    """A request's span, opened where it starts: numbered from the
    tracer's sequence (spans are numbered in start order), with the
    policy's loads at that instant."""
    from repro.obs.span import Span

    tracer = fe.tracer
    span = Span(
        tracer.seq, str(target), size, "", node_id, now, now, 0.0, "error",
        list(fe.p_loads), {},
    )
    tracer.seq += 1
    return span


def _finish_span(fe, span) -> None:
    """The finished span, as the row the state machine writes for it."""
    from repro.obs.span import ROW_OUTCOMES, ROW_PHASES

    phases = span.phases
    mask = 0
    for bit, name in enumerate(ROW_PHASES):
        if name in phases:
            mask |= 1 << bit
    fe.tracer.row(
        span.req, int(span.target), span.size, span.node, span.t_arrival,
        span.t_complete, ROW_OUTCOMES.index(span.outcome), mask,
        [phases.get(name, 0.0) for name in ROW_PHASES], span.load,
    )


class _FaultProbe:
    """Minimal span stand-in for the faulty serve path: collects the
    per-request cache outcome via ``serve(span=...)`` without a tracer.
    ``phases`` is ``None``, so ``serve`` skips its phase timing."""

    __slots__ = ("outcome",)

    phases = None

    def __init__(self) -> None:
        self.outcome: str = "error"


def _connection_faulty(
    fe, batch: List[Tuple[int, int]], node_id: int, epoch: int, hit_hint
):
    """:func:`_connection` under a fault runtime.

    While the chosen back-end is crashed but undetected, a dispatch
    is a black hole: the client waits out its timeout, backs off,
    and re-requests through the front-end (which re-runs the
    policy); after ``max_retries`` unanswered attempts the
    connection's remaining requests are abandoned and counted lost.
    A live back-end serves exactly as in :func:`_connection`, always
    with a span so the per-request cache outcome feeds the
    degraded-mode series (a tracer span when tracing, otherwise a
    throwaway probe).
    """
    faults = fe.faults
    dark = faults._dark
    retry = faults.retry
    tracer = fe.tracer
    engine = fe.engine
    t_first = engine.now
    n = len(batch)
    index = 0
    attempts = 0
    # True for the first request served after each (re)dispatch: it
    # pays connection establishment and skips the rehandoff check
    # (the policy just chose its node).
    fresh_dispatch = True
    while index < n:
        # A rehandoff connection whose node the front-end has failed
        # re-runs the policy below instead of waiting out the timeout.
        if dark[node_id] and (
            fresh_dispatch or not fe.rehandoff or fe.policy._alive[node_id]
        ):
            yield Delay(retry.timeout_s)
            fe._detach(node_id, epoch)
            if attempts >= retry.max_retries:
                now = engine.now
                for i in range(index, n):
                    fe._account_lost(t_first)
                    faults.record_lost(now, now - t_first)
                    if tracer is not None:
                        lost_target, lost_size = batch[i]
                        tracer.lost(lost_target, lost_size, node_id, t_first, now)
                break
            attempts += 1
            faults.retried_requests += n - index
            yield Delay(retry.backoff_s(attempts))
            target, size = batch[index]
            node_id = fe.policy.choose(target, size, now=engine.now)
            take = fe._take_prediction
            hit_hint = take() if take is not None else None
            fe._attach(node_id)
            epoch = fe._epoch[node_id]
            fresh_dispatch = True
            continue
        target, size = batch[index]
        if not fresh_dispatch:
            hit_hint = None
            if fe.rehandoff:
                node_id, epoch, hit_hint = _maybe_rehandoff(
                    fe, node_id, epoch, target, size
                )
                if dark[node_id]:
                    # Rehandoff landed on a dark node: the attempt
                    # times out there like any doomed dispatch.
                    fresh_dispatch = True
                    continue
        start = engine.now
        span = (
            _open_span(fe, target, size, node_id, start)
            if tracer is not None
            else _FaultProbe()
        )
        yield from serve(
            fe,
            fe.nodes[node_id],
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
            _finish_span(fe, span)
        request_start = t_first if index == 0 else start
        fe._account_request(node_id, epoch, request_start)
        faults.record_served(
            now, now - request_start, span.outcome in ("miss", "coalesced")
        )
        fresh_dispatch = False
        index += 1
    else:
        fe._detach(node_id, epoch)
    fe.in_flight -= 1
    fe.admit()
