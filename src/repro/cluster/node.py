"""Back-end node model (paper Figure 4, Section 3.1).

Each back-end consists of one CPU and one or more locally attached disks,
each with its own FCFS queue, plus a whole-file main-memory cache.
Serving a request takes these steps in sequence (overlapped across
requests):

1. connection establishment (CPU);
2. disk reads if the file misses the cache — chunked at 44 KB, with "the
   data transmission immediately follow[ing] the disk read for each
   block" (disk and CPU interleave per chunk);
3. target data transmission (CPU);
4. connection teardown (CPU).

"Multiple requests waiting on the same file from disk can be satisfied
with only one disk read" — implemented by the per-target pending-read
table: concurrent misses on an in-flight file wait on a
:class:`~repro.sim.resources.SimEvent` instead of issuing another read.

In WRR/GMS mode the node consults the cluster-wide
:class:`~repro.cache.gms.GlobalMemorySystem` instead of a private cache;
remote hits charge fetch CPU time at *both* the holder and the requester.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence

from ..cache.base import Cache
from ..cache.gms import GlobalMemorySystem, GMSOutcome
from ..sim import Engine, Resource, Service, SimEvent, Wait
from .costs import CostModel

__all__ = ["BackendNode"]

class BackendNode:
    """One simulated back-end: CPU + disks + cache, serving whole requests."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        costs: CostModel,
        cache: Optional[Cache],
        num_disks: int = 1,
        gms: Optional[GlobalMemorySystem] = None,
        coalesce_reads: bool = True,
    ) -> None:
        if (cache is None) == (gms is None):
            raise ValueError("exactly one of cache/gms must be provided")
        if num_disks < 1:
            raise ValueError(f"need at least one disk, got {num_disks}")
        self.engine = engine
        self.node_id = node_id
        self.costs = costs
        self.cache = cache
        self.gms = gms
        self.coalesce_reads = coalesce_reads
        # Hot-path constants: the cost model is immutable, so per-request
        # method calls into it can be folded into plain arithmetic here.
        self._conn_time = costs.connection_time()
        self._teardown_time = costs.teardown_time()
        self._transmit_per_unit = costs.transmit_s_per_512b / costs.cpu_speed
        self.cpu = Resource(engine, capacity=1, name=f"cpu[{node_id}]")
        self.disks = [
            Resource(engine, capacity=1, name=f"disk[{node_id}.{d}]")
            for d in range(num_disks)
        ]
        #: Set by the cluster: peer nodes, used for GMS remote fetches.
        self.peers: Sequence["BackendNode"] = ()
        #: Set by the cluster: target -> disk index (frequency striping).
        self.disk_of_target: Optional[Sequence[int]] = None
        #: Set by the cluster: target -> CPU (CGI) cost in seconds, or
        #: ``None`` for an all-static catalog.  Shared by identity across
        #: all nodes of one cluster (the fast-path gate checks ``is``).
        self.dynamic_cost_of_target: Optional[Sequence[float]] = None
        self._pending: Dict[Hashable, SimEvent] = {}
        # Counters (paper metrics).
        self.cache_hits = 0
        self.cache_misses = 0
        self.disk_reads = 0
        self.coalesced_reads = 0
        self.requests_served = 0
        self.bytes_served = 0
        self.gms_local_hits = 0
        self.gms_remote_hits = 0
        self.dynamic_requests = 0

    def set_costs(self, costs: CostModel) -> None:
        """Swap the node's cost model mid-run (brownout fault injection).

        Refolds the hot-path constants; requests already inside a serve
        generator finish any yielded service at the old rate, new work
        pays the new rates.
        """
        self.costs = costs
        self._conn_time = costs.connection_time()
        self._teardown_time = costs.teardown_time()
        self._transmit_per_unit = costs.transmit_s_per_512b / costs.cpu_speed

    # -- disk placement ----------------------------------------------------------

    def disk_for(self, target: Hashable) -> Resource:
        """Disk holding ``target`` (frequency-striped when configured)."""
        if len(self.disks) == 1:
            return self.disks[0]
        if self.disk_of_target is not None and isinstance(target, int):
            return self.disks[self.disk_of_target[target] % len(self.disks)]
        return self.disks[hash(target) % len(self.disks)]

    # -- request lifecycle ----------------------------------------------------------
    #
    # One generator lifecycle serves plain, traced and faulty runs.  When
    # the caller passes a ``span``, the data path's outcome lands in
    # ``span.outcome`` and, if the span carries a ``phases`` dict (a
    # tracer span does, the fault runtime's probe does not), each stage
    # records its simulated-time delta into it; the state mutations and
    # the yielded command sequence are the same either way, so observing
    # a run cannot change it.

    def serve(
        self,
        target: Hashable,
        size: int,
        hit_hint: Optional[bool] = None,
        establish: bool = True,
        teardown: bool = True,
        span: Optional[Any] = None,
    ):
        """Generator process serving one request end to end.

        ``hit_hint`` is set only for LB/GC: the front-end's idealized cache
        model dictates whether this request hits, so the node obeys the
        prediction instead of consulting a private cache.

        ``establish``/``teardown`` amortize connection costs over
        persistent connections: only a connection's first request pays
        establishment and only its last pays teardown (paper Section 5's
        HTTP/1.1 discussion).
        """
        engine = self.engine
        phases: Optional[Dict[str, float]] = None if span is None else span.phases
        if establish:
            t0 = engine.now
            yield Service(self.cpu, self._conn_time)
            if phases is not None:
                phases["establish"] = phases.get("establish", 0.0) + (engine.now - t0)
        dyn = self.dynamic_cost_of_target
        if dyn is not None and isinstance(target, int) and dyn[target] > 0.0:
            # Dynamic (CGI) request: CPU-bound compute, uncacheable, so it
            # bypasses the cache entirely and is neither a hit nor a miss.
            # One combined CPU service: compute + transmit of the
            # generated bytes (same arithmetic as the fast path).
            self.dynamic_requests += 1
            t0 = engine.now
            yield Service(
                self.cpu,
                self.costs.dynamic_service_time(dyn[target])
                + ((size + 511) // 512) * self._transmit_per_unit,
            )
            if phases is not None:
                phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t0)
            outcome = "dynamic"
        elif hit_hint is not None:
            outcome = yield from self._fetch_hinted(target, size, hit_hint, phases)
        elif self.gms is not None:
            outcome = yield from self._fetch_gms(target, size, phases)
        else:
            outcome = yield from self._fetch_local(target, size, phases)
        if teardown:
            t0 = engine.now
            yield Service(self.cpu, self._teardown_time)
            if phases is not None:
                phases["teardown"] = phases.get("teardown", 0.0) + (engine.now - t0)
        self.requests_served += 1
        self.bytes_served += size
        if span is not None:
            span.outcome = outcome

    # Each fetch helper completes the request's data path and returns its
    # span outcome ("hit", "miss", "coalesced", "gms_local", "gms_remote").

    def _fetch_hinted(
        self, target: Hashable, size: int, hit: bool, phases: Optional[Dict[str, float]]
    ):
        if hit:
            self.cache_hits += 1
            t0 = self.engine.now
            yield Service(self.cpu, ((size + 511) // 512) * self._transmit_per_unit)
            if phases is not None:
                phases["cpu"] = phases.get("cpu", 0.0) + (self.engine.now - t0)
            return "hit"
        pending = self._pending.get(target)
        if pending is not None:
            return (yield from self._serve_inflight(pending, target, size, phases))
        self.cache_misses += 1
        yield from self._disk_read(target, size, phases)
        return "miss"

    def _fetch_local(
        self, target: Hashable, size: int, phases: Optional[Dict[str, float]]
    ):
        pending = self._pending.get(target)
        if pending is not None:
            return (yield from self._serve_inflight(pending, target, size, phases))
        if self.cache.access(target, size):
            self.cache_hits += 1
            t0 = self.engine.now
            yield Service(self.cpu, ((size + 511) // 512) * self._transmit_per_unit)
            if phases is not None:
                phases["cpu"] = phases.get("cpu", 0.0) + (self.engine.now - t0)
            return "hit"
        self.cache_misses += 1
        yield from self._disk_read(target, size, phases)
        return "miss"

    def _serve_inflight(
        self,
        pending: SimEvent,
        target: Hashable,
        size: int,
        phases: Optional[Dict[str, float]],
    ):
        """Data path for a request whose file is already being read from disk.

        With coalescing the request waits for the one read in progress;
        without it, the request issues its own independent read (the
        paper's baseline the coalescing optimization removes).
        """
        self.cache_misses += 1
        if not self.coalesce_reads:
            yield from self._chunked_read(target, size, phases)
            return "miss"
        self.coalesced_reads += 1
        engine = self.engine
        t0 = engine.now
        yield Wait(pending)
        t1 = engine.now
        yield Service(self.cpu, ((size + 511) // 512) * self._transmit_per_unit)
        if phases is not None:
            phases["queue"] = phases.get("queue", 0.0) + (t1 - t0)
            phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t1)
        return "coalesced"

    def _disk_read(
        self, target: Hashable, size: int, phases: Optional[Dict[str, float]]
    ):
        """First read of a file: registers the in-flight marker."""
        event = SimEvent(self.engine, name=f"read[{self.node_id}:{target}]")
        self._pending[target] = event
        yield from self._chunked_read(target, size, phases)
        del self._pending[target]
        event.trigger()

    def _chunked_read(
        self, target: Hashable, size: int, phases: Optional[Dict[str, float]]
    ):
        """Chunked read from disk, interleaving transmit per block."""
        self.disk_reads += 1
        disk = self.disk_for(target)
        cpu = self.cpu
        per_unit = self._transmit_per_unit
        engine = self.engine
        disk_total = cpu_total = 0.0
        if phases is not None:
            disk_total = phases.get("disk", 0.0)
            cpu_total = phases.get("cpu", 0.0)
        for chunk_bytes, disk_time in self.costs.disk_chunks(size):
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

    def _fetch_gms(
        self, target: Hashable, size: int, phases: Optional[Dict[str, float]]
    ):
        if self.gms is None:
            raise RuntimeError("GMS fetch path taken on a node with no GMS attached")
        pending = self._pending.get(target)
        if pending is not None:
            return (yield from self._serve_inflight(pending, target, size, phases))
        result = self.gms.access(self.node_id, target, size)
        engine = self.engine
        if result.outcome is GMSOutcome.LOCAL_HIT:
            self.cache_hits += 1
            self.gms_local_hits += 1
            t0 = engine.now
            yield Service(self.cpu, self.costs.transmit_time(size))
            if phases is not None:
                phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t0)
            return "gms_local"
        if result.outcome is GMSOutcome.REMOTE_HIT:
            # Counted as a memory hit cluster-wide: the request is served
            # without touching a disk, but both peers pay fetch CPU.
            self.cache_hits += 1
            self.gms_remote_hits += 1
            holder = self.peers[result.holder]
            fetch = self.costs.gms_fetch_time(size)
            t0 = engine.now
            yield Service(holder.cpu, fetch)
            yield Service(self.cpu, fetch)
            yield Service(self.cpu, self.costs.transmit_time(size))
            if phases is not None:
                phases["cpu"] = phases.get("cpu", 0.0) + (engine.now - t0)
            return "gms_remote"
        self.cache_misses += 1
        yield from self._disk_read(target, size, phases)
        return "miss"

    # -- reporting -----------------------------------------------------------------

    def cpu_utilization(self) -> float:
        """Fraction of simulated time this node's CPU was busy."""
        return self.cpu.utilization()

    def disk_utilization(self) -> float:
        """Mean busy fraction across this node's disks."""
        return sum(d.utilization() for d in self.disks) / len(self.disks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BackendNode {self.node_id} served={self.requests_served} "
            f"hits={self.cache_hits} misses={self.cache_misses}>"
        )
