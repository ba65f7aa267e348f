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
table: concurrent misses on an in-flight file join that read's waiters,
woken in arrival order when it ends, instead of issuing another read.

In WRR/GMS mode the node consults the cluster-wide
:class:`~repro.cache.gms.GlobalMemorySystem` instead of a private cache;
remote hits charge fetch CPU time at *both* the holder and the requester.

This class is the node's *state* — resources, cache, cost constants,
counters.  The steps above are driven by the connection state machine in
:mod:`repro.cluster.fastpath`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Sequence

from ..cache.base import Cache
from ..cache.gms import GlobalMemorySystem
from ..sim import Engine, Resource
from .costs import CostModel

__all__ = ["BackendNode"]


class BackendNode:
    """One simulated back-end: CPU + disks + cache."""

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
        self.cache = cache
        self.gms = gms
        self.coalesce_reads = coalesce_reads
        #: Set by the state machine: cost model -> its per-target
        #: disk-time table (``FastPath.disk_times``), and the table for
        #: the model in force.
        self.disk_times_for: Optional[Callable[[CostModel], Any]] = None
        self.disk_times: Any = None
        self.set_costs(costs)
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
        #: ``None`` for an all-static catalog.
        self.dynamic_cost_of_target: Optional[Sequence[float]] = None
        #: target -> who waits for the read in flight: the lifecycle's
        #: own representation (wake-up callbacks for the state machine,
        #: a ``SimEvent`` for the coroutine oracle in ``tests/``).
        self._pending: Dict[Hashable, Any] = {}
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
        """Install a cost model — at construction, and mid-run for a
        brownout: services already queued keep their duration, new work
        pays the new rates.

        The model is immutable, so per-request method calls into it are
        folded into plain constants here, and the per-target disk times
        are one table lookup away.
        """
        self.costs = costs
        self._conn_time = costs.connection_time()
        self._teardown_time = costs.teardown_time()
        self._transmit_per_unit = costs.transmit_s_per_512b / costs.cpu_speed
        if self.disk_times_for is not None:
            self.disk_times = self.disk_times_for(costs)

    # -- disk placement ----------------------------------------------------------

    def disk_for(self, target: Hashable) -> Resource:
        """Disk holding ``target`` (frequency-striped when configured)."""
        if len(self.disks) == 1:
            return self.disks[0]
        if self.disk_of_target is not None and isinstance(target, int):
            return self.disks[self.disk_of_target[target] % len(self.disks)]
        return self.disks[hash(target) % len(self.disks)]

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
