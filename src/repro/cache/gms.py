"""Global memory system (GMS) — cooperative cluster-wide file caching.

The paper's WRR/GMS comparator runs weighted round-robin request
distribution over back-ends whose main-memory caches cooperate, *"loosely
based on the GMS described in Feeley et al."* (SOSP 1995).  The essential
behaviours reproduced:

* a cluster-wide directory knows which nodes cache which file, so a local
  miss that a peer can serve becomes a (cheaper-than-disk) *remote hit*;
* data served to a node ends up in that node's local memory — which means
  hot files naturally **duplicate** across the cluster under WRR routing.
  This duplication is precisely why a GMS cannot aggregate cache capacity
  the way LARD does: every node's cache fills with the same hot documents,
  and only the warm middle of the popularity curve benefits from the
  cluster-wide pool;
* the directory itself is free to maintain (the paper's *"very generous
  assumptions"* — only data movement is charged, by the cluster
  simulator).

Each node runs a Greedy-Dual-Size cache (the policy every other back-end
in the reproduction uses) under a free global directory,
and a remote hit copies the file into the requester's local cache.  At
one node this degenerates to plain WRR, as it must.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Hashable, List, Optional, Set

from .base import CacheError
from .gds import GDSCache

__all__ = ["GlobalMemorySystem", "GMSOutcome", "GMSResult", "GMSStats"]


class GMSOutcome(Enum):
    """Classification of one GMS access."""

    LOCAL_HIT = "local_hit"
    REMOTE_HIT = "remote_hit"
    MISS = "miss"


@dataclass(frozen=True)
class GMSResult:
    """Outcome of :meth:`GlobalMemorySystem.access`.

    ``holder`` is the node that served the file from memory (for remote
    hits) or ``None`` for misses; for local hits it equals the requester.
    """

    outcome: GMSOutcome
    holder: Optional[int] = None

    @property
    def is_memory_hit(self) -> bool:
        return self.outcome is not GMSOutcome.MISS


@dataclass
class GMSStats:
    local_hits: int = 0
    remote_hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0

    @property
    def accesses(self) -> int:
        return self.local_hits + self.remote_hits + self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def memory_hit_ratio(self) -> float:
        hits = self.local_hits + self.remote_hits
        return hits / self.accesses if self.accesses else 0.0


class GlobalMemorySystem:
    """Per-node GDS caches under a free global directory, copy on remote hit.

    Parameters
    ----------
    num_nodes:
        Back-end count; node ids are ``0..num_nodes-1``.
    node_capacity_bytes:
        Per-node main-memory cache size.
    """

    def __init__(self, num_nodes: int, node_capacity_bytes: int) -> None:
        if num_nodes < 1:
            raise CacheError(f"GMS needs >= 1 node, got {num_nodes}")
        if node_capacity_bytes <= 0:
            raise CacheError(f"node capacity must be positive, got {node_capacity_bytes}")
        self.num_nodes = num_nodes
        self.node_capacity_bytes = int(node_capacity_bytes)
        self.stats = GMSStats()
        self._locals: List[GDSCache] = []
        #: The global directory: target -> nodes caching it.
        self._where: Dict[Hashable, Set[int]] = {}
        for node in range(num_nodes):
            cache = GDSCache(self.node_capacity_bytes, name=f"gms[{node}]")
            cache.evict_listener = self._make_evict_listener(node)
            self._locals.append(cache)

    # -- introspection -------------------------------------------------------

    def holders_of(self, target: Hashable) -> Set[int]:
        """Every node currently caching ``target``."""
        return set(self._where.get(target, ()))

    def holder_of(self, target: Hashable) -> Optional[int]:
        """One node caching ``target`` (the lowest id), or None."""
        holders = self._where.get(target)
        return min(holders) if holders else None

    def node_used_bytes(self, node: int) -> int:
        """Bytes cached on ``node``."""
        self._check_node(node)
        return self._locals[node].used_bytes

    def cached_targets(self, node: Optional[int] = None):
        """Targets cached cluster-wide, or on one node if given."""
        if node is None:
            return list(self._where)
        self._check_node(node)
        return list(self._locals[node])

    def __contains__(self, target: Hashable) -> bool:
        return target in self._where

    def __len__(self) -> int:
        return len(self._where)

    @property
    def aggregate_used_bytes(self) -> int:
        return sum(c.used_bytes for c in self._locals)

    @property
    def aggregate_capacity_bytes(self) -> int:
        return self.num_nodes * self.node_capacity_bytes

    # -- access protocol -----------------------------------------------------

    def access(self, node: int, target: Hashable, size: int) -> GMSResult:
        """Node ``node`` requests ``target`` (``size`` bytes)."""
        self._check_node(node)
        if size < 0:
            raise CacheError(f"negative file size for {target!r}: {size}")
        local = self._locals[node]
        if local.peek(target):
            local.access(target, size)  # refresh credit
            self.stats.local_hits += 1
            return GMSResult(GMSOutcome.LOCAL_HIT, holder=node)
        holders = self._where.get(target)
        if holders:
            holder = min(holders)
            self.stats.remote_hits += 1
            self._insert_local(node, target, size)
            return GMSResult(GMSOutcome.REMOTE_HIT, holder=holder)
        self.stats.misses += 1
        self._insert_local(node, target, size)
        return GMSResult(GMSOutcome.MISS)

    def drop_node(self, node: int) -> int:
        """Discard every file cached on ``node`` (node failure).  Returns count."""
        self._check_node(node)
        dropped = len(self._locals[node])
        self._locals[node].clear()  # listener fixes _where
        return dropped

    # -- internals -------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise CacheError(f"node id {node} out of range 0..{self.num_nodes - 1}")

    def _make_evict_listener(self, node: int):
        # The closure holds the two objects it updates, not ``self``: a
        # cache's listener must not tie the system into a reference cycle.
        where = self._where
        stats = self.stats

        def _on_evict(target: Hashable, size: int) -> None:
            holders = where.get(target)
            if holders is not None:
                holders.discard(node)
                if not holders:
                    del where[target]
            stats.evictions += 1

        return _on_evict

    def _insert_local(self, node: int, target: Hashable, size: int) -> None:
        self._locals[node].access(target, size)  # inserts, evicting as needed
        if self._locals[node].peek(target):
            self._where.setdefault(target, set()).add(node)
        else:
            self.stats.rejected += 1
