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

Two modes are provided:

``replacement="gds"`` (default)
    Per-node Greedy-Dual-Size caches (matching the back-end replacement
    policy used everywhere else in the reproduction) plus a free global
    directory.  A remote hit copies the file into the requester's local
    cache.  At one node this degenerates to plain WRR, as it must.

``replacement="lru"``
    A single-copy Feeley-style mechanism: per-node capacities, global
    LRU victim selection, and page *forwarding* — when the globally
    oldest file lives on a peer, the faulting node evicts it there and
    forwards its own locally-oldest file into the freed space.  More
    aggressive capacity aggregation, weaker recency behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
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
    forwards: int = 0
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
    """Cluster-wide cooperative file cache with a free global directory.

    Parameters
    ----------
    num_nodes:
        Back-end count; node ids are ``0..num_nodes-1``.
    node_capacity_bytes:
        Per-node main-memory cache size.
    replacement:
        ``"gds"`` (per-node GDS + copy-on-remote-hit, default) or
        ``"lru"`` (single-copy global LRU with Feeley forwarding).
    copy_on_remote_hit:
        GDS mode: copy a remotely served file into the requester's local
        cache (Feeley-style page movement; this is what duplicates hot
        files).  LRU mode: *move* the single copy to the requester.
        Default True in both modes.
    max_cacheable_bytes:
        Optional admission filter (files larger are never cached).
    """

    REPLACEMENTS = ("gds", "lru")

    def __init__(
        self,
        num_nodes: int,
        node_capacity_bytes: int,
        replacement: str = "gds",
        copy_on_remote_hit: bool = True,
        max_cacheable_bytes: Optional[int] = None,
    ) -> None:
        if num_nodes < 1:
            raise CacheError(f"GMS needs >= 1 node, got {num_nodes}")
        if node_capacity_bytes <= 0:
            raise CacheError(f"node capacity must be positive, got {node_capacity_bytes}")
        if replacement not in self.REPLACEMENTS:
            raise CacheError(
                f"unknown GMS replacement {replacement!r}; expected one of {self.REPLACEMENTS}"
            )
        self.num_nodes = num_nodes
        self.node_capacity_bytes = int(node_capacity_bytes)
        self.replacement = replacement
        self.copy_on_remote_hit = copy_on_remote_hit
        self.max_cacheable_bytes = max_cacheable_bytes
        self.stats = GMSStats()
        if replacement == "gds":
            self._locals: List[GDSCache] = []
            self._where: Dict[Hashable, Set[int]] = {}
            for node in range(num_nodes):
                cache = GDSCache(self.node_capacity_bytes, name=f"gms[{node}]")
                cache.evict_listener = self._make_evict_listener(node)
                self._locals.append(cache)
            self._holder: Dict[Hashable, int] = {}
            self._global = None
        else:
            self._locals = []
            self._where = {}
            self._holder = {}
            # Global recency: OrderedDict from target -> size; order == LRU.
            self._global = OrderedDict()
            self._node_order: List["OrderedDict[Hashable, None]"] = [
                OrderedDict() for _ in range(num_nodes)
            ]
            self._node_used: List[int] = [0] * num_nodes

    # -- introspection -------------------------------------------------------

    def holders_of(self, target: Hashable) -> Set[int]:
        """Every node currently caching ``target``."""
        if self.replacement == "gds":
            return set(self._where.get(target, ()))
        holder = self._holder.get(target)
        return {holder} if holder is not None else set()

    def holder_of(self, target: Hashable) -> Optional[int]:
        """One node caching ``target`` (the lowest id), or None."""
        holders = self.holders_of(target)
        return min(holders) if holders else None

    def node_used_bytes(self, node: int) -> int:
        """Bytes cached on ``node``."""
        self._check_node(node)
        if self.replacement == "gds":
            return self._locals[node].used_bytes
        return self._node_used[node]

    def cached_targets(self, node: Optional[int] = None):
        """Targets cached cluster-wide, or on one node if given."""
        if node is None:
            if self.replacement == "gds":
                return list(self._where)
            return list(self._global)
        self._check_node(node)
        if self.replacement == "gds":
            return list(self._locals[node])
        return list(self._node_order[node])

    def __contains__(self, target: Hashable) -> bool:
        if self.replacement == "gds":
            return target in self._where
        return target in self._holder

    def __len__(self) -> int:
        if self.replacement == "gds":
            return len(self._where)
        return len(self._holder)

    @property
    def aggregate_used_bytes(self) -> int:
        if self.replacement == "gds":
            return sum(c.used_bytes for c in self._locals)
        return sum(self._node_used)

    @property
    def aggregate_capacity_bytes(self) -> int:
        return self.num_nodes * self.node_capacity_bytes

    # -- access protocol -----------------------------------------------------

    def access(self, node: int, target: Hashable, size: int) -> GMSResult:
        """Node ``node`` requests ``target`` (``size`` bytes)."""
        self._check_node(node)
        if size < 0:
            raise CacheError(f"negative file size for {target!r}: {size}")
        if self.replacement == "gds":
            return self._access_gds(node, target, size)
        return self._access_lru(node, target, size)

    def drop_node(self, node: int) -> int:
        """Discard every file cached on ``node`` (node failure).  Returns count."""
        self._check_node(node)
        if self.replacement == "gds":
            victims = list(self._locals[node])
            for target in victims:
                self._locals[node].invalidate(target)  # listener fixes _where
            return len(victims)
        victims = [t for t, holder in self._holder.items() if holder == node]
        for target in victims:
            self._discard(target)
        return len(victims)

    # -- GDS (per-node caches + copy on remote hit) mode --------------------------

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

    def _cacheable(self, size: int) -> bool:
        if self.max_cacheable_bytes is not None and size > self.max_cacheable_bytes:
            return False
        return True

    def _insert_local(self, node: int, target: Hashable, size: int) -> None:
        if not self._cacheable(size):
            self.stats.rejected += 1
            return
        self._locals[node].access(target, size)  # inserts, evicting as needed
        if self._locals[node].peek(target):
            self._where.setdefault(target, set()).add(node)
        else:
            self.stats.rejected += 1

    def _access_gds(self, node: int, target: Hashable, size: int) -> GMSResult:
        local = self._locals[node]
        if local.peek(target):
            local.access(target, size)  # refresh credit
            self.stats.local_hits += 1
            return GMSResult(GMSOutcome.LOCAL_HIT, holder=node)
        holders = self._where.get(target)
        if holders:
            holder = min(holders)
            self.stats.remote_hits += 1
            if self.copy_on_remote_hit:
                self._insert_local(node, target, size)
            return GMSResult(GMSOutcome.REMOTE_HIT, holder=holder)
        self.stats.misses += 1
        self._insert_local(node, target, size)
        return GMSResult(GMSOutcome.MISS)

    # -- LRU (single-copy Feeley forwarding) mode ----------------------------------

    def _access_lru(self, node: int, target: Hashable, size: int) -> GMSResult:
        holder = self._holder.get(target)
        if holder is None:
            self.stats.misses += 1
            self._load(node, target, size)
            return GMSResult(GMSOutcome.MISS)
        self._global.move_to_end(target)
        self._node_order[holder].move_to_end(target)
        if holder == node:
            self.stats.local_hits += 1
            return GMSResult(GMSOutcome.LOCAL_HIT, holder=node)
        self.stats.remote_hits += 1
        if self.copy_on_remote_hit:
            self._migrate(target, holder, node)
        return GMSResult(GMSOutcome.REMOTE_HIT, holder=holder)

    # -- LRU internals -----------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise CacheError(f"node id {node} out of range 0..{self.num_nodes - 1}")

    def _discard(self, target: Hashable) -> None:
        size = self._global.pop(target)
        holder = self._holder.pop(target)
        del self._node_order[holder][target]
        self._node_used[holder] -= size

    def _globally_oldest(self) -> Hashable:
        return next(iter(self._global))

    def _locally_oldest(self, node: int) -> Optional[Hashable]:
        order = self._node_order[node]
        return next(iter(order)) if order else None

    def _make_room(self, node: int, size: int) -> None:
        """Free space on ``node`` via global replacement + forwarding."""
        while self._node_used[node] + size > self.node_capacity_bytes:
            if not self._global:  # pragma: no cover - guarded by caller
                raise CacheError("GMS replacement on empty cache")
            victim = self._globally_oldest()
            victim_holder = self._holder[victim]
            if victim_holder == node:
                self.stats.evictions += 1
                self._discard(victim)
                continue
            # The globally oldest file is on a peer: evict it there, then
            # forward this node's own oldest file into the freed space so
            # space is released locally without losing recent content.
            self.stats.evictions += 1
            self._discard(victim)
            fwd = self._locally_oldest(node)
            if fwd is not None:
                fwd_size = self._global[fwd]
                if self._node_used[victim_holder] + fwd_size <= self.node_capacity_bytes:
                    self._move(fwd, node, victim_holder)
                    self.stats.forwards += 1

    def _move(self, target: Hashable, src: int, dst: int) -> None:
        """Relocate a cached file between nodes, preserving global recency."""
        size = self._global[target]
        del self._node_order[src][target]
        self._node_used[src] -= size
        self._node_order[dst][target] = None
        self._node_used[dst] += size
        self._holder[target] = dst

    def _migrate(self, target: Hashable, src: int, dst: int) -> None:
        """Move a remotely hit file toward the requester if it can fit."""
        size = self._global[target]
        if size > self.node_capacity_bytes:  # pragma: no cover - rejected at load
            return
        if self._node_used[dst] + size > self.node_capacity_bytes:
            self._make_room(dst, size)
        self._move(target, src, dst)

    def _load(self, node: int, target: Hashable, size: int) -> None:
        too_big = size > self.node_capacity_bytes or not self._cacheable(size)
        if too_big:
            self.stats.rejected += 1
            return
        self._make_room(node, size)
        self._global[target] = size
        self._holder[target] = node
        self._node_order[node][target] = None
        self._node_used[node] += size
