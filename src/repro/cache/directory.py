"""Front-end global cache directory — the LB/GC comparator's brain.

The paper's idealized locality-based strategy *"LB/GC"* has the front-end
track every back-end's cache state to realize a cluster-wide cache:

    "On a cache hit, the front end sends the request to the back end that
    caches the target.  On a miss, the front end sends the request to the
    back end that caches the globally 'oldest' target, thus causing
    eviction of that target."

:class:`GlobalCacheDirectory` is that front-end model.  It mirrors each
back-end cache — with the replacement policy the simulated back-ends
run, Greedy-Dual-Size, so that the idealization is an *upper* bound on
locality rather than a handicapped LRU approximation — routes each
request, and reports the resulting hit/miss.  "Globally oldest" is
generalized to "globally least valuable": the miss node is the one whose
next replacement victim has the lowest credit.

Each target is mirrored on at most one node — routing guarantees this,
which is how LB/GC aggregates cluster cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

from .base import CacheError
from .gds import GDSCache

__all__ = ["GlobalCacheDirectory", "RouteDecision"]


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of :meth:`GlobalCacheDirectory.route`."""

    node: int
    predicted_hit: bool


class GlobalCacheDirectory:
    """Idealized front-end mirror of all back-end caches.

    Parameters
    ----------
    num_nodes / node_capacity_bytes:
        Cluster shape being mirrored.
    """

    def __init__(self, num_nodes: int, node_capacity_bytes: int) -> None:
        if num_nodes < 1:
            raise CacheError(f"directory needs >= 1 node, got {num_nodes}")
        if node_capacity_bytes <= 0:
            raise CacheError(f"node capacity must be positive, got {node_capacity_bytes}")
        self.num_nodes = num_nodes
        self.node_capacity_bytes = int(node_capacity_bytes)
        self._mirror: List[GDSCache] = []
        self._where: Dict[Hashable, int] = {}
        for node in range(num_nodes):
            cache = GDSCache(self.node_capacity_bytes, name=f"lbgc[{node}]")
            cache.evict_listener = self._make_evict_listener(node)
            self._mirror.append(cache)
        self._alive: List[bool] = [True] * num_nodes
        #: Upper bound on every alive mirror's free space (a larger miss
        #: skips the walk that looks for room): raised by an evicting
        #: insert and a revived node, lowered by a walk that finds none.
        self._free_bound = self.node_capacity_bytes

    def _make_evict_listener(self, node: int):
        # The closure holds the table it updates, not ``self``: a
        # mirror's listener must not tie the directory into a reference
        # cycle.
        where = self._where

        def _on_evict(target: Hashable, size: int) -> None:
            if where.get(target) == node:
                del where[target]

        return _on_evict

    # -- introspection -------------------------------------------------------

    def locate(self, target: Hashable) -> Optional[int]:
        """Node predicted to cache ``target``, or None."""
        return self._where.get(target)

    def node_used_bytes(self, node: int) -> int:
        """Bytes the directory believes are cached on ``node``."""
        return self._mirror[node].used_bytes

    def __contains__(self, target: Hashable) -> bool:
        return target in self._where

    def __len__(self) -> int:
        return len(self._where)

    # -- routing -------------------------------------------------------------

    def route(self, target: Hashable, size: int) -> RouteDecision:
        """Choose the back-end for a request and update the mirror state."""
        if size < 0:
            raise CacheError(f"negative file size for {target!r}: {size}")
        node = self._where.get(target)
        if node is not None:
            self._mirror[node].access(target, size)  # refresh, guaranteed hit
            return RouteDecision(node=node, predicted_hit=True)
        node = self._choose_miss_node(size)
        mirror = self._mirror[node]
        mirror.access(target, size)  # insert (may evict)
        if mirror.peek(target):
            self._where[target] = node
        free = self.node_capacity_bytes - mirror.used_bytes
        if free > self._free_bound:  # it evicted more than it took
            self._free_bound = free
        return RouteDecision(node=node, predicted_hit=False)

    def drop_node(self, node: int) -> int:
        """Forget everything mirrored on ``node`` and stop routing to it
        (node failure).  Returns the number of entries dropped."""
        self._check_node(node)
        dropped = len(self._mirror[node])
        self._mirror[node].clear()  # listener cleans _where
        self._alive[node] = False
        return dropped

    def revive_node(self, node: int) -> None:
        """Resume routing to ``node`` (assumed to return with a cold cache)."""
        self._check_node(node)
        self._alive[node] = True
        self._free_bound = self.node_capacity_bytes

    # -- internals -----------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise CacheError(f"node id {node} out of range 0..{self.num_nodes - 1}")

    def _choose_miss_node(self, size: int) -> int:
        # Prefer a node that can absorb the file without evicting; among
        # those, the one with the most free space (fills the cluster evenly
        # during warm-up).  Once every cache is full, pick the node whose
        # next victim is globally least valuable, per the paper.
        alive = self._alive
        if size <= self._free_bound:
            best_free = best_node = -1
            for node, mirror in enumerate(self._mirror):
                free = self.node_capacity_bytes - mirror.used_bytes
                if alive[node] and free > best_free:
                    best_free, best_node = free, node
            if best_free >= size:
                return best_node
            self._free_bound = best_free
        oldest_key = None
        oldest_node = -1
        for node, mirror in enumerate(self._mirror):
            if not alive[node]:
                continue
            key = mirror.next_victim_credit()
            if key is None:
                key = float("-inf")  # nothing to evict counts as oldest
            if oldest_key is None or key < oldest_key:
                oldest_key = key
                oldest_node = node
        if oldest_node < 0:
            raise CacheError("no alive back-end nodes to route to")
        return oldest_node
