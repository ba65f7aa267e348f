"""Hash-partitioned locality-based distribution — "LB" (paper Section 2.3).

"A simple front end strategy consists of partitioning the name space of
the database in some way and assigning requests for all targets in a
particular partition to a particular back end.  For instance, a hash
function can be used to perform the partitioning."

LB maximizes locality (each node caches only its partition of the working
set) but ignores load entirely — which is exactly the imbalance LARD
fixes.  When a node fails, its partition is deterministically re-spread
over the survivors via rendezvous (highest-random-weight) hashing, so only
the failed node's targets move.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Hashable

from .base import Policy, PolicyError

__all__ = ["HashLocality", "stable_hash"]


def stable_hash(value: Hashable, salt: int = 0) -> int:
    """Deterministic 32-bit hash, stable across processes and Python runs.

    Python's built-in ``hash`` is randomized per process for strings, which
    would make simulations irreproducible; CRC32 over the repr is stable,
    fast, and mixes well enough for partitioning ~40 k targets.
    """
    data = repr((salt, value)).encode("utf-8")
    return zlib.crc32(data) & 0xFFFFFFFF


class HashLocality(Policy):
    """Static hash partitioning of the target name space."""

    name = "lb"

    def __init__(
        self,
        num_nodes: int,
        hash_fn: Callable[[Hashable, int], int] = stable_hash,
        **kwargs,
    ) -> None:
        super().__init__(num_nodes, **kwargs)
        self._hash_fn = hash_fn
        # Memoized dead-primary fallback owners, valid for exactly one
        # membership epoch.  Without it every request whose primary is
        # down pays an O(n) rendezvous re-hash — ruinous at 1024 nodes.
        self._fallback_cache: Dict[Hashable, int] = {}
        self._fallback_epoch = -1

    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """Static partition: hash the target name over the alive nodes."""
        node = self._hash_fn(target, 0) % self.num_nodes
        if self._alive[node]:
            return node
        epoch = self.membership_epoch
        if epoch != self._fallback_epoch:
            self._fallback_cache.clear()
            self._fallback_epoch = epoch
        cached = self._fallback_cache.get(target)
        if cached is not None:
            return cached
        # Rendezvous hashing over the survivors: every alive node scores the
        # target and the max wins, so a failure only remaps the failed
        # node's partition.
        best = -1
        best_score = -1
        for candidate in range(self.num_nodes):
            if not self._alive[candidate]:
                continue
            score = self._hash_fn(target, candidate + 1)
            if score > best_score:
                best, best_score = candidate, score
        if best < 0:  # pragma: no cover - guarded by Policy failure handling
            raise PolicyError("no alive back-end nodes")
        self._fallback_cache[target] = best
        return best
