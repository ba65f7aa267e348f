"""Greedy-Dual-Size replacement (Cao & Irani, USITS 1997).

The paper's default back-end replacement policy: *"The cache replacement
policy we chose for all simulations is Greedy-Dual-Size (GDS), as it appears
to be the best known policy for Web workloads."*

GDS assigns every cached file ``p`` a credit ``H(p) = L + cost(p)/size(p)``
where ``L`` is a monotonically inflating baseline.  Eviction removes the
file with the smallest ``H`` and sets ``L`` to that value, so recently
touched and cheap-to-keep (small) files survive.  This is GDS(1),
``cost(p) = 1``: every file costs one miss to refetch, so the policy
optimizes request hit ratio, which is what the paper's cache-miss-ratio
figures report.

Implementation: a lazy-deletion binary heap keyed by ``(H, seq)``.  Stale
heap entries (whose credit was refreshed after being pushed) are skipped at
pop time by comparing against the live credit table; this keeps every
operation O(log n) amortized without a decrease-key structure.
"""

from __future__ import annotations

import heapq  # lardlint: disable-file=raw-heapq -- not an event queue; credit-heap entries carry a seq tie-break so equal credits pop in insertion order
from typing import Dict, Hashable, List, Optional, Tuple

from .base import Cache, CacheError

__all__ = ["GDSCache"]


class GDSCache(Cache):
    """Greedy-Dual-Size cache, the GDS(1) variant."""

    def __init__(self, capacity_bytes: int, name: str = "") -> None:
        super().__init__(capacity_bytes, name=name)
        #: A miss may take :meth:`access`'s own copy of the insert in
        #: exactly this class.  A subclass (its ``_admits``, or any other
        #: hook it overrides) goes through :meth:`Cache._insert` and the
        #: hooks.
        self._fused_insert = type(self) is GDSCache
        self._inflation = 0.0  # the running L value
        self._credit: Dict[Hashable, float] = {}
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._seq = 0

    @property
    def inflation(self) -> float:
        """Current L baseline (monotonically non-decreasing)."""
        return self._inflation

    def credit_of(self, target: Hashable) -> Optional[float]:
        """Live H value of a cached target (testing/introspection)."""
        return self._credit.get(target)

    def next_victim_credit(self) -> Optional[float]:
        """H value of the entry that would be evicted next (None if empty).

        Used by the LB/GC directory to pick the back-end holding the
        globally least valuable file.  Stale heap entries encountered on
        the way are discarded as a side effect.
        """
        heap = self._heap
        while heap:
            h, _seq, target = heap[0]
            if self._credit.get(target) == h:
                return h
            heapq.heappop(heap)
        return None

    # -- policy hooks --------------------------------------------------------

    def _fresh_credit(self, size: int) -> float:
        # A zero-byte file is free to keep; give it the cost alone so its
        # credit stays finite and well ordered.
        return self._inflation + (1.0 / size if size > 0 else 1.0)

    def _push(self, target: Hashable, credit: float) -> None:
        self._seq += 1
        self._credit[target] = credit
        heapq.heappush(self._heap, (credit, self._seq, target))

    def access(self, target: Hashable, size: int) -> bool:
        """Specialized :meth:`Cache.access`: the hit path fuses the base
        protocol with ``_on_hit`` — one membership probe serves both the
        hit test and the size lookup, and no hook call frame is paid —
        and the miss path fuses ``_insert`` / ``_on_insert`` /
        ``_fresh_credit`` / ``_push`` the same way where no subclass can
        have changed them (``_fused_insert``).  This runs once per
        request, the simulator's most frequent cache operation; outcomes
        and counter updates are identical to the base implementation.
        """
        if size < 0:
            raise CacheError(f"negative file size for {target!r}: {size}")
        cached = self._sizes.get(target)
        if cached is not None:
            self.stats.hits += 1
            # Inlined _fresh_credit.
            credit = self._inflation + (1.0 / cached if cached > 0 else 1.0)
            self._seq += 1
            self._credit[target] = credit
            heapq.heappush(self._heap, (credit, self._seq, target))
            return True
        stats = self.stats
        stats.misses += 1
        if not self._fused_insert:
            self._insert(target, size)
            return False
        capacity = self.capacity_bytes
        if size > capacity:
            stats.rejected += 1
            return False
        while self.used_bytes + size > capacity:
            self._evict_one()
        self._sizes[target] = size
        self.used_bytes += size
        stats.insertions += 1
        credit = self._inflation + (1.0 / size if size > 0 else 1.0)
        self._seq += 1
        self._credit[target] = credit
        heapq.heappush(self._heap, (credit, self._seq, target))
        return False

    def _on_hit(self, target: Hashable) -> None:
        self._push(target, self._fresh_credit(self._sizes[target]))

    def _on_insert(self, target: Hashable, size: int) -> None:
        self._push(target, self._fresh_credit(size))

    def _select_victim(self) -> Hashable:
        heap = self._heap
        credit = self._credit
        while heap:
            h, _seq, target = heap[0]
            live = credit.get(target)
            if live is None or live != h:
                heapq.heappop(heap)  # stale entry: refreshed or removed
                continue
            self._inflation = h
            return target
        raise CacheError("GDS victim requested from an empty cache")  # pragma: no cover

    def _on_remove(self, target: Hashable) -> None:
        # Lazy deletion: heap entries become stale and are skipped later.
        del self._credit[target]
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap when stale entries dominate, bounding memory."""
        if len(self._heap) > 64 and len(self._heap) > 4 * len(self._credit):
            self._heap = [
                (h, seq, target)
                for (h, seq, target) in self._heap
                if self._credit.get(target) == h
            ]
            heapq.heapify(self._heap)
