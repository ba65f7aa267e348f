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

Implementation: :class:`~repro.cache.base.PriorityHeapCache` keyed by
``(H, stamp)`` — one heap entry per cached file.  A hit only writes the
file's new credit; the heap learns of it when the entry surfaces at
victim selection and is re-keyed, so every operation stays O(log n)
amortized without a decrease-key structure and the heap never holds
more than the cache does.
"""

from __future__ import annotations

import heapq  # lardlint: disable-file=raw-heapq -- not an event queue; credit-heap entries carry a seq tie-break so equal credits pop in insertion order
from typing import Dict, Hashable, Optional

from .base import CacheError, PriorityHeapCache

__all__ = ["GDSCache"]


class GDSCache(PriorityHeapCache):
    """Greedy-Dual-Size cache, the GDS(1) variant."""

    def __init__(self, capacity_bytes: int, name: str = "") -> None:
        super().__init__(capacity_bytes, name=name)
        #: A miss may take :meth:`access`'s own copy of the insert in
        #: exactly this class.  A subclass (its ``_admits``, or any other
        #: hook it overrides) goes through :meth:`Cache._insert` and the
        #: hooks.
        self._fused_insert = type(self) is GDSCache
        self._inflation = 0.0  # the running L value
        self._credit: Dict[Hashable, float] = self._priority

    @property
    def inflation(self) -> float:
        """Current L baseline (monotonically non-decreasing)."""
        return self._inflation

    def credit_of(self, target: Hashable) -> Optional[float]:
        """Live H value of a cached target (testing/introspection)."""
        return self._credit.get(target)

    def next_victim_credit(self) -> Optional[float]:
        """H value of the entry that would be evicted next (None if
        empty): how the LB/GC directory finds the back-end holding the
        globally least valuable file."""
        return self._live_top()[0] if self._heap else None

    # -- policy hooks --------------------------------------------------------

    def _fresh_credit(self, size: int) -> float:
        # A zero-byte file is free to keep; give it the cost alone so its
        # credit stays finite and well ordered.
        return self._inflation + (1.0 / size if size > 0 else 1.0)

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
            # Inlined _on_hit: a credit L has not moved since stays put,
            # stamp and all (the file keeps its place among its equals).
            credit = self._inflation + (1.0 / cached if cached > 0 else 1.0)
            if credit != self._credit[target]:
                self._seq = seq = self._seq + 1
                self._credit[target] = credit
                self._stamp[target] = seq
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
        self._seq = seq = self._seq + 1
        self._credit[target] = credit
        heapq.heappush(self._heap, (credit, seq, target))
        return False

    def _on_hit(self, target: Hashable) -> None:
        credit = self._fresh_credit(self._sizes[target])
        if credit != self._credit[target]:
            self._set_priority(target, credit)

    def _on_insert(self, target: Hashable, size: int) -> None:
        self._push(target, self._fresh_credit(size))

    def _select_victim(self) -> Hashable:
        credit, _stamp, victim = self._live_top()
        self._inflation = credit
        return victim
