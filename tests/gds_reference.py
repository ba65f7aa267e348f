"""The Greedy-Dual-Size cache as it stood on fa959e2, kept as an oracle.

``repro.cache.gds.GDSCache`` now holds one heap entry per cached file
and re-keys a stale one when it surfaces.  This is the implementation
it replaced — a lazy-deletion heap that takes a push on every hit,
skips stale entries at pop time and rebuilds itself when they dominate —
verbatim but for the class name and the absolute import, so that
``tests/test_cache_gds.py`` can drive both with one stream and require
the same hits, the same evictions in the same order and the same
inflation.

One thing it does that the new cache does not, pinned by
``test_the_reference_resurrects_a_removed_entry``: an entry is live
"while its credit matches", so a file dropped by ``invalidate`` /
``clear`` (which do not move ``L``) and fetched again before the next
eviction finds its old heap entries live again and inherits its old
place among files of equal credit.  The equivalence property therefore
gives a file a new name each time it is dropped that way.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from repro.cache.base import Cache, CacheError

__all__ = ["LazyDeletionGDSCache"]


class LazyDeletionGDSCache(Cache):
    """Greedy-Dual-Size cache, the GDS(1) variant."""

    def __init__(self, capacity_bytes: int, name: str = "") -> None:
        super().__init__(capacity_bytes, name=name)
        #: A miss may take :meth:`access`'s own copy of the insert in
        #: exactly this class.  A subclass (its ``_admits``, or any other
        #: hook it overrides) goes through :meth:`Cache._insert` and the
        #: hooks.
        self._fused_insert = type(self) is LazyDeletionGDSCache
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
