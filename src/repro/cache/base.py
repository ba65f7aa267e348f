"""Cache abstractions shared by all replacement policies.

The paper's simulator caches *whole files* in each back-end's main memory
(Section 3.1), so the cache interface here is file-granular: entries are
``(target, size_in_bytes)`` pairs and capacity is counted in bytes.

The central entry point is :meth:`Cache.access`, which models one request
hitting the cache: it returns ``True`` on a hit (and refreshes the entry's
replacement metadata) or ``False`` on a miss (and inserts the file, evicting
as needed).  :meth:`Cache.peek` answers "would this hit?" without mutating
anything — the front-end models in :mod:`repro.cache.directory` rely on it.
"""

from __future__ import annotations

import abc
import heapq  # lardlint: disable-file=raw-heapq -- not an event queue; priority-heap entries carry a stamp tie-break so equal priorities pop in the order they were set
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Cache", "PriorityHeapCache", "CacheStats", "CacheError"]

Target = Hashable


class CacheError(ValueError):
    """Raised on invalid cache configuration or use."""


@dataclass
class CacheStats:
    """Counters maintained by every :class:`Cache`.

    ``hits``/``misses`` count :meth:`Cache.access` outcomes; ``rejected``
    counts files that could not be cached at all (larger than the whole
    cache, or excluded by policy such as the paper's "LRU never caches
    files over 500 KB" variant).
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_evicted: int = 0
    rejected: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter (e.g. after a warm-up phase)."""
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.bytes_evicted = 0
        self.rejected = 0


class Cache(abc.ABC):
    """Byte-capacity, whole-file cache with a pluggable replacement policy.

    Subclasses implement :meth:`_on_hit`, :meth:`_on_insert` and
    :meth:`_select_victim`; this base class owns capacity accounting,
    statistics, and the access protocol, guaranteeing uniform invariants:

    * ``used_bytes <= capacity_bytes`` at all times;
    * an entry is either fully cached or not cached (whole-file caching);
    * a file larger than the capacity is never cached (counted ``rejected``).
    """

    def __init__(self, capacity_bytes: int, name: str = "") -> None:
        if capacity_bytes <= 0:
            raise CacheError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.name = name
        self.used_bytes = 0
        self.stats = CacheStats()
        self._sizes: Dict[Target, int] = {}
        #: Optional ``callback(target, size)`` invoked whenever an entry
        #: leaves the cache (eviction or invalidation).  Used by composite
        #: caches (e.g. the GMS) to keep side tables in sync.
        self.evict_listener = None

    # -- public protocol ----------------------------------------------------

    def access(self, target: Target, size: int) -> bool:
        """Simulate a request for ``target`` of ``size`` bytes.

        Returns True on hit.  On miss the file is inserted (subject to
        policy admission), evicting victims chosen by the subclass.
        """
        if size < 0:
            raise CacheError(f"negative file size for {target!r}: {size}")
        if target in self._sizes:
            self.stats.hits += 1
            self._on_hit(target)
            return True
        self.stats.misses += 1
        self._insert(target, size)
        return False

    def peek(self, target: Target) -> bool:
        """True if ``target`` is currently cached.  No side effects."""
        return target in self._sizes

    def size_of(self, target: Target) -> Optional[int]:
        """Cached size of ``target`` or None if absent."""
        return self._sizes.get(target)

    def invalidate(self, target: Target) -> bool:
        """Drop ``target`` if present (e.g. document updated).  True if dropped."""
        if target not in self._sizes:
            return False
        self._remove(target)
        return True

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        for target in list(self._sizes):
            self._remove(target)

    def age(self, fraction: float) -> int:
        """Evict (policy-ordered) entries until at least ``fraction`` of
        the currently used bytes are gone — a partially cold restart.
        Returns the number of entries evicted."""
        if not 0.0 <= fraction <= 1.0:
            raise CacheError(f"age fraction must be in [0, 1], got {fraction}")
        keep_bytes = int(self.used_bytes * (1.0 - fraction))
        evicted = 0
        while self.used_bytes > keep_bytes and self._sizes:
            self._evict_one()
            evicted += 1
        return evicted

    def __contains__(self, target: Target) -> bool:
        return target in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __iter__(self) -> Iterator[Target]:
        return iter(self._sizes)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    # -- subclass hooks -----------------------------------------------------

    def _admits(self, target: Target, size: int) -> bool:
        """Policy admission filter; default admits everything that can fit."""
        return True

    @abc.abstractmethod
    def _on_hit(self, target: Target) -> None:
        """Refresh replacement metadata after a hit."""

    @abc.abstractmethod
    def _on_insert(self, target: Target, size: int) -> None:
        """Record replacement metadata for a newly inserted entry."""

    @abc.abstractmethod
    def _select_victim(self) -> Target:
        """Choose the entry to evict next (cache is guaranteed non-empty)."""

    @abc.abstractmethod
    def _on_remove(self, target: Target) -> None:
        """Discard replacement metadata for an entry being removed."""

    # -- shared mechanics ----------------------------------------------------

    def _insert(self, target: Target, size: int) -> None:
        if size > self.capacity_bytes or not self._admits(target, size):
            self.stats.rejected += 1
            return
        while self.used_bytes + size > self.capacity_bytes:
            self._evict_one()
        self._sizes[target] = size
        self.used_bytes += size
        self.stats.insertions += 1
        self._on_insert(target, size)

    def _evict_one(self) -> None:
        victim = self._select_victim()
        self.stats.evictions += 1
        self.stats.bytes_evicted += self._sizes[victim]
        self._remove(victim)

    def _remove(self, target: Target) -> None:
        size = self._sizes.pop(target)
        self.used_bytes -= size
        self._on_remove(target)
        if self.evict_listener is not None:
            self.evict_listener(target, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name or ''} "
            f"{self.used_bytes}/{self.capacity_bytes}B files={len(self)}>"
        )


class PriorityHeapCache(Cache):
    """A cache that evicts the file with the least ``(priority, stamp)``.

    ``_priority[target]`` is what the policy orders by (a GDS credit, an
    LFU frequency); the stamp is the change counter ``_seq`` when it was
    last set, so equal priorities leave in the order they were set.  The
    heap holds one ``(priority, stamp, target)`` per cached file.  A hit
    writes ``_priority`` and ``_stamp`` and touches no heap: both only
    rise, so a heap entry is a lower bound on its file's live key, and
    once :meth:`_live_top` has re-keyed the stale tops it meets, the top
    is the true minimum.
    """

    def __init__(self, capacity_bytes: int, name: str = "") -> None:
        super().__init__(capacity_bytes, name=name)
        self._priority: Dict[Target, Any] = {}
        self._stamp: Dict[Target, int] = {}  # files a hit has re-prioritized
        self._heap: List[Tuple[Any, int, Target]] = []
        self._seq = 0

    def _set_priority(self, target: Target, priority: Any) -> None:
        """A cached file's priority rose; its heap entry goes stale."""
        self._seq += 1
        self._priority[target] = priority
        self._stamp[target] = self._seq

    def _push(self, target: Target, priority: Any) -> None:
        """A file was inserted: its one heap entry (which has its stamp)."""
        self._seq += 1
        self._priority[target] = priority
        heapq.heappush(self._heap, (priority, self._seq, target))

    def _live_top(self) -> Tuple[Any, int, Target]:
        """The heap entry of the next victim."""
        heap = self._heap
        priority = self._priority
        while heap:
            top = heap[0]
            target = top[2]
            live = priority[target]
            if live == top[0]:
                return top
            heapq.heapreplace(heap, (live, self._stamp[target], target))
        raise CacheError("victim requested from an empty cache")  # pragma: no cover

    def _select_victim(self) -> Target:
        return self._live_top()[2]

    def _on_remove(self, target: Target) -> None:
        del self._priority[target]
        self._stamp.pop(target, None)
        heap = self._heap
        if not heap:
            return  # clear() has emptied it
        if heap[0][2] == target:
            heapq.heappop(heap)  # the victim just selected
        else:
            heap[:] = [entry for entry in heap if entry[2] != target]
            heapq.heapify(heap)

    def clear(self) -> None:
        """Drop every entry, the heap in one go (statistics are preserved)."""
        self._heap.clear()
        super().clear()
