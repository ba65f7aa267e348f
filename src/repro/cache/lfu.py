"""Least-frequently-used replacement (LRU tie-break).

Not evaluated in the paper itself; included as an additional comparator for
the replacement-policy ablation bench (DESIGN.md Section 5) because LFU is
the other classic point in the web-caching design space: it keeps hot
documents regardless of recency, so it behaves well on Zipf-like traffic
but adapts slowly when the working set shifts.
"""

from __future__ import annotations

from typing import Hashable

from .base import PriorityHeapCache

__all__ = ["LFUCache"]


class LFUCache(PriorityHeapCache):
    """LFU with least-recent tie-break: the priority is the access
    count and every access restamps, so equal-frequency entries evict in
    least-recently-touched order.
    """

    def frequency_of(self, target: Hashable) -> int:
        """Access count of a cached target (0 if absent)."""
        return self._priority.get(target, 0)

    def _on_hit(self, target: Hashable) -> None:
        self._set_priority(target, self._priority[target] + 1)

    def _on_insert(self, target: Hashable, size: int) -> None:
        self._push(target, 1)
