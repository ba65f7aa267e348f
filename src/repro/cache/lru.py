"""Least-recently-used replacement, including the paper's web-server variant.

Section 3.1 of the paper: *"We have also performed simulations with LRU,
where files with a size of more than 500 KB are never cached"* — large-file
exclusion is the standard trick that keeps one huge download from wiping a
recency-managed cache.  ``max_cacheable_bytes`` implements that admission
filter; pass ``None`` for textbook LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

from .base import Cache

__all__ = ["LRUCache", "PAPER_LRU_MAX_FILE_BYTES"]

#: The paper's admission cutoff for its LRU variant (500 KB).
PAPER_LRU_MAX_FILE_BYTES = 500 * 1024


class LRUCache(Cache):
    """Classic LRU over whole files, with optional large-file exclusion."""

    def __init__(
        self,
        capacity_bytes: int,
        max_cacheable_bytes: Optional[int] = None,
        name: str = "",
    ) -> None:
        super().__init__(capacity_bytes, name=name)
        self.max_cacheable_bytes = max_cacheable_bytes
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    @classmethod
    def paper_variant(cls, capacity_bytes: int, name: str = "") -> "LRUCache":
        """The exact LRU configuration evaluated in the paper (>500 KB excluded)."""
        return cls(capacity_bytes, max_cacheable_bytes=PAPER_LRU_MAX_FILE_BYTES, name=name)

    def _admits(self, target: Hashable, size: int) -> bool:
        if self.max_cacheable_bytes is None:
            return True
        return size <= self.max_cacheable_bytes

    def _on_hit(self, target: Hashable) -> None:
        self._order.move_to_end(target)

    def _on_insert(self, target: Hashable, size: int) -> None:
        self._order[target] = None

    def _select_victim(self) -> Hashable:
        return next(iter(self._order))

    def _on_remove(self, target: Hashable) -> None:
        del self._order[target]
