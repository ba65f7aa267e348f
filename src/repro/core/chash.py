"""Consistent hashing with bounded loads — ``chash``.

Plain consistent hashing gives LARD-like locality (each target always
lands on the same node) but, like LB, ignores load: a hot partition
overloads its owner.  Mirrokni, Thorup and Zadimoghaddam's *consistent
hashing with bounded loads* (arXiv:1608.01350) caps every node at a
small factor ``c`` above the average load; a request whose hash-owner is
full walks clockwise around the ring to the first node with spare
capacity.  The guarantees:

* no node ever carries more than ``ceil(c * (m + 1) / n)`` active
  connections (``m`` = total in-flight connections, ``n`` = alive
  nodes), and
* membership or load changes move only ``O(1/c-ish)`` of the keys —
  unlike LB's modulo partitioning, where one failure can reshuffle
  everything but here only the failed node's arc moves.

Locality degrades gracefully: while a node stays under its bound every
request for a target hits the same cache, and overflow spills to the
ring successor (always the *same* successor for a given occupancy
pattern, so spill locality is better than random).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Hashable, List, Tuple

from .base import Policy, PolicyError, _positive_int
from .locality import stable_hash

__all__ = ["ConsistentHashBounded", "DEFAULT_BOUND_FACTOR", "DEFAULT_VNODES"]

#: Default load-bound factor c.  1.25 is the headline setting of
#: arXiv:1608.01350 (Google's Maglev-era deployments): at most 25% above
#: the mean, with modest spill rates.
DEFAULT_BOUND_FACTOR = 1.25

#: Virtual nodes per back-end.  64 keeps arc-length variance low
#: while a 1024-node ring (65k vnodes) still builds in milliseconds and
#: binary-searches in ~16 probes.
DEFAULT_VNODES = 64


class ConsistentHashBounded(Policy):
    """Consistent hashing with bounded loads (arXiv:1608.01350).

    Parameters
    ----------
    bound_factor:
        ``c`` > 1; each alive node accepts at most
        ``ceil(c * (total_load + 1) / n)`` active connections, ``n`` the
        number of alive nodes.
    vnodes:
        Ring points per node.
    """

    name = "chash"

    def __init__(
        self,
        num_nodes: int,
        bound_factor: float = DEFAULT_BOUND_FACTOR,
        vnodes: int = DEFAULT_VNODES,
        **kwargs,
    ) -> None:
        super().__init__(num_nodes, **kwargs)
        if bound_factor <= 1.0:
            raise PolicyError(f"bound_factor must be > 1, got {bound_factor}")
        self.bound_factor = bound_factor
        self.vnodes = _positive_int("vnodes", vnodes)
        #: Requests that overflowed their hash-owner and walked the ring.
        self.spills = 0
        self._ring_epoch = -1
        self._ring_hashes: List[int] = []
        self._ring_nodes: List[int] = []
        #: ``1 / alive_count``: every alive node's fraction of the budget.
        self._share = 1.0
        #: target -> index of its hash-owner's vnode, for this ring.
        self._starts: Dict[Hashable, int] = {}
        self._rebuild_ring()

    # -- ring maintenance -------------------------------------------------------

    def _rebuild_ring(self) -> None:
        """(Re)build the vnode ring over the currently alive nodes."""
        points: List[Tuple[int, int]] = []
        for node in self.alive_nodes:
            for replica in range(self.vnodes):
                points.append((stable_hash((node, replica), salt=0x5EED), node))
        points.sort()
        self._ring_hashes = [h for h, _ in points]
        self._ring_nodes = [n for _, n in points]
        self._share = 1.0 / self.alive_count
        self._starts = {}
        self._ring_epoch = self.membership_epoch

    # -- decision logic ---------------------------------------------------------

    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """Hash-owner if under its bound, else first ring successor with room."""
        if self._ring_epoch != self.membership_epoch:
            self._rebuild_ring()
        ring_nodes = self._ring_nodes
        ring_len = len(ring_nodes)
        start = self._starts.get(target)
        if start is None:
            start = self._starts[target] = (
                bisect_right(self._ring_hashes, stable_hash(target, salt=0)) % ring_len
            )
        loads = self.loads
        # ``total_load`` without the property's frame.
        budget = self.bound_factor * (
            self.dispatches - self.completions - self._shed_load + 1
        )
        # Every alive node has the same share, hence the same bound.
        bound = math.ceil(budget * self._share)
        owner = ring_nodes[start]
        if loads[owner] < bound:
            return owner
        # Walk clockwise.  Capacities sum to >= ceil(c * (m + 1)) > m, so
        # some alive node is under its bound and the walk terminates
        # within one lap; every alive node owns at least one vnode.
        for step in range(1, ring_len):
            node = ring_nodes[(start + step) % ring_len]
            if node == owner:
                continue
            if loads[node] < bound:
                self.spills += 1
                return node
        # All nodes at their bound (only possible transiently when the
        # admission limit exceeds sum-of-bounds): fall back to least
        # loaded so the request is still served.
        self.spills += 1
        return self.least_loaded_node()

    def describe(self) -> str:
        """Short human-readable configuration summary."""
        return (
            f"{self.name}(n={self.num_nodes}, c={self.bound_factor}, "
            f"vnodes={self.vnodes})"
        )
