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

Heterogeneous capacity ``weights`` scale both the number of virtual
nodes a back-end places on the ring (more arc, proportionally more
keys) and its load bound.
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

#: Virtual nodes per unit weight.  64 keeps arc-length variance low
#: while a 1024-node ring (65k vnodes) still builds in milliseconds and
#: binary-searches in ~16 probes.
DEFAULT_VNODES = 64


class ConsistentHashBounded(Policy):
    """Consistent hashing with bounded loads (arXiv:1608.01350).

    Parameters
    ----------
    bound_factor:
        ``c`` > 1; each alive node accepts at most
        ``ceil(c * (total_load + 1) * share)`` active connections, where
        ``share`` is its weight fraction (``1/n`` when homogeneous).
    vnodes:
        Ring points per unit node weight.
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
        self._shares: List[float] = []
        #: target -> index of its hash-owner's vnode, for this ring.
        self._starts: Dict[Hashable, int] = {}
        self._rebuild_ring()

    # -- ring maintenance -------------------------------------------------------

    def _rebuild_ring(self) -> None:
        """(Re)build the vnode ring over the currently alive nodes."""
        points: List[Tuple[int, int]] = []
        weights = self.weights
        total_weight = 0.0
        for node in range(self.num_nodes):
            if not self._alive[node]:
                continue
            weight = 1.0 if weights is None else weights[node]
            total_weight += weight
            count = max(1, round(self.vnodes * weight))
            for replica in range(count):
                points.append((stable_hash((node, replica), salt=0x5EED), node))
        points.sort()
        self._ring_hashes = [h for h, _ in points]
        self._ring_nodes = [n for _, n in points]
        shares = [0.0] * self.num_nodes
        for node in range(self.num_nodes):
            if self._alive[node]:
                weight = 1.0 if weights is None else weights[node]
                shares[node] = weight / total_weight
        self._shares = shares
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
        shares = self._shares
        # ``total_load`` without the property's frame.
        budget = self.bound_factor * (
            self.dispatches - self.completions - self._shed_load + 1
        )
        owner = ring_nodes[start]
        bound = math.ceil(budget * shares[owner])
        if loads[owner] < bound:
            return owner
        # Walk clockwise.  Capacities sum to >= ceil(c * (m + 1)) > m, so
        # some alive node is under its bound and the walk terminates
        # within one lap; every alive node owns at least one vnode.
        # Without weights every alive node has the owner's share, hence
        # its bound.
        weighted = self.weights is not None
        for step in range(1, ring_len):
            node = ring_nodes[(start + step) % ring_len]
            if node == owner:
                continue
            if weighted:
                bound = math.ceil(budget * shares[node])
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
