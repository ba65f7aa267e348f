"""Weighted round-robin — the state-of-the-art baseline (paper Section 2.2).

"In state-of-the-art cluster servers, the front end uses weighted
round-robin request distribution.  The incoming requests are distributed
in round-robin fashion, weighted by some measure of the load on the
different back ends ... the number of open connections in each back end
may be used as an estimate of the load."

This implementation rotates a round-robin pointer and, at each request,
takes the first alive node with the lowest active-connection count in
ring order from the pointer.  Starting at the rotating pointer is what
makes equal-load nodes receive requests in round-robin order (plain
"least loaded, lowest id" would starve high-numbered nodes during
warm-up and under uniform load).
"""

from __future__ import annotations

from typing import Hashable

from .base import Policy

__all__ = ["WeightedRoundRobin"]


class WeightedRoundRobin(Policy):
    """Round-robin weighted by active connection count."""

    name = "wrr"

    def __init__(self, num_nodes: int, **kwargs) -> None:
        super().__init__(num_nodes, **kwargs)
        self._pointer = 0

    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """Pick the least-loaded node, breaking ties round-robin."""
        # Rotation order with the first minimum winning ties is exactly
        # "first least-loaded node in ring order from the pointer".
        best = self.least_loaded_node(self._pointer)
        self._pointer = (best + 1) % self.num_nodes
        return best
