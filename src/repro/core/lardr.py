"""LARD with replication — LARD/R (paper Figure 3).

Basic LARD serves each target from exactly one node, so a single target
hot enough to overload its node cannot be helped.  LARD/R maintains a
``target -> server set`` mapping instead:

    while true:
        fetch next request r
        if serverSet[r.target] = empty then
            n <- serverSet[r.target] <- {least loaded node}
        else
            n <- {least loaded node in serverSet[r.target]}
            m <- {most loaded node in serverSet[r.target]}
            if (n.load > T_high && exists node with load < T_low) ||
               n.load >= 2 * T_high then
                p <- {least loaded node}
                add p to serverSet[r.target]
                n <- p
            if |serverSet[r.target]| > 1 &&
               time - serverSet[r.target].lastMod > K then
                remove m from serverSet[r.target]
        send r to n
        if serverSet[r.target] changed in this iteration then
            serverSet[r.target].lastMod <- time

Growth happens under the same imbalance tests as basic LARD's migration;
shrinkage removes the most loaded replica once the set has been stable for
K seconds (paper: K = 20 s), "so the degree of replication for a target
does not remain unnecessarily high once it is requested less often".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Set

from .base import Policy, PolicyError

__all__ = ["LARDReplication", "DEFAULT_K_SECONDS"]

#: Paper Section 2.5: "In our experiments we used values of K = 20 secs."
DEFAULT_K_SECONDS = 20.0


@dataclass(slots=True)
class _ServerSet:
    """Replica set plus the time it last changed.

    ``epoch`` records the cluster-membership epoch the set was last
    validated against, so the per-request alive filter only runs after an
    actual failure/join instead of on every request.
    """

    nodes: Set[int] = field(default_factory=set)
    last_mod: float = 0.0
    epoch: int = 0


class LARDReplication(Policy):
    """LARD/R: per-target replica sets grown under load, decayed over time.

    Parameters
    ----------
    k_seconds:
        Replication decay constant K; a set unchanged for longer than this
        sheds its most loaded member.
    max_mappings:
        Optional LRU bound on the mapping table (Section 2.6).
    """

    name = "lard/r"

    def __init__(
        self,
        num_nodes: int,
        k_seconds: float = DEFAULT_K_SECONDS,
        max_mappings: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(num_nodes, **kwargs)
        if not k_seconds > 0:  # also NaN, which no elapsed time exceeds
            raise PolicyError(f"k_seconds must be positive, got {k_seconds}")
        if max_mappings is not None and max_mappings < 1:
            raise PolicyError(f"max_mappings must be >= 1, got {max_mappings}")
        self.k_seconds = k_seconds
        self.max_mappings = max_mappings
        self._server_sets: "OrderedDict[Hashable, _ServerSet]" = OrderedDict()
        self.assignments = 0
        self.replications = 0
        self.shrinks = 0
        self.mapping_evictions = 0

    # -- decision logic (Figure 3) ---------------------------------------------

    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """The Figure 3 decision: serve from the replica set, growing it under imbalance and shrinking it after K quiet seconds."""
        epoch = self.membership_epoch
        entry = self._server_sets.get(target)
        if entry is not None and entry.epoch != epoch:
            entry.nodes = {n for n in entry.nodes if self._alive[n]}
            entry.epoch = epoch
            if not entry.nodes:
                entry = None
        if entry is None:
            node = self.least_loaded_node()
            entry = _ServerSet(nodes={node}, last_mod=now, epoch=epoch)
            self._store(target, entry)
            self.assignments += 1
            return node
        if self.max_mappings is not None:
            # LRU touch.  Recency order is only ever consumed by the
            # bounded table's eviction in _store, so the unbounded case
            # skips the (per-request) OrderedDict relink entirely.
            self._server_sets.move_to_end(target)
        loads = self.loads
        nodes = entry.nodes
        if len(nodes) == 1:
            # Dominant case: an unreplicated target needs no min/max scan.
            node = most = next(iter(nodes))
        else:
            # Tie-breaks must diverge: the least-loaded pick prefers the
            # lowest id and the most-loaded pick the *highest*, so under
            # uniform load the shrink below discards a replica distinct
            # from the one just selected to serve.  (A shared lowest-id
            # tie-break made the K-seconds shrink discard the serving
            # node and silently re-pick.)
            node = min(nodes, key=lambda n: (loads[n], n))
            most = max(nodes, key=lambda n: (loads[n], n))
        changed = False
        load = loads[node]
        t_high = self.t_high
        if (load > t_high and self.has_node_below(self.t_low)) or (
            load >= 2 * t_high
        ):
            p = self.least_loaded_node()
            if p not in entry.nodes:
                entry.nodes.add(p)
                self.replications += 1
                changed = True
            node = p
        if len(entry.nodes) > 1 and (now - entry.last_mod) > self.k_seconds:
            entry.nodes.discard(most)
            self.shrinks += 1
            changed = True
            if node == most:
                # Figure 3 dispatches *after* the shrink, so the request
                # must go to a surviving replica.  Reachable only when the
                # imbalance branch re-pointed ``node`` at the replica the
                # shrink then removed (the min/max tie-breaks above are
                # distinct for |set| > 1).
                node = min(entry.nodes, key=lambda n: (loads[n], n))
        if changed:
            entry.last_mod = now
        return node

    # -- mapping table -----------------------------------------------------------

    def _store(self, target: Hashable, entry: _ServerSet) -> None:
        self._server_sets[target] = entry
        self._server_sets.move_to_end(target)
        if self.max_mappings is not None and len(self._server_sets) > self.max_mappings:
            self._server_sets.popitem(last=False)
            self.mapping_evictions += 1

    def server_set(self, target: Hashable) -> Set[int]:
        """Current replica set for ``target`` (copy; empty if unmapped)."""
        entry = self._server_sets.get(target)
        return set(entry.nodes) if entry else set()

    def replication_degree(self, target: Hashable) -> int:
        """Current number of replicas serving ``target``."""
        return len(self.server_set(target))

    @property
    def mapping_count(self) -> int:
        return len(self._server_sets)

    def on_node_failure(self, node: int) -> None:
        """Strip the failed node from every replica set; empty sets are
        dropped so their targets re-assign from scratch."""
        super().on_node_failure(node)
        empty = []
        for target, entry in self._server_sets.items():
            entry.nodes.discard(node)
            if not entry.nodes:
                empty.append(target)
        for target in empty:
            del self._server_sets[target]
