"""Policy interface shared by the simulator and the prototype front-end.

Every request-distribution strategy in the paper runs at the front-end and
sees exactly two kinds of information (Section 2.1):

* the *content* of the request — the target token and its size — available
  because the front-end accepts the connection before handing it off; and
* per-back-end *load*, estimated with no back-end communication as the
  number of active (handed-off, not yet completed) connections.

:class:`Policy` encodes that contract.  The owning front-end calls
:meth:`Policy.choose` to pick a back-end for a request, then
:meth:`Policy.on_dispatch` / :meth:`Policy.on_complete` as the connection
is handed off and finishes; the base class maintains the active-connection
load vector so concrete strategies only implement decision logic.

The base class also owns the paper's admission rule: the front-end limits
the number of connections admitted cluster-wide to

    S = (n - 1) * T_high + T_low - 1

so that no node can sit idle (< T_low) while every other node is saturated
(>= T_high), yet enough connections are admitted to keep all n nodes busy.
"""

from __future__ import annotations

import abc
from typing import Any, Hashable, List

__all__ = [
    "Policy",
    "PolicyError",
    "DEFAULT_T_LOW",
    "DEFAULT_T_HIGH",
    "PERSISTENT_POLICIES",
    "admission_limit",
]

#: Paper Section 2.4: "settings of T_low = 25 and T_high = 65 active
#: connections give good performance across all workloads we tested".
DEFAULT_T_LOW = 25
DEFAULT_T_HIGH = 65

#: How a persistent connection's later requests are distributed (paper
#: Section 5): ``sticky`` (the first request's back-end serves them all)
#: or ``rehandoff`` (the policy runs per request and the connection
#: moves when it names another back-end).
PERSISTENT_POLICIES = ("sticky", "rehandoff")


class PolicyError(RuntimeError):
    """Raised on invalid policy configuration or bookkeeping violations."""


def admission_limit(num_nodes: int, t_low: int = DEFAULT_T_LOW, t_high: int = DEFAULT_T_HIGH) -> int:
    """The paper's cluster-wide connection limit S = (n-1)*T_high + T_low - 1."""
    if num_nodes < 1:
        raise PolicyError(f"need at least one node, got {num_nodes}")
    return (num_nodes - 1) * t_high + t_low - 1


def _positive_int(name: str, value: Any) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) >= 1: a count that
    reached a policy as ``2.5`` or ``True`` is a spec error, not a
    number to round."""
    if type(value) is not int or value < 1:
        raise PolicyError(f"{name} must be an integer >= 1, got {value!r}")
    return value


class Policy(abc.ABC):
    """Base class for front-end request-distribution strategies.

    Parameters
    ----------
    num_nodes:
        Number of back-end nodes; ids are ``0..num_nodes-1``.
    t_low / t_high:
        The load thresholds of Section 2.4.  They parameterize both the
        LARD migration tests and the shared admission limit, so every
        strategy is compared under identical admission control (as in the
        paper's simulations).
    """

    #: Registry name, overridden by subclasses (e.g. ``"lard/r"``).
    name: str = "policy"

    def __init__(
        self,
        num_nodes: int,
        t_low: int = DEFAULT_T_LOW,
        t_high: int = DEFAULT_T_HIGH,
    ) -> None:
        if num_nodes < 1:
            raise PolicyError(f"need at least one node, got {num_nodes}")
        if not 0 < t_low < t_high:
            raise PolicyError(f"need 0 < t_low < t_high, got {t_low}, {t_high}")
        self.num_nodes = num_nodes
        self.t_low = t_low
        self.t_high = t_high
        self.loads: List[int] = [0] * num_nodes
        self._alive: List[bool] = [True] * num_nodes
        #: Bumped on every failure/join; lets strategies cache
        #: membership-derived state and revalidate it in O(1).
        self.membership_epoch = 0
        self._dead_count = 0
        self.dispatches = 0
        self.completions = 0
        #: Lower bound on the least load of any alive node, so "who is
        #: least loaded" never rescans the cluster.  Loads move by one:
        #: :meth:`on_complete` lowers the bound with one compare,
        #: dispatches cost nothing, and :meth:`least_loaded_node` raises
        #: it back to the true minimum when a decision needs it.
        self._min_load = 0
        #: Scan cursor beside the bound: no alive node with an id below
        #: it sits at ``_min_load``, so a run of first-assignments with
        #: no completion in between resumes the scan where the last one
        #: stopped instead of at id 0.  A completion that reaches the
        #: bound at a lower id pulls it back; a join resets it.
        self._min_cursor = 0
        #: Connections that died with their node (load zeroed by
        #: :meth:`on_node_failure` without a completion).
        self._shed_load = 0

    # -- front-end contract ---------------------------------------------------

    @abc.abstractmethod
    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """Pick the back-end node for a request.

        ``now`` is the front-end's clock (simulated or wall time); only
        time-dependent strategies (LARD/R's replication decay) use it.
        """

    def on_dispatch(self, node: int, target: Hashable = None, size: int = 0) -> None:
        """A connection was handed off to ``node``."""
        self._check_alive(node)
        self.loads[node] += 1
        self.dispatches += 1

    def on_complete(self, node: int, target: Hashable = None, size: int = 0) -> None:
        """A previously dispatched connection finished at ``node``."""
        loads = self.loads
        load = loads[node] - 1
        if load < 0:
            raise PolicyError(f"completion on node {node} with zero load")
        loads[node] = load
        low = self._min_load
        if load <= low:
            if load < low:
                # Every other alive node is above the new bound.
                self._min_load = load
                self._min_cursor = node
            elif node < self._min_cursor:
                self._min_cursor = node
        self.completions += 1

    @property
    def admission_limit(self) -> int:
        """Cluster-wide cap on simultaneously admitted connections (S)."""
        return admission_limit(self.alive_count, self.t_low, self.t_high)

    @property
    def total_load(self) -> int:
        """Active connections cluster-wide, ``sum(loads)`` without the scan."""
        return self.dispatches - self.completions - self._shed_load

    # -- membership / failure handling (paper Section 2.6) ---------------------

    @property
    def alive_nodes(self) -> List[int]:
        return [n for n in range(self.num_nodes) if self._alive[n]]

    @property
    def alive_count(self) -> int:
        return self.num_nodes - self._dead_count

    def is_alive(self, node: int) -> bool:
        """True if ``node`` is currently part of the cluster."""
        return self._alive[node]

    def on_node_failure(self, node: int) -> None:
        """Remove a back-end.  Strategies drop any state naming the node:

        "The front end simply re-assigns targets assigned to the failed
        back end as if they had not been assigned before."
        """
        self._check_alive(node)
        if self.alive_count == 1:
            raise PolicyError(f"node {node} is the last alive back-end")
        self._alive[node] = False
        self._shed_load += self.loads[node]
        self.loads[node] = 0
        self._dead_count += 1
        self.membership_epoch += 1

    def on_node_join(self, node: int) -> None:
        """(Re)introduce a back-end with an empty cache and zero load."""
        if not 0 <= node < self.num_nodes:
            raise PolicyError(f"node id {node} out of range")
        if self._alive[node]:
            raise PolicyError(f"node {node} is already alive")
        self._alive[node] = True
        self.loads[node] = 0
        self._min_load = 0
        self._min_cursor = 0
        self._dead_count -= 1
        self.membership_epoch += 1

    # -- helpers for subclasses -------------------------------------------------

    def _check_alive(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise PolicyError(f"node id {node} out of range")
        if not self._alive[node]:
            raise PolicyError(f"node {node} is not alive")

    def least_loaded_node(self, start: int = 0) -> int:
        """Alive node with the fewest active connections.

        Ties go to the first such node in ring order from ``start`` — the
        lowest id by default; :class:`~repro.core.wrr.WeightedRoundRobin`
        passes its rotating pointer.
        """
        loads = self.loads
        alive = self._alive
        stop = self.num_nodes
        # Walk up from the ``_min_load`` bound with ``list.index`` (C
        # speed, stops at the first hit) and leave the bound at the true
        # minimum.  A level found empty stays passed until a completion
        # or a join lowers the bound again, so the walk is amortized
        # against those; within a level the ids below ``_min_cursor``
        # stay passed the same way.
        low = self._min_load
        if loads[start] == low and alive[start]:
            # The rotation's common case: the node it starts at is one
            # of the least loaded.
            return start
        cursor = self._min_cursor
        while True:
            # Ring order: [start, n), then wrap to [0, start) — minus
            # the ids below the cursor, none of which sits at ``low``.
            lo = start if start > cursor else cursor
            hi = stop
            while True:
                try:
                    node = loads.index(low, lo, hi)
                    # Dead nodes sit at load 0, so they are only ever
                    # met (and skipped) while the bound is 0.
                    while not alive[node]:
                        node = loads.index(low, node + 1, hi)
                except ValueError:
                    if lo == cursor:
                        break
                    lo, hi = cursor, start
                else:
                    self._min_load = low
                    # A hit in the segment that begins at the cursor is
                    # the lowest id at the bound; one in [start, n)
                    # says nothing about [cursor, start).
                    if lo == cursor:
                        self._min_cursor = node
                    return node
            # No load can exceed the dispatch count, so a bound that
            # does was not lowered by a completion (bookkeeping
            # bypassed), or nothing is alive: fail instead of spinning.
            if low > self.dispatches:
                raise PolicyError(
                    f"no alive back-end node at or above the least-load bound {low}"
                )
            low += 1
            self._min_cursor = cursor = 0

    def has_node_below(self, threshold: int) -> bool:
        """True if any alive node's load is strictly below ``threshold``."""
        # The bound alone answers the saturated case (nothing alive is
        # below it); otherwise the least-loaded node decides.
        return (
            self._min_load < threshold
            and self.loads[self.least_loaded_node()] < threshold
        )

    def describe(self) -> str:
        """Short human-readable configuration summary."""
        return f"{self.name}(n={self.num_nodes}, T_low={self.t_low}, T_high={self.t_high})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()} loads={self.loads}>"
