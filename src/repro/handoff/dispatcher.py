"""Thread-safe dispatcher: a :class:`repro.core.Policy` behind a lock.

The paper's dispatcher is "a software module that implements the
distribution policy (e.g. LARD)" running at the front-end.  This class
makes any policy from :mod:`repro.core` usable from the prototype's
threads, and implements the front-end's admission control: a cluster-wide
budget of S slots (the same S as the simulator), acquired per accepted
connection and released when the connection completes.

It also owns the live cluster's membership bookkeeping (paper Section
2.6).  :meth:`fail_node` removes a back-end exactly the way the
simulator's ``FrontEnd.fail_node`` does — the policy drops every mapping
naming the node "as if they had not been assigned before" — while
*orphan credits* keep the books consistent for connections that were
in flight at the moment of failure: their eventual completions (or
failovers) consume a credit instead of decrementing a live node's load,
and always return their admission slot.  The admission budget itself is
a condition variable rather than a semaphore so it can shrink and grow
with cluster membership, matching S = (n_alive - 1) * T_high + T_low - 1.
"""

from __future__ import annotations

import threading
import time
from typing import Hashable, List, Optional

from ..core.base import Policy, PolicyError

__all__ = ["Dispatcher"]


class Dispatcher:
    """Serializes policy decisions and tracks cluster-wide admission."""

    #: ``_slot_freed`` is a Condition built *on* ``_lock``, so holding
    #: either name holds the same mutex; every counter and the policy's
    #: bookkeeping are mutated only under it.
    __guarded_by__ = {
        "_active": ("_lock", "_slot_freed"),
        "admitted": ("_lock", "_slot_freed"),
        "completed": ("_lock", "_slot_freed"),
        "transfers": ("_lock", "_slot_freed"),
        "orphaned": ("_lock", "_slot_freed"),
        "failovers": ("_lock", "_slot_freed"),
        "aborted": ("_lock", "_slot_freed"),
        "node_failures": ("_lock", "_slot_freed"),
        "node_joins": ("_lock", "_slot_freed"),
        "max_in_flight": ("_lock", "_slot_freed"),
        "_orphan_credits": ("_lock", "_slot_freed"),
    }
    #: ``_release_load`` documents its contract in its docstring: the
    #: caller already holds the lock.
    __locked_helpers__ = ("_release_load",)

    def __init__(self, policy: Policy, max_in_flight: Optional[int] = None) -> None:
        self.policy = policy
        self._auto_limit = max_in_flight is None
        self.max_in_flight = (
            max_in_flight if max_in_flight is not None else policy.admission_limit
        )
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._active = 0
        self.admitted = 0
        self.completed = 0
        self.transfers = 0
        #: Connections that died with their back-end (paper Section 2.6);
        #: mirrors the simulator's ``orphaned_connections``.
        self.orphaned = 0
        #: Connections moved to a surviving back-end after their node failed.
        self.failovers = 0
        #: Admitted connections released without ever completing (503 paths).
        self.aborted = 0
        self.node_failures = 0
        self.node_joins = 0
        # Per-node count of connections that were in flight when the node
        # failed; their completions consume a credit instead of touching
        # the policy's (already zeroed) load accounting.
        self._orphan_credits = [0] * policy.num_nodes

    # -- admission -------------------------------------------------------------

    def admit(
        self, target: Hashable, size: int = 0, timeout: Optional[float] = None
    ) -> Optional[int]:
        """Admit one connection and pick its back-end.

        Blocks until an admission slot is free (or ``timeout`` expires, in
        which case None is returned and nothing is held).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._slot_freed:
            while self._active >= self.max_in_flight:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._slot_freed.wait(remaining)
            self._active += 1
            node = self.policy.choose(target, size, now=time.monotonic())
            self.policy.on_dispatch(node, target, size)
            self.admitted += 1
        return node

    def reroute(self, current_node: int, target: Hashable, size: int = 0) -> int:
        """Pick the back-end for the *next* request on a persistent connection.

        If the policy picks a different node, the connection's load
        accounting moves with it (one hand-off protocol re-invocation in
        the real system).  No admission slot changes hands — the
        connection is already admitted.
        """
        with self._lock:
            node = self.policy.choose(target, size, now=time.monotonic())
            if node != current_node:
                self._release_load(current_node, target, size)
                self.policy.on_dispatch(node, target, size)
                self.transfers += 1
        return node

    def reassign(self, failed_node: int, target: Hashable = None, size: int = 0) -> int:
        """Move an admitted connection off ``failed_node`` after a hand-off
        failure: release its load there (or consume an orphan credit), then
        re-run the policy over the surviving nodes.  The admission slot is
        kept — the connection is still the front-end's responsibility.

        Raises :class:`~repro.core.base.PolicyError` when no node can take
        the connection (the caller should give up and :meth:`abort`).
        """
        with self._lock:
            self._release_load(failed_node, target, size, count_orphan=False)
            try:
                node = self.policy.choose(target, size, now=time.monotonic())
                self.policy.on_dispatch(node, target, size)
            except PolicyError:
                # Undo is impossible (the old node may be dead); park the
                # connection as a fresh orphan credit so abort() balances.
                self._orphan_credits[failed_node] += 1
                raise
            self.failovers += 1
        return node

    def complete(self, node: int, target: Hashable = None, size: int = 0) -> None:
        """A connection finished at ``node``: release its load and slot."""
        with self._slot_freed:
            self._release_load(node, target, size)
            self.completed += 1
            self._active -= 1
            self._slot_freed.notify()

    def abort(self, node: int, target: Hashable = None, size: int = 0) -> None:
        """Give up on an admitted connection (all retries exhausted):
        release its load accounting *and* its admission slot."""
        with self._slot_freed:
            self._release_load(node, target, size, count_orphan=False)
            self.aborted += 1
            self._active -= 1
            self._slot_freed.notify()

    def _release_load(
        self, node: int, target: Hashable, size: int, count_orphan: bool = True
    ) -> None:
        """Release one connection's load at ``node`` (lock held).

        Consumes an orphan credit when the connection predates a failure
        of ``node``; never raises on a dead node, because completions from
        already-handed-off connections race with failure detection.
        """
        if self._orphan_credits[node] > 0:
            self._orphan_credits[node] -= 1
            if count_orphan:
                self.orphaned += 1
            return
        if not self.policy.is_alive(node):
            if count_orphan:
                self.orphaned += 1
            return
        self.policy.on_complete(node, target, size)

    # -- membership (paper Section 2.6) ----------------------------------------

    def fail_node(self, node: int) -> bool:
        """Remove a back-end from the policy's node set.

        Idempotent: returns True if the node was alive and is now marked
        failed.  In-flight connections at the node become orphan credits.
        Raises :class:`PolicyError` if ``node`` is the last one alive —
        an empty cluster cannot be represented, so the caller should keep
        retrying/503ing instead.
        """
        with self._slot_freed:
            if not self.policy.is_alive(node):
                return False
            stranded = self.policy.loads[node]
            # Refuses the last alive node (PolicyError) before touching state.
            self.policy.on_node_failure(node)
            self._orphan_credits[node] += stranded
            self.node_failures += 1
            if self._auto_limit:
                self.max_in_flight = self.policy.admission_limit
            self._slot_freed.notify_all()
            return True

    def join_node(self, node: int) -> bool:
        """(Re)introduce a back-end with zero load; idempotent."""
        with self._slot_freed:
            if self.policy.is_alive(node):
                return False
            self.policy.on_node_join(node)
            self.node_joins += 1
            if self._auto_limit:
                self.max_in_flight = self.policy.admission_limit
            self._slot_freed.notify_all()
            return True

    def is_alive(self, node: int) -> bool:
        """Whether ``node`` is currently in the policy's alive set."""
        with self._lock:
            return self.policy.is_alive(node)

    @property
    def alive_nodes(self) -> List[int]:
        with self._lock:
            return self.policy.alive_nodes

    # -- introspection ---------------------------------------------------------

    @property
    def loads(self) -> List[int]:
        with self._lock:
            return list(self.policy.loads)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._active
