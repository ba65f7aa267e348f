"""Runtime invariant sanitizer for the discrete-event simulator.

The static rules in :mod:`repro.lint` catch *constructs* that break
determinism; this module catches *states* that mean the simulation's
accounting has already gone wrong.  With the sanitizer enabled (set
``REPRO_SANITIZE=1``, pass ``sanitize=True`` to
:func:`repro.cluster.simulator.run_simulation`, or set
``ClusterConfig.sanitize``), the engine checks invariants as it
dispatches and raises :class:`SanitizerError` naming the violating event
the moment one fails — instead of the corruption surfacing thousands of
events later as a subtly wrong hit ratio.

Checked every event (cheap, O(1)):

* the simulated clock never moves backwards;
* request conservation at the front-end: requests admitted from the
  trace equal completions plus what in-flight connections can still be
  carrying, and ``0 <= in_flight <= max_in_flight`` (with a drain
  allowance when a node failure shrinks the admission limit under
  connections admitted before it, per paper Section 2.6);
* on fault-model runs (:mod:`repro.cluster.faults`), lost-request
  conservation: served goodput plus abandoned (lost) requests exactly
  tile the completion count, and no runtime counter goes negative.

Checked every ``deep_interval`` events and at end of run (O(cluster)):

* every resource satisfies ``0 <= busy <= capacity`` and no queue grew
  while servers sat free beyond transient dispatch;
* every cache satisfies ``used_bytes <= capacity_bytes`` with
  ``used_bytes`` equal to the sum of its tracked entry sizes;
* per-node outcome conservation: every served request was a cache hit,
  a cache miss, or a dynamic (CGI) request, so ``cache_hits +
  cache_misses + dynamic_requests >= requests_served`` with every
  counter non-negative (strict equality cannot be asserted mid-request:
  the outcome counters tick at the fetch decision, ``requests_served``
  only after teardown);
* policy load accounting is non-negative and its incremental summaries
  match a recount (``_min_load`` at or below the least alive load, no
  alive node below ``_min_cursor`` at that bound,
  ``total_load == sum(loads)``, ``alive_count == sum(_alive)``), the
  load tracker's underutilized flag of every alive node is on the side
  of its threshold that the policy's load is, and
  every node named by a LARD mapping or LARD/R server set is in the live
  membership — the paper's failure rule ("as if they had not been
  assigned before") says a dead node must never be routable.  The
  mapping walk is O(mappings) and vacuous while the sweep's own recount
  of ``_alive`` finds every node up, so it runs only when one is down.

The sanitizer is strictly read-only: it never touches accounting methods
with side effects (e.g. ``Resource.busy_time`` folds the running
integral), so a sanitized run produces *byte-identical* results to an
unsanitized one — a property the test suite asserts.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence

__all__ = ["SanitizerError", "InvariantSanitizer"]

#: Tolerance for the monotonic-clock check; event times are exact floats
#: copied from the heap, so any regression is a real corruption, but a
#: tiny slack keeps the check robust to future fused-arithmetic changes.
_TIME_EPS = 1e-12


class SanitizerError(AssertionError):
    """An engine invariant failed during a sanitized run.

    The message names the violating event: its simulated time, its
    ordinal position in the dispatch sequence, and the callback that had
    just run when the check failed.
    """


def _describe(callback: Optional[Callable[..., Any]]) -> str:
    if callback is None:
        return "end of run"
    name = getattr(callback, "__qualname__", None) or getattr(
        callback, "__name__", None
    )
    return name if name else repr(callback)


class InvariantSanitizer:
    """Per-event invariant checker installed into an :class:`Engine`.

    Watched objects are registered with the ``watch_*`` methods (all
    duck-typed, so the sanitizer has no import edge back into the
    cluster layer); the engine then calls the instance once per
    dispatched event via :meth:`after_event`.

    Parameters
    ----------
    deep_interval:
        How many events between full O(cluster) sweeps.  1 checks deep
        invariants on every event (slow, maximal precision — corruption
        tests use this); the default keeps sanitized runs cheap enough
        for CI smoke simulations.
    """

    def __init__(self, deep_interval: int = 256) -> None:
        if deep_interval < 1:
            raise ValueError(f"deep_interval must be >= 1, got {deep_interval}")
        self.deep_interval = deep_interval
        self.events_seen = 0
        self.deep_sweeps = 0
        self._last_time = 0.0
        # Admission-limit allowance: when a node failure shrinks the
        # front-end's max_in_flight (S is recomputed for the smaller
        # cluster), connections admitted under the old limit legitimately
        # drain above the new one (paper Section 2.6).  The allowance is
        # the limit in force when in_flight last fit under it, so only a
        # genuine over-admission trips the check.
        self._in_flight_cap = 0
        self._frontend: Optional[Any] = None
        self._policy: Optional[Any] = None
        self._resources: List[Any] = []
        self._caches: List[Any] = []
        self._nodes: List[Any] = []

    # -- registration ----------------------------------------------------------

    def watch_frontend(self, frontend: Any) -> None:
        """Track a :class:`repro.cluster.frontend.FrontEnd`'s conservation law."""
        self._frontend = frontend

    def watch_policy(self, policy: Any) -> None:
        """Track a :class:`repro.core.base.Policy`'s loads and membership."""
        self._policy = policy

    def watch_resource(self, resource: Any) -> None:
        """Track one :class:`repro.sim.resources.Resource`'s slot accounting."""
        self._resources.append(resource)

    def watch_cache(self, cache: Any) -> None:
        """Track one :class:`repro.cache.base.Cache`'s byte accounting."""
        if cache is not None:
            self._caches.append(cache)

    def watch_node(self, node: Any) -> None:
        """Track a simulated back-end node: its CPU, disks, cache, and
        request-outcome counters."""
        self._nodes.append(node)
        self.watch_resource(node.cpu)
        for disk in getattr(node, "disks", ()):
            self.watch_resource(disk)
        self.watch_cache(getattr(node, "cache", None))

    def watch_nodes(self, nodes: Iterable[Any]) -> None:
        """Track every node in ``nodes`` (see :meth:`watch_node`)."""
        for node in nodes:
            self.watch_node(node)

    # -- the engine hook -------------------------------------------------------

    def after_event(
        self, when: float, callback: Optional[Callable[..., Any]], final: bool = False
    ) -> None:
        """Called by the engine after each dispatched event: the clock
        and conservation checks, then a deep sweep every
        ``deep_interval`` events — one call per event, so the checks
        live in this body rather than behind a second method call.

        ``final`` marks the end-of-run observation (see
        :meth:`final_check`): no event was dispatched, so nothing is
        counted or clocked, and the deep sweep is unconditional.
        """
        seen = self.events_seen
        if not final:
            self.events_seen = seen = seen + 1
            if when + _TIME_EPS < self._last_time:
                self._fail(
                    when,
                    callback,
                    "clock moved backwards: event at "
                    f"t={when!r} after t={self._last_time!r}",
                )
            self._last_time = when
        fe = self._frontend
        if fe is not None:
            admitted = fe._next
            completed = fe.completed
            in_flight = fe.in_flight
            if in_flight < 0:
                self._fail(when, callback, f"in_flight is negative ({in_flight})")
            limit = fe.max_in_flight
            cap = self._in_flight_cap
            allowance = cap if cap > limit else limit
            if in_flight > allowance:
                self._fail(
                    when,
                    callback,
                    f"in_flight {in_flight} exceeds the admission limit {limit} "
                    f"(drain allowance {allowance})",
                )
            if cap != limit and in_flight <= limit:
                self._in_flight_cap = limit
            outstanding = admitted - completed
            if outstanding < 0:
                self._fail(
                    when,
                    callback,
                    f"completed {completed} exceeds admitted {admitted}",
                )
            if outstanding > in_flight * fe.requests_per_connection:
                self._fail(
                    when,
                    callback,
                    f"request conservation broken: admitted {admitted} != completed "
                    f"{completed} + work carried by {in_flight} in-flight "
                    f"connection(s) (<= {in_flight * fe.requests_per_connection} requests)",
                )
            # Lost-request conservation (fault-model runs): every completion
            # is either served goodput or an abandoned (lost) request — the
            # two runtime counters must tile ``completed`` exactly.
            faults = getattr(fe, "faults", None)
            if faults is not None:
                lost = faults.lost_requests
                served = faults.served_requests
                retried = faults.retried_requests
                if lost < 0 or served < 0 or retried < 0:
                    self._fail(
                        when,
                        callback,
                        f"fault-runtime counters went negative (served {served}, "
                        f"lost {lost}, retried {retried})",
                    )
                if served + lost != completed:
                    self._fail(
                        when,
                        callback,
                        f"lost-request conservation broken: served {served} + "
                        f"lost {lost} != completed {completed}",
                    )
        if final or seen % self.deep_interval == 0:
            self._deep_check(when, callback)

    def final_check(self, now: float) -> None:
        """Full sweep at end of run (the deep interval may not divide the
        event count, so the final state is always inspected)."""
        self.after_event(now, None, final=True)

    # -- checks ----------------------------------------------------------------

    def _fail(self, when: float, callback: Optional[Callable[..., Any]], reason: str) -> None:
        raise SanitizerError(
            f"invariant violated at t={when:.9g}, event #{self.events_seen} "
            f"({_describe(callback)}): {reason}"
        )

    def _deep_check(self, when: float, callback: Optional[Callable[..., Any]]) -> None:
        self.deep_sweeps += 1
        for resource in self._resources:
            busy = resource._busy
            if busy < 0:
                self._fail(
                    when,
                    callback,
                    f"resource {resource.name or resource!r} has negative busy "
                    f"count ({busy})",
                )
            if busy > resource.capacity:
                self._fail(
                    when,
                    callback,
                    f"resource {resource.name or resource!r} busy count {busy} "
                    f"exceeds capacity {resource.capacity}",
                )
        for cache in self._caches:
            if cache.used_bytes > cache.capacity_bytes:
                self._fail(
                    when,
                    callback,
                    f"cache {cache.name or cache!r} holds {cache.used_bytes} bytes, "
                    f"over its capacity {cache.capacity_bytes}",
                )
            if cache.used_bytes < 0:
                self._fail(
                    when,
                    callback,
                    f"cache {cache.name or cache!r} has negative used_bytes "
                    f"({cache.used_bytes})",
                )
            tracked = sum(cache._sizes.values())
            if tracked != cache.used_bytes:
                self._fail(
                    when,
                    callback,
                    f"cache {cache.name or cache!r} used_bytes {cache.used_bytes} "
                    f"disagrees with the sum of its entries ({tracked})",
                )
        self._check_nodes(when, callback)
        self._check_policy(when, callback)

    def _check_nodes(self, when: float, callback: Optional[Callable[..., Any]]) -> None:
        for node in self._nodes:
            hits = node.cache_hits
            misses = node.cache_misses
            dynamic = node.dynamic_requests
            served = node.requests_served
            if hits < 0 or misses < 0 or dynamic < 0 or served < 0:
                self._fail(
                    when,
                    callback,
                    f"node {node.node_id} outcome counters went negative "
                    f"(hits {hits}, misses {misses}, dynamic {dynamic}, "
                    f"served {served})",
                )
            # Outcome counters tick at the fetch decision, served only
            # after teardown, so mid-request the outcomes run ahead —
            # never behind.
            if hits + misses + dynamic < served:
                self._fail(
                    when,
                    callback,
                    f"node {node.node_id} outcome conservation broken: hits "
                    f"{hits} + misses {misses} + dynamic {dynamic} < served "
                    f"{served} (a request completed without an outcome)",
                )

    def _check_policy(self, when: float, callback: Optional[Callable[..., Any]]) -> None:
        policy = self._policy
        if policy is None:
            return
        alive: Sequence[bool] = policy._alive
        # The idle integral is kept by transitions inlined beside every
        # load write; a skipped one leaves the flag on the wrong side.
        tracker = getattr(self._frontend, "tracker", None)
        for node, load in enumerate(policy.loads):
            if load < 0:
                self._fail(
                    when, callback, f"policy load for node {node} is negative ({load})"
                )
            if tracker is not None and alive[node] and tracker._is_under[node] != (
                load < tracker.threshold
            ):
                self._fail(
                    when,
                    callback,
                    f"load tracker has node {node} on the wrong side of its "
                    f"threshold {tracker.threshold:g} at load {load}",
                )
        # The incremental load summaries against a recount: a lifecycle
        # that bypasses Policy.on_complete and forgets to mirror them
        # would otherwise mis-route silently.
        least = min((load for load, up in zip(policy.loads, alive) if up), default=0)
        if policy._min_load > least:
            self._fail(
                when,
                callback,
                f"policy least-load bound {policy._min_load} is above the least "
                f"alive load {least} (a completion did not lower it)",
            )
        bound = policy._min_load
        for node in range(policy._min_cursor):
            if alive[node] and policy.loads[node] == bound:
                self._fail(
                    when,
                    callback,
                    f"policy scan cursor {policy._min_cursor} is past node {node}, "
                    f"which sits at the least-load bound {bound} (a completion "
                    f"did not pull it back)",
                )
        in_flight = sum(policy.loads)
        if policy.total_load != in_flight:
            self._fail(
                when,
                callback,
                f"policy total_load {policy.total_load} disagrees with the sum "
                f"of its loads ({in_flight})",
            )
        up_count = sum(alive)
        if policy.alive_count != up_count:
            self._fail(
                when,
                callback,
                f"policy alive_count {policy.alive_count} disagrees with its "
                f"membership ({up_count} alive)",
            )
        if up_count == len(alive):
            # Every node is up — recounted just above, in this sweep, not
            # read off the policy's own counter — so no mapping can name a
            # failed one: the O(mappings) walks below are vacuous.
            return
        # LARD: target -> node mappings must only name live nodes.
        server_map = getattr(policy, "_server", None)
        if server_map is not None:
            for target, node in server_map.items():
                if not alive[node]:
                    self._fail(
                        when,
                        callback,
                        f"LARD mapping {target!r} -> node {node} names a failed "
                        "node (must be dropped 'as if never assigned')",
                    )
        # LARD/R: every server-set member must be live.  Entries carry a
        # membership epoch and are filtered lazily on access, so only
        # current-epoch sets are required to be clean.
        server_sets = getattr(policy, "_server_sets", None)
        if server_sets is not None:
            epoch = policy.membership_epoch
            for target, entry in server_sets.items():
                if getattr(entry, "epoch", epoch) != epoch:
                    continue
                for node in entry.nodes:
                    if not alive[node]:
                        self._fail(
                            when,
                            callback,
                            f"LARD/R server set for {target!r} contains failed "
                            f"node {node}",
                        )
