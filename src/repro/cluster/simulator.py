"""Top-level trace-driven cluster simulation (paper Sections 3 and 4).

:class:`ClusterConfig` captures every knob the paper sweeps — strategy,
cluster size, per-node cache size and replacement policy, disks per node,
CPU speed — with defaults equal to the paper's defaults (GDS replacement,
32 MB caches, one disk, T_low=25 / T_high=65, K=20 s).
:func:`run_simulation` wires the policy, back-ends and front-end together,
runs the trace to completion, and returns a
:class:`~repro.cluster.metrics.SimulationResult`.

Multi-disk placement follows the paper's footnote: "the files were
distributed across the disks in round-robin fashion based on decreasing
order of request frequency in the trace" — see :func:`stripe_by_frequency`.
"""

from __future__ import annotations

import gc
import math
import os
from dataclasses import dataclass, field, replace
from numbers import Integral
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from ..cache import GDSCache, GlobalMemorySystem, LFUCache, LRUCache
from ..cache.base import Cache
from ..core import Policy, make_policy, uses_gms
from ..core.base import DEFAULT_T_HIGH, DEFAULT_T_LOW
from ..core.lardr import DEFAULT_K_SECONDS
from ..sim import Engine, InvariantSanitizer
from ..workload.trace import Trace
from .costs import PAPER_NODE_CACHE_BYTES, CostModel
from .faults import FaultRuntime, FaultSchedule
from .frontend import PERSISTENT_POLICIES, FrontEnd
from .metrics import UNDERUTILIZATION_FRACTION, LoadTracker, SimulationResult
from .node import BackendNode

__all__ = [
    "ClusterConfig",
    "ClusterSimulator",
    "run_simulation",
    "make_cache",
    "stripe_by_frequency",
    "CACHE_POLICIES",
]

#: Replacement policies selectable per back-end node.
CACHE_POLICIES = ("gds", "lru", "lru-unbounded", "lfu")


def make_cache(policy: str, capacity_bytes: int, name: str = "") -> Cache:
    """Instantiate a per-node cache by name.

    ``lru`` is the paper's LRU variant (files > 500 KB never cached);
    ``lru-unbounded`` is textbook LRU with no admission filter.
    """
    key = policy.lower()
    if key == "gds":
        return GDSCache(capacity_bytes, name=name)
    if key == "lru":
        return LRUCache.paper_variant(capacity_bytes, name=name)
    if key == "lru-unbounded":
        return LRUCache(capacity_bytes, name=name)
    if key == "lfu":
        return LFUCache(capacity_bytes, name=name)
    raise ValueError(f"unknown cache policy {policy!r}; expected one of {CACHE_POLICIES}")


def stripe_by_frequency(trace: Trace, num_disks: int) -> np.ndarray:
    """Target -> disk index, round-robin in decreasing request frequency.

    This is the paper's generous multi-disk placement: it balances the hot
    set across the disks of each node with respect to the trace.
    """
    counts = trace.request_counts()
    order = np.argsort(-counts, kind="stable")
    disk_of = np.empty(trace.num_targets, dtype=np.int64)
    disk_of[order] = np.arange(trace.num_targets) % num_disks
    return disk_of


def _validate_membership_events(
    events: Tuple[Tuple[float, str, int], ...], num_nodes: int
) -> None:
    """Reject malformed membership schedules at config time (clear errors
    instead of a corrupted run): unknown actions or node ids, negative or
    non-monotonic times, failing a failed node, joining an alive one."""
    alive = [True] * num_nodes
    last_when: Optional[float] = None
    for event in events:
        try:
            when, action, node = event
        except (TypeError, ValueError):
            raise ValueError(
                f"membership event must be (time_s, action, node), got {event!r}"
            ) from None
        if action not in ("fail", "join"):
            raise ValueError(
                f"unknown membership action {action!r} (expected 'fail' or 'join')"
            )
        if isinstance(node, bool) or not isinstance(node, int) or not 0 <= node < num_nodes:
            raise ValueError(
                f"membership event names unknown node {node!r} "
                f"(cluster has nodes 0..{num_nodes - 1})"
            )
        if when < 0:
            raise ValueError(f"membership event time must be >= 0, got {when!r}")
        if last_when is not None and when < last_when:
            raise ValueError(
                "membership events must be in non-decreasing time order: "
                f"t={when!r} after t={last_when!r}"
            )
        last_when = when
        if action == "fail":
            if not alive[node]:
                raise ValueError(
                    f"membership event at t={when!r} fails node {node}, "
                    "which is already failed"
                )
            alive[node] = False
        else:
            if alive[node]:
                raise ValueError(
                    f"membership event at t={when!r} joins node {node}, "
                    "which is already alive"
                )
            alive[node] = True


def _require_count(name: str, value: Any, too_small: Optional[str] = None) -> None:
    """Reject a count field that is not an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(too_small or f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ClusterConfig:
    """One simulated cluster configuration."""

    policy: str = "lard/r"
    num_nodes: int = 8
    node_cache_bytes: int = PAPER_NODE_CACHE_BYTES
    cache_policy: str = "gds"
    disks_per_node: int = 1
    costs: CostModel = field(default_factory=CostModel)
    t_low: int = DEFAULT_T_LOW
    t_high: int = DEFAULT_T_HIGH
    k_seconds: float = DEFAULT_K_SECONDS
    #: Override the cluster-wide admission limit (default: the paper's S).
    max_in_flight: Optional[int] = None
    #: Bound on the front-end mapping table (None = unbounded, Section 2.6).
    max_mappings: Optional[int] = None
    #: Coalesce concurrent misses on one file into a single disk read
    #: (paper Section 3.1); disable only for the ablation bench.
    coalesce_reads: bool = True
    #: Membership schedule: ``((time_s, "fail"|"join", node), ...)``.
    #: Failures drop the node's mappings/cache per paper Section 2.6;
    #: joins bring it back cold.
    membership_events: Tuple[Tuple[float, str, int], ...] = ()
    #: When set, completions are bucketed into intervals of this many
    #: simulated seconds (throughput timelines for dynamic experiments).
    timeline_interval_s: Optional[float] = None
    #: HTTP/1.1 persistent connections: consecutive trace requests grouped
    #: per connection (1 = the paper's HTTP/1.0 evaluation).
    requests_per_connection: int = 1
    #: How persistent connections are distributed: "sticky" (first
    #: request's back-end serves the whole connection) or "rehandoff"
    #: (re-run the policy per request; paper Section 5).
    persistent_policy: str = "sticky"
    #: Record every request's delay so percentiles can be reported
    #: (Section 4.4 extension; costs one float per request).
    collect_delays: bool = False
    #: Run under the invariant sanitizer (:mod:`repro.sim.sanitize`):
    #: engine-level checks per event plus deep cluster sweeps every
    #: ``sanitize_interval`` events.  Also enabled by ``REPRO_SANITIZE=1``
    #: in the environment.  Read-only — results are identical either way.
    sanitize: bool = False
    sanitize_interval: int = 256
    #: Optional simulator fault model (:mod:`repro.cluster.faults`):
    #: crash faults with detection lag and client retries, brownouts,
    #: and cold/warm/aged rejoins.  ``None`` runs no fault code at
    #: all.  Mutually exclusive with ``membership_events`` (the fault
    #: model subsumes them).
    fault_schedule: Optional[FaultSchedule] = None
    #: Seed for randomized policies (``pod``, ``pod/lc``); equal seeds
    #: reproduce byte-identical runs.
    policy_seed: int = 0
    #: Probes per request for ``pod``/``pod/lc``.
    pod_d: int = 2
    #: Replica locations per target for ``pod/lc`` (the r of
    #: arXiv:1706.10209).
    pod_replication: int = 3

    def __post_init__(self) -> None:
        _require_count(
            "num_nodes", self.num_nodes, f"need at least one node, got {self.num_nodes}"
        )
        _require_count("requests_per_connection", self.requests_per_connection)
        if self.persistent_policy not in PERSISTENT_POLICIES:
            raise ValueError(
                f"persistent_policy must be one of {PERSISTENT_POLICIES}, "
                f"got {self.persistent_policy!r}"
            )
        if self.max_in_flight is not None:
            _require_count("max_in_flight", self.max_in_flight)
        _require_count(
            "disks_per_node",
            self.disks_per_node,
            f"need at least one disk, got {self.disks_per_node}",
        )
        _require_count("sanitize_interval", self.sanitize_interval)
        _validate_membership_events(self.membership_events, self.num_nodes)
        if self.fault_schedule is not None:
            self.fault_schedule.validate(self.num_nodes)
        if self.fault_schedule is not None and self.membership_events:
            raise ValueError(
                "fault_schedule and membership_events cannot be combined; "
                "express clean fail/join pairs as CrashFaults instead"
            )
        interval = self.timeline_interval_s
        if interval is not None and not (0.0 < interval < math.inf):
            raise ValueError(
                f"timeline_interval_s must be positive and finite, got {interval!r}"
            )

    def scaled_cpu(self, cpu_multiplier: float, memory_multiplier: float = 1.0) -> "ClusterConfig":
        """The Figure 11/12 scaling: faster CPU, proportionally larger cache."""
        return replace(
            self,
            costs=self.costs.with_cpu_speed(cpu_multiplier),
            node_cache_bytes=int(self.node_cache_bytes * memory_multiplier),
        )


class ClusterSimulator:
    """Builds and runs one cluster over one trace — once.

    A simulator is single-use: :meth:`run` consumes the trace and a
    second call raises; build a new ``ClusterSimulator`` to run again.

    ``tracer`` attaches a :class:`repro.obs.tracer.SimTracer`: the run
    takes the one request lifecycle there is (the state machine in
    :mod:`repro.cluster.fastpath`) with the tracer observing it,
    emitting one span per request (plus periodic samples) while
    producing the exact same
    :class:`~repro.cluster.metrics.SimulationResult`.

    **What survives** :meth:`run`.  Everything a caller reads
    afterwards: ``frontend`` counters (``completed``, ``connections``,
    per-node series), ``engine.events_dispatched`` and ``engine.now``,
    every node's counters, resources and cache, ``policy``, ``tracker``,
    ``gms``, ``sanitizer.events_seen`` / ``deep_sweeps``, the
    ``fault_runtime`` totals, ``events`` and degraded series, and the
    connection class the run used (``frontend._fastpath.conn_class``).
    What does not: the connection pool, and the links that made the
    finished cluster one reference cycle — ``FastPath.fe``,
    ``BackendNode.peers`` and ``disk_times_for``, the engine's
    sanitizer hook, the tracer's and the fault runtime's references to
    the cluster.  A finished simulator is therefore freed by reference
    count the moment it is dropped, with no collector pass.

    **The cyclic collector is paused** for the length of :meth:`run`
    (and put back as it was, also when the run raises): a run creates
    no cyclic garbage — ``tests/test_cluster_memory.py`` holds it to
    that, configuration by configuration — so every pass the collector
    made during one re-walked the live cluster and freed nothing.
    """

    def __init__(
        self, trace: Trace, config: ClusterConfig, tracer: Optional[Any] = None
    ) -> None:
        self.trace = trace
        self.config = config
        self.engine = Engine()
        policy_kwargs = dict(t_low=config.t_low, t_high=config.t_high)
        if config.policy in ("lard", "lard/r") and config.max_mappings is not None:
            policy_kwargs["max_mappings"] = config.max_mappings
        if config.policy == "lard/r":
            policy_kwargs["k_seconds"] = config.k_seconds
        if config.policy in ("pod", "pod/lc"):
            policy_kwargs["d"] = config.pod_d
            policy_kwargs["seed"] = config.policy_seed
        if config.policy == "pod/lc":
            policy_kwargs["replication"] = config.pod_replication
        self.policy: Policy = make_policy(
            config.policy,
            config.num_nodes,
            node_cache_bytes=config.node_cache_bytes,
            **policy_kwargs,
        )
        self.gms: Optional[GlobalMemorySystem] = None
        if uses_gms(config.policy):
            self.gms = GlobalMemorySystem(config.num_nodes, config.node_cache_bytes)
        self.nodes: List[BackendNode] = []
        disk_of = (
            stripe_by_frequency(trace, config.disks_per_node)
            if config.disks_per_node > 1
            else None
        )
        for node_id in range(config.num_nodes):
            cache = (
                None
                if self.gms is not None
                else make_cache(config.cache_policy, config.node_cache_bytes, name=f"n{node_id}")
            )
            node = BackendNode(
                self.engine,
                node_id,
                config.costs,
                cache,
                num_disks=config.disks_per_node,
                gms=self.gms,
                coalesce_reads=config.coalesce_reads,
            )
            node.disk_of_target = disk_of
            self.nodes.append(node)
        # One shared dynamic-cost table (or None) across all nodes.
        dynamic_costs = trace.dynamic_cost_list()
        for node in self.nodes:
            node.peers = self.nodes
            node.dynamic_cost_of_target = dynamic_costs
        self.tracker = LoadTracker(
            self.policy.loads, threshold=UNDERUTILIZATION_FRACTION * config.t_low
        )
        self.frontend = FrontEnd(
            self.engine,
            self.policy,
            self.nodes,
            trace,
            self.tracker,
            max_in_flight=config.max_in_flight,
            requests_per_connection=config.requests_per_connection,
            persistent_policy=config.persistent_policy,
        )
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(self.frontend, self.nodes, self.policy)
            self.frontend.tracer = tracer
        self.fault_runtime: Optional[FaultRuntime] = None
        if config.fault_schedule is not None:
            self.fault_runtime = FaultRuntime(
                config.fault_schedule, self.frontend, self.nodes, tracer=tracer
            )
            self.frontend.faults = self.fault_runtime
        self.sanitizer: Optional[InvariantSanitizer] = None
        if config.sanitize or os.environ.get("REPRO_SANITIZE") == "1":  # lardlint: disable=transitive-nondeterminism -- config-time switch; the sanitizer only checks invariants and CI proves results identical with it on
            sanitizer = InvariantSanitizer(deep_interval=config.sanitize_interval)
            sanitizer.watch_frontend(self.frontend)
            sanitizer.watch_policy(self.policy)
            sanitizer.watch_nodes(self.nodes)
            self.engine.install_sanitizer(sanitizer.after_event)
            self.sanitizer = sanitizer
        self._ran = False

    def run(self) -> SimulationResult:
        """Serve the whole trace and report the paper's metrics."""
        if self._ran:
            raise RuntimeError(
                "this simulator already ran; build a new ClusterSimulator"
            )
        self._ran = True
        # Paused for the whole call, not just the dispatch loop: the
        # first pass after the collector comes back walks everything
        # allocated meanwhile, so the run's connections are released
        # (by _serve, last thing) before it does.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._serve()
        finally:
            if collecting:
                gc.enable()

    def _serve(self) -> SimulationResult:
        self.frontend.timeline_interval_s = self.config.timeline_interval_s
        self.frontend.collect_delays = self.config.collect_delays
        for when, action, node in self.config.membership_events:
            # ClusterConfig.__post_init__ admits only "fail" and "join".
            if action == "fail":
                self.engine.schedule(when, self.frontend.fail_node, node)
            else:
                self.engine.schedule(when, self.frontend.join_node, node)
        runtime = self.fault_runtime
        if runtime is not None:
            runtime.interval_s = self.config.timeline_interval_s
            runtime.schedule_events(self.engine)
        self.frontend.start()
        end_time = self.engine.run()
        if self.sanitizer is not None:
            self.sanitizer.final_check(end_time)
        if not self.frontend.done:
            raise RuntimeError(
                f"simulation stalled: {self.frontend.completed}/{len(self.trace)} served"
            )
        nodes = self.nodes
        result = SimulationResult(
            policy=self.config.policy,
            num_nodes=self.config.num_nodes,
            num_requests=len(self.trace),
            sim_time_s=end_time,
            cache_hits=sum(n.cache_hits for n in nodes),
            cache_misses=sum(n.cache_misses for n in nodes),
            disk_reads=sum(n.disk_reads for n in nodes),
            coalesced_reads=sum(n.coalesced_reads for n in nodes),
            total_delay_s=self.frontend.total_delay_s,
            idle_fraction=self.tracker.mean_underutilized_fraction(end_time),
            cpu_busy_fraction=sum(n.cpu_utilization() for n in nodes) / len(nodes),
            disk_busy_fraction=sum(n.disk_utilization() for n in nodes) / len(nodes),
            bytes_served=sum(n.bytes_served for n in nodes),
            gms_local_hits=sum(n.gms_local_hits for n in nodes),
            gms_remote_hits=sum(n.gms_remote_hits for n in nodes),
            dynamic_requests=sum(n.dynamic_requests for n in nodes),
            per_node_mean_delay_s=[
                d / c if c else 0.0
                for d, c in zip(
                    self.frontend.per_node_delay_s, self.frontend.per_node_completions
                )
            ],
            timeline=dict(self.frontend.timeline),
            orphaned_connections=self.frontend.orphaned,
            connections=self.frontend.connections,
            rehandoffs=self.frontend.rehandoffs,
            delays_s=list(self.frontend.delays_s),
            lost_requests=runtime.lost_requests if runtime is not None else 0,
            retried_requests=runtime.retried_requests if runtime is not None else 0,
            degraded=runtime.degraded_timeline() if runtime is not None else None,
        )
        self._release()
        return result

    def _release(self) -> None:
        """Free the per-run state and cut every link that leads back
        into the cluster, leaving a graph without cycles (see the class
        docstring for what stays readable)."""
        self.frontend.release()
        for node in self.nodes:
            node.peers = ()
        self.engine.install_sanitizer(None)
        if self.tracer is not None:
            self.tracer.unbind()
        if self.fault_runtime is not None:
            self.fault_runtime.unbind()


def run_simulation(
    trace: Trace,
    config: Optional[ClusterConfig] = None,
    profile: Optional[Union[str, Path]] = None,
    trace_out: Optional[Union[str, Path]] = None,
    sample_interval_s: Optional[float] = None,
    **overrides,
) -> SimulationResult:
    """Convenience wrapper: build a config (plus overrides) and run it.

    ``profile`` runs the simulation under :mod:`cProfile` and dumps the
    stats to that path (inspect with ``python -m pstats`` or snakeviz);
    construction and trace generation are excluded so the profile shows
    the simulation hot path only.

    ``trace_out`` writes a JSONL span log (one span per request; see
    :mod:`repro.obs.span`) to that path; ``sample_interval_s``
    additionally emits periodic time-series samples into it, and is
    rejected without ``trace_out`` (there would be nowhere to write
    them).  Tracing observes the run without changing it: the returned
    result is identical either way.
    """
    if sample_interval_s is not None and trace_out is None:
        raise ValueError("sample_interval_s needs trace_out: samples go to the span log")
    base = config if config is not None else ClusterConfig()
    if overrides:
        base = replace(base, **overrides)
    if trace_out is not None:
        # Imported lazily: the untraced path must not even import obs.
        from ..obs.span import SpanWriter
        from ..obs.tracer import SimTracer

        with SpanWriter(trace_out, source="sim") as writer:
            tracer = SimTracer(writer, sample_interval_s=sample_interval_s)
            simulator = ClusterSimulator(trace, base, tracer=tracer)
            return _run(simulator, profile)
    simulator = ClusterSimulator(trace, base)
    return _run(simulator, profile)


def _run(
    simulator: ClusterSimulator, profile: Optional[Union[str, Path]]
) -> SimulationResult:
    if profile is None:
        return simulator.run()
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = simulator.run()
    finally:
        profiler.disable()
        profiler.dump_stats(str(profile))
    return result
