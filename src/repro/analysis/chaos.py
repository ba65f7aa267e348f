"""The chaos scorecard: race policies across seeded fault scenarios.

A chaos campaign runs every policy under test against the same seeded
:class:`~repro.cluster.faults.FaultSchedule` scenarios and reduces each
run to a scorecard row — availability, lost/retried requests, goodput,
and time-to-recovery of throughput, miss ratio, and p99 delay after the
last disruption.

The campaign is a :class:`~repro.analysis.matrix.MatrixSpec`
(:func:`chaos_spec`) run by :func:`~repro.analysis.matrix.run_matrix`:
one fault-free scenario (``none``) followed by one fault scenario per
stock profile over the same trace.
A faulted cell's reference is the same policy's fault-free run, and the
shortest fault-free duration scales the seeded schedules, so every
policy faces the *same* faults.  This module owns the profiles
(:func:`build_scenarios`), the recovery thresholds and
:data:`CHAOS_SCORECARD`.

The three stock scenarios stress different failure semantics:

``churn``
    Moderate MTTF crash/repair process — nodes crash, are detected, and
    rejoin (cold/warm/aged) while the trace runs.
``burst``
    Short MTTF — overlapping and back-to-back crashes, exercising
    retry exhaustion (lost requests) and repeated membership churn.
``brownout``
    No crashes; nodes degrade to a fraction of their CPU/disk rates for
    intervals, exercising load skew without membership changes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..cluster import SimulationResult
from ..cluster.faults import FaultSchedule, RetryPolicy, generate_fault_schedule
from ..cluster.metrics import recovery_time_s
from .matrix import MatrixSpec, Scenario, Scorecard

__all__ = [
    "DEFAULT_CHAOS_POLICIES",
    "FAULT_PROFILES",
    "SCORECARD_COLUMNS",
    "CHAOS_SCORECARD",
    "ChaosScenario",
    "build_scenarios",
    "chaos_spec",
    "fault_fields",
]

#: Policies raced by default: the paper's contenders (LARD, LARD/R,
#: WRR) plus locality-oblivious least-connections with GC.
DEFAULT_CHAOS_POLICIES: Tuple[str, ...] = ("lard", "lard/r", "wrr", "lb/gc")

#: Scorecard CSV column order (fixed so reruns are byte-comparable).
SCORECARD_COLUMNS: Tuple[str, ...] = (
    "scenario",
    "policy",
    "num_nodes",
    "num_requests",
    "availability",
    "lost_requests",
    "retried_requests",
    "orphaned_connections",
    "goodput_rps",
    "throughput_rps",
    "cache_miss_ratio",
    "p99_delay_ms",
    "recovery_tput_s",
    "recovery_miss_s",
    "recovery_p99_s",
)

#: Recovery thresholds relative to each policy's own fault-free run:
#: throughput back to 80% of baseline, miss ratio within max(1.5x,
#: +2pp) of baseline, p99 delay within 1.5x of baseline.
_TPUT_RECOVERY_FRACTION = 0.8
_MISS_RECOVERY_FACTOR = 1.5
_MISS_RECOVERY_SLACK = 0.02
_P99_RECOVERY_FACTOR = 1.5

#: Buckets the fault-free duration is cut into for the recovery series.
_TIMELINE_BUCKETS = 40

#: The stock profiles, in :func:`build_scenarios` (and scorecard) order.
FAULT_PROFILES: Tuple[str, ...] = ("churn", "burst", "brownout")


@dataclass(frozen=True)
class ChaosScenario:
    """One named, fully materialized fault schedule."""

    name: str
    schedule: FaultSchedule


def build_scenarios(
    num_nodes: int, duration_s: float, seed: int
) -> Tuple[ChaosScenario, ...]:
    """The stock churn/burst/brownout scenarios, scaled to ``duration_s``
    (a fault-free run's simulated duration) and derived deterministically
    from ``seed``."""
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    retry = RetryPolicy(
        max_retries=2,
        timeout_s=duration_s / 50.0,
        backoff_base_s=duration_s / 100.0,
        backoff_cap_s=duration_s / 25.0,
    )
    # Faults land inside the first 80% of the fault-free duration so the
    # tail of the trace observes recovery.
    window_s = duration_s * 0.8
    churn = generate_fault_schedule(
        num_nodes,
        window_s,
        seed=seed * 3 + 1,
        mttf_s=duration_s * 0.6,
        mttr_s=duration_s * 0.10,
        detect_s=duration_s * 0.03,
        retry=retry,
    )
    burst = generate_fault_schedule(
        num_nodes,
        window_s,
        seed=seed * 3 + 2,
        mttf_s=duration_s * 0.3,
        mttr_s=duration_s * 0.06,
        detect_s=duration_s * 0.02,
        retry=retry,
    )
    brownout = generate_fault_schedule(
        num_nodes,
        window_s,
        seed=seed * 3 + 3,
        brownout_mttf_s=duration_s * 0.35,
        brownout_duration_s=duration_s * 0.15,
        cpu_factor=0.4,
        disk_factor=0.4,
        retry=retry,
    )
    return tuple(
        ChaosScenario(name, schedule)
        for name, schedule in zip(FAULT_PROFILES, (churn, burst, brownout))
    )


def fault_fields(
    profile: str, seed: int, num_nodes: int, duration_s: float
) -> Dict[str, Any]:
    """The :class:`~repro.cluster.ClusterConfig` fields of a cell under
    stock ``profile``, once the fault-free ``duration_s`` that scales it
    is known: the schedule, with the bucket width its recovery series
    need."""
    scenarios = build_scenarios(num_nodes, duration_s, seed)
    schedule = scenarios[FAULT_PROFILES.index(profile)].schedule
    return dict(fault_schedule=replace(schedule, interval_s=duration_s / _TIMELINE_BUCKETS))


def _chaos_row(
    result: SimulationResult,
    baseline: Optional[SimulationResult],
    config: Mapping[str, Any],
) -> Dict[str, Any]:
    """One scorecard row; recovery is measured against ``baseline``, the
    same policy's fault-free run (``None``: this *is* the fault-free
    run, recovered from the start)."""
    degraded = result.degraded
    recovery_tput: object = 0.0
    recovery_miss: object = 0.0
    recovery_p99: object = 0.0
    # A faulted cell always has both: fault_fields gave its schedule a
    # bucket width.
    if baseline is not None and degraded is not None:
        interval_s = degraded.interval_s
        after_s = config["fault_schedule"].last_disruption_s

        def recovery(series: Dict[int, float], target: float, mode: str) -> object:
            value = recovery_time_s(series, interval_s, after_s, target, mode=mode)
            return "never" if value is None else value

        recovery_tput = recovery(
            degraded.throughput_series(),
            baseline.throughput_rps * _TPUT_RECOVERY_FRACTION,
            "ge",
        )
        recovery_miss = recovery(
            degraded.miss_ratio_series(),
            max(
                baseline.cache_miss_ratio * _MISS_RECOVERY_FACTOR,
                baseline.cache_miss_ratio + _MISS_RECOVERY_SLACK,
            ),
            "le",
        )
        base_p99_s = baseline.delay_percentile_s(99.0) if baseline.delays_s else 0.0
        recovery_p99 = recovery(
            degraded.p99_delay_series(), base_p99_s * _P99_RECOVERY_FACTOR, "le"
        )
    p99_s = result.delay_percentile_s(99.0) if result.delays_s else 0.0
    return {
        "policy": result.policy,
        "num_nodes": result.num_nodes,
        "num_requests": result.num_requests,
        "availability": result.availability,
        "lost_requests": result.lost_requests,
        "retried_requests": result.retried_requests,
        "orphaned_connections": result.orphaned_connections,
        "goodput_rps": result.goodput_rps,
        "throughput_rps": result.throughput_rps,
        "cache_miss_ratio": result.cache_miss_ratio,
        "p99_delay_ms": p99_s * 1000.0,
        "recovery_tput_s": recovery_tput,
        "recovery_miss_s": recovery_miss,
        "recovery_p99_s": recovery_p99,
    }


CHAOS_SCORECARD = Scorecard(
    columns=SCORECARD_COLUMNS,
    row=_chaos_row,
    fields=dict(collect_delays=True),
)


def chaos_spec(
    scenario: Scenario,
    *,
    num_nodes: int = 4,
    node_cache_bytes: int,
    policies: Sequence[str] = DEFAULT_CHAOS_POLICIES,
    seed: int = 0,
) -> MatrixSpec:
    """The campaign over ``scenario``'s trace: its fault-free run
    (``none``, the recovery baselines) then every stock profile from
    ``seed``, ``policies`` inner — the scorecard's row order."""
    scenarios = [replace(scenario, name="none")]
    scenarios.extend(
        replace(scenarios[0], name=profile, fault=partial(fault_fields, profile, seed))
        for profile in FAULT_PROFILES
    )
    return MatrixSpec(
        name="chaos",
        scenarios=tuple(scenarios),
        policies=tuple(policies),
        num_nodes=num_nodes,
        node_cache_bytes=node_cache_bytes,
        scorecard=CHAOS_SCORECARD,
    )
