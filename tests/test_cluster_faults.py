"""Fault model for the simulator: crash/brownout/rejoin semantics,
schedule validation, degraded-mode accounting, sanitizer awareness, and
the shared observability of simulated and live chaos runs.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, run_simulation
from repro.cluster.faults import (
    Brownout,
    CrashFault,
    FaultSchedule,
    RetryPolicy,
    generate_fault_schedule,
)
from repro.cluster.metrics import recovery_time_s
from repro.sim import SanitizerError
from repro.workload import synthesize_trace

CACHE = 2**20


def _trace(n=3000, seed=7):
    return synthesize_trace(n, 400, 8 * 2**20, 0.9, seed=seed)


def _config(**overrides):
    base = dict(num_nodes=3, policy="lard", node_cache_bytes=CACHE)
    base.update(overrides)
    return ClusterConfig(**base)


@pytest.fixture(scope="module")
def baseline():
    """One fault-free run shared by the module (for time scaling)."""
    return run_simulation(_trace(), _config(collect_delays=True), sanitize=True)


def _crash_schedule(est, **kw):
    defaults = dict(
        node=1,
        at_s=est * 0.2,
        detect_s=est * 0.05,
        rejoin_at_s=est * 0.5,
        rejoin_mode="cold",
    )
    defaults.update(kw)
    return FaultSchedule(
        crashes=(CrashFault(**defaults),),
        retry=RetryPolicy(
            max_retries=1,
            timeout_s=est * 0.02,
            backoff_base_s=est * 0.01,
            backoff_cap_s=est * 0.05,
        ),
    )


# -- dataclass validation ------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError, match="timeout_s"):
        RetryPolicy(timeout_s=0.0)
    with pytest.raises(ValueError, match="backoff_cap_s"):
        RetryPolicy(backoff_base_s=2.0, backoff_cap_s=1.0)


def test_retry_backoff_is_capped_exponential():
    retry = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
    assert retry.backoff_s(1) == pytest.approx(0.1)
    assert retry.backoff_s(2) == pytest.approx(0.2)
    assert retry.backoff_s(3) == pytest.approx(0.4)
    assert retry.backoff_s(4) == pytest.approx(0.5)  # capped
    assert retry.backoff_s(10) == pytest.approx(0.5)


def test_crash_fault_validation():
    with pytest.raises(ValueError, match="detect_s"):
        CrashFault(node=0, at_s=1.0, detect_s=0.0)
    with pytest.raises(ValueError, match="rejoin"):
        CrashFault(node=0, at_s=1.0, detect_s=0.5, rejoin_at_s=1.2)
    with pytest.raises(ValueError, match="rejoin_mode"):
        CrashFault(node=0, at_s=1.0, detect_s=0.5, rejoin_mode="tepid")
    with pytest.raises(ValueError, match="aged_fraction"):
        CrashFault(node=0, at_s=1.0, detect_s=0.5, aged_fraction=1.5)


def test_brownout_validation():
    with pytest.raises(ValueError, match="duration_s"):
        Brownout(node=0, at_s=1.0, duration_s=0.0)
    with pytest.raises(ValueError, match="cpu_factor"):
        Brownout(node=0, at_s=1.0, duration_s=1.0, cpu_factor=0.0)
    with pytest.raises(ValueError, match="disk_factor"):
        Brownout(node=0, at_s=1.0, duration_s=1.0, disk_factor=1.5)


def test_schedule_rejects_unknown_node():
    schedule = FaultSchedule(crashes=(CrashFault(node=5, at_s=1.0, detect_s=0.5),))
    with pytest.raises(ValueError, match="node 5"):
        schedule.validate(num_nodes=3)


def test_schedule_rejects_overlapping_crashes_on_one_node():
    schedule = FaultSchedule(
        crashes=(
            CrashFault(node=0, at_s=1.0, detect_s=0.5, rejoin_at_s=5.0),
            CrashFault(node=0, at_s=3.0, detect_s=0.5),
        )
    )
    with pytest.raises(ValueError, match="node 0"):
        schedule.validate(num_nodes=3)


def test_schedule_rejects_killing_every_node():
    schedule = FaultSchedule(
        crashes=tuple(
            CrashFault(node=n, at_s=1.0 + n, detect_s=0.1) for n in range(3)
        )
    )
    with pytest.raises(ValueError, match="no node alive"):
        schedule.validate(num_nodes=3)


def test_schedule_rejects_brownout_overlapping_crash():
    schedule = FaultSchedule(
        crashes=(CrashFault(node=0, at_s=1.0, detect_s=0.5, rejoin_at_s=4.0),),
        brownouts=(Brownout(node=0, at_s=2.0, duration_s=1.0),),
    )
    with pytest.raises(ValueError, match="overlaps"):
        schedule.validate(num_nodes=3)


def test_last_disruption_covers_rejoins_and_brownouts():
    schedule = FaultSchedule(
        crashes=(CrashFault(node=0, at_s=1.0, detect_s=0.5, rejoin_at_s=9.0),),
        brownouts=(Brownout(node=1, at_s=2.0, duration_s=3.0),),
    )
    assert schedule.last_disruption_s == 9.0
    assert FaultSchedule().last_disruption_s == 0.0


# -- membership-event config validation (satellite) ----------------------------


@pytest.mark.parametrize(
    "events,match",
    [
        (((1.0, "explode", 1),), "membership action"),
        (((1.0, "fail", 9),), "unknown node"),
        (((1.0, "fail", True),), "unknown node"),
        (((-1.0, "fail", 1),), "must be >= 0"),
        (((2.0, "fail", 1), (1.0, "join", 1)), "non-decreasing"),
        (((1.0, "fail", 1), (2.0, "fail", 1)), "already failed"),
        (((1.0, "join", 1),), "already alive"),
        ((("soon", "fail"),), "membership event"),
    ],
)
def test_malformed_membership_events_rejected_at_config_time(events, match):
    with pytest.raises(ValueError, match=match):
        _config(membership_events=events)


def test_fault_schedule_and_membership_events_are_exclusive():
    schedule = FaultSchedule(crashes=(CrashFault(node=0, at_s=1.0, detect_s=0.5),))
    with pytest.raises(ValueError, match="cannot be combined"):
        _config(membership_events=((1.0, "fail", 1),), fault_schedule=schedule)


# -- seeded schedule generation ------------------------------------------------


def test_generated_schedule_is_deterministic_and_valid():
    kw = dict(seed=42, mttf_s=5.0, mttr_s=1.0, brownout_mttf_s=8.0,
              brownout_duration_s=2.0)
    a = generate_fault_schedule(4, 20.0, **kw)
    b = generate_fault_schedule(4, 20.0, **kw)
    assert a == b
    assert a.crashes or a.brownouts
    a.validate(num_nodes=4)  # never leaves zero nodes alive, no overlaps


def test_generated_schedules_differ_across_seeds():
    a = generate_fault_schedule(4, 20.0, seed=1, mttf_s=5.0)
    b = generate_fault_schedule(4, 20.0, seed=2, mttf_s=5.0)
    assert a != b


def test_generator_respects_rejoin_modes():
    schedule = generate_fault_schedule(
        4, 50.0, seed=3, mttf_s=5.0, rejoin_modes=("warm",)
    )
    assert schedule.crashes
    assert all(c.rejoin_mode == "warm" for c in schedule.crashes)


# -- crash semantics -----------------------------------------------------------


def test_crash_with_detection_lag_loses_or_retries_requests(baseline):
    est = baseline.sim_time_s
    result = run_simulation(
        _trace(),
        _config(fault_schedule=_crash_schedule(est), collect_delays=True,
                timeline_interval_s=est / 20),
        sanitize=True,
    )
    # Dispatches during the detection window time out; with one retry
    # some requests recover and some are lost.
    assert result.retried_requests > 0
    assert result.lost_requests > 0
    assert result.served_requests + result.lost_requests == result.num_requests
    assert 0.0 < result.availability < 1.0
    assert result.goodput_rps < result.throughput_rps
    assert result.degraded is not None
    lost_in_buckets = sum(result.degraded.lost.values())
    assert lost_in_buckets == result.lost_requests


def test_faulted_run_is_deterministic(baseline):
    est = baseline.sim_time_s
    config = _config(fault_schedule=_crash_schedule(est), collect_delays=True)
    a = run_simulation(_trace(), config, sanitize=True)
    b = run_simulation(_trace(), config, sanitize=True)
    assert a == b


def test_empty_schedule_matches_plain_run(baseline):
    result = run_simulation(
        _trace(), _config(fault_schedule=FaultSchedule(), collect_delays=True),
        sanitize=True,
    )
    assert result.total_delay_s == baseline.total_delay_s
    assert result.sim_time_s == baseline.sim_time_s
    assert result.delays_s == baseline.delays_s
    assert result.lost_requests == 0
    assert result.retried_requests == 0
    assert result.availability == 1.0


def test_undetected_crash_without_rejoin_still_terminates(baseline):
    est = baseline.sim_time_s
    schedule = FaultSchedule(
        crashes=(CrashFault(node=2, at_s=est * 0.5, detect_s=est * 0.05),),
        retry=RetryPolicy(max_retries=2, timeout_s=est * 0.01,
                          backoff_base_s=est * 0.005, backoff_cap_s=est * 0.02),
    )
    result = run_simulation(_trace(), _config(fault_schedule=schedule), sanitize=True)
    assert result.served_requests + result.lost_requests == result.num_requests


# -- brownouts -----------------------------------------------------------------


def test_brownout_slows_the_cluster_but_loses_nothing(baseline):
    est = baseline.sim_time_s
    schedule = FaultSchedule(
        brownouts=(Brownout(node=0, at_s=est * 0.1, duration_s=est * 0.3,
                            cpu_factor=0.5, disk_factor=0.5),)
    )
    result = run_simulation(_trace(), _config(fault_schedule=schedule), sanitize=True)
    assert result.lost_requests == 0
    assert result.retried_requests == 0
    assert result.availability == 1.0
    assert result.sim_time_s > baseline.sim_time_s


def test_brownout_restores_base_costs(baseline):
    est = baseline.sim_time_s
    schedule = FaultSchedule(
        brownouts=(Brownout(node=0, at_s=est * 0.05, duration_s=est * 0.1,
                            cpu_factor=0.25, disk_factor=0.25),)
    )
    sim = ClusterSimulator(_trace(), _config(fault_schedule=schedule))
    base_costs = sim.nodes[0].costs
    sim.run()
    assert sim.nodes[0].costs == base_costs


# -- rejoin cache modes --------------------------------------------------------


def test_rejoin_cold_misses_more_than_warm(baseline):
    est = baseline.sim_time_s
    results = {}
    for mode in ("cold", "warm", "aged"):
        schedule = _crash_schedule(
            est, at_s=est * 0.3, detect_s=est * 0.03,
            rejoin_at_s=est * 0.45, rejoin_mode=mode,
        )
        results[mode] = run_simulation(
            _trace(), _config(fault_schedule=schedule), sanitize=True
        )
    assert results["cold"].cache_miss_ratio > results["warm"].cache_miss_ratio
    # aged keeps part of the cache: between cold and a full warm keep
    # (loose bound: no worse than cold).
    assert results["aged"].cache_miss_ratio <= results["cold"].cache_miss_ratio


def test_cache_age_evicts_requested_fraction():
    from repro.cluster import make_cache

    cache = make_cache("lru", 10_000)
    for i in range(10):
        cache.access(f"f{i}", 1000)
    assert cache.used_bytes == 10_000
    evicted = cache.age(0.5)
    assert evicted == 5
    assert cache.used_bytes == 5_000
    with pytest.raises(ValueError):
        cache.age(1.5)


def test_frontend_join_rejects_unknown_cache_mode(baseline):
    sim = ClusterSimulator(_trace(), _config())
    sim.frontend.fail_node(1)
    with pytest.raises(ValueError, match="cache_mode"):
        sim.frontend.join_node(1, cache_mode="tepid")


# -- degraded-mode metrics -----------------------------------------------------


def test_recovery_time_s_scans_sustained_windows():
    series = {0: 1.0, 1: 1.0, 2: 0.1, 3: 0.1, 4: 0.1, 5: 0.1}
    # mode="le": first sustained (3-bucket) window at/under 0.5 starts at
    # bucket 2; measured from after_s=1.0 with interval 1.0 -> 1.0s.
    assert recovery_time_s(series, 1.0, 1.0, 0.5) == pytest.approx(1.0)
    assert recovery_time_s(series, 1.0, 1.0, 0.05) is None
    assert recovery_time_s({}, 1.0, 0.0, 0.5) is None
    # mode="ge" looks for the series rising back above the target.
    rising = {0: 0.1, 1: 0.1, 2: 2.0, 3: 2.0, 4: 2.0}
    assert recovery_time_s(rising, 1.0, 0.0, 1.0, mode="ge") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        recovery_time_s(series, 1.0, 0.0, 0.5, mode="between")


# -- sanitizer awareness -------------------------------------------------------


def test_sanitizer_catches_corrupted_lost_counter(baseline):
    est = baseline.sim_time_s
    config = _config(fault_schedule=_crash_schedule(est), sanitize=True,
                     sanitize_interval=1)
    sim = ClusterSimulator(_trace(), config)

    def corrupt():
        sim.fault_runtime.served_requests += 7

    sim.engine.schedule(est * 0.6, corrupt)
    with pytest.raises(SanitizerError, match="lost-request conservation"):
        sim.run()


def test_sanitizer_catches_negative_fault_counters(baseline):
    est = baseline.sim_time_s
    config = _config(fault_schedule=_crash_schedule(est), sanitize=True,
                     sanitize_interval=1)
    sim = ClusterSimulator(_trace(), config)

    def corrupt():
        sim.fault_runtime.lost_requests = -1
        sim.fault_runtime.served_requests = sim.frontend.completed + 1

    sim.engine.schedule(est * 0.6, corrupt)
    with pytest.raises(SanitizerError, match="negative"):
        sim.run()


# -- observability: simulated chaos --------------------------------------------


def test_faulted_run_emits_fault_records_and_lost_spans(baseline):
    from repro.obs import SpanWriter, format_report, parse_span_log
    from repro.obs.tracer import SimTracer

    est = baseline.sim_time_s
    buf = io.StringIO()
    writer = SpanWriter(buf, source="sim")
    tracer = SimTracer(writer)
    config = _config(fault_schedule=_crash_schedule(est), collect_delays=True)
    sim = ClusterSimulator(_trace(), config, tracer=tracer)
    result = sim.run()
    writer.close()

    log = parse_span_log(buf.getvalue().splitlines())
    assert [f["event"] for f in log.faults] == ["crash", "detect", "join"]
    assert log.faults[2]["mode"] == "cold"
    lost = [span for span in log.spans if span.outcome == "lost"]
    assert len(lost) == result.lost_requests > 0
    assert len(log.spans) == result.num_requests
    assert all("retry" in span.phases for span in lost)

    report = format_report(log)
    assert "fault events: crash=1  detect=1  join=1" in report
    assert "lost=" in report


def test_traced_faulted_run_matches_untraced(baseline):
    from repro.obs import SpanWriter
    from repro.obs.tracer import SimTracer

    est = baseline.sim_time_s
    config = _config(fault_schedule=_crash_schedule(est), collect_delays=True)
    buf = io.StringIO()
    with SpanWriter(buf, source="sim") as writer:
        traced = ClusterSimulator(_trace(), config, tracer=SimTracer(writer)).run()
    untraced = run_simulation(_trace(), config, sanitize=True)
    assert traced == untraced


# sha256 of (JSONL span log, asdict(result) as sorted-key JSON) for a
# traced run under a seeded schedule, recorded on a7b00b5 where the
# faulty path had its own admission loop and its own copy of ``serve``.
_PARENT_CHAOS_SHA256 = {
    (1, "sticky"): (
        "5d1e834bda40b266e9bcdfc81e27abb547b0f1b00e5c5bdfac0cf0c46ce5d1b4",
        "674924bb24a4aa8c88ab61bc6aa23a2d30ffd3a3c2bce057e669d5059aa607f6",
    ),
    (4, "rehandoff"): (
        "ae8eab3a18551da1c9063e2c2bde03a754dc441440470d7feb07f47add67670f",
        "3943f39f54a06e13362235f8323f6234bc9d5ea622097ec6fd63a55cc23bcba5",
    ),
}


@pytest.mark.parametrize("connection", sorted(_PARENT_CHAOS_SHA256))
def test_seeded_chaos_run_matches_parent_lifecycle(connection):
    from repro.obs import SpanWriter
    from repro.obs.tracer import SimTracer

    requests_per_connection, persistent_policy = connection
    schedule = generate_fault_schedule(
        3, 5.0, seed=42, mttf_s=2.0, mttr_s=0.5, detect_s=0.2,
        brownout_mttf_s=3.0, brownout_duration_s=0.5,
        retry=RetryPolicy(max_retries=1, timeout_s=0.1, backoff_base_s=0.05,
                          backoff_cap_s=0.25),
    )
    config = _config(
        fault_schedule=schedule,
        timeline_interval_s=0.25,
        requests_per_connection=requests_per_connection,
        persistent_policy=persistent_policy,
    )
    buf = io.StringIO()
    with SpanWriter(buf, source="sim") as writer:
        traced = ClusterSimulator(_trace(), config, tracer=SimTracer(writer)).run()
    # The untraced run hands ``serve`` the fault runtime's probe instead.
    assert run_simulation(_trace(), config) == traced
    assert traced.lost_requests > 0 and traced.retried_requests > 0
    digests = (
        hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        hashlib.sha256(
            json.dumps(dataclasses.asdict(traced), sort_keys=True).encode()
        ).hexdigest(),
    )
    assert digests == _PARENT_CHAOS_SHA256[connection]


# -- observability: live chaos (FaultInjector) ---------------------------------


def test_fault_injector_logs_through_span_writer():
    from repro.handoff.faults import FaultInjector
    from repro.obs import SpanWriter, parse_span_log

    class _StubBackend:
        faults = None
        node_id = 0

    class _StubCluster:
        def __init__(self):
            self.backends = [_StubBackend(), _StubBackend()]
            self.calls = []

        def fail_backend(self, node, detect=True):
            self.calls.append(("fail", node))

        def restart_backend(self, node, immediate=True):
            self.calls.append(("restart", node))

    buf = io.StringIO()
    writer = SpanWriter(buf, source="live")
    cluster = _StubCluster()
    with FaultInjector(cluster, writer=writer) as injector:
        injector.kill(0)
        injector.stall_handoffs(1, 0.25)
        injector.sever_responses(1, count=2)
        injector.fail_heartbeats(1)
        injector.revive(0)
    writer.close()

    log = parse_span_log(buf.getvalue().splitlines())
    events = [(f["event"], f["node"]) for f in log.faults]
    assert events == [("kill", 0), ("stall", 1), ("sever", 1), ("gray", 1),
                      ("revive", 0)]
    assert log.faults[1]["delay_s"] == 0.25
    assert log.faults[2]["count"] == 2
    assert cluster.calls == [("fail", 0), ("restart", 0)]


def test_fault_injector_without_writer_stays_silent():
    from repro.handoff.faults import FaultInjector

    class _StubCluster:
        backends = []

        def fail_backend(self, node, detect=True):
            pass

    FaultInjector(_StubCluster()).kill(0)  # must not raise


# -- chaos campaign ------------------------------------------------------------


def test_chaos_campaign_deterministic_across_jobs(monkeypatch):
    from repro.analysis.chaos import SCORECARD_COLUMNS, chaos_spec
    from repro.analysis.matrix import Scenario, run_matrix

    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    workload = Scenario(
        "synthetic",
        "synthetic",
        dict(num_requests=1500, num_targets=400, total_bytes=8 * 2**20,
             zipf_alpha=0.9, seed=11),
        warmup_fraction=0.0,
    )
    spec = chaos_spec(workload, num_nodes=3, node_cache_bytes=CACHE,
                      policies=("lard", "wrr"), seed=4)
    serial = run_matrix(spec, jobs=1)
    parallel = run_matrix(spec, jobs=2)
    assert serial == parallel
    assert all(set(SCORECARD_COLUMNS) == set(row) for row in serial)
    assert [(row["scenario"], row["policy"]) for row in serial] == [
        (scenario, policy)
        for scenario in ("none", "churn", "burst", "brownout")
        for policy in ("lard", "wrr")
    ]
    for row in serial:
        assert 0.0 < row["availability"] <= 1.0
        # The fault-free rows are their own baseline: recovered at once.
        if row["scenario"] == "none":
            assert row["recovery_tput_s"] == row["recovery_p99_s"] == 0.0
