"""Property-based tests for node failure and rejoin (paper Section 2.6).

Hypothesis generates arbitrary *valid* crash schedules — crash only an
alive node, never the last one; rejoin only a crashed one — detected
either at once (``detect_s=0``, the paper's loss-free membership
change) or after a lag, over one or four requests per connection,
sticky or re-handed-off.  For every one the simulator's fault-tolerance
invariants hold: every trace request is served or counted lost,
orphaned-connection accounting is consistent with the schedule, and no
request a node serves starts while the front-end knows that node is
down.
"""

import io

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cluster import ClusterConfig, ClusterSimulator, run_simulation
from repro.cluster.faults import CrashFault, FaultSchedule, RetryPolicy
from repro.obs import SpanWriter, parse_span_log
from repro.obs.tracer import SimTracer
from repro.workload import synthesize_trace
from tests.native_core import reference_core

NUM_NODES = 4
CACHE = 2**20


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(1500, 300, 4 * 2**20, 0.9, seed=11)


@pytest.fixture(scope="module")
def base_sim_time(trace):
    return run_simulation(
        trace, policy="lard/r", num_nodes=NUM_NODES, node_cache_bytes=CACHE
    ).sim_time_s


@st.composite
def crash_schedules(draw, num_nodes=NUM_NODES, max_events=8):
    """A valid schedule, in fractions of the fault-free run's simulated
    time: ``(at, detect, rejoin_at or None, node)`` per crash.  Events
    are at least 0.02 apart and a detection lag is at most 0.02, so a
    crash is detected before its node rejoins; only alive nodes crash
    (never the last one) and only crashed ones rejoin."""
    alive = [True] * num_nodes
    open_crash = {}
    crashes = []
    count = draw(st.integers(min_value=0, max_value=max_events))
    frac = 0.0
    for _ in range(count):
        frac += draw(st.floats(min_value=0.02, max_value=0.2, allow_nan=False))
        if frac >= 0.95:
            break
        choices = []
        if sum(alive) > 1:
            choices.extend(("crash", n) for n in range(num_nodes) if alive[n])
        choices.extend(("rejoin", n) for n in range(num_nodes) if not alive[n])
        action, node = draw(st.sampled_from(choices))
        alive[node] = action == "rejoin"
        if action == "crash":
            detect = draw(
                st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=0.02))
            )
            open_crash[node] = len(crashes)
            crashes.append([frac, detect, None, node])
        else:
            crashes[open_crash.pop(node)][2] = frac
    return tuple(tuple(crash) for crash in crashes)


def _schedule(fractions, sim_time):
    return FaultSchedule(
        crashes=tuple(
            CrashFault(
                node=node,
                at_s=at * sim_time,
                detect_s=detect * sim_time,
                rejoin_at_s=None if rejoin is None else rejoin * sim_time,
            )
            for at, detect, rejoin, node in fractions
        ),
        retry=RetryPolicy(
            max_retries=1,
            timeout_s=0.02 * sim_time,
            backoff_base_s=0.01 * sim_time,
            backoff_cap_s=0.05 * sim_time,
        ),
    )


_PERSISTENCE = st.tuples(st.sampled_from([1, 4]), st.sampled_from(["sticky", "rehandoff"]))


def _run(trace, policy, schedule, persistence, tracer=None):
    per_connection, persistent_policy = persistence
    config = ClusterConfig(
        policy=policy,
        num_nodes=NUM_NODES,
        node_cache_bytes=CACHE,
        requests_per_connection=per_connection,
        persistent_policy=persistent_policy,
        fault_schedule=schedule,
    )
    sim = ClusterSimulator(trace, config, tracer=tracer)
    return sim, sim.run()


def _check_accounting(trace, sim, result, schedule, persistence):
    # Every request in the trace is served or counted lost, whatever the
    # schedule (>=1 node stays alive by construction).
    assert sim.fault_runtime.served_requests + result.lost_requests == len(trace)
    assert result.num_requests == len(trace)
    # The paper's case is loss-free: with one request per connection and
    # every crash detected at once, nothing is dispatched to a node the
    # front-end does not know is down.
    if persistence[0] == 1 and all(crash.detect_s == 0 for crash in schedule.crashes):
        assert result.lost_requests == result.retried_requests == 0
    # Orphans need a failure, and one is counted per dispatch a failure
    # overtook: a connection's admission, each rehandoff and each retry
    # hand it to a node, so a rehandoff connection can be orphaned at
    # two (see the example pinned below).
    if not schedule.crashes:
        assert result.orphaned_connections == 0
    dispatches = result.connections + result.rehandoffs + result.retried_requests
    assert 0 <= result.orphaned_connections <= dispatches
    assert result.sim_time_s > 0


#: Crashes on nodes 0, 1, 2, 1 and 3, each detected at once, three of
#: them rejoining: under four-request rehandoff connections, 376
#: orphaned dispatches of 375 connections (and 684 rehandoffs), which
#: an orphan count bounded by the connections refused.
_TWICE_ORPHANED = (
    (0.0625, 0.0, 0.625, 0),
    (0.125, 0.0, 0.375, 1),
    (0.25, 0.0, None, 2),
    (0.5, 0.0, 0.875, 1),
    (0.75, 0.0, None, 3),
)


@settings(max_examples=15, deadline=None)
@given(fractions=crash_schedules(), persistence=_PERSISTENCE)
@example(fractions=_TWICE_ORPHANED, persistence=(4, "rehandoff"))
def test_any_valid_schedule_serves_full_trace(trace, base_sim_time, fractions, persistence):
    schedule = _schedule(fractions, base_sim_time)
    sim, result = _run(trace, "lard/r", schedule, persistence)
    _check_accounting(trace, sim, result, schedule, persistence)


@settings(max_examples=10, deadline=None)
@given(fractions=crash_schedules(max_events=4), persistence=_PERSISTENCE)
def test_schedules_equivalent_across_policies(trace, base_sim_time, fractions, persistence):
    """LARD (non-replicated) honors the same invariants under churn."""
    schedule = _schedule(fractions, base_sim_time)
    sim, result = _run(trace, "lard", schedule, persistence)
    _check_accounting(trace, sim, result, schedule, persistence)


def _served_starts_while_down(trace, schedule, persistence):
    """Served requests that started on a node between its detection and
    its rejoin, read from the run's span log."""
    buffer = io.StringIO()
    writer = SpanWriter(buffer, source="sim")
    _run(trace, "lard/r", schedule, persistence, tracer=SimTracer(writer))
    writer.close()
    spans = parse_span_log(buffer.getvalue().splitlines()).spans
    down = [
        (
            crash.node,
            crash.detected_at_s,
            float("inf") if crash.rejoin_at_s is None else crash.rejoin_at_s,
        )
        for crash in schedule.crashes
    ]
    return sum(
        1
        for span in spans
        if span.outcome != "lost"
        for node, detected, rejoined in down
        if span.node == node and detected <= span.t_dispatch < rejoined
    )


@settings(max_examples=10, deadline=None)
@given(fractions=crash_schedules(max_events=4), persistence=_PERSISTENCE)
def test_no_served_request_starts_on_a_node_known_to_be_down(
    trace, base_sim_time, fractions, persistence
):
    """A persistent connection does not go on serving from a node after
    the front-end has failed it: its next request times out there and is
    retried elsewhere."""
    schedule = _schedule(fractions, base_sim_time)
    assert _served_starts_while_down(trace, schedule, persistence) == 0


def test_a_sticky_connection_leaves_a_node_failed_under_it(trace, base_sim_time):
    """The case the property above was written for: LARD/R, eight
    requests per sticky connection, node 1 failed at 30% and detected at
    once.  The requests of the batches the failure caught are retried
    elsewhere, and none is lost; with one request per connection none is
    even retried.  (Before the failure was a crash detected at once, 275
    of this trace's requests started on node 1 after it had failed.)"""
    schedule = _schedule(((0.3, 0.0, None, 1),), base_sim_time)
    assert _served_starts_while_down(trace, schedule, (8, "sticky")) == 0
    _, batched = _run(trace, "lard/r", schedule, (8, "sticky"))
    assert batched.retried_requests > 0 and batched.lost_requests == 0
    _, single = _run(trace, "lard/r", schedule, (1, "sticky"))
    assert single.retried_requests == single.lost_requests == 0


def test_a_rehandoff_connection_leaves_a_node_failed_under_it(trace, base_sim_time):
    """The same failure under re-hand-off: the front-end re-runs the
    policy for each request of a batch, so a connection whose node it
    has already failed moves at once instead of sending its next request
    there, timing out and retrying (219 of this trace's requests were
    retried that way when the darkness check came first)."""
    schedule = _schedule(((0.3, 0.0, None, 1),), base_sim_time)
    assert _served_starts_while_down(trace, schedule, (8, "rehandoff")) == 0
    _, batched = _run(trace, "lard/r", schedule, (8, "rehandoff"))
    assert batched.retried_requests == batched.lost_requests == 0


def test_an_orphan_is_counted_per_dispatch_on_both_cores(trace, base_sim_time):
    """A rehandoff connection is dispatched again at each move, and a
    failure can overtake it at two nodes: both cores count the orphans
    alike, more of them than connections and none past the dispatches."""
    schedule = _schedule(_TWICE_ORPHANED, base_sim_time)
    _, result = _run(trace, "lard/r", schedule, (4, "rehandoff"))
    with reference_core():
        _, reference = _run(trace, "lard/r", schedule, (4, "rehandoff"))
    assert result == reference
    dispatches = result.connections + result.rehandoffs + result.retried_requests
    assert result.connections < result.orphaned_connections <= dispatches
