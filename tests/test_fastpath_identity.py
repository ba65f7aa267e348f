"""Byte-identity: the state machine vs the generator reference oracle.

``repro.cluster.fastpath`` runs the request lifecycle as an explicit
state machine; its contract is that every simulation output — counters,
delays, busy-time integrals, per-node series — is *equal*, not merely
close, to what the coroutine lifecycle in ``tests/cluster_oracle.py``
produces.  These tests run the same simulation on both (``fastpath=False``
swaps a built simulator onto the oracle) and compare entire result
dataclasses.
"""

import dataclasses
import gc
import hashlib
import io
import json
import types

import pytest

from repro.cluster.fastpath import FastConnection, FaultyConnection
from repro.cluster.faults import CrashFault, FaultSchedule
from repro.cluster.frontend import FrontEnd
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.obs import SpanWriter
from repro.obs.tracer import SimTracer
from repro.sim import SimulationError
from repro.workload import cgi_mix_trace
from repro.workload.synthetic import synthesize_trace
from repro.workload.trace import Trace
from tests.cluster_oracle import use_oracle
from tests.native_core import native_available, reference_core
from tests.seeded_mutation import assert_selected_tests_fail
from tests.test_cluster_differential import _schedule


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(
        num_requests=3000,
        num_targets=400,
        total_bytes=64 * 2**20,
        zipf_alpha=1.0,
        seed=11,
    )


def _run(trace, fastpath, **kwargs):
    sim = ClusterSimulator(trace, ClusterConfig(**kwargs))
    if not fastpath:
        use_oracle(sim)
    return dataclasses.asdict(sim.run())


def _sha256(result_dict):
    """The digest of ``asdict(result)`` as the pins below were taken,
    when the result also held ``timeline`` (completions per bucket: no
    run here asked for buckets) and an ``extra`` nothing wrote."""
    recorded = dict(result_dict, timeline={}, extra={})
    return hashlib.sha256(json.dumps(recorded, sort_keys=True).encode()).hexdigest()


#: Paper Section 2.6: node 1 fails at 0.5 s — a crash the front-end
#: detects at once — and rejoins cold at 1.5 s.
_FAILOVER = FaultSchedule(
    crashes=(CrashFault(1, at_s=0.5, detect_s=0.0, rejoin_at_s=1.5),)
)

_CONFIGS = [
    dict(policy="lard", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lard/r", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="wrr", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lb/gc", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="wrr/gms", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lard/r", num_nodes=2, node_cache_bytes=2**18, disks_per_node=3),
    dict(policy="lard", num_nodes=4, node_cache_bytes=2**19, coalesce_reads=False),
    dict(policy="lard/r", num_nodes=3, node_cache_bytes=2**19, fault_schedule=_FAILOVER),
    # Policy-zoo strategies: the seeded-RNG contract (entropy consumed
    # only inside choose, once per admitted request) must keep the
    # flattened fast path byte-identical to the generator twin.
    dict(policy="chash", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod/lc", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod/lc", num_nodes=4, node_cache_bytes=2**19, policy_seed=7),
    dict(policy="pod", num_nodes=3, node_cache_bytes=2**19, fault_schedule=_FAILOVER),
    # Persistent connections: a batch per pooled object, pinned below
    # against what the generator lifecycle produced on a7b00b5.
    dict(
        policy="lard/r",
        num_nodes=4,
        node_cache_bytes=2**19,
        requests_per_connection=4,
        persistent_policy="sticky",
    ),
    dict(
        policy="lard/r",
        num_nodes=4,
        node_cache_bytes=2**19,
        requests_per_connection=4,
        persistent_policy="rehandoff",
    ),
    dict(
        policy="lb/gc",
        num_nodes=4,
        node_cache_bytes=2**19,
        requests_per_connection=4,
        persistent_policy="rehandoff",
    ),
]

# sha256 of json.dumps(asdict(result), sort_keys=True) on the generator
# path, recorded on a7b00b5 — when the plain lifecycle, its traced copy
# and the one-request-per-connection loop were still separate bodies —
# so the merged lifecycle is checked against what they produced, not
# against itself.
_PARENT_GENERATOR_SHA256 = {
    "lard/r-4-524288": "135ed5a39d02c218915ea4a1e83e10eb0a7ac73aa8b53706c2c5f1a1512a1194",
    "lard/r-4-524288-4-sticky": "4f17dcc074d5889984c3f3609b42eef73266045fdbe5cb36cb51ddc5c9d542a2",
    "lard/r-4-524288-4-rehandoff": "e430fd25e53b60855335cd52a615e23e3cc5d4bb6d6a101db50bc34638faa660",
    "lb/gc-4-524288-4-rehandoff": "91c63a668aedb9fb9deaad5ce7985958fce93075fbace0eaf0dd414613f5f1a8",
    # Recorded on da7f422, where this failure was a declarative
    # fail/join schedule beside the fault model: as a crash detected at
    # once it must give the same result to the byte.
    "lard/r-3-524288-((0.5, 'fail', 1), (1.5, 'join', 1))": (
        "6f01c01d5ca59cd332191b15bd02b43f2a69fdfe736abc81262993ba018e48a1"
    ),
    "pod-3-524288-((0.5, 'fail', 1), (1.5, 'join', 1))": (
        "264c6a3fca2af2b79c61a114b487527f93bb166cd0ceb0184c625a77118e398a"
    ),
}


def _value_id(value):
    """A config value as it appears in a test id; a schedule of crashes
    detected at once reads as the fail/join transitions it makes."""
    if isinstance(value, FaultSchedule):
        events = []
        for crash in value.crashes:
            events.append((crash.at_s, "fail", crash.node))
            events.append((crash.rejoin_at_s, "join", crash.node))
        return str(tuple(events))
    return str(value)


def _config_id(config):
    return "-".join(_value_id(v) for v in config.values())


#: What keeps a configuration off the compiled core.
_REFERENCE_ONLY = ("lb/gc", "wrr/gms", "disks_per_node")


def _native_covers(config):
    return not any(
        key in _REFERENCE_ONLY or value in _REFERENCE_ONLY for key, value in config.items()
    )


@pytest.mark.parametrize("config", _CONFIGS, ids=_config_id)
def test_fastpath_matches_generator_path(trace, config):
    """The plain configurations take the compiled core where it is
    built (the rest ``fastpath.py``), and must not notice."""
    sim = ClusterSimulator(trace, ClusterConfig(**config))
    fast = dataclasses.asdict(sim.run())
    native = _native_covers(config) and native_available()
    assert sim.core == ("native" if native else "python")
    slow = _run(trace, fastpath=False, **config)
    assert fast == slow
    pinned = _PARENT_GENERATOR_SHA256.get(_config_id(config))
    if pinned is not None:
        assert _sha256(slow) == pinned


@pytest.mark.parametrize(
    "config", [c for c in _CONFIGS if _native_covers(c)], ids=_config_id
)
def test_reference_core_matches_generator_path(trace, config):
    """The same plain configurations on ``fastpath.py``, as a machine
    without a C compiler runs them."""
    with reference_core():
        sim = ClusterSimulator(trace, ClusterConfig(**config))
        fast = dataclasses.asdict(sim.run())
    assert sim.core == "python"
    assert fast == _run(trace, fastpath=False, **config)


def _conn_class(sim):
    """The connection class the run was built from: chosen once, by
    ``FrontEnd.start()``, and still readable after ``run()`` has
    released the pool."""
    return sim.frontend.conn_class


def test_fastpath_is_actually_selected(trace, monkeypatch):
    """There is no other lifecycle to fall back to: the paper's standard
    configuration and a persistent one run the same connection class —
    an HTTP/1.0 connection is a batch of one — and the oracle hook
    builds no connection at all."""
    config = dict(policy="lard/r", num_nodes=4, node_cache_bytes=2**19)
    sim = ClusterSimulator(trace, ClusterConfig(**config))
    sim.run()
    assert _conn_class(sim) is FastConnection
    persistent = ClusterSimulator(
        trace, ClusterConfig(requests_per_connection=4, **config)
    )
    persistent.run()
    assert _conn_class(persistent) is FastConnection

    def no_connection(frontend):
        raise AssertionError("the oracle run built a state-machine connection")

    monkeypatch.setattr(FrontEnd, "new_connection", no_connection)
    reference = use_oracle(ClusterSimulator(trace, ClusterConfig(**config)))
    assert reference.run().num_requests == len(trace)


def _parked_during(sim, every_s=0.01):
    """Run ``sim``; return the connections that probe events inside the
    run saw parked in the pool (``run()`` releases the pool when it
    ends, so it has to be looked at from the inside)."""
    parked = {}

    def probe():
        parked.update((id(conn), conn) for conn in sim.frontend.pool)
        if not sim.frontend.done:
            sim.engine.schedule(every_s, probe)

    sim.engine.schedule(every_s, probe)
    sim.run()
    return list(parked.values())


def test_pooled_connections_share_one_schedule_object(trace):
    """A per-object binding of the engine's scheduling entry would
    allocate one callable per pooled connection; every class takes the
    engine's single ``push`` and ``seqs``.  And a connection binds
    nothing to itself: its events are its class's stage functions
    scheduled with it, so nothing it holds is a method."""
    for extra in (dict(), dict(requests_per_connection=4)):
        config = ClusterConfig(
            policy="lard/r", num_nodes=4, node_cache_bytes=2**19, **extra
        )
        with SpanWriter(io.StringIO(), source="sim") as writer:
            traced = ClusterSimulator(trace, config, tracer=SimTracer(writer))
            traced_parked = _parked_during(traced)
        untraced = ClusterSimulator(trace, config)
        for run, parked in ((traced, traced_parked), (untraced, _parked_during(untraced))):
            assert len(parked) > 1
            cls = _conn_class(run)
            assert {type(conn) for conn in parked} == {cls}
            frontend, engine = run.frontend, run.engine
            assert all(
                conn.push is engine.push and conn.seqs is engine.seqs
                for conn in parked
            )
            for conn in parked:
                assert conn.advance_stage is cls._advance
                held = gc.get_referents(conn)
                assert not any(isinstance(ref, types.MethodType) for ref in held)
            # run() released them: the pool is gone.
            assert frontend.pool == []


# -- the traced state machine ---------------------------------------------------
#
# A tracer observes the state machine through stage wrappers.  The
# oracle's span support is the reference, so the comparison is over
# span-log *bytes* — every phase float, outcome, dispatch-load snapshot
# and 0.05 s sample, in order.


@pytest.fixture(scope="module")
def cgi_trace():
    return cgi_mix_trace(
        num_requests=2000,
        num_targets=300,
        total_bytes=48 * 2**20,
        zipf_alpha=1.0,
        dynamic_fraction=0.15,
        cpu_cost_s=0.02,
        seed=11,
    )


def _run_traced(trace, fastpath, **kwargs):
    sink = io.StringIO()
    with SpanWriter(sink, source="sim") as writer:
        tracer = SimTracer(writer, sample_interval_s=0.05)
        sim = ClusterSimulator(trace, ClusterConfig(**kwargs), tracer=tracer)
        if not fastpath:
            use_oracle(sim)
        result = dataclasses.asdict(sim.run())
    return sim, result, sink.getvalue()


_ONE_REQUEST = [c for c in _CONFIGS if c.get("requests_per_connection", 1) == 1]


@pytest.mark.parametrize("config", _CONFIGS, ids=_config_id)
def test_traced_state_machine_matches_generator_span_log(trace, config):
    sim, fast, fast_log = _run_traced(trace, fastpath=True, **config)
    _, slow, slow_log = _run_traced(trace, fastpath=False, **config)
    assert fast_log == slow_log
    assert fast == slow == _run(trace, fastpath=True, **config)
    assert fast_log.count('"kind":"span"') == len(trace)
    assert fast_log.count('"kind":"sample"') >= 2
    # ...and it really was the state machine, one class for every batch
    # length, traced or not (its faulty form under a fault schedule).
    faulty = "fault_schedule" in config
    assert _conn_class(sim) is (FaultyConnection if faulty else FastConnection)


def test_traced_state_machine_matches_generator_on_cgi(cgi_trace):
    config = dict(policy="lard/r", num_nodes=3, node_cache_bytes=2**19)
    _, fast, fast_log = _run_traced(cgi_trace, fastpath=True, **config)
    _, slow, slow_log = _run_traced(cgi_trace, fastpath=False, **config)
    assert fast_log == slow_log and fast == slow
    assert '"outcome":"dynamic"' in fast_log


def test_every_outcome_is_exercised(trace):
    """The configs above are only a proof if, between them, they drive
    every data path the wrappers have to time."""
    seen = set()
    for config in (c for c in _ONE_REQUEST if c["policy"] in ("lard", "wrr/gms")):
        _, _, log = _run_traced(trace, fastpath=True, **config)
        seen.update(
            json.loads(line)["outcome"]
            for line in log.splitlines()
            if '"kind":"span"' in line
        )
    assert {"hit", "miss", "coalesced", "gms_local", "gms_remote"} <= seen


@pytest.mark.parametrize(
    "config",
    [c for c in _CONFIGS if c["policy"] == "lard/r" and "disks_per_node" not in c],
    ids=_config_id,
)
def test_traced_and_sanitized_together_change_nothing(trace, config):
    """Both observers on one run: the span log is the one either
    lifecycle writes alone, the result the one an unobserved run gives."""
    _, both, both_log = _run_traced(
        trace, fastpath=True, sanitize=True, sanitize_interval=16, **config
    )
    _, _, reference_log = _run_traced(trace, fastpath=False, **config)
    assert both_log == reference_log
    assert both == _run(trace, fastpath=True, **config)


def test_untraced_run_builds_untraced_connections(trace):
    sim = ClusterSimulator(
        trace, ClusterConfig(policy="lard/r", num_nodes=4, node_cache_bytes=2**19)
    )
    sim.run()
    assert _conn_class(sim) is FastConnection


# -- services that do not end after now -----------------------------------------
#
# A service that ends strictly after the clock is pushed straight onto
# the engine's heap; any other duration goes through ``engine.post``,
# which stages a zero one behind the events already due now and refuses
# a NaN or negative one.  An empty file is the zero: 0 bytes, 0 transmit
# units, a 0.0 s transmit on every path that serves it.

_ZERO_CONFIGS = [
    dict(policy="lard", num_nodes=2, node_cache_bytes=2**18),
    dict(policy="wrr", num_nodes=3, node_cache_bytes=2**18),
    dict(policy="lard/r", num_nodes=3, node_cache_bytes=2**18, requests_per_connection=4),
]


@pytest.fixture(scope="module")
def empty_file_trace(trace):
    """``trace`` with every fifth target an empty file."""
    sizes = trace.sizes_by_target.copy()
    sizes[::5] = 0
    return Trace(trace.targets, sizes, name=trace.name)


@pytest.mark.parametrize("config", _ZERO_CONFIGS, ids=_config_id)
def test_a_zero_length_service_is_staged_as_the_oracle_stages_it(empty_file_trace, config):
    sim, fast, fast_log = _run_traced(empty_file_trace, fastpath=True, **config)
    oracle, slow, slow_log = _run_traced(empty_file_trace, fastpath=False, **config)
    assert sim.engine.events_dispatched == oracle.engine.events_dispatched
    assert fast == slow
    # Digests: a diff of two megabyte logs would take pytest minutes.
    assert hashlib.sha256(fast_log.encode()).digest() == hashlib.sha256(slow_log.encode()).digest()
    untraced = []
    for on_oracle in (False, True):
        plain = ClusterSimulator(empty_file_trace, ClusterConfig(**config))
        if on_oracle:
            use_oracle(plain)
        untraced.append((dataclasses.asdict(plain.run()), plain.engine.events_dispatched))
    assert untraced[0] == untraced[1]
    assert untraced[0][0] == fast
    # Empty files were served, from the cache and from disk.
    spans = [json.loads(line) for line in fast_log.splitlines() if '"kind":"span"' in line]
    assert {"hit", "miss"} <= {span["outcome"] for span in spans if span["size"] == 0}


@pytest.mark.parametrize("bad", [float("nan"), -1e-3, -5e-324], ids=["nan", "neg", "neg-subnormal"])
@pytest.mark.parametrize("service", ["_conn_time", "_teardown_time"])
def test_a_nan_or_negative_service_time_raises_where_it_is_scheduled(trace, service, bad):
    sim = ClusterSimulator(trace, ClusterConfig(policy="lard/r", num_nodes=3))
    for node in sim.nodes:
        setattr(node, service, bad)
    with pytest.raises(SimulationError, match="past or at NaN"):
        sim.run()
    # No request got past the bad service: the first establishment, at
    # time 0, or the first teardown, before any completion.
    assert sim.frontend.completed == 0
    if service == "_conn_time":
        assert sim.engine.now == 0.0


# Every service pushed, a zero one onto the heap at the current instant
# instead of behind the events already staged there.
_PUSH_UNCONDITIONALLY = (
    "cluster/fastpath.py",
    "            when = now + duration\n"
    "            if when > now:\n"
    "                self.push((when, next(self.seqs), self.advance_stage, self))\n"
    "            else:\n"
    "                self.engine.post(duration, self.advance_stage, self)\n"
    "\n    def _join_pending",
    "            when = now + duration\n"
    "            self.push((when, next(self.seqs), self.advance_stage, self))\n"
    "\n    def _join_pending",
)


def test_seeded_push_unconditionally_is_caught(tmp_path):
    assert_selected_tests_fail(
        tmp_path, *_PUSH_UNCONDITIONALLY, __file__, "zero_length_service"
    )


# -- start events that run in place ---------------------------------------------
#
# An admission stages its connection's start event, or — when that event
# would be the very next one dispatched — runs it on the spot and counts
# it.  The comparisons above pin the order of everything that follows;
# what they cannot see is the count, which the oracle (it stages every
# start) supplies.  A sanitizer's hook still sees every event: the site
# that runs a start in place calls it.

_INPLACE_CASES = {
    "one-request": dict(),
    "persistent": dict(requests_per_connection=4),
    "faulty": dict(fault_schedule=_schedule(3)),
    "membership": dict(fault_schedule=_FAILOVER),
}


def _counted(trace, traced=False, oracle=False, **config):
    """``(events dispatched, events scheduled, result, sanitizer)`` of
    one run."""
    config = ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=2**19, **config)
    tracer = SimTracer(SpanWriter(io.StringIO(), source="sim")) if traced else None
    sim = ClusterSimulator(trace, config, tracer=tracer)
    if oracle:
        use_oracle(sim)
    result = sim.run()
    return sim.engine.events_dispatched, sim.engine.scheduled, result, sim.sanitizer


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(_INPLACE_CASES))
def test_in_place_starts_are_counted_as_the_events_they_replace(trace, case, traced):
    config = _INPLACE_CASES[case]
    events, scheduled, result, _ = _counted(trace, traced, **config)
    all_staged, all_scheduled, reference, _ = _counted(trace, traced, oracle=True, **config)
    assert events == all_staged == all_scheduled
    assert result == reference
    # Vacuous if nothing ran in place; a traced batch class admits in
    # place only at a completion that frees one slot, which these runs
    # all have.
    assert scheduled < events


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(_INPLACE_CASES))
def test_the_sanitizer_hook_sees_every_event(trace, case, traced):
    """Starts run in place under a sanitizer too, and its hook is
    called for each of them: as many events seen as dispatched, as many
    dispatched as without it, and the same result."""
    config = _INPLACE_CASES[case]
    events, scheduled, result, _ = _counted(trace, traced, **config)
    checked, checked_scheduled, checked_result, sanitizer = _counted(
        trace, traced, sanitize=True, sanitize_interval=64, **config
    )
    assert sanitizer.events_seen == checked == events
    assert checked_scheduled == scheduled < events
    assert checked_result == result


@pytest.mark.parametrize("max_in_flight", [1, 7])
def test_initial_fill_is_staged(trace, max_in_flight):
    """Nothing runs before ``engine.run()``: not even a fill of one,
    which finds both of the engine's queues empty.  (On the reference:
    the compiled core writes ``in_flight`` back when the run ends.)"""
    sim = ClusterSimulator(
        trace,
        ClusterConfig(policy="wrr", num_nodes=3, requests_per_connection=2,
                      max_in_flight=max_in_flight),
    )
    with reference_core():
        engine = sim.engine  # made at first use: engine.py here
        sim.frontend.start()
    assert engine.events_dispatched == 0
    assert engine.pending == sim.frontend.in_flight == max_in_flight
    assert all(node.cpu.busy == 0 for node in sim.nodes)


def test_admit_loop_stages_a_start_behind_an_event_due_now(trace):
    """The admission loop (here refilling a raised limit; completions
    carry their own single admission) runs a start in place only when
    nothing else is due at that instant."""
    sim = ClusterSimulator(
        trace, ClusterConfig(policy="wrr", num_nodes=3, max_in_flight=2)
    )
    engine, frontend = sim.engine, sim.frontend
    ran_in_place = []

    def raise_limit():
        frontend.max_in_flight += 1
        before = engine.events_dispatched
        frontend.admit()
        ran_in_place.append(engine.events_dispatched - before)

    engine.schedule(0.01, raise_limit)
    engine.schedule(0.01, lambda: None)  # due at 0.01 too: it goes first
    engine.schedule(0.02, raise_limit)
    sim.run()
    assert ran_in_place == [0, 1]


# name -> (file under src/repro, anchor, replacement, ``-k`` selector of
# the tests in this file that fail on it).  The admission loop is
# ``FrontEnd.admit``; a completion's single admission is in
# ``FastConnection._complete``; both ask ``Engine.runs_next`` whether the
# start would be dispatched next (a Python mutation runs on engine.py).
_INPLACE_MUTATIONS = {
    "in-place-start-without-the-heap-top-check": (
        "sim/engine.py",
        "        return not (self._nowq or self._stopped) and (not queue or queue[0][0] > self.now)\n",
        "        return not (self._nowq or self._stopped)\n",
        "test_fastpath_matches_generator_path and lard-4-524288",
    ),
    "in-place-start-in-the-admit-loop-without-the-heap-top-check": (
        "cluster/frontend.py",
        "            if self.inplace and engine.runs_next():\n",
        "            if self.inplace and not (engine._nowq or engine._stopped):\n",
        "test_admit_loop_stages_a_start_behind_an_event_due_now",
    ),
    "in-place-start-in-a-traced-admit-loop": (
        "cluster/frontend.py",
        "self.inplace: bool = self.tracer is None",
        "self.inplace: bool = True",
        "test_traced_state_machine_matches_generator_span_log and join",
    ),
    "in-place-start-not-counted": (
        "cluster/fastpath.py",
        "            if engine.runs_next():\n                engine.events_dispatched += 1\n",
        "            if engine.runs_next():\n",
        "test_in_place_starts_are_counted and one-request",
    ),
    "in-place-start-skips-the-sanitizer-hook": (
        "cluster/fastpath.py",
        "                self.begin_stage(self)\n"
        "                if engine._sanitizer is not None:\n"
        "                    engine._sanitizer(now, self.begin_stage)\n            else:\n"
        "                engine.post(0.0, self.begin_stage, self)\n        else:\n"
        "            # Nothing to admit",
        "                self.begin_stage(self)\n"
        "            else:\n"
        "                engine.post(0.0, self.begin_stage, self)\n        else:\n"
        "            # Nothing to admit",
        "test_the_sanitizer_hook_sees_every_event and one-request",
    ),
    "in-place-start-before-the-engine-runs": (
        "sim/engine.py",
        "        return not (self._nowq or self._stopped) and (not queue or queue[0][0] > self.now)\n",
        "        return not self._nowq and (not queue or queue[0][0] > self.now)\n",
        "test_initial_fill_is_staged",
    ),
}


@pytest.mark.parametrize("name", sorted(_INPLACE_MUTATIONS))
def test_seeded_in_place_mutation_is_caught(name, tmp_path):
    relpath, anchor, replacement, selector = _INPLACE_MUTATIONS[name]
    assert_selected_tests_fail(tmp_path, relpath, anchor, replacement, __file__, selector)
