"""Memory lifetime of a cluster simulation: what ``ClusterSimulator.run()``
may pause the cyclic collector for, and what it owes in return.

``run()`` disables ``gc`` while the trace is served.  That is sound only
if the three invariants below hold, so each is a test:

(a) **no run creates cyclic garbage** — collect, disable the collector,
    run, and a full collection then finds nothing unreachable that
    belongs to ``repro`` (instances, bound methods, closures);
(b) **a finished simulator is freed by reference count** — with the
    collector off, ``del simulator`` kills the front-end, a node, its
    CPU and cache, the policy, the tracker, the engine, the GMS and the
    fault runtime.  The allowed residue is *nothing*: ``Resource`` no
    longer pre-binds ``_finish`` to itself and the GMS / LB-GC evict
    listeners close over the tables they update, not over their owner;
(c) **the collector is put back as it was** — after a normal run, after
    a run that raises, and when the caller had it off.

Both (a) and (b) run over every configuration that picks a different
connection class, observer or cache system.  CI runs this file a second
time under ``REPRO_SANITIZE=1``, which installs the engine hook — the
link most likely to grow back — on all of them.

The tests have teeth: ``MUTATIONS`` seeds one realistic slip each into a
copy of the package and ``test_seeded_mutation_is_caught`` shows the
named tests failing on it.
"""

from __future__ import annotations

import gc
import io
import subprocess
import sys
import tracemalloc
import types
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.obs import SpanWriter
from repro.obs.tracer import SimTracer
from repro.sim import SanitizerError
from tests.seeded_mutation import mutated_env
from tests.test_cluster_differential import CACHE, NUM_NODES, _schedule, _trace

#: Crashes, rejoins, brownouts and lost requests: the differential
#: test's lossy case (seed 5, short MTTF, no retries).
_LOSSY = _schedule(5, 0.15, 0)

#: name -> (CGI trace, config overrides, attach a sampling tracer).
CASES = {
    "one-request": (False, dict(policy="lard/r"), False),
    "sticky": (False, dict(policy="lard/r", requests_per_connection=4), False),
    "rehandoff": (
        False,
        dict(policy="lard/r", requests_per_connection=4, persistent_policy="rehandoff"),
        False,
    ),
    "faulty": (
        False,
        dict(policy="lard/r", fault_schedule=_LOSSY, timeline_interval_s=0.5,
             requests_per_connection=4, persistent_policy="rehandoff"),
        False,
    ),
    "traced": (False, dict(policy="lard"), True),
    "traced-faulty": (False, dict(policy="wrr", fault_schedule=_LOSSY), True),
    "sanitized": (
        False, dict(policy="lard/r", sanitize=True, sanitize_interval=16), False
    ),
    "wrr/gms": (False, dict(policy="wrr/gms"), False),
    "lb/gc": (False, dict(policy="lb/gc"), False),
    "cgi": (True, dict(policy="lard/r", collect_delays=True), False),
    "membership": (
        False,
        dict(policy="lard/r", membership_events=((1.0, "fail", 1), (3.0, "join", 1))),
        False,
    ),
}


def _build(case, sink=None):
    cgi, overrides, traced = CASES[case]
    config = ClusterConfig(num_nodes=NUM_NODES, node_cache_bytes=CACHE, **overrides)
    tracer = None
    if traced:
        tracer = SimTracer(SpanWriter(sink, source="sim"), sample_interval_s=0.05)
    return ClusterSimulator(_trace(cgi), config, tracer=tracer)


@pytest.fixture
def collector_off():
    """Start from a collected heap with the collector disabled; put the
    collector back however the test ends."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _owner_module(obj):
    """The module an unreachable object belongs to: its class's, or for
    a bound method / function the one its code came from."""
    if isinstance(obj, types.MethodType):
        obj = obj.__self__
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or ""
    return type(obj).__module__


def _repro_garbage():
    """What a full collection finds unreachable, ``repro``'s share of it."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    gc.set_debug(0)
    found = [obj for obj in gc.garbage if _owner_module(obj).startswith("repro")]
    gc.garbage.clear()
    return Counter(f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in found)


# -- (a) no run creates cyclic garbage ------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_run_creates_no_cyclic_garbage(case, collector_off):
    simulator = _build(case, io.StringIO())
    result = simulator.run()
    assert result.num_requests == 900
    # The simulator is still referenced: whatever is unreachable now was
    # made and dropped by the run (or by the release at its end).
    assert _repro_garbage() == {}


def test_the_cases_exercise_what_they_name():
    """The parametrization above is only a proof if its runs lose
    requests, retry, rehandoff, coalesce, serve CGI and fail nodes."""
    faulty = _build("faulty").run()
    assert faulty.lost_requests > 0 and faulty.rehandoffs > 0
    assert faulty.orphaned_connections > 0 and faulty.degraded is not None
    assert _build("one-request").run().coalesced_reads > 0
    assert _build("wrr/gms").run().gms_remote_hits > 0
    assert _build("cgi").run().dynamic_requests > 0
    assert _build("membership").run().orphaned_connections > 0
    sink = io.StringIO()
    _build("traced", sink).run()
    assert '"kind":"sample"' in sink.getvalue()


# -- (b) a finished simulator is freed by reference count -----------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_finished_simulator_is_freed_without_the_collector(case, collector_off):
    simulator = _build(case, io.StringIO())
    simulator.run()
    node = simulator.nodes[0]
    watched = {
        "frontend": simulator.frontend,
        "engine": simulator.engine,
        "node": node,
        "cpu": node.cpu,
        "cache": node.cache,
        "policy": simulator.policy,
        "tracker": simulator.tracker,
        "gms": simulator.gms,
        "fault_runtime": simulator.fault_runtime,
        "sanitizer": simulator.sanitizer,
    }
    refs = {
        name: weakref.ref(obj) for name, obj in watched.items() if obj is not None
    }
    assert {"frontend", "node", "policy", "tracker"} <= set(refs)
    del watched, node
    del simulator
    # No residue: every one of them is gone, and nothing was left for a
    # collector pass to find either.
    assert sorted(name for name, ref in refs.items() if ref() is not None) == []
    assert _repro_garbage() == {}


@pytest.mark.parametrize("case", ["one-request", "faulty", "traced-faulty"])
def test_a_pooled_connection_is_one_allocation(case):
    """A connection's events are its class's stage functions posted with
    it, so building one allocates the object and nothing else — no
    method bound to it per stage, which at 1024 nodes, where the whole
    trace is admitted at once, is 20k objects rather than 100k."""
    simulator = _build(case, io.StringIO())
    frontend = simulator.frontend
    frontend.start()
    # The front-end allocates the object, the connection class's
    # ``__init__`` anything else.
    only_here = [
        tracemalloc.Filter(True, sys.modules[cls.__module__].__file__)
        for cls in (type(frontend), frontend.conn_class)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_here)
        built = [frontend.new_connection() for _ in range(200)]
        after = tracemalloc.take_snapshot().filter_traces(only_here)
    finally:
        tracemalloc.stop()
    assert len(built) == 200
    assert sum(stat.count_diff for stat in after.compare_to(before, "filename")) == 200


def test_a_tracer_the_caller_keeps_does_not_keep_the_cluster(collector_off):
    simulator = _build("traced", io.StringIO())
    tracer = simulator.tracer
    simulator.run()
    frontend = weakref.ref(simulator.frontend)
    del simulator
    assert frontend() is None
    assert tracer.spans_finished == 900 and tracer.samples


def test_what_callers_read_after_run_is_still_there():
    simulator = _build("faulty")
    result = simulator.run()
    assert simulator.frontend.completed == result.num_requests
    assert simulator.frontend.connections == result.connections
    assert simulator.engine.events_dispatched > result.num_requests
    assert simulator.engine.now == result.sim_time_s
    assert sum(n.requests_served for n in simulator.nodes) + result.lost_requests == 900
    assert sum(n.cpu.jobs_served for n in simulator.nodes) > 0
    assert any(len(n.cache) for n in simulator.nodes)
    assert simulator.policy.completions <= simulator.policy.dispatches
    assert simulator.tracker.mean_underutilized_fraction(result.sim_time_s) >= 0.0
    runtime = simulator.fault_runtime
    assert runtime.lost_requests == result.lost_requests
    assert runtime.served_requests + runtime.lost_requests == 900
    assert runtime.events and runtime.degraded_timeline() == result.degraded
    sanitized = _build("sanitized")
    sanitized.run()
    assert sanitized.sanitizer.events_seen == sanitized.engine.events_dispatched
    assert sanitized.sanitizer.deep_sweeps > 0


# -- (c) the collector is put back as it was ------------------------------------


def _collector_states(simulator):
    """Run ``simulator``; return whether the collector was enabled at
    each of a few instants inside the run."""
    seen = []
    for when in (0.0, 0.5, 2.0):
        simulator.engine.schedule(when, lambda: seen.append(gc.isenabled()))
    simulator.run()
    return seen


def test_collector_is_paused_during_a_run_and_back_on_after():
    assert gc.isenabled()
    assert _collector_states(_build("one-request")) == [False, False, False]
    assert gc.isenabled()


def test_collector_stays_off_when_the_caller_had_it_off(collector_off):
    assert _collector_states(_build("one-request")) == [False, False, False]
    assert not gc.isenabled()


def test_collector_is_back_on_after_a_stalled_run():
    simulator = _build("one-request")
    simulator.engine.schedule(1.0, simulator.engine.stop)
    with pytest.raises(RuntimeError, match="simulation stalled"):
        simulator.run()
    assert gc.isenabled()


def test_collector_is_back_on_after_a_sanitizer_violation():
    simulator = _build("sanitized")

    def corrupt():
        simulator.nodes[0].cpu._busy = -1

    simulator.engine.schedule(1.0, corrupt)
    with pytest.raises(SanitizerError, match="negative busy"):
        simulator.run()
    assert gc.isenabled()


# -- seeded mutations -----------------------------------------------------------
#
# name -> (file under src/repro, anchor, replacement, ``-k`` expression
# selecting the tests that must fail on it).

MUTATIONS = {
    "peers-link-left-in-place": (
        "cluster/simulator.py",
        "            node.peers = ()\n",
        "            pass\n",
        "freed_without_the_collector and one-request",
    ),
    "sanitizer-hook-left-installed": (
        "cluster/simulator.py",
        "        self.engine.install_sanitizer(None)\n",
        "",
        "freed_without_the_collector and sanitized",
    ),
    "fault-runtime-keeps-the-frontend": (
        "cluster/faults.py",
        "        self.frontend = None\n",
        "",
        "freed_without_the_collector and faulty",
    ),
    "release-keeps-its-pool": (
        "cluster/frontend.py",
        "        self.pool.clear()\n",
        "",
        "freed_without_the_collector and sticky",
    ),
    "per-request-self-reference-on-a-connection": (
        "cluster/fastpath.py",
        "                node._pending[self.target] = [self]\n",
        "                self.hit_hint = self._coalesced\n"
        "                node._pending[self.target] = [self]\n",
        "creates_no_cyclic_garbage and one-request",
    ),
    "evict-listener-closes-over-its-owner": (
        "cache/gms.py",
        "            stats.evictions += 1\n",
        "            self.stats.evictions += 1\n",
        "freed_without_the_collector and gms",
    ),
    "collector-restored-only-on-success": (
        "cluster/simulator.py",
        "        try:\n            return self._serve()\n        finally:\n"
        "            if collecting:\n                gc.enable()\n",
        "        result = self._serve()\n        if collecting:\n"
        "            gc.enable()\n        return result\n",
        "stalled_run or sanitizer_violation",
    ),
    "collector-switched-on-for-a-caller-who-had-it-off": (
        "cluster/simulator.py",
        "            if collecting:\n                gc.enable()\n",
        "            gc.enable()\n",
        "caller_had_it_off",
    ),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_is_caught(name, tmp_path):
    relpath, anchor, replacement, selector = MUTATIONS[name]
    verdict = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "addopts=", str(Path(__file__).resolve()), "-k", selector],
        env=mutated_env(tmp_path, relpath, anchor, replacement),
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    # 1: pytest ran the selected tests and at least one failed.
    assert verdict.returncode == 1, verdict.stdout + verdict.stderr
    assert " failed" in verdict.stdout
