"""Differential test: the connection state machine vs the coroutine oracle.

``repro.cluster.fastpath`` is the only request lifecycle ``src/`` ships;
``tests/cluster_oracle.py`` keeps the generator lifecycle it replaced.
Hypothesis draws a policy, a connection shape (1, 2, 4 or 7 requests,
``sticky`` or ``rehandoff``), a seeded fault schedule with crashes *and*
brownouts (so retries, lost requests, rejoins and per-node cost tables
are all in play), a static or CGI trace, and whether a sampling tracer
is attached; both lifecycles run it and must agree on every field of
``asdict(result)`` and on every byte of the span log.

The test has teeth: ``MUTATIONS`` seeds one realistic bug each into a
copy of the package, and ``test_seeded_mutation_is_caught`` shows the
comparison failing on it (and passing on the unmutated tree) for the
fixed case recorded beside it.  One that was tried and is *not* listed
because nothing observable depends on it: calling ``record_served``
after ``_account_request`` rather than before it, from the served hook
(both only add to counters of different objects inside one event).

Hypothesis draws fault times from a continuous process, so it never
puts two membership changes at one instant; the case where that matters
(a node failing between an admission and the start event the admission
staged) is fixed below.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.faults import (
    CrashFault,
    FaultSchedule,
    RetryPolicy,
    generate_fault_schedule,
)
from repro.core import POLICY_NAMES
from repro.obs import SpanWriter
from repro.obs.tracer import SimTracer
from repro.workload import cgi_mix_trace, synthesize_trace
from tests.cluster_oracle import use_oracle
from tests.native_core import native_available, reference_core
from tests.seeded_mutation import REPO_ROOT, mutated_env

NUM_NODES = 3
CACHE = 2**19
#: Roughly how long (simulated seconds) the traces below take to serve;
#: fault times and retry timers are drawn as fractions of it.
SPAN_S = 6.0


@functools.lru_cache(maxsize=None)
def _trace(cgi: bool):
    if cgi:
        return cgi_mix_trace(
            num_requests=900, num_targets=200, total_bytes=16 * 2**20,
            zipf_alpha=1.0, dynamic_fraction=0.15, cpu_cost_s=0.02, seed=7,
        )
    return synthesize_trace(900, 200, 16 * 2**20, 1.0, seed=11)


def _schedule(seed, mttf_frac=0.4, max_retries=1, cpu_factor=0.5, disk_factor=0.5):
    return generate_fault_schedule(
        NUM_NODES,
        SPAN_S,
        seed=seed,
        mttf_s=SPAN_S * mttf_frac,
        mttr_s=SPAN_S * 0.1,
        detect_s=SPAN_S * 0.04,
        brownout_mttf_s=SPAN_S * 0.5,
        brownout_duration_s=SPAN_S * 0.15,
        cpu_factor=cpu_factor,
        disk_factor=disk_factor,
        retry=RetryPolicy(
            max_retries=max_retries,
            timeout_s=SPAN_S * 0.02,
            backoff_base_s=SPAN_S * 0.01,
            backoff_cap_s=SPAN_S * 0.04,
        ),
    )


def _run(oracle: bool, traced: bool, cgi: bool, **config):
    """``(asdict(result), span log)`` of one run on one lifecycle; a
    fault schedule also records the degraded-mode series."""
    if config.get("fault_schedule") is not None:
        config["fault_schedule"] = dataclasses.replace(
            config["fault_schedule"], interval_s=SPAN_S / 20
        )
    sink = io.StringIO()
    tracer = None
    if traced:
        tracer = SimTracer(SpanWriter(sink, source="sim"), sample_interval_s=SPAN_S / 25)
    sim = ClusterSimulator(
        _trace(cgi),
        ClusterConfig(
            num_nodes=NUM_NODES, node_cache_bytes=CACHE, collect_delays=True, **config,
        ),
        tracer=tracer,
    )
    if oracle:
        use_oracle(sim)
    result = dataclasses.asdict(sim.run())
    if tracer is not None:
        tracer.writer.close()
    return result, sink.getvalue()


def _disagreement(traced: bool, cgi: bool, **config):
    """``None`` when the two lifecycles agree, else what differs."""
    want, want_log = _run(True, traced, cgi, **config)
    got, got_log = _run(False, traced, cgi, **config)
    fields = [name for name in want if want[name] != got[name]]
    if fields:
        return f"result fields differ: {fields}"
    if want_log != got_log:
        return "span logs differ"
    if traced and want_log.count('"kind":"span"') != want["num_requests"]:
        return "span log does not hold one span per request"
    return None


#: One draw: a configuration, a connection shape, a fault schedule or
#: none, a trace and an observer.
_draws = given(
    policy=st.sampled_from(POLICY_NAMES),
    requests_per_connection=st.sampled_from([1, 2, 4, 7]),
    persistent_policy=st.sampled_from(["sticky", "rehandoff"]),
    fault_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
    mttf_frac=st.sampled_from([0.15, 0.4, 1.0]),
    max_retries=st.integers(min_value=0, max_value=2),
    factors=st.sampled_from([(0.5, 0.5), (1.0, 0.25), (0.3, 1.0)]),
    coalesce_reads=st.booleans(),
    traced=st.booleans(),
    cgi=st.booleans(),
)


def _draw_disagreement(
    policy, requests_per_connection, persistent_policy, fault_seed, mttf_frac,
    max_retries, factors, coalesce_reads, traced, cgi,
):
    schedule = None
    if fault_seed is not None:
        schedule = _schedule(fault_seed, mttf_frac, max_retries, *factors)
    return _disagreement(
        traced, cgi,
        policy=policy,
        requests_per_connection=requests_per_connection,
        persistent_policy=persistent_policy,
        fault_schedule=schedule,
        coalesce_reads=coalesce_reads,
    )


@settings(max_examples=100, deadline=None)
@_draws
def test_state_machine_matches_oracle(**draw):
    """A draw with a policy without GMS or hit hints takes the compiled
    core where it is built, traced or faulty or not."""
    assert _draw_disagreement(**draw) is None


@settings(max_examples=100, deadline=None)
@_draws
def test_reference_state_machine_matches_oracle(**draw):
    """Every draw on ``fastpath.py``, as a machine without a C compiler
    runs it."""
    with reference_core():
        assert _draw_disagreement(**draw) is None


def test_drawn_schedules_exercise_the_fault_paths(monkeypatch):
    """The strategy above is only a proof if its schedules bite: the
    fixed cases below lose requests, retry (each retry is a timed-out
    dispatch), rehandoff, orphan, and run brownouts on nodes that are
    serving, on the compiled core where it is built."""
    cores = []
    run = ClusterSimulator.run

    def recording_run(sim):
        result = run(sim)
        cores.append(sim.core == ("native" if native_available() else "python"))
        return result

    monkeypatch.setattr(ClusterSimulator, "run", recording_run)
    result, _ = _run(
        False, False, False, policy="lard/r", requests_per_connection=4,
        persistent_policy="rehandoff", fault_schedule=_schedule(5, 0.15, 0),
    )
    assert result["lost_requests"] > 0 and result["rehandoffs"] > 0
    assert result["orphaned_connections"] > 0
    result, _ = _run(
        False, False, False, policy="wrr", requests_per_connection=2,
        fault_schedule=_schedule(3, 0.4, 2),
    )
    assert result["retried_requests"] > 0
    assert _schedule(3).brownouts and _schedule(5, 0.15).brownouts
    assert cores == [True, True]


# -- a failure between an admission and its start -----------------------------------
#
# Node 1's rejoin raises the admission limit and refills the window; some
# of the refill lands on node 2, whose failure is the next event of the
# same instant, ahead of the start events the refill staged.  Those
# connections are orphans: their load went with the node.  Both
# lifecycles used to read the epoch in the start event, took the orphans
# for live connections and died of "completion on node 2 with zero load".
# A start event serves only on a node that is not dark, so the orphans
# reach it only when node 2 is back within the same instant.

_RACES = {
    # Node 2 crashes, is failed and rejoins at t=1.0: its orphans start
    # on the rejoined node and finish there, holding no load.
    "down-and-back-at-once": dict(
        fault_schedule=FaultSchedule(
            crashes=(
                CrashFault(1, at_s=0.5, detect_s=0.0, rejoin_at_s=1.0),
                CrashFault(2, at_s=1.0, detect_s=0.0, rejoin_at_s=1.0),
            ),
        ),
    ),
    # Node 2 crashes and is failed at t=1.0 and stays down: its orphans
    # find it dark, time out and are retried elsewhere.
    "detected-at-once": dict(
        fault_schedule=FaultSchedule(
            crashes=(
                CrashFault(1, at_s=0.5, detect_s=0.0, rejoin_at_s=1.0),
                CrashFault(2, at_s=1.0, detect_s=0.0),
            ),
        ),
    ),
    # Rejoin and detection at t=1.0; node 2 has been dark since 0.75.
    "detected-late": dict(
        fault_schedule=FaultSchedule(
            crashes=(
                CrashFault(1, at_s=0.25, detect_s=0.25, rejoin_at_s=1.0),
                CrashFault(2, at_s=0.75, detect_s=0.25),
            ),
            retry=RetryPolicy(
                max_retries=1, timeout_s=0.125, backoff_base_s=0.0625, backoff_cap_s=0.25
            ),
        ),
    ),
}


@pytest.mark.parametrize("policy", ["wrr", "lard/r"])
@pytest.mark.parametrize("race", sorted(_RACES))
def test_a_node_failing_between_admission_and_start_orphans_the_connection(race, policy):
    want, _ = _run(True, False, False, policy=policy, **_RACES[race])
    got, _ = _run(False, False, False, policy=policy, **_RACES[race])
    assert got == want
    assert got["num_requests"] == len(_trace(False))
    assert got["orphaned_connections"] > 0


# -- seeded mutations ---------------------------------------------------------------
#
# name -> (file under src/repro, anchor, replacement, the fixed case that
# catches it).  Every case is checked to agree on the unmutated tree.

_REHANDOFF = dict(requests_per_connection=4, persistent_policy="rehandoff")

MUTATIONS = {
    "hit-hint-kept-after-first-request": (
        "cluster/fastpath.py",
        "        self.hit_hint = None\n        if self.fe.rehandoff:\n            self._rehandoff(now)\n        self._resume()",
        "        if self.fe.rehandoff:\n            self._rehandoff(now)\n        self._resume()",
        dict(traced=False, cgi=False, policy="lb/gc", requests_per_connection=4),
    ),
    "epoch-not-reread-after-rehandoff": (
        "cluster/fastpath.py",
        "        self.epoch = fe._epoch[new_node]\n\n    def _request_done",
        "\n    def _request_done",
        dict(traced=False, cgi=False, policy="lard/r", fault_seed=5, mttf_frac=0.15,
             **_REHANDOFF),
    ),
    "brownout-reads-base-disk-table": (
        "cluster/faults.py",
        "        self.nodes[node].disk_times = self.frontend.disk_times(costs)",
        "        pass",
        dict(traced=False, cgi=False, policy="wrr", fault_seed=3),
    ),
    "first-request-delay-restarts-on-retry": (
        "cluster/fastpath.py",
        "            self.start = self.t_first\n",
        "            pass\n",
        dict(traced=False, cgi=False, policy="wrr", fault_seed=3, max_retries=2),
    ),
    "rehandoff-onto-dark-node-is-served": (
        "cluster/fastpath.py",
        "            if dark[self.node.node_id]:\n                # Rehandoff landed",
        "            if False:\n                # Rehandoff landed",
        dict(traced=False, cgi=False, policy="wrr", fault_seed=5, mttf_frac=0.15,
             **_REHANDOFF),
    ),
    "epoch-read-by-the-start-event": (
        "cluster/fastpath.py",
        "        node = self.node\n        now = self.engine.now\n"
        "        self.start = now\n",
        "        node = self.node\n        now = self.engine.now\n"
        "        self.start = now\n        self.epoch = self.fe._epoch[self.node.node_id]\n",
        dict(traced=False, cgi=False, policy="wrr", **_RACES["down-and-back-at-once"]),
    ),
    # A connection is a batch of trace requests; one of one is the paper's.
    "batch-torn-down-after-its-first-request": (
        "cluster/fastpath.py",
        "        if self.index == self.last:\n",
        "        if True:\n",
        dict(traced=False, cgi=False, policy="lard/r", requests_per_connection=4),
    ),
    "goodput-not-recorded": (
        "cluster/fastpath.py",
        "        self._served_hook = cls._record_served\n",
        "",
        dict(traced=False, cgi=False, policy="wrr", fault_seed=3),
    ),
    "traced-fault-run-drops-the-goodput-record": (
        "cluster/fastpath.py",
        "        self._write_row(now)\n        self._record_served(now)\n",
        "        self._write_row(now)\n",
        dict(traced=True, cgi=False, policy="wrr", fault_seed=3),
    ),
    "teardown-phase-on-every-request": (
        "cluster/fastpath.py",
        "        if self.last == self.index:\n            self.phases[_TEARDOWN]",
        "        if True:\n            self.phases[_TEARDOWN]",
        dict(traced=True, cgi=False, policy="lard", requests_per_connection=2),
    ),
    # The compiled core's faulty stages: the mutated copy builds its own
    # extension, which the oracle's run (a replaced admission) never takes.
    "doomed-dispatch-served-anyway": (
        "cluster/_lifecycle.c",
        "    return dark ? doomed(s, ci) : stage_begin(s, ci);\n}\n\n/* _timed_out",
        "    return dark < 0 ? -1 : stage_begin(s, ci);\n}\n\n/* _timed_out",
        dict(traced=False, cgi=False, policy="wrr", fault_seed=3),
    ),
    "retry-keeps-the-old-epoch": (
        "cluster/_lifecycle.c",
        "    if (list_ll(s->epoch, node, &c->epoch) < 0)\n        return -1;\n",
        "",
        dict(traced=False, cgi=False, policy="wrr", fault_seed=3, max_retries=2),
    ),
    "lost-request-not-completed": (
        "cluster/_lifecycle.c",
        "            s->completed += 1;\n            PyObject *result",
        "            PyObject *result",
        dict(traced=False, cgi=False, policy="lard/r", fault_seed=5, mttf_frac=0.15,
             max_retries=0, **_REHANDOFF),
    ),
}


def _case_disagreement(case):
    case = dict(case)
    traced, cgi = case.pop("traced"), case.pop("cgi")
    seed = case.pop("fault_seed", None)
    mttf_frac = case.pop("mttf_frac", 0.4)
    max_retries = case.pop("max_retries", 1)
    if seed is not None:
        case["fault_schedule"] = _schedule(seed, mttf_frac, max_retries)
    return _disagreement(traced, cgi, **case)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_is_caught(name, tmp_path):
    relpath, anchor, replacement, case = MUTATIONS[name]
    assert _case_disagreement(case) is None
    env = mutated_env(tmp_path, relpath, anchor, replacement)
    env.pop("REPRO_SANITIZE", None)  # the comparison must catch it, not the sanitizer
    verdict = subprocess.run(
        [sys.executable, "-m", "tests.test_cluster_differential", name],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    # 1: the lifecycles disagreed; 2: the mutated one died of it.
    assert verdict.returncode in (1, 2), verdict.stdout + verdict.stderr
    assert "differ" in verdict.stdout or "raised" in verdict.stdout


if __name__ == "__main__":
    try:
        found = _case_disagreement(MUTATIONS[sys.argv[1]][3])
    except Exception as exc:  # a mutation may corrupt the books outright
        print(f"raised {exc!r}")
        sys.exit(2)
    print(found)
    sys.exit(0 if found is None else 1)
