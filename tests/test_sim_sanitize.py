"""Runtime invariant sanitizer: clean runs pass untouched, corrupted runs die.

Two halves:

* the **read-only** contract — a sanitized run (env var or config flag)
  produces results identical to an unsanitized one, down to the exported
  CSV bytes;
* the **detection** contract — deliberately corrupting engine, cache,
  front-end, or policy state mid-run raises :class:`SanitizerError`
  naming the violation, for every invariant family the sanitizer checks.

Corruption tests run with ``sanitize_interval=1`` so the deep sweep
inspects state on the very next event after the corruption lands.  Each
schedules its corruption as an event before the run, so each runs on
``fastpath.py``: the compiled core runs beside no outside event but a
fault runtime's (it holds the books such an event would write until the
run ends).  The compiled core's own checks are held to the reference's
by the pinned counts below, by the identity suites' sanitized runs and
by the seeded C mutations at the bottom of this file.
"""

import contextlib
import re

import pytest

from repro.analysis.sweep import result_row, write_csv
from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    CrashFault,
    FaultSchedule,
    run_simulation,
)
from repro.core.lardr import _ServerSet
from repro.sim import Engine, InvariantSanitizer, SanitizerError
from repro.workload import synthesize_trace
from tests.native_core import reference_core, require_native
from tests.seeded_mutation import run_mutated

CACHE = 256 * 1024


def _trace(n_requests=1200, seed=3):
    return synthesize_trace(n_requests, 150, 4 * 10**6, 1.0, seed=seed)


def _simulator(policy="lard", **overrides):
    config = ClusterConfig(
        policy=policy,
        num_nodes=3,
        node_cache_bytes=CACHE,
        sanitize=True,
        sanitize_interval=1,
        **overrides,
    )
    return ClusterSimulator(_trace(), config)


def _corrupt_at(sim, fraction, corrupt):
    """Schedule ``corrupt(sim)`` partway into the run (by event count).

    A probe event at an early simulated time measures nothing useful —
    instead the corruption fires from inside the event stream, after the
    cluster has warmed up, by piggybacking on a time roughly mid-trace.
    """
    # Run a throwaway copy to learn the end time, then corrupt a fresh one.
    probe = ClusterSimulator(_trace(), ClusterConfig(
        policy=sim.config.policy, num_nodes=3, node_cache_bytes=CACHE))
    end = probe.run().sim_time_s
    sim.engine.schedule(end * fraction, corrupt, sim)
    return sim


# -- the read-only contract ----------------------------------------------------


def test_reference_run_passes_under_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sim = ClusterSimulator(
        _trace(), ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=CACHE)
    )
    assert sim.sanitizer is not None
    result = sim.run()
    assert result.num_requests == 1200
    assert sim.sanitizer.events_seen > 0
    assert sim.sanitizer.deep_sweeps > 0


def test_env_var_off_means_no_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = ClusterSimulator(
        _trace(), ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=CACHE)
    )
    assert sim.sanitizer is None


def test_sanitized_run_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    trace = _trace()
    kwargs = dict(policy="lard/r", num_nodes=3, node_cache_bytes=CACHE)
    plain = run_simulation(trace, **kwargs)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    via_env = run_simulation(trace, **kwargs)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    via_config = run_simulation(trace, sanitize=True, sanitize_interval=64, **kwargs)

    assert plain == via_env == via_config

    paths = []
    for tag, result in (("plain", plain), ("env", via_env), ("config", via_config)):
        paths.append(write_csv([result_row(result, {"run": 0})], tmp_path / f"{tag}.csv"))
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]


# -- detection: engine-level invariants ----------------------------------------


def test_clock_regression_is_caught():
    def corrupt(sim):
        # Bypass the post() past-guard: push a raw event, ``(time, seq,
        # fn, arg)``, dated before the current clock, exactly the
        # corruption the sanitizer exists to catch (``push`` checks
        # nothing, on either engine).
        engine = sim.engine
        engine.push((engine.now / 2, next(engine.seqs), lambda _: None, None))

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="clock moved backwards"):
        sim.run()


def test_bare_engine_hook_checks_monotonicity():
    engine = Engine()
    sanitizer = InvariantSanitizer(deep_interval=1)
    engine.install_sanitizer(sanitizer.after_event)
    engine.schedule(1.0, lambda: None)
    engine.schedule(0.5, lambda: engine.push((0.1, next(engine.seqs), lambda _: None, None)))
    with pytest.raises(SanitizerError, match="clock moved backwards"):
        engine.run()


def test_bounded_run_under_a_sanitizer_checks_exactly_the_events_it_dispatches():
    """``run(until=)`` with a hook installed: one loop serves both, so
    the hook sees every event up to the bound, none past it, and the
    clock still lands on the bound exactly."""
    engine = Engine()
    sanitizer = InvariantSanitizer(deep_interval=1)
    seen = []
    engine.install_sanitizer(
        lambda when, callback: (seen.append(when), sanitizer.after_event(when, callback))
    )
    log = []
    for when in (1.0, 2.0, 2.0, 3.5):
        engine.schedule(when, log.append, when)
    engine.schedule(2.0, lambda: engine.schedule(0.0, log.append, "staged"))
    assert engine.run(until=3.0) == 3.0
    assert log == [1.0, 2.0, 2.0, "staged"]
    assert seen == [1.0, 2.0, 2.0, 2.0, 2.0]
    assert sanitizer.events_seen == engine.events_dispatched == 5
    assert engine.pending == 1
    # The bound is not an event: the next run resumes from it, checked.
    assert engine.run() == 3.5
    assert sanitizer.events_seen == engine.events_dispatched == 6
    # And a corruption inside a bounded run is caught inside it.
    engine.schedule(1.0, lambda: engine.push((0.1, next(engine.seqs), lambda _: None, None)))
    with pytest.raises(SanitizerError, match="clock moved backwards"):
        engine.run(until=10.0)


# -- detection: resource and cache accounting ----------------------------------


def test_negative_resource_slots_are_caught():
    def corrupt(sim):
        sim.nodes[0].cpu._busy = -1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="negative busy"):
        sim.run()


def test_cache_overfill_is_caught():
    def corrupt(sim):
        cache = sim.nodes[0].cache
        cache.used_bytes = cache.capacity_bytes + 1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="over its capacity"):
        sim.run()


def test_cache_size_disagreement_is_caught():
    def corrupt(sim):
        # Track a phantom entry without charging used_bytes.
        sim.nodes[0].cache._sizes[object()] = 1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="disagrees with the sum"):
        sim.run()


# -- detection: front-end conservation -----------------------------------------


def test_lost_completion_is_caught():
    def corrupt(sim):
        sim.frontend.completed += len(sim.trace)

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="exceeds admitted"):
        sim.run()


def test_negative_in_flight_is_caught():
    def corrupt(sim):
        sim.frontend.in_flight = -1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="in_flight is negative"):
        sim.run()


def test_admission_limit_overrun_is_caught():
    def corrupt(sim):
        sim.frontend.in_flight = sim.frontend.max_in_flight + 1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="admission limit"):
        sim.run()


# -- detection: membership (paper Section 2.6) ---------------------------------


def test_lard_mapping_to_failed_node_is_caught():
    def corrupt(sim):
        sim.frontend.fail_node(1)
        sim.policy._server["ghost-target"] = 1

    sim = _corrupt_at(_simulator(policy="lard"), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="names a failed"):
        sim.run()


def test_lardr_server_set_with_failed_node_is_caught():
    def corrupt(sim):
        sim.frontend.fail_node(1)
        sim.policy._server_sets["ghost-target"] = _ServerSet(
            nodes={1}, last_mod=sim.engine.now, epoch=sim.policy.membership_epoch
        )

    sim = _corrupt_at(_simulator(policy="lard/r"), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="contains failed"):
        sim.run()


def _ghost_lard(sim):
    sim.policy._server["ghost-target"] = 1


def _ghost_lardr(sim):
    # A current-epoch set that still holds a live member next to the dead one.
    sim.policy._server_sets["ghost-target"] = _ServerSet(
        nodes={0, 1}, last_mod=sim.engine.now, epoch=sim.policy.membership_epoch
    )


@pytest.mark.parametrize(
    "policy, plant, match",
    [("lard", _ghost_lard, "names a failed"), ("lard/r", _ghost_lardr, "contains failed")],
)
def test_mapping_walk_resumes_once_a_node_is_down(policy, plant, match):
    """The mapping walks are skipped only while the sweep's own recount
    finds every node up.  Here sweeps run every 64 events and hundreds
    of them have skipped the walk before node 1 fails: the very next
    periodic sweep must walk the mappings again."""

    def fail_then_plant(sim):
        assert sim.sanitizer.deep_sweeps > 10
        sim.frontend.fail_node(1)
        plant(sim)

    config = ClusterConfig(
        policy=policy,
        num_nodes=3,
        node_cache_bytes=CACHE,
        sanitize=True,
        sanitize_interval=64,
    )
    sim = _corrupt_at(ClusterSimulator(_trace(), config), 0.5, fail_then_plant)
    with pytest.raises(SanitizerError, match=match) as excinfo:
        sim.run()
    assert "end of run" not in str(excinfo.value)


def test_alive_flag_flip_is_caught_by_the_recount_that_licenses_the_skip():
    """With every node up the mapping walk is vacuous — *because* the
    sweep has just recounted ``_alive``.  Flipping a flag behind the
    counters' back must trip that recount in the same sweep, so the
    skip can never hide a dead node."""

    def corrupt(sim):
        assert all(sim.policy._alive)
        sim.policy._alive[1] = False

    sim = _corrupt_at(_simulator(policy="lard/r"), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="alive_count"):
        sim.run()


@pytest.mark.parametrize("core", ["native", "python"])
def test_sweep_and_event_counts_are_pinned(core):
    """Counts recorded on 30ec2b1 (per-event checks behind two calls,
    mapping walk unconditional): fusing the calls and skipping the
    vacuous walk must not change how often anything is checked.  The
    ``lard`` run's failure was a bare fail/join pair then (5619 events);
    as a crash detected at once it is a crash event and a detection
    event, one more.  The compiled core checks the same events and
    sweeps as often as ``fastpath.py``."""
    if core == "native":
        require_native()
    failover = FaultSchedule(
        crashes=(CrashFault(1, at_s=0.5, detect_s=0.0, rejoin_at_s=1.5),)
    )
    pinned = {
        "lard/r": (dict(), 5474, 86),
        "lard": (dict(fault_schedule=failover), 5620, 88),
    }
    for policy, (extra, events, sweeps) in pinned.items():
        config = ClusterConfig(
            policy=policy,
            num_nodes=3,
            node_cache_bytes=CACHE,
            sanitize=True,
            sanitize_interval=64,
            **extra,
        )
        with contextlib.ExitStack() as stack:
            if core == "python":
                stack.enter_context(reference_core())
            sim = ClusterSimulator(_trace(), config)
            sim.run()
        assert sim.core == core
        assert sim.sanitizer.events_seen == sim.engine.events_dispatched == events
        assert sim.sanitizer.deep_sweeps == sweeps


def test_stale_epoch_server_sets_are_not_flagged():
    """Entries from before a membership change are filtered lazily on
    access; the sanitizer must not flag them (only current-epoch sets)."""

    def fail_only(sim):
        sim.frontend.fail_node(1)

    sim = _corrupt_at(_simulator(policy="lard/r"), 0.4, fail_only)
    result = sim.run()
    assert result.num_requests == 1200


# -- detection: policy load summaries ------------------------------------------


def test_stale_least_load_bound_is_caught():
    """A lifecycle that decrements ``loads`` without lowering the bound
    (what a forgotten fast-path mirror would do) must not go unnoticed."""

    def corrupt(sim):
        sim.policy._min_load = max(sim.policy.loads) + 1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="least-load bound"):
        sim.run()


def test_stale_scan_cursor_is_caught():
    """...or without pulling the scan cursor back to a node that has
    just reached the bound."""

    def corrupt(sim):
        policy = sim.policy
        policy._min_load = min(policy.loads)
        policy._min_cursor = policy.num_nodes

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="scan cursor"):
        sim.run()


def test_total_load_drift_is_caught():
    def corrupt(sim):
        # A completion that moved the load vector but was never counted.
        sim.policy.completions -= 1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="total_load"):
        sim.run()


def test_alive_count_drift_is_caught():
    def corrupt(sim):
        sim.policy._dead_count += 1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="alive_count"):
        sim.run()


def test_load_tracker_flag_on_the_wrong_side_is_caught():
    """The tracker integrates over the policy's own loads through
    transitions inlined beside every load write; one that is skipped
    leaves the flag where the load no longer is."""

    def corrupt(sim):
        busiest = max(range(3), key=sim.policy.loads.__getitem__)
        assert sim.policy.loads[busiest] >= sim.tracker.threshold
        sim.tracker._is_under[busiest] = True

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError, match="load tracker has node"):
        sim.run()


def _audit_policy_summaries(core):
    """Stop a plain, unsanitized run on ``core`` mid-flight and at the
    end, and recount the policy's summaries each time."""
    config = ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=CACHE)
    with contextlib.ExitStack() as stack:
        if core == "python":
            stack.enter_context(reference_core())
        end = ClusterSimulator(_trace(), config).run().sim_time_s
        sim = ClusterSimulator(_trace(), config)
        sanitizer = InvariantSanitizer()
        sanitizer.watch_policy(sim.policy)
        assert sim.engine is sim.frontend.engine  # made here, on ``core``'s engine
        sim.frontend.start()
    assert sim.core == core
    for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
        sim.engine.run(until=end * fraction)
        assert sim.policy.total_load > 0
        sanitizer.final_check(sim.engine.now)
    sim.frontend.run()  # the rest, and the compiled core's books back
    assert sim.frontend.done
    sanitizer.final_check(sim.engine.now)
    assert sim.policy._min_load == 0 and sim.policy.total_load == 0


def test_fastpath_run_keeps_policy_summaries_in_sync():
    """The one-request connection inlines its own copy of
    ``Policy.on_complete``; audit it on an unsanitized run too."""
    _audit_policy_summaries("python")


def test_native_run_keeps_policy_summaries_in_sync():
    """So does the compiled core (``stage_complete``)."""
    require_native()
    _audit_policy_summaries("native")


# -- error message quality -----------------------------------------------------


def test_error_names_time_event_and_callback():
    def corrupt(sim):
        sim.nodes[0].cpu._busy = -1

    sim = _corrupt_at(_simulator(), 0.5, corrupt)
    with pytest.raises(SanitizerError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "t=" in message
    assert "event #" in message


def test_deep_interval_validation():
    with pytest.raises(ValueError):
        InvariantSanitizer(deep_interval=0)


# -- the compiled core's checks: seeded bugs in its books --------------------------
#
# One bug per law of the front-end's and the fault runtime's books, seeded
# in ``_lifecycle.c`` and, beside it, the same bug in the reference
# (``fastpath.py``, or the fault runtime's own counter).  Each copy runs
# one sanitized simulation in a subprocess: the compiled run must fail on
# the native core with the very message the reference run fails with —
# the law's text, the event's number and time, the stage it names.

_MUTATION_RUN = """
from repro.cluster import ClusterConfig, ClusterSimulator, CrashFault, FaultSchedule
from repro.sim import SanitizerError
from repro.workload import synthesize_trace

crash = CrashFault(1, at_s=0.5, detect_s=0.2, rejoin_at_s=1.5)
config = ClusterConfig(
    policy="lard/r", num_nodes=3, node_cache_bytes={cache}, sanitize=True,
    fault_schedule=FaultSchedule(crashes=(crash,)) if {faulty} else None,
)
sim = ClusterSimulator(synthesize_trace(1200, 150, 4 * 10**6, 1.0, seed=3), config)
try:
    sim.run()
except SanitizerError as error:
    print(sim.core)
    print(error)
"""

#: name -> (faulty run, the C bug, the reference's, the law's text).  A
#: completion booked twice and a slot never given back both break request
#: conservation from below (fewer requests outstanding than connections
#: in flight); a refill that also counts as an admission breaks the
#: admission limit.
_BOOK_MUTATIONS = {
    "completion-counted-twice": (
        False,
        ("        s->pn_completions[c->node] += 1;\n    }\n    s->completed += 1;\n",
         "        s->pn_completions[c->node] += 1;\n    }\n    s->completed += 2;\n"),
        ("cluster/fastpath.py",
         "        fe.completed += 1\n        # FrontEnd._detach, inlined",
         "        fe.completed += 2\n        # FrontEnd._detach, inlined"),
        r"request conservation broken: \d+ in-flight connection\(s\) carry only \d+ ",
    ),
    "in-flight-decrement-skipped": (
        False,
        ("    s->in_flight = in_flight;\n", ""),
        ("cluster/fastpath.py",
         "object parked.\n            fe.in_flight -= 1\n", "object parked.\n"),
        r"request conservation broken: \d+ in-flight connection\(s\) carry only \d+ ",
    ),
    "refill-counted-as-an-admission": (
        False,
        ("        s->next = end;\n        if (admit_one(",
         "        s->next = end;\n        s->in_flight += 1;\n        if (admit_one("),
        ("cluster/fastpath.py", "            fe._next = end\n",
         "            fe._next = end\n            fe.in_flight += 1\n"),
        r"in_flight \d+ exceeds the admission limit \d+ \(drain allowance \d+\)",
    ),
    "served-count-dropped": (
        True,
        ("    s->served += 1;\n", ""),
        ("cluster/faults.py", "        self.served_requests += 1\n", ""),
        r"lost-request conservation broken: served \d+ \+ lost \d+ != completed \d+",
    ),
}


@pytest.mark.parametrize("name", sorted(_BOOK_MUTATIONS))
def test_seeded_core_bug_fails_with_the_reference_s_message(tmp_path, name):
    require_native()
    faulty, (anchor, replacement), reference, law = _BOOK_MUTATIONS[name]
    code = _MUTATION_RUN.format(cache=CACHE, faulty=faulty)
    compiled = run_mutated(
        tmp_path / "native", "cluster/_lifecycle.c", anchor, replacement, code
    )
    twin = run_mutated(tmp_path / "python", *reference, code)
    for run in (compiled, twin):
        assert run.returncode == 0, run.stderr
    core, message = compiled.stdout.splitlines()
    assert core == "native"
    assert twin.stdout.splitlines() == ["python", message]
    assert re.search(law, message), message
