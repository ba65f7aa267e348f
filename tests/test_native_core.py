"""The compiled core: which runs take it, and its build on first use.

``FrontEnd.start`` gives a plain, traced, faulty or sanitized run the
compiled lifecycle (``repro/cluster/_lifecycle.c``, built with the compiled
engine by :mod:`repro.sim.native`) and every other run ``fastpath.py``,
the reference; a run says which it took and, for the reference, why.  The
byte-identity of the two is the identity and differential suites'
business (both run against both cores); here are the selection rule
(of the core, and of the engine every unprofiled run takes) and the
build boundary: an edited source, a damaged binary, a failed compile,
no compiler, two first runs at once, and a warm start that spawns
nothing.
"""

from __future__ import annotations

import collections
import cProfile
import dataclasses
import hashlib
import importlib.machinery
import io
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.faults import Brownout, CrashFault, FaultSchedule, RetryPolicy
from repro.cluster.simulator import _simulate
from repro.obs import SpanWriter
from repro.obs.tracer import SimTracer
from repro.sim import native
from repro.sim.engine import Engine
from repro.workload.synthetic import synthesize_trace
from tests.cluster_oracle import use_oracle
from tests.native_core import reference_core, require_native
from tests.seeded_mutation import REPO_ROOT, assert_selected_tests_fail

_SRC = str(REPO_ROOT / "src")
_HAVE_CC = shutil.which(native.COMPILER) is not None
needs_cc = pytest.mark.skipif(not _HAVE_CC, reason=f"no {native.COMPILER} on PATH")


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(
        num_requests=600, num_targets=120, total_bytes=8 * 2**20, zipf_alpha=1.0, seed=3
    )


# -- which runs take which core ------------------------------------------------------


def _tracer():
    return SimTracer(SpanWriter(io.StringIO(), source="sim"))


def _profiled(sim):
    run = sim.run

    def profiled_run():
        with cProfile.Profile():
            return run()

    sim.run = profiled_run


def _oracle(sim):
    use_oracle(sim)


def _probe(sim):
    sim.engine.schedule(0.5, lambda: None)


def _hooked(sim):
    sim.engine.install_sanitizer(lambda when, callback: None)


#: reason -> (config fields, attach a tracer, what is done to the built
#: simulator).  Every run here could take neither core but the reference.
_REFERENCE_ONLY = {
    "foreign event hook": (dict(), False, _hooked),
    "profiler attached": (dict(), False, _profiled),
    "unsupported configuration: GMS": (dict(policy="wrr/gms"), False, None),
    "unsupported configuration: LB/GC hit hints": (dict(policy="lb/gc"), False, None),
    "unsupported configuration: multi-disk nodes": (dict(disks_per_node=2), False, None),
    "unsupported configuration: replaced admission": (dict(), False, _oracle),
    "unsupported configuration: events scheduled before the run": (dict(), False, _probe),
}


@pytest.mark.parametrize("reason", sorted(_REFERENCE_ONLY))
def test_a_run_the_native_core_does_not_cover_names_its_reason(trace, reason):
    fields, traced, prepare = _REFERENCE_ONLY[reason]
    config = ClusterConfig(
        **{"policy": "lard/r", "num_nodes": 3, "node_cache_bytes": 2**19, **fields}
    )
    sim = ClusterSimulator(trace, config, tracer=_tracer() if traced else None)
    if prepare is not None:
        prepare(sim)
    assert sim.core is None
    sim.run()
    assert (sim.core, sim.core_reason) == ("python", reason)


def test_an_unavailable_extension_names_its_reason(trace):
    with reference_core():
        sim = ClusterSimulator(trace, ClusterConfig(policy="lard/r", num_nodes=3))
        sim.run()
    assert (sim.core, sim.core_reason) == ("python", "extension unavailable: disabled by the test")
    assert (sim.engine_kind, sim.engine_reason) == (
        "python", "extension unavailable: disabled by the test"
    )
    assert type(sim.engine) is Engine


#: The runs above, and a traced, a faulty and a sanitized one, which take
#: the compiled core.
_ENGINE_CASES = {
    **_REFERENCE_ONLY,
    "tracer attached": (dict(), True, None),
    "fault schedule": (dict(fault_schedule=FaultSchedule()), False, None),
    "sanitizer": (dict(sanitize=True), False, None),
}


@pytest.mark.parametrize("reason", sorted(_ENGINE_CASES))
def test_every_run_but_a_profiled_one_takes_the_compiled_engine(trace, reason):
    """The reference lifecycle runs on the compiled engine too: only a
    profiler (or no extension) keeps ``engine.py``, and says so."""
    require_native()
    fields, traced, prepare = _ENGINE_CASES[reason]
    config = ClusterConfig(
        **{"policy": "lard/r", "num_nodes": 3, "node_cache_bytes": 2**19, **fields}
    )
    sim = ClusterSimulator(trace, config, tracer=_tracer() if traced else None)
    if prepare is not None:
        prepare(sim)
    sim.run()
    if reason == "profiler attached":
        assert (sim.engine_kind, sim.engine_reason) == ("python", "profiler attached")
        assert type(sim.engine) is Engine
    else:
        assert (sim.engine_kind, sim.engine_reason) == ("native", "")
        assert type(sim.engine).__module__ == "repro.sim._native"


def test_an_engine_held_from_before_the_run_is_the_run_s(trace):
    """The engine a simulator makes on first use is the one that runs:
    what was scheduled on it before the run runs, and an engine taken
    before the run reads and schedules on the run's."""
    require_native()
    sim = ClusterSimulator(trace, ClusterConfig(policy="lard/r", num_nodes=3))
    early = sim.engine
    seen = []

    def look():
        seen.append(early.now)
        if len(seen) < 3:
            early.schedule(0.25, look)

    early.schedule(0.25, look)
    sim.run()
    assert sim.engine_kind == "native" and sim.engine is early
    assert seen == [0.25, 0.5, 0.75]
    assert early.events_dispatched > len(trace) and early.pending == 0


def test_an_engine_method_bound_before_the_run_works_during_it(trace):
    require_native()
    sim = ClusterSimulator(trace, ClusterConfig(policy="lard/r", num_nodes=3))
    seen = []
    post = sim.engine.post
    sim.engine.schedule(0.01, lambda: post(0.0, seen.append, "x"))
    sim.run()
    assert seen == ["x"]


def test_a_profiler_gets_engine_py_only_when_the_engine_is_made_under_it(trace, tmp_path):
    """An engine read before a profiled ``run()`` is made outside the
    profiler, so it is the compiled one and only the core steps aside;
    ``run_simulation(profile=...)`` makes it inside, so it is
    ``engine.py``.  Either way the result is the reference's."""
    require_native()
    config = ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=2**19)
    with reference_core():
        reference = dataclasses.asdict(ClusterSimulator(trace, config).run())
    early = ClusterSimulator(trace, config)
    assert (early.engine_kind, early.engine_reason) == (None, "")
    assert type(early.engine).__module__ == "repro.sim._native"
    _profiled(early)
    assert dataclasses.asdict(early.run()) == reference
    assert (early.engine_kind, early.engine_reason) == ("native", "")
    assert (early.core, early.core_reason) == ("python", "profiler attached")
    sim, result = _simulate(trace, config, profile=tmp_path / "run.pstats")
    assert dataclasses.asdict(result) == reference
    assert (sim.engine_kind, sim.engine_reason) == ("python", "profiler attached")
    assert type(sim.engine) is Engine
    assert (sim.core, sim.core_reason) == ("python", "profiler attached")


@pytest.mark.parametrize(
    "fields",
    [
        dict(policy="lard/r"),
        dict(policy="wrr", cache_policy="lru", coalesce_reads=False),
        dict(policy="chash", requests_per_connection=3, persistent_policy="rehandoff"),
        dict(policy="pod/lc", collect_delays=True),
    ],
    ids=["lard-r", "wrr-lru-uncoalesced", "chash-rehandoff", "pod-lc-delays"],
)
def test_a_plain_run_takes_the_native_core_and_gives_the_reference_result(trace, fields):
    require_native()
    config = ClusterConfig(num_nodes=3, node_cache_bytes=2**19, **fields)
    native_sim = ClusterSimulator(trace, config)
    result = dataclasses.asdict(native_sim.run())
    assert (native_sim.core, native_sim.core_reason) == ("native", "")
    with reference_core():
        reference = ClusterSimulator(trace, config)
        assert dataclasses.asdict(reference.run()) == result
    assert native_sim.engine.events_dispatched == reference.engine.events_dispatched
    assert native_sim.engine.scheduled == reference.engine.scheduled
    for mine, theirs in zip(native_sim.nodes, reference.nodes):
        for resource, twin in ((mine.cpu, theirs.cpu), (mine.disks[0], theirs.disks[0])):
            assert (resource.jobs_served, resource.busy_time(), resource.busy) == (
                twin.jobs_served, twin.busy_time(), twin.busy
            )
    policy, twin = native_sim.policy, reference.policy
    # _min_load / _min_cursor: the C copy of Policy.on_complete's update.
    assert (
        policy.loads, policy.dispatches, policy.completions, policy._min_load, policy._min_cursor
    ) == (twin.loads, twin.dispatches, twin.completions, twin._min_load, twin._min_cursor)


def test_simulate_prints_the_core_it_took(tmp_path):
    env = dict(os.environ, PYTHONPATH=_SRC, REPRO_TRACE_CACHE="off")
    env.pop("REPRO_SANITIZE", None)
    args = [sys.executable, "-m", "repro", "simulate", "--requests", "3000", "--nodes", "2"]
    plain = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    traced = subprocess.run(
        args + ["--spans", str(tmp_path / "s.jsonl")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert plain.returncode == traced.returncode == 0, plain.stderr + traced.stderr
    for run in (plain, traced):
        if native.load()[0] is not None:
            assert "\ncore: native\nengine: native" in run.stdout
        else:
            assert "\ncore: python (extension unavailable: " in run.stdout
            assert "\nengine: python (extension unavailable: " in run.stdout


#: Experiment -> why its ``smoke`` cells that take ``fastpath.py`` do
#: (every other cell takes the compiled core).  Of 187 simulations, 163
#: are compiled; 12 take the reference for several disks, 8 for LB/GC's
#: hit hints (4 of them under a fault schedule) and 4 for GMS.  ROADMAP
#: item 7 empties the rest.
_REFERENCE_CELLS = {
    "fig7": {"unsupported configuration: GMS", "unsupported configuration: LB/GC hit hints"},
    "fig10": {"unsupported configuration: GMS", "unsupported configuration: LB/GC hit hints"},
    "fig13": {"unsupported configuration: multi-disk nodes"},
    "fig14": {"unsupported configuration: multi-disk nodes"},
    "ext-chaos": {"unsupported configuration: LB/GC hit hints"},
}


def test_every_experiment_cell_takes_the_compiled_core_or_a_listed_reason(monkeypatch):
    """Every simulation of ``run all --scale smoke``, experiment by
    experiment: a cell on ``fastpath.py`` must be there for a reason
    listed above, and each listed reason must still be taken."""
    require_native()
    from repro.analysis import experiments

    reasons = collections.defaultdict(set)
    current = []
    run = ClusterSimulator.run

    def recording_run(sim):
        result = run(sim)
        if sim.core == "python":
            reasons[current[-1]].add(sim.core_reason)
        return result

    monkeypatch.setattr(ClusterSimulator, "run", recording_run)
    experiments.clear_caches()
    try:
        for experiment_id in experiments.SIMULATED:
            current.append(experiment_id)
            experiments.run_experiment(experiment_id, experiments.SMOKE, jobs=1)
    finally:
        experiments.clear_caches()
    assert dict(reasons) == _REFERENCE_CELLS


# -- the build boundary ---------------------------------------------------------------


@pytest.fixture
def build(tmp_path, monkeypatch):
    """A private build cache and a private copy of the C sources; the
    process's memo of ``load()`` is forgotten before and after.  Returns
    the copy of the engine's source."""
    copies = []
    for path in native.SOURCES:
        copies.append(tmp_path / path.name)
        shutil.copy(path, copies[-1])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "SOURCES", tuple(copies))
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setattr(native, "_build_s", None)
    return tmp_path / "_engine.c"


def _reload():
    native._loaded = None
    native._build_s = None
    return native.load()


def _binaries():
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return sorted(path for path in native.build_dir().iterdir() if path.name.endswith(suffix))


@needs_cc
def test_an_edited_source_is_rebuilt(build):
    first, why = native.load()
    assert first is not None, why
    assert native.last_build_s() is not None
    assert native.build_dir() == build.parent / "cache" / "repro-lard" / "native"
    [before] = _binaries()
    build.write_text(build.read_text() + "\n/* edited */\n")
    second, why = _reload()
    assert second is not None, why
    assert native.last_build_s() is not None
    assert len(_binaries()) == 2 and before in _binaries()
    # And the edit is built once: the next process finds it.
    assert _reload()[0] is not None and native.last_build_s() is None


@needs_cc
@pytest.mark.parametrize("damage", ["truncated", "overwritten"])
def test_a_damaged_binary_is_refused_and_rebuilt(build, damage, monkeypatch):
    assert native.load()[0] is not None
    [binary] = _binaries()
    good = binary.read_bytes()
    # A new file in its place: this process still maps the one it loaded.
    damaged = binary.with_name("damaged")
    damaged.write_bytes(good[: len(good) // 3] if damage == "truncated" else bytes(len(good)))
    os.replace(damaged, binary)
    executed = []
    exec_module = importlib.machinery.ExtensionFileLoader.exec_module

    def recording(loader, module):
        executed.append(hashlib.sha256(Path(loader.path).read_bytes()).hexdigest())
        return exec_module(loader, module)

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", recording)
    module, why = _reload()
    assert module is not None, why
    assert native.last_build_s() is not None  # rebuilt ...
    assert binary.read_bytes() == good  # ... to the same bytes,
    assert executed == [hashlib.sha256(good).hexdigest()]  # and only those were loaded


@needs_cc
def test_a_failed_compile_is_recorded_and_not_retried(build, monkeypatch, trace):
    build.write_text("#error seeded compile failure\n" + build.read_text())
    module, why = native.load()
    assert module is None and "seeded compile failure" in why
    [record] = native.build_dir().glob("*.failed")
    assert "seeded compile failure" in record.read_text()

    def no_compiler(*args, **kwargs):
        raise AssertionError("a recorded failure was compiled again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _reload() == (None, why)
    sim = ClusterSimulator(trace, ClusterConfig(policy="lard/r", num_nodes=3))
    sim.run()
    assert (sim.core, sim.core_reason) == ("python", f"extension unavailable: {why}")


def _timed_out(command, **kwargs):
    raise subprocess.TimeoutExpired(command, kwargs["timeout"])


def _unlaunchable(command, **kwargs):
    raise OSError(12, "Cannot allocate memory")


def _killed(command, **kwargs):
    return subprocess.CompletedProcess(command, -9, "", "")


@needs_cc
@pytest.mark.parametrize(
    "attempt, why",
    [
        (_timed_out, "timed out after 300 seconds"),
        (_unlaunchable, "Cannot allocate memory"),
        (_killed, "killed by signal 9"),
    ],
    ids=["timeout", "launch-error", "signal"],
)
def test_an_interrupted_compile_is_not_recorded_and_the_next_process_builds(
    build, monkeypatch, attempt, why
):
    with monkeypatch.context() as patch:
        patch.setattr(subprocess, "run", attempt)
        module, reason = native.load()
    assert module is None and why in reason
    assert not list(native.build_dir().glob("*.failed"))
    module, reason = _reload()
    assert module is not None, reason
    assert native.last_build_s() is not None


def test_a_missing_compiler_falls_back_with_its_reason(build, monkeypatch, trace):
    monkeypatch.setattr(native, "COMPILER", "repro-no-such-cc")
    module, why = native.load()
    assert module is None
    assert why == "no C compiler (repro-no-such-cc is not on PATH)"
    sim = ClusterSimulator(trace, ClusterConfig(policy="wrr", num_nodes=2))
    sim.run()
    assert sim.core_reason == f"extension unavailable: {why}"


_LOAD_AND_REPORT = textwrap.dedent(
    """
    import sys
    from repro.sim import native
    module, why = native.load()
    print(module is not None, native.last_build_s() is not None, why)
    print("subprocess" in sys.modules, "sysconfig" in sys.modules)
    """
)


def _start(cache: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=_SRC, XDG_CACHE_HOME=str(cache))
    return subprocess.Popen(
        [sys.executable, "-c", _LOAD_AND_REPORT], env=env, stdout=subprocess.PIPE, text=True
    )


@needs_cc
def test_two_first_runs_at_once_both_load_one_build(tmp_path):
    runs = [_start(tmp_path), _start(tmp_path)]
    reports = [run.communicate(timeout=300)[0].splitlines() for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    loaded = [report[0].split()[:2] for report in reports]
    assert sorted(loaded) == [["True", "False"], ["True", "True"]]
    assert len([p for p in (tmp_path / "repro-lard" / "native").iterdir() if p.suffix == ".so"]) == 1


@needs_cc
def test_the_warm_path_spawns_nothing(tmp_path):
    cold = _start(tmp_path)
    assert cold.communicate(timeout=300)[0].splitlines()[0].startswith("True True")
    warm = _start(tmp_path)
    first, modules = warm.communicate(timeout=300)[0].splitlines()
    assert first.startswith("True False")
    assert modules == "False False"


# -- the identity suite catches a bug in the C file -------------------------------------


@needs_cc
def test_a_traced_run_takes_the_native_core(trace):
    """A tracer is a row sink the compiled core writes: it keeps a run
    on neither reference."""
    require_native()
    config = ClusterConfig(policy="lard/r", num_nodes=3, node_cache_bytes=2**19)
    sim = ClusterSimulator(trace, config, tracer=_tracer())
    sim.run()
    assert (sim.core, sim.core_reason) == ("native", "")
    assert (sim.engine_kind, sim.engine_reason) == ("native", "")
    assert sim.tracer.spans_finished == len(trace)


#: Every transition of a fault runtime within the run (about 3.3 s):
#: node 1 dark at 0.5 s, failed at 0.7 s and back at 1.5 s, node 2
#: browned out from 2.0 s; a timed-out dispatch is retried once, then
#: lost.
_CHURN = FaultSchedule(
    crashes=(CrashFault(1, at_s=0.5, detect_s=0.2, rejoin_at_s=1.5),),
    brownouts=(Brownout(2, at_s=2.0, duration_s=0.5),),
    retry=RetryPolicy(max_retries=1, timeout_s=0.05, backoff_base_s=0.02, backoff_cap_s=0.1),
)


@needs_cc
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_a_faulty_run_takes_the_native_core(trace, traced):
    """A fault runtime's transitions are Python events beside the
    compiled core, which runs the faulty stages itself."""
    require_native()
    config = ClusterConfig(
        policy="lard/r", num_nodes=3, node_cache_bytes=2**19, fault_schedule=_CHURN
    )
    sim = ClusterSimulator(trace, config, tracer=_tracer() if traced else None)
    result = sim.run()
    assert (sim.core, sim.core_reason) == ("native", "")
    assert result.retried_requests > 0 and result.lost_requests > 0
    assert sim.fault_runtime.served_requests + result.lost_requests == len(trace)
    if traced:
        assert sim.tracer.spans_finished == len(trace)
        assert [event for _, event, _ in sim.fault_runtime.events] == [
            "crash", "detect", "join", "brownout_start", "brownout_end"
        ]


@needs_cc
def test_a_sanitized_faulty_run_takes_the_native_core(trace):
    """The core checks the sanitizer's per-event laws over its own books
    (the fault runtime's served and lost counts among them) and hands
    its deep sweep the books written back: the run is compiled, checked
    event for event and sweep for sweep as the reference checks it, and
    its result is the reference's, sanitized or not."""
    require_native()
    config = ClusterConfig(
        policy="lard/r", num_nodes=3, node_cache_bytes=2**19, fault_schedule=_CHURN,
        sanitize=True, sanitize_interval=16,
    )
    sim = ClusterSimulator(trace, config)
    result = dataclasses.asdict(sim.run())
    assert (sim.core, sim.core_reason) == ("native", "")
    assert result["lost_requests"] > 0 and result["retried_requests"] > 0
    with reference_core():
        reference = ClusterSimulator(trace, config)
        assert dataclasses.asdict(reference.run()) == result
    assert reference.core == "python"
    unsanitized = ClusterSimulator(trace, dataclasses.replace(config, sanitize=False))
    assert dataclasses.asdict(unsanitized.run()) == result
    for checked in (sim, reference):
        assert checked.sanitizer.events_seen == checked.engine.events_dispatched
    assert sim.engine.events_dispatched == reference.engine.events_dispatched
    assert sim.sanitizer.deep_sweeps == reference.sanitizer.deep_sweeps > 0


@needs_cc
def test_every_cell_of_the_offpath_benchmark_takes_the_native_core():
    """The five cells of the ledger's ``offpath-8n`` workload (8 LARD/R
    nodes, caches and Rice-like trace at 0.1 scale), rebuilt here at a
    small size: plain, traced, sanitized, faulty under the chaos churn
    schedule and persistent, each compiled."""
    require_native()
    from repro.analysis.chaos import build_scenarios
    from repro.cluster import PAPER_NODE_CACHE_BYTES
    from repro.workload.synthetic import rice_like_trace

    seed = 42
    trace = rice_like_trace(num_requests=3000, scale=0.1, seed=seed)
    base = ClusterConfig(
        policy="lard/r", num_nodes=8, node_cache_bytes=int(PAPER_NODE_CACHE_BYTES * 0.1),
        policy_seed=seed,
    )
    plain = ClusterSimulator(trace, base)
    duration = plain.run().sim_time_s
    churn = build_scenarios(base.num_nodes, duration, seed)[0]
    cells = {
        "plain": plain,
        "traced": ClusterSimulator(trace, base, tracer=_tracer()),
        "sanitized": ClusterSimulator(trace, dataclasses.replace(base, sanitize=True)),
        "faulty": ClusterSimulator(
            trace, dataclasses.replace(base, fault_schedule=churn.schedule)
        ),
        "persistent": ClusterSimulator(
            trace, dataclasses.replace(base, requests_per_connection=4)
        ),
    }
    for name, sim in cells.items():
        if name != "plain":
            sim.run()
        assert (name, sim.core, sim.core_reason) == (name, "native", "")
    assert cells["faulty"].fault_runtime.events
    assert cells["sanitized"].sanitizer.deep_sweeps > 0


def test_an_event_from_outside_keeps_a_faulty_run_on_the_reference(trace):
    """The fault runtime's own transitions are the one kind of event
    scheduled before the run that the compiled core runs beside."""
    config = ClusterConfig(
        policy="lard/r", num_nodes=3, node_cache_bytes=2**19, fault_schedule=_CHURN
    )
    sim = ClusterSimulator(trace, config)
    _probe(sim)
    sim.run()
    assert (sim.core, sim.core_reason) == (
        "python", "unsupported configuration: events scheduled before the run"
    )


#: name -> (anchor in cluster/_lifecycle.c, replacement): bugs in the
#: compiled core's span rows, each caught by the span-log identity tests.
_ROW_MUTATIONS = {
    "teardown-stamped-from-the-start": (
        "        sp->ph[PH_TEARDOWN] = s->now - sp->mark;\n",
        "        sp->ph[PH_TEARDOWN] = s->now - c->start;\n",
    ),
    # In-place starts in the admission loop under a tracer (the initial
    # fill among them): the loads are snapshotted at admission, before
    # the loop's later admissions.
    "in-place-start-left-on-under-a-tracer": (
        "        if (!s->rows && start_in_place(s)) {\n",
        "        if (s->rows || start_in_place(s)) {\n",
    ),
    "chunk-not-flushed-before-a-sample": (
        "    if (rows_flush(s) < 0)\n        return -1;\n    long long hits = 0",
        "    long long hits = 0",
    ),
}


@needs_cc
@pytest.mark.parametrize("name", sorted(_ROW_MUTATIONS))
def test_seeded_span_row_mutation_is_caught_by_the_identity_suite(tmp_path, name):
    anchor, replacement = _ROW_MUTATIONS[name]
    assert_selected_tests_fail(
        tmp_path,
        "cluster/_lifecycle.c",
        anchor,
        replacement,
        str(REPO_ROOT / "tests" / "test_obs_sim_tracing.py"),
        "test_span_log_bytes_match_parent and lard",
    )


def test_seeded_c_mutation_is_caught_by_the_identity_suite(tmp_path):
    """A data service whose busy time never reaches the resource's
    integral: every utilisation comes out low on the native core only."""
    assert_selected_tests_fail(
        tmp_path,
        "cluster/_lifecycle.c",
        "    r->busy_integral += now - r->last_change;\n",
        "",
        str(REPO_ROOT / "tests" / "test_fastpath_identity.py"),
        "test_fastpath_matches_generator_path and lard",
    )
