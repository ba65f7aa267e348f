"""The three ways out of ``_complete``, for batches of one and of four,
plain and under the fault model.

A completion frees one admission slot.  In steady state the next trace
request takes it and the completing object carries that request on (the
hand-over: ``fe.in_flight`` is not written, the pool is not visited);
when the limit was raised behind the front-end's back the hand-over is
followed by the admission loop (the multi-slot exit); when there is
nothing to admit — the trace has run out, or a failure lowered the limit
under the connections in flight — the slot is given up and the object
parked.  Each run below takes all three, under the sanitizer, and must
leave the books of ``tests/cluster_oracle.py``, whose completion is
``in_flight -= 1`` and a call to the admission loop, with every
connection object either in flight or in the pool whenever an event
looks.
"""

import dataclasses
import io
import sys

import pytest

from repro.cluster.frontend import FrontEnd
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.obs import SpanWriter
from repro.obs.tracer import SimTracer
from repro.workload.synthetic import synthesize_trace
from tests.cluster_oracle import use_oracle
from tests.seeded_mutation import assert_selected_tests_fail
from tests.test_cluster_differential import _schedule

_MEMBERSHIP = dict(membership_events=((0.5, "fail", 1), (1.5, "join", 1)))
_CASES = {
    "plain": _MEMBERSHIP,
    "persistent": dict(requests_per_connection=4, **_MEMBERSHIP),
    # Crashes, rejoins and give-ups come from the schedule.
    "faulty": dict(fault_schedule=_schedule(3)),
}
#: When the admission limit is raised without anyone admitting.
_RAISES = (0.2, 0.9, 1.9)


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(
        num_requests=3000, num_targets=400, total_bytes=64 * 2**20, zipf_alpha=1.0, seed=11
    )


class _Watch:
    """What the state machine did, seen through the ``FrontEnd`` it
    admits through."""

    def __init__(self, monkeypatch):
        self.built = 0
        self.loop_admissions = 0
        self.multi_slot_exits = 0
        self.parked_at_most = 0
        self.looks = 0
        new_connection, admit = FrontEnd.new_connection, FrontEnd.admit

        def counted_new_connection(frontend):
            self.built += 1
            return new_connection(frontend)

        def counted_admit(frontend):
            self.multi_slot_exits += sys._getframe(1).f_code.co_name == "_complete"
            before = frontend.connections
            admit(frontend)
            self.loop_admissions += frontend.connections - before

        monkeypatch.setattr(FrontEnd, "new_connection", counted_new_connection)
        monkeypatch.setattr(FrontEnd, "admit", counted_admit)

    def look(self, sim):
        frontend = sim.frontend
        parked = len(frontend.pool)
        assert frontend.in_flight + parked == self.built
        self.parked_at_most = max(self.parked_at_most, parked)
        self.looks += 1


def _run(trace, case, traced, watch=None):
    """``(asdict(result), span log)``; on the oracle when ``watch`` is
    ``None``."""
    sink = io.StringIO()
    tracer = SimTracer(SpanWriter(sink, source="sim"), sample_interval_s=0.05) if traced else None
    config = ClusterConfig(
        policy="lard/r", num_nodes=3, node_cache_bytes=2**19,
        sanitize=True, sanitize_interval=64, **_CASES[case],
    )
    sim = ClusterSimulator(trace, config, tracer=tracer)
    frontend, engine = sim.frontend, sim.engine

    def raise_limit():
        frontend.max_in_flight += 3

    def look():
        if watch is not None:
            watch.look(sim)
        if not frontend.done:
            engine.schedule(0.02, look)

    for when in _RAISES:
        engine.schedule(when, raise_limit)
    engine.schedule(0.02, look)
    if watch is None:
        use_oracle(sim)
    result = dataclasses.asdict(sim.run())
    assert sim.sanitizer.events_seen == engine.events_dispatched
    if tracer is not None:
        tracer.writer.close()
    return result, sink.getvalue()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_every_exit_of_complete_keeps_the_oracles_books(trace, case, traced, monkeypatch):
    reference = _run(trace, case, traced)
    watch = _Watch(monkeypatch)
    assert _run(trace, case, traced, watch) == reference
    connections = reference[0]["connections"]
    # Hand-over: most connections were admitted by a completion, on the
    # completing object, so far fewer objects were built than admitted.
    assert connections - watch.loop_admissions > connections // 2
    assert watch.built < connections // 2
    # Multi-slot: a completion after a raise found more than its own
    # slot free (every raise, unless a crash or a give-up got there first).
    assert 1 <= watch.multi_slot_exits <= len(_RAISES)
    # Park: objects were seen in the pool while the run was on.
    assert watch.looks > 20 and watch.parked_at_most > 3


#: The park exit that forgets to give the slot up.  Batches of one and
#: of four leave through the same ``_complete``; each must catch it.
_PARK_EXIT = "the slot is given up and the object parked.\n            fe.in_flight = in_flight\n"
#: name -> (anchor in cluster/fastpath.py, ``-k`` selector).
_MUTATIONS = {
    "plain-park-exit-keeps-the-slot": (_PARK_EXIT, "plain"),
    "batch-park-exit-keeps-the-slot": (_PARK_EXIT, "persistent or faulty"),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_seeded_exit_mutation_is_caught(name, tmp_path):
    anchor, selector = _MUTATIONS[name]
    assert_selected_tests_fail(
        tmp_path, "cluster/fastpath.py", anchor,
        anchor.replace("            fe.in_flight = in_flight\n", ""),
        __file__, f"every_exit and untraced and ({selector})",
    )
