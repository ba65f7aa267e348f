"""Property tests: the engine dispatches exactly like a naive event list.

:class:`repro.sim.Engine` keeps future events in a heap and same-instant
events in a staging FIFO; byte-identical simulations depend on the two
together consuming one ``(time, seq)`` stream.  These tests drive the
engine and an independent reference (a plain list re-sorted before every
pop) through the *same* schedule program — events scheduled from inside
callbacks, 0.0 delays, same-time ties, ``schedule_at`` at the current
instant, ``stop()`` mid-run, and ``run(until=...)`` boundaries — and
require the dispatch logs to match element for element.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Engine


class NaiveEngine:
    """The event-list semantics with nothing clever: sort, pop, call."""

    def __init__(self):
        self.now, self._seq, self._events, self._stopped = 0.0, 0, [], False

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, when, callback, *args):
        self._seq += 1
        self._events.append((when, self._seq, callback, args))

    def stop(self):
        self._stopped = True

    def run(self, until=None):
        self._stopped = False
        while self._events and not self._stopped:
            self._events.sort(key=lambda event: event[:2])
            if until is not None and self._events[0][0] > until:
                break
            self.now, _seq, callback, args = self._events.pop(0)
            callback(*args)
        if until is not None and not self._stopped:
            self.now = max(self.now, until)
        return self.now


# A schedule program is a list of instructions, one per event label.  When
# event ``i`` fires it schedules the children listed in ``program[i]``;
# child indices always point *forward* so the recursion terminates.  Each
# child is (index, mode, delay): mode "rel" uses schedule(delay), "abs"
# uses schedule_at(now + delay), and "at-now" uses schedule_at(now).
_delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.75])
_modes = st.sampled_from(["rel", "abs", "at-now"])


@st.composite
def _programs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    program = []
    for i in range(n):
        children = draw(
            st.lists(
                st.tuples(st.integers(i + 1, max(i + 1, n - 1)), _modes, _delays),
                min_size=0,
                max_size=3,
            )
        )
        if i >= n - 1:
            children = []  # the last label cannot have forward children
        program.append(children)
    roots = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), _delays), min_size=1, max_size=6
        )
    )
    return program, roots


def _execute(engine, program, roots, stop_at=None, until_steps=()):
    """Run ``program`` on ``engine``; return its (label, time) dispatch log
    followed by the clock reading after each run() call."""
    log = []

    def fire(label):
        log.append((label, engine.now))
        if stop_at is not None and len(log) == stop_at:
            engine.stop()
        for child, mode, delay in program[label]:
            if mode == "rel":
                engine.schedule(delay, fire, child)
            elif mode == "abs":
                engine.schedule_at(engine.now + delay, fire, child)
            else:
                engine.schedule_at(engine.now, fire, child)

    for label, delay in roots:
        engine.schedule(delay, fire, label)
    clocks = [engine.run(until=until) for until in until_steps]
    clocks.append(engine.run())
    return log, clocks


def _compare(program, roots, **kwargs):
    log, clocks = _execute(Engine(), program, roots, **kwargs)
    assert (log, clocks) == _execute(NaiveEngine(), program, roots, **kwargs)
    times = [t for _, t in log]
    assert times == sorted(times)  # time never moves backwards
    return log


@given(_programs())
@settings(max_examples=120, deadline=None)
def test_engine_matches_naive_reference(prog):
    _compare(*prog)


@given(_programs())
@settings(max_examples=80, deadline=None)
def test_matches_with_stop_and_resume(prog):
    """stop() mid-run halts both at the same event; a fresh run() resumes
    both from the identical remaining stream."""
    _compare(*prog, stop_at=2)


@given(_programs(), st.lists(_delays, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_matches_across_until_boundaries(prog, boundaries):
    """run(until=...) windows — including boundaries that land exactly on
    event times — park the clock and split the stream identically."""
    _compare(*prog, until_steps=sorted(boundaries))


def test_until_boundary_dispatches_events_at_exactly_until():
    """An event scheduled exactly at ``until`` runs within that window,
    and the clock parks exactly at ``until``."""
    eng = Engine()
    log = []
    eng.schedule(1.0, log.append, "a")
    eng.schedule(2.0, log.append, "b")
    assert eng.run(until=1.0) == 1.0
    assert log == ["a"]
    assert eng.pending == 1


def test_schedule_at_now_runs_after_queued_same_time_events():
    """schedule_at(now) from inside a callback must run after every event
    already queued for this instant."""
    eng = Engine()
    log = []

    def first():
        log.append("first")
        eng.schedule_at(eng.now, log.append, "late")

    eng.schedule(1.0, first)
    eng.schedule(1.0, log.append, "second")  # queued before "late" exists
    eng.run()
    assert log == ["first", "second", "late"]


def test_zero_delay_cascade_keeps_fifo_order():
    """A chain of 0.0-delay events at one instant dispatches in insertion
    order (they are staged in the same-instant FIFO, not the heap)."""
    eng = Engine()
    log = []
    for name in "abc":
        eng.schedule(0.0, log.append, name)
    eng.schedule(0.0, lambda: eng.schedule(0.0, log.append, "child"))
    eng.run()
    assert log == ["a", "b", "c", "child"]


def test_spread_out_events_with_exact_ties_keep_time_seq_order():
    """500 events over 101 distinct instants: ties dispatch in insertion
    order, instants in time order."""
    eng = Engine()
    log = []
    delays = [(i * 37 % 101) * 0.125 for i in range(500)]
    for i, delay in enumerate(delays):
        eng.schedule(delay, log.append, i)
    eng.run()
    assert log == sorted(range(500), key=lambda i: (delays[i], i))
