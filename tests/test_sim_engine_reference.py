"""Property tests: the engine dispatches exactly like a naive event list.

:class:`repro.sim.Engine` keeps future events in a heap and same-instant
events in a staging FIFO; byte-identical simulations depend on the two
together consuming one ``(time, seq)`` stream.  These tests drive the
engine and an independent reference (a plain list re-sorted before every
pop) through the *same* schedule program — events scheduled from inside
callbacks, 0.0 delays, same-time ties, ``schedule_at`` at the current
instant, ``stop()`` mid-run, and ``run(until=...)`` boundaries — and
require the dispatch logs to match element for element.  The engine's
two counts, ``events_dispatched`` and ``scheduled``, are derived rather
than counted per event; they must equal the reference's pops and pushes.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim import Engine
from tests.seeded_mutation import assert_selected_tests_fail


class NaiveEngine:
    """The event-list semantics with nothing clever: sort, pop, call."""

    def __init__(self):
        self.now, self._seq, self._events, self._stopped = 0.0, 0, [], False
        #: Events popped and called (``_seq`` counts the pushes).
        self.pops = 0

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
            self.pops += 1
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


# -- the derived counts ---------------------------------------------------------


class _Raised(Exception):
    pass


def _counts(engine):
    """``(dispatched, scheduled)``: the engine's derived pair, or the
    reference's pops and pushes."""
    if isinstance(engine, NaiveEngine):
        return engine.pops, engine._seq
    return engine.events_dispatched, engine.scheduled


def _run_in_place(engine, callback):
    """What the request lifecycle does with a start event that would be
    dispatched next anyway: run it now, counted as dispatched and never
    scheduled."""
    if isinstance(engine, NaiveEngine):
        engine.pops += 1
    else:
        engine.events_dispatched += 1
    callback()


def _execute_counted(engine, program, roots, stop_at, raise_at, in_place_at, until_steps):
    """Run ``program`` through every exit a run has — a bound, ``stop()``
    from inside an event, an event that raises — with one event run in
    place; return the dispatch log and the counts after every run()."""
    log, counts = [], []

    def in_place():
        log.append(("in-place", engine.now))
        engine.schedule(0.0, log.append, ("after-in-place", engine.now))

    def fire(label):
        log.append((label, engine.now))
        for child, mode, delay in program[label]:
            if mode == "rel":
                engine.schedule(delay, fire, child)
            elif mode == "abs":
                engine.schedule_at(engine.now + delay, fire, child)
            else:
                engine.schedule_at(engine.now, fire, child)
        if len(log) == in_place_at:
            _run_in_place(engine, in_place)
        if len(log) == stop_at:
            engine.stop()
        if len(log) == raise_at:
            raise _Raised

    for label, delay in roots:
        engine.schedule(delay, fire, label)
    # A stop and a raise end one run each; the third unbounded run drains.
    for until in (*until_steps, None, None, None):
        try:
            engine.run(until=until)
        except _Raised:
            log.append("raised")
        counts.append(_counts(engine))
    return log, counts


_event_numbers = st.one_of(st.none(), st.integers(1, 30))


@given(
    _programs(),
    _event_numbers,
    _event_numbers,
    _event_numbers,
    st.lists(_delays, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_derived_counts_match_the_reference_pops_and_pushes(
    prog, stop_at, raise_at, in_place_at, boundaries
):
    program, roots = prog
    args = (program, roots, stop_at, raise_at, in_place_at, sorted(boundaries))
    engine = Engine()
    log, counts = _execute_counted(engine, *args)
    assert (log, counts) == _execute_counted(NaiveEngine(), *args)
    # Drained: every event scheduled was dispatched, and so was the one
    # run in place, if its turn came.
    dispatched, scheduled = counts[-1]
    assert engine.pending == 0
    ran_in_place = any(entry[0] == "in-place" for entry in log if entry != "raised")
    assert dispatched == scheduled + ran_in_place


def test_seeded_mutation_dropping_the_pending_at_start_term_is_caught(tmp_path):
    assert_selected_tests_fail(
        tmp_path,
        "sim/engine.py",
        "        backlog = self._backlog()\n",
        "        backlog = length_hint(self.seqs)\n",
        __file__,
        "derived_counts",
    )
