"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Delay, Engine, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_and_run_in_time_order():
    eng = Engine()
    log = []
    eng.schedule(2.0, lambda: log.append(("b", eng.now)))
    eng.schedule(1.0, lambda: log.append(("a", eng.now)))
    eng.schedule(3.0, lambda: log.append(("c", eng.now)))
    eng.run()
    assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_ties_break_by_insertion_order():
    eng = Engine()
    log = []
    for name in "abc":
        eng.schedule(1.0, lambda n=name: log.append(n))
    eng.run()
    assert log == ["a", "b", "c"]


def test_schedule_with_args():
    eng = Engine()
    log = []
    eng.schedule(1.0, log.append, "x")
    eng.run()
    assert log == ["x"]


def test_an_event_is_one_function_and_one_argument():
    """``post`` stores ``(time, seq, fn, arg)`` as given and the loop
    calls ``fn(arg)``; ``schedule`` folds every arity into that shape,
    and both draw on one sequence, so ties keep the order of the calls
    whichever made them."""
    eng = Engine()
    log = []

    class Conn:
        def stage(self):
            log.append(("stage", self is conn, eng.now))

    conn = Conn()
    eng.post(1.0, Conn.stage, conn)
    assert eng._queue == [(1.0, 1, Conn.stage, conn)]
    eng.schedule(1.0, lambda: log.append(("none",)))
    eng.schedule(1.0, log.append, ("one",))
    eng.schedule(1.0, lambda a, b: log.append(("two", a, b)), "a", "b")
    eng.schedule_at(1.0, log.append, ("at",))
    eng.post(0.0, log.append, ("staged",))
    assert eng._nowq[0][2:] == (log.append, ("staged",))
    eng.run()
    assert log == [
        ("staged",),
        ("stage", True, 1.0),
        ("none",),
        ("one",),
        ("two", "a", "b"),
        ("at",),
    ]
    assert eng.events_dispatched == 6


@pytest.mark.parametrize("sanitized", [False, True])
def test_post_refuses_the_past_and_nan(sanitized):
    eng = Engine()
    if sanitized:
        eng.install_sanitizer(lambda when, callback: None)
    for delay in (-0.1, float("nan")):
        with pytest.raises(SimulationError):
            eng.post(delay, id, None)
    assert eng.pending == 0


def test_the_hook_is_shown_the_callback_that_ran():
    """A posted event shows its function; a callback scheduled with no
    arguments shows itself, not the adapter that called it."""
    eng = Engine()
    seen, sink = [], []
    eng.install_sanitizer(lambda when, callback: seen.append(callback))

    def tick():
        pass

    eng.post(1.0, sink.append, 1)
    eng.schedule(2.0, tick)
    eng.schedule(3.0, sink.append, 3)
    eng.run(until=5.0)
    assert seen == [sink.append, tick, sink.append] and sink == [1, 3]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-0.1, lambda: None)


def test_run_until_stops_clock_exactly():
    eng = Engine()
    log = []
    eng.schedule(5.0, lambda: log.append("late"))
    end = eng.run(until=2.0)
    assert end == 2.0
    assert eng.now == 2.0
    assert log == []
    assert eng.pending == 1
    eng.run()
    assert log == ["late"]


def test_run_until_beyond_last_event_advances_clock():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    end = eng.run(until=10.0)
    assert end == 10.0


@pytest.mark.parametrize("sanitized", [False, True])
def test_run_until_behind_the_clock_is_rejected(sanitized):
    eng = Engine()
    if sanitized:
        eng.install_sanitizer(lambda when, callback: None)
    log = []
    eng.schedule(5.0, log.append, "late")
    eng.run(until=3.0)
    with pytest.raises(SimulationError, match="into the past"):
        eng.run(until=1.0)
    assert eng.now == 3.0
    eng.schedule(0.5, lambda: log.append(eng.now))
    eng.run()
    assert log == [3.5, "late"]


def test_nan_is_refused_at_every_time_boundary():
    """NaN fails every compare, so ``delay < 0`` / ``when < now`` /
    ``until < now`` all let it in: the event was staged at the current
    instant and ``run()`` returned with ``engine.now == nan``."""
    nan = float("nan")
    eng = Engine()
    with pytest.raises(SimulationError, match="NaN"):
        eng.schedule(nan, lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        eng.schedule_at(nan, lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        eng.run(until=nan)
    assert eng.pending == 0 and eng.now == 0.0
    eng.schedule(1.0, lambda: None)
    assert eng.run() == 1.0


def test_run_until_now_still_dispatches_events_due_now():
    eng = Engine()
    log = []
    eng.schedule(2.0, log.append, "queued")
    eng.run(until=2.0)
    eng.schedule(0.0, log.append, "staged")
    eng.schedule(1.0, log.append, "later")
    assert eng.run(until=eng.now) == 2.0
    assert log == ["queued", "staged"]
    assert eng.pending == 1


def test_stop_halts_dispatch():
    eng = Engine()
    log = []
    eng.schedule(1.0, lambda: (log.append("first"), eng.stop()))
    eng.schedule(2.0, lambda: log.append("second"))
    eng.run()
    assert log == ["first"]
    assert eng.pending == 1


def test_events_dispatched_counter():
    eng = Engine()
    for _ in range(5):
        eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.events_dispatched == 5


def test_events_scheduled_during_run_are_dispatched():
    eng = Engine()
    log = []

    def first():
        eng.schedule(1.0, lambda: log.append(eng.now))

    eng.schedule(1.0, first)
    eng.run()
    assert log == [2.0]


class TestProcess:
    def test_simple_delay_process(self):
        eng = Engine()
        log = []

        def proc():
            yield Delay(1.5)
            log.append(eng.now)
            yield Delay(0.5)
            log.append(eng.now)

        eng.process(proc())
        eng.run()
        assert log == [1.5, 2.0]

    def test_process_return_value_captured(self):
        eng = Engine()

        def proc():
            yield Delay(1.0)
            return 42

        handle = eng.process(proc())
        eng.run()
        assert handle.finished
        assert handle.value == 42

    def test_zero_delay_is_legal(self):
        eng = Engine()
        log = []

        def proc():
            yield Delay(0.0)
            log.append(eng.now)

        eng.process(proc())
        eng.run()
        assert log == [0.0]

    def test_negative_delay_in_process_rejected(self):
        with pytest.raises(SimulationError):
            Delay(-1.0)

    def test_unknown_yield_raises(self):
        eng = Engine()

        def proc():
            yield "not a command"

        eng.process(proc())
        with pytest.raises(SimulationError, match="unknown"):
            eng.run()

    def test_two_processes_interleave(self):
        eng = Engine()
        log = []

        def proc(name, step):
            for _ in range(3):
                yield Delay(step)
                log.append((name, eng.now))

        eng.process(proc("fast", 1.0))
        eng.process(proc("slow", 2.0))
        eng.run()
        assert log == [
            ("fast", 1.0),
            ("slow", 2.0),  # slow's wakeup was queued earlier -> dispatched first
            ("fast", 2.0),
            ("fast", 3.0),
            ("slow", 4.0),
            ("slow", 6.0),
        ]

    def test_process_not_started_synchronously(self):
        eng = Engine()
        log = []

        def proc():
            log.append("started")
            yield Delay(1.0)

        eng.process(proc())
        assert log == []  # starts via the event queue, not at creation
        eng.run()
        assert log == ["started"]


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        log = []

        def proc(n):
            yield Delay(n * 0.1)
            log.append(n)
            yield Delay(1.0)
            log.append(n * 10)

        for n in range(5):
            eng.process(proc(n))
        eng.run()
        return log

    assert build() == build()


class TestScheduleAt:
    def test_runs_at_absolute_time(self):
        eng = Engine()
        log = []
        eng.schedule_at(2.5, lambda: log.append(eng.now))
        eng.run()
        assert log == [2.5]

    def test_past_rejected(self):
        eng = Engine()
        eng.schedule(1.0, lambda: eng.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError, match="past"):
            eng.run()

    def test_now_is_legal_and_runs_after_queued_same_time_events(self):
        eng = Engine()
        log = []

        def first():
            log.append("first")
            eng.schedule_at(eng.now, lambda: log.append("at-now"))

        eng.schedule(1.0, first)
        eng.schedule(1.0, lambda: log.append("second"))
        eng.run()
        # The schedule_at(now) event was inserted after 'second' was already
        # queued for t=1.0, so insertion order places it last.
        assert log == ["first", "second", "at-now"]

    def test_interleaved_schedule_and_schedule_at_tie_break_by_insertion(self):
        eng = Engine()
        log = []
        eng.schedule(3.0, lambda: log.append("rel"))
        eng.schedule_at(3.0, lambda: log.append("abs"))
        eng.schedule(3.0, lambda: log.append("rel2"))
        eng.run()
        assert log == ["rel", "abs", "rel2"]

    def test_schedule_at_with_args(self):
        eng = Engine()
        log = []
        eng.schedule_at(1.0, lambda a, b: log.append((a, b)), 1, "x")
        eng.run()
        assert log == [(1, "x")]

    def test_mixed_determinism_two_identical_runs(self):
        def build():
            eng = Engine()
            log = []
            for i in range(5):
                eng.schedule(1.0 + (i % 2), lambda i=i: log.append(("rel", i)))
                eng.schedule_at(1.0 + (i % 3), lambda i=i: log.append(("abs", i)))
            eng.run()
            return log

        assert build() == build()
