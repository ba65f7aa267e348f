"""Discrete-event simulation engine.

This module provides the minimal-but-complete event-driven substrate used by
the cluster simulator (:mod:`repro.cluster`).  It is deliberately independent
of any web-server concepts so that it can be tested (and reused) on its own.

The engine follows the classic event-list design:

* :class:`Engine` owns a simulated clock and a priority queue of pending
  events, each a ``(time, sequence, fn, arg)`` tuple dispatched as
  ``fn(arg)``.  Ties in time are broken by insertion order, which makes
  runs fully deterministic.  One function and one argument is the whole
  event: the cluster's request lifecycle schedules a stage function
  with its connection (``Engine.push``, :meth:`Engine.post`), so no
  event needs a closure, a bound method or an argument tuple, and the
  run loop has one way to call every event.  :meth:`Engine.schedule`
  takes a callback of any arity and folds it into that shape.
* :class:`Process` wraps a Python generator.  The generator *yields* command
  objects (:class:`Delay`, and :class:`Service` and :class:`Wait` from
  :mod:`repro.sim.resources`) and is resumed by the engine when the
  command completes.  This is the same coroutine style used by SimPy,
  implemented here from scratch so the reproduction has no
  third-party simulation dependency.

Example
-------
>>> eng = Engine()
>>> log = []
>>> def proc():
...     yield Delay(2.0)
...     log.append(eng.now)
>>> _ = eng.process(proc())
>>> eng.run()
2.0
>>> log
[2.0]
"""

from __future__ import annotations

import heapq  # lardlint: disable-file=raw-heapq -- this IS the engine: every push carries the (time, seq) tie-break the rule exists to enforce
from collections import deque
from functools import partial
from operator import length_hint
from typing import Any, Callable, Deque, Generator, Iterator, List, Optional, Tuple

__all__ = ["Engine", "Process", "Delay", "SimulationError"]

try:
    from operator import call as _call  # Python 3.11+: call(f) is f(), in C
except ImportError:  # pragma: no cover - Python < 3.11

    def _call(fn: Callable[[], Any]) -> Any:
        return fn()


_heappush = heapq.heappush

#: A pending event: dispatched as ``fn(arg)`` at ``time``.
Event = Tuple[float, int, Callable[[Any], Any], Any]


#: The bound of an unbounded run that takes the general loop.
_NEVER = float("inf")

#: One past the last tie-break number an engine hands out: 2**62 - 1
#: events outlast any simulation.
_SEQ_END = 1 << 62


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling into the past)."""


class Delay:
    """Command: suspend the issuing process for ``duration`` simulated units.

    ``Delay(0)`` is legal and yields control back to the engine for one
    scheduling round, which is occasionally useful to let same-time events
    interleave deterministically.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"negative delay: {duration!r}")
        self.duration = float(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.duration!r})"


class Process:
    """A generator-driven simulation process.

    Created via :meth:`Engine.process`.  The wrapped generator communicates
    with the engine by yielding command objects; any other yielded value
    raises :class:`SimulationError` so silent protocol mistakes cannot
    corrupt a simulation.

    Attributes
    ----------
    finished:
        True once the generator has run to completion.
    value:
        The value returned by the generator (via ``return value``), or
        ``None``.
    """

    __slots__ = ("engine", "_gen", "finished", "value", "name", "_resume")

    def __init__(
        self, engine: "Engine", gen: Generator[Any, Any, Any], name: str = ""
    ) -> None:
        self.engine = engine
        self._gen = gen
        self.finished = False
        self.value: Any = None
        self.name = name
        # The resume callable commands hand to resources and events (a
        # wakeup is ``_resume(value)``); binding it eagerly avoids
        # re-creating a method object on every wakeup.
        self._resume = self._step

    def _step(self, send_value: Any = None) -> None:
        """Advance the generator by one command and arm the next wakeup."""
        try:
            command = self._gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.value = stop.value
            return
        # Exact-type check instead of isinstance: Delay is final in
        # practice and this is the engine's innermost dispatch.
        if command.__class__ is Delay:
            self.engine.post(command.duration, self._resume, None)
            return
        try:
            # Resource-style commands (Service/Wait)
            # register themselves and invoke ``process._step(result)``
            # when done.  The direct call avoids the bound-method
            # allocation a getattr-then-call would pay per event.
            command._activate(self)
        except AttributeError:
            if hasattr(command, "_activate"):
                raise  # genuine AttributeError from inside the command
            raise SimulationError(
                f"process {self.name or self._gen!r} yielded an unknown "
                f"command: {command!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "active"
        return f"<Process {self.name or hex(id(self))} {state}>"


class Engine:
    """Deterministic event-list simulation engine.

    The clock starts at 0.0 and only moves forward.  Most scheduling is
    done in relative time via :meth:`schedule`, which composes well and
    cannot create events in the past; :meth:`schedule_at` offers absolute
    time with an explicit past-guard for callers that already hold a
    deadline.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: List[Event] = []
        # Same-instant staging FIFO.  An event scheduled for the
        # *current* clock reading necessarily sorts after every
        # queued event with an earlier time and after every same-time
        # event already in the heap (those were pushed at an earlier
        # clock reading, hence with a smaller seq), so it can skip the
        # heap entirely: a quarter of a cluster simulation's events are
        # zero-delay admissions and wakeups, and each would otherwise
        # sift to the heap root on push and back down on pop.  The
        # invariant "staged time == current clock" holds because the
        # clock never moves while the FIFO is non-empty: the run loops
        # drain it before popping a later heap entry, and run() refuses
        # an ``until`` behind the clock.
        self._nowq: Deque[Event] = deque()
        #: The tie-break counter, a C iterator: every scheduling path
        #: draws an event's seq as ``next(seqs)``, at no Python frame;
        #: what is left of the range tells how many were (``scheduled``).
        self.seqs: Iterator[int] = iter(range(1, _SEQ_END))
        #: ``push((when, next(seqs), fn, arg))``: :meth:`post` with no
        #: frame, for a caller that has checked ``when = now + delay >
        #: now`` itself; any other delay goes to :meth:`post`, which
        #: stages or refuses it.
        self.push: Callable[[Event], None] = partial(heapq.heappush, self._queue)
        # True whenever no run loop is going to dispatch another event:
        # before run(), once it returns, and from stop() on.  Code that
        # runs an event in place of staging it (the request lifecycle's
        # start events, repro.cluster.fastpath) reads it, counts the
        # event in ``events_dispatched`` and shows it to the sanitizer's
        # hook itself.
        self._stopped = True
        self.events_dispatched = 0
        # Optional per-event invariant hook (see repro.sim.sanitize):
        # run() reads it once and keeps the unsanitized hot loop free of
        # it — not even a None check per event.
        self._sanitizer: Optional[Callable[[float, Callable[..., Any]], None]] = None

    # -- scheduling ---------------------------------------------------------

    def post(self, delay: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay`` simulated time units.

        The engine's own event shape, stored as given: the request
        lifecycle posts a stage function and its connection, a resource
        a job's completion, a process its own resumption.
        """
        # ``not >=`` rather than ``<``: a NaN delay fails every compare,
        # and must not slip through to be staged at the current instant.
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule into the past or at NaN (delay={delay})"
            )
        now = self.now
        when = now + delay
        # Route on the *computed* event time, not on ``delay == 0``:
        # a subnormal delay can round ``now + delay`` back to ``now``,
        # and such an event must keep FIFO order with the staged ones.
        if when > now:
            _heappush(self._queue, (when, next(self.seqs), fn, arg))
        else:
            self._nowq.append((when, next(self.seqs), fn, arg))

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated time units:
        :meth:`post`, for a callback of any arity (none is
        ``_call(callback)``, several a ``partial``)."""
        if not args:
            self.post(delay, _call, callback)
        elif len(args) == 1:
            self.post(delay, callback, args[0])
        else:
            self.post(delay, _call, partial(callback, *args))

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``.

        ``when`` may equal the current clock (the event runs after all
        events already queued for this instant, preserving insertion
        order); scheduling strictly into the past — or at NaN, which is
        no time at all — raises :class:`SimulationError`.
        """
        if not when >= self.now:
            raise SimulationError(
                f"cannot schedule into the past or at NaN (when={when}, now={self.now})"
            )
        if len(args) == 1:
            fn, arg = callback, args[0]
        elif args:
            fn, arg = _call, partial(callback, *args)
        else:
            fn, arg = _call, callback
        if when > self.now:
            _heappush(self._queue, (when, next(self.seqs), fn, arg))
        else:
            self._nowq.append((when, next(self.seqs), fn, arg))

    def process(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Register a generator as a process, starting it at the current time."""
        proc = Process(self, gen, name=name)
        # Start the process via the event queue (not synchronously) so that
        # creation order and execution order are both deterministic.
        self._nowq.append((self.now, next(self.seqs), proc._resume, None))
        return proc

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the queue is empty or the clock passes ``until``.

        Returns the final simulated time.  When ``until`` is given, events
        scheduled after it are left in the queue and the clock is advanced
        exactly to ``until``.  An ``until`` behind the clock (or NaN)
        raises :class:`SimulationError`: the clock only moves forward.

        There are two loops.  An unbounded run with no sanitizer takes
        the hot one, which checks nothing per event; every other run —
        bounded, sanitized or both — takes the general one, where the
        bound is one compare per heap pop and the sanitizer's hook one
        ``None`` test per event.  Neither counts: every event the run
        dispatched was pending when it started or scheduled since, and
        is no longer pending, so ``events_dispatched`` grows by the
        drop in ``_backlog`` when the loop exits — an event that raised
        included.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"cannot run into the past or to NaN (until={until}, now={self.now})"
            )
        hook = self._sanitizer
        self._stopped = False
        queue = self._queue
        nowq = self._nowq
        pop = heapq.heappop
        backlog = self._backlog()
        try:
            if until is None and hook is None:
                # Hot loop: no bound checks — post/schedule_at guarantee
                # event times are never in the past.  Staged same-instant
                # events dispatch after any equal-time heap entry (the
                # heap entry's seq is necessarily smaller).
                while not self._stopped:
                    if nowq:
                        if queue and queue[0][0] <= nowq[0][0]:
                            when, _seq, fn, arg = pop(queue)
                        else:
                            when, _seq, fn, arg = nowq.popleft()
                    elif queue:
                        when, _seq, fn, arg = pop(queue)
                    else:
                        break
                    self.now = when
                    fn(arg)
                return self.now
            # Staged events are due at the current clock, which the
            # guard above keeps <= until: only heap entries can be late.
            limit = _NEVER if until is None else until
            while not self._stopped:
                if nowq:
                    if queue and queue[0][0] <= nowq[0][0]:
                        when, _seq, fn, arg = pop(queue)
                    else:
                        when, _seq, fn, arg = nowq.popleft()
                elif queue:
                    if queue[0][0] > limit:
                        break
                    when, _seq, fn, arg = pop(queue)
                else:
                    break
                self.now = when
                fn(arg)
                if hook is not None:
                    # The hook is shown the callback that ran: a zero-
                    # argument one is the argument of ``_call``.
                    hook(when, arg if fn is _call else fn)
            if until is not None and self.now < until and not self._stopped:
                self.now = until
            return self.now
        finally:
            self._stopped = True
            self.events_dispatched += backlog - self._backlog()

    def _backlog(self) -> int:
        """Events pending plus sequence numbers not yet drawn: it drops
        by one per event dispatched and by nothing else, since every
        event scheduled draws one number and becomes pending."""
        return self.pending + length_hint(self.seqs)

    def install_sanitizer(
        self, hook: Optional[Callable[[float, Callable[..., Any]], None]]
    ) -> None:
        """Invoke ``hook(event_time, callback)`` after every dispatched event.

        ``callback`` is the event's function (a stage function, for the
        request lifecycle), or the callback itself for one scheduled
        with no arguments.  :meth:`run` reads the hook once, when it
        starts; with none installed an unbounded run keeps the unchecked
        hot loop.  Code that runs an event in place of staging it (see
        ``_stopped``) calls the hook for that event itself, right after
        the event, with the clock and the function the loop would have
        passed.  Pass ``None`` to uninstall.
        """
        self._sanitizer = hook

    def stop(self) -> None:
        """Halt :meth:`run` after the currently dispatching event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue) + len(self._nowq)

    @property
    def scheduled(self) -> int:
        """Number of events ever scheduled: seq numbers drawn from
        ``seqs`` (read without drawing one)."""
        return _SEQ_END - 1 - length_hint(self.seqs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:.6f} pending={self.pending}>"
