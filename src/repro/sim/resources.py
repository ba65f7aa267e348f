"""Queueing resources and synchronization primitives for the DES engine.

Two building blocks, with the commands a process yields to them:

* :class:`Resource` — a FIFO multi-server queue (``capacity`` servers).  A
  process yields ``Service(resource, duration)`` to enqueue a job and is
  resumed once its service completes.  The paper's back-end CPU and each
  disk are modelled as single-server :class:`Resource` instances.
* :class:`SimEvent` — a one-shot broadcast event; processes yielding
  ``Wait(event)`` are all resumed when ``event.trigger(value)`` fires.
  Used for read-coalescing: concurrent misses on one file wait for a single
  disk read.

The cluster's request lifecycle books these resources inline
(:mod:`repro.cluster.fastpath`); the commands are the substrate of the
coroutine reference oracle in ``tests/cluster_oracle.py`` (``Service``,
``Wait``, ``SimEvent``) and of the perf ledger's micro-benchmarks
(``Service``).

All resources track time-integrated busy-ness so that utilization can be
reported without sampling.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Tuple

from .engine import Engine, Process, SimulationError

__all__ = ["Resource", "Service", "SimEvent", "Wait"]


class Resource:
    """A FIFO queue in front of ``capacity`` identical servers.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.
    capacity:
        Number of jobs that may be in service simultaneously.
    name:
        Label used in ``repr`` and error messages.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._busy = 0
        # A waiting job is the event its start will post: ``(duration,
        # fn, arg)``, so that ``fn(arg)`` runs when the service ends.  A
        # generator process's job is this resource's ``_finish`` and the
        # process's resume callable; the cluster's state machine
        # (repro.cluster.fastpath) queues a stage function and its
        # connection, which books its own completion.  One shape, so
        # either side starts a waiter with ``engine.post(*job)``.
        self._waiting: Deque[Tuple[float, Callable[[Any], Any], Any]] = deque()
        # Utilization accounting: integral of (busy servers) dt.
        self._busy_integral = 0.0
        self._last_change = engine.now
        self.jobs_served = 0
        # No pre-bound ``self._finish`` kept here: an object holding a
        # method bound to itself is a reference cycle, and a finished
        # simulation is to be freed by reference count, not by the
        # cyclic collector (see ClusterSimulator).  Only generator
        # processes pay the per-job binding; the cluster's state machine
        # books its own completions.

    # -- accounting ---------------------------------------------------------

    def _account(self) -> None:
        now = self.engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Total server-busy time integrated up to the current clock."""
        self._account()
        return self._busy_integral

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity in use between ``since`` and now."""
        elapsed = self.engine.now - since
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (elapsed * self.capacity)

    @property
    def busy(self) -> int:
        """Servers currently in service."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not yet in service)."""
        return len(self._waiting)

    # -- mechanics ----------------------------------------------------------

    def _enqueue(self, resume: Callable[..., None], duration: float) -> None:
        job = (duration, self._finish, resume)
        # _start's body is inlined for the uncontended case: enqueue and
        # finish are the two most frequent operations in a simulation.
        if self._busy < self.capacity:
            engine = self.engine
            now = engine.now
            self._busy_integral += self._busy * (now - self._last_change)
            self._last_change = now
            self._busy += 1
            engine.post(*job)
        else:
            self._waiting.append(job)

    def _start(self, duration: float, fn: Callable[[Any], Any], arg: Any) -> None:
        now = self.engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy += 1
        self.engine.post(duration, fn, arg)

    def _finish(self, resume: Callable[..., None]) -> None:
        self.jobs_served += 1
        now = self.engine.now
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy -= 1
        if self._waiting and self._busy < self.capacity:
            self._start(*self._waiting.popleft())
        resume()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name or hex(id(self))} busy={self._busy}/"
            f"{self.capacity} queued={len(self._waiting)}>"
        )


class Service:
    """Command: enqueue at ``resource`` for ``duration`` of FIFO service."""

    __slots__ = ("resource", "duration")

    def __init__(self, resource: Resource, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"negative service duration: {duration!r}")
        self.resource = resource
        self.duration = duration

    def _activate(self, process: Process) -> None:
        self.resource._enqueue(process._resume, self.duration)


class SimEvent:
    """One-shot broadcast event.

    ``Wait(event)`` suspends a process until :meth:`trigger` fires; the
    triggered value is delivered as the result of the ``yield``.  Waiting on
    an already-triggered event resumes immediately with the stored value.
    """

    __slots__ = ("engine", "name", "triggered", "value", "_waiters")

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.triggered = False
        self.value: Any = None
        # Resume callables: a generator waiter registers
        # ``process._resume``.
        self._waiters: List[Callable[..., None]] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming every waiter with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            self.engine.post(0.0, resume, value)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered={self.value!r}" if self.triggered else "pending"
        return f"<SimEvent {self.name or hex(id(self))} {state}>"


class Wait:
    """Command: suspend until ``event`` triggers; yields the trigger value."""

    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.event = event

    def _activate(self, process: Process) -> None:
        if self.event.triggered:
            self.event.engine.post(0.0, process._resume, self.event.value)
        else:
            self.event._waiters.append(process._resume)
