"""Discrete-event simulation substrate.

A from-scratch, dependency-free event-list simulator with generator-based
processes, FIFO multi-server resources, and one-shot broadcast events.  See
:mod:`repro.sim.engine` and :mod:`repro.sim.resources` for details.

``Engine()`` here gives the compiled engine where the extension loads
(built on first use) and no profiler is attached, else
:class:`repro.sim.engine.Engine`, the pure-Python reference.  Both keep
one contract.
"""

from . import engine
from .engine import Delay, Process, SimulationError
from .resources import Resource, Service, SimEvent, Wait
from .sanitize import InvariantSanitizer, SanitizerError


def Engine() -> engine.Engine:  # noqa: N802 -- a constructor to its callers
    """A fresh engine: :func:`repro.sim.native.new_engine`."""
    from .native import new_engine  # on first use: importing repro.sim builds nothing

    return new_engine()


__all__ = [
    "Engine",
    "Process",
    "Delay",
    "SimulationError",
    "InvariantSanitizer",
    "SanitizerError",
    "Resource",
    "Service",
    "SimEvent",
    "Wait",
]
