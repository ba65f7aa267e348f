"""Discrete-event simulation substrate.

A from-scratch, dependency-free event-list simulator with generator-based
processes, FIFO multi-server resources, and one-shot broadcast events.  See
:mod:`repro.sim.engine` and :mod:`repro.sim.resources` for details.
"""

from .engine import Delay, Engine, Process, SimulationError
from .resources import Resource, Service, SimEvent, Wait
from .sanitize import InvariantSanitizer, SanitizerError

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
