"""Trace-driven web-cluster simulator (paper Sections 3–4).

Build a :class:`ClusterConfig`, pick a trace from :mod:`repro.workload`,
and call :func:`run_simulation`:

>>> from repro.workload import rice_like_trace
>>> from repro.cluster import run_simulation
>>> result = run_simulation(rice_like_trace(num_requests=20_000),
...                         policy="lard/r", num_nodes=8)
>>> result.throughput_rps > 0
True
"""

from .costs import PAPER_NODE_CACHE_BYTES, CostModel
from .faults import (
    REJOIN_MODES,
    Brownout,
    CrashFault,
    FaultRuntime,
    FaultSchedule,
    RetryPolicy,
    generate_fault_schedule,
)
from .frontend import FrontEnd
from .frontend_capacity import FrontEndCapacityModel
from .metrics import (
    UNDERUTILIZATION_FRACTION,
    DegradedTimeline,
    LoadTracker,
    SimulationResult,
    recovery_time_s,
)
from .node import BackendNode
from .simulator import (
    CACHE_POLICIES,
    ClusterConfig,
    ClusterSimulator,
    make_cache,
    run_simulation,
    stripe_by_frequency,
)

__all__ = [
    "CostModel",
    "PAPER_NODE_CACHE_BYTES",
    "BackendNode",
    "FrontEnd",
    "FrontEndCapacityModel",
    "LoadTracker",
    "SimulationResult",
    "DegradedTimeline",
    "recovery_time_s",
    "UNDERUTILIZATION_FRACTION",
    "FaultSchedule",
    "CrashFault",
    "Brownout",
    "RetryPolicy",
    "FaultRuntime",
    "generate_fault_schedule",
    "REJOIN_MODES",
    "ClusterConfig",
    "ClusterSimulator",
    "run_simulation",
    "make_cache",
    "stripe_by_frequency",
    "CACHE_POLICIES",
]
