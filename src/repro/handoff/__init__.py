"""Live TCP hand-off prototype (paper Sections 5 and 6).

A working cluster on loopback: a front-end that accepts connections,
inspects the HTTP request, runs any :mod:`repro.core` policy, and hands
the *established* connection to a back-end that replies directly to the
client.  The kernel hand-off module of the paper is replaced by in-process
socket transfer (default) or genuine cross-process FD passing over
SCM_RIGHTS (:mod:`repro.handoff.fdpass`).

Fault tolerance (paper Section 2.6, live): heartbeat failure detection
(:mod:`repro.handoff.health`), hand-off failover with capped backoff,
graceful drain, and a scripted chaos harness
(:mod:`repro.handoff.faults`).
"""

from .backend import (
    BackendServer,
    BackendStats,
    BackendUnavailableError,
    HandoffItem,
)
from .client import LoadGenerator, LoadResult, fetch_one
from .cluster import ClusterStats, HandoffCluster, L4ProxyCluster
from .dispatcher import Dispatcher
from .docroot import DocumentStore
from .faults import BackendFaults, FaultInjector
from .frontend import FrontEndServer, FrontEndStats
from .health import HealthMonitor, HealthStats
from .http import HTTPError, HTTPRequest, build_response, parse_request_head
from .l4proxy import L4ProxyFrontEnd, L4ProxyStats

__all__ = [
    "HandoffCluster",
    "L4ProxyCluster",
    "L4ProxyFrontEnd",
    "L4ProxyStats",
    "ClusterStats",
    "BackendServer",
    "BackendStats",
    "BackendUnavailableError",
    "BackendFaults",
    "FaultInjector",
    "HandoffItem",
    "HealthMonitor",
    "HealthStats",
    "FrontEndServer",
    "FrontEndStats",
    "Dispatcher",
    "DocumentStore",
    "LoadGenerator",
    "LoadResult",
    "fetch_one",
    "HTTPRequest",
    "HTTPError",
    "parse_request_head",
    "build_response",
]
