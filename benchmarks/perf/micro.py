"""What the perf ledger (``benchmarks/perf/ledger``) shares with its
smoke tests: the calibration loop, the raw engine-dispatch micro and the
reference workload's parameters.  ``test_perf_smoke.py`` runs scaled-down
versions as a functional smoke test.  Everything is deterministic (fixed
seeds, fixed schedules), so run-to-run variance is machine noise only.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.cluster import PAPER_NODE_CACHE_BYTES
from repro.sim import Delay, Engine

__all__ = [
    "calibration_score",
    "bench_engine_events",
    "E2E_TRACE_PARAMS",
    "E2E_SIM_PARAMS",
]

#: The end-to-end benchmark workload: the 100k-request Rice-like trace at
#: 0.1 scale, served by 8 LARD/R nodes with proportionally scaled caches.
#: This is the configuration the tier-2 speedup claims are measured on.
E2E_TRACE_PARAMS: Dict[str, Any] = dict(num_requests=100_000, scale=0.1)
E2E_SIM_PARAMS: Dict[str, Any] = dict(
    policy="lard/r", num_nodes=8, node_cache_bytes=int(PAPER_NODE_CACHE_BYTES * 0.1)
)


def calibration_score(iterations: int = 2_000_000) -> float:
    """Pure-Python ops/sec of this interpreter on this machine.

    Perf metrics are normalized by this score before cross-machine
    regression comparison, so a slower CI runner does not read as a code
    regression.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i & 7
    elapsed = time.perf_counter() - t0
    assert x >= 0
    return iterations / elapsed


def bench_engine_events(num_events: int = 400_000, fanout: int = 200) -> Dict[str, float]:
    """Raw engine dispatch rate: ``fanout`` processes looping on Delay.

    Exercises the full hot path — heap push/pop, tuple dispatch,
    generator resumption — with a queue depth of ``fanout`` pending
    events, which matches the simulator's typical occupancy better than a
    single self-rescheduling callback would.
    """
    engine = Engine()
    steps = max(1, num_events // (2 * fanout))  # each step = 1 schedule + 1 dispatch

    def looper(period: float):
        for _ in range(steps):
            yield Delay(period)

    for i in range(fanout):
        engine.process(looper(0.5 + (i % 17) / 16.0))
    t0 = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - t0
    return {
        "seconds": elapsed,
        "events": float(engine.events_dispatched),
        "events_per_s": engine.events_dispatched / elapsed,
    }
