"""Host-speed probe: rescales host seconds to a reference machine state.

This sandbox drifts between faster and up to ~27% slower states over
seconds to minutes on identical code (CPU time tracks wall time), which
no median inside a 20 s run can average away.  The ledger therefore
brackets every timed region with two samples of a fixed probe and
expresses its duration at a reference host speed.

The probe is two halves, because neither tracks every workload alone: a
frozen miniature of the simulator's instruction mix (event heap, bound
callbacks, least-loaded scans, dict caches), and the tight integer loop
of ``micro.calibration_score``.  Measured over 8 minutes, 15 s window
medians of the ``ref-8n`` cell spread (IQR / median) 7.4% raw, 3.4%
scaled by the loop, 2.3% by the miniature; the ``scaleout-1024n`` round
spread 10.5% raw and 5.1% scaled by their geometric mean, which is what
:class:`HostSpeed` uses.

Standard library only — it must run before the repo is imported, so the
import time in ``setup_s`` can be rescaled too — and it shares no code
with ``src/``, so a change there cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

#: The reference state (about this sandbox's fast one): miniature
#: requests per second, and loop iterations per second.
REF_PROBE_REQ_PER_S = 450_000.0
REF_LOOP_OPS_PER_S = 33_000_000.0

#: One sample is ~27 ms of miniature plus ~15 ms of loop.
_PROBE_REQUESTS = 12_000
_LOOP_ITERATIONS = 500_000


class _ProbeNode:
    __slots__ = ("load", "queue", "hits", "cache")

    def __init__(self) -> None:
        self.load = 0
        self.queue: Deque[int] = deque()
        self.hits = 0
        self.cache: Dict[int, int] = {}


class _Probe:
    """The miniature: closed-loop requests over 8 nodes with dict caches."""

    def __init__(self, nodes: int = 8) -> None:
        self.nodes = [_ProbeNode() for _ in range(nodes)]
        self.heap: List[Tuple[float, int, Any, Tuple[Any, ...]]] = []
        self.seq = 0
        self.now = 0.0

    def schedule(self, delay: float, callback: Any, *args: Any) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback, args))

    def arrive(self, key: int) -> None:
        loads = [node.load for node in self.nodes]
        node = self.nodes[loads.index(min(loads))]
        node.load += 1
        target = (key * 2654435761) % 30011
        cache = node.cache
        if target in cache:
            node.hits += 1
            delay = 0.001
        else:
            cache[target] = key
            if len(cache) > 3000:
                cache.pop(next(iter(cache)))
            delay = 0.01 + (target % 7) * 0.001
        node.queue.append(key)
        self.schedule(delay, self.finish, node)

    def finish(self, node: _ProbeNode) -> None:
        node.queue.popleft()
        node.load -= 1

    def run(self, requests: int) -> None:
        heap, pop, finish = self.heap, heapq.heappop, self.finish
        for key in range(400):
            self.schedule(0.0001 * key, self.arrive, key)
        key = 400
        while heap:
            self.now, _seq, callback, args = pop(heap)
            callback(*args)
            if callback == finish and key < requests:
                self.schedule(0.0, self.arrive, key)
                key += 1


def _loop(iterations: int) -> int:
    x = 0
    for i in range(iterations):
        x += i & 7
    return x


class HostSpeed:
    """Interleaved probe samples; 1.0 is the reference host state."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last_at = float("-inf")

    def sample(self) -> float:
        probe = _Probe()
        t0 = time.perf_counter()
        probe.run(_PROBE_REQUESTS)
        t1 = time.perf_counter()
        _loop(_LOOP_ITERATIONS)
        self._last_at = time.perf_counter()
        miniature = _PROBE_REQUESTS / (t1 - t0) / REF_PROBE_REQ_PER_S
        loop = _LOOP_ITERATIONS / (self._last_at - t1) / REF_LOOP_OPS_PER_S
        self.samples.append((miniature * loop) ** 0.5)
        return self.samples[-1]

    def recent(self) -> float:
        """The last sample if it ended under 0.2 s ago (the state outlives
        that, and 60 ms cells would otherwise mostly calibrate), else a new one."""
        if time.perf_counter() - self._last_at < 0.2:
            return self.samples[-1]
        return self.sample()

    @staticmethod
    def normalized(raw_s: float, before: float, after: float) -> float:
        """``raw_s`` host seconds expressed at the reference speed."""
        return raw_s * (before + after) / 2.0


def iqr_ratio(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 under 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
