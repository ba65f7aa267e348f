"""Simulation output metrics (paper Section 3.3).

* **Throughput** — "the number of requests in the trace divided by the
  simulated time it took to finish serving all the requests".
* **Cache hit/miss ratio** — "the number of requests that hit in a back
  end node's main memory cache divided by the number of requests".
* **Idle time** — "the fraction of simulated time during which a back end
  node was underutilized, averaged over all back end nodes", where
  *underutilized* means load below **40 % of T_low**.
* **Delay** — mean per-request latency, dispatch to completion
  (Section 4.4 compares LARD/R's delay against WRR's).

:class:`LoadTracker` integrates each node's time below that level over
the policy's own load list, so the idle figure needs no sampling; :class:`SimulationResult` is
the bundle every experiment consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "LoadTracker",
    "SimulationResult",
    "DegradedTimeline",
    "recovery_time_s",
    "nearest_rank",
    "UNDERUTILIZATION_FRACTION",
]


def nearest_rank(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already **sorted** sequence.

    Uses the ceil-based definition (rank ``ceil(p/100 * n)``), so exact
    multiples land on the rank itself: p50 of ``[1, 2]`` is 1, p0 is the
    minimum, p100 the maximum.  The one percentile rule of the package:
    the simulator's delay percentiles and the span-log statistics of
    :mod:`repro.obs.analyze` both call it.
    """
    if not 0 <= pct <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sequence")
    rank = math.ceil(pct / 100.0 * n)
    return ordered[min(n - 1, max(rank - 1, 0))]


#: "Node underutilization is defined as the time that a node's load is
#: less than 40% of T_low."
UNDERUTILIZATION_FRACTION = 0.40


class LoadTracker:
    """Time-integrates per-node underutilization over ``loads``, the
    policy's own active-connection list: it is told (:meth:`observe`)
    when an entry changed."""

    def __init__(self, loads: List[int], threshold: float) -> None:
        self.loads = loads
        self.num_nodes = num_nodes = len(loads)
        self.threshold = threshold
        self._under_since = [0.0] * num_nodes  # every node starts idle at t=0
        self._under_time = [0.0] * num_nodes
        self._is_under = [True] * num_nodes

    def observe(self, node: int, now: float) -> None:
        """``loads[node]`` was written at time ``now``."""
        load = self.loads[node]
        if load < 0:
            raise ValueError(f"node {node} load went negative")
        under = load < self.threshold
        if under and not self._is_under[node]:
            self._under_since[node] = now
            self._is_under[node] = True
        elif not under and self._is_under[node]:
            self._under_time[node] += now - self._under_since[node]
            self._is_under[node] = False

    def underutilized_fraction(self, node: int, end_time: float) -> float:
        """Fraction of [0, end_time] the node spent below the threshold."""
        if end_time <= 0:
            return 0.0
        under = self._under_time[node]
        if self._is_under[node]:
            under += end_time - self._under_since[node]
        return under / end_time

    def mean_underutilized_fraction(self, end_time: float) -> float:
        """Underutilized-time fraction averaged over all nodes (the paper's idle metric)."""
        if self.num_nodes == 0:
            return 0.0
        return sum(
            self.underutilized_fraction(node, end_time) for node in range(self.num_nodes)
        ) / self.num_nodes


@dataclass
class DegradedTimeline:
    """Per-bucket degraded-mode series from a faulted run.

    Buckets are ``int(completion_time // interval_s)``.  ``completions``
    counts served requests (goodput), ``misses`` the served requests
    that missed cache, ``lost`` the abandoned requests, and ``delays``
    every per-request delay (served *and* lost) — the raw material for
    time-to-recovery of the miss ratio and of the p99 delay.
    """

    interval_s: float
    completions: Dict[int, int] = field(default_factory=dict)
    misses: Dict[int, int] = field(default_factory=dict)
    lost: Dict[int, int] = field(default_factory=dict)
    delays: Dict[int, List[float]] = field(default_factory=dict)

    def throughput_series(self) -> Dict[int, float]:
        """Served requests per second, per bucket."""
        return {
            bucket: count / self.interval_s
            for bucket, count in self.completions.items()
        }

    def miss_ratio_series(self) -> Dict[int, float]:
        """Cache miss ratio over served requests, per bucket."""
        return {
            bucket: self.misses.get(bucket, 0) / count
            for bucket, count in self.completions.items()
            if count
        }

    def p99_delay_series(self) -> Dict[int, float]:
        """Nearest-rank p99 request delay (served + lost), per bucket."""
        return {
            bucket: nearest_rank(sorted(delays), 99.0)
            for bucket, delays in self.delays.items()
            if delays
        }


def recovery_time_s(
    series: Dict[int, float],
    interval_s: float,
    after_s: float,
    target: float,
    *,
    mode: str = "le",
    sustain: int = 3,
) -> Optional[float]:
    """Time from ``after_s`` until ``series`` stays on the good side of
    ``target`` — ``mode="le"``: at most ``target`` (miss ratio, p99
    delay); ``mode="ge"``: at least ``target`` (throughput) — for
    ``sustain`` consecutive buckets.  A bucket with no observations
    fails the window.  Returns ``None`` when the series never recovers
    within its recorded range.
    """
    if interval_s <= 0:
        raise ValueError(f"interval_s must be positive, got {interval_s}")
    if mode not in ("le", "ge"):
        raise ValueError(f"mode must be 'le' or 'ge', got {mode!r}")
    if sustain < 1:
        raise ValueError(f"sustain must be >= 1, got {sustain}")
    if not series:
        return None
    first = max(0, math.ceil(after_s / interval_s))
    last = max(series)

    def good(bucket: int) -> bool:
        value = series.get(bucket)
        if value is None:
            return False
        return value <= target if mode == "le" else value >= target

    for start in range(first, last - sustain + 2):
        if all(good(bucket) for bucket in range(start, start + sustain)):
            return max(0.0, start * interval_s - after_s)
    return None


@dataclass
class SimulationResult:
    """Everything one simulator run reports."""

    policy: str
    num_nodes: int
    num_requests: int
    sim_time_s: float
    cache_hits: int
    cache_misses: int
    disk_reads: int
    coalesced_reads: int
    total_delay_s: float
    idle_fraction: float
    cpu_busy_fraction: float
    disk_busy_fraction: float
    bytes_served: int
    gms_local_hits: int = 0
    gms_remote_hits: int = 0
    #: Requests for dynamic (CGI) targets: CPU-bound, uncacheable, so
    #: they count in neither cache_hits nor cache_misses.
    dynamic_requests: int = 0
    per_node_mean_delay_s: List[float] = field(default_factory=list)
    #: Completions per time bucket (only when timeline_interval_s was set).
    timeline: Dict[int, int] = field(default_factory=dict)
    orphaned_connections: int = 0
    #: Connections admitted (== num_requests unless persistent connections).
    connections: int = 0
    #: Persistent-connection moves between back-ends ("rehandoff" mode).
    rehandoffs: int = 0
    #: Per-request delays (only when collect_delays was set).  On a
    #: faulted run, lost requests contribute their abandonment delay.
    delays_s: List[float] = field(default_factory=list)
    #: Requests abandoned after exhausting client retries (faulted runs
    #: only; zero whenever no fault schedule was attached).
    lost_requests: int = 0
    #: Client retry attempts: requests re-dispatched after a timeout
    #: against a crashed-but-undetected node (faulted runs only).
    retried_requests: int = 0
    #: Per-bucket degraded-mode series (faulted runs with a timeline).
    degraded: Optional[DegradedTimeline] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Requests served per simulated second (the headline metric)."""
        return self.num_requests / self.sim_time_s if self.sim_time_s > 0 else 0.0

    @property
    def served_requests(self) -> int:
        """Requests actually served to completion (offered minus lost)."""
        return self.num_requests - self.lost_requests

    @property
    def availability(self) -> float:
        """Fraction of offered requests served (1.0 on fault-free runs)."""
        return self.served_requests / self.num_requests if self.num_requests else 0.0

    @property
    def goodput_rps(self) -> float:
        """Served requests per simulated second (excludes lost requests)."""
        return self.served_requests / self.sim_time_s if self.sim_time_s > 0 else 0.0

    @property
    def cache_miss_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_misses / total if total else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        return 1.0 - self.cache_miss_ratio if (self.cache_hits + self.cache_misses) else 0.0

    @property
    def mean_delay_s(self) -> float:
        return self.total_delay_s / self.num_requests if self.num_requests else 0.0

    def delay_percentile_s(self, pct: float) -> float:
        """Request-delay percentile (requires ``collect_delays=True``),
        by :func:`nearest_rank`: p50 of ``[1, 2]`` is 1."""
        if not self.delays_s:
            raise ValueError("run with collect_delays=True to get percentiles")
        return nearest_rank(sorted(self.delays_s), pct)

    @property
    def delay_spread_s(self) -> float:
        """Max minus min per-node mean delay (the Section 2.4 sensitivity
        metric: it grows roughly linearly with T_high - T_low)."""
        delays = [d for d in self.per_node_mean_delay_s if d > 0]
        if len(delays) < 2:
            return 0.0
        return max(delays) - min(delays)

    def summary(self) -> str:
        """One report row, in the spirit of the paper's figures."""
        return (
            f"{self.policy:8s} n={self.num_nodes:2d}  "
            f"tput={self.throughput_rps:8.1f} req/s  "
            f"miss={self.cache_miss_ratio * 100:5.2f}%  "
            f"idle={self.idle_fraction * 100:5.2f}%  "
            f"delay={self.mean_delay_s * 1000:7.2f} ms"
        )
