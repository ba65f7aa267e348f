"""The scale-out scorecard: the policy zoo at 64-1024 nodes.

The paper's evaluation stops at 16 back-ends; the scale-out campaign
answers the ROADMAP's standing question — where does LARD's working-set
argument win or break at modern cluster sizes — by sweeping cluster size
up to 1024 simulated nodes and racing the modern policy zoo (``chash``,
``pod``, ``pod/lc``; see :mod:`repro.core.chash` / :mod:`repro.core.pod`)
against ``lard``/``lard/r`` and the ``wrr`` baseline on one trace.

The campaign is a :class:`~repro.analysis.matrix.MatrixSpec` whose
``num_nodes`` is the list of sizes, run by
:func:`~repro.analysis.matrix.run_matrix`; this module owns what is
particular to it — the default axes and :data:`SCALEOUT_SCORECARD`
(throughput, miss ratio, idle fraction, mean and p99 delay vs. n, no
reference run).  Per-node cache stays fixed as the cluster grows (the
paper's scale-out model: adding a node adds its RAM), so the aggregate
cache sweeps across the working set and the locality-aware strategies
separate from the oblivious ones.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from ..cluster import SimulationResult
from .matrix import Scorecard

__all__ = [
    "DEFAULT_SCALEOUT_POLICIES",
    "DEFAULT_SCALEOUT_SIZES",
    "SCALEOUT_COLUMNS",
    "SCALEOUT_SCORECARD",
]

#: Policies raced by default: the WRR baseline, the paper's champions,
#: and the three zoo strategies.
DEFAULT_SCALEOUT_POLICIES: Tuple[str, ...] = (
    "wrr",
    "lard",
    "lard/r",
    "chash",
    "pod",
    "pod/lc",
)

#: The modern-scale x-axis (the paper stops at 16).
DEFAULT_SCALEOUT_SIZES: Tuple[int, ...] = (64, 256, 1024)

#: Scorecard CSV column order (fixed so reruns are byte-comparable).
SCALEOUT_COLUMNS: Tuple[str, ...] = (
    "policy",
    "num_nodes",
    "num_requests",
    "throughput_rps",
    "cache_miss_ratio",
    "idle_fraction",
    "mean_delay_ms",
    "p99_delay_ms",
)


def _scaleout_row(
    result: SimulationResult,
    _reference: Optional[SimulationResult],
    _config: Mapping[str, Any],
) -> Dict[str, Any]:
    return dict(
        policy=result.policy,
        num_nodes=result.num_nodes,
        num_requests=result.num_requests,
        throughput_rps=result.throughput_rps,
        cache_miss_ratio=result.cache_miss_ratio,
        idle_fraction=result.idle_fraction,
        mean_delay_ms=result.mean_delay_s * 1000.0,
        p99_delay_ms=result.delay_percentile_s(99) * 1000.0,
    )


SCALEOUT_SCORECARD = Scorecard(
    columns=SCALEOUT_COLUMNS,
    row=_scaleout_row,
    fields=dict(collect_delays=True),
    digits=dict(
        throughput_rps=1,
        cache_miss_ratio=4,
        idle_fraction=4,
        mean_delay_ms=1,
        p99_delay_ms=1,
    ),
)
