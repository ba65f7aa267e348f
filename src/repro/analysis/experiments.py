"""One experiment per paper figure/table (see DESIGN.md's index).

Every experiment regenerates the rows/series of one result from the
paper's evaluation at a configurable :class:`Scale`.  Scaling shrinks the
file catalog, data-set size and per-node cache *together*, which preserves
every working-set:cache ratio the paper's effects depend on while keeping
runs laptop-sized; ``num_requests`` controls how far compulsory misses are
amortized (the paper's traces average ~61/405 requests per file).

An experiment is a function of ``(scale, jobs)`` registered once, with its
id and its ``lard-repro list`` line, by :func:`experiment`.  Every
simulation it needs goes through :func:`run_cells` (or, for the three
campaign experiments, :func:`~repro.analysis.matrix.run_matrix`) with the
``jobs`` it was given.  Cells over the stand-in traces are memoized per
(trace, scale, config), so the figure-7/8/9 trio — different views of one
sweep — runs the sweep once.  The three Section 6 results are *live*
experiments: they drive the hand-off prototype over loopback sockets,
ignore the scale, and are left out of :data:`SIMULATED` (``run all``).
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

from ..cluster import (
    PAPER_NODE_CACHE_BYTES,
    CostModel,
    CrashFault,
    FaultSchedule,
    SimulationResult,
)
from ..core import PAPER_POLICY_NAMES
from ..workload import (
    Trace,
    cumulative_distributions,
    inject_hot_targets,
    locality_profile,
    synthesize_trace,
)
from .chaos import build_scenarios, chaos_spec
from .matrix import MatrixSpec, Scenario, paper_scenario, run_matrix
from .parallel import run_many
from .report import ExperimentResult, check
from .scaleout import DEFAULT_SCALEOUT_POLICIES, SCALEOUT_SCORECARD

__all__ = [
    "Scale",
    "FULL",
    "STANDARD",
    "QUICK",
    "SMOKE",
    "SCALES",
    "Experiment",
    "EXPERIMENTS",
    "SIMULATED",
    "run_experiment",
    "run_cells",
    "get_trace",
    "clear_caches",
]


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knob.

    ``trace_scale`` multiplies the file catalog, total data-set bytes and
    the per-node cache size together; ``num_requests`` is the trace
    length; ``cluster_sizes`` are the x-axis points for node sweeps (at
    least two, ascending: experiments read the largest and the one below).
    """

    trace_scale: float
    num_requests: int
    cluster_sizes: Tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        if not (math.isfinite(self.trace_scale) and self.trace_scale > 0):
            raise ValueError(f"trace_scale must be positive and finite, got {self.trace_scale}")
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        sizes = self.cluster_sizes
        if len(sizes) < 2:
            raise ValueError(f"cluster_sizes needs at least two sizes, got {sizes}")
        if not all(isinstance(n, int) and n > 0 for n in sizes) or any(
            a >= b for a, b in zip(sizes, sizes[1:])
        ):
            raise ValueError(
                f"cluster_sizes must be strictly ascending positive integers, got {sizes}"
            )

    @property
    def node_cache_bytes(self) -> int:
        """Per-node cache, scaled with the data set (32 MB at scale 1)."""
        return int(PAPER_NODE_CACHE_BYTES * self.trace_scale)

    @property
    def second_largest(self) -> int:
        """The cluster size below the largest: still a cluster where the
        aggregate cache matters, at a fraction of the largest's run time."""
        return self.cluster_sizes[-2]


#: Figure-quality runs (tens of minutes total).
FULL = Scale(0.25, 400_000, (1, 2, 4, 6, 8, 10, 12, 14, 16), "full")
#: The default: every shape claim holds, minutes per experiment.
STANDARD = Scale(0.25, 200_000, (1, 2, 4, 8, 12, 16), "standard")
#: Bench scale: a minute or two per experiment.  Uses the same trace
#: length as STANDARD (shorter traces inflate compulsory misses and make
#: the burst windows too few for stable load-imbalance effects) but only
#: four cluster sizes.
QUICK = Scale(0.25, 200_000, (1, 4, 8, 16), "quick")
#: Test scale: sub-second cells.
SMOKE = Scale(0.10, 10_000, (2, 4), "smoke")

#: The stock scales by label: what ``--scale`` and the EXPERIMENTS.md
#: generator accept.
SCALES: Dict[str, Scale] = {s.label: s for s in (SMOKE, QUICK, STANDARD, FULL)}

# Pinned to the paper's six (not the full registry) so figures 7-10 keep
# reproducing the paper's comparison as the policy zoo grows; the zoo is
# compared in the ext-scaleout experiment instead.
_SIM_POLICIES = PAPER_POLICY_NAMES  # paper order: wrr, lb, lb/gc, lard, lard/r, wrr/gms

#: What :func:`run_cells` returns: the caller's labels -> results.
Cells = Dict[Any, SimulationResult]

_trace_cache: Dict[tuple, Trace] = {}
_cell_cache: Dict[tuple, SimulationResult] = {}


def clear_caches() -> None:
    """Drop memoized traces and simulation cells (mainly for tests)."""
    _trace_cache.clear()
    _cell_cache.clear()


def get_trace(kind: str, scale: Scale) -> Trace:
    """Memoized synthetic trace for an experiment scale.

    Backed by the on-disk cache of :mod:`repro.workload.memo`, so repeated
    runs (and every CLI/benchmark process) generate each trace once per
    machine.  Set ``REPRO_TRACE_CACHE=0`` to force regeneration.
    """
    key = (kind, scale.trace_scale, scale.num_requests)
    trace = _trace_cache.get(key)
    if trace is None:
        trace = _scenario(kind, scale).build_trace()
        _trace_cache[key] = trace
    return trace


def _scenario(kind: str, scale: Scale) -> Scenario:
    """A stand-in trace at an experiment scale, as a campaign scenario."""
    return paper_scenario(kind, scale.num_requests, scale.trace_scale)


def run_cells(
    trace: Union[str, Trace], cells: Dict[Any, Dict[str, Any]], scale: Scale, jobs: int
) -> Cells:
    """Simulate ``cells`` over one trace: the one way an experiment runs.

    ``cells`` maps a label of the caller's choosing to the
    :class:`~repro.cluster.ClusterConfig` fields of one simulation
    (``node_cache_bytes`` defaults to the scale's); the results come back
    under the same labels.  ``trace`` is a stand-in kind
    (``"rice"``, ``"ibm"``, ``"chess"``), whose cells are memoized per
    (kind, scale, config), or a trace the experiment derived itself, whose
    cells are not.  What has to be simulated is one
    :func:`~repro.analysis.parallel.run_many` batch of ``jobs`` workers;
    results are identical for every ``jobs``.
    """
    configs = {
        label: {"node_cache_bytes": scale.node_cache_bytes, **cell}
        for label, cell in cells.items()
    }
    if isinstance(trace, Trace):
        return dict(zip(configs, run_many(trace, list(configs.values()), jobs=jobs)))
    keys = {
        label: (trace, scale.trace_scale, scale.num_requests, tuple(sorted(config.items())))
        for label, config in configs.items()
    }
    missing = {key: configs[label] for label, key in keys.items() if key not in _cell_cache}
    if missing:
        results = run_many(get_trace(trace, scale), list(missing.values()), jobs=jobs)
        _cell_cache.update(zip(missing, results))
    return {label: _cell_cache[key] for label, key in keys.items()}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.  ``fn(scale, jobs)`` returns the fields
    of its :class:`ExperimentResult` other than the id."""

    experiment_id: str
    summary: str  #: the one-line description shown by ``lard-repro list``
    fn: Callable[[Scale, int], Dict[str, Any]]
    #: Runs the live prototype on real sockets: wall-clock numbers that
    #: differ run to run, so ``run all`` and its golden leave it out.
    live: bool = False


#: The registry, in the order of declaration below.
EXPERIMENTS: Dict[str, Experiment] = {}


def experiment(
    experiment_id: str, summary: str, live: bool = False
) -> Callable[[Callable], Callable]:
    """Register the decorated ``fn(scale, jobs)`` under ``experiment_id``."""

    def register(fn: Callable[[Scale, int], Dict[str, Any]]) -> Callable:
        EXPERIMENTS[experiment_id] = Experiment(experiment_id, summary, fn, live)
        return fn

    return register


def run_experiment(experiment_id: str, scale: Scale, jobs: int = 1) -> ExperimentResult:
    """Run one registered experiment by id (see :data:`EXPERIMENTS`).

    ``jobs > 1`` simulates the experiment's independent cells in that many
    worker processes (results are identical; see
    :mod:`repro.analysis.parallel`).
    """
    try:
        fn = EXPERIMENTS[experiment_id].fn
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    return ExperimentResult(experiment_id=experiment_id, **fn(scale, jobs))


def _rps(result: SimulationResult) -> float:
    return round(result.throughput_rps, 1)


def _pct(fraction: float) -> float:
    return round(100 * fraction, 2)


def _ms(seconds: float) -> float:
    return round(seconds * 1000, 1)


# ---------------------------------------------------------------------------
# Figures 5 and 6 — trace CDFs
# ---------------------------------------------------------------------------


def _trace_cdf_experiment(kind: str, reference: str, scale: Scale) -> Dict[str, Any]:
    trace = get_trace(kind, scale)
    cdf = cumulative_distributions(trace)
    rows = []
    for fraction in (0.01, 0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80, 1.00):
        index = max(0, int(round(fraction * (len(cdf.file_rank) - 1))))
        rows.append(
            [
                f"{cdf.file_rank[index]:.2f}",
                f"{cdf.cumulative_requests[index]:.3f}",
                f"{cdf.cumulative_size[index]:.3f}",
            ]
        )
    profile = locality_profile(trace)
    unscaled = {f: mb / scale.trace_scale for f, mb in profile.items()}
    top10 = cdf.requests_covered_by_rank_fraction(0.10)
    dominated = all(
        s <= r + 1e-9
        for r, s in zip(cdf.cumulative_requests[:-1], cdf.cumulative_size[:-1])
    )
    notes = (
        f"{trace.describe()}; memory to cover 97/98/99% of requests "
        f"(rescaled to paper size): "
        + "/".join(f"{unscaled[f]:.0f}" for f in (0.97, 0.98, 0.99))
        + " MB"
    )
    return dict(
        title=f"{kind} trace cumulative request/size distributions",
        paper_reference=reference,
        headers=["file rank (norm.)", "cum. requests", "cum. size"],
        rows=rows,
        expectation=(
            "requests concentrate on a small head of files; the cumulative size "
            "curve lies well below the request curve"
        ),
        notes=notes,
        checks=[
            check(top10 > 0.6, f"top 10% of files cover {top10:.0%} of requests (heavy head)"),
            check(dominated,
                  "size CDF lies below request CDF (hot files are smaller than average)"),
        ],
    )


@experiment("fig5", "Figure 5  - Rice trace cumulative request/size distributions")
def fig05_rice_cdf(scale: Scale, jobs: int) -> Dict[str, Any]:
    return _trace_cdf_experiment("rice", "Figure 5", scale)


@experiment("fig6", "Figure 6  - IBM trace cumulative request/size distributions")
def fig06_ibm_cdf(scale: Scale, jobs: int) -> Dict[str, Any]:
    return _trace_cdf_experiment("ibm", "Figure 6", scale)


# ---------------------------------------------------------------------------
# Figures 7, 8, 9 — the Rice sweep; Figure 10 — the IBM sweep
# ---------------------------------------------------------------------------


def _policy_sweep(kind: str, scale: Scale, jobs: int) -> Cells:
    """The paper's six policies at every cluster size, keyed ``(policy,
    nodes)``: figures 7, 8 and 9 are three readings of the Rice one."""
    cells = {
        (policy, n): dict(policy=policy, num_nodes=n)
        for n in scale.cluster_sizes
        for policy in _SIM_POLICIES
    }
    return run_cells(kind, cells, scale, jobs)


def _rows_by_cluster_size(
    cells: Cells, scale: Scale, columns: Sequence[Any], metric: Callable[[SimulationResult], float]
) -> List[List]:
    """One table row per cluster size and one column per key of
    ``columns``, read from cells keyed ``(column, nodes)``."""
    return [[n] + [metric(cells[column, n]) for column in columns] for n in scale.cluster_sizes]


@experiment("fig7", "Figure 7  - throughput vs cluster size, Rice-like, all 6 policies")
def fig07_throughput_rice(scale: Scale, jobs: int) -> Dict[str, Any]:
    sweep = _policy_sweep("rice", scale, jobs)
    n_hi = scale.cluster_sizes[-1]
    wrr = sweep["wrr", n_hi].throughput_rps
    lardr = sweep["lard/r", n_hi].throughput_rps
    lard_mid = sweep["lard/r", scale.second_largest].throughput_rps
    gms = sweep["wrr/gms", n_hi].throughput_rps
    ratio = lardr / wrr
    return dict(
        title="throughput vs cluster size, Rice-like trace",
        paper_reference="Figure 7",
        headers=["nodes"] + list(_SIM_POLICIES),
        rows=_rows_by_cluster_size(sweep, scale, _SIM_POLICIES, _rps),
        expectation=(
            "WRR lowest and nearly flat (disk bound); LB/LB-GC limited by load "
            "imbalance; LARD and LARD/R highest with superlinear speedup while "
            "the aggregate cache grows into the working set; LARD/R >= 2-4x WRR"
        ),
        checks=[
            check(ratio >= 2.0,
                  f"LARD/R >= 2x WRR at {n_hi} nodes (measured {ratio:.2f}x; paper: 2-4x)"),
            check(gms < lardr,
                  f"WRR/GMS stays below LARD/R at {n_hi} nodes ({gms:.0f} vs {lardr:.0f})"),
            check(lardr > lard_mid, "LARD/R throughput still rising at the largest cluster"),
        ],
    )


@experiment("fig8", "Figure 8  - cache miss ratio vs cluster size, Rice-like")
def fig08_missratio_rice(scale: Scale, jobs: int) -> Dict[str, Any]:
    sweep = _policy_sweep("rice", scale, jobs)
    n_lo, n_hi = scale.cluster_sizes[0], scale.cluster_sizes[-1]
    wrr_lo = sweep["wrr", n_lo].cache_miss_ratio
    wrr_hi = sweep["wrr", n_hi].cache_miss_ratio
    lard_hi = sweep["lard", n_hi].cache_miss_ratio
    return dict(
        title="cache miss ratio vs cluster size, Rice-like trace",
        paper_reference="Figure 8",
        headers=["nodes"] + [f"{p} miss%" for p in _SIM_POLICIES],
        rows=_rows_by_cluster_size(sweep, scale, _SIM_POLICIES, lambda r: _pct(r.cache_miss_ratio)),
        expectation=(
            "WRR flat (effective cache stays one node's cache); locality-aware "
            "strategies decline as nodes aggregate cache; LB/GC lowest"
        ),
        checks=[
            check(wrr_hi >= wrr_lo - 0.02,
                  f"WRR miss ratio does not improve with nodes ({wrr_lo:.1%} -> {wrr_hi:.1%})"),
            check(lard_hi < wrr_hi / 2,
                  f"LARD miss ratio at {n_hi} nodes is less than half of WRR's "
                  f"({lard_hi:.1%} vs {wrr_hi:.1%})"),
        ],
    )


@experiment("fig9", "Figure 9  - node underutilization vs cluster size, Rice-like")
def fig09_idle_rice(scale: Scale, jobs: int) -> Dict[str, Any]:
    sweep = _policy_sweep("rice", scale, jobs)
    n_hi = scale.cluster_sizes[-1]
    wrr = sweep["wrr", n_hi].idle_fraction
    lb = sweep["lb", n_hi].idle_fraction
    lardr = sweep["lard/r", n_hi].idle_fraction
    return dict(
        title="node underutilization vs cluster size, Rice-like trace",
        paper_reference="Figure 9",
        headers=["nodes"] + [f"{p} idle%" for p in _SIM_POLICIES],
        rows=_rows_by_cluster_size(sweep, scale, _SIM_POLICIES, lambda r: _pct(r.idle_fraction)),
        expectation=(
            "WRR lowest idle (best balance); LB/LB-GC highest (static partitions "
            "starve); LARD/LARD-R close to WRR"
        ),
        checks=[
            check(wrr <= lardr + 0.02,
                  f"WRR has the lowest idle time ({wrr:.1%} vs LARD/R {lardr:.1%})"),
            check(lb > lardr,
                  f"LB idles more than LARD/R at {n_hi} nodes ({lb:.1%} vs {lardr:.1%})"),
        ],
    )


@experiment("fig10", "Figure 10 - throughput vs cluster size, IBM-like")
def fig10_throughput_ibm(scale: Scale, jobs: int) -> Dict[str, Any]:
    sweep = _policy_sweep("ibm", scale, jobs)
    n_hi = scale.cluster_sizes[-1]
    wrr = sweep["wrr", n_hi].throughput_rps
    lardr = sweep["lard/r", n_hi].throughput_rps
    rice = run_cells("rice", {"lard/r": dict(policy="lard/r", num_nodes=n_hi)}, scale, jobs)
    rice_lardr = rice["lard/r"].throughput_rps
    ratio = lardr / wrr
    return dict(
        title="throughput vs cluster size, IBM-like trace",
        paper_reference="Figure 10",
        headers=["nodes"] + list(_SIM_POLICIES),
        rows=_rows_by_cluster_size(sweep, scale, _SIM_POLICIES, _rps),
        expectation=(
            "higher absolute throughput than the Rice trace (smaller files); "
            "LARD/R superlinear only up to ~4 nodes (higher locality -> smaller "
            "working set), settling at roughly 2x WRR"
        ),
        checks=[
            check(ratio >= 1.5,
                  f"LARD/R beats WRR at {n_hi} nodes ({ratio:.2f}x; paper: ~2x for 10+ nodes)"),
            check(lardr > rice_lardr,
                  "IBM-like throughput exceeds Rice-like (smaller average files)"),
        ],
    )


# ---------------------------------------------------------------------------
# Section 4.2 — hot targets and the chess trace
# ---------------------------------------------------------------------------


def _hot_trace(scale: Scale, hot_fraction: float) -> Trace:
    """The Rice-like stand-in with four large hot targets injected."""
    return inject_hot_targets(
        get_trace("rice", scale),
        num_hot=4,
        hot_fraction=hot_fraction,
        hot_size_bytes=max(4096, int(400 * 1024 * scale.trace_scale)),
        seed=3,
    )


@experiment("sec4.2-hot", "Sec 4.2   - LARD vs LARD/R with artificial hot targets")
def sec42_hot_targets(scale: Scale, jobs: int) -> Dict[str, Any]:
    num_nodes = scale.cluster_sizes[-1]
    pair = {policy: dict(policy=policy, num_nodes=num_nodes) for policy in ("lard", "lard/r")}
    rows = []
    gains = []
    for hot_fraction in (0.02, 0.04, 0.06, 0.08, 0.10):
        cells = run_cells(_hot_trace(scale, hot_fraction), pair, scale, jobs)
        lard, lardr = cells["lard"], cells["lard/r"]
        gain = (lardr.throughput_rps / lard.throughput_rps - 1) * 100
        gains.append(gain)
        rows.append([f"{hot_fraction:.0%}", _rps(lard), _rps(lardr), f"{gain:+.1f}%"])
    return dict(
        title=f"LARD vs LARD/R with artificial hot targets ({num_nodes} nodes)",
        paper_reference="Section 4.2 (hot-target workload)",
        headers=["hot req share", "lard rps", "lard/r rps", "lard/r gain"],
        rows=rows,
        expectation=(
            "replication pays off once a few targets draw a large request share: "
            "LARD/R exceeds LARD by 2-25%, most at >=5-10% hot share and large "
            "hot files"
        ),
        checks=[
            check(max(gains) > 1.0,
                  f"LARD/R gains over LARD on hot-target workloads (max {max(gains):+.1f}%)"),
            check(max(gains[2:]) >= max(gains[:2]) - 1.0,
                  "the gain is largest when hot targets draw >= 5-10% of requests"),
        ],
    )


@experiment("sec4.2-chess", "Sec 4.2   - chess trace (WRR's best case)")
def sec42_chess(scale: Scale, jobs: int) -> Dict[str, Any]:
    sizes = [n for n in scale.cluster_sizes if n > 1]
    configs = {
        (policy, n): dict(policy=policy, num_nodes=n)
        for n in sizes
        for policy in ("wrr", "lard", "lard/r")
    }
    cells = run_cells("chess", configs, scale, jobs)
    rows = []
    worst = 0.0
    for n in sizes:
        wrr, lard, lardr = cells["wrr", n], cells["lard", n], cells["lard/r", n]
        shortfall = (wrr.throughput_rps - lardr.throughput_rps) / wrr.throughput_rps
        worst = max(worst, shortfall)
        rows.append([n, _rps(wrr), _rps(lard), _rps(lardr), f"{-shortfall * 100:+.1f}%"])
    return dict(
        title="chess-match trace: WRR's best case",
        paper_reference="Section 4.2 (Deep Blue trace)",
        headers=["nodes", "wrr rps", "lard rps", "lard/r rps", "lard/r vs wrr"],
        rows=rows,
        expectation=(
            "the working set fits one node's cache, so cache aggregation buys "
            "nothing; LARD and LARD/R closely match WRR"
        ),
        checks=[
            check(worst < 0.15,
                  f"LARD/R stays within 15% of WRR on its best-case trace "
                  f"(worst shortfall {worst:.1%})")
        ],
    )


# ---------------------------------------------------------------------------
# Figures 11-14 — CPU and disk scaling
# ---------------------------------------------------------------------------

#: The paper's CPU/memory pairings: "2x cpu, 1.5x mem", "3x cpu, 2x mem",
#: "4x cpu, 3x mem".
CPU_MEMORY_STEPS = ((1.0, 1.0), (2.0, 1.5), (3.0, 2.0), (4.0, 3.0))
_CPU_ENDS = (CPU_MEMORY_STEPS[0], CPU_MEMORY_STEPS[-1])
_CPU_HEADERS = ["nodes"] + [f"{cpu:g}x cpu/{mem:g}x mem" for cpu, mem in CPU_MEMORY_STEPS]
_DISKS = (1, 2, 3, 4)
_DISK_HEADERS = ["nodes", "1 disk", "2 disks", "3 disks", "4 disks"]


def _cpu_grid(
    policy: str, sizes: Sequence[int], steps: Sequence[Tuple[float, float]], scale: Scale, jobs: int
) -> Cells:
    """The cells figures 11 and 12 read, keyed ``((cpu, mem), nodes)``."""
    cells = {
        ((cpu, mem), n): dict(
            policy=policy,
            num_nodes=n,
            costs=CostModel(cpu_speed=cpu),
            node_cache_bytes=int(scale.node_cache_bytes * mem),
        )
        for n in sizes
        for cpu, mem in steps
    }
    return run_cells("rice", cells, scale, jobs)


def _cpu_uplift(grid: Cells, num_nodes: int) -> float:
    """Throughput at 4x CPU / 3x memory over the 1x / 1x base."""
    base, fast = (grid[step, num_nodes].throughput_rps for step in _CPU_ENDS)
    return fast / base


@experiment("fig11", "Figure 11 - WRR throughput vs CPU speed")
def fig11_wrr_cpu(scale: Scale, jobs: int) -> Dict[str, Any]:
    grid = _cpu_grid("wrr", scale.cluster_sizes, CPU_MEMORY_STEPS, scale, jobs)
    uplift = _cpu_uplift(grid, scale.cluster_sizes[-1])
    return dict(
        title="WRR throughput vs CPU speed (Rice-like)",
        paper_reference="Figure 11",
        headers=_CPU_HEADERS,
        rows=_rows_by_cluster_size(grid, scale, CPU_MEMORY_STEPS, _rps),
        expectation="WRR is disk bound: extra CPU speed buys almost nothing",
        checks=[
            check(uplift < 2.5,
                  f"4x CPU buys WRR less than 2.5x throughput (measured {uplift:.2f}x; "
                  "paper: WRR cannot benefit from added CPU, it is disk bound)")
        ],
    )


@experiment("fig12", "Figure 12 - LARD/R throughput vs CPU speed")
def fig12_lard_cpu(scale: Scale, jobs: int) -> Dict[str, Any]:
    n_hi = scale.cluster_sizes[-1]
    grid = _cpu_grid("lard/r", scale.cluster_sizes, CPU_MEMORY_STEPS, scale, jobs)
    lard_uplift = _cpu_uplift(grid, n_hi)
    wrr_uplift = _cpu_uplift(_cpu_grid("wrr", (n_hi,), _CPU_ENDS, scale, jobs), n_hi)
    return dict(
        title="LARD/R throughput vs CPU speed (Rice-like)",
        paper_reference="Figure 12",
        headers=_CPU_HEADERS,
        rows=_rows_by_cluster_size(grid, scale, CPU_MEMORY_STEPS, _rps),
        expectation=(
            "cache aggregation makes LARD/R increasingly CPU bound, so faster "
            "CPUs translate into throughput; the LARD-over-WRR advantage grows "
            "with CPU speed"
        ),
        checks=[
            check(lard_uplift > 1.25,
                  f"LARD/R capitalizes on 4x CPU ({lard_uplift:.2f}x at {n_hi} nodes; "
                  "the compulsory-miss floor of short traces caps this below the paper's "
                  "~2.5x, see docs/simulator-model.md)"),
            check(lard_uplift > 1.2 * wrr_uplift,
                  f"LARD/R's CPU uplift clearly exceeds WRR's ({lard_uplift:.2f}x vs {wrr_uplift:.2f}x)"),
        ],
    )


def _disk_grid(
    policy: str, sizes: Sequence[int], disks: Sequence[int], scale: Scale, jobs: int
) -> Cells:
    """The cells figures 13 and 14 read, keyed ``(disks per node, nodes)``."""
    cells = {
        (count, n): dict(policy=policy, num_nodes=n, disks_per_node=count)
        for n in sizes
        for count in disks
    }
    return run_cells("rice", cells, scale, jobs)


@experiment("fig13", "Figure 13 - WRR throughput vs disks per node")
def fig13_wrr_disks(scale: Scale, jobs: int) -> Dict[str, Any]:
    n_hi = scale.cluster_sizes[-1]
    wrr = _disk_grid("wrr", scale.cluster_sizes, _DISKS, scale, jobs)
    lardr = _disk_grid("lard/r", (n_hi,), (1, 4), scale, jobs)
    one, four = wrr[1, n_hi].throughput_rps, wrr[4, n_hi].throughput_rps
    gap_one = lardr[1, n_hi].throughput_rps / one
    gap_four = lardr[4, n_hi].throughput_rps / four
    return dict(
        title="WRR throughput vs disks per node (Rice-like)",
        paper_reference="Figure 13",
        headers=_DISK_HEADERS,
        rows=_rows_by_cluster_size(wrr, scale, _DISKS, _rps),
        expectation=(
            "WRR is disk bound, so throughput scales strongly with disks per "
            "node (generous striping assumed), approaching LARD/R from below"
        ),
        checks=[
            check(four > 1.5 * one,
                  f"WRR gains substantially from extra disks ({four / one:.2f}x with 4 disks)"),
            check(gap_four < gap_one,
                  f"4 disks narrow WRR's gap to LARD/R ({gap_one:.2f}x -> {gap_four:.2f}x behind; "
                  "paper: WRR comes within ~18% at 16 nodes)"),
        ],
    )


@experiment("fig14", "Figure 14 - LARD/R throughput vs disks per node")
def fig14_lard_disks(scale: Scale, jobs: int) -> Dict[str, Any]:
    n_hi = scale.cluster_sizes[-1]
    lardr = _disk_grid("lard/r", scale.cluster_sizes, _DISKS, scale, jobs)
    wrr = _disk_grid("wrr", (n_hi,), (1, 2, 4), scale, jobs)
    one, two, four = (lardr[count, n_hi].throughput_rps for count in (1, 2, 4))
    wrr_one, wrr_two, wrr_four = (wrr[count, n_hi].throughput_rps for count in (1, 2, 4))
    lard_gain = four / one
    wrr_gain = wrr_four / wrr_one
    return dict(
        title="LARD/R throughput vs disks per node (Rice-like)",
        paper_reference="Figure 14",
        headers=_DISK_HEADERS,
        rows=_rows_by_cluster_size(lardr, scale, _DISKS, _rps),
        expectation=(
            "a second disk gives a mild gain; additional disks buy little, "
            "because LARD/R's cache aggregation removes the disk bottleneck"
        ),
        checks=[
            check(lard_gain < wrr_gain,
                  f"LARD/R benefits less from disks than WRR ({lard_gain:.2f}x vs {wrr_gain:.2f}x)"),
            check((four / two) < (two / one) and (four / two) < (wrr_four / wrr_two),
                  "LARD/R shows diminishing returns per added disk (WRR stays near-linear)"),
        ],
    )


# ---------------------------------------------------------------------------
# Section 4.4 — delay; Section 2.4 — threshold sensitivity
# ---------------------------------------------------------------------------


@experiment("sec4.4-delay", "Sec 4.4   - mean request delay, LARD/R vs WRR")
def sec44_delay(scale: Scale, jobs: int) -> Dict[str, Any]:
    num_nodes = scale.second_largest
    pair = {
        policy: dict(policy=policy, num_nodes=num_nodes, collect_delays=True)
        for policy in ("wrr", "lard/r")
    }
    rows = []
    ratios = {}
    for kind in ("rice", "ibm"):
        cells = run_cells(kind, pair, scale, jobs)
        wrr, lardr = cells["wrr"], cells["lard/r"]
        ratio = lardr.mean_delay_s / wrr.mean_delay_s
        ratios[kind] = ratio
        rows.append(
            [
                kind,
                num_nodes,
                _ms(wrr.mean_delay_s),
                _ms(lardr.mean_delay_s),
                f"{ratio:.2f}",
                _ms(wrr.delay_percentile_s(95)),
                _ms(lardr.delay_percentile_s(95)),
            ]
        )
    return dict(
        title="mean request delay, LARD/R vs WRR",
        paper_reference="Section 4.4",
        headers=[
            "trace",
            "nodes",
            "wrr delay ms",
            "lard/r delay ms",
            "ratio",
            "wrr p95 ms",
            "lard/r p95 ms",
        ],
        rows=rows,
        expectation=(
            "LARD/R's average request delay is a fraction of WRR's: <=25% on the "
            "Rice trace, about half on the IBM trace"
        ),
        checks=[
            check(ratios["rice"] < 0.6,
                  f"LARD/R delay well below WRR on Rice-like (ratio {ratios['rice']:.2f}; paper: <= 0.25)"),
            check(ratios["ibm"] < 0.8,
                  f"LARD/R delay well below WRR on IBM-like (ratio {ratios['ibm']:.2f}; paper: ~0.5)"),
        ],
    )


@experiment("sec2.4-sens", "Sec 2.4   - sensitivity to the T_high - T_low window")
def sec24_sensitivity(scale: Scale, jobs: int) -> Dict[str, Any]:
    num_nodes = scale.cluster_sizes[-1]
    t_low = 25
    configs = {
        t_high: dict(policy="lard", num_nodes=num_nodes, t_low=t_low, t_high=t_high)
        for t_high in (35, 65, 95, 130)
    }
    cells = run_cells("rice", configs, scale, jobs)
    rows = [
        [t_high - t_low, _rps(result), _ms(result.mean_delay_s), _ms(result.delay_spread_s)]
        for t_high, result in cells.items()
    ]
    spreads = [result.delay_spread_s for result in cells.values()]
    tputs = [result.throughput_rps for result in cells.values()]
    return dict(
        title="sensitivity to the T_high - T_low window (basic LARD)",
        paper_reference="Section 2.4",
        headers=["T_high - T_low", "throughput rps", "mean delay ms", "delay spread ms"],
        rows=rows,
        expectation=(
            "the maximal delay difference between back-ends grows ~linearly "
            "with T_high - T_low while throughput rises mildly and flattens"
        ),
        checks=[
            check(spreads[-1] > spreads[0],
                  f"per-node delay spread grows with T_high - T_low "
                  f"({spreads[0] * 1000:.1f} -> {spreads[-1] * 1000:.1f} ms)"),
            check(max(tputs) < 1.35 * max(tputs[0], 1e-9),
                  "throughput increases only mildly and flattens as T_high - T_low grows"),
        ],
    )


@experiment("sec4.1-tenfold", "Sec 4.1   - WRR needs ~10x node caches to match LARD")
def sec41_tenfold_cache(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Section 4.1: "with WRR it would take a ten times larger cache in
    each node to match the performance of LARD on this particular trace.
    We have verified this fact by simulating WRR with a tenfold node
    cache size."

    Uses a dedicated workload with many requests per file (800 files)
    rather than the standard Rice-like stand-in: at laptop trace lengths
    the stand-in's compulsory-duplication floor (every node faults every
    file once under WRR) would mask the capacity effect the paper's
    2.3M-request trace exposes.
    """
    num_nodes = 8
    num_requests = max(50_000, scale.num_requests)
    trace = synthesize_trace(
        num_requests,
        800,
        16 * 2**20,
        0.9,
        size_popularity_correlation=-0.5,
        burst_fraction=0.2,
        burst_focus=8,
        burst_window=40_000,
        seed=17,
        name="tenfold",
    )
    cache = int(1.6 * 2**20)  # 1x cache = 10% of the data set
    configs = {
        "lard, 1x cache": dict(policy="lard", num_nodes=num_nodes, node_cache_bytes=cache),
        "wrr, 1x cache": dict(policy="wrr", num_nodes=num_nodes, node_cache_bytes=cache),
        "wrr, 10x cache": dict(policy="wrr", num_nodes=num_nodes, node_cache_bytes=10 * cache),
    }
    cells = run_cells(trace, configs, scale, jobs)
    lard, wrr_1x, wrr_10x = cells.values()
    ratio = wrr_10x.throughput_rps / lard.throughput_rps
    return dict(
        title=f"WRR with 10x node caches vs LARD ({num_nodes} nodes)",
        paper_reference="Section 4.1",
        headers=["configuration", "throughput rps", "miss %"],
        rows=[[label, _rps(r), _pct(r.cache_miss_ratio)] for label, r in cells.items()],
        expectation=(
            "matching LARD's performance under WRR requires roughly ten times "
            "the per-node cache - cache aggregation is worth an order of "
            "magnitude of RAM"
        ),
        checks=[
            check(ratio > 0.65,
                  f"WRR with tenfold caches approaches LARD with 1x caches "
                  f"({ratio:.2f}x of LARD's throughput)"),
            check(wrr_10x.throughput_rps > 2.0 * wrr_1x.throughput_rps,
                  f"the tenfold cache is what rescues WRR "
                  f"({wrr_10x.throughput_rps / wrr_1x.throughput_rps:.2f}x uplift over 1x)"),
        ],
    )


@experiment("sec6.2-capacity", "Sec 6.2   - front-end capacity model (hand-off + forwarding)")
def sec62_frontend_capacity(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Section 6.2's scalability arithmetic: how many back-ends can one
    front-end feed, given measured hand-off and forwarding costs?"""
    from ..cluster.frontend_capacity import FrontEndCapacityModel

    per_node = run_cells("rice", {1: dict(policy="lard/r", num_nodes=1)}, scale, jobs)[1]
    backend_rate = per_node.throughput_rps
    response_bytes = get_trace("rice", scale).mean_transfer_bytes
    model = FrontEndCapacityModel()
    rows = []
    for cpus in (1, 2, 4):
        smp = model.with_smp(cpus)
        rows.append(
            [
                cpus,
                round(smp.max_connection_rate(response_bytes), 0),
                round(smp.max_backends(backend_rate, response_bytes), 1),
                round(smp.forwarding_throughput_bps() / 1e9, 2),
            ]
        )
    single = model.max_backends(backend_rate, response_bytes)
    return dict(
        title="front-end capacity model (hand-off + ACK forwarding)",
        paper_reference="Section 6.2",
        headers=["front-end CPUs", "handoffs/s", "back-ends supported", "fwd Gbit/s"],
        rows=rows,
        expectation=(
            "hand-off and forwarding costs let a single-CPU front-end feed "
            "~10 equal-speed back-ends, scaling near-linearly on an SMP"
        ),
        checks=[
            check(4 <= single <= 64,
                  f"one front-end CPU supports on the order of ten back-ends "
                  f"(model: {single:.1f}; paper: ~10 on the Rice workload)"),
            check(model.forwarding_throughput_bps() > 1e9,
                  "ACK forwarding sustains multi-Gbit/s of response bandwidth"),
        ],
    )


# ---------------------------------------------------------------------------
# Extensions beyond the paper's evaluation (DESIGN.md Section 6)
# ---------------------------------------------------------------------------


@experiment("ext-failure", "extension - back-end failure and recovery dynamics")
def ext_failure_recovery(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Paper Section 2.6 made dynamic: fail a back-end mid-run, rejoin it
    later, and watch LARD/R re-assign targets and recover throughput."""
    num_nodes = 4
    steady = dict(policy="lard/r", num_nodes=num_nodes)
    baseline = run_cells("rice", {"baseline": steady}, scale, jobs)["baseline"]
    est = baseline.sim_time_s
    fail_at, join_at = 0.30 * est, 0.65 * est
    interval = est / 50
    # The paper's failure: the front-end notices at once (detect_s=0)
    # and the node rejoins cold.
    crash = CrashFault(node=1, at_s=fail_at, detect_s=0.0, rejoin_at_s=join_at)
    faulted = dict(
        steady,
        fault_schedule=FaultSchedule(crashes=(crash,)),
        timeline_interval_s=interval,
    )
    result = run_cells("rice", {"faulted": faulted}, scale, jobs)["faulted"]

    def phase_rate(t0: float, t1: float) -> float:
        buckets = [
            count
            for bucket, count in result.timeline.items()
            if t0 <= bucket * interval and (bucket + 1) * interval <= t1
        ]
        return sum(buckets) / (len(buckets) * interval) if buckets else 0.0

    warm = 0.1 * est  # skip cold-cache and post-event transients
    before = phase_rate(warm, fail_at)
    during = phase_rate(fail_at + warm / 2, join_at)
    after = phase_rate(join_at + warm / 2, result.sim_time_s - warm / 2)
    rows = [
        ["baseline (no failure)", _rps(baseline)],
        ["before failure", round(before, 1)],
        ["during failure (3 of 4 nodes)", round(during, 1)],
        ["after rejoin", round(after, 1)],
        ["orphaned connections", result.orphaned_connections],
    ]
    return dict(
        title="back-end failure and recovery under LARD/R (4 nodes, Rice-like)",
        paper_reference="Section 2.6 (extension: dynamic membership)",
        headers=["phase", "throughput rps"],
        rows=rows,
        expectation=(
            "the front-end simply re-assigns the failed node's targets as if "
            "never assigned; service continues on the survivors and recovers "
            "when the node rejoins (cold) - no elaborate front-end state needed"
        ),
        checks=[
            check(result.num_requests == len(get_trace("rice", scale)),
                  "every request in the trace is served despite the failure"),
            check(during >= 0.45 * before,
                  f"the surviving 3/4 nodes keep serving ({during / before:.0%} of pre-failure rate)"),
            check(during < before,
                  "losing a node costs throughput (its cache partition must be re-fetched)"),
            check(after >= 0.85 * before,
                  f"throughput recovers after rejoin ({after / before:.0%} of pre-failure rate)"),
        ],
    )


@experiment("ext-persistent", "extension - HTTP/1.1 persistent-connection policies")
def ext_persistent_connections(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Paper Section 5's open question, answered in simulation: how should
    a LARD front-end handle HTTP/1.1 persistent connections?"""
    num_nodes = scale.second_largest
    configs = {
        (k, mode): dict(
            policy="lard/r", num_nodes=num_nodes, requests_per_connection=k, persistent_policy=mode
        )
        for k in (1, 4, 16)
        for mode in ("sticky", "rehandoff")
        if (k, mode) != (1, "rehandoff")  # identical to sticky at one request/connection
    }
    results = run_cells("rice", configs, scale, jobs)
    sticky16 = results[(16, "sticky")]
    rehandoff16 = results[(16, "rehandoff")]
    base = results[(1, "sticky")]
    return dict(
        title=f"persistent-connection policies under LARD/R ({num_nodes} nodes)",
        paper_reference="Section 5 (extension: the deferred HTTP/1.1 policy study)",
        headers=["req/conn", "policy", "throughput rps", "miss %", "rehandoffs"],
        rows=[
            [k, mode, _rps(r), _pct(r.cache_miss_ratio), r.rehandoffs]
            for (k, mode), r in results.items()
        ],
        expectation=(
            "the hand-off protocol's multiple-hand-off capability matters: "
            "serving a whole persistent connection on one back-end forfeits "
            "locality, while re-invoking LARD per request keeps it"
        ),
        checks=[
            check(sticky16.cache_miss_ratio > 1.5 * base.cache_miss_ratio,
                  "sticky persistent connections destroy locality (each connection "
                  "drags its whole request mix onto one node, like WRR)"),
            check(rehandoff16.throughput_rps > 1.3 * sticky16.throughput_rps,
                  f"per-request re-hand-off restores the LARD advantage "
                  f"({rehandoff16.throughput_rps / sticky16.throughput_rps:.2f}x sticky at 16 req/conn)"),
            check(rehandoff16.throughput_rps > 0.85 * base.throughput_rps,
                  "re-hand-off at 16 req/conn approaches the HTTP/1.0 baseline "
                  "(amortized connection setup compensates the moves)"),
        ],
    )


@experiment("ext-chaos", "extension - seeded chaos campaign across fault scenarios")
def ext_chaos_campaign(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Seeded chaos campaign: race the contending policies across the
    stock churn/burst/brownout fault scenarios (see
    :mod:`repro.analysis.chaos`) and check the robustness claims that
    should hold at any scale."""
    # Fault scenarios stress transients, not steady state; a medium trace
    # is plenty and keeps the campaign a small slice of a full regen.
    chaos_scale = replace(scale, num_requests=min(scale.num_requests, 60_000))
    num_nodes = 4
    seed = 0
    rows_raw = run_matrix(
        chaos_spec(
            _scenario("rice", chaos_scale),
            num_nodes=num_nodes,
            node_cache_bytes=chaos_scale.node_cache_bytes,
            seed=seed,
        ),
        jobs=jobs,
    )
    rows = [
        [
            row["scenario"],
            row["policy"],
            round(float(row["availability"]), 4),
            row["lost_requests"],
            row["retried_requests"],
            round(float(row["goodput_rps"]), 1),
            row["recovery_tput_s"]
            if isinstance(row["recovery_tput_s"], str)
            else round(float(row["recovery_tput_s"]), 2),
        ]
        for row in rows_raw
    ]
    baselines = [row for row in rows_raw if row["scenario"] == "none"]
    faulted = [row for row in rows_raw if row["scenario"] != "none"]
    brownout = [row for row in rows_raw if row["scenario"] == "brownout"]
    base_by_policy = {str(row["policy"]): row for row in baselines}
    lard_base = base_by_policy["lard"]
    wrr_base = base_by_policy["wrr"]
    duration = min(
        float(row["num_requests"]) / float(row["goodput_rps"]) for row in baselines
    )
    regen = build_scenarios(num_nodes, duration, seed)
    return dict(
        title=f"seeded chaos campaign ({num_nodes} nodes, Rice-like, seed {seed})",
        paper_reference="Section 2.6 (extension: fault model + chaos scenarios)",
        headers=[
            "scenario",
            "policy",
            "availability",
            "lost",
            "retried",
            "goodput rps",
            "tput recovery s",
        ],
        rows=rows,
        expectation=(
            "crashes cost only the detection window (retries preserve "
            "availability), brownouts shift load without losing requests, "
            "and every policy recovers its throughput after the last "
            "disruption"
        ),
        checks=[
            check(all(row["lost_requests"] == 0 and row["retried_requests"] == 0
                      for row in baselines),
                  "fault-free runs lose and retry nothing"),
            check(all(float(row["availability"]) >= 0.98 for row in faulted),
                  "availability stays above 98% in every fault scenario (client "
                  "retries absorb the detection window)"),
            check(all(row["lost_requests"] == 0 for row in brownout),
                  "brownouts degrade rates but lose no requests (no crashes)"),
            check(float(lard_base["goodput_rps"]) > float(wrr_base["goodput_rps"]),
                  "LARD's locality advantage over WRR survives into the campaign baseline"),
            check(regen == build_scenarios(num_nodes, duration, seed),
                  "fault schedules are deterministic from the campaign seed"),
        ],
    )


def _scaleout_sizes(scale: Scale) -> Tuple[int, ...]:
    """Scale-out x-axis per experiment scale.

    FULL/STANDARD run the headline 64-1024 sweep; QUICK and SMOKE shrink
    it so tests and benches stay fast while exercising the same code.
    """
    if scale.num_requests >= 100_000:
        return (64, 256, 1024)
    if scale.num_requests >= 50_000:
        return (16, 64, 256)
    return (8, 16)


@experiment("ext-scaleout", "extension - policy zoo (chash/pod/pod-lc) at 64-1024 nodes")
def ext_scaleout(scale: Scale, jobs: int) -> Dict[str, Any]:
    """The policy zoo at modern cluster sizes: chash / pod / pod/lc vs
    lard / lard/r (and the wrr floor) as the cluster grows past the
    paper's 16 nodes."""
    sizes = _scaleout_sizes(scale)
    spec = MatrixSpec(
        name=f"ext-scaleout-{scale.label}",
        scenarios=(_scenario("rice", scale),),
        policies=DEFAULT_SCALEOUT_POLICIES,
        num_nodes=sizes,
        node_cache_bytes=scale.node_cache_bytes,
        scorecard=SCALEOUT_SCORECARD,
    )
    sweep_rows = run_matrix(spec, jobs=jobs)
    by_cell = {(row["policy"], row["num_nodes"]): row for row in sweep_rows}
    rows = [
        [
            row["num_nodes"],
            row["policy"],
            round(row["throughput_rps"], 1),
            round(100 * row["cache_miss_ratio"], 2),
            round(100 * row["idle_fraction"], 2),
            round(row["p99_delay_ms"], 1),
        ]
        for row in sweep_rows
    ]
    n_hi = sizes[-1]
    miss = {policy: by_cell[policy, n_hi]["cache_miss_ratio"] for policy in spec.policies}
    # Determinism gate: a randomized-policy cell rerun from the same seed
    # (outside the memo cache) must reproduce byte-identically.
    rerun = run_matrix(replace(spec, policies=("pod/lc",), num_nodes=sizes[0]))
    return dict(
        title=f"policy zoo vs cluster size {sizes} (Rice-like)",
        paper_reference="extension: arXiv:1608.01350, arXiv:1610.05961, arXiv:1706.10209",
        headers=["nodes", "policy", "throughput rps", "miss %", "idle %", "p99 ms"],
        rows=rows,
        expectation=(
            "locality-aware strategies (lard, lard/r, chash, pod/lc) hold their "
            "miss-ratio advantage over oblivious wrr/pod as the cluster grows; "
            "randomized policies pay an idle/imbalance cost that power-of-d "
            "keeps logarithmic; scorecards are rerun-identical"
        ),
        checks=[
            check(miss["pod/lc"] <= miss["pod"],
                  f"cache-aware probing beats oblivious pod on miss ratio at {n_hi} nodes "
                  f"({miss['pod/lc']:.1%} vs {miss['pod']:.1%})"),
            check(miss["chash"] <= miss["wrr"],
                  f"consistent hashing keeps locality wrr forfeits at {n_hi} nodes "
                  f"({miss['chash']:.1%} vs {miss['wrr']:.1%})"),
            check(by_cell["lard/r", n_hi]["throughput_rps"] >= by_cell["pod", n_hi]["throughput_rps"],
                  f"lard/r's working-set argument still holds against pod at {n_hi} nodes"),
            check(rerun[0] == by_cell["pod/lc", sizes[0]],
                  "seeded randomized policies reproduce identical scorecard rows on rerun"),
        ],
    )


@experiment("ext-dynamic", "extension - dynamic workload matrix (flash/drift/CGI/tenants)")
def ext_dynamic(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Dynamic workloads: how the policy zoo degrades (and recovers) when
    the trace stops being a stationary IRM — flash crowds, popularity
    drift, CGI mixes and multi-tenant interleaves vs the static baseline,
    via the declarative matrix engine."""
    num_targets = max(1, int(16_000 * scale.trace_scale))
    total_bytes = max(1, int(384 * 2**20 * scale.trace_scale))
    base = dict(
        num_requests=scale.num_requests,
        num_targets=num_targets,
        total_bytes=total_bytes,
    )
    spec = MatrixSpec(
        name=f"ext-dynamic-{scale.label}",
        scenarios=(
            Scenario("static", "synthetic", dict(base, zipf_alpha=0.9, seed=17)),
            Scenario("flash-crowd", "flash", base),
            # Pure rank churn (alpha pinned to the static baseline's), so
            # the drift column isolates mapping staleness from the
            # concentration change an alpha sweep would add.
            Scenario(
                "drift",
                "drift",
                dict(base, alpha_start=0.9, alpha_end=0.9, churn_fraction=0.25),
            ),
            Scenario("cgi-mix", "cgi", base),
            Scenario(
                "multi-tenant",
                "tenants",
                dict(
                    num_requests=scale.num_requests,
                    targets_per_tenant=num_targets // 3,
                    bytes_per_tenant=total_bytes // 3,
                ),
            ),
        ),
        policies=("wrr", "lard", "lard/r", "chash", "pod/lc"),
        num_nodes=8,
        node_cache_bytes=scale.node_cache_bytes,
    )
    matrix_rows = run_matrix(spec, jobs=jobs)
    by_cell = {(row["scenario"], row["policy"]): row for row in matrix_rows}
    rows = [
        [
            row["scenario"],
            row["policy"],
            round(row["throughput_rps"], 1),
            round(100 * row["cache_miss_ratio"], 2),
            round(100 * row["dynamic_fraction"], 2),
            round(row["mean_delay_ms"], 1),
        ]
        for row in matrix_rows
    ]
    miss = {key: row["cache_miss_ratio"] for key, row in by_cell.items()}
    tput = {key: row["throughput_rps"] for key, row in by_cell.items()}
    # Determinism gate: one cell rerun through a fresh single-cell matrix
    # must reproduce its scorecard row byte-identically.
    rerun = run_matrix(
        replace(spec, scenarios=(spec.scenarios[2],), policies=("lard",))  # drift
    )
    return dict(
        title="dynamic workload matrix: flash crowd / drift / CGI / tenants",
        paper_reference="extension: Sections 2, 4.2 (dynamic content, workload shifts)",
        headers=["scenario", "policy", "throughput rps", "miss %", "dynamic %", "delay ms"],
        rows=rows,
        expectation=(
            "flash crowds concentrate the working set (miss ratios drop, "
            "load skews); popularity drift stales learned mappings and "
            "degrades every locality-aware policy while lard re-learns "
            "fast enough to hold its lead; CGI requests bypass the caches "
            "and surface in the dynamic column; all scores are "
            "measured-phase only (cold warmup excluded) and rerun-identical"
        ),
        checks=[
            check(miss["drift", "lard"] > miss["static", "lard"],
                  "popularity drift degrades lard's learned locality "
                  f"({miss['drift', 'lard']:.1%} vs "
                  f"{miss['static', 'lard']:.1%} static miss ratio)"),
            check(tput["drift", "lard"] > tput["drift", "wrr"],
                  "lard re-learns its mappings fast enough to keep beating wrr "
                  "under drift"),
            check(miss["flash-crowd", "wrr"] < miss["static", "wrr"],
                  "a flash crowd's concentration is free caching even for "
                  "oblivious wrr "
                  f"({miss['flash-crowd', 'wrr']:.1%} vs "
                  f"{miss['static', 'wrr']:.1%} static miss ratio)"),
            check(tput["flash-crowd", "lard/r"] >= tput["static", "lard/r"],
                  "lard/r's replication absorbs the crowd: flash throughput holds "
                  "at or above the static baseline"),
            check(all(by_cell["cgi-mix", p]["dynamic_fraction"] > 0
                      and by_cell["static", p]["dynamic_fraction"] == 0
                      for p in spec.policies),
                  "CGI requests are accounted as dynamic (and only in the CGI mix)"),
            check(rerun[0] == by_cell["drift", "lard"],
                  "matrix cells reproduce identical scorecard rows on rerun"),
        ],
    )


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md Section 5)
# ---------------------------------------------------------------------------


@experiment("abl-replacement", "ablation  - GDS vs LRU vs LFU back-end replacement")
def ablation_replacement(scale: Scale, jobs: int) -> Dict[str, Any]:
    num_nodes = scale.second_largest
    configs = {
        (cache_policy, policy): dict(policy=policy, num_nodes=num_nodes, cache_policy=cache_policy)
        for cache_policy in ("gds", "lru", "lfu")
        for policy in ("wrr", "lard/r")
    }
    cells = run_cells("rice", configs, scale, jobs)
    tput = {key: result.throughput_rps for key, result in cells.items()}
    order_kept = tput[("lru", "lard/r")] > tput[("lru", "wrr")]
    lru_loss = 1 - tput[("lru", "lard/r")] / tput[("gds", "lard/r")]
    return dict(
        title="back-end replacement policy ablation (GDS vs LRU vs LFU)",
        paper_reference="Section 3.1 (GDS vs LRU note)",
        headers=["cache", "policy", "throughput rps", "miss %"],
        rows=[
            [cache_policy, policy, _rps(r), _pct(r.cache_miss_ratio)]
            for (cache_policy, policy), r in cells.items()
        ],
        expectation=(
            "relative ordering of distribution strategies is unchanged by the "
            "replacement policy; absolute throughput up to ~30% lower with LRU"
        ),
        checks=[
            check(order_kept,
                  "LARD/R still beats WRR under LRU replacement (ordering is policy-independent)"),
            check(lru_loss < 0.45,
                  f"LRU costs LARD/R at most ~30-45% of GDS throughput (measured {lru_loss:.0%})"),
        ],
    )


@experiment("abl-admission", "ablation  - admission limit S on/off")
def ablation_admission(scale: Scale, jobs: int) -> Dict[str, Any]:
    num_nodes = scale.cluster_sizes[-1]
    paper = dict(policy="lard", num_nodes=num_nodes)
    configs = {"S (paper)": paper, "unbounded": dict(paper, max_in_flight=10 * 65 * num_nodes)}
    results = run_cells("rice", configs, scale, jobs)
    bounded = results["S (paper)"]
    unbounded = results["unbounded"]
    return dict(
        title="admission limit S on/off (basic LARD)",
        paper_reference="Section 2.4 (definition of S)",
        headers=["admission", "throughput rps", "miss %", "mean delay ms"],
        rows=[
            [label, _rps(r), _pct(r.cache_miss_ratio), _ms(r.mean_delay_s)]
            for label, r in results.items()
        ],
        expectation=(
            "without the cluster-wide connection limit, all loads can rise to "
            "T_high and LARD behaves like WRR (paper's motivation for S)"
        ),
        checks=[
            check(unbounded.mean_delay_s > bounded.mean_delay_s,
                  "removing the admission limit inflates request delay"),
            check(unbounded.cache_miss_ratio >= bounded.cache_miss_ratio - 0.01,
                  "without S, loads rise toward T_high everywhere and locality degrades "
                  "toward WRR behaviour"),
        ],
    )


@experiment("abl-mappings", "ablation  - bounded front-end mapping table")
def ablation_mapping_bound(scale: Scale, jobs: int) -> Dict[str, Any]:
    catalog = get_trace("rice", scale).num_targets
    unbounded = dict(policy="lard/r", num_nodes=scale.second_largest)
    configs = {
        "unbounded": unbounded,
        "2x catalog": dict(unbounded, max_mappings=catalog * 2),
        "1/2 catalog": dict(unbounded, max_mappings=catalog // 2),
        "1/8 catalog": dict(unbounded, max_mappings=catalog // 8),
    }
    cells = run_cells("rice", configs, scale, jobs)
    tputs = {label: result.throughput_rps for label, result in cells.items()}
    generous_loss = 1 - tputs["2x catalog"] / tputs["unbounded"]
    return dict(
        title="bounded front-end mapping table (LARD/R)",
        paper_reference="Section 2.6",
        headers=["mapping bound", "throughput rps", "miss %"],
        rows=[[label, _rps(r), _pct(r.cache_miss_ratio)] for label, r in cells.items()],
        expectation=(
            "a mapping bound above the cluster-wide cache-resident set is free "
            "(the paper's 'of little consequence' claim); pushing it below the "
            "resident set churns routing and costs throughput - the bound must "
            "be sized to the aggregate cache, not the catalog"
        ),
        checks=[
            check(abs(generous_loss) < 0.05,
                  f"a bound that fits every live mapping costs nothing ({generous_loss:+.1%})"),
            check(tputs["1/8 catalog"] <= tputs["1/2 catalog"] * 1.02,
                  "tightening the bound monotonically costs throughput (mapping churn "
                  "forces re-assignments and duplicate caching)"),
        ],
    )


@experiment("abl-k", "ablation  - replication decay constant K sweep")
def ablation_replication_decay(scale: Scale, jobs: int) -> Dict[str, Any]:
    num_nodes = scale.cluster_sizes[-1]
    configs = {
        k_seconds: dict(policy="lard/r", num_nodes=num_nodes, k_seconds=k_seconds)
        for k_seconds in (1.0, 5.0, 20.0, 120.0)
    }
    cells = run_cells(_hot_trace(scale, 0.10), configs, scale, jobs)
    return dict(
        title="replication decay constant K sweep (LARD/R, hot workload)",
        paper_reference="Section 2.5 (K = 20 s)",
        headers=["K seconds", "throughput rps", "miss %", "mean delay ms"],
        rows=[
            [k_seconds, _rps(r), _pct(r.cache_miss_ratio), _ms(r.mean_delay_s)]
            for k_seconds, r in cells.items()
        ],
        expectation=(
            "K trades replication agility against unnecessary replica churn; "
            "the paper's K = 20 s sits on the flat part of the curve"
        ),
        checks=[],
    )


@experiment("abl-coalesce", "ablation  - disk read coalescing on/off")
def ablation_coalescing(scale: Scale, jobs: int) -> Dict[str, Any]:
    num_nodes = scale.cluster_sizes[1]
    configs = {
        label: dict(policy="wrr", num_nodes=num_nodes, coalesce_reads=coalesce)
        for label, coalesce in (("coalesced", True), ("independent reads", False))
    }
    cells = run_cells("rice", configs, scale, jobs)
    return dict(
        title="read coalescing on/off (WRR)",
        paper_reference="Section 3.1 (one disk read serves concurrent waiters)",
        headers=["mode", "throughput rps", "disk reads", "coalesced"],
        rows=[[label, _rps(r), r.disk_reads, r.coalesced_reads] for label, r in cells.items()],
        expectation="shared disk reads reduce disk traffic under concurrency",
        checks=[
            check(cells["coalesced"].throughput_rps >= cells["independent reads"].throughput_rps,
                  "coalescing concurrent misses on one file never hurts throughput")
        ],
    )


# ---------------------------------------------------------------------------
# The live prototype (Section 6): real sockets over loopback, so these
# read wall-clock rates, ignore the scale and ``jobs``, and each imports
# repro.handoff itself
# ---------------------------------------------------------------------------


def _load(cluster: Any, urls: Sequence[str], requests: int, concurrency: int) -> Tuple[Any, Any]:
    """Start ``cluster``, drive ``requests`` closed-loop GETs over ``urls``
    through it, and return the load result and the drained cluster's stats."""
    from ..handoff import LoadGenerator

    with cluster:
        load = LoadGenerator(
            cluster.address, urls, concurrency=concurrency, verify=cluster.verify
        ).run(requests)
        cluster.wait_idle()
        return load, cluster.stats()


@experiment("sec6.2-handoff", "Sec 6.2   - live hand-off latency and throughput", live=True)
def sec62_handoff(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Section 6.2's two front-end measurements on the user-space
    prototype: the latency one hand-off adds (accept -> parse -> dispatch
    -> the back-end owns the socket) and the hand-offs one front-end
    sustains, over one tiny document so that nothing else costs."""
    from ..handoff import DocumentStore, HandoffCluster

    with tempfile.TemporaryDirectory(prefix="lard-ho-") as root:
        store = DocumentStore.build(Path(root), {"/tiny": 128})
        cluster = HandoffCluster(
            store, num_backends=2, policy="lard/r", cache_bytes=2**20,
            miss_penalty_s=0.0, workers_per_backend=8, max_in_flight=256,
        )
        load, stats = _load(cluster, ["/tiny"], 2000, concurrency=16)
    latency_us = stats.frontend.mean_handoff_latency_s * 1e6
    return dict(
        title="TCP hand-off front-end measurements",
        paper_reference="Section 6.2",
        headers=["metric", "paper (kernel, 300 MHz PII)", "measured (user space, loopback)"],
        rows=[
            ["hand-off latency", "~194 µs", f"{latency_us:.0f} µs"],
            ["hand-off throughput", "thousands conn/s", f"{load.throughput_rps:.0f} conn/s"],
        ],
        expectation=(
            "hand-off latency is insignificant against wide-area connection "
            "setup, and one front-end sustains thousands of hand-offs/s"
        ),
        checks=[
            check(load.errors == 0, f"every connection is answered ({load.errors} errors)"),
            check(latency_us < 5000,
                  f"a hand-off adds well under wide-area setup time "
                  f"({latency_us:.0f} µs < 5000 µs)"),
            check(load.throughput_rps > 1000,
                  f"one front-end sustains thousands of hand-offs/s "
                  f"({load.throughput_rps:.0f} > 1000 conn/s)"),
        ],
    )


@experiment("fig18", "Figure 18 - live prototype HTTP throughput, WRR vs LARD/R", live=True)
def fig18_prototype(scale: Scale, jobs: int) -> Dict[str, Any]:
    """Figure 18 on the live prototype: a real front-end hands real
    sockets to back-end HTTP servers whose caches hold a fraction of the
    docroot, and a miss pays a disk-penalty sleep.  The paper drove its
    six back-ends with a Rice trace segment."""
    from ..handoff import DocumentStore, HandoffCluster

    cache_bytes = 192 * 1024
    sizes = (1, 2, 4, 6)
    trace = synthesize_trace(
        num_requests=2400, num_targets=400,
        total_bytes=int(4 * cache_bytes * 0.9),  # fits four caches, not one
        zipf_alpha=0.9, size_popularity_correlation=-0.4, seed=18, name="fig18",
    )
    rps: Dict[Tuple[int, str], float] = {}
    errors = 0
    with tempfile.TemporaryDirectory(prefix="lard-fig18-") as root:
        store, urls = DocumentStore.from_trace(Path(root), trace)
        for n in sizes:
            for policy in ("wrr", "lard/r"):
                cluster = HandoffCluster(
                    store, num_backends=n, policy=policy, cache_bytes=cache_bytes,
                    miss_penalty_s=0.012, workers_per_backend=4,
                )
                load, _ = _load(cluster, urls, 1200, concurrency=3 * n)
                rps[n, policy] = load.throughput_rps
                errors += load.errors
    ratio = {n: rps[n, "lard/r"] / rps[n, "wrr"] for n in sizes}
    top = sizes[-1]
    scaling = rps[top, "lard/r"] / rps[1, "lard/r"]
    return dict(
        title="prototype cluster HTTP throughput",
        paper_reference="Figure 18",
        headers=["back-ends", "wrr req/s", "lard/r req/s", "lard/r : wrr"],
        rows=[[n, round(rps[n, "wrr"]), round(rps[n, "lard/r"]), ratio[n]] for n in sizes],
        expectation=(
            "WRR nearly flat, LARD/R scales with back-ends "
            "(~2.5x WRR at six nodes on the 1998 testbed)"
        ),
        checks=[
            check(ratio[top] > 1.25,
                  f"LARD/R clearly beats WRR at {top} back-ends ({ratio[top]:.2f}x > 1.25x)"),
            check(ratio[top] > ratio[1],
                  f"the gap widens with cluster size ({ratio[1]:.2f}x at one back-end)"),
            check(scaling > 1.5,
                  f"LARD/R scales with back-ends ({scaling:.2f}x from 1 to {top} > 1.5x)"),
            check(errors == 0, f"every request is answered ({errors} errors)"),
        ],
    )


@experiment("sec6.2-l4", "Sec 6.2   - live hand-off vs Layer-4 relay front-end", live=True)
def sec62_l4_comparison(scale: Scale, jobs: int) -> Dict[str, Any]:
    """The paper's case for TCP hand-off over relaying (Sections 5 and
    7): an L4 proxy front-end, 1998's commercial state of the art, carries
    every response byte through its own CPU and, blind to content, can
    never run LARD.  One workload through both deployments."""
    from ..handoff import DocumentStore, HandoffCluster, L4ProxyCluster

    requests, doc_bytes = 800, 8192
    documents = {f"/d{i}": doc_bytes for i in range(60)}
    urls = list(documents)
    with tempfile.TemporaryDirectory(prefix="lard-l4-") as root:
        store = DocumentStore.build(Path(root), documents)
        l4, l4_stats = _load(
            L4ProxyCluster(store, num_backends=3, miss_penalty_s=0.002), urls, requests, 8
        )
        handoff, _ = _load(
            HandoffCluster(store, num_backends=3, policy="lard/r", miss_penalty_s=0.002),
            urls, requests, 8,
        )
    relayed = l4_stats.proxy.bytes_relayed
    return dict(
        title="hand-off vs Layer-4 relay front-end",
        paper_reference="Section 7 comparator",
        headers=["front-end", "req/s", "mean latency ms", "response bytes through front-end"],
        rows=[
            ["L4 relay (WRR, content-oblivious)", round(l4.throughput_rps),
             l4.mean_latency_s * 1e3, relayed],
            ["TCP hand-off (LARD/R)", round(handoff.throughput_rps),
             handoff.mean_latency_s * 1e3, 0],
        ],
        expectation=(
            "hand-off removes the front-end from the response path and enables "
            "content-based distribution an L4 device cannot perform"
        ),
        checks=[
            check(relayed >= requests * doc_bytes,
                  f"every response byte crosses the L4 front-end "
                  f"({relayed:,d} >= {requests * doc_bytes:,d} bytes)"),
            check(handoff.throughput_rps > l4.throughput_rps,
                  f"hand-off outperforms the relay on the same workload "
                  f"({handoff.throughput_rps / l4.throughput_rps:.2f}x its req/s)"),
            check(l4.errors == handoff.errors == 0,
                  f"every request is answered ({l4.errors} + {handoff.errors} errors)"),
        ],
    )


#: What ``run all`` runs: every experiment but the live ones, in
#: registry order.  They are deterministic, so ``run all --scale smoke``
#: has a golden.
SIMULATED: Tuple[str, ...] = tuple(
    experiment_id for experiment_id, entry in EXPERIMENTS.items() if not entry.live
)
