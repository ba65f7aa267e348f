"""Declarative experiment matrices over the dynamic workload engine.

A *matrix* races a set of policies across a set of *scenarios* — named
trace-generator invocations from :data:`repro.workload.memo.
TRACE_GENERATORS`, typically the phase-structured dynamic workloads in
:mod:`repro.workload.dynamic` next to a static baseline — and reduces
every (scenario, policy) cell to one scorecard row.  The matrix is plain
data (:class:`MatrixSpec`, loadable from a JSON dict via
:func:`matrix_from_dict`), so an experiment is declared, versioned and
diffed rather than scripted.

Warmup/measured phases
----------------------
Dynamic scenarios are precisely about transients, so cold-cache fill
must not be averaged into the scores.  Each scenario carries a
``warmup_fraction``: the cell simulates the warmup *prefix* of the trace
on its own and the full trace, both deterministically, and reports the
**measured phase as the difference** (requests, simulated time, cache
outcomes, delay mass).  In a closed-loop simulator the prefix run
replays the full run's opening almost exactly — divergence is bounded by
the in-flight window at the phase boundary — so the deltas isolate
steady-state-plus-dynamics behavior without perturbing either run.

Determinism
-----------
Scenario traces come from :func:`repro.workload.memo.cached_trace`
(pure functions of their parameters), cells run through
:func:`repro.analysis.parallel.run_many` grouped per trace, and rows are
emitted scenarios-outer / policies-inner — so a matrix CSV is
byte-identical across reruns and across ``--jobs`` fan-out, the property
the ``workload-matrix-smoke`` CI job asserts with ``cmp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..cluster import SimulationResult, run_simulation
from ..core import POLICY_NAMES, PolicyError
from ..workload.memo import TRACE_GENERATORS, cached_trace
from ..workload.trace import Trace
from .sweep import write_csv

__all__ = [
    "Scenario",
    "MatrixSpec",
    "MATRIX_COLUMNS",
    "BUILTIN_MATRICES",
    "matrix_from_dict",
    "builtin_matrix",
    "run_matrix",
    "write_matrix_csv",
]

#: Scorecard CSV column order (fixed so reruns are byte-comparable).
MATRIX_COLUMNS: Tuple[str, ...] = (
    "scenario",
    "policy",
    "num_nodes",
    "requests_measured",
    "throughput_rps",
    "cache_miss_ratio",
    "dynamic_fraction",
    "mean_delay_ms",
    "disk_reads",
)


@dataclass(frozen=True)
class Scenario:
    """One named workload cell axis: a generator invocation plus phases.

    ``kind`` indexes :data:`~repro.workload.memo.TRACE_GENERATORS`;
    ``params`` are the generator's keyword arguments (hashed into the
    trace-cache key, so equal scenarios share one cached trace);
    ``warmup_fraction`` of the stream is simulated but excluded from the
    measured scores (see the module docstring).
    """

    name: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    warmup_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.kind not in TRACE_GENERATORS:
            raise ValueError(
                f"scenario {self.name!r}: unknown trace kind {self.kind!r} "
                f"(known: {', '.join(sorted(TRACE_GENERATORS))})"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"scenario {self.name!r}: warmup_fraction must be in [0, 1), "
                f"got {self.warmup_fraction}"
            )

    def build_trace(self) -> Trace:
        """Generate (or reload from the disk cache) the scenario's trace."""
        return cached_trace(self.kind, **dict(self.params))


@dataclass(frozen=True)
class MatrixSpec:
    """A full declarative matrix: scenarios x policies on one cluster shape."""

    name: str
    scenarios: Tuple[Scenario, ...]
    policies: Tuple[str, ...]
    num_nodes: int = 8
    node_cache_bytes: int = 4 * 2**20
    policy_seed: int = 0
    pod_d: int = 2
    pod_replication: int = 3

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError(f"matrix {self.name!r}: needs at least one scenario")
        if not self.policies:
            raise ValueError(f"matrix {self.name!r}: needs at least one policy")
        names = [scenario.name for scenario in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"matrix {self.name!r}: duplicate scenario names")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise PolicyError(
                    f"matrix {self.name!r}: unknown policy {policy!r} "
                    f"(choose from {', '.join(POLICY_NAMES)})"
                )
        if self.num_nodes < 1:
            raise ValueError(f"matrix {self.name!r}: num_nodes must be >= 1")


def _int_field(spec: Mapping[str, Any], key: str, default: int) -> int:
    """An integer field of a spec: ``2.9``, ``true`` and ``"3"`` are
    mistakes to report, not values to coerce."""
    value = spec.get(key, default)
    if type(value) is not int:
        raise ValueError(f"matrix spec: {key!r} must be an integer, got {value!r}")
    return value


def matrix_from_dict(spec: Mapping[str, Any]) -> MatrixSpec:
    """Build a :class:`MatrixSpec` from a plain (e.g. JSON-loaded) dict.

    Expected shape::

        {"name": "...",
         "policies": ["wrr", "lard", ...],
         "num_nodes": 8, "node_cache_bytes": 4194304,
         "scenarios": [{"name": "flash", "kind": "flash",
                        "params": {"num_requests": 40000, ...},
                        "warmup_fraction": 0.25}, ...]}
    """
    known = {
        "name",
        "scenarios",
        "policies",
        "num_nodes",
        "node_cache_bytes",
        "policy_seed",
        "pod_d",
        "pod_replication",
    }
    unknown = set(spec) - known
    if unknown:
        raise ValueError(
            f"matrix spec has unknown keys: {', '.join(sorted(unknown))}"
        )
    raw_scenarios = spec.get("scenarios")
    if not isinstance(raw_scenarios, (list, tuple)):
        raise ValueError("matrix spec needs a 'scenarios' list")
    scenarios = []
    for entry in raw_scenarios:
        if not isinstance(entry, Mapping):
            raise ValueError(f"scenario entries must be objects, got {entry!r}")
        extra = set(entry) - {"name", "kind", "params", "warmup_fraction"}
        if extra:
            raise ValueError(
                f"scenario has unknown keys: {', '.join(sorted(extra))}"
            )
        scenarios.append(
            Scenario(
                name=str(entry.get("name", "")),
                kind=str(entry.get("kind", "")),
                params=dict(entry.get("params", {})),
                warmup_fraction=float(entry.get("warmup_fraction", 0.25)),
            )
        )
    return MatrixSpec(
        name=str(spec.get("name", "matrix")),
        scenarios=tuple(scenarios),
        policies=tuple(str(p) for p in spec.get("policies", ())),
        num_nodes=_int_field(spec, "num_nodes", 8),
        node_cache_bytes=_int_field(spec, "node_cache_bytes", 4 * 2**20),
        policy_seed=_int_field(spec, "policy_seed", 0),
        pod_d=_int_field(spec, "pod_d", 2),
        pod_replication=_int_field(spec, "pod_replication", 3),
    )


def _dynamic_spec(
    name: str,
    num_requests: int,
    num_targets: int,
    total_bytes: int,
    num_nodes: int,
    node_cache_bytes: int,
    policies: Tuple[str, ...],
) -> Dict[str, Any]:
    """The built-in dynamic matrix shape at a given size."""
    base = dict(
        num_requests=num_requests,
        num_targets=num_targets,
        total_bytes=total_bytes,
    )
    per_tenant = dict(
        num_requests=num_requests,
        targets_per_tenant=num_targets // 3,
        bytes_per_tenant=total_bytes // 3,
    )
    return dict(
        name=name,
        policies=list(policies),
        num_nodes=num_nodes,
        node_cache_bytes=node_cache_bytes,
        scenarios=[
            dict(name="static", kind="synthetic", params=dict(base, zipf_alpha=0.9, seed=17)),
            dict(name="flash-crowd", kind="flash", params=dict(base)),
            dict(name="drift", kind="drift", params=dict(base)),
            dict(name="diurnal", kind="diurnal", params=dict(base)),
            dict(name="cgi-mix", kind="cgi", params=dict(base)),
            dict(name="multi-tenant", kind="tenants", params=per_tenant),
        ],
    )


#: Named matrices usable as ``lard-repro matrix --name ...`` (stored as
#: plain dicts — the same shape ``--spec`` files use — and parsed through
#: :func:`matrix_from_dict`, so the builtin and declarative paths are one).
BUILTIN_MATRICES: Dict[str, Dict[str, Any]] = {
    "dynamic": _dynamic_spec(
        "dynamic",
        num_requests=40_000,
        num_targets=4_000,
        total_bytes=96 * 2**20,
        num_nodes=8,
        node_cache_bytes=4 * 2**20,
        policies=("wrr", "lard", "lard/r", "chash", "pod/lc"),
    ),
    "dynamic-smoke": _dynamic_spec(
        "dynamic-smoke",
        num_requests=8_000,
        num_targets=600,
        total_bytes=16 * 2**20,
        num_nodes=4,
        node_cache_bytes=2 * 2**20,
        policies=("wrr", "lard", "chash", "pod/lc"),
    ),
}


def builtin_matrix(name: str) -> MatrixSpec:
    """Resolve one of :data:`BUILTIN_MATRICES` to a validated spec."""
    try:
        spec = BUILTIN_MATRICES[name]
    except KeyError:
        raise ValueError(
            f"unknown matrix {name!r} (known: {', '.join(sorted(BUILTIN_MATRICES))})"
        ) from None
    return matrix_from_dict(spec)


def _cell_config(spec: MatrixSpec, policy: str) -> Dict[str, Any]:
    return dict(
        policy=policy,
        num_nodes=spec.num_nodes,
        node_cache_bytes=spec.node_cache_bytes,
        policy_seed=spec.policy_seed,
        pod_d=spec.pod_d,
        pod_replication=spec.pod_replication,
    )


def _run_group(
    trace: Trace,
    configs: Sequence[Dict[str, Any]],
    jobs: Optional[int],
    tick: Optional[Callable[[], None]],
) -> List[SimulationResult]:
    """One run_many group: every config over one shared trace."""
    if jobs is None or jobs != 1:
        from .parallel import run_many

        def forward(done: int, total: int) -> None:
            if tick is not None:
                tick()

        return run_many(trace, configs, jobs=jobs, progress=forward)
    results = []
    for config in configs:
        results.append(run_simulation(trace, **config))
        if tick is not None:
            tick()
    return results


def _measured_row(
    scenario: Scenario,
    policy: str,
    spec: MatrixSpec,
    full: SimulationResult,
    warm: Optional[SimulationResult],
) -> Dict[str, Any]:
    """Reduce a cell to its measured-phase scorecard row (delta method)."""
    w_requests = warm.num_requests if warm is not None else 0
    w_time = warm.sim_time_s if warm is not None else 0.0
    w_hits = warm.cache_hits if warm is not None else 0
    w_misses = warm.cache_misses if warm is not None else 0
    w_dynamic = warm.dynamic_requests if warm is not None else 0
    w_delay = warm.total_delay_s if warm is not None else 0.0
    w_disk = warm.disk_reads if warm is not None else 0
    requests = full.num_requests - w_requests
    time_s = full.sim_time_s - w_time
    hits = full.cache_hits - w_hits
    misses = full.cache_misses - w_misses
    dynamic = full.dynamic_requests - w_dynamic
    cacheable = hits + misses
    return dict(
        scenario=scenario.name,
        policy=policy,
        num_nodes=spec.num_nodes,
        requests_measured=requests,
        throughput_rps=(requests / time_s) if time_s > 0 else 0.0,
        cache_miss_ratio=(misses / cacheable) if cacheable else 0.0,
        dynamic_fraction=(dynamic / requests) if requests else 0.0,
        mean_delay_ms=(
            (full.total_delay_s - w_delay) / requests * 1000.0 if requests else 0.0
        ),
        disk_reads=full.disk_reads - w_disk,
    )


def run_matrix(
    spec: MatrixSpec,
    jobs: Optional[int] = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[Dict[str, Any]]:
    """Execute every (scenario, policy) cell of ``spec``.

    Returns one scorecard row per cell — scenarios outer, policies inner,
    both in declaration order — with the :data:`MATRIX_COLUMNS` fields,
    each reduced to its measured phase (see the module docstring).
    Cells are grouped per trace through
    :func:`~repro.analysis.parallel.run_many`, so ``jobs`` only changes
    wall-clock time; ``progress(done, total)`` counts simulations (a
    warmed-up scenario costs two per policy).
    """
    configs_per: List[List[Dict[str, Any]]] = [
        [_cell_config(spec, policy) for policy in spec.policies]
        for _ in spec.scenarios
    ]
    warm_lens: List[int] = []
    total = 0
    for scenario, configs in zip(spec.scenarios, configs_per):
        runs = 1
        if scenario.warmup_fraction > 0.0:
            runs = 2
        warm_lens.append(runs)
        total += runs * len(configs)
    done = 0

    def tick() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total)

    rows: List[Dict[str, Any]] = []
    for scenario, configs in zip(spec.scenarios, configs_per):
        trace = scenario.build_trace()
        warmup = int(scenario.warmup_fraction * len(trace))
        warm_results: List[Optional[SimulationResult]]
        if warmup > 0:
            warm_results = list(
                _run_group(trace.head(warmup), configs, jobs, tick)
            )
        else:
            warm_results = [None] * len(configs)
        full_results = _run_group(trace, configs, jobs, tick)
        for policy, full, warm in zip(spec.policies, full_results, warm_results):
            rows.append(_measured_row(scenario, policy, spec, full, warm))
    return rows


def write_matrix_csv(rows: Sequence[Dict[str, Any]], path: Union[str, Path]) -> Path:
    """Write a matrix scorecard with the fixed column order."""
    return write_csv(rows, path, columns=MATRIX_COLUMNS)
