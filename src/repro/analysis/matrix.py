"""Declarative campaigns: one grid, one runner.

A *campaign* is a grid — scenarios x cluster sizes x policies, every
cell one deterministic simulation — reduced to a table.  The grid is
plain data (:class:`MatrixSpec`, loadable from a JSON dict via
:func:`matrix_from_dict`), so an experiment is declared, versioned and
diffed rather than scripted, and :func:`run_matrix` is the only driver.
What differs between campaigns is the spec's :class:`Scorecard`.

This module owns the spec types, the driver, and the measured-phase
scorecard of the dynamic workload matrices
(:mod:`repro.workload.dynamic` scenarios next to a static baseline);
:mod:`repro.analysis.scaleout` and :mod:`repro.analysis.chaos` own
their scorecards.  ``docs/workloads.md`` ("Campaigns") is the manual.

A cell's reference
------------------
A scorecard reads each cell against a *reference* run, and the cell's
scenario decides which run that is:

* ``warmup_fraction > 0`` — the same cell over the warm-up *prefix* of
  the trace.  Dynamic scenarios are precisely about transients, so
  cold-cache fill must not be averaged into the scores: the
  measured-phase row is the **difference** between the full run and the
  prefix run (requests, simulated time, cache outcomes, delay mass).
  In a closed-loop simulator the prefix run replays the full run's
  opening almost exactly — divergence is bounded by the in-flight
  window at the phase boundary — so the deltas isolate
  steady-state-plus-dynamics behavior without perturbing either run.
* ``fault`` set — the same cell of the fault-free scenario before it
  (see :mod:`repro.analysis.chaos`).
* neither — ``None``.

Determinism
-----------
Scenario traces come from :func:`repro.workload.memo.cached_trace`
(pure functions of their parameters), a scenario's cells run through
:func:`repro.analysis.parallel.run_many` over one shared trace, and
rows are emitted scenario -> cluster size -> policy in declaration
order — so a scorecard CSV is byte-identical across reruns and across
``--jobs`` fan-out, the property the ``campaign-smoke`` CI job asserts
with ``cmp``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
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

from ..cluster import SimulationResult
from ..core import POLICY_NAMES, PolicyError
from ..workload.memo import TRACE_GENERATORS, cached_trace
from ..workload.trace import Trace
from .parallel import run_many

__all__ = [
    "Scorecard",
    "Scenario",
    "MatrixSpec",
    "MATRIX_COLUMNS",
    "MATRIX_SCORECARD",
    "BUILTIN_MATRICES",
    "matrix_from_dict",
    "builtin_matrix",
    "paper_scenario",
    "run_matrix",
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
class Scorecard:
    """What a campaign reports, and what its cells need to report it.

    ``row(result, reference, config)`` reduces one cell to a dict with
    the ``columns`` keys (the driver adds ``scenario``): ``result`` is
    the cell's run, ``reference`` the run it is read against (``None``
    when the scenario gives it none; see the module docstring) and
    ``config`` the :class:`~repro.cluster.ClusterConfig` fields the
    cell ran with.  ``fields`` are the config fields every cell needs
    on top of the spec's (``collect_delays`` for a percentile column).
    ``digits`` rounds float columns in the terminal table only; the CSV
    keeps full precision.
    """

    columns: Tuple[str, ...]
    row: Callable[
        [SimulationResult, Optional[SimulationResult], Mapping[str, Any]],
        Dict[str, Any],
    ]
    fields: Mapping[str, Any] = field(default_factory=dict)
    digits: Mapping[str, int] = field(default_factory=dict)


def _measured_row(
    full: SimulationResult,
    warm: Optional[SimulationResult],
    _config: Mapping[str, Any],
) -> Dict[str, Any]:
    """Reduce a cell to its measured-phase scorecard row (delta method)."""

    def measured(field_name: str) -> Any:
        whole = getattr(full, field_name)
        return whole if warm is None else whole - getattr(warm, field_name)

    requests = measured("num_requests")
    time_s = measured("sim_time_s")
    hits = measured("cache_hits")
    misses = measured("cache_misses")
    dynamic = measured("dynamic_requests")
    cacheable = hits + misses
    return dict(
        policy=full.policy,
        num_nodes=full.num_nodes,
        requests_measured=requests,
        throughput_rps=(requests / time_s) if time_s > 0 else 0.0,
        cache_miss_ratio=(misses / cacheable) if cacheable else 0.0,
        dynamic_fraction=(dynamic / requests) if requests else 0.0,
        mean_delay_ms=(
            measured("total_delay_s") / requests * 1000.0 if requests else 0.0
        ),
        disk_reads=measured("disk_reads"),
    )


#: The measured-phase scorecard: every spec's default.
MATRIX_SCORECARD = Scorecard(
    columns=MATRIX_COLUMNS,
    row=_measured_row,
    digits=dict(
        throughput_rps=1,
        cache_miss_ratio=4,
        dynamic_fraction=4,
        mean_delay_ms=1,
    ),
)


@dataclass(frozen=True)
class Scenario:
    """One named workload cell axis: a generator invocation plus phases.

    ``kind`` indexes :data:`~repro.workload.memo.TRACE_GENERATORS`;
    ``params`` are the generator's keyword arguments (hashed into the
    trace-cache key, so equal scenarios share one cached trace);
    ``warmup_fraction`` of the stream is simulated but excluded from the
    measured scores; ``fault`` makes this a fault scenario:
    ``fault(num_nodes, duration_s)`` returns the extra
    :class:`~repro.cluster.ClusterConfig` fields of its cells once the
    fault-free scenario before it has run (see the module docstring for
    both, :func:`repro.analysis.chaos.fault_fields` for the stock ones).
    """

    name: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    warmup_fraction: float = 0.25
    fault: Optional[Callable[[int, float], Mapping[str, Any]]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        generator = TRACE_GENERATORS.get(self.kind)
        if generator is None:
            raise ValueError(
                f"scenario {self.name!r}: unknown trace kind {self.kind!r} "
                f"(known: {', '.join(sorted(TRACE_GENERATORS))})"
            )
        # A misspelt or missing keyword is refused here, before any
        # scenario's trace is generated.
        try:
            inspect.signature(generator).bind(**self.params)
        except TypeError as exc:
            raise ValueError(
                f"scenario {self.name!r}: {generator.__name__} {exc}"
            ) from None
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(
                f"scenario {self.name!r}: warmup_fraction must be in [0, 1), "
                f"got {self.warmup_fraction}"
            )
        if self.fault is not None and self.warmup_fraction > 0.0:
            raise ValueError(
                f"scenario {self.name!r}: a fault scenario is read against its "
                f"fault-free run, so it cannot also have a warm-up phase"
            )

    def build_trace(self) -> Trace:
        """Generate (or reload from the disk cache) the scenario's trace."""
        return cached_trace(self.kind, **dict(self.params))


def paper_scenario(kind: str, num_requests: int, scale: float) -> Scenario:
    """A ``rice`` / ``ibm`` / ``chess`` stand-in trace as a scenario with
    no warm-up phase (the chess generator has no catalog to scale)."""
    params: Dict[str, Any] = dict(num_requests=num_requests)
    if kind != "chess":
        params["scale"] = scale
    return Scenario(kind, kind, params, warmup_fraction=0.0)


@dataclass(frozen=True)
class MatrixSpec:
    """A full declarative campaign: scenarios x cluster sizes x policies."""

    name: str
    scenarios: Tuple[Scenario, ...]
    policies: Tuple[str, ...]
    #: One cluster size, or the sizes to sweep.
    num_nodes: Union[int, Tuple[int, ...]] = 8
    node_cache_bytes: int = 4 * 2**20
    policy_seed: int = 0
    pod_d: int = 2
    pod_replication: int = 3
    scorecard: Scorecard = MATRIX_SCORECARD

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
        # A repeated policy or size would run its cells twice and emit
        # the rows twice.
        if len(set(self.policies)) != len(self.policies):
            raise ValueError(f"matrix {self.name!r}: duplicate policies")
        sizes = self.sizes
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError(f"matrix {self.name!r}: num_nodes must be >= 1")
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"matrix {self.name!r}: duplicate cluster sizes")

    @property
    def sizes(self) -> Tuple[int, ...]:
        """The cluster-size axis (one entry when ``num_nodes`` is an int)."""
        if isinstance(self.num_nodes, int):
            return (self.num_nodes,)
        return tuple(self.num_nodes)


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
        name = str(entry.get("name", ""))
        params = entry.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(
                f"scenario {name!r}: 'params' must be an object, got {params!r}"
            )
        warmup = entry.get("warmup_fraction", 0.25)
        if type(warmup) not in (int, float):
            raise ValueError(
                f"scenario {name!r}: 'warmup_fraction' must be a number, got {warmup!r}"
            )
        scenarios.append(
            Scenario(
                name=name,
                kind=str(entry.get("kind", "")),
                params=dict(params),
                warmup_fraction=float(warmup),
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


def run_matrix(
    spec: MatrixSpec,
    jobs: Optional[int] = 1,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[Dict[str, Any]]:
    """Execute every (scenario, cluster size, policy) cell of ``spec``.

    Returns one scorecard row per cell — scenario, then cluster size,
    then policy, each in declaration order — with the ``scenario`` name
    and the fields of ``spec.scorecard.columns``, each cell reduced
    against its reference (see the module docstring).  A scenario's
    cells share one trace and one
    :func:`~repro.analysis.parallel.run_many` call, so ``jobs`` only
    changes wall-clock time; ``progress(done, total)`` counts
    simulations (a warmed-up scenario costs two per cell).
    """
    card = spec.scorecard
    cells: List[Dict[str, Any]] = [
        dict(
            policy=policy,
            num_nodes=num_nodes,
            node_cache_bytes=spec.node_cache_bytes,
            policy_seed=spec.policy_seed,
            pod_d=spec.pod_d,
            pod_replication=spec.pod_replication,
            **card.fields,
        )
        for num_nodes in spec.sizes
        for policy in spec.policies
    ]
    total = len(cells) * sum(
        2 if scenario.warmup_fraction > 0.0 else 1 for scenario in spec.scenarios
    )
    done = 0

    def tick(_group_done: int, _group_total: int) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total)

    rows: List[Dict[str, Any]] = []
    fault_free: List[SimulationResult] = []
    for scenario in spec.scenarios:
        trace = scenario.build_trace()
        warmup = int(scenario.warmup_fraction * len(trace))
        configs = cells
        references: Sequence[Optional[SimulationResult]] = [None] * len(cells)
        if scenario.fault is not None:
            # Scaled to the shortest fault-free run, so every policy
            # faces the same schedule.
            duration_s = min(result.sim_time_s for result in fault_free)
            extra = {n: scenario.fault(n, duration_s) for n in spec.sizes}
            configs = [dict(cell, **extra[cell["num_nodes"]]) for cell in cells]
            references = fault_free
        elif warmup > 0:
            references = run_many(trace.head(warmup), cells, jobs=jobs, progress=tick)
        results = run_many(trace, configs, jobs=jobs, progress=tick)
        if scenario.fault is None:
            fault_free = results
        for config, result, reference in zip(configs, results, references):
            rows.append(dict(scenario=scenario.name, **card.row(result, reference, config)))
    return rows
