"""Workloads of the performance ledger: cells, set-up inputs and the oracle.

A *cell* is one simulation (or one ``run_matrix`` campaign) the ledger
times; a *workload* is a fixed list of cells over traces generated from
``--seed``.  Everything here calls the repo's public functions only —
spans are recorded around those calls, nothing under ``src/`` is edited.

Imported through :mod:`ledger`, which puts ``src/`` and ``benchmarks/``
on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ledger_probe import HostSpeed
from perf import micro  # benchmarks/perf/micro.py
from repro.analysis.chaos import build_scenarios
from repro.analysis.matrix import MatrixSpec, matrix_from_dict, run_matrix
from repro.cluster import ClusterConfig, ClusterSimulator, SimulationResult
from repro.workload import Trace

#: Workers of the pooled ``run_matrix`` reference run.
POOL_JOBS = min(2, os.cpu_count() or 1)

MATRIX_SPEC_PATH = Path(__file__).with_name("matrix_dynamic.json")


# -- spans --------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans around calls into the layers' public functions.

    The span is also the ledger's stopwatch: a cell's wall time *is* its
    span's duration, so traced and untraced runs share one code path and
    the recorder costs two clock reads per call either way.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, round_no: Optional[int] = None) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "round": round_no,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def duration(span: Dict[str, Any]) -> float:
    return float(span["end"] - span["start"])


# -- the correctness oracle --------------------------------------------------------


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: SimulationResult) -> str:
    """sha256 over every field of a :class:`SimulationResult`."""
    return _digest(asdict(result))


def check_result(
    result: SimulationResult, completed: int, trace_len: int, lossless: bool
) -> Optional[str]:
    """Why a finished simulation is wrong, or ``None`` when it is not."""
    if completed != trace_len or result.num_requests != trace_len:
        return f"completed {completed} of {trace_len} requests"
    if not result.sim_time_s > 0.0:
        return f"simulated time {result.sim_time_s!r} is not positive"
    if result.throughput_rps != result.num_requests / result.sim_time_s:
        return "throughput_rps is not num_requests / sim_time_s"
    if lossless and result.lost_requests:
        return f"fault-free cell lost {result.lost_requests} requests"
    return None


@dataclass
class Outcome:
    """One cell run: what it did, how long it took, and its verdict."""

    cell: str
    label: str
    requests: int = 0
    raw_s: float = 0.0
    norm_s: float = 0.0
    build_s: float = 0.0
    events: Optional[int] = None
    digest: str = ""
    error: Optional[str] = None
    #: Simulated statistics the layer metrics need (the result object
    #: itself is dropped, so memory does not grow with the round count).
    sim_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


class Oracle:
    """Counts attempted and failed operations (one cell in one round).

    A cell fails if it raised or :func:`check_result` rejects it, if its
    digest differs from its own first run, or if it differs from the
    cell named by ``same_as`` (the repo's traced/sanitized identity
    guarantee and the ``jobs=2`` vs ``jobs=1`` matrix cross-check).
    """

    def __init__(self) -> None:
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def judge(self, outcome: Outcome, round_no: int, same_as: Optional[str] = None) -> None:
        self.attempted += 1
        reason = outcome.error
        if reason is None:
            if self.first.setdefault(outcome.cell, outcome.digest) != outcome.digest:
                reason = "result digest changed between rounds"
            elif same_as is not None and self.first.get(same_as) != outcome.digest:
                reason = f"result digest differs from the {same_as} run"
        if reason is not None:
            self.failures.append(f"{outcome.cell} round {round_no}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    def sim_digest(self) -> str:
        """One digest over every cell's first result (printed, not gated)."""
        return _digest(sorted(self.first.items()))


# -- cells ------------------------------------------------------------------------


@contextmanager
def _profiling(profiler: Any) -> Iterator[None]:
    """Profile only the call into the layer, never the harness around it."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


@dataclass
class SimCell:
    """One ``ClusterSimulator`` build + ``run()`` over a trace."""

    name: str
    label: str
    trace: Trace
    config: ClusterConfig
    #: Write the simulator's own span log here (the ``trace_out=`` path).
    spans_to: Optional[Path] = None
    #: Cell whose digest this one must reproduce.
    same_as: Optional[str] = None
    #: False only for cells with a fault schedule, which may lose requests.
    lossless: bool = True

    def run(
        self, rec: SpanRecorder, host: HostSpeed, round_no: int, profiler: Any = None
    ) -> Outcome:
        out = Outcome(self.name, self.label)
        writer = None
        try:
            with rec.span("cluster.build", round_no) as build:
                if self.spans_to is not None:
                    from repro.obs.span import SpanWriter
                    from repro.obs.tracer import SimTracer

                    writer = SpanWriter(self.spans_to, source="sim")
                    simulator = ClusterSimulator(
                        self.trace, self.config, tracer=SimTracer(writer)
                    )
                else:
                    simulator = ClusterSimulator(self.trace, self.config)
            out.build_s = duration(build)
            before = host.recent()
            with rec.span(f"cluster.run.{self.label}", round_no) as run, _profiling(profiler):
                result = simulator.run()
                if writer is not None:
                    writer.close()
            out.raw_s = duration(run)
            out.norm_s = host.normalized(out.raw_s, before, host.recent())
            out.requests = len(self.trace)
            out.events = simulator.engine.events_dispatched
            out.sim_time_s = result.sim_time_s
            out.cache_hits, out.cache_misses = result.cache_hits, result.cache_misses
            out.digest = result_digest(result)
            out.error = check_result(
                result, simulator.frontend.completed, len(self.trace), self.lossless
            )
        except Exception as exc:  # a raising cell is a failed operation, not a crash
            out.error = f"{type(exc).__name__}: {exc}"
        finally:
            if writer is not None:
                writer.close()
        return out


@dataclass
class MatrixCell:
    """One ``run_matrix`` campaign (trace memo loads included, memo warm)."""

    name: str
    label: str
    spec: MatrixSpec
    jobs: int
    requests: int
    same_as: Optional[str] = None

    def run(
        self, rec: SpanRecorder, host: HostSpeed, round_no: int, profiler: Any = None
    ) -> Outcome:
        out = Outcome(self.name, self.label)
        try:
            before = host.recent()
            with rec.span(f"analysis.run_matrix.{self.label}", round_no) as run, _profiling(profiler):
                rows = run_matrix(self.spec, jobs=self.jobs)
            out.raw_s = duration(run)
            out.norm_s = host.normalized(out.raw_s, before, host.recent())
            out.requests = self.requests
            out.digest = _digest(rows)
            expected = len(self.spec.scenarios) * len(self.spec.policies)
            if len(rows) != expected:
                out.error = f"{len(rows)} rows for {expected} cells"
        except Exception as exc:  # a raising campaign is a failed operation
            out.error = f"{type(exc).__name__}: {exc}"
        return out


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """Input sizes: the benchmark's, or the ``--smoke`` stand-ins."""

    ref_requests: int
    offpath_requests: int
    scaleout_requests: int
    scaleout_nodes: int
    #: Requests per matrix scenario; ``None`` keeps ``matrix_dynamic.json``'s.
    matrix_requests: Optional[int]
    #: Requests replayed by the policy / cache micros.
    replay_requests: int
    #: Events dispatched by each engine micro.
    engine_events: int


FULL = Sizes(100_000, 50_000, 20_000, 1024, None, 10_000, 200_000)
SMOKE = Sizes(4_000, 3_000, 2_000, 64, 1_200, 1_000, 10_000)

TraceSpec = Tuple[str, Dict[str, Any]]


@dataclass
class Prepared:
    """A workload's cells once its traces exist."""

    #: Timed every round, interleaved round-robin.
    cells: List[Any]
    #: Reference cells ``prepare`` already ran once (as round 0) to give
    #: the oracle its digests; the traced pass runs them again, warm,
    #: for the ratio metrics.
    refs: List[Any] = field(default_factory=list)
    #: Run only by the traced pass (the matrix's cells, simulated directly).
    layer_cells: List[Any] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    trace_specs: Callable[[int, Sizes], List[TraceSpec]]
    #: The configuration of the first cluster build (charged to set-up).
    base_config: Callable[[int, Sizes], ClusterConfig]
    prepare: Callable[["Context", List[Trace]], Prepared]


@dataclass
class Context:
    seed: int
    sizes: Sizes
    workdir: Path
    rec: SpanRecorder
    host: HostSpeed
    oracle: Oracle


def _rice(num_requests: int, seed: int, scale: Optional[float]) -> TraceSpec:
    params: Dict[str, Any] = dict(num_requests=num_requests, seed=seed)
    if scale is not None:
        params["scale"] = scale
    return ("rice", params)


def _e2e_config(seed: int) -> ClusterConfig:
    return ClusterConfig(**micro.E2E_SIM_PARAMS, policy_seed=seed)


def _reference(ctx: Context, cell: Any) -> Outcome:
    """Run a reference cell once, untimed, and hand its digest to the oracle."""
    outcome = cell.run(ctx.rec, ctx.host, 0)
    ctx.oracle.judge(outcome, 0)
    return outcome


def _ref_prepare(ctx: Context, traces: List[Trace]) -> Prepared:
    return Prepared([SimCell("plain", "plain", traces[0], _e2e_config(ctx.seed))])


def _offpath_prepare(ctx: Context, traces: List[Trace]) -> Prepared:
    trace, base = traces[0], _e2e_config(ctx.seed)
    plain = SimCell("plain", "plain", trace, base)
    reference = _reference(ctx, plain)
    if reference.error is not None:
        raise RuntimeError(f"offpath-8n reference run failed: {reference.error}")
    churn = build_scenarios(base.num_nodes, reference.sim_time_s, ctx.seed)[0]
    cells = [
        SimCell(
            "traced", "traced", trace, base,
            spans_to=ctx.workdir / "sim_spans.jsonl", same_as="plain",
        ),
        SimCell("sanitized", "sanitized", trace, replace(base, sanitize=True), same_as="plain"),
        SimCell(
            "faulty", "faulty", trace,
            replace(base, fault_schedule=churn.schedule), lossless=False,
        ),
        SimCell("persistent", "persistent", trace, replace(base, requests_per_connection=4)),
    ]
    return Prepared(cells, refs=[plain])


SCALEOUT_POLICIES = ("wrr", "lard/r", "chash", "pod/lc")


def metric_label(policy: str) -> str:
    return policy.replace("/", "-")


def _scaleout_config(seed: int, sizes: Sizes) -> ClusterConfig:
    return ClusterConfig(
        policy=SCALEOUT_POLICIES[0],
        num_nodes=sizes.scaleout_nodes,
        collect_delays=True,
        policy_seed=seed,
    )


def _scaleout_prepare(ctx: Context, traces: List[Trace]) -> Prepared:
    base = _scaleout_config(ctx.seed, ctx.sizes)
    return Prepared(
        [
            SimCell(metric_label(p), metric_label(p), traces[0], replace(base, policy=p))
            for p in SCALEOUT_POLICIES
        ]
    )


def matrix_spec(seed: int, sizes: Sizes) -> MatrixSpec:
    """The benchmark-owned copy of the builtin ``dynamic`` matrix, seeded."""
    raw = json.loads(MATRIX_SPEC_PATH.read_text(encoding="utf-8"))
    raw["policy_seed"] = seed
    for index, scenario in enumerate(raw["scenarios"]):
        if sizes.matrix_requests is not None:
            scenario["params"]["num_requests"] = sizes.matrix_requests
        scenario["params"]["seed"] = seed + index
    return matrix_from_dict(raw)


def _matrix_cell_config(spec: MatrixSpec, policy: str) -> ClusterConfig:
    return ClusterConfig(
        policy=policy,
        num_nodes=spec.num_nodes,
        node_cache_bytes=spec.node_cache_bytes,
        policy_seed=spec.policy_seed,
        pod_d=spec.pod_d,
        pod_replication=spec.pod_replication,
    )


def _matrix_prepare(ctx: Context, traces: List[Trace]) -> Prepared:
    spec = matrix_spec(ctx.seed, ctx.sizes)
    direct: List[Any] = []
    requests = 0
    for scenario, trace in zip(spec.scenarios, traces):
        warm = trace.head(int(scenario.warmup_fraction * len(trace)))
        for phase, part in (("warm", warm), ("full", trace)):
            if not len(part):
                continue
            requests += len(part) * len(spec.policies)
            for policy in spec.policies:
                direct.append(
                    SimCell(
                        f"{scenario.name}/{phase}/{policy}", metric_label(policy),
                        part, _matrix_cell_config(spec, policy),
                    )
                )
    # The timed campaign is serial: on this two-CPU sandbox a pooled round
    # waits for the slower of two workers, and identical runs spread 10%
    # (IQR / median) against 4% serial.  The pool still runs once per run
    # for the rows cross-check, and the traced pass times it.
    serial = MatrixCell("matrix.serial", "serial", spec, 1, requests)
    pooled = MatrixCell("matrix.pooled", "pooled", spec, POOL_JOBS, requests)
    _reference(ctx, pooled)
    serial.same_as = pooled.name
    return Prepared([serial], refs=[pooled], layer_cells=direct)


def _matrix_trace_specs(seed: int, sizes: Sizes) -> List[TraceSpec]:
    return [(s.kind, dict(s.params)) for s in matrix_spec(seed, sizes).scenarios]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ref-8n",
            lambda seed, sizes: [
                _rice(sizes.ref_requests, seed, micro.E2E_TRACE_PARAMS["scale"])
            ],
            lambda seed, sizes: _e2e_config(seed),
            _ref_prepare,
        ),
        Workload(
            "offpath-8n",
            lambda seed, sizes: [
                _rice(sizes.offpath_requests, seed, micro.E2E_TRACE_PARAMS["scale"])
            ],
            lambda seed, sizes: _e2e_config(seed),
            _offpath_prepare,
        ),
        Workload(
            "scaleout-1024n",
            lambda seed, sizes: [_rice(sizes.scaleout_requests, seed, None)],
            _scaleout_config,
            _scaleout_prepare,
        ),
        Workload(
            "matrix-dynamic",
            _matrix_trace_specs,
            lambda seed, sizes: _matrix_cell_config(matrix_spec(seed, sizes), "wrr"),
            _matrix_prepare,
        ),
    )
}
