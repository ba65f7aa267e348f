"""Per-layer micro measurements and profile attribution for the traced pass.

Each function times calls into one layer's public functions and returns
raw host seconds plus the amount of work done; the caller wraps it in a
span and rescales the time (see ``ledger_workloads.HostSpeed``).
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Sequence, Tuple

from ledger_probe import iqr_ratio
from ledger_workloads import POOL_JOBS, duration, metric_label
from perf import micro  # benchmarks/perf/micro.py
from repro.cluster import make_cache
from repro.core import make_policy
from repro.core.base import admission_limit
from repro.obs.span import Span, SpanWriter
from repro.sim import Engine, Resource, Service
from repro.workload import cached_trace

#: Repeats of each layer micro; the median is reported.
MICRO_REPEATS = 3

#: The packages that are the ledger's layers.
LAYERS = ("sim", "core", "cache", "cluster", "obs", "analysis", "workload")

Measured = Tuple[float, float]  # (raw seconds, units of work)


class _Ticker:
    """A no-op event that re-arms itself, holding the pending depth constant."""

    __slots__ = ("engine", "period", "budget", "tick")

    def __init__(self, engine: Engine, period: float, budget: List[int]) -> None:
        self.engine = engine
        self.period = period
        self.budget = budget
        self.tick = self._tick

    def _tick(self) -> None:
        budget = self.budget
        if budget[0] > 0:
            budget[0] -= 1
            self.engine.schedule(self.period, self.tick)


def engine_events(depth: int, events: int) -> Measured:
    """``Engine.schedule`` + ``run`` dispatch with ``depth`` events pending."""
    engine = Engine()
    budget = [max(0, events - depth)]
    for i in range(depth):
        period = 0.5 + (i % 17) / 16.0
        engine.schedule(period * (i + 1) / depth, _Ticker(engine, period, budget).tick)
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0, float(engine.events_dispatched)


def process_steps(events: int) -> Measured:
    """Generator ``Process`` resumptions on ``Delay`` (the existing micro)."""
    t0 = time.perf_counter()
    stats = micro.bench_engine_events(num_events=events)
    return time.perf_counter() - t0, stats["events"]


def resource_services(jobs: int, workers: int = 16) -> Measured:
    """``Service`` commands on a contended two-server ``Resource``."""
    engine = Engine()
    resource = Resource(engine, capacity=2)

    def worker(count: int):
        for _ in range(count):
            yield Service(resource, 1.0)

    for _ in range(workers):
        engine.process(worker(max(1, jobs // workers)))
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0, float(resource.jobs_served)


def policy_choose(
    name: str,
    num_nodes: int,
    targets: Sequence[int],
    sizes_by_target: Sequence[int],
    window: int,
    node_cache_bytes: int,
    seed: int,
) -> Measured:
    """``choose``/``on_dispatch``/``on_complete`` over a request stream,
    completing the oldest request once ``window`` are in flight."""
    kwargs: Dict[str, Any] = {"seed": seed} if name.startswith("pod") else {}
    policy = make_policy(name, num_nodes, node_cache_bytes=node_cache_bytes, **kwargs)
    in_flight: Deque[Tuple[int, int, int]] = deque()
    now = 0.0
    t0 = time.perf_counter()
    for target in targets:
        size = sizes_by_target[target]
        node = policy.choose(target, size, now)
        policy.on_dispatch(node, target, size)
        in_flight.append((node, target, size))
        if len(in_flight) > window:
            policy.on_complete(*in_flight.popleft())
        now += 1e-4
    while in_flight:
        policy.on_complete(*in_flight.popleft())
    return time.perf_counter() - t0, float(len(targets))


def cache_accesses(
    kind: str, capacity_bytes: int, targets: Sequence[int], sizes_by_target: Sequence[int]
) -> Measured:
    """``access()`` replay of a request stream through one node cache."""
    cache = make_cache(kind, capacity_bytes)
    access = cache.access
    t0 = time.perf_counter()
    for target in targets:
        access(target, sizes_by_target[target])
    return time.perf_counter() - t0, float(len(targets))


def span_writes(path: Path, count: int) -> Measured:
    """``SpanWriter`` validating and writing ``count`` spans to ``path``."""
    span = Span(
        req=0, target="t17", size=4096, policy="lard/r", node=3,
        t_arrival=1.0, t_dispatch=1.001, t_complete=1.02, outcome="hit",
        load=[5] * 8, phases={"establish": 0.001, "cpu": 0.018, "teardown": 0.001},
    )
    with SpanWriter(path, source="sim") as writer:
        t0 = time.perf_counter()
        for req in range(count):
            span.req = req
            writer.write_span(span)
        elapsed = time.perf_counter() - t0
    return elapsed, float(count)


# -- profile attribution -----------------------------------------------------------


def _layer_of(filename: str) -> str:
    """``repro.<package>`` a profiled function belongs to, else ``""``."""
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return ""
    package = filename[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else ""


def layer_shares(stats: pstats.Stats) -> Dict[str, Tuple[float, int]]:
    """Self time and call count per layer from one profiled round.

    A function under ``repro/<layer>/`` owns its self time.  Built-ins
    and library functions (``heappush``, ``json``) have no layer of
    their own: their self time goes to the layers that called them, in
    proportion to the time spent under each caller, recursively.  Time
    that reaches no layer (the harness's own frames) is ``harness``.
    """
    table: Dict[Any, Any] = stats.stats  # type: ignore[attr-defined]
    owner: Dict[Any, Dict[str, float]] = {}

    def owners(func: Any, trail: Tuple[Any, ...]) -> Dict[str, float]:
        known = owner.get(func)
        if known is not None:
            return known
        layer = _layer_of(func[0])
        if layer:
            owner[func] = {layer: 1.0}
            return owner[func]
        callers = table[func][4] if func in table else {}
        weights = {c: v[2] if v[2] > 0 else 1e-12 for c, v in callers.items() if c not in trail}
        total = sum(weights.values())
        mix: Dict[str, float] = {}
        if not total:
            mix = {"harness": 1.0}
        for caller, weight in weights.items():
            for name, share in owners(caller, trail + (func,)).items():
                mix[name] = mix.get(name, 0.0) + share * weight / total
        if not trail:
            owner[func] = mix  # only cycle-free answers are memoized
        return mix

    self_s: Dict[str, float] = {name: 0.0 for name in LAYERS + ("harness",)}
    calls: Dict[str, int] = {name: 0 for name in LAYERS + ("harness",)}
    for func, (_cc, ncalls, tottime, _ct, _callers) in table.items():
        own = _layer_of(func[0])
        if own:
            calls[own] += ncalls
        for name, share in owners(func, ()).items():
            self_s[name] += tottime * share
    return {name: (self_s[name], calls[name]) for name in self_s}


# -- the traced pass ---------------------------------------------------------------


def layer_metrics(
    names: Sequence[str],
    ctx: Any,
    workload: Any,
    prepared: Any,
    traces: List[Any],
    specs: List[Tuple[str, Dict[str, Any]]],
    rounds: List[List[Any]],
    generations: List[float],
    run_round: Any,
) -> Dict[str, float]:
    """The traced pass: warm reference cells, layer micros, one profiled round."""
    rec, host, sizes, seed = ctx.rec, ctx.host, ctx.sizes, ctx.seed
    next_round = len(rounds) + 1
    with rec.span("layers", next_round):
        extra = run_round(prepared.refs + prepared.layer_cells, next_round)

        def micro_ns(span_name: str, fn: Any, *args: Any) -> Tuple[float, float]:
            """Median (normalized seconds, units of work) over the repeats."""
            samples = []
            for _ in range(MICRO_REPEATS):
                before = host.recent()
                with rec.span(span_name, next_round):
                    raw_s, units = fn(*args)
                samples.append((host.normalized(raw_s, before, host.recent()), units))
            samples.sort()
            return samples[len(samples) // 2]

        def timed(span_name: str, fn: Any, prepare: Any = None) -> float:
            samples = []
            for _ in range(MICRO_REPEATS):
                if prepare is not None:
                    prepare()
                before = host.recent()
                with rec.span(span_name, next_round) as span:
                    fn()
                samples.append(host.normalized(duration(span), before, host.recent()))
            return statistics.median(samples)

        metrics: Dict[str, float] = {name: 0.0 for name in names}

        # workload: cold generation (from set-up), warm memo load, list views
        loaded: List[Any] = []

        def load() -> None:
            loaded[:] = [cached_trace(kind, **params) for kind, params in specs]

        metrics["workload.gen_s"] = statistics.median(generations)
        metrics["workload.memo_load_s"] = timed("workload.cached_trace.warm", load)
        metrics["workload.request_lists_s"] = timed(
            "workload.request_lists", lambda: [t.request_lists() for t in loaded], prepare=load
        )

        # sim
        for label, depth in (("d500", 500), ("d50k", 50_000)):
            depth = min(depth, sizes.engine_events // 2)
            seconds, events = micro_ns(
                f"sim.engine.{label}", engine_events, depth, sizes.engine_events
            )
            metrics[f"sim.events_per_s.{label}"] = events / seconds
        seconds, steps = micro_ns("sim.process", process_steps, sizes.engine_events // 2)
        metrics["sim.process_step_ns"] = seconds / steps * 1e9
        seconds, jobs = micro_ns("sim.resource", resource_services, sizes.engine_events // 4)
        metrics["sim.resource_service_ns"] = seconds / jobs * 1e9

        # core and cache replay the workload's own request stream
        base = workload.base_config(seed, sizes)
        targets_all, sizes_by_target = traces[0].request_lists()
        stream = targets_all[: sizes.replay_requests]
        for policy, nodes, tag, share in (
            ("lard/r", 8, "n8", 1), ("wrr", 8, "n8", 1),
            ("wrr", sizes.scaleout_nodes, "n1024", 2),
            ("lard/r", sizes.scaleout_nodes, "n1024", 2),
            ("chash", sizes.scaleout_nodes, "n1024", 2),
            ("pod/lc", sizes.scaleout_nodes, "n1024", 2),
        ):
            replay = stream[: len(stream) // share]
            window = min(admission_limit(nodes), len(replay))
            seconds, requests = micro_ns(
                f"core.choose.{metric_label(policy)}.{tag}", policy_choose,
                policy, nodes, replay, sizes_by_target, window, base.node_cache_bytes, seed,
            )
            metrics[f"core.choose_ns.{metric_label(policy)}.{tag}"] = seconds / requests * 1e9
        for kind in ("gds", "lru"):
            seconds, requests = micro_ns(
                f"cache.access.{kind}", cache_accesses,
                kind, base.node_cache_bytes, targets_all, sizes_by_target,
            )
            metrics[f"cache.{kind}_access_ns"] = seconds / requests * 1e9
        seconds, spans = micro_ns(
            "obs.span_write", span_writes, ctx.workdir / "micro_spans.jsonl",
            max(500, sizes.replay_requests // 2),
        )
        metrics["obs.span_write_us"] = seconds / spans * 1e6

    # one profiled round: self time and calls per layer
    profiler = cProfile.Profile()
    profiled = run_round(prepared.cells, next_round + 1, profiler)
    shares = layer_shares(pstats.Stats(profiler))
    total = sum(self_s for self_s, _calls in shares.values()) or 1.0
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = shares[layer][0] / total
        metrics[f"{layer}.calls"] = float(shares[layer][1])

    # cell-level numbers from every warm, unprofiled run
    history: Dict[str, List[Any]] = {}
    for outcome in [o for outcomes in rounds for o in outcomes] + extra:
        if outcome.error is None:
            history.setdefault(outcome.cell, []).append(outcome)
    typical = {
        cell: (statistics.median(o.norm_s for o in runs), runs[-1])
        for cell, runs in history.items()
    }
    own = {c.name for c in prepared.cells + prepared.layer_cells}
    sims = [(norm_s, last) for norm_s, last in typical.values() if last.events is not None]
    by_label: Dict[str, List[Tuple[float, Any]]] = {}
    for norm_s, last in sims:
        by_label.setdefault(last.label, []).append((norm_s, last))
    for label, entries in by_label.items():
        key = f"cluster.us_per_req.{label}"
        if key in metrics:
            metrics[key] = (
                sum(n for n, _ in entries) / sum(o.requests for _, o in entries) * 1e6
            )
    own_sims = [last for _n, last in sims if last.cell in own]
    if own_sims:
        requests = sum(o.requests for o in own_sims)
        metrics["sim.events_per_req"] = sum(o.events for o in own_sims) / requests
        hits = sum(o.cache_hits for o in own_sims)
        misses = sum(o.cache_misses for o in own_sims)
        metrics["cache.sim_miss_ratio"] = misses / (hits + misses) if hits + misses else 0.0
    builds = [o.build_s for runs in history.values() for o in runs if o.events is not None]
    if builds:
        metrics["cluster.build_s"] = statistics.median(builds)

    round_s = [sum(o.norm_s for o in outcomes) for outcomes in rounds]
    plain = typical.get("plain")
    if plain is not None and "plain" not in own:  # offpath-8n: plain is the reference
        cells = [typical[c.name] for c in prepared.cells if c.name in typical]
        rate = sum(o.requests for _n, o in cells) / sum(n for n, _o in cells)
        metrics["cluster.offpath_ratio"] = rate / (plain[1].requests / plain[0])
    serial, pooled = typical.get("matrix.serial"), typical.get("matrix.pooled")
    if serial is not None and pooled is not None:
        direct_s = sum(n for n, o in sims if o.cell in own)
        grid = len(prepared.cells[0].spec.scenarios) * len(prepared.cells[0].spec.policies)
        metrics["analysis.pool_efficiency"] = serial[0] / (POOL_JOBS * pooled[0])
        metrics["analysis.overhead_s"] = serial[0] - direct_s
        metrics["analysis.cells_per_s"] = grid / serial[0]

    baseline = sum(typical[o.cell][0] for o in profiled if o.cell in typical)
    if baseline:
        metrics["harness.trace_overhead_ratio"] = (
            sum(o.norm_s for o in profiled if o.cell in typical) / baseline
        )
    metrics["harness.round_iqr_ratio"] = iqr_ratio(round_s)
    metrics["harness.calibration_ops_per_s"] = micro.calibration_score(1_000_000)
    return metrics
