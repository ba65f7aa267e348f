"""Command-line interface: regenerate any paper figure/table.

Usage::

    lard-repro list
    lard-repro run fig7 [--scale quick|standard|full|smoke] [--jobs N]
    lard-repro run all --scale quick        # every simulated experiment
    lard-repro run sec6.2-l4                # a live one, by id
    lard-repro run fig7 --profile fig7.pstats
    lard-repro trace rice [--requests N] [--scale-factor F]   (rice/ibm only)
    lard-repro simulate --policy lard/r --nodes 8 [--trace rice] [...]
    lard-repro simulate --profile sim.pstats
    lard-repro simulate --spans out.jsonl [--sample-interval S]
    lard-repro spans out.jsonl
    lard-repro chaos [--policies lard,wrr] [--seed N] [--csv out.csv]
    lard-repro scaleout [--sizes 64,256,1024] [--policies chash,pod,...] [--csv out.csv]
    lard-repro matrix [--name dynamic] [--spec matrix.json] [--csv out.csv]
    lard-repro lint [paths...] [--list-rules]

(`python -m repro` is equivalent.)

``run all`` runs every experiment that simulates.  The live-prototype
ones (``sec6.2-handoff``, ``fig18``, ``sec6.2-l4``) drive real sockets,
read wall-clock rates and run only by id; ``list`` shows them all.

Operator errors (unknown experiment or policy names, missing files,
invalid fault-schedule configurations) exit with status 2 and a
one-line ``lard-repro: error: ...`` message rather than a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from .cluster import PAPER_NODE_CACHE_BYTES
from .cluster.simulator import _simulate
from .core import POLICY_NAMES, PolicyError
from .workload import locality_profile

if TYPE_CHECKING:
    from .analysis.matrix import MatrixSpec

__all__ = ["main", "build_parser"]

#: The paper's three stand-in traces (see repro.analysis.matrix.paper_scenario).
_TRACES = ("chess", "ibm", "rice")

#: ``sorted(repro.analysis.experiments.SCALES)``, spelled out so that
#: building the parser does not load the experiment registry (a test
#: holds the two equal).  Each verb imports what it runs.
_SCALE_NAMES = ("full", "quick", "smoke", "standard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lard-repro",
        description="Reproduce LARD (Pai et al., ASPLOS 1998) figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment", help="experiment id (see 'list') or 'all' (every simulated one)"
    )
    run.add_argument(
        "--scale",
        choices=_SCALE_NAMES,
        default="standard",
        help="experiment size (default: standard)",
    )
    run.add_argument(
        "--chart",
        action="store_true",
        help="also render numeric sweeps as ASCII charts",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="simulate independent experiment cells in up to N worker "
        "processes (0 = one per CPU; results are identical to --jobs 1)",
    )
    run.add_argument(
        "--profile",
        metavar="OUT.pstats",
        help="profile the experiment under cProfile and dump stats to this file",
    )

    trace = sub.add_parser("trace", help="describe a synthetic trace")
    trace.add_argument("kind", choices=_TRACES)
    trace.add_argument("--requests", type=int, default=200_000)
    trace.add_argument(
        "--scale-factor",
        type=float,
        help="catalog/data-set scale (rice/ibm only; default 0.25)",
    )

    sim = sub.add_parser("simulate", help="one cluster simulation run")
    sim.add_argument("--policy", choices=POLICY_NAMES, default="lard/r")
    sim.add_argument("--nodes", type=int, default=8)
    sim.add_argument("--trace", choices=_TRACES, default="rice")
    sim.add_argument("--requests", type=int, default=200_000)
    sim.add_argument("--scale-factor", type=float, default=0.25)
    sim.add_argument("--disks", type=int, default=1)
    sim.add_argument("--cache", choices=("gds", "lru", "lru-unbounded", "lfu"), default="gds")
    sim.add_argument("--cpu-speed", type=float, default=1.0)
    sim.add_argument(
        "--profile",
        metavar="OUT.pstats",
        help="profile the simulation under cProfile and dump stats to this file",
    )
    sim.add_argument(
        "--spans",
        metavar="OUT.jsonl",
        help="emit a per-request span log (repro.obs JSONL schema) to this file",
    )
    sim.add_argument(
        "--sample-interval",
        type=float,
        default=None,
        metavar="S",
        help="with --spans: also sample per-node load / miss ratio / queue "
        "depths every S simulated seconds",
    )

    spans = sub.add_parser(
        "spans",
        help="analyze a span log: where-time-went breakdown and delay distribution",
    )
    spans.add_argument("path", help="JSONL span log (from 'simulate --spans' or a live run)")

    chaos = sub.add_parser(
        "chaos",
        help="race policies across seeded fault scenarios and print a scorecard",
    )
    chaos.add_argument("--trace", choices=_TRACES, default="rice")
    chaos.add_argument("--requests", type=int, default=50_000)
    chaos.add_argument("--scale-factor", type=float, default=0.1)
    chaos.add_argument("--nodes", type=int, default=4)
    chaos.add_argument(
        "--policies",
        default=None,
        metavar="P1,P2,...",
        help="comma-separated policies to race (default: lard,lard/r,wrr,lb/gc)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault-schedule seed")

    scaleout = sub.add_parser(
        "scaleout",
        help="race the policy zoo across cluster sizes (default 64-1024 nodes)",
    )
    scaleout.add_argument("--trace", choices=_TRACES, default="rice")
    scaleout.add_argument("--requests", type=int, default=200_000)
    scaleout.add_argument("--scale-factor", type=float, default=0.25)
    scaleout.add_argument(
        "--sizes",
        default=None,
        metavar="N1,N2,...",
        help="comma-separated cluster sizes (default: 64,256,1024)",
    )
    scaleout.add_argument(
        "--policies",
        default=None,
        metavar="P1,P2,...",
        help="comma-separated policies to race "
        "(default: wrr,lard,lard/r,chash,pod,pod/lc)",
    )
    scaleout.add_argument(
        "--seed", type=int, default=0, help="seed for randomized policies (pod, pod/lc)"
    )
    scaleout.add_argument(
        "--pod-d", type=int, default=2, metavar="D", help="probes per request for pod/pod-lc"
    )
    scaleout.add_argument(
        "--pod-replication",
        type=int,
        default=3,
        metavar="R",
        help="replica locations per target for pod/lc",
    )

    matrix = sub.add_parser(
        "matrix",
        help="run a declarative workload matrix (dynamic scenarios x policies)",
    )
    matrix.add_argument(
        "--name",
        default="dynamic",
        metavar="MATRIX",
        help="built-in matrix to run (see repro.analysis.matrix."
        "BUILTIN_MATRICES; default: dynamic)",
    )
    matrix.add_argument(
        "--spec",
        metavar="SPEC.json",
        help="JSON matrix spec file (overrides --name)",
    )

    for campaign in (chaos, scaleout, matrix):
        campaign.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="run cells in up to N worker processes (0 = one per CPU; "
            "the scorecard is identical to --jobs 1)",
        )
        campaign.add_argument(
            "--csv", metavar="OUT.csv", help="also write the scorecard to this CSV file"
        )

    # The linter parses its own flags (``main`` hands it the rest of
    # the line): one declaration, and ``lint --help`` is its help.
    sub.add_parser(
        "lint",
        add_help=False,
        help="run lardlint (determinism/concurrency/hygiene static analysis); "
        "flags as for python -m repro.lint",
    )
    return parser


def _make_trace(kind: str, requests: int, scale_factor: float):
    from .analysis.matrix import paper_scenario

    return paper_scenario(kind, requests, scale_factor).build_trace()


def _resolve_jobs(jobs: int) -> int:
    """``--jobs``: 0 means one worker per CPU; a negative count is an error."""
    if jobs < 0:
        raise ValueError(f"--jobs must be >= 0 (0 = one per CPU), got {jobs}")
    from .analysis.parallel import default_jobs

    return jobs or default_jobs()


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")
    return value


def _policies(text: Optional[str], default: Sequence[str]) -> Tuple[str, ...]:
    """``--policies``; the spec rejects unknown and repeated names."""
    if text is None:
        return tuple(default)
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _cmd_list() -> int:
    from .analysis.experiments import EXPERIMENTS

    for entry in EXPERIMENTS.values():
        print(f"{entry.experiment_id:16s} {entry.summary}")
    return 0


def _check_sink(path: str) -> None:
    """Before any trace is generated: an output file that cannot be
    opened.  Append mode, so what is already there survives a run that
    then fails; the writer truncates it."""
    Path(path).open("a").close()


def _cmd_run(
    experiment: str,
    scale_name: str,
    chart: bool = False,
    jobs: int = 1,
    profile: Optional[str] = None,
) -> int:
    from .analysis.chart import experiment_chart
    from .analysis.experiments import SCALES, SIMULATED, run_experiment

    profiler = None
    if profile:
        if jobs != 1:
            # The flag as typed (0 is one worker per CPU): every
            # simulation of an experiment runs in a pool worker.
            raise ValueError(
                f"--profile needs --jobs 1 (got {jobs}): worker processes are not profiled"
            )
        _check_sink(profile)
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    jobs = _resolve_jobs(jobs)
    scale = SCALES[scale_name]
    ids = SIMULATED if experiment == "all" else (experiment,)
    failed = False
    try:
        for experiment_id in ids:
            result = run_experiment(experiment_id, scale, jobs=jobs)
            print(result.render())
            if chart:
                rendered = experiment_chart(result)
                if rendered:
                    print(rendered)
            print()
            failed = failed or bool(result.failures)
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(profile)
            print(f"profile written to {profile} (inspect with: python -m pstats {profile})")
    return 1 if failed else 0


def _cmd_trace(kind: str, requests: int, scale_factor: Optional[float]) -> int:
    if scale_factor is None:
        scale_factor = 0.25
    elif kind == "chess":
        # Before the trace is built: the factor would be a silent no-op.
        raise ValueError("--scale-factor applies to rice and ibm: the chess catalog is fixed")
    trace = _make_trace(kind, requests, scale_factor)
    print(trace.describe())
    print(f"distinct targets requested: {trace.num_distinct_requested}")
    print(f"mean file size: {trace.mean_file_bytes / 1024:.1f} KB")
    print(f"mean transfer size: {trace.mean_transfer_bytes / 1024:.1f} KB")
    profile = locality_profile(trace)
    for fraction, mb in profile.items():
        print(f"memory to cover {fraction:.0%} of requests: {mb:.0f} MB")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .cluster import CostModel

    if args.sample_interval is not None and not args.spans:
        # Before the trace is generated: the flag would be a silent no-op.
        raise ValueError("--sample-interval needs --spans (samples go to the span log)")
    if args.spans:
        # Also before the trace is generated (seconds at the default
        # size): a sink that cannot be opened, an interval the tracer
        # refuses.  The run opens the log again.
        from .obs import SimTracer, SpanWriter

        with SpanWriter(args.spans, source="sim") as writer:
            SimTracer(writer, sample_interval_s=args.sample_interval)
    # Before the trace is generated too: a speed the cost model refuses,
    # a profile that cannot be written.
    costs = CostModel(cpu_speed=args.cpu_speed)
    if args.profile:
        _check_sink(args.profile)
    trace = _make_trace(args.trace, args.requests, args.scale_factor)
    simulator, result = _simulate(
        trace,
        policy=args.policy,
        num_nodes=args.nodes,
        node_cache_bytes=int(PAPER_NODE_CACHE_BYTES * args.scale_factor),
        disks_per_node=args.disks,
        cache_policy=args.cache,
        costs=costs,
        profile=args.profile,
        trace_out=args.spans,
        sample_interval_s=args.sample_interval,
    )
    print(result.summary())
    print(_core_line(simulator))
    if args.profile:
        print(f"profile written to {args.profile} (inspect with: python -m pstats {args.profile})")
    if args.spans:
        print(f"span log written to {args.spans} (analyze with: lard-repro spans {args.spans})")
    print(
        f"disk reads: {result.disk_reads} (+{result.coalesced_reads} coalesced); "
        f"cpu busy {result.cpu_busy_fraction:.0%}, disk busy {result.disk_busy_fraction:.0%}"
    )
    return 0


def _core_line(simulator: Any) -> str:
    """Which lifecycle and which engine the run took, and why not the
    compiled ones: two lines."""
    from .sim import native

    if simulator.core == "native":
        core = "core: native"
    else:
        core = f"core: python ({simulator.core_reason})"
    if simulator.engine_kind == "native":
        built = native.last_build_s()
        first_use = "" if built is None else f" (compiled on first use in {built:.1f} s)"
        return f"{core}\nengine: native{first_use}"
    return f"{core}\nengine: python ({simulator.engine_reason})"


def _cmd_spans(path: str) -> int:
    from .obs import format_report, read_span_log

    print(format_report(read_span_log(path)))
    return 0


def _cmd_campaign(spec: MatrixSpec, header: str, args: argparse.Namespace) -> int:
    """What ``chaos``, ``scaleout`` and ``matrix`` share once each has
    mapped its flags to a spec: run it, print the scorecard, write it."""
    from .analysis.matrix import run_matrix
    from .analysis.report import format_table
    from .analysis.sweep import write_csv

    jobs = _resolve_jobs(args.jobs)
    if args.csv:
        # A default scaleout is minutes; write_csv makes the directory too.
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        _check_sink(args.csv)
    rows = run_matrix(spec, jobs=jobs)
    card = spec.scorecard
    print(header)
    print(
        format_table(
            card.columns,
            [
                [
                    round(row[c], card.digits[c]) if c in card.digits else row[c]
                    for c in card.columns
                ]
                for row in rows
            ],
        )
    )
    if args.csv:
        path = write_csv(rows, args.csv, columns=card.columns)
        print(f"scorecard written to {path}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .analysis.chaos import DEFAULT_CHAOS_POLICIES, chaos_spec
    from .analysis.matrix import paper_scenario

    spec = chaos_spec(
        paper_scenario(
            args.trace, _at_least_one("--requests", args.requests), args.scale_factor
        ),
        num_nodes=_at_least_one("--nodes", args.nodes),
        node_cache_bytes=int(PAPER_NODE_CACHE_BYTES * args.scale_factor),
        policies=_policies(args.policies, DEFAULT_CHAOS_POLICIES),
        seed=args.seed,
    )
    header = (
        f"chaos campaign: trace={args.trace} requests={args.requests} "
        f"nodes={args.nodes} seed={args.seed}"
    )
    return _cmd_campaign(spec, header, args)


def _cmd_scaleout(args: argparse.Namespace) -> int:
    from .analysis.matrix import MatrixSpec, paper_scenario
    from .analysis.scaleout import (
        DEFAULT_SCALEOUT_POLICIES,
        DEFAULT_SCALEOUT_SIZES,
        SCALEOUT_SCORECARD,
    )

    if args.sizes is None:
        sizes = DEFAULT_SCALEOUT_SIZES
    else:
        try:
            sizes = tuple(int(s.strip()) for s in args.sizes.split(",") if s.strip())
        except ValueError:
            raise ValueError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError(f"--sizes must name positive cluster sizes, got {args.sizes!r}")
    spec = MatrixSpec(
        name="scaleout",
        scenarios=(
            paper_scenario(
                args.trace, _at_least_one("--requests", args.requests), args.scale_factor
            ),
        ),
        policies=_policies(args.policies, DEFAULT_SCALEOUT_POLICIES),
        num_nodes=sizes,
        node_cache_bytes=int(PAPER_NODE_CACHE_BYTES * args.scale_factor),
        policy_seed=args.seed,
        pod_d=args.pod_d,
        pod_replication=args.pod_replication,
        scorecard=SCALEOUT_SCORECARD,
    )
    header = (
        f"scale-out sweep: trace={args.trace} requests={args.requests} "
        f"sizes={','.join(str(n) for n in sizes)} seed={args.seed}"
    )
    return _cmd_campaign(spec, header, args)


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .analysis.matrix import builtin_matrix, matrix_from_dict

    if args.spec is not None:
        import json

        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = matrix_from_dict(json.load(handle))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.spec}: not valid JSON: {exc}") from exc
    else:
        spec = builtin_matrix(args.name)
    header = (
        f"workload matrix: {spec.name} "
        f"({len(spec.scenarios)} scenarios x {len(spec.policies)} policies, "
        f"{spec.num_nodes} nodes)"
    )
    return _cmd_campaign(spec, header, args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment,
            args.scale,
            chart=args.chart,
            jobs=args.jobs,
            profile=args.profile,
        )
    if args.command == "trace":
        return _cmd_trace(args.kind, args.requests, args.scale_factor)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "spans":
        return _cmd_spans(args.path)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "scaleout":
        return _cmd_scaleout(args)
    if args.command == "matrix":
        return _cmd_matrix(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from .lint import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early - not an error.
        import os

        try:
            sys.stdout.close()
        except OSError:
            pass
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0
    except (ValueError, KeyError, OSError, PolicyError) as exc:
        # Operator errors (unknown policy/experiment, missing trace or
        # span file, invalid fault schedule): one line on stderr, exit 2.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"lard-repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
