#!/usr/bin/env python3
"""The layered performance ledger: four workloads, end to end and per layer.

One workload, as ``BENCHMARK.json`` runs it (the last line printed is the
result object)::

    python3 benchmarks/perf/ledger/ledger.py --workload ref-8n --seed 42 \\
        --seconds 20 --trace 0

The whole suite — every workload untraced, then traced, each in a fresh
subprocess — with every metric printed by name and unit::

    python3 benchmarks/perf/ledger/ledger.py [--seed N] [--out FILE] [--smoke]
    python3 benchmarks/perf/ledger/ledger.py --compare A.json B.json
    python3 benchmarks/perf/ledger/ledger.py --self-check

End-to-end numbers come from untraced runs only.  ``--trace 1`` is a
separate pass that times calls into each layer's public functions and
profiles one round; see ``README.md`` beside this file for every metric.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
for _entry in (HERE, ROOT / "benchmarks", ROOT / "src"):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from ledger_probe import HostSpeed, iqr_ratio  # noqa: E402  (standard library only)

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Timed rounds a run makes even when ``--seconds`` is already spent
#: (untraced, traced).
MIN_ROUNDS = (3, 2)
#: Share of ``--seconds`` the traced pass spends on plain rounds before
#: its layer measurements and its profiled round.
TRACED_ROUND_SHARE = 0.3

def contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one copy of names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- one workload, in this process ---------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    t0: Optional[float] = None,
) -> Dict[str, Any]:
    """Set up, warm, and time one workload; returns its full record."""
    host = HostSpeed()
    startup_s = 0.0 if t0 is None else time.perf_counter() - t0
    before = host.sample()
    with_imports = time.perf_counter()
    import ledger_workloads as lw
    from repro.cluster import ClusterSimulator
    from repro.workload import cached_trace

    startup_s += time.perf_counter() - with_imports
    imports_s = host.normalized(startup_s, before, host.sample())
    workload = lw.WORKLOADS[name]
    sizes = lw.SMOKE if smoke else lw.FULL
    rec, oracle = lw.SpanRecorder(name), lw.Oracle()

    scratch = ROOT / ".ledger_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    saved_cache = os.environ.get("REPRO_TRACE_CACHE")
    try:
        # Set-up: cold trace generation into an empty cache plus the first
        # cluster build, repeated; imports are paid once per process.
        specs = workload.trace_specs(seed, sizes)
        setups: List[float] = []
        generations: List[float] = []
        traces: List[Any] = []
        for repeat in range(SETUP_REPEATS):
            os.environ["REPRO_TRACE_CACHE"] = str(workdir / f"traces{repeat}")
            before = host.recent()
            with rec.span("setup") as setup:
                with rec.span("workload.cached_trace.cold") as generation:
                    traces = [cached_trace(kind, **params) for kind, params in specs]
                with rec.span("cluster.build"):
                    ClusterSimulator(traces[0], workload.base_config(seed, sizes))
            after = host.recent()
            setups.append(host.normalized(lw.duration(setup), before, after))
            generations.append(host.normalized(lw.duration(generation), before, after))
        setup_s = imports_s + statistics.median(setups)

        ctx = lw.Context(seed, sizes, workdir, rec, host, oracle)
        with rec.span("prepare", 0):
            prepared = workload.prepare(ctx, traces)

        def run_round(cells: List[Any], round_no: int, profiler: Any = None) -> List[Any]:
            outcomes = []
            with rec.span("round", round_no):
                for cell in cells:
                    outcome = cell.run(rec, host, round_no, profiler)
                    oracle.judge(outcome, round_no, cell.same_as)
                    outcomes.append(outcome)
            return outcomes

        run_round(prepared.cells, 0)  # warm-up: caches fill, lazy set-up finishes
        rounds: List[List[Any]] = []
        deadline = time.perf_counter() + seconds * (TRACED_ROUND_SHARE if trace else 1.0)
        while len(rounds) < MIN_ROUNDS[trace] or time.perf_counter() < deadline:
            rounds.append(run_round(prepared.cells, len(rounds) + 1))

        good = [[o for o in outcomes if o.error is None] for outcomes in rounds]
        rates = [
            sum(o.requests for o in outcomes) / sum(o.norm_s for o in outcomes)
            for outcomes in good
            if outcomes
        ]
        raw_rates = [
            sum(o.requests for o in outcomes) / sum(o.raw_s for o in outcomes)
            for outcomes in good
            if outcomes
        ]
        record: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "traced": trace,
            "rounds": len(rounds),
            "round_req_per_s": rates,
            "round_req_per_s_raw": raw_rates,
            "req_per_s_raw": statistics.median(raw_rates) if raw_rates else 0.0,
        }
        if trace:
            import ledger_layers

            record["metrics"] = ledger_layers.layer_metrics(
                per_layer_names(), ctx, workload, prepared, traces, specs, rounds,
                generations, run_round,
            )
        else:
            usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            record["metrics"] = {
                "req_per_s": statistics.median(rates) if rates else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": (usage + children) / 1024.0,
            }
        record.update(
            attempted=oracle.attempted,
            failed=oracle.failed,
            fail_ratio=oracle.failed / oracle.attempted,
            failures=oracle.failures,
            sim_digest=oracle.sim_digest(),
            host_speed=statistics.median(host.samples),
            spans=rec.spans,
        )
        return record
    finally:
        if saved_cache is None:
            os.environ.pop("REPRO_TRACE_CACHE", None)
        else:
            os.environ["REPRO_TRACE_CACHE"] = saved_cache
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass


def per_layer_names() -> List[str]:
    return [m["name"] for m in contract()["per_layer"]]


def units() -> Dict[str, str]:
    spec = contract()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_line(record: Dict[str, Any]) -> str:
    """The result object ``BENCHMARK.json``'s driver reads off the last line."""
    unit_of = units()
    return json.dumps(
        {
            "correct": record["failed"] == 0 and bool(record["round_req_per_s"]),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": unit_of[name]}
                for name, value in record["metrics"].items()
            },
        }
    )


def print_record(record: Dict[str, Any]) -> None:
    unit_of = units()
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']} ({mode}, seed {record['seed']}, {record['rounds']} rounds)")
    for name, value in record["metrics"].items():
        print(f"{name:38s} {value:16.6g} {unit_of[name]}")
    print(f"{'fail_ratio':38s} {record['fail_ratio']:16.6g} ratio "
          f"({record['failed']} of {record['attempted']} cell runs)")
    print(f"{'sim_digest':38s} {record['sim_digest'][:16]}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


# -- the suite: every workload in a fresh subprocess ------------------------------------


def stamp() -> Dict[str, Any]:
    """What was measured, and on what: revision + dirty flag, host, speed."""

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    from perf import micro

    status = git("status", "--porcelain")
    return {
        "git_rev": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "calibration_ops_per_s": micro.calibration_score(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_suite(
    workloads: Sequence[str], seed: int, seconds: float, smoke: bool, traced: bool = True
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Run each workload untraced, then traced, each in its own subprocess;
    returns the suite record and the traced runs' spans."""
    suite: Dict[str, Any] = {
        "stamp": stamp(), "seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {},
    }
    spans: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="ledger-suite-") as tmp:
        for name in workloads:
            entry = suite["workloads"][name] = {}
            for trace in (0, 1) if traced else (0,):
                out = Path(tmp) / f"{name}-{trace}" / "record.json"
                out.parent.mkdir()
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--out", str(out),
                ] + (["--smoke"] if smoke else [])
                done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    raise SystemExit(f"{name} --trace {trace} exited {done.returncode}")
                record = json.loads(out.read_text(encoding="utf-8"))
                print_record(record)
                entry["traced" if trace else "untraced"] = record
                if trace:
                    with open(out.with_name("spans.jsonl"), encoding="utf-8") as source:
                        spans.extend(json.loads(line) for line in source)
    return suite, spans


def write_result(result: Dict[str, Any], spans: List[Dict[str, Any]], out: Path) -> None:
    """``out`` gets the numbers; ``spans.jsonl`` beside it a traced run's spans."""
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if spans:
        with open(out.with_name("spans.jsonl"), "w", encoding="utf-8") as sink:
            for span in spans:
                sink.write(json.dumps(span) + "\n")


# -- comparing two result files ----------------------------------------------------------


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric: medians, ratio, verdict."""
    rows = []
    gates = {m["name"]: m for m in contract()["end_to_end"]}
    for name, entry in base["workloads"].items():
        if name not in other["workloads"]:
            continue
        a, b = entry["untraced"], other["workloads"][name]["untraced"]
        spread = max(iqr_ratio(a["round_req_per_s"]), iqr_ratio(b["round_req_per_s"]))
        for metric, gate in gates.items():
            va, vb = a["metrics"][metric], b["metrics"][metric]
            bound = gate["bound"]
            worse = (va - vb if gate["better"] == "higher" else vb - va) / va
            if metric == "setup_s":  # sub-50 ms shifts of a short set-up are noise
                bound = max(bound, 0.05 / va)
            if metric == "req_per_s" and spread > bound:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > bound else "better" if worse < -bound else "same"
            rows.append(dict(
                workload=name, metric=metric, unit=gate["unit"], base=va, other=vb,
                ratio=vb / va, bound=bound, verdict=verdict,
            ))
        fa, fb = a["fail_ratio"], b["fail_ratio"]
        rows.append(dict(
            workload=name, metric="fail_ratio", unit="ratio", base=fa, other=fb,
            ratio=None, bound=0.0,
            verdict="worse" if fb > fa else "better" if fb < fa else "same",
        ))
    return rows


def print_comparison(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':16s} {'metric':12s} {'base':>12s} {'other':>12s} "
          f"{'other/base':>10s} {'bound':>6s}  verdict")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['workload']:16s} {row['metric']:12s} {row['base']:12.5g} "
              f"{row['other']:12.5g} {ratio:>10s} {row['bound']:6.2f}  {row['verdict']}")


# -- command line --------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics) of --workload")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--out", type=Path, help="write the full record(s) here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--self-check", action="store_true",
                        help="run the suite twice; fail if it disagrees with itself")
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        rows = compare(first, second)
        print_comparison(rows)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(names)})")
        record = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke, t0=_PROCESS_T0
        )
        spans = record.pop("spans")
        if args.out is not None:
            write_result(record, spans if args.trace else [], args.out)
        print_record(record)
        print(result_line(record))
        return 0

    if args.self_check:
        first, _ = run_suite(names, args.seed, seconds, args.smoke, traced=False)
        second, _ = run_suite(names, args.seed, seconds, args.smoke, traced=False)
        rows = compare(first, second)
        print_comparison(rows)
        disagree = [row for row in rows if row["verdict"] != "same"]
        return 1 if disagree else 0

    suite, spans = run_suite(names, args.seed, seconds, args.smoke)
    if args.out is not None:
        write_result(suite, spans, args.out)
    failed = sum(
        record["failed"] for entry in suite["workloads"].values() for record in entry.values()
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
