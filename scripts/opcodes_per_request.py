#!/usr/bin/env python3
"""Bytecodes the interpreter executes per simulated request, by function.

Wall-clock on a shared host drifts by several percent between two runs
of the same tree; this count does not move at all.  It replays the
first 12 000 requests of the ledger's ``ref-8n`` configuration
(``benchmarks/perf/micro.py``, seed 42) under ``sys.settrace`` with
per-opcode events and prints how many bytecodes each function executed
per request.  Time inside C (``heapq``, dict and list methods) is not
counted: compare two trees with it, do not read it as a duration.
Above ``--max``, the CI ceiling, the exit status is 1.

    PYTHONPATH=src python scripts/opcodes_per_request.py --max 990
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path
from typing import Any, Counter

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]

from perf import micro  # noqa: E402
from repro.cluster.simulator import ClusterConfig, ClusterSimulator  # noqa: E402
from repro.workload.synthetic import rice_like_trace  # noqa: E402


def count_opcodes(run: Any) -> Counter[Any]:
    """Bytecodes executed by each code object while ``run()`` runs."""
    counts: Counter[Any] = collections.Counter()

    def on_opcode(frame: Any, event: str, arg: Any) -> Any:
        if event == "opcode":
            counts[frame.f_code] += 1
        return on_opcode

    def on_call(frame: Any, event: str, arg: Any) -> Any:
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return on_opcode

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


REQUESTS, SEED = 12_000, 42


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max", type=float, default=None, help="exit 1 above this total")
    ceiling = parser.parse_args().max
    trace = rice_like_trace(seed=SEED, **micro.E2E_TRACE_PARAMS).head(REQUESTS)
    config = ClusterConfig(**micro.E2E_SIM_PARAMS, policy_seed=SEED)
    counts = count_opcodes(ClusterSimulator(trace, config).run)
    by_function: Counter[str] = collections.Counter()
    for code, count in counts.items():
        by_function[f"{code.co_qualname} ({Path(code.co_filename).name})"] += count
    total = sum(by_function.values()) / REQUESTS
    print(f"{'bytecodes/request':>17}  function   [{REQUESTS} requests, seed {SEED}]")
    for name, count in by_function.most_common():
        if count >= REQUESTS:  # at least one bytecode per request
            print(f"{count / REQUESTS:17.1f}  {name}")
    print(f"{total:17.1f}  total")
    if ceiling is not None and total > ceiling:
        print(f"FAIL: {total:.1f} bytecodes per request is above --max {ceiling:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
