#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every figure/table.

Runs every registered experiment, in registry order, at the given scale
(default: standard) and writes the rendered results as a markdown
record.  That includes the three live-prototype experiments
(``sec6.2-handoff``, ``fig18``, ``sec6.2-l4``), which ignore the scale
and read wall-clock rates off loopback sockets.  This is the script that
produced the committed EXPERIMENTS.md.

Usage: python scripts/generate_experiments_md.py [smoke|quick|standard|full]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.analysis.experiments import EXPERIMENTS, SCALES, run_experiment


def main() -> int:
    scale_name = sys.argv[1] if len(sys.argv) > 1 else "standard"
    scale = SCALES[scale_name]
    started = time.time()
    sections = [
        "# EXPERIMENTS — paper vs measured\n",
        f"Generated by `scripts/generate_experiments_md.py {scale_name}` "
        f"(scale: catalog×{scale.trace_scale}, {scale.num_requests:,} requests, "
        f"{scale.node_cache_bytes / 2**20:.0f} MB node caches, cluster sizes "
        f"{scale.cluster_sizes}).\n",
        "Absolute numbers are not comparable to the paper's 1998 testbed — "
        "the traces are synthetic stand-ins matched to published statistics "
        "and the substrate is a simulator, or for the three Section 6 "
        "results a user-space prototype over loopback (see DESIGN.md).  Each section "
        "lists the paper's qualitative expectation and the checks verified "
        "against the measured data; `[x]` = holds, `[ ]` = does not.\n",
    ]
    for experiment_id, entry in EXPERIMENTS.items():
        print(f"running {experiment_id} ...", flush=True)
        result = run_experiment(experiment_id, scale)
        sections.append(
            f"## {experiment_id} — {result.title} ({result.paper_reference})\n\n"
            f"_{entry.summary}_\n\n"
            "```\n" + "\n".join(result.render().splitlines()[1:]) + "\n```\n"
        )
    sections.append(
        f"\n---\nTotal generation time: {time.time() - started:.0f} s.\n"
    )
    Path("EXPERIMENTS.md").write_text("\n".join(sections))
    print(f"wrote EXPERIMENTS.md in {time.time() - started:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
