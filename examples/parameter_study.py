#!/usr/bin/env python3
"""Parameter study: the sweep API, CSV export, and terminal charts.

Shows the open-ended research workflow the library supports beyond the
fixed paper reproductions: sweep any combination of cluster parameters
over a workload, export the flat result table to CSV for pandas/R, and
eyeball the shape immediately as an ASCII chart.

Here: how does the LARD/R-over-WRR throughput advantage depend on the
per-node cache size?  (The paper's thesis predicts the advantage is
largest when the working set dwarfs one node's cache and vanishes once a
single cache holds everything.)

Run:  python examples/parameter_study.py
"""

import tempfile
from pathlib import Path

from repro.analysis.chart import ascii_chart
from repro.analysis.sweep import sweep, write_csv
from repro.workload import synthesize_trace

NUM_NODES = 4
CACHE_SIZES = [2**i * 256 * 1024 for i in range(6)]  # 256 KB .. 8 MB


def main() -> None:
    trace = synthesize_trace(
        num_requests=50_000,
        num_targets=1_500,
        total_bytes=24 * 2**20,
        zipf_alpha=0.9,
        size_popularity_correlation=-0.5,
        burst_fraction=0.2,
        burst_focus=8,
        burst_window=12_000,
        seed=31,
        name="study",
    )
    print(f"workload: {trace.describe()}, cluster of {NUM_NODES} nodes\n")

    rows = sweep(
        trace,
        policy=["wrr", "lard/r"],
        num_nodes=NUM_NODES,
        node_cache_bytes=CACHE_SIZES,
    )
    csv_path = Path(tempfile.mkdtemp(prefix="lard-study-")) / "cache_sweep.csv"
    write_csv(rows, csv_path)
    print(f"raw results written to {csv_path}\n")

    by_policy = {}
    for row in rows:
        by_policy.setdefault(row["policy"], {})[row["node_cache_bytes"]] = row[
            "throughput_rps"
        ]
    x_mb = [size / 2**20 for size in CACHE_SIZES]
    series = {
        policy: [values[size] for size in CACHE_SIZES]
        for policy, values in by_policy.items()
    }
    print(ascii_chart(x_mb, series, width=56, height=14, x_label="MB cache/node",
                      y_label="req/s"))
    print()
    advantage = [
        series["lard/r"][i] / series["wrr"][i] for i in range(len(CACHE_SIZES))
    ]
    for size_mb, ratio in zip(x_mb, advantage):
        print(f"  cache {size_mb:5.2f} MB/node -> LARD/R advantage {ratio:4.2f}x")
    print(
        "\nThe advantage peaks while the working set exceeds one cache but fits "
        "the cluster's\naggregate, and shrinks once a single node can cache "
        "everything - the paper's thesis."
    )


if __name__ == "__main__":
    main()
