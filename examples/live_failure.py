#!/usr/bin/env python3
"""Kill a live back-end mid-load and watch the cluster recover.

The live-socket analogue of the simulator's ``ext-failure`` experiment
(paper Section 2.6): run a LARD/R hand-off cluster on loopback, then use
the chaos harness to crash one of the back-ends in the middle of a load
phase and bring it back for the next one.  Three phases are measured:

* **before** — all back-ends up (baseline throughput);
* **during** — one back-end crashed mid-phase: its LARD mappings are
  dropped "as if they had not been assigned before", in-flight and queued
  connections fail over to survivors, clients retry severed responses;
* **after** — the node rejoined *cold*; throughput recovers.

Every client request in every phase receives an HTTP response; the final
table shows throughput per phase plus the failover/orphan accounting.

Run:  python examples/live_failure.py
"""

import tempfile

from repro.handoff import DocumentStore, FaultInjector, HandoffCluster, LoadGenerator
from repro.workload import synthesize_trace

NUM_BACKENDS = 4
VICTIM = 1
CACHE_BYTES = 256 * 1024  # per back-end
MISS_PENALTY_S = 0.005  # the 1998 disk stand-in
REQUESTS_PER_PHASE = 1000


def run_phase(cluster, urls, label):
    generator = LoadGenerator(
        cluster.address,
        urls,
        concurrency=12,
        verify=cluster.verify,
        retry_errors=5,
    )
    result = generator.run(REQUESTS_PER_PHASE)
    cluster.wait_idle()
    print(
        f"{label:8s} {result.throughput_rps:8.0f} req/s  "
        f"answered {result.answered}/{REQUESTS_PER_PHASE}  "
        f"errors {result.errors}  rejected {result.rejected}  "
        f"client retries {result.retries}"
    )
    return result


def main() -> None:
    trace = synthesize_trace(
        num_requests=REQUESTS_PER_PHASE,
        num_targets=300,
        total_bytes=int(NUM_BACKENDS * CACHE_BYTES * 0.8),
        zipf_alpha=0.9,
        size_popularity_correlation=-0.4,
        seed=9,
        name="live-failure",
    )
    root = tempfile.mkdtemp(prefix="lard-docroot-")
    store, urls = DocumentStore.from_trace(root, trace)
    print(f"docroot: {len(store)} documents, {store.total_bytes / 2**20:.1f} MB")
    print(
        f"cluster: {NUM_BACKENDS} back-ends x {CACHE_BYTES / 1024:.0f} KB cache, "
        f"lard/r, killing back-end {VICTIM} mid-phase\n"
    )

    with HandoffCluster(
        store,
        num_backends=NUM_BACKENDS,
        policy="lard/r",
        cache_bytes=CACHE_BYTES,
        miss_penalty_s=MISS_PENALTY_S,
        health_interval_s=0.05,
    ) as cluster, FaultInjector(cluster) as chaos:
        before = run_phase(cluster, urls, "before")

        # Crash the victim a moment into the phase; queued connections are
        # reclaimed by the front-end, live ones are severed (clients retry).
        chaos.at(0.10, chaos.kill, VICTIM)
        during = run_phase(cluster, urls, "during")
        chaos.join(timeout_s=5)
        if cluster.dispatcher.is_alive(VICTIM):
            raise RuntimeError(f"node {VICTIM} is still alive after the kill")

        chaos.revive(VICTIM)
        after = run_phase(cluster, urls, "after")

        stats = cluster.stats()
        print(
            f"\nfailovers {stats.failovers}  orphaned {stats.orphaned}  "
            f"reclaimed {stats.frontend.reclaimed}  "
            f"hand-off failures {stats.frontend.handoff_failures}  "
            f"heartbeat marks down/up "
            f"{stats.health.marks_down}/{stats.health.marks_up}"
        )
        print(f"alive: {stats.alive}  loads: {stats.loads}")
        recovery = after.throughput_rps / before.throughput_rps if before.throughput_rps else 0
        print(
            f"\nrecovery: post-rejoin throughput is {recovery:.0%} of the "
            "pre-failure baseline;\nevery request in every phase got an HTTP "
            "response - no hangs, no leaked slots."
        )


if __name__ == "__main__":
    main()
