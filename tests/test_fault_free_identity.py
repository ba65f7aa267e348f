"""Fault-free byte identity: the fault-model subsystem must not change
any result a pre-fault-model checkout produced.

``tests/golden/fault_free_sweep.csv`` was generated (with the recipe
below, verbatim) *before* the fault model landed.  The front-end's
admission path now carries a ``faults`` attribute check, the simulator
config carries a ``fault_schedule`` field, and the metrics dataclass
grew degraded-mode fields — none of which may perturb a single float in
a fault-free run.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.sweep import sweep, write_csv
from repro.workload.synthetic import synthesize_trace

GOLDEN = Path(__file__).parent / "golden" / "fault_free_sweep.csv"
#: The same sweep at four requests per connection, ``sticky`` and
#: ``rehandoff``, recorded on 3bf1082 — the last commit on which the
#: generator lifecycle served persistent connections.
GOLDEN_PERSISTENT = Path(__file__).parent / "golden" / "persistent_sweep.csv"


def test_fault_free_sweep_is_byte_identical_to_golden(tmp_path):
    trace = synthesize_trace(
        6000, 800, 12 * 2**20, 0.9, size_popularity_correlation=-0.5, seed=3
    )
    rows = sweep(
        trace,
        policy=["wrr", "lb/gc", "lard", "lard/r"],
        num_nodes=[2, 4],
        node_cache_bytes=2**20,
    )
    out = write_csv(rows, tmp_path / "fault_free_sweep.csv")
    assert out.read_bytes() == GOLDEN.read_bytes(), (
        "fault-free sweep output drifted from the pre-fault-model golden "
        "CSV — the fault subsystem leaked into the fault-free hot path"
    )


def test_persistent_sweep_is_byte_identical_to_golden(tmp_path):
    trace = synthesize_trace(
        6000, 800, 12 * 2**20, 0.9, size_popularity_correlation=-0.5, seed=3
    )
    rows = sweep(
        trace,
        policy=["wrr", "lb/gc", "lard", "lard/r"],
        num_nodes=[2, 4],
        node_cache_bytes=2**20,
        requests_per_connection=4,
        persistent_policy=["sticky", "rehandoff"],
    )
    out = write_csv(rows, tmp_path / "persistent_sweep.csv")
    assert out.read_bytes() == GOLDEN_PERSISTENT.read_bytes(), (
        "persistent-connection sweep drifted from the CSV the generator "
        "lifecycle produced"
    )
