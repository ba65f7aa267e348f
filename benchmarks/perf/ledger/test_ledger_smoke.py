"""Smoke tests for the performance ledger (`pytest benchmarks/perf`).

Every workload and its traced pass run at ``--smoke`` size (a few
thousand requests, 64 nodes standing in for 1024); the tests assert the
contract's shape — every metric present with a unit, no failed cell,
well-formed spans — never a speed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

import ledger
import ledger_workloads as lw
from ledger_probe import HostSpeed

CONTRACT = ledger.contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SEED = 7


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return ledger.run_workload(request.param, SEED, 0.2, trace=True, smoke=True)


def test_benchmark_json_names_the_ledgers_workloads():
    assert WORKLOADS == list(lw.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/perf/ledger"]
    assert [m["name"] for m in CONTRACT["end_to_end"]] == ["req_per_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    record = ledger.run_workload(name, SEED, 0.2, trace=False, smoke=True)
    line = json.loads(ledger.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 4
    assert record["fail_ratio"] == 0 and len(record["sim_digest"]) == 64
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for metric in CONTRACT["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_traced_run_reports_every_per_layer_metric(traced):
    line = json.loads(ledger.result_line(traced))
    assert line["failed"] == 0, traced["failures"]
    assert list(line["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    for metric in CONTRACT["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: got["value"] for name, got in line["metrics"].items()}
    always = [n for n in values if n.split(".")[0] in ("workload", "sim", "core", "harness")]
    always += ["cache.gds_access_ns", "cache.lru_access_ns", "cluster.build_s", "obs.span_write_us"]
    assert all(values[name] > 0 for name in always), values


def test_layer_shares_sum_to_one_and_name_the_layers_that_ran(traced):
    metrics = traced["metrics"]
    shares = {layer: metrics[f"{layer}.self_share"] for layer in
              ("sim", "core", "cache", "cluster", "obs", "analysis", "workload")}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.02)
    assert shares["cluster"] > 0.1 and shares["sim"] > 0.1
    assert (shares["obs"] > 0) == (traced["workload"] == "offpath-8n")
    assert (metrics["analysis.calls"] > 0) == (traced["workload"] == "matrix-dynamic")
    assert metrics["harness.trace_overhead_ratio"] > 1.0


def test_workload_specific_cells_are_measured(traced):
    cells = {
        "ref-8n": ["plain"],
        "offpath-8n": ["plain", "traced", "sanitized", "faulty", "persistent"],
        "scaleout-1024n": ["wrr", "lard-r", "chash", "pod-lc"],
        "matrix-dynamic": ["wrr", "lard-r", "chash", "pod-lc"],
    }[traced["workload"]]
    metrics = traced["metrics"]
    measured = {n.rsplit(".", 1)[1] for n, v in metrics.items()
                if n.startswith("cluster.us_per_req.") and v > 0}
    assert measured == set(cells)
    assert (metrics["cluster.offpath_ratio"] > 0) == (traced["workload"] == "offpath-8n")
    assert (metrics["analysis.cells_per_s"] > 0) == (traced["workload"] == "matrix-dynamic")


def test_spans_are_well_formed(traced):
    spans = traced["spans"]
    assert [span["id"] for span in spans] == list(range(len(spans)))
    names = {span["name"] for span in spans}
    assert {"setup", "round", "layers", "cluster.build", "sim.engine.d500"} <= names
    for span in spans:
        assert span["workload"] == traced["workload"] and span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_command_line_prints_the_result_object_last(tmp_path):
    out = tmp_path / "ref.json"
    done = subprocess.run(
        [sys.executable, ledger.__file__, "--workload", "ref-8n", "--seed", str(SEED),
         "--seconds", "0.2", "--trace", "1", "--smoke", "--out", str(out)],
        capture_output=True, text=True, check=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]
    assert "sim.events_per_req" in done.stdout  # every metric is printed by name
    assert json.loads(out.read_text())["sim_digest"]
    spans = [json.loads(s) for s in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert all(s["parent"] is None or s["parent"] < len(spans) for s in spans)
    assert not (ledger.ROOT / ".ledger_work").exists()


# -- the oracle trips on corrupted results ------------------------------------------


def _small_cell():
    from repro.cluster import ClusterConfig
    from repro.workload import rice_like_trace

    trace = rice_like_trace(num_requests=600, scale=0.02, seed=SEED)
    return lw.SimCell("plain", "plain", trace, ClusterConfig(num_nodes=2))


def _small_result():
    from repro.cluster import run_simulation

    cell = _small_cell()
    return run_simulation(cell.trace, cell.config)


def test_digest_oracle_trips_on_a_tampered_result():
    cell, rec, host = _small_cell(), lw.SpanRecorder("t"), HostSpeed()
    oracle = lw.Oracle()
    first = cell.run(rec, host, 0)
    assert first.digest == lw.result_digest(_small_result())
    oracle.judge(first, 0)
    oracle.judge(cell.run(rec, host, 1), 1)
    assert (oracle.attempted, oracle.failed) == (2, 0)

    result = _small_result()
    tampered = dataclasses.replace(result, cache_hits=result.cache_hits + 1)
    forged = dataclasses.replace(first, digest=lw.result_digest(tampered))
    oracle.judge(forged, 2)
    assert oracle.failed == 1 and "digest changed" in oracle.failures[0]

    other = dataclasses.replace(forged, cell="traced")
    oracle.judge(other, 0, same_as="plain")
    assert oracle.failed == 2 and "differs from the plain run" in oracle.failures[1]


def test_result_checks_reject_lost_and_unfinished_requests():
    result = _small_result()
    assert lw.check_result(result, 600, 600, lossless=True) is None
    assert "completed 599" in lw.check_result(result, 599, 600, lossless=True)
    lossy = dataclasses.replace(result, lost_requests=3)
    assert "lost 3" in lw.check_result(lossy, 600, 600, lossless=True)
    assert lw.check_result(lossy, 600, 600, lossless=False) is None


def test_a_raising_cell_is_a_failed_operation_not_a_crash():
    cell = dataclasses.replace(_small_cell(), config=None)
    oracle = lw.Oracle()
    oracle.judge(cell.run(lw.SpanRecorder("t"), HostSpeed(), 0), 0)
    assert (oracle.attempted, oracle.failed) == (1, 1)


# -- --compare verdicts ----------------------------------------------------------------


def _suite(req_per_s, setup_s=0.4, rss=60.0, fail_ratio=0.0, rounds=None):
    record = {
        "metrics": {"req_per_s": req_per_s, "setup_s": setup_s, "peak_rss_mb": rss},
        "round_req_per_s": rounds or [req_per_s] * 4,
        "fail_ratio": fail_ratio,
    }
    return {"workloads": {"ref-8n": {"untraced": record}}}


def _verdicts(base, other):
    return {row["metric"]: row["verdict"] for row in ledger.compare(base, other)}


def test_compare_gives_a_verdict_per_metric_against_its_bound():
    bound = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    base = _suite(100_000.0)
    assert set(_verdicts(base, base).values()) == {"same"}
    beyond, within = 1e5 * (bound["req_per_s"] + 0.05), 1e5 * (bound["req_per_s"] - 0.05)
    assert _verdicts(base, _suite(1e5 - beyond))["req_per_s"] == "worse"
    assert _verdicts(base, _suite(1e5 + beyond))["req_per_s"] == "better"
    assert _verdicts(base, _suite(1e5 - within))["req_per_s"] == "same"
    heavier = 60.0 * (1 + bound["peak_rss_mb"] + 0.05)
    assert _verdicts(base, _suite(1e5, rss=heavier))["peak_rss_mb"] == "worse"
    assert _verdicts(base, _suite(1e5, setup_s=0.44))["setup_s"] == "same"
    assert _verdicts(base, _suite(1e5, setup_s=0.6))["setup_s"] == "worse"
    assert _verdicts(base, _suite(1e5, fail_ratio=0.01))["fail_ratio"] == "worse"
    noisy = _suite(1e5 - beyond, rounds=[50_000.0, 70_000.0, 90_000.0, 130_000.0])
    assert _verdicts(base, noisy)["req_per_s"] == "unresolved"
