"""Live-cluster observability: ``/metrics`` scrapes and the span log.

The contract under test: the front-end's Prometheus page is served from
the same locked stats structures :meth:`HandoffCluster.stats` reads, so
a scrape taken at any moment — including mid-chaos — must agree with the
counters the fault tests assert against; and a cluster started with
``trace_path`` leaves behind a schema-valid span log accounting for
every request the back-ends served.
"""

import time

import pytest

from repro.handoff import (
    DocumentStore,
    FaultInjector,
    HandoffCluster,
    LoadGenerator,
    fetch_one,
)
from repro.obs import parse_prometheus, read_span_log

PATHS = [f"/f{i}" for i in range(16)]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-docs")
    return DocumentStore.build(root, {path: 512 + 31 * i for i, path in enumerate(PATHS)})


def _cluster(store, **kw):
    defaults = dict(
        num_backends=3,
        policy="lard/r",
        miss_penalty_s=0.0,
        cache_bytes=10**6,
        health_interval_s=0.05,
    )
    defaults.update(kw)
    return HandoffCluster(store, **defaults)


def _load(cluster, total, concurrency=6):
    gen = LoadGenerator(
        cluster.address,
        PATHS,
        concurrency=concurrency,
        verify=cluster.verify,
        retry_errors=5,
    )
    return gen.run(total)


def _scrape(cluster):
    status, body = fetch_one(cluster.address, "/metrics")
    assert status == 200
    return parse_prometheus(body.decode("utf-8"))


class TestMetricsEndpoint:
    def test_scrape_matches_stats(self, store):
        with _cluster(store) as cluster:
            result = _load(cluster, 120)
            assert result.errors == 0
            assert cluster.wait_idle()
            samples = _scrape(cluster)
            stats = cluster.stats()

            assert samples[("lard_frontend_handoffs_total", ())] == float(
                stats.frontend.handoffs
            )
            assert samples[("lard_frontend_rejected_total", ())] == float(
                stats.frontend.rejected
            )
            assert samples[("lard_in_flight_connections", ())] == 0.0
            served = sum(
                samples[("lard_backend_requests_total", (("node", str(n)),))]
                for n in range(3)
            )
            assert served == float(stats.requests_served)
            for n in range(3):
                assert samples[("lard_backend_alive", (("node", str(n)),))] == 1.0
                assert (
                    samples[("lard_backend_connections", (("node", str(n)),))] == 0.0
                )

    def test_handoff_latency_histogram_counts_handoffs(self, store):
        with _cluster(store) as cluster:
            _load(cluster, 60)
            assert cluster.wait_idle()
            samples = _scrape(cluster)
            count = samples[("lard_handoff_latency_seconds_count", ())]
            assert count == samples[("lard_frontend_handoffs_total", ())]
            assert samples[("lard_handoff_latency_seconds_sum", ())] >= 0.0

    def test_health_probe_series_advance(self, store):
        with _cluster(store) as cluster:
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                if cluster.health.stats.probes >= 6:
                    break
                time.sleep(0.02)
            samples = _scrape(cluster)
            assert samples[("lard_health_probes_total", ())] >= 6.0
            assert samples[("lard_health_probe_seconds_count", ())] >= 6.0

    def test_scrape_during_chaos_matches_fault_counters(self, store):
        """The acceptance scenario: scrape mid-chaos, compare with stats()."""
        victim = 1
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            _load(cluster, 100)
            chaos.at(0.02, chaos.kill, victim)
            during = _load(cluster, 200)
            chaos.join(timeout_s=5)
            assert during.errors == 0
            assert cluster.wait_idle()

            samples = _scrape(cluster)
            stats = cluster.stats()
            assert samples[("lard_frontend_failovers_total", ())] == float(
                stats.frontend.failovers
            )
            assert samples[("lard_dispatcher_node_failures_total", ())] == float(
                cluster.dispatcher.node_failures
            )
            assert samples[("lard_dispatcher_node_failures_total", ())] >= 1.0
            assert samples[("lard_health_marks_down_total", ())] == float(
                cluster.health.stats.marks_down
            )
            assert (
                samples[("lard_backend_alive", (("node", str(victim)),))] == 0.0
            )

            chaos.revive(victim)
            samples = _scrape(cluster)
            assert samples[("lard_backend_alive", (("node", str(victim)),))] == 1.0
            assert samples[("lard_dispatcher_node_joins_total", ())] >= 1.0


class TestLiveSpanLog:
    def test_span_log_accounts_for_every_request(self, store, tmp_path):
        path = tmp_path / "live-spans.jsonl"
        cluster = _cluster(store, trace_path=str(path))
        with cluster:
            result = _load(cluster, 90)
            assert result.errors == 0
            assert cluster.wait_idle()
            served = cluster.stats().requests_served
        # stop() closed the writer; the log must validate end to end.
        log = read_span_log(path)
        assert log.source == "live"
        assert len(log.spans) == served
        assert {span.req for span in log.spans} == set(range(served))

    def test_live_spans_carry_dispatch_context(self, store, tmp_path):
        path = tmp_path / "ctx-spans.jsonl"
        with _cluster(store, trace_path=str(path), miss_penalty_s=0.002) as cluster:
            _load(cluster, 60)
            assert cluster.wait_idle()
        log = read_span_log(path)
        assert all(span.policy == "lard/r" for span in log.spans)
        assert all(0 <= span.node < 3 for span in log.spans)
        assert all(span.target in PATHS for span in log.spans)
        outcomes = {span.outcome for span in log.spans}
        assert outcomes <= {"hit", "miss"}
        assert "miss" in outcomes  # cold caches: first touch of each file
        # The miss penalty surfaces as disk time on miss spans only.
        miss_disk = [s.phases.get("disk", 0.0) for s in log.spans if s.outcome == "miss"]
        assert miss_disk and min(miss_disk) >= 0.002
        for span in log.spans:
            assert "handoff" in span.phases and "serve" in span.phases
            assert span.load is not None and len(span.load) == 3
