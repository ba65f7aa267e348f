"""Unit tests for live failure detection, failover, and drain.

Covers the paper Section 2.6 machinery on the prototype side: the
dispatcher's membership bookkeeping (orphan credits, resizable admission
limit), the HealthMonitor's heartbeat thresholds, the front-end's
hand-off failover with slot accounting, and graceful back-end drain.
"""

import socket
import time

import pytest

from repro.core import make_policy
from repro.core.base import PolicyError
from repro.handoff import (
    Dispatcher,
    DocumentStore,
    FaultInjector,
    HandoffCluster,
    HandoffItem,
    HealthMonitor,
    LoadGenerator,
    fetch_one,
    parse_request_head,
)
from repro.handoff.client import _read_response


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("health-docs")
    return DocumentStore.build(root, {f"/doc{i}": 256 + 17 * i for i in range(12)})


def _cluster(store, **kw):
    defaults = dict(
        num_backends=2,
        policy="lard/r",
        miss_penalty_s=0.0,
        cache_bytes=10**6,
        health_interval_s=30.0,  # probe manually via check_now()
    )
    defaults.update(kw)
    return HandoffCluster(store, **defaults)


def _poll(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestDispatcherMembership:
    def _dispatcher(self, n=3):
        return Dispatcher(make_policy("lard/r", n, t_low=2, t_high=5))

    def test_fail_node_zeroes_load_and_orphans_completions(self):
        dispatcher = self._dispatcher()
        node = dispatcher.admit("/a")
        assert dispatcher.fail_node(node)
        assert not dispatcher.is_alive(node)
        assert dispatcher.loads[node] == 0
        # The in-flight connection's completion must not raise, must count
        # as an orphan, and must return its admission slot.
        dispatcher.complete(node, "/a")
        assert dispatcher.orphaned == 1
        assert dispatcher.in_flight == 0

    def test_fail_node_idempotent(self):
        dispatcher = self._dispatcher()
        assert dispatcher.fail_node(0)
        assert not dispatcher.fail_node(0)
        assert dispatcher.node_failures == 1

    def test_last_node_cannot_fail(self):
        dispatcher = self._dispatcher(n=2)
        dispatcher.fail_node(0)
        with pytest.raises(PolicyError):
            dispatcher.fail_node(1)
        assert dispatcher.is_alive(1)  # policy state untouched by the refusal

    def test_join_rejoins_cold_with_zero_load(self):
        dispatcher = self._dispatcher()
        dispatcher.fail_node(1)
        assert dispatcher.join_node(1)
        assert not dispatcher.join_node(1)  # idempotent
        assert dispatcher.is_alive(1)
        assert dispatcher.loads[1] == 0

    def test_admission_limit_tracks_membership(self):
        dispatcher = self._dispatcher(n=3)  # S = 2*5 + 2 - 1 = 11
        assert dispatcher.max_in_flight == 11
        dispatcher.fail_node(0)  # S = 1*5 + 2 - 1 = 6
        assert dispatcher.max_in_flight == 6
        dispatcher.join_node(0)
        assert dispatcher.max_in_flight == 11

    def test_explicit_limit_not_resized(self):
        dispatcher = Dispatcher(
            make_policy("lard/r", 3, t_low=2, t_high=5), max_in_flight=40
        )
        dispatcher.fail_node(0)
        assert dispatcher.max_in_flight == 40

    def test_reassign_moves_load_and_keeps_slot(self):
        dispatcher = self._dispatcher(n=2)
        node = dispatcher.admit("/a")
        dispatcher.fail_node(node)
        new = dispatcher.reassign(node, "/a")
        assert new != node
        assert dispatcher.loads[new] == 1
        assert dispatcher.in_flight == 1  # slot retained
        assert dispatcher.failovers == 1
        dispatcher.complete(new, "/a")
        assert dispatcher.in_flight == 0
        assert dispatcher.loads == [0, 0]

    def test_abort_releases_slot_without_completion(self):
        dispatcher = self._dispatcher(n=2)
        node = dispatcher.admit("/a")
        dispatcher.abort(node, "/a")
        assert dispatcher.in_flight == 0
        assert dispatcher.loads == [0, 0]
        assert dispatcher.aborted == 1
        assert dispatcher.completed == 0


class TestHealthMonitor:
    def test_heartbeat_marks_down_after_threshold(self, store):
        with _cluster(store) as cluster:
            cluster.backends[1].kill()
            cluster.health.check_now()  # streak 1 < threshold
            assert cluster.dispatcher.is_alive(1)
            cluster.health.check_now()  # streak 2 -> down
            assert not cluster.dispatcher.is_alive(1)
            assert cluster.health.stats.marks_down == 1

    def test_recovery_marks_up_cold(self, store):
        with _cluster(store) as cluster:
            cluster.backends[1].kill()
            cluster.health.check_now()
            cluster.health.check_now()
            assert not cluster.dispatcher.is_alive(1)
            cluster.backends[1].start()
            cluster.health.check_now()
            assert not cluster.dispatcher.is_alive(1)  # streak 1 < threshold
            cluster.health.check_now()
            assert cluster.dispatcher.is_alive(1)
            assert cluster.health.stats.marks_up == 1
            assert cluster.dispatcher.loads[1] == 0

    def test_gray_failure_via_heartbeat_fault(self, store):
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.fail_heartbeats(0)
            cluster.health.check_now()
            cluster.health.check_now()
            assert not cluster.dispatcher.is_alive(0)
            chaos.fail_heartbeats(0, fail=False)
            cluster.health.check_now()
            cluster.health.check_now()
            assert cluster.dispatcher.is_alive(0)

    def test_background_probe_thread_detects(self, store):
        with _cluster(store, health_interval_s=0.02) as cluster:
            cluster.backends[0].kill()
            assert _poll(lambda: not cluster.dispatcher.is_alive(0), timeout_s=3.0)


class TestFrontEndFailover:
    def test_refused_handoffs_fail_over_to_survivor(self, store):
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.refuse_handoffs(0)
            for i in range(8):
                status, body = fetch_one(cluster.address, f"/doc{i}")
                assert status == 200
                assert body == store.expected_content(f"/doc{i}")
            # The refusing node was marked down fail-fast; the survivor served.
            assert not cluster.dispatcher.is_alive(0)
            assert cluster.backends[0].stats.requests_served == 0
            stats = cluster.stats()
            assert stats.frontend.handoff_failures >= 1
            assert cluster.wait_idle()
            assert cluster.dispatcher.in_flight == 0

    def test_all_backends_down_yields_503_and_recovers(self, store):
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.kill(0)
            chaos.kill(1)  # last node: stays nominally routable, but dead
            status, _ = fetch_one(cluster.address, "/doc0")
            assert status == 503
            assert cluster.stats().frontend.rejected >= 1
            # No admission slot leaked by the 503 path.
            assert cluster.wait_idle()
            chaos.revive(0)
            chaos.revive(1)
            status, body = fetch_one(cluster.address, "/doc1")
            assert status == 200
            assert body == store.expected_content("/doc1")

    def test_admit_timeout_answers_503(self, store):
        with _cluster(store, max_in_flight=1, admit_timeout_s=0.05) as cluster:
            # Park the single admission slot on a connection that never
            # finishes its keep-alive exchange.
            holder = socket.create_connection(cluster.address, timeout=5)
            holder.sendall(
                b"GET /doc0 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
            )
            assert _poll(lambda: cluster.dispatcher.in_flight == 1)
            status, _ = fetch_one(cluster.address, "/doc1")
            assert status == 503
            holder.close()
            assert cluster.wait_idle()

    def test_failover_item_reclaims_queued_connection(self, store):
        """A connection queued at a killed node is re-dispatched, not dropped."""
        with _cluster(store) as cluster:
            head = b"GET /doc3 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            request = parse_request_head(head)
            client, serverside = socket.socketpair()
            try:
                node = cluster.dispatcher.admit(request.target)
                cluster.backends[node].kill()
                cluster.health.mark_down(node)
                item = HandoffItem(conn=serverside, buffered=head, request=request)
                cluster.frontend.failover_item(item, node)
                client.settimeout(5)
                data = b""
                while True:
                    try:
                        chunk = client.recv(65536)
                    except OSError:
                        break
                    if not chunk:
                        break
                    data += chunk
                assert b"200" in data.split(b"\r\n")[0]
                assert data.endswith(store.expected_content("/doc3"))
            finally:
                client.close()
            assert cluster.wait_idle()
            assert cluster.dispatcher.in_flight == 0


class TestDegradedService:
    def test_severed_response_recovered_by_client_retry(self, store):
        with _cluster(store, num_backends=1) as cluster, FaultInjector(cluster) as chaos:
            chaos.sever_responses(0, count=2)
            gen = LoadGenerator(
                cluster.address,
                [f"/doc{i}" for i in range(8)],
                concurrency=2,
                verify=cluster.verify,
                retry_errors=3,
            )
            result = gen.run(24)
            assert result.errors == 0
            assert result.requests == 24
            assert result.retries >= 1
            assert cluster.wait_idle()
            assert cluster.dispatcher.in_flight == 0

    def test_delayed_responses_still_served(self, store):
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.delay_responses(0, 0.05)
            chaos.delay_responses(1, 0.05)
            started = time.perf_counter()
            status, _ = fetch_one(cluster.address, "/doc0")
            assert status == 200
            assert time.perf_counter() - started >= 0.05

    def test_refused_rehandoff_is_served_and_releases_its_slot(self, store):
        """A keep-alive follow-up whose re-hand-off the chosen peer refuses
        is answered where the connection is, and its slot still returns."""
        with _cluster(
            store, policy="lard", persistent_mode="rehandoff"
        ) as cluster, FaultInjector(cluster) as chaos:
            chaos.refuse_handoffs(1)
            conn = socket.create_connection(cluster.address, timeout=5)
            answered = []
            try:
                conn.sendall(
                    b"GET /doc0 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
                )
                status, body, rest, _ = _read_response(conn, b"")
                answered.append((status, body))
                # LARD sends the new target to the idle node, which refuses.
                conn.sendall(
                    b"GET /doc1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
                )
                try:
                    status, body, _, _ = _read_response(conn, rest)
                    answered.append((status, body))
                except (OSError, RuntimeError):
                    pass  # the connection died without an answer
            finally:
                conn.close()
            assert answered == [
                (200, store.expected_content("/doc0")),
                (200, store.expected_content("/doc1")),
            ]
            assert cluster.dispatcher.transfers == 1  # the re-hand-off was tried
            assert cluster.wait_idle()
            assert cluster.dispatcher.loads == [0, 0]
            assert sum(b.stats.rehandoffs_out for b in cluster.backends) == 0

    def test_stalled_handoff_still_served(self, store):
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.stall_handoffs(0, 0.05)
            chaos.stall_handoffs(1, 0.05)
            status, _ = fetch_one(cluster.address, "/doc2")
            assert status == 200


class TestGracefulDrain:
    def test_stop_drains_idle_keepalive_quickly(self, store):
        cluster = _cluster(store)
        cluster.start()
        conn = socket.create_connection(cluster.address, timeout=5)
        try:
            conn.sendall(
                b"GET /doc0 HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n"
            )
            conn.settimeout(5)
            assert conn.recv(65536)  # response arrived; connection now idle
            started = time.perf_counter()
            cluster.stop()
            elapsed = time.perf_counter() - started
            # Pre-drain behavior waited out the full 5 s keep-alive timeout.
            assert elapsed < 3.0
            assert sum(b.stats.drained for b in cluster.backends) >= 1
        finally:
            conn.close()

    def test_restart_after_stop(self, store):
        backend = _cluster(store).backends[0]
        backend.start()
        backend.stop()
        backend.start()  # restartable: no RuntimeError, workers respawned
        assert backend.heartbeat()
        backend.stop()


class TestHealthMonitorStandalone:
    def test_thresholds_validated(self, store):
        cluster = _cluster(store)
        with pytest.raises(ValueError):
            HealthMonitor(cluster.dispatcher, cluster.backends, interval_s=0)

    def test_stats_exposed_via_cluster(self, store):
        with _cluster(store) as cluster:
            stats = cluster.stats()
            assert stats.health is not None
            assert stats.alive == [True, True]
            assert stats.orphaned == 0
