"""Chaos integration tests: back-end crashes under live load.

The live analogue of the simulator's ``membership_events`` experiments
(paper Section 2.6): kill a back-end in the middle of a load run and
assert the cluster's fault-tolerance contract — every client request
gets an HTTP response (success or 503), admission slots all return, no
worker threads leak, and throughput recovers once the node rejoins.
"""

import threading
import time
from collections import Counter

import pytest

from repro.handoff import DocumentStore, FaultInjector, HandoffCluster, LoadGenerator


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-docs")
    return DocumentStore.build(root, {f"/f{i}": 512 + 31 * i for i in range(24)})


def _cluster(store, **kw):
    defaults = dict(
        num_backends=4,
        policy="lard/r",
        miss_penalty_s=0.0,
        cache_bytes=10**6,
        health_interval_s=0.05,
    )
    defaults.update(kw)
    return HandoffCluster(store, **defaults)


def _load(cluster, store, total, concurrency=8):
    gen = LoadGenerator(
        cluster.address,
        [f"/f{i}" for i in range(24)],
        concurrency=concurrency,
        verify=cluster.verify,
        retry_errors=5,
    )
    return gen.run(total)


def _poll(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _live_threads():
    """Name -> how many live threads carry it, for every cluster and
    client thread in the process *except* the front-end's handler pool
    (``fe_N``): a ``ThreadPoolExecutor`` starts its threads lazily, one
    more whenever a burst finds none idle, so how many exist after a
    load is a matter of timing, not a leak (the pool caps it).
    Restarted back-end workers reuse their names, so a leaked one shows
    as a count of two, which a set of names could never show."""
    return Counter(
        t.name
        for t in threading.enumerate()
        if t.name.startswith(("backend", "fe-", "client", "health", "l4"))
    )


class TestKillMidRun:
    def test_kill_one_of_four_mid_run(self, store):
        """The acceptance scenario: one of four back-ends dies mid-load.

        Every request must be answered (200 or 503), no request may hang,
        all admission slots must return, and after the node rejoins the
        cluster must serve at full throughput again.
        """
        victim = 1
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            # Warm-up phase: full cluster, establishes baseline throughput.
            warm = _load(cluster, store, 300)
            assert warm.errors == 0
            assert cluster.wait_idle()
            warm_rps = warm.throughput_rps

            # Failure phase: the victim dies ~mid-run.
            chaos.at(0.05, chaos.kill, victim)
            during = _load(cluster, store, 300)
            chaos.join(timeout_s=5)

            # Every client request was answered; transparent client
            # retries absorb the severed in-flight responses.
            assert during.errors == 0
            assert during.answered == 300
            assert not cluster.dispatcher.is_alive(victim)

            # No slot leaked: the cluster settles back to fully idle.
            assert cluster.wait_idle()
            assert cluster.dispatcher.in_flight == 0
            assert cluster.dispatcher.loads == [0] * 4

            # Recovery phase: rejoin cold, throughput comes back.
            chaos.revive(victim)
            assert cluster.dispatcher.is_alive(victim)
            # LARD moves the victim's targets to survivors at failure, so
            # the rejoined node serves little traffic; recovery is judged
            # by cluster throughput, loosely.  Each load is ~50 ms of wall
            # time, so one scheduling hiccup halves its rate (seen 1 run
            # in 20 with this file in a loop): a cluster that did not
            # recover is slow on every try, a hiccup on one.
            recovered_rps = 0.0
            for _ in range(3):
                after = _load(cluster, store, 300)
                assert after.errors == 0
                assert after.answered == 300
                assert cluster.wait_idle()
                recovered_rps = max(recovered_rps, after.throughput_rps)
                if recovered_rps >= 0.5 * warm_rps:
                    break
            assert recovered_rps >= 0.5 * warm_rps

            stats = cluster.stats()
            assert stats.alive == [True] * 4
            assert stats.frontend.rejected + stats.requests_served >= 900

    def test_kill_detected_by_heartbeat_only(self, store):
        """detect=False: only the monitor notices, after missed beats."""
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.kill(2, detect=False)
            assert _poll(lambda: not cluster.dispatcher.is_alive(2), timeout_s=3.0)
            assert cluster.health.stats.marks_down >= 1
            result = _load(cluster, store, 100, concurrency=4)
            assert result.errors == 0
            assert result.answered == 100
            assert cluster.wait_idle()

    def test_no_thread_leak_across_kill_revive_cycles(self, store):
        """Nothing here waits on a clock: ``kill()`` joins the workers it
        stops and ``LoadGenerator.run`` joins its clients, so each check
        is made the moment the call returns.  (The test used to poll a
        set of thread *names* against a baseline taken after one short
        load; a handler-pool thread first needed by a later burst failed
        it, about one full run in two, and a leaked worker — same name
        as its replacement — could not have.)"""
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            _load(cluster, store, 50, concurrency=4)
            assert cluster.wait_idle()
            backend = cluster.backends[3]
            baseline = _live_threads()
            assert baseline["backend3-w0"] == 1 and not baseline["client-0"]
            for _ in range(3):
                doomed = list(backend._threads)
                assert doomed and all(t.is_alive() for t in doomed)
                chaos.kill(3)
                assert not any(t.is_alive() for t in doomed)
                assert not backend._threads
                _load(cluster, store, 50, concurrency=4)
                chaos.revive(3)
                restarted = list(backend._threads)
                assert len(restarted) == len(doomed)
                assert all(t.is_alive() for t in restarted)
                assert not set(restarted) & set(doomed)
                _load(cluster, store, 50, concurrency=4)
                assert cluster.wait_idle()
            # Exactly the restarted set: no name has more live threads
            # than before the first kill.
            leaked = _live_threads() - baseline
            assert not leaked, leaked

    def test_failure_counters_surface_in_stats(self, store):
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.kill(0)
            _load(cluster, store, 100, concurrency=4)
            assert cluster.wait_idle()
            stats = cluster.stats()
            assert stats.alive[0] is False
            assert cluster.dispatcher.node_failures == 1
            chaos.revive(0)
            assert cluster.dispatcher.node_joins == 1

    def test_double_kill_still_answers(self, store):
        """Two of four dead: survivors absorb everything."""
        with _cluster(store) as cluster, FaultInjector(cluster) as chaos:
            chaos.kill(0)
            chaos.kill(1)
            result = _load(cluster, store, 150, concurrency=6)
            assert result.errors == 0
            assert result.answered == 150
            assert cluster.wait_idle()
            assert sorted(cluster.dispatcher.alive_nodes) == [2, 3]
