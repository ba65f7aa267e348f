"""The caches against an offline optimum and a competitive bound.

Every other cache test holds the caches to themselves.  Here each
replacement policy replays a request stream with every file one unit
large, beside Belady's farthest-next-use rule — which no online policy
can beat at unit sizes — on every generator in ``repro.workload.dynamic``,
on the static synthetic trace and on one hand-made stream:

* ``belady(k) <= misses(k)`` for GDS, LRU and LFU;
* LRU and GDS stay under the competitive bound Sleator and Tarjan
  proved for LRU and Young for Greedy-Dual,
  ``misses(k) <= k / (k - h + 1) * belady(h) + h``.  LFU has no such
  bound and is not asked for one: the hand-made ``shift`` stream — a
  catalog scanned, scanned again by another, re-read, then two files
  nobody has asked for before, in turn — is the one it loses without
  limit, and so does a GDS whose insert forgets the inflation term
  (the seeded mutation below).  The generators alone would not notice
  that one: on a Zipf stream a newcomer that is first to go is often
  the better policy.

With the traces' real sizes, a one-node ``GlobalMemorySystem`` and a
one-node ``GlobalCacheDirectory`` are a plain ``GDSCache`` with a
directory around it, and must reproduce it hit for hit.
"""

from __future__ import annotations

import heapq

import pytest

from repro.cache import (
    GDSCache,
    GlobalCacheDirectory,
    GlobalMemorySystem,
    GMSOutcome,
    LFUCache,
    LRUCache,
)
from repro.workload import (
    Trace,
    cgi_mix_trace,
    diurnal_trace,
    drift_trace,
    flash_crowd_trace,
    multi_tenant_trace,
    synthesize_trace,
)
from tests.seeded_mutation import assert_selected_tests_fail

#: Cache size in files, and the smaller optimum the competitive bound
#: is stated against.
K, H = 64, 32


def _shift_stream():
    """Fill, flush with a second catalog (the inflation value rises),
    re-read it (hits at the raised value), then alternate two new files."""
    second = list(range(K, 2 * K))
    targets = list(range(K)) + second + second + [2 * K, 2 * K + 1] * (8 * K)
    return Trace(targets, [1] * (2 * K + 2), name="shift")


_SMALL = dict(num_requests=6000, num_targets=600, total_bytes=24 * 2**20)

_STREAMS = {
    "shift": _shift_stream,
    "static": lambda: synthesize_trace(6000, 600, 24 * 2**20, 0.9, seed=5),
    "flash-crowd": lambda: flash_crowd_trace(**_SMALL),
    "diurnal": lambda: diurnal_trace(**_SMALL),
    "drift": lambda: drift_trace(**_SMALL),
    "cgi-mix": lambda: cgi_mix_trace(**_SMALL),
    "multi-tenant": lambda: multi_tenant_trace(
        num_requests=6000, targets_per_tenant=200, bytes_per_tenant=8 * 2**20
    ),
}


@pytest.fixture(scope="module", params=sorted(_STREAMS))
def trace(request):
    return _STREAMS[request.param]()


def belady_misses(targets, capacity):
    """Misses of the farthest-next-use rule over ``targets`` with room
    for ``capacity`` unit-size files."""
    never = len(targets)
    next_use = [never] * never
    last_seen = {}
    for index in range(never - 1, -1, -1):
        next_use[index] = last_seen.get(targets[index], never)
        last_seen[targets[index]] = index
    cached = {}  # target -> index of its next use
    farthest = []  # (-next use, target), stale entries skipped at pop
    misses = 0
    for index, target in enumerate(targets):
        if target not in cached:
            misses += 1
            if len(cached) == capacity:
                while True:
                    use, victim = heapq.heappop(farthest)
                    if cached.get(victim) == -use:
                        del cached[victim]
                        break
        cached[target] = next_use[index]
        heapq.heappush(farthest, (-next_use[index], target))
    return misses


def _hits(cache, targets):
    return [cache.access(target, 1) for target in targets]


def test_belady_on_a_stream_small_enough_to_check_by_hand():
    # Room for two: a b c a b -> c replaces b (a is needed sooner), b misses again.
    assert belady_misses(list("abcab"), 2) == 4
    assert belady_misses(list("abcab"), 3) == 3
    assert belady_misses(list("aaaa"), 1) == 1


def test_online_policies_sit_between_the_optimum_and_the_competitive_bound(trace):
    targets = trace.targets.tolist()
    optimum = belady_misses(targets, K)
    bound = K / (K - H + 1) * belady_misses(targets, H) + H
    for make, competitive in ((GDSCache, True), (LRUCache, True), (LFUCache, False)):
        misses = _hits(make(K), targets).count(False)
        assert optimum <= misses, make.__name__
        if competitive:
            assert misses <= bound, make.__name__
    assert optimum < len(targets) / 2  # the stream has locality to find


def test_one_node_global_caches_are_a_plain_gds_cache(trace):
    targets = trace.targets.tolist()
    sizes = trace.sizes_by_target.tolist()
    capacity = sum(sizes) // 10
    plain = GDSCache(capacity)
    gms = GlobalMemorySystem(1, capacity)
    directory = GlobalCacheDirectory(1, capacity)
    for target in targets:
        hit = plain.access(target, sizes[target])
        assert (gms.access(0, target, sizes[target]).outcome is GMSOutcome.LOCAL_HIT) == hit
        assert directory.route(target, sizes[target]).predicted_hit == hit
    assert plain.stats.evictions > K and plain.stats.hits > 0
    assert gms.stats.remote_hits == 0 and gms.stats.evictions == plain.stats.evictions


def test_seeded_mutation_of_the_fused_insert_is_caught(tmp_path):
    """A file inserted with ``1 / size`` for a credit, not ``L + 1 /
    size``, is the next to go however recently it came."""
    assert_selected_tests_fail(
        tmp_path,
        "cache/gds.py",
        "\n        credit = self._inflation + (1.0 / size if size > 0 else 1.0)\n",
        "\n        credit = 1.0 / size if size > 0 else 1.0\n",
        __file__,
        "competitive_bound and shift",
    )
