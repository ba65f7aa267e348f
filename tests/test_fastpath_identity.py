"""Byte-identity: the flattened fast path vs the generator lifecycle.

``repro.cluster.fastpath`` replays the request lifecycle as an explicit
state machine; its contract is that every simulation output — counters,
delays, busy-time integrals, per-node series — is *equal*, not merely
close, to the generator path's.  These tests run the same simulation
on both paths (the generator reference by clearing
``FrontEnd._fastpath`` on a built simulator, which ``_admit`` re-reads
per call) and compare entire result dataclasses.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.cluster.fastpath import FastConnection, TracedConnection
from repro.cluster.simulator import ClusterConfig, ClusterSimulator
from repro.obs import SpanWriter
from repro.obs.tracer import SimTracer
from repro.workload import cgi_mix_trace
from repro.workload.synthetic import synthesize_trace


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(
        num_requests=3000,
        num_targets=400,
        total_bytes=64 * 2**20,
        zipf_alpha=1.0,
        seed=11,
    )


def _run(trace, fastpath, **kwargs):
    sim = ClusterSimulator(trace, ClusterConfig(**kwargs))
    if not fastpath:
        sim.frontend._fastpath = None
    return dataclasses.asdict(sim.run())


def _sha256(result_dict):
    return hashlib.sha256(
        json.dumps(result_dict, sort_keys=True).encode()
    ).hexdigest()


_CONFIGS = [
    dict(policy="lard", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lard/r", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="wrr", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lb/gc", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="wrr/gms", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="lard/r", num_nodes=2, node_cache_bytes=2**18, disks_per_node=3),
    dict(policy="lard", num_nodes=4, node_cache_bytes=2**19, coalesce_reads=False),
    dict(
        policy="lard/r",
        num_nodes=3,
        node_cache_bytes=2**19,
        membership_events=((0.5, "fail", 1), (1.5, "join", 1)),
    ),
    # Policy-zoo strategies: the seeded-RNG contract (entropy consumed
    # only inside choose, once per admitted request) must keep the
    # flattened fast path byte-identical to the generator twin.
    dict(policy="chash", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod/lc", num_nodes=4, node_cache_bytes=2**19),
    dict(policy="pod/lc", num_nodes=4, node_cache_bytes=2**19, policy_seed=7),
    dict(
        policy="chash",
        num_nodes=4,
        node_cache_bytes=2**19,
        node_weights=(1.0, 1.0, 2.0, 4.0),
    ),
    dict(
        policy="pod",
        num_nodes=3,
        node_cache_bytes=2**19,
        membership_events=((0.5, "fail", 1), (1.5, "join", 1)),
    ),
    # Persistent connections are not fast-path eligible: both runs take
    # the generator lifecycle, pinned below against the parent's.
    dict(
        policy="lard/r",
        num_nodes=4,
        node_cache_bytes=2**19,
        requests_per_connection=4,
        persistent_policy="sticky",
    ),
    dict(
        policy="lard/r",
        num_nodes=4,
        node_cache_bytes=2**19,
        requests_per_connection=4,
        persistent_policy="rehandoff",
    ),
    dict(
        policy="lb/gc",
        num_nodes=4,
        node_cache_bytes=2**19,
        requests_per_connection=4,
        persistent_policy="rehandoff",
    ),
]

# sha256 of json.dumps(asdict(result), sort_keys=True) on the generator
# path, recorded on a7b00b5 — when the plain lifecycle, its traced copy
# and the one-request-per-connection loop were still separate bodies —
# so the merged lifecycle is checked against what they produced, not
# against itself.
_PARENT_GENERATOR_SHA256 = {
    "lard/r-4-524288": "135ed5a39d02c218915ea4a1e83e10eb0a7ac73aa8b53706c2c5f1a1512a1194",
    "lard/r-4-524288-4-sticky": "4f17dcc074d5889984c3f3609b42eef73266045fdbe5cb36cb51ddc5c9d542a2",
    "lard/r-4-524288-4-rehandoff": "e430fd25e53b60855335cd52a615e23e3cc5d4bb6d6a101db50bc34638faa660",
    "lb/gc-4-524288-4-rehandoff": "91c63a668aedb9fb9deaad5ce7985958fce93075fbace0eaf0dd414613f5f1a8",
}


def _config_id(config):
    return "-".join(str(v) for v in config.values())


@pytest.mark.parametrize("config", _CONFIGS, ids=_config_id)
def test_fastpath_matches_generator_path(trace, config):
    fast = _run(trace, fastpath=True, **config)
    slow = _run(trace, fastpath=False, **config)
    assert fast == slow
    pinned = _PARENT_GENERATOR_SHA256.get(_config_id(config))
    if pinned is not None:
        assert _sha256(slow) == pinned


def test_fastpath_is_actually_selected(trace):
    """Guard against the fast path silently disabling itself: the
    eligibility conditions in FrontEnd must hold for the paper's
    standard configuration, and only there."""
    config = dict(policy="lard/r", num_nodes=4, node_cache_bytes=2**19)
    sim = ClusterSimulator(trace, ClusterConfig(**config))
    assert sim.frontend._fastpath is not None
    persistent = ClusterSimulator(
        trace, ClusterConfig(requests_per_connection=4, **config)
    )
    assert persistent.frontend._fastpath is None


# -- the traced state machine ---------------------------------------------------
#
# A tracer does not pick the lifecycle: an eligible traced run stays on
# the state machine, observed by stage wrappers.  The generator
# lifecycle's span support is the reference, so the comparison is over
# span-log *bytes* — every phase float, outcome, dispatch-load snapshot
# and 0.05 s sample, in order.


@pytest.fixture(scope="module")
def cgi_trace():
    return cgi_mix_trace(
        num_requests=2000,
        num_targets=300,
        total_bytes=48 * 2**20,
        zipf_alpha=1.0,
        dynamic_fraction=0.15,
        cpu_cost_s=0.02,
        seed=11,
    )


def _run_traced(trace, fastpath, **kwargs):
    sink = io.StringIO()
    with SpanWriter(sink, source="sim") as writer:
        tracer = SimTracer(writer, sample_interval_s=0.05)
        sim = ClusterSimulator(trace, ClusterConfig(**kwargs), tracer=tracer)
        if not fastpath:
            sim.frontend._fastpath = None
        result = dataclasses.asdict(sim.run())
    return sim, result, sink.getvalue()


_ELIGIBLE = [c for c in _CONFIGS if c.get("requests_per_connection", 1) == 1]


@pytest.mark.parametrize("config", _ELIGIBLE, ids=_config_id)
def test_traced_state_machine_matches_generator_span_log(trace, config):
    sim, fast, fast_log = _run_traced(trace, fastpath=True, **config)
    _, slow, slow_log = _run_traced(trace, fastpath=False, **config)
    assert fast_log == slow_log
    assert fast == slow == _run(trace, fastpath=True, **config)
    assert fast_log.count('"kind":"span"') == len(trace)
    assert fast_log.count('"kind":"sample"') >= 2
    # ...and it really was the state machine, one wrapper class for all.
    pool = sim.frontend._fastpath.pool
    assert pool and all(type(conn) is TracedConnection for conn in pool)


def test_traced_state_machine_matches_generator_on_cgi(cgi_trace):
    config = dict(policy="lard/r", num_nodes=3, node_cache_bytes=2**19)
    _, fast, fast_log = _run_traced(cgi_trace, fastpath=True, **config)
    _, slow, slow_log = _run_traced(cgi_trace, fastpath=False, **config)
    assert fast_log == slow_log and fast == slow
    assert '"outcome":"dynamic"' in fast_log


def test_every_outcome_is_exercised(trace):
    """The configs above are only a proof if, between them, they drive
    every data path the wrappers have to time."""
    seen = set()
    for config in (c for c in _ELIGIBLE if c["policy"] in ("lard", "wrr/gms")):
        _, _, log = _run_traced(trace, fastpath=True, **config)
        seen.update(
            json.loads(line)["outcome"]
            for line in log.splitlines()
            if '"kind":"span"' in line
        )
    assert {"hit", "miss", "coalesced", "gms_local", "gms_remote"} <= seen


@pytest.mark.parametrize(
    "config",
    [c for c in _ELIGIBLE if c["policy"] == "lard/r" and "disks_per_node" not in c],
    ids=_config_id,
)
def test_traced_and_sanitized_together_change_nothing(trace, config):
    """Both observers on one run: the span log is the one either
    lifecycle writes alone, the result the one an unobserved run gives."""
    _, both, both_log = _run_traced(
        trace, fastpath=True, sanitize=True, sanitize_interval=16, **config
    )
    _, _, reference_log = _run_traced(trace, fastpath=False, **config)
    assert both_log == reference_log
    assert both == _run(trace, fastpath=True, **config)


def test_untraced_run_builds_untraced_connections(trace):
    sim = ClusterSimulator(
        trace, ClusterConfig(policy="lard/r", num_nodes=4, node_cache_bytes=2**19)
    )
    sim.run()
    pool = sim.frontend._fastpath.pool
    assert pool and all(type(conn) is FastConnection for conn in pool)
