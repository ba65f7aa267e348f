"""Dynamic workload generators and the CGI (dynamic-request) plumbing.

Covers the phase-structured generators in ``repro.workload.dynamic`` —
determinism per seed, the phase structure each one promises — and the
end-to-end dynamic-cost path: trace validation, persistence (format 2),
cluster accounting, sanitizer coverage, and fastpath-vs-generator
byte-identity on a CGI trace.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterSimulator, run_simulation
from repro.cluster.fastpath import FastConnection
from repro.workload import (
    Trace,
    TraceError,
    cgi_mix_trace,
    diurnal_trace,
    drift_trace,
    flash_crowd_trace,
    load_trace,
    mark_dynamic_targets,
    multi_tenant_trace,
    save_trace,
)
from tests.cluster_oracle import use_oracle

SMALL = dict(num_requests=4000, num_targets=300, total_bytes=8 * 2**20)


GENERATORS = {
    "flash": lambda **kw: flash_crowd_trace(**SMALL, **kw),
    "diurnal": lambda **kw: diurnal_trace(**SMALL, **kw),
    "drift": lambda **kw: drift_trace(**SMALL, **kw),
    "cgi": lambda **kw: cgi_mix_trace(**SMALL, **kw),
    "tenants": lambda **kw: multi_tenant_trace(
        num_requests=4000, targets_per_tenant=100, bytes_per_tenant=2 * 2**20, **kw
    ),
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
class TestGeneratorContract:
    def test_deterministic_per_seed(self, kind):
        a = GENERATORS[kind](seed=5)
        b = GENERATORS[kind](seed=5)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.sizes_by_target, b.sizes_by_target)
        if a.cpu_cost_s_by_target is None:
            assert b.cpu_cost_s_by_target is None
        else:
            assert np.array_equal(a.cpu_cost_s_by_target, b.cpu_cost_s_by_target)

    def test_seed_changes_stream(self, kind):
        a = GENERATORS[kind](seed=5)
        b = GENERATORS[kind](seed=6)
        assert not np.array_equal(a.targets, b.targets)

    def test_well_formed(self, kind):
        trace = GENERATORS[kind](seed=5)
        assert len(trace) == 4000
        assert trace.targets.min() >= 0
        assert trace.targets.max() < trace.num_targets
        assert trace.sizes_by_target.min() > 0


class TestFlashCrowd:
    def test_event_concentrates_requests(self):
        trace = flash_crowd_trace(
            **SMALL,
            hot_targets=4,
            peak_fraction=0.8,
            onset_fraction=0.25,
            peak_length_fraction=0.25,
            seed=3,
        )
        n = len(trace)
        before = trace.targets[: n // 4]
        during = trace.targets[n // 4 : n // 2]
        # The crowd set dominates the plateau: its top-4 targets carry
        # most plateau requests but only a baseline share beforehand.
        top4 = [t for t, _ in
                sorted(zip(*np.unique(during, return_counts=True)),
                       key=lambda tc: -tc[1])[:4]]
        share_during = np.isin(during, top4).mean()
        share_before = np.isin(before, top4).mean()
        assert share_during > 0.6
        assert share_during > 3 * share_before

    def test_zero_peak_is_plain_irm(self):
        quiet = flash_crowd_trace(**SMALL, peak_fraction=0.0, seed=3)
        assert len(quiet) == SMALL["num_requests"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="peak_fraction"):
            flash_crowd_trace(**SMALL, peak_fraction=1.5)
        with pytest.raises(ValueError, match="hot_targets"):
            flash_crowd_trace(**SMALL, hot_targets=0)
        with pytest.raises(ValueError, match="onset_fraction"):
            flash_crowd_trace(**SMALL, onset_fraction=-0.1)


class TestDiurnal:
    def test_request_count_exact(self):
        for n in (0, 1, 997, 4000):
            trace = diurnal_trace(
                num_requests=n, num_targets=200, total_bytes=2 * 2**20, seed=9
            )
            assert len(trace) == n

    def test_peak_phases_are_more_concentrated(self):
        # peak_to_trough=1 gives every phase an equal request count, so
        # phase k occupies an exact slice of the stream; the popularity
        # blend still rides the envelope, putting the concentrated
        # (high-alpha) phase at k=2 of each 4-phase cycle and the flat
        # one at k=0.
        trace = diurnal_trace(
            **SMALL,
            zipf_alpha_peak=1.4,
            zipf_alpha_trough=0.5,
            cycles=2,
            phases_per_cycle=4,
            peak_to_trough=1.0,
            seed=9,
        )
        per_phase = len(trace) // 8

        def top10_share(phase):
            tokens = trace.targets[phase * per_phase : (phase + 1) * per_phase]
            _, counts = np.unique(tokens, return_counts=True)
            return np.sort(counts)[-10:].sum() / len(tokens)

        assert top10_share(2) > top10_share(0) + 0.1
        assert top10_share(6) > top10_share(4) + 0.1

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="peak_to_trough"):
            diurnal_trace(**SMALL, peak_to_trough=0.5)
        with pytest.raises(ValueError, match="phases_per_cycle"):
            diurnal_trace(**SMALL, phases_per_cycle=1)


class TestDrift:
    def test_hot_set_rotates_across_phases(self):
        trace = drift_trace(
            **SMALL,
            alpha_start=1.2,
            alpha_end=1.2,
            phases=4,
            churn_fraction=0.5,
            seed=13,
        )
        n = len(trace)
        quarters = [trace.targets[i * n // 4 : (i + 1) * n // 4] for i in range(4)]

        def top10(tokens):
            targets, counts = np.unique(tokens, return_counts=True)
            return set(targets[np.argsort(-counts)][:10].tolist())

        first, last = top10(quarters[0]), top10(quarters[3])
        # Heavy churn must rotate most of the top-10 hot set.
        assert len(first & last) < 8

    def test_no_churn_static_alpha_is_stationary(self):
        trace = drift_trace(
            **SMALL, alpha_start=1.0, alpha_end=1.0, phases=4, churn_fraction=0.0,
            seed=13,
        )
        assert len(trace) == SMALL["num_requests"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="churn_fraction"):
            drift_trace(**SMALL, churn_fraction=1.5)
        with pytest.raises(ValueError, match="phases"):
            drift_trace(**SMALL, phases=0)


class TestCgiMix:
    def test_marks_requested_fraction(self):
        trace = cgi_mix_trace(**SMALL, dynamic_fraction=0.2, cpu_cost_s=0.01, seed=1)
        costs = trace.cpu_cost_s_by_target
        assert costs is not None
        marked = int((costs > 0).sum())
        assert marked == int(0.2 * trace.num_targets)
        assert trace.has_dynamic
        spread = costs[costs > 0]
        assert spread.min() >= 0.005 and spread.max() <= 0.015

    def test_zero_fraction_has_no_dynamic(self):
        trace = cgi_mix_trace(**SMALL, dynamic_fraction=0.0, seed=1)
        assert not trace.has_dynamic
        assert trace.dynamic_cost_list() is None

    def test_mark_dynamic_targets_composes(self):
        base = flash_crowd_trace(**SMALL, seed=3)
        derived = mark_dynamic_targets(base, 0.1, 0.02, seed=4)
        assert derived.has_dynamic
        assert derived.name == "flash-crowd+cgi"
        assert np.array_equal(derived.targets, base.targets)
        assert np.array_equal(derived.sizes_by_target, base.sizes_by_target)

    def test_mark_dynamic_validation(self):
        base = flash_crowd_trace(**SMALL, seed=3)
        with pytest.raises(TraceError, match="dynamic_fraction"):
            mark_dynamic_targets(base, 1.5, 0.02)
        with pytest.raises(TraceError, match="cpu_cost_s"):
            mark_dynamic_targets(base, 0.1, -0.02)
        with pytest.raises(TraceError, match="cost_spread"):
            mark_dynamic_targets(base, 0.1, 0.02, cost_spread=2.0)


class TestMultiTenant:
    def test_catalogs_are_disjoint_and_weighted(self):
        trace = multi_tenant_trace(
            num_requests=9000,
            tenants=3,
            targets_per_tenant=100,
            bytes_per_tenant=2 * 2**20,
            zipf_alphas=(0.8, 1.0, 1.2),
            tenant_weights=(0.6, 0.3, 0.1),
            seed=21,
        )
        assert trace.num_targets == 300
        tenant_of = trace.targets // 100
        shares = np.bincount(tenant_of, minlength=3) / len(trace)
        assert shares[0] > shares[1] > shares[2]
        assert abs(shares[0] - 0.6) < 0.05

    def test_tenant_offsets_past_a_uint8_union_are_not_wrapped(self):
        """Each tenant's 150 targets fit a byte, their union does not: the
        second tenant's ids 256..299 must come out as drawn, not as 0..43
        in the first tenant's catalog."""
        trace = multi_tenant_trace(
            num_requests=20_000,
            tenants=2,
            targets_per_tenant=150,
            bytes_per_tenant=2**20,
            zipf_alphas=(1.0, 1.0),
            tenant_weights=(0.1, 0.9),
            seed=23,
        )
        assert trace.num_targets == 300 and trace.targets.dtype == np.uint16
        assert 256 <= trace.targets.max() < 300
        assert (trace.targets >= 256).sum() > 500
        second_share = (trace.targets >= 150).mean()
        assert abs(second_share - 0.9) < 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="entries"):
            multi_tenant_trace(tenants=2, zipf_alphas=(1.0,), tenant_weights=(1.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            multi_tenant_trace(
                tenants=2, zipf_alphas=(1.0, 1.0), tenant_weights=(1.0, 0.0)
            )


class TestTraceCostTable:
    def test_constructor_validation(self):
        with pytest.raises(TraceError, match="cpu_cost_s_by_target"):
            Trace([0, 1], [10, 20], cpu_cost_s_by_target=[0.1])  # wrong length
        with pytest.raises(TraceError, match="cpu_cost_s_by_target"):
            Trace([0, 1], [10, 20], cpu_cost_s_by_target=[0.1, -0.2])
        with pytest.raises(TraceError, match="cpu_cost_s_by_target"):
            Trace([0, 1], [10, 20], cpu_cost_s_by_target=[0.1, float("nan")])

    def test_dynamic_cost_list_is_memoized_shared_object(self):
        trace = Trace([0, 1], [10, 20], cpu_cost_s_by_target=[0.0, 0.5])
        assert trace.dynamic_cost_list() is trace.dynamic_cost_list()

    def test_all_zero_table_reads_as_static(self):
        trace = Trace([0, 1], [10, 20], cpu_cost_s_by_target=[0.0, 0.0])
        assert trace.dynamic_cost_list() is None
        assert not trace.has_dynamic

    def test_slice_and_head_propagate_costs(self):
        trace = Trace([0, 1, 0], [10, 20], cpu_cost_s_by_target=[0.0, 0.5])
        assert trace.head(2).cpu_cost_s_by_target is not None
        assert trace.slice(1, 3).cpu_cost_s_by_target is not None


class TestDynamicPersistence:
    def test_roundtrip_v2(self, tmp_path):
        trace = cgi_mix_trace(**SMALL, dynamic_fraction=0.1, seed=1)
        path = save_trace(trace, tmp_path / "cgi")
        loaded = load_trace(path)
        assert np.array_equal(loaded.targets, trace.targets)
        assert np.array_equal(
            loaded.cpu_cost_s_by_target, trace.cpu_cost_s_by_target
        )

    def test_static_traces_stay_format_1(self, tmp_path):
        trace = flash_crowd_trace(**SMALL, seed=3)
        path = save_trace(trace, tmp_path / "static")
        with np.load(path) as archive:
            assert int(archive["version"]) == 1
            assert "cpu_cost_s_by_target" not in archive


def _run_generator_path(trace, **config):
    """The reference lifecycle (``tests/cluster_oracle.py``)."""
    return use_oracle(ClusterSimulator(trace, ClusterConfig(**config))).run()


@pytest.fixture(scope="module")
def cgi_trace():
    return cgi_mix_trace(
        num_requests=3000,
        num_targets=400,
        total_bytes=64 * 2**20,
        zipf_alpha=1.0,
        dynamic_fraction=0.15,
        cpu_cost_s=0.02,
        seed=11,
    )


class TestClusterDynamicRequests:
    def test_dynamic_requests_counted_and_uncached(self, cgi_trace):
        result = _run_generator_path(
            cgi_trace, policy="lard", num_nodes=4, node_cache_bytes=2**19
        )
        assert result.dynamic_requests > 0
        # Dynamic requests bypass the cache: outcomes tile the served count.
        assert (
            result.cache_hits + result.cache_misses + result.dynamic_requests
            == result.num_requests
        )

    def test_static_trace_has_zero_dynamic(self):
        from repro.workload.synthetic import synthesize_trace

        trace = synthesize_trace(
            num_requests=2000,
            num_targets=300,
            total_bytes=32 * 2**20,
            zipf_alpha=1.0,
            seed=5,
        )
        result = _run_generator_path(
            trace, policy="lard", num_nodes=2, node_cache_bytes=2**19
        )
        assert result.dynamic_requests == 0

    @pytest.mark.parametrize(
        "config",
        [
            dict(policy="lard", num_nodes=4, node_cache_bytes=2**19),
            dict(policy="lard/r", num_nodes=4, node_cache_bytes=2**19),
            dict(policy="wrr", num_nodes=4, node_cache_bytes=2**19),
            dict(policy="chash", num_nodes=4, node_cache_bytes=2**19),
            dict(policy="pod/lc", num_nodes=4, node_cache_bytes=2**19),
        ],
        ids=lambda c: c["policy"],
    )
    def test_fastpath_byte_identity_on_cgi_trace(self, cgi_trace, config):
        fast = dataclasses.asdict(run_simulation(cgi_trace, **config))
        slow = dataclasses.asdict(_run_generator_path(cgi_trace, **config))
        assert fast == slow
        assert fast["dynamic_requests"] > 0

    def test_fastpath_still_selected_with_dynamic_table(self, cgi_trace):
        sim = ClusterSimulator(
            cgi_trace,
            ClusterConfig(policy="lard/r", num_nodes=4, node_cache_bytes=2**19),
        )
        sim.run()
        assert sim.frontend.conn_class is FastConnection

    def test_sanitized_run_matches_unsanitized(self, cgi_trace):
        plain = dataclasses.asdict(
            _run_generator_path(cgi_trace, policy="lard", num_nodes=4,
                                node_cache_bytes=2**19)
        )
        sanitized = dataclasses.asdict(
            _run_generator_path(cgi_trace, policy="lard", num_nodes=4,
                                node_cache_bytes=2**19, sanitize=True)
        )
        assert plain == sanitized

    def test_negative_dynamic_cost_rejected_by_cost_model(self):
        from repro.cluster.costs import CostModel

        with pytest.raises(ValueError, match="negative dynamic cost"):
            CostModel().dynamic_service_time(-0.5)
