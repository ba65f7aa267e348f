"""Unit tests for the synthetic trace generators."""

import numpy as np
import pytest

from repro.workload import (
    chess_like_trace,
    coverage_bytes,
    ibm_like_trace,
    rice_like_trace,
    synthesize_trace,
    zipf_weights,
)
from repro.workload.synthetic import _CHUNK, IBM_NUM_FILES, RICE_NUM_FILES, draw_tokens


@pytest.mark.parametrize("size", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
@pytest.mark.parametrize("num_targets", [1, 300, RICE_NUM_FILES])
def test_draw_tokens_is_numpy_choice_value_for_value(num_targets, size):
    """The chunked sampler against the installed numpy's own
    ``choice(n, size, p)``: equal draws, and the generator left at the
    same point of its stream for whatever is drawn next."""
    popularity = zipf_weights(num_targets, 0.9)
    ours, numpys = np.random.default_rng(17), np.random.default_rng(17)
    drawn = draw_tokens(ours, popularity, np.empty(size, dtype=np.uint16))
    expected = numpys.choice(num_targets, size=size, p=popularity)
    assert drawn.dtype == np.uint16
    assert np.array_equal(drawn, expected)
    assert ours.bit_generator.state == numpys.bit_generator.state


class TestZipfWeights:
    def test_normalized(self):
        weights = zipf_weights(100, 1.0)
        assert weights.sum() == pytest.approx(1.0)

    def test_monotonically_decreasing(self):
        weights = zipf_weights(50, 0.9)
        assert np.all(np.diff(weights) <= 0)

    def test_alpha_zero_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_steeper_alpha_concentrates_head(self):
        flat = zipf_weights(1000, 0.5)
        steep = zipf_weights(1000, 1.5)
        assert steep[:10].sum() > flat[:10].sum()

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -0.5)


class TestSynthesize:
    def test_shape_and_catalog(self):
        trace = synthesize_trace(1000, 200, 10**6, 1.0, seed=1)
        assert len(trace) == 1000
        assert trace.num_targets == 200

    def test_total_bytes_close_to_requested(self):
        trace = synthesize_trace(10, 500, 10**7, 1.0, seed=1)
        assert trace.total_bytes == pytest.approx(10**7, rel=0.05)

    def test_deterministic_for_same_seed(self):
        a = synthesize_trace(500, 100, 10**6, 1.0, seed=7)
        b = synthesize_trace(500, 100, 10**6, 1.0, seed=7)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.sizes_by_target, b.sizes_by_target)

    def test_different_seeds_differ(self):
        a = synthesize_trace(500, 100, 10**6, 1.0, seed=1)
        b = synthesize_trace(500, 100, 10**6, 1.0, seed=2)
        assert not np.array_equal(a.targets, b.targets)

    def test_token_zero_is_most_popular(self):
        trace = synthesize_trace(20_000, 50, 10**6, 1.2, seed=3)
        counts = trace.request_counts()
        assert counts[0] == counts.max()

    def test_negative_correlation_makes_popular_files_small(self):
        trace = synthesize_trace(
            100, 1000, 10**7, 1.0, size_popularity_correlation=-1.0, seed=4
        )
        sizes = trace.sizes_by_target
        assert sizes[:100].mean() < sizes[-100:].mean()

    def test_positive_correlation_makes_popular_files_large(self):
        trace = synthesize_trace(
            100, 1000, 10**7, 1.0, size_popularity_correlation=+1.0, seed=4
        )
        sizes = trace.sizes_by_target
        assert sizes[:100].mean() > sizes[-100:].mean()

    def test_min_max_file_bounds(self):
        trace = synthesize_trace(
            10, 500, 10**7, 1.0, min_file_bytes=1000, max_file_bytes=100_000, seed=5
        )
        assert trace.sizes_by_target.min() >= 1000
        # max may exceed after the post-clip renormalization; allow slack
        assert trace.sizes_by_target.max() <= 130_000

    def test_burstiness_validation(self):
        with pytest.raises(ValueError):
            synthesize_trace(10, 10, 1000, 1.0, burst_fraction=1.5)
        with pytest.raises(ValueError):
            synthesize_trace(10, 10, 1000, 1.0, burst_fraction=0.5, burst_focus=0)

    def test_burstiness_concentrates_windows(self):
        plain = synthesize_trace(40_000, 5000, 10**7, 0.8, seed=6)
        bursty = synthesize_trace(
            40_000,
            5000,
            10**7,
            0.8,
            burst_fraction=0.5,
            burst_focus=5,
            burst_window=10_000,
            seed=6,
        )
        # Within one window, the bursty trace's top-5 targets take a much
        # larger request share than the plain trace's.
        def window_top5_share(trace):
            window = trace.targets[:10_000]
            counts = np.bincount(window, minlength=trace.num_targets)
            return np.sort(counts)[-5:].sum() / len(window)

        assert window_top5_share(bursty) > window_top5_share(plain) + 0.2

    def test_negative_requests_rejected(self):
        with pytest.raises(ValueError):
            synthesize_trace(-1, 10, 1000, 1.0)

    def test_correlation_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            synthesize_trace(10, 10, 1000, 1.0, size_popularity_correlation=2.0)


class TestPaperTraces:
    def test_rice_matches_published_catalog(self):
        trace = rice_like_trace(num_requests=1000, scale=1.0)
        assert trace.num_targets == RICE_NUM_FILES
        assert trace.total_bytes == pytest.approx(1418 * 2**20, rel=0.02)

    def test_ibm_matches_published_catalog(self):
        trace = ibm_like_trace(num_requests=1000, scale=1.0)
        assert trace.num_targets == IBM_NUM_FILES
        assert trace.total_bytes == pytest.approx(1029 * 2**20, rel=0.02)

    def test_scale_shrinks_catalog_and_bytes_together(self):
        full = rice_like_trace(num_requests=10, scale=1.0)
        quarter = rice_like_trace(num_requests=10, scale=0.25)
        assert quarter.num_targets == pytest.approx(full.num_targets * 0.25, rel=0.01)
        assert quarter.total_bytes == pytest.approx(full.total_bytes * 0.25, rel=0.05)

    def test_ibm_has_more_locality_than_rice(self):
        """The paper's key trace contrast (Section 3.2)."""
        rice = rice_like_trace(num_requests=60_000, scale=0.25)
        ibm = ibm_like_trace(num_requests=60_000, scale=0.25)
        rice_cov = coverage_bytes(rice, 0.97) / rice.total_bytes
        ibm_cov = coverage_bytes(ibm, 0.97) / ibm.total_bytes
        assert ibm_cov < rice_cov * 0.75

    def test_ibm_files_smaller_on_average_transfer(self):
        rice = rice_like_trace(num_requests=30_000, scale=0.25)
        ibm = ibm_like_trace(num_requests=30_000, scale=0.25)
        assert ibm.mean_transfer_bytes < rice.mean_transfer_bytes

    def test_chess_working_set_fits_one_node_cache(self):
        """Best case for WRR: tiny working set (paper Section 4.2)."""
        chess = chess_like_trace(num_requests=30_000)
        # At the default experiment scale the node cache is 8 MB; 99% of
        # chess requests fit comfortably inside it.
        assert coverage_bytes(chess, 0.99) < 32 * 2**20 * 0.25
        assert chess.total_bytes < 32 * 2**20
