"""Unit tests for hot-target injection (Section 4.2 workloads)."""

import numpy as np
import pytest

from repro.workload import Trace, inject_hot_targets


def _base(n=10_000):
    rng = np.random.default_rng(0)
    return Trace(rng.integers(0, 100, n), rng.integers(100, 1000, 100), name="base")


def test_request_count_preserved():
    base = _base()
    hot = inject_hot_targets(base, num_hot=3, hot_fraction=0.1, hot_size_bytes=5000)
    assert len(hot) == len(base)


def test_catalog_extended_by_num_hot():
    base = _base()
    hot = inject_hot_targets(base, num_hot=3, hot_fraction=0.1, hot_size_bytes=5000)
    assert hot.num_targets == base.num_targets + 3
    assert hot.sizes_by_target[-3:].tolist() == [5000, 5000, 5000]


def test_hot_fraction_is_respected():
    base = _base(50_000)
    hot = inject_hot_targets(base, num_hot=4, hot_fraction=0.08, hot_size_bytes=5000, seed=1)
    hot_requests = (hot.targets >= base.num_targets).sum()
    assert hot_requests / len(hot) == pytest.approx(0.08, abs=0.001)


def test_base_trace_unchanged():
    base = _base()
    before = base.targets.copy()
    inject_hot_targets(base, num_hot=2, hot_fraction=0.05, hot_size_bytes=1000)
    assert np.array_equal(base.targets, before)


def test_hot_requests_spread_over_hot_targets():
    base = _base(50_000)
    hot = inject_hot_targets(base, num_hot=5, hot_fraction=0.2, hot_size_bytes=1000, seed=2)
    counts = hot.request_counts()[-5:]
    assert (counts > 0).all()
    # Roughly uniform across hot targets.
    assert counts.max() < counts.min() * 1.5


def test_deterministic_by_seed():
    base = _base()
    a = inject_hot_targets(base, num_hot=2, hot_fraction=0.1, hot_size_bytes=100, seed=9)
    b = inject_hot_targets(base, num_hot=2, hot_fraction=0.1, hot_size_bytes=100, seed=9)
    assert np.array_equal(a.targets, b.targets)


def test_name_mentions_injection():
    hot = inject_hot_targets(_base(), num_hot=2, hot_fraction=0.1, hot_size_bytes=100)
    assert "hot" in hot.name


def test_validation():
    base = _base()
    with pytest.raises(ValueError):
        inject_hot_targets(base, num_hot=0, hot_fraction=0.1, hot_size_bytes=100)
    with pytest.raises(ValueError):
        inject_hot_targets(base, num_hot=1, hot_fraction=0.0, hot_size_bytes=100)
    with pytest.raises(ValueError):
        inject_hot_targets(base, num_hot=1, hot_fraction=1.0, hot_size_bytes=100)
    with pytest.raises(ValueError):
        inject_hot_targets(base, num_hot=1, hot_fraction=0.1, hot_size_bytes=0)
    tiny = Trace([0], [10])
    with pytest.raises(ValueError):
        inject_hot_targets(tiny, num_hot=1, hot_fraction=0.001, hot_size_bytes=100)


def test_hot_ids_past_a_uint8_catalog_are_not_wrapped():
    """256 base targets are stored a byte each; the hot ids 256.. are not,
    and a byte-wide copy would store them as 0, 1, 2."""
    rng = np.random.default_rng(3)
    base = Trace(rng.integers(0, 256, 20_000), np.full(256, 500), name="base")
    assert base.targets.dtype == np.uint8
    hot = inject_hot_targets(base, num_hot=3, hot_fraction=0.1, hot_size_bytes=5000, seed=4)
    redirected = hot.targets != base.targets
    assert set(hot.targets[redirected].tolist()) <= {256, 257, 258}
    assert (hot.targets >= 256).sum() == 2000
    assert np.array_equal(hot.targets[hot.targets < 256], base.targets[hot.targets < 256])
