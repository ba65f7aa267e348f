"""Tests for disk-backed trace memoization (repro.workload.memo)."""

import hashlib
import time

import numpy as np
import pytest

from repro.workload import (
    cached_trace,
    clear_trace_cache,
    load_trace,
    rice_like_trace,
    save_trace,
    trace_cache_dir,
    trace_cache_key,
)
from repro.workload.memo import _DISABLED, _MEMO_VERSION, TRACE_GENERATORS
from repro.workload.trace import token_dtype


class TestCacheKey:
    def test_stable_across_param_order(self):
        a = trace_cache_key("rice", {"num_requests": 100, "scale": 0.1})
        b = trace_cache_key("rice", {"scale": 0.1, "num_requests": 100})
        assert a == b

    def test_distinct_params_distinct_keys(self):
        a = trace_cache_key("rice", {"num_requests": 100})
        b = trace_cache_key("rice", {"num_requests": 200})
        c = trace_cache_key("ibm", {"num_requests": 100})
        assert len({a, b, c}) == 3


class TestCachedTrace:
    def test_roundtrip_identical(self, tmp_path):
        fresh = cached_trace("rice", cache_dir=tmp_path, num_requests=1000, scale=0.1)
        assert len(list(tmp_path.glob("*.npz"))) == 1
        reloaded = cached_trace("rice", cache_dir=tmp_path, num_requests=1000, scale=0.1)
        assert np.array_equal(fresh.targets, reloaded.targets)
        assert np.array_equal(fresh.sizes_by_target, reloaded.sizes_by_target)
        assert fresh.name == reloaded.name

    def test_matches_direct_generation(self, tmp_path):
        direct = TRACE_GENERATORS["rice"](num_requests=1000, scale=0.1)
        cached = cached_trace("rice", cache_dir=tmp_path, num_requests=1000, scale=0.1)
        cached2 = cached_trace("rice", cache_dir=tmp_path, num_requests=1000, scale=0.1)
        for trace in (cached, cached2):
            assert np.array_equal(direct.targets, trace.targets)
            assert np.array_equal(direct.sizes_by_target, trace.sizes_by_target)

    def test_corrupt_entry_regenerated(self, tmp_path):
        cached_trace("chess", cache_dir=tmp_path, num_requests=500)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not a numpy archive")
        trace = cached_trace("chess", cache_dir=tmp_path, num_requests=500)
        assert len(trace) == 500

    def test_truncated_entry_regenerated_and_rewritten(self, tmp_path):
        """An entry cut short (a disk that filled, a cache copied while
        being written) is a zip without its central directory."""
        good = cached_trace("rice", cache_dir=tmp_path, num_requests=2000, scale=0.05)
        (entry,) = tmp_path.glob("*.npz")
        whole = entry.read_bytes()
        entry.write_bytes(whole[: len(whole) // 2])
        trace = cached_trace("rice", cache_dir=tmp_path, num_requests=2000, scale=0.05)
        assert np.array_equal(trace.targets, good.targets)
        assert np.array_equal(trace.sizes_by_target, good.sizes_by_target)
        assert entry.stat().st_size == len(whole)
        assert np.array_equal(load_trace(entry).targets, good.targets)

    def test_writing_costs_less_than_generating(self, tmp_path):
        """The memo exists to skip generation: storing the ledger's
        ``ref-8n`` trace (100k requests) must cost less than making it.
        Best of three on each side; the margin is about twentyfold."""

        def best_of_three(action):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                action()
                times.append(time.perf_counter() - start)
            return min(times)

        params = dict(num_requests=100_000, scale=0.1, seed=1)
        generate = best_of_three(lambda: rice_like_trace(**params))
        trace = rice_like_trace(**params)
        write = best_of_three(lambda: save_trace(trace, tmp_path / "ref-8n.npz"))
        assert write < generate, f"write {write * 1e3:.1f} ms, generate {generate * 1e3:.1f} ms"

    def test_stale_format_entry_regenerated(self, tmp_path):
        good = cached_trace("chess", cache_dir=tmp_path, num_requests=500)
        (entry,) = tmp_path.glob("*.npz")
        # Rewrite the entry as a future trace-format version: the loader
        # must refuse it and cached_trace must regenerate, not crash.
        np.savez_compressed(
            entry,
            version=np.int64(99),
            targets=good.targets,
            sizes_by_target=good.sizes_by_target,
            name=np.bytes_(b"chess"),
        )
        trace = cached_trace("chess", cache_dir=tmp_path, num_requests=500)
        assert np.array_equal(trace.targets, good.targets)
        with np.load(entry) as archive:
            assert int(archive["version"]) != 99  # entry was rewritten

    def test_dynamic_trace_roundtrips_cost_table(self, tmp_path):
        fresh = cached_trace(
            "cgi",
            cache_dir=tmp_path,
            num_requests=500,
            num_targets=100,
            total_bytes=2**20,
        )
        reloaded = cached_trace(
            "cgi",
            cache_dir=tmp_path,
            num_requests=500,
            num_targets=100,
            total_bytes=2**20,
        )
        assert fresh.cpu_cost_s_by_target is not None
        assert np.array_equal(
            fresh.cpu_cost_s_by_target, reloaded.cpu_cost_s_by_target
        )

    def test_refresh_rewrites(self, tmp_path):
        cached_trace("chess", cache_dir=tmp_path, num_requests=500)
        (entry,) = tmp_path.glob("*.npz")
        before = entry.stat().st_mtime_ns
        cached_trace("chess", cache_dir=tmp_path, refresh=True, num_requests=500)
        assert entry.stat().st_mtime_ns >= before

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace kind"):
            cached_trace("nope", cache_dir=tmp_path)

    def test_clear_cache_counts(self, tmp_path):
        cached_trace("chess", cache_dir=tmp_path, num_requests=500)
        cached_trace("chess", cache_dir=tmp_path, num_requests=600)
        assert clear_trace_cache(tmp_path) == 2
        assert clear_trace_cache(tmp_path) == 0


class TestEnvironmentControl:
    @pytest.mark.parametrize("sentinel", sorted(_DISABLED))
    def test_every_disabled_sentinel(self, sentinel, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", sentinel)
        assert trace_cache_dir() is None

    @pytest.mark.parametrize("sentinel", ["OFF", " none ", "Disabled"])
    def test_sentinels_are_case_and_space_insensitive(self, sentinel, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", sentinel)
        assert trace_cache_dir() is None

    def test_disabled_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        assert trace_cache_dir() is None
        trace = cached_trace("chess", num_requests=500)
        assert len(trace) == 500  # plain generation, no files written

    def test_env_overrides_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "custom"))
        assert trace_cache_dir() == tmp_path / "custom"
        cached_trace("chess", num_requests=500)
        assert len(list((tmp_path / "custom").glob("*.npz"))) == 1

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert trace_cache_dir() == tmp_path / "repro-lard" / "traces"


# Canonical small invocation per registered generator, used by the
# golden-digest gate below.  Every TRACE_GENERATORS entry must appear.
_GOLDEN_PARAMS = {
    "rice": dict(num_requests=500, scale=0.05),
    "ibm": dict(num_requests=500, scale=0.05),
    "chess": dict(num_requests=500),
    "synthetic": dict(
        num_requests=500, num_targets=100, total_bytes=2**20, zipf_alpha=1.0, seed=3
    ),
    "flash": dict(num_requests=500, num_targets=100, total_bytes=2**20),
    "diurnal": dict(num_requests=500, num_targets=100, total_bytes=2**20),
    "drift": dict(num_requests=500, num_targets=100, total_bytes=2**20),
    "cgi": dict(num_requests=500, num_targets=100, total_bytes=2**20),
    "tenants": dict(num_requests=500, targets_per_tenant=50, bytes_per_tenant=2**19),
}

# Content digests of the canonical invocations, keyed by _MEMO_VERSION.
# Changing any generator's output for identical parameters is a cache
# compatibility break: re-record the digests here under a BUMPED
# _MEMO_VERSION (never edit an existing version's digests in place).
_GOLDEN_DIGESTS = {
    2: {
        "rice": "ff5037047e4f25a5",
        "ibm": "136a6db658c71583",
        "chess": "a40bd63c8474e791",
        "synthetic": "5352921aa36904d3",
        "flash": "de68a6987dc7554a",
        "diurnal": "aba636f4863248fc",
        "drift": "7f216e40caed5edc",
        "cgi": "0046b8840af0c9b5",
        "tenants": "884722083a4ac4ad",
    },
}


def _content_digest(trace):
    """Tokens are hashed at int64, the width the digests were recorded at:
    a change of storage width alone is not a change of output."""
    digest = hashlib.sha256()
    digest.update(trace.targets.astype(np.int64).tobytes())
    digest.update(trace.sizes_by_target.tobytes())
    if trace.cpu_cost_s_by_target is not None:
        digest.update(trace.cpu_cost_s_by_target.tobytes())
    return digest.hexdigest()[:16]


class TestMemoVersionGoldenDigests:
    def test_current_version_has_goldens(self):
        assert _MEMO_VERSION in _GOLDEN_DIGESTS, (
            f"_MEMO_VERSION was bumped to {_MEMO_VERSION}: record the new "
            "golden digests in tests/test_workload_memo.py"
        )

    def test_every_generator_has_a_golden(self):
        assert set(_GOLDEN_PARAMS) == set(TRACE_GENERATORS)
        assert set(_GOLDEN_DIGESTS[_MEMO_VERSION]) == set(TRACE_GENERATORS)

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_PARAMS))
    def test_generator_output_matches_golden(self, kind):
        trace = TRACE_GENERATORS[kind](**_GOLDEN_PARAMS[kind])
        assert _content_digest(trace) == _GOLDEN_DIGESTS[_MEMO_VERSION][kind], (
            f"generator {kind!r} now produces different output for identical "
            "parameters; bump _MEMO_VERSION in repro/workload/memo.py and "
            "re-record the golden digests (stale disk-cache entries would "
            "otherwise be replayed as current)"
        )

    @pytest.mark.parametrize("kind", sorted(_GOLDEN_PARAMS))
    def test_generator_output_survives_the_archive(self, kind, tmp_path):
        """Values, dtypes (tokens at their catalog's width, sizes int64),
        name and cost table, exactly."""
        trace = TRACE_GENERATORS[kind](**_GOLDEN_PARAMS[kind])
        loaded = load_trace(save_trace(trace, tmp_path / kind))
        assert loaded.name == trace.name
        widths = {"targets": token_dtype(trace.num_targets), "sizes_by_target": np.int64}
        for field, dtype in widths.items():
            assert getattr(trace, field).dtype == getattr(loaded, field).dtype == dtype
            assert np.array_equal(getattr(loaded, field), getattr(trace, field))
        if trace.cpu_cost_s_by_target is None:
            assert loaded.cpu_cost_s_by_target is None
        else:
            assert loaded.cpu_cost_s_by_target.tobytes() == trace.cpu_cost_s_by_target.tobytes()
        assert _content_digest(loaded) == _GOLDEN_DIGESTS[_MEMO_VERSION][kind]

    def test_cache_key_depends_on_memo_version(self, monkeypatch):
        import repro.workload.memo as memo

        before = trace_cache_key("rice", {"num_requests": 100})
        monkeypatch.setattr(memo, "_MEMO_VERSION", _MEMO_VERSION + 1)
        assert trace_cache_key("rice", {"num_requests": 100}) != before


# The goldens above are 500-request calls, which never cross a draw
# chunk (``synthetic._CHUNK``, 65 536 requests).  These pins do: about
# three chunks each, recorded on 24619da.  Both flash windows straddle
# chunk boundaries; the second runs off the end of the stream.
_N = 200_003
_CATALOG = dict(num_requests=_N, num_targets=3000, total_bytes=64 * 2**20)
_CHUNK_CROSSING = {
    "synthetic": (
        "synthetic",
        dict(_CATALOG, zipf_alpha=0.9, burst_fraction=0.2, burst_focus=10,
             burst_window=7001, seed=5),
        "80aa286b2f5b2db6c75c77516c125fa8468fca92c7faf122c2b03d3cdcdd645b",
    ),
    "flash": (
        "flash",
        dict(_CATALOG, hot_targets=8, peak_fraction=0.6, onset_fraction=0.31,
             peak_length_fraction=0.2, seed=11),
        "eb6221b5bec42a868986ba8eaa07bb4705da20defcd28866a861d4ede7962201",
    ),
    "flash-tail": (
        "flash",
        dict(_CATALOG, onset_fraction=0.75, seed=16),
        "370c67f3396719bb82b2d4c2cabc6ab02a1e24fe8b65458f66e7afcfc0ff2061",
    ),
    "diurnal": (
        "diurnal",
        dict(_CATALOG, seed=12),
        "504cf758b56ed9bda24b726a0ca382c3c86d602986e71c9c27db5807a766ac60",
    ),
    "drift": (
        "drift",
        dict(_CATALOG, seed=13),
        "10d0fdf33e7e003f651e51cbe1de00b93899237085c3aa79b55e2a46f8838181",
    ),
    "cgi": (
        "cgi",
        dict(_CATALOG, zipf_alpha=1.0, dynamic_fraction=0.15, cpu_cost_s=0.02, seed=14),
        "b9b0d8f7abb20fbd9891b6ab9ee6f1f421bd9acc1da2f23768767be92ffd720d",
    ),
    "tenants": (
        "tenants",
        dict(num_requests=_N, targets_per_tenant=1000, bytes_per_tenant=16 * 2**20, seed=15),
        "e1fc99f131d6667ffeb2344e439f15b1d6e074ceeab28c9ba370e14d38c47b80",
    ),
}


@pytest.mark.parametrize("label", sorted(_CHUNK_CROSSING))
def test_a_chunk_crossing_generation_matches_its_pin(label):
    """Name, token dtype, tokens, sizes and cost table, byte for byte."""
    kind, params, pin = _CHUNK_CROSSING[label]
    trace = TRACE_GENERATORS[kind](**params)
    digest = hashlib.sha256()
    digest.update(trace.name.encode())
    digest.update(trace.targets.dtype.str.encode())
    digest.update(trace.targets.tobytes())
    digest.update(trace.sizes_by_target.tobytes())
    if trace.cpu_cost_s_by_target is not None:
        digest.update(trace.cpu_cost_s_by_target.tobytes())
    assert digest.hexdigest() == pin
