"""Tests for trace persistence and the generic sweep utility."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import result_row, sweep, write_csv
from repro.workload import (
    Trace,
    TraceError,
    load_trace,
    rice_like_trace,
    save_trace,
    synthesize_trace,
)
from repro.workload.memo import TRACE_GENERATORS
from repro.workload.trace import token_dtype
from tests.seeded_mutation import assert_selected_tests_fail


def _same_trace(a, b):
    """Values, dtypes (tokens at their catalog's width, sizes int64),
    name and cost table all equal."""
    if a.cpu_cost_s_by_target is None or b.cpu_cost_s_by_target is None:
        costs_equal = a.cpu_cost_s_by_target is b.cpu_cost_s_by_target is None
    else:
        costs_equal = np.array_equal(a.cpu_cost_s_by_target, b.cpu_cost_s_by_target)
    return (
        costs_equal
        and a.name == b.name
        and a.targets.dtype == b.targets.dtype == token_dtype(a.num_targets)
        and a.sizes_by_target.dtype == b.sizes_by_target.dtype == np.int64
        and np.array_equal(a.targets, b.targets)
        and np.array_equal(a.sizes_by_target, b.sizes_by_target)
    )


def _stand_in(kind):
    """A 2000-request trace: format 1 (``rice``) or format 2 (``cgi``)."""
    if kind == "cgi":
        return TRACE_GENERATORS["cgi"](num_requests=2000, num_targets=300, total_bytes=2**22)
    return rice_like_trace(num_requests=2000, scale=0.05)


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """kind -> (trace, the bytes save_trace writes for it)."""
    directory = tmp_path_factory.mktemp("archives")
    archives = {}
    for kind in ("rice", "cgi"):
        trace = _stand_in(kind)
        archives[kind] = (trace, save_trace(trace, directory / kind).read_bytes())
    return archives


def _archive(path, **members):
    """A hand-made archive: a well-formed format-1 trace unless overridden."""
    arrays = dict(
        version=np.int64(1),
        targets=np.array([0, 1, 1]),
        sizes_by_target=np.array([10, 20]),
        name=np.bytes_(b"hand-made"),
    )
    arrays.update(members)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return path


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = synthesize_trace(500, 50, 10**6, 1.0, seed=2, name="round-trip")
        path = save_trace(trace, tmp_path / "t.npz")
        loaded = load_trace(path)
        assert np.array_equal(loaded.targets, trace.targets)
        assert np.array_equal(loaded.sizes_by_target, trace.sizes_by_target)
        assert loaded.name == "round-trip"

    def test_extension_appended(self, tmp_path):
        trace = Trace([0], [10], name="x")
        path = save_trace(trace, tmp_path / "plain")
        assert path.suffix == ".npz"
        assert load_trace(path).name == "x"

    def test_compression_effective(self, tmp_path):
        """Against the arrays at int64, the width they are used at."""
        trace = synthesize_trace(50_000, 100, 10**6, 1.0, seed=1)
        path = save_trace(trace, tmp_path / "big.npz")
        raw_bytes = 8 * (trace.num_requests + trace.num_targets)
        assert path.stat().st_size < raw_bytes / 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(tmp_path / "nope.npz")

    def test_wrong_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(TraceError, match="not a trace archive"):
            load_trace(path)

    def test_corrupted_content_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            version=np.int64(1),
            targets=np.array([5]),  # token out of catalog range
            sizes_by_target=np.array([10]),
            name=np.bytes_(b"bad"),
        )
        with pytest.raises(TraceError):
            load_trace(path)

    @pytest.mark.parametrize("kind", ["rice", "cgi"])
    def test_archive_cut_in_half_refused(self, archives, tmp_path, kind):
        original = archives[kind][1]
        path = tmp_path / "cut.npz"
        path.write_bytes(original[: len(original) // 2])
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(path)

    @pytest.mark.parametrize("kind", ["rice", "cgi"])
    def test_shrunk_shape_refused(self, archives, tmp_path, kind):
        """One flipped bit turns the token header's ``(2000,)`` into
        ``(0000,)``: the member then holds bytes its header does not
        declare, and the loader must not read it as an empty stream."""
        data = bytearray(archives[kind][1])
        digit = data.index(b"(2000,)", data.index(b"targets.npy")) + 1
        data[digit] ^= 0b10
        path = tmp_path / "shrunk.npz"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="more bytes than its header declares"):
            load_trace(path)

    def test_cost_table_renamed_away_refused(self, archives, tmp_path):
        """One byte of the central directory renames the cost table: the
        zip then reads cleanly as a static trace.  The format says
        otherwise."""
        data = bytearray(archives["cgi"][1])
        at = data.rindex(b"cpu_cost_s_by_target.npy")  # the directory entry
        data[at] ^= 0x01
        path = tmp_path / "renamed.npz"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="format 2 does not match"):
            load_trace(path)

    def test_integer_arrays_stored_narrow(self, tmp_path):
        trace = synthesize_trace(5000, 200, 10**6, 1.0, seed=2)
        path = save_trace(trace, tmp_path / "narrow.npz")
        with np.load(path) as archive:
            assert archive["targets"].dtype == np.uint8  # 200 targets
            assert archive["sizes_by_target"].dtype.itemsize < 8
        assert _same_trace(load_trace(path), trace)

    def test_empty_request_stream_round_trips(self, tmp_path):
        trace = Trace([], [10, 20], name="empty")
        assert _same_trace(load_trace(save_trace(trace, tmp_path / "e.npz")), trace)

    @pytest.mark.parametrize("kind", ["rice", "cgi"])
    def test_archive_written_the_old_way_loads_identically(self, tmp_path, kind):
        """Earlier versions wrote zlib-compressed int64 arrays: caches
        written by them keep working."""
        trace = _stand_in(kind)
        path = tmp_path / "old.npz"
        extra = {}
        if trace.cpu_cost_s_by_target is not None:
            extra["cpu_cost_s_by_target"] = trace.cpu_cost_s_by_target
        np.savez_compressed(
            path,
            version=np.int64(2 if extra else 1),
            targets=trace.targets.astype(np.int64),
            sizes_by_target=trace.sizes_by_target,
            name=np.bytes_(trace.name.encode("utf-8")),
            **extra,
        )
        assert _same_trace(load_trace(path), trace)

    @pytest.mark.parametrize(
        "members, complaint",
        [
            (dict(targets=np.array([0.5, 1.0])), "targets must be an integer array"),
            (dict(sizes_by_target=np.array([10.0, 20.0])), "sizes_by_target must be an integer"),
            (dict(targets=np.array([True, False])), "targets must be an integer array"),
            (dict(name=np.array([104, 105])), "name must be a bytes scalar"),
            (dict(name=np.array([b"a", b"b"])), "name must be a bytes scalar"),
            (dict(name=np.str_("unicode")), "name must be a bytes scalar"),
            (dict(version=np.array([1, 2])), "version must be an integer scalar"),
            (dict(version=np.float64(1.5)), "version must be an integer scalar"),
            (dict(targets=np.int64(0)), "targets must be an integer array"),
            (dict(cpu_cost_s_by_target=np.array([b"x", b"y"]), version=np.int64(2)),
             "cpu_cost_s_by_target must be a numeric array"),
            (dict(cpu_cost_s_by_target=np.array([0.0, 0.1])), "format 1 does not match"),
            (dict(version=np.int64(2)), "format 2 does not match"),
            (dict(name=np.bytes_(b"\xff\xfe")), "not UTF-8"),
            (dict(targets=None), "missing targets"),
        ],
    )
    def test_garbage_member_refused_in_one_line(self, tmp_path, members, complaint):
        """No clamp, no cast, no bare TypeError at the archive boundary."""
        with pytest.raises(TraceError, match=complaint) as caught:
            load_trace(_archive(tmp_path / "garbage.npz", **members))
        assert "\n" not in str(caught.value)

    def test_integer_members_of_any_width_accepted(self, tmp_path):
        path = _archive(
            tmp_path / "widths.npz",
            version=np.uint8(1),
            targets=np.array([0, 1, 1], dtype=np.int16),
            sizes_by_target=np.array([10, 20], dtype=np.uint32),
        )
        assert _same_trace(load_trace(path), Trace([0, 1, 1], [10, 20], name="hand-made"))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.npz"
        np.savez(
            path,
            version=np.int64(9),
            targets=np.array([0]),
            sizes_by_target=np.array([10]),
            name=np.bytes_(b"v9"),
        )
        with pytest.raises(TraceError, match="version"):
            load_trace(path)


def _mutate(original, how, position, payload):
    data = bytearray(original)
    position %= len(data)
    if how == "truncate":
        del data[position:]
    elif how == "flip":
        data[position] ^= 1 << (payload[0] % 8)
    elif how == "splice":
        data[position : position + 8] = payload[:8].ljust(8, b"\0")
    else:
        data += payload
    return bytes(data)


@pytest.mark.parametrize("kind", ["rice", "cgi"])
@settings(max_examples=150, deadline=None)
@given(
    how=st.sampled_from(["truncate", "flip", "splice", "append"]),
    position=st.integers(min_value=0),
    payload=st.binary(min_size=1, max_size=16),
)
def test_damaged_archive_is_refused_or_loads_unchanged(
    archives, tmp_path_factory, kind, how, position, payload
):
    """Any byte damage to a 2000-request archive either raises
    TraceError or (damage the zip does not read, such as a timestamp or
    trailing bytes) loads the original trace: never another exception,
    never different data."""
    trace, original = archives[kind]
    damaged = tmp_path_factory.mktemp("damaged") / "damaged.npz"
    damaged.write_bytes(_mutate(original, how, position, payload))
    try:
        loaded = load_trace(damaged)
    except TraceError as refused:
        assert "\n" not in str(refused)
    else:
        assert _same_trace(loaded, trace)


@pytest.mark.parametrize(
    "anchor, replacement",
    [
        # Map only what np.load documents: a cut zip escapes as BadZipFile.
        ("except _UNREADABLE as exc:", "except (OSError, ValueError) as exc:"),
        # Cast whatever dtype arrives, as np.asarray(..., int64) would.
        ("if values.dtype.kind not in kinds or", "if False and"),
        # Trust the member list: a renamed cost table reads as static.
        ("if (version == _FORMAT_VERSION) != (_OPTIONAL in arrays):", "if False:"),
    ],
    ids=["unmapped-zip-errors", "no-dtype-check", "no-format-check"],
)
def test_boundary_checks_catch_a_seeded_mutation(tmp_path, anchor, replacement):
    assert_selected_tests_fail(
        tmp_path, "workload/io.py", anchor, replacement, __file__,
        "cut_in_half or garbage_member or renamed_away",
    )


@pytest.fixture(scope="module")
def small_trace():
    return synthesize_trace(2000, 200, 4 * 10**6, 1.0, seed=3)


class TestSweep:
    def test_cross_product_size(self, small_trace):
        rows = sweep(
            small_trace,
            policy=["wrr", "lard"],
            num_nodes=[1, 2],
            node_cache_bytes=256 * 1024,
        )
        assert len(rows) == 4
        combos = {(r["policy"], r["num_nodes"]) for r in rows}
        assert combos == {("wrr", 1), ("wrr", 2), ("lard", 1), ("lard", 2)}

    def test_rows_carry_metrics(self, small_trace):
        rows = sweep(small_trace, policy="wrr", num_nodes=2, node_cache_bytes=256 * 1024)
        row = rows[0]
        assert row["throughput_rps"] > 0
        assert 0 <= row["cache_miss_ratio"] <= 1
        assert row["num_requests"] == 2000

    def test_scalar_vs_list_equivalent(self, small_trace):
        a = sweep(small_trace, policy="wrr", num_nodes=2, node_cache_bytes=256 * 1024)
        b = sweep(small_trace, policy=["wrr"], num_nodes=[2], node_cache_bytes=256 * 1024)
        assert a[0]["throughput_rps"] == b[0]["throughput_rps"]

    def test_empty_sweep_rejected(self, small_trace):
        with pytest.raises(ValueError):
            sweep(small_trace)

    def test_result_row_merges_parameters(self, small_trace):
        from repro.cluster import run_simulation

        result = run_simulation(
            small_trace, policy="wrr", num_nodes=2, node_cache_bytes=256 * 1024
        )
        row = result_row(result, {"custom": 7})
        assert row["custom"] == 7
        assert row["policy"] == "wrr"


class TestWriteCsv:
    def test_csv_written_and_parseable(self, small_trace, tmp_path):
        rows = sweep(
            small_trace,
            policy=["wrr", "lard"],
            num_nodes=2,
            node_cache_bytes=256 * 1024,
        )
        path = write_csv(rows, tmp_path / "out.csv")
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 2
        assert {r["policy"] for r in parsed} == {"wrr", "lard"}
        assert float(parsed[0]["throughput_rps"]) > 0

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")


class TestWriteCsvFormatting:
    def _rows(self):
        return [
            {"policy": "wrr", "num_nodes": 2, "throughput_rps": 123.456789012345},
            {"policy": "lard", "num_nodes": 4, "throughput_rps": 0.1 + 0.2},
        ]

    def test_explicit_column_order(self, tmp_path):
        path = write_csv(
            self._rows(), tmp_path / "out.csv", columns=["throughput_rps", "policy"]
        )
        header = path.read_text().splitlines()[0]
        assert header == "throughput_rps,policy"  # num_nodes dropped, order kept

    def test_missing_column_left_empty(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3}]
        path = write_csv(rows, tmp_path / "out.csv", columns=["a", "b"])
        assert path.read_text().splitlines() == ["a,b", "1,2", "3,"]

    def test_floats_formatted_stably(self, tmp_path):
        path = write_csv(self._rows(), tmp_path / "out.csv")
        body = path.read_text()
        # .10g normalizes float repr: 0.1 + 0.2 prints as 0.3, not 0.30000000000000004.
        assert "0.30000000000000004" not in body
        assert "0.3" in body

    def test_format_override(self, tmp_path):
        path = write_csv(self._rows(), tmp_path / "out.csv", float_format=".2f")
        with path.open() as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["throughput_rps"] == "123.46"

    def test_identical_rows_identical_bytes(self, tmp_path):
        a = write_csv(self._rows(), tmp_path / "a.csv")
        b = write_csv(self._rows(), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()
