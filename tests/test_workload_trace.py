"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.workload import Request, Trace, TraceError


def _trace():
    return Trace([0, 1, 0, 2, 0], [100, 200, 300], name="t")


def test_len_and_iteration():
    trace = _trace()
    assert len(trace) == 5
    requests = list(trace)
    assert requests[0] == Request(0, 100)
    assert requests[3] == Request(2, 300)


def test_getitem():
    trace = _trace()
    assert trace[1] == Request(1, 200)
    assert trace[-1] == Request(0, 100)


def test_aggregate_stats():
    trace = _trace()
    assert trace.num_requests == 5
    assert trace.num_targets == 3
    assert trace.num_distinct_requested == 3
    assert trace.total_bytes == 600
    assert trace.transferred_bytes == 100 * 3 + 200 + 300
    assert trace.mean_file_bytes == pytest.approx(200.0)
    assert trace.mean_transfer_bytes == pytest.approx(800 / 5)


def test_request_counts():
    counts = _trace().request_counts()
    assert counts.tolist() == [3, 1, 1]


def test_counts_include_never_requested_targets():
    trace = Trace([0], [10, 20, 30])
    assert trace.request_counts().tolist() == [1, 0, 0]
    assert trace.num_distinct_requested == 1


def test_head_and_slice_share_catalog():
    trace = _trace()
    head = trace.head(2)
    assert len(head) == 2
    assert head.num_targets == 3
    middle = trace.slice(1, 3)
    assert [r.target for r in middle] == [1, 0]


class TestHeadSliceBounds:
    """Regression tests: head/slice used to clamp silently via numpy."""

    def test_head_beyond_length_rejected(self):
        with pytest.raises(TraceError, match=r"head\(6\)"):
            _trace().head(6)

    def test_head_negative_rejected(self):
        with pytest.raises(TraceError, match=r"head\(-1\)"):
            _trace().head(-1)

    def test_head_full_length_allowed(self):
        assert len(_trace().head(5)) == 5
        assert len(_trace().head(0)) == 0

    def test_slice_start_after_stop_rejected(self):
        with pytest.raises(TraceError, match=r"slice\(3, 1\)"):
            _trace().slice(3, 1)

    def test_slice_stop_beyond_length_rejected(self):
        with pytest.raises(TraceError, match=r"slice\(0, 9\)"):
            _trace().slice(0, 9)

    def test_slice_negative_indices_rejected(self):
        with pytest.raises(TraceError, match=r"slice\(-1, 3\)"):
            _trace().slice(-1, 3)
        with pytest.raises(TraceError, match=r"slice\(0, -1\)"):
            _trace().slice(0, -1)

    def test_slice_full_range_allowed(self):
        assert len(_trace().slice(0, 5)) == 5
        assert len(_trace().slice(2, 2)) == 0


def test_request_sizes_vectorized():
    assert _trace().request_sizes().tolist() == [100, 200, 100, 300, 100]


def test_empty_request_stream_is_legal():
    trace = Trace([], [10])
    assert len(trace) == 0
    assert trace.transferred_bytes == 0
    assert trace.mean_transfer_bytes == 0.0


def test_describe_mentions_counts():
    text = _trace().describe()
    assert "5 reqs" in text
    assert "3 files" in text


def test_token_out_of_range_rejected():
    with pytest.raises(TraceError):
        Trace([0, 5], [10, 20])
    with pytest.raises(TraceError):
        Trace([-1], [10])


def test_negative_size_rejected():
    with pytest.raises(TraceError):
        Trace([0], [-5])


def test_empty_catalog_rejected():
    with pytest.raises(TraceError):
        Trace([], [])


def test_non_1d_rejected():
    with pytest.raises(TraceError):
        Trace(np.zeros((2, 2), dtype=int), [10])


@pytest.mark.parametrize(
    "tokens",
    [[0.7, 1.2], np.array([0.0, 1.0]), np.array([True, False]), np.array(["0", "1"])],
    ids=["float-list", "whole-floats", "booleans", "strings"],
)
def test_non_integer_tokens_refused_in_one_line(tokens):
    """Refused, not truncated: ``[0.7, 1.2]`` is not a stream over
    targets 0 and 1, as the archive loader already holds."""
    with pytest.raises(TraceError, match="request tokens must be integers") as caught:
        Trace(tokens, [10, 10])
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize(
    "num_targets, dtype",
    [(1, np.uint8), (256, np.uint8), (257, np.uint16), (37_703, np.uint16),
     (65_536, np.uint16), (65_537, np.uint32)],
)
def test_tokens_are_stored_at_their_catalog_width(num_targets, dtype):
    """The width follows the catalog, not the tokens the stream happens
    to hold, so every trace over one catalog stores alike."""
    trace = Trace([0, num_targets - 1, 0], np.ones(num_targets, dtype=np.int64))
    assert trace.targets.dtype == dtype
    assert trace.targets.tolist() == [0, num_targets - 1, 0]
    assert Trace([0], np.ones(num_targets, dtype=np.int64)).targets.dtype == dtype


def test_tokens_already_at_width_are_not_copied():
    tokens = np.array([0, 2, 1], dtype=np.uint8)
    trace = Trace(tokens, [10, 20, 30])
    assert trace.targets is tokens
    assert trace.head(2).targets.base is tokens


def test_signed_and_wide_tokens_narrow_to_equal_values():
    wide = Trace(np.array([299, 0, 7], dtype=np.int64), np.ones(300, dtype=np.int64))
    assert wide.targets.dtype == np.uint16
    assert wide.targets.tolist() == [299, 0, 7]
    with pytest.raises(TraceError, match="outside the target catalog"):
        Trace(np.array([-1, 0], dtype=np.int8), [10, 20])
