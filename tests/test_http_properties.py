"""Property-based tests for HTTP parsing and the hand-off wire format."""

import socket
import string

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

from repro.handoff.http import (
    HTTPError,
    build_response,
    parse_request_head,
    read_request_head,
)
from repro.handoff.protocol import recv_handoff, send_handoff
from tests.seeded_mutation import assert_selected_tests_fail

_token = st.text(alphabet=string.ascii_letters + string.digits + "-_", min_size=1, max_size=16)
_path_segment = st.text(alphabet=string.ascii_letters + string.digits + "._-", min_size=1, max_size=12)


@st.composite
def _requests(draw):
    segments = draw(st.lists(_path_segment, min_size=1, max_size=4))
    query = draw(st.one_of(st.none(), _token))
    target = "/" + "/".join(segments) + (f"?q={query}" if query else "")
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"]))
    headers = draw(
        st.dictionaries(_token, _token, min_size=0, max_size=5)
    )
    headers.setdefault("Host", "cluster")
    return target, version, headers


def _head(request):
    target, version, headers = request
    head = f"GET {target} {version}\r\n"
    head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    head += "\r\n"
    return head.encode("latin-1")


@given(_requests())
@settings(max_examples=80, deadline=None)
def test_request_head_roundtrip(request):
    """Any request we can serialize parses back to the same target."""
    target, version, headers = request
    data = _head(request)
    parsed = parse_request_head(data)
    assert parsed is not None
    assert parsed.method == "GET"
    assert parsed.target == target
    assert parsed.version == version
    assert parsed.head_bytes == len(data)
    # Names that differ only in case are one field, folded in order
    # (RFC 9110 Section 5.2), e.g. a drawn "host" beside the default "Host".
    expected = {}
    for name, value in headers.items():
        key = name.lower()
        expected[key] = f"{expected[key]}, {value}" if key in expected else value
    assert parsed.headers == expected


@given(_requests(), st.binary(max_size=64))
@settings(max_examples=40, deadline=None)
def test_parse_never_consumes_trailing_bytes(request, trailing):
    target, version, headers = request
    head = f"GET {target} {version}\r\n\r\n".encode("latin-1")
    parsed = parse_request_head(head + trailing)
    assert parsed is not None
    assert parsed.head_bytes == len(head)


@given(st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_parser_total_on_arbitrary_bytes(data):
    """The parser never crashes: it returns a request, None, or HTTPError."""
    try:
        result = parse_request_head(data)
    except HTTPError:
        return
    assert result is None or result.method


@given(
    st.integers(0, 1 << 16),
    st.sampled_from([200, 404, 501]),
    st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_response_framing_consistent(body_size, status, keep_alive):
    body = bytes(body_size % 4096)
    payload = build_response(status, body, keep_alive=keep_alive)
    head, _, rest = payload.partition(b"\r\n\r\n")
    assert rest == body
    assert f"Content-Length: {len(body)}".encode() in head
    assert str(status).encode() in head.split(b"\r\n")[0]


@given(st.binary(min_size=0, max_size=4096))
@settings(max_examples=30, deadline=None)
def test_handoff_wire_roundtrip(payload):
    """Arbitrary consumed-bytes payloads survive the hand-off channel."""
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    r, w = socket.socketpair()
    try:
        send_handoff(a, r.fileno(), payload)
        message = recv_handoff(b)
        assert message is not None
        assert message.payload == payload
        assert message.fd is not None
        import os

        os.close(message.fd)
    finally:
        for s in (a, b, r, w):
            try:
                s.close()
            except OSError:
                pass


class _Feed:
    """The reading end of a socket pair whose every ``recv`` first has
    the peer send the next piece, so each read sees exactly one piece;
    once the pieces run out the peer closes."""

    def __init__(self, pieces):
        self._reader, self._writer = socket.socketpair()
        self._pieces = [piece for piece in pieces if piece]
        #: Bytes the peer has sent so far.
        self.sent = 0

    def recv(self, size):
        if self._pieces:
            piece = self._pieces.pop(0)
            self.sent += len(piece)
            self._writer.sendall(piece)
        else:
            self._writer.shutdown(socket.SHUT_WR)
        return self._reader.recv(size)

    def close(self):
        self._reader.close()
        self._writer.close()


def _cut(stream, offsets):
    bounds = [0, *sorted(offsets), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _damage(head, kind, data):
    """``head`` with a bare line break: every CRLF cut to LF, or one LF
    or CR put in before its terminator."""
    if kind == "lf-only":
        return head.replace(b"\r\n", b"\n")
    at = data.draw(st.integers(1, len(head) - len(b"\r\n\r\n")))
    return head[:at] + (b"\n" if kind == "bare-lf" else b"\r") + head[at:]


def _first_bare(stream):
    """Index of the first byte that shows ``stream`` holds a bare LF or
    a bare CR: the LF itself, or the byte after the CR."""
    for at, byte in enumerate(stream):
        if byte == ord("\n") and stream[at - 1 : at] != b"\r":
            return at
        if byte == ord("\r") and stream[at + 1 : at + 2] not in (b"", b"\n"):
            return at + 1
    return None


@given(
    st.lists(_requests(), min_size=1, max_size=4),
    # About half the examples clean, as many as before damage was drawn.
    st.one_of(st.none(), st.sampled_from(["lf-only", "bare-lf", "bare-cr"])),
    st.data(),
)
# No explain phase: on a failure it costs seconds and adds no check.
@settings(max_examples=160, deadline=None, phases=tuple(set(Phase) - {Phase.explain}))
def test_read_request_head_split_and_pipelined(requests, damage, data):
    """Pipelined heads cut at arbitrary offsets read back one by one, each
    as the parser sees it alone, with the bytes past it carried forward.
    A head with a bare LF or CR is refused with 400 by the read that
    brings in the byte showing it, not by a later one."""
    heads = [_head(request) for request in requests]
    bad = len(heads)
    if damage is not None:
        bad = data.draw(st.integers(0, len(heads) - 1))
        heads[bad] = _damage(heads[bad], damage, data)
    stream = b"".join(heads)
    offsets = data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
    feed = _Feed(_cut(stream, offsets))
    try:
        consumed, leftover = 0, b""
        for head in heads[:bad]:
            request, buffered = read_request_head(feed, leftover)
            assert request == parse_request_head(head)
            leftover = buffered[request.head_bytes:]
            consumed += request.head_bytes
            assert stream[consumed:].startswith(leftover)
        if damage is None:
            assert read_request_head(feed, leftover) == (None, b"")
            return
        shown = _first_bare(stream)
        assert shown is not None and shown >= consumed
        with pytest.raises(HTTPError) as raised:
            read_request_head(feed, leftover)
        assert raised.value.status == 400
        assert feed.sent == min(b for b in [*offsets, len(stream)] if b > shown)
    finally:
        feed.close()


@given(_requests(), st.data())
@settings(max_examples=60, deadline=None)
def test_read_request_head_peer_closing_mid_head(request, data):
    head = _head(request)
    cut = data.draw(st.integers(1, len(head) - 1))
    offsets = data.draw(st.lists(st.integers(0, cut), max_size=4))
    feed = _Feed(_cut(head[:cut], offsets))
    try:
        assert read_request_head(feed, b"") == (None, head[:cut])
    finally:
        feed.close()


@given(st.integers(1024, 8192))
@settings(max_examples=20, deadline=None)
def test_read_request_head_rejects_oversized_head_across_reads(piece):
    head = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 20000 + b"\r\n\r\n"
    feed = _Feed(_cut(head, range(piece, len(head), piece)))
    try:
        with pytest.raises(HTTPError) as raised:
            read_request_head(feed, b"")
        assert raised.value.status == 431
    finally:
        feed.close()


def test_seeded_mutation_of_the_head_reader_is_caught(tmp_path):
    """A reader that keeps only its latest chunk loses every split head."""
    assert_selected_tests_fail(
        tmp_path,
        "handoff/http.py",
        "        data += chunk\n",
        "        data = chunk\n",
        __file__,
        "read_request_head_split_and_pipelined",
    )
