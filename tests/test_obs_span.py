"""Unit tests for the span-log schema, writer, and parser."""

import io
import json
import math
import threading
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.obs import span as span_module
from repro.obs import (
    OUTCOMES,
    SCHEMA_VERSION,
    SchemaError,
    Span,
    SpanWriter,
    parse_span_log,
    read_span_log,
    validate_record,
)
from tests.seeded_mutation import assert_selected_tests_fail


def _span(**overrides):
    base = dict(
        req=0,
        target="/index.html",
        size=1024,
        policy="lard/r",
        node=2,
        t_arrival=1.0,
        t_dispatch=1.25,
        t_complete=2.0,
        outcome="hit",
        load=[3, 1, 4],
        phases={"establish": 0.25, "cpu": 0.75},
    )
    base.update(overrides)
    return Span(**base)


class TestSchema:
    def test_round_trip(self):
        span = _span()
        assert Span.from_record(span.to_record()) == span

    def test_round_trip_through_json(self):
        span = _span()
        record = json.loads(json.dumps(span.to_record()))
        assert Span.from_record(record) == span

    def test_delay_is_arrival_to_completion(self):
        assert _span().delay_s == pytest.approx(1.0)

    def test_load_omitted_when_none(self):
        record = _span(load=None).to_record()
        assert "load" not in record
        assert Span.from_record(record).load is None

    def test_unknown_outcome_rejected(self):
        with pytest.raises(SchemaError, match="outcome"):
            validate_record(_span(outcome="teleported").to_record())

    def test_every_declared_outcome_accepted(self):
        for outcome in OUTCOMES:
            validate_record(_span(outcome=outcome).to_record())

    def test_time_ordering_enforced(self):
        with pytest.raises(SchemaError, match="t_complete"):
            validate_record(_span(t_complete=0.5).to_record())
        with pytest.raises(SchemaError, match="t_arrival"):
            validate_record(_span(t_arrival=-1.0, t_dispatch=-0.5).to_record())

    def test_negative_phase_rejected(self):
        with pytest.raises(SchemaError, match="negative"):
            validate_record(_span(phases={"cpu": -0.1}).to_record())

    def test_non_integer_load_rejected(self):
        record = _span().to_record()
        record["load"] = [1, "two"]
        with pytest.raises(SchemaError, match="load"):
            validate_record(record)

    def test_bool_is_not_a_number(self):
        record = _span().to_record()
        record["t_arrival"] = True
        with pytest.raises(SchemaError):
            validate_record(record)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, bad):
        """``NaN`` / ``Infinity`` are not JSON (RFC 8259): a log holding
        one breaks every non-Python reader, so neither side lets it by."""
        for record in (
            _span(t_complete=bad).to_record(),
            _span(phases={"cpu": bad}).to_record(),
            {"kind": "sample", "t": bad},
            {"kind": "fault", "t": bad, "node": 0, "event": "crash"},
        ):
            with pytest.raises(SchemaError) as excinfo:
                validate_record(record)
            assert "\n" not in str(excinfo.value)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            validate_record({"kind": "trace"})

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="schema version"):
            validate_record({"kind": "meta", "schema": 99, "source": "sim"})


class TestWriter:
    def test_meta_line_first(self):
        sink = io.StringIO()
        with SpanWriter(sink, source="live") as writer:
            writer.write_span(_span())
        lines = sink.getvalue().splitlines()
        meta = json.loads(lines[0])
        assert meta == {"kind": "meta", "schema": SCHEMA_VERSION, "source": "live"}
        assert json.loads(lines[1])["kind"] == "span"

    def test_counts(self):
        sink = io.StringIO()
        with SpanWriter(sink) as writer:
            writer.write_span(_span())
            writer.write_sample(1.0, {"load": [1, 2]})
        assert writer.spans_written == 1
        assert writer.records_written == 3  # meta + span + sample

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_numbers_never_reach_the_stream(self, bad):
        sink = io.StringIO()
        with SpanWriter(sink) as writer:
            for write in (
                lambda: writer.write_span(_span(t_complete=bad)),
                lambda: writer.write_span(_span(phases={"cpu": bad})),
                lambda: writer.write_sample(bad, {"load": [1]}),
                lambda: writer.write_fault(bad, 0, "crash"),
            ):
                with pytest.raises(SchemaError, match="must be finite"):
                    write()
        assert sink.getvalue().count("\n") == 1  # the meta line only
        assert "NaN" not in sink.getvalue() and "Infinity" not in sink.getvalue()

    def test_non_finite_tokens_rejected_on_read(self):
        meta = json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "source": "sim"})
        line = json.dumps(_span().to_record()).replace("2.0", "Infinity")
        with pytest.raises(SchemaError, match="line 2.*finite"):
            parse_span_log([meta, line])
        with pytest.raises(SchemaError, match="line 2.*finite"):
            parse_span_log([meta, '{"kind":"sample","t":NaN}'])

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            SpanWriter(io.StringIO(), source="dream")

    def test_writes_after_close_dropped(self):
        sink = io.StringIO()
        writer = SpanWriter(sink)
        writer.close()
        writer.write_span(_span())
        assert len(sink.getvalue().splitlines()) == 1  # just the meta line

    def test_next_req_unique_across_threads(self):
        writer = SpanWriter(io.StringIO())
        seen = []

        def take():
            for _ in range(200):
                seen.append(writer.next_req())

        threads = [threading.Thread(target=take) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 800

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with SpanWriter(path, source="sim") as writer:
            writer.write_span(_span(req=0))
            writer.write_span(_span(req=1, outcome="miss"))
            writer.write_sample(2.0, {"in_flight": 3})
        log = read_span_log(path)
        assert log.source == "sim"
        assert [span.req for span in log.spans] == [0, 1]
        assert log.samples[0]["in_flight"] == 3
        assert log.total_delay_s == pytest.approx(2.0)


class TestParser:
    def test_missing_meta_rejected(self):
        with pytest.raises(SchemaError, match="no meta"):
            parse_span_log([json.dumps(_span().to_record())])

    def test_duplicate_meta_rejected(self):
        meta = json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "source": "sim"})
        with pytest.raises(SchemaError, match="duplicate meta"):
            parse_span_log([meta, meta])

    def test_invalid_json_names_line(self):
        meta = json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "source": "sim"})
        with pytest.raises(SchemaError, match="line 2"):
            parse_span_log([meta, "{not json"])

    def test_blank_lines_skipped(self):
        meta = json.dumps({"kind": "meta", "schema": SCHEMA_VERSION, "source": "sim"})
        log = parse_span_log(["", meta, "   ", json.dumps(_span().to_record())])
        assert len(log.spans) == 1


# -- the one-pass span encoder ---------------------------------------------------

_times = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.integers(min_value=0, max_value=10**9),
)
_seconds = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=10**6),
)
# Arbitrary text: non-ASCII, quotes, backslashes and control characters
# all have to come out escaped exactly as ``json.dumps`` escapes them.
_text = st.text(max_size=12)
_ints = st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def _spans(draw):
    t_arrival, t_dispatch, t_complete = sorted(draw(st.tuples(_times, _times, _times)))
    return Span(
        req=draw(_ints),
        target=draw(_text),
        size=draw(_ints),
        policy=draw(_text),
        node=draw(_ints),
        t_arrival=t_arrival,
        t_dispatch=t_dispatch,
        t_complete=t_complete,
        outcome=draw(st.sampled_from(sorted(OUTCOMES))),
        load=draw(st.one_of(st.none(), st.lists(_ints, max_size=9))),
        phases=draw(st.dictionaries(_text, _seconds, max_size=6)),
    )


def _written(span):
    sink = io.StringIO()
    with SpanWriter(sink) as writer:
        writer.write_span(span)
    return sink.getvalue().splitlines(keepends=True)[1:]


class TestOnePassEncoder:
    @settings(max_examples=300, deadline=None)
    @given(_spans())
    def test_line_equals_json_dumps_of_the_record(self, span):
        expected = json.dumps(span.to_record(), separators=(",", ":"), sort_keys=True)
        assert _written(span) == [expected + "\n"]
        assert Span.from_record(json.loads(expected)) == span

    def test_number_subclasses_encode_as_json_dumps_does(self):
        class Seconds(float):
            def __repr__(self):
                return "Seconds(...)"

        class Count(int):
            def __repr__(self):
                return "Count(...)"

        span = _span(
            req=Count(7), t_complete=Seconds(2.5), load=[Count(1), 2],
            phases={"cpu": Seconds(0.5), "establish": Count(0)},
        )
        expected = json.dumps(span.to_record(), separators=(",", ":"), sort_keys=True)
        assert _written(span) == [expected + "\n"]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(req=True),
            dict(node=False),
            dict(size=4096.0),
            dict(req="7"),
            dict(target=17),
            dict(policy=None),
            dict(outcome="teleported"),
            dict(outcome=3),
            dict(t_arrival=True),
            dict(t_dispatch="1.25"),
            dict(t_complete=None),
            dict(t_complete=0.5),
            dict(t_arrival=1.5),
            dict(t_arrival=-1.0, t_dispatch=-0.5),
            dict(phases={"cpu": -0.1}),
            dict(phases={"cpu": True}),
            dict(phases={"cpu": "0.1"}),
            dict(phases={3: 0.1}),
            dict(phases=[("cpu", 0.1)]),
            dict(load=[1, "two"]),
            dict(load=[1, True]),
            dict(load=[1, 2.0]),
            dict(load="12"),
            dict(t_complete=math.inf),
            dict(t_arrival=math.nan),
            dict(phases={"cpu": math.nan}),
            dict(phases={"cpu": math.inf}),
        ],
        ids=lambda overrides: ",".join(f"{k}={v!r}" for k, v in overrides.items()),
    )
    def test_rejection_parity_with_validate_record(self, overrides):
        """Whatever ``validate_record`` refuses, ``write_span`` refuses
        the same way, and nothing reaches the stream."""
        span = _span(**overrides)
        record = dict(span.__dict__, kind="span")
        with pytest.raises(SchemaError) as by_record:
            validate_record(record)
        sink = io.StringIO()
        writer = SpanWriter(sink)
        with pytest.raises(SchemaError) as by_span:
            writer.write_span(span)
        assert str(by_span.value) == str(by_record.value)
        assert "\n" not in str(by_span.value)
        assert writer.spans_written == 0 and writer.records_written == 1
        assert sink.getvalue().count("\n") == 1


# -- one memo for a whole log; spans the writer takes over -----------------------


class Seconds(float):
    """A ``float`` subclass: ``json.dumps`` prints it with ``float.__repr__``."""


class Count(int):
    """An ``int`` subclass, likewise printed with ``int.__repr__``."""

    def __repr__(self):
        return "Count(...)"


# Values that are equal — one dict key — across types and signs, and
# different JSON: the memo may remember none of them under a shared key.
_colliding = st.sampled_from(
    [0, 0.0, -0.0, Seconds(0.0), 1, 1.0, Seconds(1.0), 2, 2.0, Count(2),
     0.5, Seconds(0.5), 3.0, Count(3)]
)
_tricky_times = st.one_of(_colliding, _times)
_tricky_seconds = st.one_of(_colliding, _seconds)
_tricky_text = st.one_of(
    st.sampled_from(["cpu", "établir", "ディスク", 'q"uo\\te', "tab\there", "\u2028"]),
    _text,
)
_counts = st.one_of(_ints, st.integers(min_value=0, max_value=9).map(Count))


@st.composite
def _tricky_spans(draw):
    t_arrival, t_dispatch, t_complete = sorted(
        draw(st.tuples(_tricky_times, _tricky_times, _tricky_times))
    )
    return Span(
        req=draw(_counts),
        target=draw(_tricky_text),
        size=draw(_ints),
        policy=draw(_tricky_text),
        node=draw(_ints),
        t_arrival=t_arrival,
        # The simulator's spans carry one float object for both times.
        t_dispatch=draw(st.sampled_from([t_arrival, t_dispatch])),
        t_complete=t_complete,
        outcome=draw(st.sampled_from(sorted(OUTCOMES))),
        load=draw(st.one_of(st.none(), st.lists(_counts, max_size=9))),
        phases=draw(st.dictionaries(_tricky_text, _tricky_seconds, max_size=6)),
    )


def _reference_line(span):
    return json.dumps(span.to_record(), separators=(",", ":"), sort_keys=True) + "\n"


#: One log entry: a span handed over (``take``) or written on the spot
#: (``write``), or a fault / sample record at time ``t``.
_ops = st.one_of(
    st.tuples(st.sampled_from(["take", "write"]), _tricky_spans()),
    st.tuples(st.sampled_from(["fault", "sample"]), _seconds),
)


def _replay(ops, batched):
    """The log ``ops`` produce; ``batched=False`` writes every span on
    the spot, the form the batched log must equal byte for byte."""
    sink = io.StringIO()
    with SpanWriter(sink) as writer:
        for op, arg in ops:
            if op == "fault":
                writer.write_fault(arg, 1, "crash", why="test")
            elif op == "sample":
                writer.write_sample(arg, {"load": [1, 2]})
            elif op == "take" and batched:
                writer.take_span(arg)
            else:
                writer.write_span(arg)
    return sink.getvalue().splitlines(keepends=True)[1:], writer


class TestSharedMemoAndBatches:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_tricky_spans(), min_size=1, max_size=12), st.booleans())
    def test_every_line_of_a_log_equals_json_dumps(self, spans, take):
        """The memo is shared by every span of a writer; a tiny bound
        makes it overflow (and empty itself) inside most examples."""
        with mock.patch.object(span_module, "_MEMO_LIMIT", 3):
            lines, writer = _replay([("take" if take else "write", s) for s in spans], True)
        assert lines == [_reference_line(span) for span in spans]
        for memo in (writer._encoder.reprs, writer._encoder.keys):
            assert len(memo) <= 3
        assert all(type(key) is float and key for key in writer._encoder.reprs)

    def test_equal_values_of_different_types_keep_their_own_text(self):
        spans = [
            _span(t_arrival=0.0, t_dispatch=1.0, phases={"a": 1.0, "b": 0.0, "c": 2.0}),
            _span(t_arrival=-0.0, t_dispatch=1, phases={"a": 1, "b": -0.0, "c": Count(2)}),
            _span(t_arrival=0, t_dispatch=Seconds(1.0), phases={"a": Seconds(1.0), "b": 0}),
        ]
        lines, _ = _replay([("take", span) for span in spans], True)
        assert lines == [_reference_line(span) for span in spans]
        assert '"a":1.0,"b":0.0,"c":2.0' in lines[0] and '"t_arrival":0.0' in lines[0]
        assert '"a":1,"b":-0.0,"c":2' in lines[1] and '"t_arrival":-0.0' in lines[1]
        for bad in (True, False):
            with pytest.raises(SchemaError):
                SpanWriter(io.StringIO()).take_span(_span(phases={"a": bad}))

    def test_memo_stays_bounded_past_its_limit(self):
        limit = span_module._MEMO_LIMIT
        spans = [
            _span(req=i, phases={f"p{i}": 0.001 * (2 * i + 1), "cpu": 0.5 + i})
            for i in range(limit + 50)
        ]
        lines, writer = _replay([("take", span) for span in spans], True)
        assert lines == [_reference_line(span) for span in spans]
        assert 0 < len(writer._encoder.reprs) <= limit
        assert 0 < len(writer._encoder.keys) <= limit

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_ops, max_size=14))
    def test_batched_log_equals_the_unbatched_log(self, ops):
        with mock.patch.object(span_module, "_SPAN_BATCH", 3):
            batched, writer = _replay(ops, True)
        plain, reference = _replay(ops, False)
        assert batched == plain
        assert [line for line in plain if '"kind":"span"' in line] == [
            _reference_line(arg) for op, arg in ops if op in ("take", "write")
        ]
        assert writer.records_written == reference.records_written == len(plain) + 1
        assert writer.spans_written == reference.spans_written

    def test_a_full_batch_reaches_the_stream_before_close(self):
        sink = io.StringIO()
        writer = SpanWriter(sink)
        for req in range(span_module._SPAN_BATCH):
            assert sink.getvalue().count("\n") == 1  # the meta line
            writer.take_span(_span(req=req))
        assert sink.getvalue().count("\n") == 1 + span_module._SPAN_BATCH

    def test_bad_span_raises_at_the_call_that_hands_it_over(self):
        sink = io.StringIO()
        with SpanWriter(sink) as writer:
            writer.take_span(_span(req=0))
            for bad in (_span(req=True), _span(phases={"cpu": math.nan}), _span(load=[1.0])):
                with pytest.raises(SchemaError):
                    writer.take_span(bad)
            writer.take_span(_span(req=1))
        assert [json.loads(line)["req"] for line in sink.getvalue().splitlines()[1:]] == [0, 1]
        assert writer.spans_written == 2

    def test_taken_spans_after_close_are_dropped(self):
        sink = io.StringIO()
        writer = SpanWriter(sink)
        writer.close()
        writer.take_span(_span())
        assert sink.getvalue().count("\n") == 1 and writer.spans_written == 0

    def test_write_span_shows_the_span_as_of_the_call(self):
        """A caller may reuse one ``Span`` (the perf ledger's
        ``obs.span_write`` micro does): only ``take_span`` transfers it."""
        sink = io.StringIO()
        span = _span(req=0)
        with SpanWriter(sink) as writer:
            writer.write_span(span)
            expected = _reference_line(span)
            span.req, span.t_complete = 99, 7.5
            span.phases["cpu"] = 5.0
            span.load.append(9)
        assert sink.getvalue().splitlines(keepends=True)[1:] == [expected]


# name -> (anchor in obs/span.py, replacement, ``-k`` selector of the
# tests above that fail on it).
_MUTATIONS = {
    "memo-keyed-on-value-for-every-number": (
        "                    if value.__class__ is float and value\n",
        "                    if True\n",
        "test_equal_values_of_different_types",
    ),
    "taken-spans-written-after-the-next-record": (
        "            self._write_taken()\n            self._stream.write(line)\n",
        "            self._stream.write(line)\n            self._write_taken()\n",
        "test_batched_log_equals_the_unbatched_log",
    ),
    "close-forgets-the-taken-spans": (
        "                self._write_taken()\n                self._stream.flush()\n",
        "                self._stream.flush()\n",
        "test_batched_log_equals_the_unbatched_log or test_bad_span_raises",
    ),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_seeded_mutation_is_caught(name, tmp_path):
    anchor, replacement, selector = _MUTATIONS[name]
    assert_selected_tests_fail(
        tmp_path, "obs/span.py", anchor, replacement, __file__, selector
    )
