"""Unit tests for the span-log schema, writer, and parser."""

import io
import json
import math
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
