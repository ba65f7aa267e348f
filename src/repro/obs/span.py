"""Request-span schema and streaming JSONL sink.

One request = one **span**: arrival, the front-end's dispatch decision
(policy, chosen node, per-node load snapshot), the cache outcome, the
per-phase time breakdown (connection establishment, queueing, disk,
CPU transmit, teardown), and completion.  The simulator and the live
hand-off prototype both emit this schema, so the same analysis code
(:mod:`repro.obs.analyze`) covers paper Sections 3.3/4.4 (simulated
delays) and Section 5.2 (prototype measurements).

A span log is a JSONL stream of four record kinds:

``meta``
    First line of every log: ``{"kind": "meta", "schema": 1,
    "source": "sim" | "live"}``.
``span``
    One completed request (see :class:`Span`).
``sample``
    One periodic time-series observation (per-node load, rolling miss
    ratio, queue depths).
``fault``
    One injected-fault event: ``{"kind": "fault", "t": seconds,
    "node": int, "event": name}`` plus free-form detail fields.  The
    simulator's fault model and the live :class:`FaultInjector` both
    emit this kind, so simulated and live chaos runs are analyzed by
    the same tooling.

Timestamps are seconds on the emitter's clock: simulated time for the
simulator, seconds since the writer was opened for the live cluster.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import IO, Any, Dict, List, Mapping, Optional, Union

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "SOURCES",
    "OUTCOMES",
    "FAULT_EVENTS",
    "Span",
    "SpanWriter",
    "SpanLog",
    "SchemaError",
    "validate_record",
    "read_span_log",
    "parse_span_log",
    "ROW_OUTCOMES",
    "ROW_PHASES",
    "ROW_INTS",
    "ROW_FLOATS",
    "check_rows",
]

#: Bump when a field changes meaning; readers refuse unknown versions.
SCHEMA_VERSION = 1

#: Who emitted the log.
SOURCES = ("sim", "live")

#: How the request's data path resolved.  ``hit``/``miss`` are the paper's
#: cache outcomes; ``coalesced`` is a miss served by another request's
#: in-flight disk read; the ``gms_*`` outcomes are WRR/GMS memory hits;
#: ``dynamic`` is a CGI request, computed on the CPU and never cached;
#: ``rejected`` is a live 503 (admission timeout or no back-end);
#: ``lost`` is a fault-model request abandoned after exhausting its
#: client retries against a crashed-but-undetected node.
OUTCOMES = frozenset(
    {
        "hit",
        "miss",
        "coalesced",
        "gms_local",
        "gms_remote",
        "dynamic",
        "rejected",
        "error",
        "lost",
    }
)

#: Injected-fault event names.  Simulator fault model: ``crash`` (node
#: goes dark), ``detect`` (membership notices and fails it), ``join``
#: (rejoin), ``brownout_start``/``brownout_end`` (degraded rates).
#: Live injector primitives: ``kill``, ``revive``, ``refuse``,
#: ``stall``, ``delay``, ``sever``, ``gray`` (heartbeat failure).
FAULT_EVENTS = frozenset(
    {
        "crash",
        "detect",
        "join",
        "brownout_start",
        "brownout_end",
        "kill",
        "revive",
        "refuse",
        "stall",
        "delay",
        "sever",
        "gray",
    }
)


_INF = math.inf
_int_repr = int.__repr__
_float_repr = float.__repr__


class SchemaError(ValueError):
    """A record does not conform to the span-log schema."""


@dataclass
class Span:
    """One request's life, arrival to completion.

    ``phases`` maps phase name to seconds spent in that phase (including
    queueing for the phase's resource); the phases partition
    ``[t_arrival, t_complete]``, so they sum to :attr:`delay_s` (up to
    float addition error).  Phase names used by the emitters:

    * simulator — ``establish``, ``queue`` (coalesced-read wait),
      ``disk`` (disk service incl. FCFS queueing), ``cpu`` (transmit),
      ``teardown``;
    * live cluster — ``inspect`` (request-head read), ``admit``
      (admission-slot wait), ``handoff``, ``serve`` (back-end service
      excl. the disk stand-in), ``disk`` (miss-penalty sleep).
    """

    req: int
    target: str
    size: int
    policy: str
    node: int
    t_arrival: float
    t_dispatch: float
    t_complete: float = 0.0
    outcome: str = "error"
    load: Optional[List[int]] = None
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def delay_s(self) -> float:
        """Arrival-to-completion latency (the paper's per-request delay)."""
        return self.t_complete - self.t_arrival

    def to_record(self) -> Dict[str, object]:
        """The JSONL representation of this span."""
        record: Dict[str, object] = {
            "kind": "span",
            "req": self.req,
            "target": self.target,
            "size": self.size,
            "policy": self.policy,
            "node": self.node,
            "t_arrival": self.t_arrival,
            "t_dispatch": self.t_dispatch,
            "t_complete": self.t_complete,
            "outcome": self.outcome,
            "phases": dict(self.phases),
        }
        if self.load is not None:
            record["load"] = list(self.load)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "Span":
        """Parse (and validate) a span record back into a :class:`Span`."""
        validate_record(record)
        if record.get("kind") != "span":
            raise SchemaError(f"expected a span record, got kind={record.get('kind')!r}")
        load = record.get("load")
        phases = record.get("phases", {})
        if not isinstance(phases, dict):  # pragma: no cover - validate_record guards
            raise SchemaError("phases must be an object")
        return cls(
            req=int(record["req"]),  # type: ignore[arg-type]
            target=str(record["target"]),
            size=int(record["size"]),  # type: ignore[arg-type]
            policy=str(record["policy"]),
            node=int(record["node"]),  # type: ignore[arg-type]
            t_arrival=float(record["t_arrival"]),  # type: ignore[arg-type]
            t_dispatch=float(record["t_dispatch"]),  # type: ignore[arg-type]
            t_complete=float(record["t_complete"]),  # type: ignore[arg-type]
            outcome=str(record["outcome"]),
            load=[int(v) for v in load] if isinstance(load, list) else None,
            phases={str(k): float(v) for k, v in phases.items()},
        )


def _require_number(name: str, value: object) -> None:
    """A finite int or float: ``NaN``/``Infinity`` are not JSON (RFC 8259)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field {name!r} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"field {name!r} must be finite, got {value!r}")


def _require_field(name: str, value: object, expected: type) -> None:
    if isinstance(value, bool) or not isinstance(value, expected):
        raise SchemaError(
            f"span field {name!r} must be {expected.__name__}, got {value!r}"
        )


def _validate_span(
    req: object,
    target: object,
    size: object,
    policy: object,
    node: object,
    outcome: object,
    t_arrival: object,
    t_dispatch: object,
    t_complete: object,
    phases: object,
    load: object,
) -> None:
    """Every check a span must pass, over its bare field values: the one
    implementation behind :func:`validate_record` (values read from a
    parsed record) and :meth:`SpanWriter.write_span` (values read from
    the :class:`Span`), so the two boundaries cannot disagree.

    It runs once per traced request, so each check first tries the
    exact builtin type (which also rules out ``bool``) and only a value
    of any other class pays for the full ``isinstance`` test.
    """
    if req.__class__ is not int:
        _require_field("req", req, int)
    if target.__class__ is not str:
        _require_field("target", target, str)
    if size.__class__ is not int:
        _require_field("size", size, int)
    if policy.__class__ is not str:
        _require_field("policy", policy, str)
    if node.__class__ is not int:
        _require_field("node", node, int)
    if outcome.__class__ is not str:
        _require_field("outcome", outcome, str)
    if outcome not in OUTCOMES:
        raise SchemaError(f"unknown span outcome: {outcome!r}")
    if t_arrival.__class__ is not float:
        _require_number("t_arrival", t_arrival)
    if t_dispatch.__class__ is not float:
        _require_number("t_dispatch", t_dispatch)
    if t_complete.__class__ is not float:
        _require_number("t_complete", t_complete)
    # Ordered, non-negative and below +inf implies all three are finite.
    if not (0.0 <= t_arrival <= t_dispatch <= t_complete < _INF):  # type: ignore[operator]
        _require_number("t_arrival", t_arrival)
        _require_number("t_dispatch", t_dispatch)
        _require_number("t_complete", t_complete)
        times = [float(t_arrival), float(t_dispatch), float(t_complete)]  # type: ignore[arg-type]
        raise SchemaError(
            f"span times must satisfy 0 <= t_arrival <= t_dispatch <= "
            f"t_complete, got {times}"
        )
    if not isinstance(phases, dict):
        raise SchemaError("span field 'phases' must be an object")
    for phase, seconds in phases.items():
        if phase.__class__ is not str and not isinstance(phase, str):
            raise SchemaError(f"phase names must be strings, got {phase!r}")
        if seconds.__class__ is not float and (
            isinstance(seconds, bool) or not isinstance(seconds, (int, float))
        ):
            raise SchemaError(f"phase {phase!r} must map to seconds, got {seconds!r}")
        if not (0.0 <= seconds < _INF):
            if seconds < 0:
                raise SchemaError(f"phase {phase!r} is negative: {seconds!r}")
            raise SchemaError(f"phase {phase!r} must be finite, got {seconds!r}")
    if load is not None:
        if not isinstance(load, list):
            raise SchemaError("span field 'load' must be a list of integers")
        for value in load:
            if value.__class__ is not int and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise SchemaError("span field 'load' must be a list of integers")


def validate_record(record: Mapping[str, object]) -> None:
    """Raise :class:`SchemaError` unless ``record`` is schema-conformant."""
    kind = record.get("kind")
    if kind == "meta":
        if record.get("schema") != SCHEMA_VERSION:
            raise SchemaError(f"unknown schema version: {record.get('schema')!r}")
        if record.get("source") not in SOURCES:
            raise SchemaError(f"meta source must be one of {SOURCES}")
        return
    if kind == "sample":
        _require_number("t", record.get("t"))
        return
    if kind == "fault":
        t = record.get("t")
        _require_number("t", t)
        if t < 0:  # type: ignore[operator]
            raise SchemaError(f"fault time must be non-negative, got {float(t)!r}")  # type: ignore[arg-type]
        node = record.get("node")
        if isinstance(node, bool) or not isinstance(node, int):
            raise SchemaError(f"fault field 'node' must be int, got {node!r}")
        event = record.get("event")
        if event not in FAULT_EVENTS:
            raise SchemaError(f"unknown fault event: {event!r}")
        return
    if kind != "span":
        raise SchemaError(f"unknown record kind: {kind!r}")
    get = record.get
    _validate_span(
        get("req"), get("target"), get("size"), get("policy"), get("node"),
        get("outcome"), get("t_arrival"), get("t_dispatch"), get("t_complete"),
        get("phases"), get("load"),
    )


def _number(value: Union[int, float]) -> str:
    """``json.dumps`` of a validated (finite) number, subclasses included."""
    return _float_repr(value) if isinstance(value, float) else _int_repr(value)


#: Spans :meth:`SpanWriter.take_span` holds before it formats and writes
#: them together.
_SPAN_BATCH = 256

#: A :class:`_SpanEncoder` memo is emptied when it reaches this many
#: entries (the commonest values are back within a few spans).
_MEMO_LIMIT = 4096


class _SpanEncoder:
    """Formats validated spans as JSONL lines, remembering across spans
    the texts that repeat.

    ``float.__repr__`` (the shortest round-tripping digits) is the one
    expensive step of a line, and a run's floats repeat: service times
    come from a few cost constants, and a span's ``t_arrival`` is the
    ``t_complete`` of the request whose completion admitted it.  The
    memo is keyed **only** by non-zero values of exact class ``float``:
    ``1 == 1.0 == True`` and ``0.0 == -0.0`` are each one dict key and
    different JSON, so every other number is formatted afresh.  Phase
    names are remembered in their quoted ``"name":`` form.  Both memos
    are bounded by :data:`_MEMO_LIMIT`.  (Policy and target names are
    not remembered: ``encode_basestring_ascii`` on a short ASCII string
    costs what the memo's lookup would, ~30 ns.)
    """

    __slots__ = ("reprs", "keys", "_load_len", "_load_format")

    def __init__(self) -> None:
        self.reprs: Dict[float, str] = {}
        self.keys: Dict[str, str] = {}
        # ``"load":[%d,...,%d],`` for the load length seen last (a run
        # has one): ``%d`` prints an ``int`` subclass numerically, as
        # ``json.dumps`` does, and the whole list in one C call.
        self._load_len = -1
        self._load_format = ""

    def _repr(self, value: float) -> str:
        """Memo miss: format ``value`` and remember it."""
        reprs = self.reprs
        if len(reprs) >= _MEMO_LIMIT:
            reprs.clear()
        text = reprs[value] = _float_repr(value)
        return text

    def _key(self, name: str) -> str:
        keys = self.keys
        if len(keys) >= _MEMO_LIMIT:
            keys.clear()
        text = keys[name] = _quote(name) + ":"
        return text

    def encode(self, span: Span) -> str:
        """The JSONL line of a validated span, newline included.

        One pass, keys in sorted order: byte-identical to
        ``json.dumps(span.to_record(), separators=(",", ":"), sort_keys=True)``
        (``tests/test_obs_span.py`` holds the differential test), without
        building the record dict or walking it again to sort and escape.
        Validation has ruled out non-finite floats, so ``float.__repr__``
        is the whole of JSON number formatting.
        """
        known = self.reprs.get
        new = self._repr
        key = self.keys.get
        new_key = self._key
        phases = span.phases
        # The memo lookup is written out at each number rather than
        # called (a call per number is ~0.5 us of a ~4.5 us line), and
        # the phases go through a plain loop, not a comprehension: one
        # would turn every local it reads into a closure cell for the
        # whole method.
        items = []
        for name in sorted(phases):
            value = phases[name]
            items.append(
                (key(name) or new_key(name))
                + (
                    (known(value) or new(value))
                    if value.__class__ is float and value
                    else _number(value)
                )
            )
        value = span.t_arrival
        t_arrival = (
            (known(value) or new(value))
            if value.__class__ is float and value
            else _number(value)
        )
        if span.t_dispatch is value:
            t_dispatch = t_arrival
        else:
            value = span.t_dispatch
            t_dispatch = (
                (known(value) or new(value))
                if value.__class__ is float and value
                else _number(value)
            )
        value = span.t_complete
        t_complete = (
            (known(value) or new(value))
            if value.__class__ is float and value
            else _number(value)
        )
        load = span.load
        if load is None:
            load_item = ""
        else:
            if len(load) != self._load_len:
                self._load_len = len(load)
                self._load_format = f'"load":[{",".join(["%d"] * len(load))}],'
            load_item = self._load_format % tuple(load)
        return (
            f'{{"kind":"span",{load_item}"node":{_int_repr(span.node)}'
            f',"outcome":"{span.outcome}","phases":{{{",".join(items)}}}'
            f',"policy":{_quote(span.policy)},"req":{_int_repr(span.req)}'
            f',"size":{_int_repr(span.size)},"t_arrival":{t_arrival}'
            f',"t_complete":{t_complete},"t_dispatch":{t_dispatch}'
            f',"target":{_quote(span.target)}}}\n'
        )


# -- span rows ---------------------------------------------------------------------
#
# A simulator span reaches the log as a *row* of fixed-width columns (the
# tracer's chunk, ``repro.obs.tracer.SimTracer``), written by the request
# lifecycle -- ``repro/cluster/_lifecycle.c`` or ``repro.cluster.fastpath``,
# which hard-code the same layout -- and checked and rendered a chunk at a
# time by :meth:`SpanWriter.write_rows`.  A row is one int64 row of
# ``ROW_INTS``, one float64 row of ``ROW_FLOATS`` and one int64 row of
# per-node loads (the dispatch-time snapshot; a ``lost`` span has none).
# ``t_dispatch`` is ``t_arrival``: the simulated front-end dispatches a
# request the instant it is admitted.

#: Outcome codes of a row, in code order.
ROW_OUTCOMES = ("hit", "miss", "coalesced", "gms_local", "gms_remote", "dynamic", "lost")
#: Phase columns of a row, in the order a request passes them (and
#: :func:`_validate_span` checks a span's); bit ``k`` of a row's phase
#: mask says phase ``k`` was paid.
ROW_PHASES = ("establish", "queue", "disk", "cpu", "teardown", "retry")
ROW_INTS = ("req", "target", "size", "node", "outcome", "mask")
ROW_FLOATS = ("t_arrival", "t_complete") + ROW_PHASES

_LOST = ROW_OUTCOMES.index("lost")
_BITS = np.arange(len(ROW_PHASES), dtype=np.int64)


def _row_span(ints: Any, floats: Any, loads: Any, k: int, policy: str) -> Span:
    """Row ``k`` as the :class:`Span` it stands for."""
    req, target, size, node, code, mask = ints[k].tolist()
    times = floats[k].tolist()
    phases = {
        name: times[2 + bit] for bit, name in enumerate(ROW_PHASES) if mask >> bit & 1
    }
    outcome = ROW_OUTCOMES[code] if 0 <= code < len(ROW_OUTCOMES) else f"<code {code}>"
    load = None if code == _LOST else loads[k].tolist()
    t_arrival = times[0]
    return Span(
        req, str(target), size, policy, node, t_arrival, t_arrival, times[1], outcome, load, phases
    )


def check_rows(ints: Any, floats: Any, loads: Any, n: int, policy: str) -> None:
    """Raise :class:`SchemaError` unless the first ``n`` rows are spans
    :func:`_validate_span` accepts.

    The check runs over whole columns; the first row it rejects is
    checked again as a :class:`Span`, so the message is the one
    :meth:`SpanWriter.write_span` would give, prefixed with the row's
    ``req``.
    """
    head, times = ints[:n], floats[:n]
    t_arrival, t_complete = times[:, 0], times[:, 1]
    ok = (0.0 <= t_arrival) & (t_arrival <= t_complete) & (t_complete < np.inf)
    codes, masks = head[:, 4], head[:, 5]
    ok &= (0 <= codes) & (codes < len(ROW_OUTCOMES)) & (masks >> len(ROW_PHASES) == 0)
    paid = (masks[:, None] >> _BITS) & 1 == 1
    phases = times[:, 2:]
    ok &= ~(paid & ~((0.0 <= phases) & (phases < np.inf))).any(axis=1)
    if ok.all():
        return
    k = int(np.argmin(ok))
    span = _row_span(ints, floats, loads, k, policy)
    try:
        _validate_span(
            span.req, span.target, span.size, span.policy, span.node, span.outcome,
            span.t_arrival, span.t_dispatch, span.t_complete, span.phases, span.load,
        )
    except SchemaError as exc:
        raise SchemaError(f"span req={span.req}: {exc}") from exc
    raise SchemaError(f"span req={span.req}: phase mask {int(masks[k]):#x} names no phase")


def _render_rows(
    ints: Any, floats: Any, loads: Any, n: int, policy: str, encoder: _SpanEncoder
) -> str:
    """The reference rendering of checked rows: each row's
    :class:`Span`, formatted by ``encoder``."""
    return "".join([encoder.encode(_row_span(ints, floats, loads, k, policy)) for k in range(n)])


class SpanWriter:
    """Streaming JSONL span sink, shared by every emitting thread.

    The writer owns the output stream: records are serialized and written
    under a lock, so the simulator's single thread and the live cluster's
    handler/worker/monitor threads can all share one instance.  The live
    cluster also uses :meth:`clock` (seconds since the writer opened) and
    :meth:`next_req` (a process-wide request sequence) so spans emitted
    from different threads stay consistently stamped.

    A span reaches the log by one of two calls.  :meth:`write_span`
    formats it on the spot, so the caller may go on using the object.
    :meth:`take_span` takes it over: it is validated at the call and
    formatted later, together with its neighbours, which is cheaper per
    span.  Lines appear in the file in call order whichever way they
    came: spans taken over are written out before any other record and
    on :meth:`close`.
    """

    __guarded_by__ = {
        "records_written": "_lock",
        "spans_written": "_lock",
        "_req_seq": "_lock",
        "_taken": "_lock",
        "_encoder": "_lock",
    }

    def __init__(self, sink: Union[str, Path, IO[str]], source: str = "sim") -> None:
        if source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}, got {source!r}")
        self.source = source
        self._lock = threading.Lock()
        self._owns_stream = isinstance(sink, (str, Path))
        self._stream: IO[str] = (
            open(sink, "w", encoding="utf-8")
            if isinstance(sink, (str, Path))
            else sink
        )
        self._t0 = time.perf_counter()  # lardlint: disable=transitive-nondeterminism -- span timestamps are observability metadata, never fed back into scheduling
        self.records_written = 0
        self.spans_written = 0
        self._req_seq = 0
        self._closed = False
        self._encoder = _SpanEncoder()
        self._taken: List[Span] = []
        self.write({"kind": "meta", "schema": SCHEMA_VERSION, "source": source})

    # -- clocks and sequences --------------------------------------------------

    def clock(self) -> float:
        """Seconds since the writer was opened (the live emitters' clock)."""
        return time.perf_counter() - self._t0  # lardlint: disable=transitive-nondeterminism -- live emitters' clock; simulated tracing stamps engine time instead

    def at(self, perf_t: float) -> float:
        """Convert a ``time.perf_counter()`` stamp taken elsewhere (e.g.
        at accept time) onto this writer's clock."""
        return perf_t - self._t0

    def next_req(self) -> int:
        """Allocate the next request sequence number (live emitters)."""
        with self._lock:
            seq = self._req_seq
            self._req_seq += 1
        return seq

    # -- emission --------------------------------------------------------------

    def write(self, record: Mapping[str, object]) -> None:
        """Validate and append one record to the stream (the generic
        path: meta, sample and fault records, or a span already a dict).
        A non-finite number anywhere in it (a sample's ratio, a fault's
        detail) is a :class:`SchemaError`: ``NaN`` is not JSON."""
        validate_record(record)
        try:
            line = json.dumps(record, separators=(",", ":"), sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise SchemaError(f"{record.get('kind')} record: {exc}") from exc
        self._append(line + "\n", 1 if record.get("kind") == "span" else 0)

    def write_span(self, span: Span) -> None:
        """Validate and append one completed :class:`Span`, straight
        from its typed fields (no intermediate record).  The line shows
        the span as it is now; the caller keeps the object."""
        self.take_span(span, 1)

    def take_span(self, span: Span, batch: int = _SPAN_BATCH) -> None:
        """Validate one completed :class:`Span` and take it over: the
        caller must not touch it (or its ``phases`` / ``load``) again.

        A span that fails the schema raises here, at the request that
        made it.  Its line is formatted and written with its neighbours
        once ``batch`` of them are held (:meth:`write_span` is a batch
        of one), in call order, before any later record of another kind
        and at the latest on :meth:`close`, so a run that stops early
        still leaves every finished span in a log closed by
        ``with SpanWriter(...)``.
        """
        _validate_span(
            span.req, span.target, span.size, span.policy, span.node,
            span.outcome, span.t_arrival, span.t_dispatch, span.t_complete,
            span.phases, span.load,
        )
        with self._lock:
            if self._closed:
                return  # a straggler thread finished after close(); drop it
            taken = self._taken
            taken.append(span)
            self.records_written += 1
            self.spans_written += 1
            if len(taken) >= batch:
                self._write_taken()

    def _write_taken(self) -> None:
        """Format and write the spans taken over so far (lock held)."""
        taken = self._taken
        if taken:
            try:
                self._stream.write("".join(map(self._encoder.encode, taken)))
            finally:
                taken.clear()

    def _append(self, line: str, spans: int) -> None:
        with self._lock:
            if self._closed:
                return  # a straggler thread finished after close(); drop it
            self._write_taken()
            self._stream.write(line)
            self.records_written += 1
            self.spans_written += spans

    def write_sample(self, t: float, values: Mapping[str, object]) -> None:
        """Append one time-series sample taken at time ``t``."""
        record: Dict[str, object] = {"kind": "sample", "t": t}
        record.update(values)
        self.write(record)

    def write_fault(self, t: float, node: int, event: str, **details: object) -> None:
        """Append one injected-fault event (simulated or live)."""
        record: Dict[str, object] = {"kind": "fault", "t": t, "node": node, "event": event}
        record.update(details)
        self.write(record)

    def write_rows(self, ints: Any, floats: Any, loads: Any, n: int, policy: str) -> None:
        """Check the first ``n`` span rows of a chunk against the schema
        (:func:`check_rows`) and append them, in row order.  The compiled
        renderer formats them when the extension is loaded and no
        profiler watches; otherwise :class:`_SpanEncoder` does, a
        :class:`Span` per row.  The bytes are the same either way."""
        check_rows(ints, floats, loads, n, policy)
        from ..sim import native  # lazily: the live prototype never renders rows

        module, _ = native.load()
        with self._lock:
            if self._closed:
                return
            if module is None or native.profiled():
                text = _render_rows(ints, floats, loads, n, policy, self._encoder)
            else:
                text = module.render_rows(ints, floats, loads, n, _quote(policy))
            self._write_taken()
            self._stream.write(text)
            self.records_written += n
            self.spans_written += n

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush and (when the writer opened the file) close the stream."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._write_taken()
                self._stream.flush()
            finally:
                if self._owns_stream:
                    self._stream.close()

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class SpanLog:
    """A fully parsed span log: its meta header, spans, samples, and
    injected-fault events."""

    meta: Dict[str, object]
    spans: List[Span]
    samples: List[Dict[str, object]]
    faults: List[Dict[str, object]] = field(default_factory=list)

    @property
    def source(self) -> str:
        return str(self.meta.get("source", ""))

    @property
    def total_delay_s(self) -> float:
        """Sum of per-span delays (matches the run's ``total_delay_s``)."""
        return sum(span.delay_s for span in self.spans)


def _refuse_constant(name: str) -> float:
    """``json.loads`` reads ``NaN`` and ``Infinity``; a log may not hold them."""
    raise SchemaError(f"numbers must be finite, got {name}")


def parse_span_log(lines: List[str]) -> SpanLog:
    """Parse span-log lines (validating every record against the schema)."""
    meta: Optional[Dict[str, object]] = None
    spans: List[Span] = []
    samples: List[Dict[str, object]] = []
    faults: List[Dict[str, object]] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"line {number}: invalid JSON: {exc}") from exc
        except SchemaError as exc:
            raise SchemaError(f"line {number}: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"line {number}: record must be a JSON object")
        try:
            validate_record(record)
        except SchemaError as exc:
            raise SchemaError(f"line {number}: {exc}") from exc
        kind = record["kind"]
        if kind == "meta":
            if meta is not None:
                raise SchemaError(f"line {number}: duplicate meta record")
            meta = record
        elif kind == "span":
            spans.append(Span.from_record(record))
        elif kind == "fault":
            faults.append(record)
        else:
            samples.append(record)
    if meta is None:
        raise SchemaError("span log has no meta record")
    return SpanLog(meta=meta, spans=spans, samples=samples, faults=faults)


def read_span_log(path: Union[str, Path]) -> SpanLog:
    """Read and validate a JSONL span log from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_span_log(handle.readlines())
