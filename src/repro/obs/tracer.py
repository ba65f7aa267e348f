"""Simulator-side span tracing and periodic time-series sampling.

:class:`SimTracer` is the simulator's bridge into :mod:`repro.obs.span`.
It follows the invariant sanitizer's pattern from
:mod:`repro.sim.sanitize`: the tracer is attached from the outside
(``FrontEnd.tracer``) and performs no state mutation of its own, so a
traced run produces byte-identical
:class:`~repro.cluster.simulator.SimulationResult` output to an
untraced one, and an unhooked run pays nothing (the perf ledger's
``ref-8n`` workload holds).

A span is a **row** the request lifecycle writes into the tracer's
chunk when the request completes: the compiled core
(``repro/cluster/_lifecycle.c``) on a run it covers, the connection
classes of :mod:`repro.cluster.fastpath` on any other (profiled,
GMS, LB/GC, or no C compiler).  Each stage times
its phase behind one tracer test; nothing wraps a stage.  The chunk is
preallocated when the tracer is bound and of fixed length (rows of the
:mod:`repro.obs.span` row layout plus one load per node: up to
:data:`CHUNK_ROWS` rows, fewer where that would pass
:data:`CHUNK_LOADS` loads), and
:meth:`SimTracer.flush` hands it to :meth:`SpanWriter.write_rows
<repro.obs.span.SpanWriter.write_rows>`, which checks it column by
column and renders it: when it fills, before a sample or fault record,
and when the run ends, also when it ends early.

Sampling is **completion-driven**: rather than scheduling engine events
(which would perturb the run's final simulated time), the lifecycle
checks at each span completion whether the sampling interval has
elapsed (``next_sample_t``) and, if so, flushes the chunk and has the
tracer emit a ``sample`` record stamped at that completion time with
per-node load, cumulative and rolling (per-interval) miss ratio, and
per-node CPU/disk queue depths.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .span import ROW_FLOATS, ROW_INTS, ROW_OUTCOMES, ROW_PHASES, SpanWriter

__all__ = ["SimTracer", "CHUNK_ROWS", "CHUNK_LOADS"]

#: Rows a chunk holds at most: the span lines one :meth:`SimTracer.flush`
#: checks and renders, so the per-chunk cost is spread thin.
CHUNK_ROWS = 1024
#: Loads a chunk holds at most (a 1024-node cluster's chunk has 128 rows).
CHUNK_LOADS = 1 << 17

_LOST = ROW_OUTCOMES.index("lost")
_RETRY_BIT = 1 << ROW_PHASES.index("retry")


class SimTracer:
    """Per-request span emission for a simulated cluster run.

    All object references are duck-typed (``Any``) so the tracer has no
    import edge back into the cluster layer, mirroring
    :class:`repro.sim.sanitize.InvariantSanitizer`.

    Parameters
    ----------
    writer:
        The shared JSONL sink (``source="sim"``).
    sample_interval_s:
        When set, emit a ``sample`` record roughly every this many
        simulated seconds (at the first span completion past each
        interval boundary).  ``None`` disables sampling.

    What the lifecycle reads and writes: the chunk (``ints``,
    ``floats``, ``loads`` and the rows used, ``fill``), the next span
    number ``seq`` (drawn when a request starts, so spans are numbered
    in start order and logged in completion order) and
    ``next_sample_t`` (``inf`` without sampling).
    """

    def __init__(
        self, writer: SpanWriter, sample_interval_s: Optional[float] = None
    ) -> None:
        if sample_interval_s is not None and not (
            0.0 < sample_interval_s < math.inf
        ):
            # NaN and inf pass a bare ``<= 0`` guard and then never sample.
            raise ValueError(
                "sample_interval_s must be positive and finite, "
                f"got {sample_interval_s!r}"
            )
        self.writer = writer
        self.sample_interval_s = sample_interval_s
        self.spans_finished = 0
        #: Retained copies of every emitted sample (they are few and small).
        self.samples: List[Dict[str, object]] = []
        #: Retained copies of every emitted fault event (likewise few).
        self.faults: List[Dict[str, object]] = []
        self.seq = 0
        self.next_sample_t = sample_interval_s if sample_interval_s is not None else math.inf
        self._chunk(0)
        self._policy: Optional[Any] = None
        self._frontend: Optional[Any] = None
        self._nodes: Sequence[Any] = ()
        self._policy_name = ""
        self._last_requests = 0
        self._last_misses = 0

    def bind(self, frontend: Any, nodes: Sequence[Any], policy: Any) -> None:
        """Attach the cluster objects the tracer snapshots state from,
        and size the chunk's load columns to the cluster."""
        self._frontend = frontend
        self._nodes = list(nodes)
        self._policy = policy
        self._policy_name = str(getattr(policy, "name", policy.__class__.__name__))
        self._chunk(len(self._nodes))

    def unbind(self) -> None:
        """Forget the cluster (the run is over): a tracer the caller
        keeps must not keep the front-end, nodes and caches alive, nor
        close a reference cycle through ``FrontEnd.tracer``."""
        self._frontend = None
        self._nodes = ()
        self._policy = None

    # -- rows --------------------------------------------------------------------

    def _chunk(self, width: int) -> None:
        """A fresh, empty chunk for rows of ``width`` loads."""
        rows = min(CHUNK_ROWS, max(1, CHUNK_LOADS // max(width, 1)))
        self.ints = np.zeros((rows, len(ROW_INTS)), dtype=np.int64)
        self.floats = np.zeros((rows, len(ROW_FLOATS)), dtype=np.float64)
        self.loads = np.zeros((rows, width), dtype=np.int64)
        self.fill = 0

    def row(
        self, req: int, target: int, size: int, node: int, t_arrival: float,
        t_complete: float, outcome: int, mask: int, phases: Sequence[float],
        load: Optional[Sequence[int]],
    ) -> None:
        """Append one finished span as a row (``phases`` in
        :data:`~repro.obs.span.ROW_PHASES` order, ``mask`` the ones
        paid); flush a full chunk, then maybe emit a sample."""
        k = self.fill
        self.ints[k] = (req, target, size, node, outcome, mask)
        floats = self.floats[k]
        floats[0] = t_arrival
        floats[1] = t_complete
        floats[2:] = phases
        if load is not None:
            self.loads[k] = load
        self.fill = k + 1
        if k + 1 == len(self.ints):
            self.flush()
        if t_complete >= self.next_sample_t:
            self.flush()
            self._sample_objects(t_complete)

    def flush(self) -> None:
        """Hand the rows written so far to the writer, which checks and
        renders them, and start the chunk afresh."""
        n = self.fill
        if n:
            self.fill = 0
            self.spans_finished += n
            self.writer.write_rows(self.ints, self.floats, self.loads, n, self._policy_name)

    def lost(
        self, target: int, size: int, node: int, t_start: float, t_end: float
    ) -> None:
        """Emit a span for a request abandoned by the fault model's retry
        policy: it spent its whole life in (timed-out) dispatch and
        backoff against dark nodes, recorded as a single ``retry``
        phase, with no dispatch-time load."""
        phases = [0.0] * len(ROW_PHASES)
        phases[-1] = t_end - t_start
        req = self.seq
        self.seq += 1
        self.row(req, target, size, node, t_start, t_end, _LOST, _RETRY_BIT, phases, None)

    # -- fault events ----------------------------------------------------------

    def fault_event(self, t: float, node: int, event: str, **details: object) -> None:
        """Record one injected-fault event (crash, detect, join, brownout)."""
        record: Dict[str, object] = {"t": t, "node": node, "event": event}
        record.update(details)
        self.faults.append(record)
        self.flush()
        self.writer.write_fault(t, node, event, **details)

    # -- sampling --------------------------------------------------------------

    def _sample_objects(self, now: float) -> None:
        """:meth:`sample` with the books read off the cluster's objects
        (the reference lifecycle keeps them there)."""
        nodes = self._nodes
        frontend = self._frontend
        self.sample(
            now,
            sum(int(node.cache_hits) for node in nodes),
            sum(int(node.cache_misses) for node in nodes),
            sum(int(node.dynamic_requests) for node in nodes),
            int(frontend.completed) if frontend is not None else 0,
            int(frontend.in_flight) if frontend is not None else 0,
            [int(node.cpu.queue_length) for node in nodes],
            [sum(int(disk.queue_length) for disk in node.disks) for node in nodes],
        )

    def sample(
        self, now: float, hits: int, misses: int, dynamic: int, completed: int,
        in_flight: int, cpu_queue: List[int], disk_queue: List[int],
    ) -> float:
        """Emit the ``sample`` record due at ``now`` from the books the
        lifecycle hands over (the caller has flushed the chunk), and
        return when the next one is due."""
        # Miss ratio stays defined over cacheable requests only; dynamic
        # (CGI) requests bypass the caches and are reported separately.
        requests = hits + misses
        window_requests = requests - self._last_requests
        window_misses = misses - self._last_misses
        self._last_requests = requests
        self._last_misses = misses
        policy = self._policy
        values: Dict[str, object] = {
            "load": [int(v) for v in policy.loads] if policy is not None else [],
            "completed": completed,
            "in_flight": in_flight,
            "cache_hits": hits,
            "cache_misses": misses,
            "dynamic_requests": dynamic,
            "miss_ratio": (misses / requests) if requests else 0.0,
            "window_miss_ratio": (
                (window_misses / window_requests) if window_requests else 0.0
            ),
            "cpu_queue": cpu_queue,
            "disk_queue": disk_queue,
        }
        record: Dict[str, object] = {"t": now}
        record.update(values)
        self.samples.append(record)
        self.writer.write_sample(now, values)
        interval = self.sample_interval_s
        if interval is not None:
            self.next_sample_t = (now // interval + 1.0) * interval
        return self.next_sample_t
