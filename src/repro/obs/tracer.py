"""Simulator-side span tracing and periodic time-series sampling.

:class:`SimTracer` is the simulator's bridge into :mod:`repro.obs.span`.
It follows the invariant sanitizer's pattern from
:mod:`repro.sim.sanitize`: the tracer is attached from the outside
(``FrontEnd.tracer``) and observes the request lifecycle through stage
wrappers on the connection state machine (the ``Traced*`` classes of
:mod:`repro.cluster.fastpath`), performing no state mutation of its
own, so a traced run produces byte-identical
:class:`~repro.cluster.simulator.SimulationResult` output to an
untraced one, and an unhooked run pays nothing (the perf ledger's
``ref-8n`` workload holds).

Sampling is **completion-driven**: rather than scheduling engine events
(which would perturb the run's final simulated time), the tracer checks
at each span completion whether the sampling interval has elapsed and,
if so, emits a ``sample`` record stamped at that completion time with
per-node load, cumulative and rolling (per-interval) miss ratio, and
per-node CPU/disk queue depths.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from .span import Span, SpanWriter

__all__ = ["SimTracer"]


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
        self._seq = 0
        self._policy: Optional[Any] = None
        self._frontend: Optional[Any] = None
        self._nodes: Sequence[Any] = ()
        self._policy_name = ""
        self._next_sample_t = sample_interval_s if sample_interval_s is not None else 0.0
        self._last_requests = 0
        self._last_misses = 0

    def bind(self, frontend: Any, nodes: Sequence[Any], policy: Any) -> None:
        """Attach the cluster objects the tracer snapshots state from."""
        self._frontend = frontend
        self._nodes = list(nodes)
        self._policy = policy
        self._policy_name = str(getattr(policy, "name", policy.__class__.__name__))

    def unbind(self) -> None:
        """Forget the cluster (the run is over): a tracer the caller
        keeps must not keep the front-end, nodes and caches alive, nor
        close a reference cycle through ``FrontEnd.tracer``."""
        self._frontend = None
        self._nodes = ()
        self._policy = None

    # -- span lifecycle --------------------------------------------------------

    def begin(self, target: object, size: int, node: int, now: float) -> Span:
        """Open a span at dispatch time (arrival == dispatch: the
        simulated front-end is overhead-free and closed-loop, so a
        request is dispatched the instant its connection is admitted)."""
        policy = self._policy
        # A plain copy: ``Policy.loads`` already holds Python ints, and
        # the writer's schema check refuses anything else.  Positional,
        # every field given: once per traced request, the dataclass's
        # keyword matching and ``default_factory`` call are measurable.
        span = Span(
            self._seq, str(target), int(size), self._policy_name, node,
            now, now, 0.0, "error",
            list(policy.loads) if policy is not None else None, {},
        )
        self._seq += 1
        return span

    def lost(
        self, target: object, size: int, node: int, t_start: float, t_end: float
    ) -> None:
        """Emit a span for a request abandoned by the fault model's retry
        policy: it spent its whole life in (timed-out) dispatch and
        backoff against dark nodes, recorded as a single ``retry``
        phase."""
        span = Span(
            req=self._seq,
            target=str(target),
            size=int(size),
            policy=self._policy_name,
            node=node,
            t_arrival=t_start,
            t_dispatch=t_start,
            t_complete=t_end,
            outcome="lost",
            phases={"retry": t_end - t_start},
        )
        self._seq += 1
        self.finish(span)

    # -- fault events ----------------------------------------------------------

    def fault_event(self, t: float, node: int, event: str, **details: object) -> None:
        """Record one injected-fault event (crash, detect, join, brownout)."""
        record: Dict[str, object] = {"t": t, "node": node, "event": event}
        record.update(details)
        self.faults.append(record)
        self.writer.write_fault(t, node, event, **details)

    def finish(self, span: Span) -> None:
        """Emit a completed span; maybe emit a periodic sample.  The
        tracer made the span in :meth:`begin` and forgets it here, so
        the writer may take it over."""
        self.writer.take_span(span)
        self.spans_finished += 1
        interval = self.sample_interval_s
        if interval is not None and span.t_complete >= self._next_sample_t:
            self._emit_sample(span.t_complete)
            self._next_sample_t = (span.t_complete // interval + 1.0) * interval

    # -- sampling --------------------------------------------------------------

    def _emit_sample(self, now: float) -> None:
        hits = sum(int(node.cache_hits) for node in self._nodes)
        misses = sum(int(node.cache_misses) for node in self._nodes)
        dynamic = sum(int(node.dynamic_requests) for node in self._nodes)
        # Miss ratio stays defined over cacheable requests only; dynamic
        # (CGI) requests bypass the caches and are reported separately.
        requests = hits + misses
        window_requests = requests - self._last_requests
        window_misses = misses - self._last_misses
        self._last_requests = requests
        self._last_misses = misses
        policy = self._policy
        frontend = self._frontend
        values: Dict[str, object] = {
            "load": [int(v) for v in policy.loads] if policy is not None else [],
            "completed": int(frontend.completed) if frontend is not None else 0,
            "in_flight": int(frontend.in_flight) if frontend is not None else 0,
            "cache_hits": hits,
            "cache_misses": misses,
            "dynamic_requests": dynamic,
            "miss_ratio": (misses / requests) if requests else 0.0,
            "window_miss_ratio": (
                (window_misses / window_requests) if window_requests else 0.0
            ),
            "cpu_queue": [int(node.cpu.queue_length) for node in self._nodes],
            "disk_queue": [
                sum(int(disk.queue_length) for disk in node.disks)
                for node in self._nodes
            ],
        }
        record: Dict[str, object] = {"t": now}
        record.update(values)
        self.samples.append(record)
        self.writer.write_sample(now, values)
