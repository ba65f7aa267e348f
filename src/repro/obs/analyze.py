"""Span-log analysis: where-time-went breakdowns and delay distributions.

Turns a :class:`~repro.obs.span.SpanLog` (from either emitter) into the
paper's measurement views: Section 4.4's delay comparison needs the
delay distribution per policy, and diagnosing *why* a policy is slow
needs the CPU-vs-disk-vs-queueing split that per-request aggregates
hide.  Everything here is pure computation over parsed spans — no I/O
except :func:`repro.obs.span.read_span_log`, re-exported for
convenience.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..cluster.metrics import nearest_rank
from .span import Span, SpanLog, read_span_log

__all__ = [
    "PHASE_GROUPS",
    "nearest_rank",
    "where_time_went",
    "delay_stats",
    "outcome_counts",
    "format_report",
    "read_span_log",
]

#: Phase name -> reporting bucket.  The simulator and the live cluster
#: use different phase names (see :class:`repro.obs.span.Span`); this
#: folds both vocabularies into the paper's three questions — was the
#: time spent computing, waiting for a disk, or waiting in a queue?
PHASE_GROUPS: Dict[str, str] = {
    # simulator phases
    "establish": "cpu",
    "cpu": "cpu",
    "teardown": "cpu",
    "disk": "disk",
    "queue": "queue",
    # live-cluster phases
    "inspect": "cpu",
    "serve": "cpu",
    "admit": "queue",
    "handoff": "handoff",
    # fault-model retries (dispatch timeouts + backoff against dark nodes)
    "retry": "retry",
}


def where_time_went(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-policy seconds spent in each phase group.

    Returns ``{policy: {group: seconds}}``.  Span time not covered by
    any recorded phase (scheduling slack, unparted live time) is
    reported under ``"other"`` so every policy's groups sum to its total
    request delay.
    """
    breakdown: Dict[str, Dict[str, float]] = {}
    for span in spans:
        groups = breakdown.setdefault(span.policy, {})
        accounted = 0.0
        for phase, seconds in span.phases.items():
            group = PHASE_GROUPS.get(phase, phase)
            groups[group] = groups.get(group, 0.0) + seconds
            accounted += seconds
        other = span.delay_s - accounted
        if other > 1e-12:
            groups["other"] = groups.get("other", 0.0) + other
    return breakdown


def delay_stats(
    spans: Iterable[Span], percentiles: Sequence[float] = (50.0, 90.0, 99.0)
) -> Dict[str, float]:
    """Delay distribution over ``spans``: count/mean/min/max plus the
    requested nearest-rank percentiles (keys like ``"p50_s"``)."""
    ordered = sorted(span.delay_s for span in spans)
    if not ordered:
        raise ValueError("delay_stats needs at least one span")
    stats: Dict[str, float] = {
        "count": float(len(ordered)),
        "total_s": sum(ordered),
        "mean_s": sum(ordered) / len(ordered),
        "min_s": ordered[0],
        "max_s": ordered[-1],
    }
    for pct in percentiles:
        stats[f"p{pct:g}_s"] = nearest_rank(ordered, pct)
    return stats


def outcome_counts(spans: Iterable[Span]) -> Dict[str, int]:
    """How many spans resolved each way (hit, miss, coalesced, ...)."""
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span.outcome] = counts.get(span.outcome, 0) + 1
    return counts


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    return f"{seconds * 1000.0:.3f} ms"


def format_report(log: SpanLog) -> str:
    """Human-readable report over a parsed span log."""
    lines: List[str] = [
        f"span log: source={log.source}  spans={len(log.spans)}  "
        f"samples={len(log.samples)}"
        + (f"  faults={len(log.faults)}" if log.faults else "")
    ]
    if log.faults:
        events: Dict[str, int] = {}
        for fault in log.faults:
            name = str(fault.get("event", "?"))
            events[name] = events.get(name, 0) + 1
        lines.append(
            "fault events: "
            + "  ".join(f"{name}={events[name]}" for name in sorted(events))
        )
    if not log.spans:
        lines.append("no spans recorded")
        return "\n".join(lines)
    counts = outcome_counts(log.spans)
    lines.append(
        "outcomes: "
        + "  ".join(f"{name}={counts[name]}" for name in sorted(counts))
    )
    lines.append("where time went:")
    breakdown = where_time_went(log.spans)
    for policy in sorted(breakdown):
        groups = breakdown[policy]
        total = sum(groups.values())
        parts: List[Tuple[float, str]] = []
        for group, seconds in groups.items():
            share = (seconds / total * 100.0) if total else 0.0
            parts.append((seconds, f"{group} {_format_seconds(seconds)} ({share:.1f}%)"))
        parts.sort(key=lambda item: (-item[0], item[1]))
        lines.append(f"  {policy}: " + ", ".join(text for _, text in parts))
    stats = delay_stats(log.spans)
    lines.append(
        "delays: "
        f"mean={_format_seconds(stats['mean_s'])}  "
        f"p50={_format_seconds(stats['p50_s'])}  "
        f"p90={_format_seconds(stats['p90_s'])}  "
        f"p99={_format_seconds(stats['p99_s'])}  "
        f"max={_format_seconds(stats['max_s'])}  "
        f"total={_format_seconds(stats['total_s'])}"
    )
    return "\n".join(lines)
