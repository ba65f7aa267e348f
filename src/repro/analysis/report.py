"""Plain-text rendering for experiment results.

Every experiment produces an :class:`ExperimentResult`: an identifier tied
to a paper figure/table, a data table, and the paper's qualitative
expectation for that result.  ``render()`` prints the same rows/series the
paper reports, so a terminal diff against EXPERIMENTS.md is the
reproduction record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence

__all__ = ["ExperimentResult", "check", "format_table"]

#: What a check that does not hold starts with, in ``checks`` and in print.
_FAIL = "FAIL "


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Monospace table with right-aligned numeric columns."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def check(ok: bool, claim: str) -> str:
    """One entry of :attr:`ExperimentResult.checks`: ``claim``, marked as
    failed unless ``ok``."""
    return claim if ok else _FAIL + claim


@dataclass
class ExperimentResult:
    """One regenerated paper figure/table."""

    experiment_id: str
    title: str
    paper_reference: str
    headers: List[str]
    rows: List[List[Any]]
    expectation: str
    notes: str = ""
    checks: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Render the experiment as the text block recorded in EXPERIMENTS.md."""
        parts = [
            f"== {self.experiment_id}: {self.title} ({self.paper_reference}) ==",
            format_table(self.headers, self.rows),
            f"paper expectation: {self.expectation}",
        ]
        if self.checks:
            parts.append("checks:")
            failed = self.failures
            parts.extend(f"  [{' ' if c in failed else 'x'}] {c}" for c in self.checks)
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)

    @property
    def failures(self) -> List[str]:
        """The checks that did not hold (see :func:`check`)."""
        return [c for c in self.checks if c.startswith(_FAIL)]

    def column(self, header: str) -> List[Any]:
        """Extract one column by header name (for assertions in benches)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]
