"""Trace containers: the tokenized request streams the simulator consumes.

Section 3.2 of the paper: *"The input to the simulator is a stream of
tokenized target requests, where each token represents a unique target
being served.  Associated with each token is a target size in bytes."*

:class:`Trace` is exactly that — a sequence of integer target tokens plus a
per-target size table — backed by numpy arrays so multi-million request
traces stay cheap to store and iterate.  A token is stored at the
narrowest unsigned width its catalog needs (:func:`token_dtype`): the
paper's catalogs of under 65 536 files cost two bytes a request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Request", "Trace", "TraceError", "token_dtype", "unsigned_dtype"]


class TraceError(ValueError):
    """Raised for malformed trace construction or access."""


def unsigned_dtype(largest: int) -> np.dtype[Any]:
    """The narrowest unsigned integer dtype holding ``0..largest``."""
    return np.min_scalar_type(max(int(largest), 0))


def token_dtype(num_targets: int) -> np.dtype[Any]:
    """The dtype every token of a ``num_targets`` catalog is stored at.

    A writer that grows the catalog (or offsets tokens into a larger
    one) must widen to the grown catalog's dtype *before* writing: numpy
    assignment wraps silently, so a ``uint8`` copy stores hot target 256
    as 0.
    """
    return unsigned_dtype(num_targets - 1)


@dataclass(frozen=True)
class Request:
    """One tokenized request: which target, and how many bytes it is."""

    target: int
    size: int


class Trace:
    """A tokenized request stream over a fixed target catalog.

    Parameters
    ----------
    targets:
        Per-request target tokens, each an integer in
        ``0..num_targets-1``.  They are kept at :func:`token_dtype` of
        the catalog (an array already at that width is not copied);
        floats and booleans are refused, not cast.
    sizes_by_target:
        ``sizes_by_target[t]`` is the byte size of target ``t``.
    name:
        Human-readable label (used in reports).
    cpu_cost_s_by_target:
        Optional per-target CPU service cost in seconds (at unit CPU
        speed).  A target with cost ``> 0`` models a dynamic/CGI request
        per Section 2 of the paper: its service time is dominated by
        computation, independent of the response size, and its output is
        uncacheable.  ``None`` (the default) means an all-static catalog.
    """

    def __init__(
        self,
        targets: Sequence[int],
        sizes_by_target: Sequence[int],
        name: str = "trace",
        cpu_cost_s_by_target: Optional[Sequence[float]] = None,
    ) -> None:
        tokens = np.asarray(targets)
        self.sizes_by_target = np.asarray(sizes_by_target, dtype=np.int64)
        self.name = name
        if tokens.ndim != 1 or self.sizes_by_target.ndim != 1:
            raise TraceError("targets and sizes_by_target must be 1-D")
        if len(self.sizes_by_target) == 0:
            raise TraceError("empty target catalog")
        if np.any(self.sizes_by_target < 0):
            raise TraceError("negative target size")
        if len(tokens):
            if tokens.dtype.kind not in "iu":
                raise TraceError(f"request tokens must be integers, got {tokens.dtype}")
            if tokens.min() < 0 or tokens.max() >= len(self.sizes_by_target):
                raise TraceError("request token outside the target catalog")
        self.targets = tokens.astype(token_dtype(len(self.sizes_by_target)), copy=False)
        self.cpu_cost_s_by_target: Optional[np.ndarray]
        if cpu_cost_s_by_target is None:
            self.cpu_cost_s_by_target = None
        else:
            costs = np.asarray(cpu_cost_s_by_target, dtype=np.float64)
            if costs.ndim != 1 or len(costs) != len(self.sizes_by_target):
                raise TraceError(
                    "cpu_cost_s_by_target must be 1-D with one entry per target"
                )
            if not np.all(np.isfinite(costs)) or np.any(costs < 0):
                raise TraceError("cpu_cost_s_by_target entries must be finite and >= 0")
            self.cpu_cost_s_by_target = costs

    # -- basic container protocol --------------------------------------------

    def __len__(self) -> int:
        return int(len(self.targets))

    def __iter__(self) -> Iterator[Request]:
        sizes = self.sizes_by_target
        for token in self.targets:
            yield Request(int(token), int(sizes[token]))

    def __getitem__(self, index: int) -> Request:
        token = int(self.targets[index])
        return Request(token, int(self.sizes_by_target[token]))

    # -- derived views ---------------------------------------------------------

    def head(self, n: int) -> "Trace":
        """First ``n`` requests over the same catalog.

        ``n`` must be in ``0..len(self)``; out-of-range values raise
        :class:`TraceError` rather than silently clamping (numpy slicing
        would otherwise yield a misleadingly-named, possibly empty trace).
        """
        if not 0 <= n <= len(self):
            raise TraceError(
                f"head({n}) out of range for {len(self)}-request trace {self.name!r}"
            )
        return Trace(
            self.targets[:n],
            self.sizes_by_target,
            name=f"{self.name}[:{n}]",
            cpu_cost_s_by_target=self.cpu_cost_s_by_target,
        )

    def slice(self, start: int, stop: int) -> "Trace":
        """Requests ``start..stop`` over the same catalog.

        Bounds must satisfy ``0 <= start <= stop <= len(self)``; negative
        or out-of-range indices raise :class:`TraceError` instead of being
        reinterpreted or clamped by numpy slicing semantics.
        """
        if not 0 <= start <= stop <= len(self):
            raise TraceError(
                f"slice({start}, {stop}) out of range for "
                f"{len(self)}-request trace {self.name!r}"
            )
        return Trace(
            self.targets[start:stop],
            self.sizes_by_target,
            name=f"{self.name}[{start}:{stop}]",
            cpu_cost_s_by_target=self.cpu_cost_s_by_target,
        )

    def request_sizes(self) -> np.ndarray:
        """Per-request byte sizes (vectorized)."""
        return self.sizes_by_target[self.targets]

    def request_lists(self) -> Tuple[memoryview, List[int]]:
        """``(targets, sizes_by_target)`` as the admission loop reads them.

        ``targets`` is a fresh read-only view of :attr:`targets`: made in
        O(1), it costs no memory per request, and indexing it returns a
        plain ``int``.  It is not kept on the trace, which must stay
        picklable; each caller keeps its own.  ``sizes_by_target`` is a
        plain list, memoized once per trace: it is O(catalog), and a
        list hands out the ``int`` it holds where a view would build a
        new one on every read.
        """
        sizes = getattr(self, "_size_list", None)
        if sizes is None:
            sizes = self._size_list = self.sizes_by_target.tolist()
        return memoryview(self.targets).toreadonly(), sizes

    def transmit_units(self, unit_bytes: int = 512) -> List[int]:
        """Per-target size in ``unit_bytes`` blocks (rounded up), memoized.

        This is the cost-parameter array the fast request path consumes:
        CPU transmit time for target ``t`` is ``units[t] *
        seconds_per_unit``, so the per-request integer division is
        precomputed for the whole catalog in one vectorized pass.
        """
        if unit_bytes < 1:
            raise TraceError(f"unit_bytes must be >= 1, got {unit_bytes}")
        cache = getattr(self, "_transmit_units", None)
        if cache is None:
            cache = {}
            self._transmit_units = cache
        units = cache.get(unit_bytes)
        if units is None:
            units = (
                (self.sizes_by_target + (unit_bytes - 1)) // unit_bytes
            ).tolist()
            cache[unit_bytes] = units
        return units

    def dynamic_cost_list(self) -> Optional[List[float]]:
        """Per-target CPU cost as a plain list, memoized — or ``None``.

        Returns ``None`` when the catalog is all-static (no cost table,
        or every cost is zero) so callers can branch once per run instead
        of once per request.  The memoized list is a single shared object
        per trace: every simulation over the trace reads the *same* list,
        so the table costs one catalog's worth of floats however many
        nodes and runs read it.
        """
        if self.cpu_cost_s_by_target is None:
            return None
        cached = getattr(self, "_dynamic_cost_list", None)
        if cached is None:
            if not np.any(self.cpu_cost_s_by_target > 0):
                return None
            cached = self.cpu_cost_s_by_target.tolist()
            self._dynamic_cost_list = cached
        return cached

    # -- aggregate statistics ----------------------------------------------------

    @property
    def has_dynamic(self) -> bool:
        """True when at least one target carries a CPU (CGI) service cost."""
        return self.cpu_cost_s_by_target is not None and bool(
            np.any(self.cpu_cost_s_by_target > 0)
        )

    @property
    def num_requests(self) -> int:
        return len(self)

    @property
    def num_targets(self) -> int:
        """Catalog size (including targets never requested)."""
        return int(len(self.sizes_by_target))

    @property
    def num_distinct_requested(self) -> int:
        return int(len(np.unique(self.targets))) if len(self.targets) else 0

    @property
    def total_bytes(self) -> int:
        """Data-set size: sum of target sizes (each target counted once)."""
        return int(self.sizes_by_target.sum())

    @property
    def transferred_bytes(self) -> int:
        """Sum of sizes over all requests (what the servers actually ship)."""
        return int(self.request_sizes().sum()) if len(self.targets) else 0

    @property
    def mean_file_bytes(self) -> float:
        return self.total_bytes / self.num_targets

    @property
    def mean_transfer_bytes(self) -> float:
        return self.transferred_bytes / self.num_requests if len(self) else 0.0

    def request_counts(self) -> np.ndarray:
        """Per-target request counts (length ``num_targets``)."""
        return np.bincount(self.targets, minlength=self.num_targets)

    def describe(self) -> str:
        """One-line summary in the style of the paper's figure captions."""
        return (
            f"{self.name}: {self.num_requests} reqs, {self.num_targets} files, "
            f"{self.total_bytes / 2**20:.0f} MB total"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace {self.describe()}>"
