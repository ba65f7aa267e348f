"""Hot-target injection — the Section 4.2 replication workload.

The paper: *"we modified the Rice trace to include a small number of
artificial high frequency targets and varied their request rate between
2 % and 10 % of the total number of requests ... the most significant
increase occurs when the size of the hot targets is larger than ~100 KBytes
and the combined access frequency of all hot targets accounts for ≥ 5–10 %
of the total number of requests."*

:func:`inject_hot_targets` performs that modification on any trace: it
extends the catalog with ``num_hot`` new targets of a given size and
rewrites a uniformly-spread fraction of the request stream to hit them, so
the original request count (and trace length) is preserved.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .trace import Trace, token_dtype

__all__ = ["inject_hot_targets"]


def inject_hot_targets(
    trace: Trace,
    num_hot: int,
    hot_fraction: float,
    hot_size_bytes: int,
    seed: Optional[int] = 0,
) -> Trace:
    """Return a new trace where ``hot_fraction`` of requests hit hot targets.

    Parameters
    ----------
    trace:
        Base workload (unchanged).
    num_hot:
        Number of artificial hot targets appended to the catalog.
    hot_fraction:
        Fraction of all requests redirected to hot targets, spread
        uniformly over the stream and uniformly across the hot targets.
    hot_size_bytes:
        Size of every hot target.
    """
    if num_hot < 1:
        raise ValueError(f"need at least one hot target, got {num_hot}")
    if not 0 < hot_fraction < 1:
        raise ValueError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
    if hot_size_bytes <= 0:
        raise ValueError(f"hot_size_bytes must be positive, got {hot_size_bytes}")
    rng = np.random.default_rng(seed)
    n = len(trace)
    num_redirected = int(round(hot_fraction * n))
    if num_redirected == 0:
        raise ValueError("hot_fraction too small: would redirect zero requests")
    first_hot = trace.num_targets
    # Widen before writing: the hot ids may not fit the base catalog's width.
    tokens = trace.targets.astype(token_dtype(first_hot + num_hot))
    slots = rng.choice(n, size=num_redirected, replace=False)
    tokens[slots] = first_hot + rng.integers(0, num_hot, size=num_redirected)
    sizes = np.concatenate(
        [trace.sizes_by_target, np.full(num_hot, hot_size_bytes, dtype=np.int64)]
    )
    name = f"{trace.name}+hot({num_hot}x{hot_size_bytes}B@{hot_fraction:.0%})"
    return Trace(tokens, sizes, name=name)
