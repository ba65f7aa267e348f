"""Synthetic trace generators matched to the paper's published workloads.

The paper evaluates on three proprietary traces we cannot ship:

* the **Rice University trace** — logs of several departmental servers
  merged over two months: 2.3 M requests, 37 703 files, 1418 MB, *low*
  locality (a large fraction of the data set must be cached to cover most
  requests);
* the **IBM trace** (www.ibm.com, 3.5 days): 15.6 M requests, 38 527
  files, 1029 MB, *high* locality (a small memory covers most requests);
* the **IBM Deep Blue chess trace** — huge request counts against a tiny
  working set that fits in a single node's cache.

Each generator below reproduces the published aggregate statistics — file
count, total data-set size, and crucially the *working-set coverage curve*
(how many MB of the hottest files are needed to cover 97/98/99 % of
requests) — using a Zipf-like popularity law combined with a log-normal
size distribution and a tunable popularity↔size rank correlation (the IBM
trace's hot files are small because "content designers have likely spent
effort to minimize the sizes of high frequency documents").

Requests are drawn from the independent reference model (IRM).  Working-set
and cache-aggregation behaviour — everything the paper's figures measure —
is a function of the popularity and size marginals, which we match; exact
request interleaving is not.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

import numpy as np

from .trace import Trace, token_dtype

__all__ = [
    "zipf_weights",
    "draw_tokens",
    "synthesize_trace",
    "rice_like_trace",
    "ibm_like_trace",
    "chess_like_trace",
]

#: Published aggregate statistics (paper Figures 5 and 6).
RICE_NUM_FILES = 37703
RICE_TOTAL_MB = 1418
IBM_NUM_FILES = 38527
IBM_TOTAL_MB = 1029

#: Requests drawn per pass: the float64 uniforms and intp indices of one
#: pass are the only per-request temporaries a generator allocates.
_CHUNK = 1 << 16


def zipf_weights(num_targets: int, alpha: float) -> np.ndarray:
    """Normalized Zipf(alpha) probabilities for ranks ``1..num_targets``."""
    if num_targets < 1:
        raise ValueError(f"need at least one target, got {num_targets}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    ranks = np.arange(1, num_targets + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def _chunks(n: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of consecutive ``_CHUNK``-long passes over ``0..n``."""
    for start in range(0, n, _CHUNK):
        yield start, min(start + _CHUNK, n)


def draw_tokens(
    rng: np.random.Generator,
    popularity: np.ndarray[Any, Any],
    out: np.ndarray[Any, Any],
) -> np.ndarray[Any, Any]:
    """Fill ``out`` with ``rng.choice(len(popularity), size=len(out), p=popularity)``.

    The draws are numpy's own, value for value and in the same stream
    order: ``choice`` takes one ``random()`` per request and finds it in
    the normalised cdf with ``searchsorted(side="right")``.  Doing that a
    chunk at a time writes straight into ``out`` at its own (narrow)
    dtype, where ``choice`` would build a float64 and an int64 array per
    request first.
    """
    cdf = np.cumsum(popularity, dtype=np.float64)
    cdf /= cdf[-1]
    for start, stop in _chunks(len(out)):
        out[start:stop] = cdf.searchsorted(rng.random(stop - start), side="right")
    return out


def _catalog(
    rng: np.random.Generator,
    num_targets: int,
    total_bytes: int,
    size_sigma: float = 1.6,
    correlation: float = -0.5,
    min_file_bytes: int = 128,
    max_file_bytes: int = 64 * 2**20,
) -> np.ndarray:
    """Log-normal file sizes summing to ``total_bytes``, by popularity rank.

    ``correlation`` in [-1, 1]: -1 pairs the most popular target with the
    smallest file (IBM-style), +1 with the largest, 0 is a uniform shuffle.
    Implemented as a noisy rank blend, so intermediate values give partial
    rank correlation.  The defaults are the catalog of every generator in
    :mod:`repro.workload.dynamic`.
    """
    if not -1.0 <= correlation <= 1.0:
        raise ValueError(f"correlation must be in [-1, 1], got {correlation}")
    raw = rng.lognormal(mean=0.0, sigma=size_sigma, size=num_targets)
    sizes = raw * (total_bytes / raw.sum())
    sizes = np.clip(sizes, min_file_bytes, max_file_bytes)
    # Re-normalize after clipping (one pass is enough for test tolerances).
    sizes = sizes * (total_bytes / sizes.sum())
    sizes = np.sort(np.maximum(sizes.astype(np.int64), min_file_bytes))
    if correlation >= 0:
        sizes = sizes[::-1]  # descending: popular -> large
    strength = abs(correlation)
    # Low-noise score ~ popularity rank; high noise ~ random permutation.
    score = strength * np.arange(num_targets) + (
        (1.0 - strength) * rng.random(num_targets) * num_targets
    )
    assigned = np.empty(num_targets, dtype=np.int64)
    assigned[np.argsort(score, kind="stable")] = sizes
    return assigned


def _stationary(
    rng: np.random.Generator,
    num_requests: int,
    num_targets: int,
    total_bytes: int,
    zipf_alpha: float,
    **catalog: Any,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(popularity, sizes, tokens)`` of an independent-reference-model
    stream: a :func:`_catalog` (``catalog`` overrides its defaults), then
    ``num_requests`` Zipf(``zipf_alpha``) draws over it."""
    popularity = zipf_weights(num_targets, zipf_alpha)
    sizes = _catalog(rng, num_targets, total_bytes, **catalog)
    tokens = draw_tokens(
        rng, popularity, np.empty(num_requests, dtype=token_dtype(num_targets))
    )
    return popularity, sizes, tokens


def synthesize_trace(
    num_requests: int,
    num_targets: int,
    total_bytes: int,
    zipf_alpha: float,
    size_sigma: float = 1.6,
    size_popularity_correlation: float = 0.0,
    min_file_bytes: int = 128,
    max_file_bytes: int = 64 * 2**20,
    burst_fraction: float = 0.0,
    burst_focus: int = 12,
    burst_window: int = 5000,
    seed: Optional[int] = 0,
    name: str = "synthetic",
) -> Trace:
    """General synthetic workload generator.

    Target token ``t`` is the t-th most popular target; request tokens are
    Zipf(``zipf_alpha``) draws; file sizes are log-normal summing to
    ``total_bytes`` and assigned to popularity ranks per
    ``size_popularity_correlation``.

    ``burst_fraction`` adds the *temporal burstiness* of real server logs
    on top of the independent reference model: the stream is cut into
    windows of ``burst_window`` requests, each window picks a popularity-
    weighted *focus set* of ``burst_focus`` targets, and that fraction of
    the window's requests is redirected uniformly onto the focus set.
    This is what defeats static hash partitioning (LB) in the paper's
    traces — whichever partition owns the currently hot documents
    saturates while the others idle — and it is invisible to strategies
    that balance load dynamically.
    """
    if num_requests < 0:
        raise ValueError(f"negative request count: {num_requests}")
    if not 0.0 <= burst_fraction < 1.0:
        raise ValueError(f"burst_fraction must be in [0, 1), got {burst_fraction}")
    rng = np.random.default_rng(seed)
    popularity, sizes, tokens = _stationary(
        rng,
        num_requests,
        num_targets,
        total_bytes,
        zipf_alpha,
        size_sigma=size_sigma,
        correlation=size_popularity_correlation,
        min_file_bytes=min_file_bytes,
        max_file_bytes=max_file_bytes,
    )
    if burst_fraction > 0.0 and num_requests > 0:
        if burst_focus < 1 or burst_window < 1:
            raise ValueError("burst_focus and burst_window must be >= 1")
        burst_mask = np.empty(num_requests, dtype=bool)
        for start, stop in _chunks(num_requests):
            np.less(rng.random(stop - start), burst_fraction, out=burst_mask[start:stop])
        focus_count = min(burst_focus, num_targets)
        for start in range(0, num_requests, burst_window):
            stop = min(start + burst_window, num_requests)
            window_mask = burst_mask[start:stop]
            hits = int(window_mask.sum())
            if hits == 0:
                continue
            focus = rng.choice(num_targets, size=focus_count, p=popularity)
            tokens[start:stop][window_mask] = rng.choice(focus, size=hits)
    return Trace(tokens, sizes, name=name)


def rice_like_trace(
    num_requests: int = 300_000,
    seed: int = 42,
    scale: float = 1.0,
) -> Trace:
    """Rice-University-like workload: large data set, *low* locality.

    Matches the published catalog (37 703 files, 1418 MB) and the paper's
    qualitative coverage claim that a large fraction of the data set
    (hundreds of MB) is needed to cover 97–99 % of requests.  ``scale``
    shrinks the catalog and data set proportionally for fast tests.
    """
    num_files = max(1, int(RICE_NUM_FILES * scale))
    total = int(RICE_TOTAL_MB * 2**20 * scale)
    return synthesize_trace(
        num_requests=num_requests,
        num_targets=num_files,
        total_bytes=total,
        zipf_alpha=0.90,
        size_sigma=1.7,
        size_popularity_correlation=-0.50,
        burst_fraction=0.20,
        burst_focus=10,
        burst_window=40000,
        seed=seed,
        name="rice-like",
    )


def ibm_like_trace(
    num_requests: int = 300_000,
    seed: int = 7,
    scale: float = 1.0,
) -> Trace:
    """www.ibm.com-like workload: comparable data set, *high* locality.

    Matches the published catalog (38 527 files, 1029 MB); hot documents
    are deliberately small, and popularity is steeper, so a much smaller
    memory covers the same request fraction as in the Rice-like trace.
    """
    num_files = max(1, int(IBM_NUM_FILES * scale))
    total = int(IBM_TOTAL_MB * 2**20 * scale)
    return synthesize_trace(
        num_requests=num_requests,
        num_targets=num_files,
        total_bytes=total,
        zipf_alpha=0.95,
        size_sigma=1.6,
        size_popularity_correlation=-0.70,
        burst_fraction=0.20,
        burst_focus=12,
        burst_window=40000,
        seed=seed,
        name="ibm-like",
    )


def chess_like_trace(
    num_requests: int = 200_000,
    seed: int = 11,
) -> Trace:
    """Deep-Blue-match-like workload: tiny working set, extremely hot files.

    "The working set of this trace is very small and achieves a low miss
    ratio with a main memory cache of a single node (32 MB)" — a best case
    for WRR and a worst case for LARD.
    """
    return synthesize_trace(
        num_requests=num_requests,
        num_targets=800,
        total_bytes=24 * 2**20,
        zipf_alpha=1.45,
        size_sigma=1.2,
        size_popularity_correlation=-0.5,
        min_file_bytes=256,
        max_file_bytes=2 * 2**20,
        seed=seed,
        name="chess-like",
    )
