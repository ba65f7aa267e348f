"""Phase-structured dynamic workload generators.

The static generators in :mod:`repro.workload.synthetic` draw every
request from one fixed popularity law (the independent reference model);
the paper's own discussion — and the ROADMAP's "scenario diversity" item
— calls for the regimes where that stationarity breaks:

* **flash crowd** (:func:`flash_crowd_trace`) — a sudden concentration of
  requests onto a tiny hot set partway through the stream, then decay;
* **diurnal load** (:func:`diurnal_trace`) — a day/night envelope.  The
  simulator is *closed-loop* (the trace is a token stream, not an arrival
  process), so the envelope is expressed in stream composition: each
  phase of each cycle contributes a raised-cosine share of the requests
  and blends between a peaked (daytime) and a flat (nighttime)
  popularity law;
* **popularity drift** (:func:`drift_trace`) — the Zipf alpha sweeps
  across the trace while a seeded rank permutation churns per phase, so
  the *identity* of the hot documents rotates and locality policies must
  re-learn their mappings;
* **CGI/dynamic mixes** (:func:`cgi_mix_trace`,
  :func:`mark_dynamic_targets`) — a fraction of targets is CPU-bound
  with a size-independent service cost (paper Section 2's dynamic
  content), carried on :attr:`~repro.workload.trace.Trace.
  cpu_cost_s_by_target` and plumbed through the cluster cost model;
* **multi-tenant mixes** (:func:`multi_tenant_trace`) — K independent
  catalogs interleaved with per-tenant weights.

Every generator takes only the keywords some caller passes.  They share
one catalog, :func:`repro.workload.synthetic._catalog`'s defaults:
log-normal sizes (sigma 1.6) from 128 B to 64 MiB summing to the
requested bytes, assigned to popularity ranks with correlation -0.5
(popular documents tend to be small).  The flash crowd and the CGI mix
draw their stream the way :func:`~repro.workload.synthetic.
synthesize_trace` does; the CGI mix *is* one, marked by
:func:`mark_dynamic_targets`.

Determinism contract: every generator is a pure function of its
parameters — all randomness flows from ``np.random.default_rng(seed)``
— so equal parameters give byte-identical traces, the generators are
memoizable via :func:`repro.workload.memo.cached_trace`, and sweeps over
them are byte-identical across ``--jobs`` fan-out.  See
``docs/workloads.md``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .synthetic import (
    _catalog,
    _chunks,
    _stationary,
    draw_tokens,
    synthesize_trace,
    zipf_weights,
)
from .trace import Trace, TraceError, token_dtype

__all__ = [
    "flash_crowd_trace",
    "diurnal_trace",
    "drift_trace",
    "cgi_mix_trace",
    "mark_dynamic_targets",
    "multi_tenant_trace",
]


def flash_crowd_trace(
    num_requests: int = 200_000,
    num_targets: int = 20_000,
    total_bytes: int = 600 * 2**20,
    hot_targets: int = 8,
    peak_fraction: float = 0.60,
    onset_fraction: float = 0.30,
    peak_length_fraction: float = 0.20,
    seed: int = 101,
) -> Trace:
    """Sudden hot-set concentration, then decay.

    The stream is baseline Zipf(0.9) IRM until position
    ``onset_fraction * n``; there, the probability that a request is
    redirected onto a ``hot_targets``-document *crowd set* jumps to
    ``peak_fraction``, holds for ``peak_length_fraction`` of the stream,
    then decays linearly to zero over the next 30%.  The crowd set is a
    seeded popularity-weighted sample, so it overlaps the warm working
    set only partially — the event both concentrates load and rotates
    the hot documents, the combination that separates locality-aware
    policies from oblivious ones.
    """
    if num_requests < 0:
        raise ValueError(f"negative request count: {num_requests}")
    if not 0.0 <= peak_fraction <= 1.0:
        raise ValueError(f"peak_fraction must be in [0, 1], got {peak_fraction}")
    for label, value in (
        ("onset_fraction", onset_fraction),
        ("peak_length_fraction", peak_length_fraction),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{label} must be in [0, 1], got {value}")
    if hot_targets < 1:
        raise ValueError(f"hot_targets must be >= 1, got {hot_targets}")
    rng = np.random.default_rng(seed)
    popularity, sizes, tokens = _stationary(
        rng, num_requests, num_targets, total_bytes, 0.90
    )
    if num_requests > 0 and peak_fraction > 0.0:
        crowd = rng.choice(
            num_targets,
            size=min(hot_targets, num_targets),
            replace=False,
            p=popularity,
        )
        onset = int(onset_fraction * num_requests)
        peak_end = min(num_requests, onset + int(peak_length_fraction * num_requests))
        decay_len = int(0.30 * num_requests)
        decay_end = min(num_requests, peak_end + decay_len)
        # Redirect probability: peak_fraction on the plateau, a linear
        # decay back to 0 after it, 0 elsewhere.  Every position draws its
        # uniform, but only the onset-to-decay window can redirect, so
        # only the window holds a mask.
        ramp = np.linspace(peak_fraction, 0.0, decay_len + 1)[1 : 1 + decay_end - peak_end]
        mask = np.empty(decay_end - onset, dtype=bool)
        for start, stop in _chunks(num_requests):
            uniforms = rng.random(stop - start)
            lo, hi = max(start, onset), min(stop, peak_end)
            if lo < hi:
                np.less(
                    uniforms[lo - start : hi - start],
                    peak_fraction,
                    out=mask[lo - onset : hi - onset],
                )
            lo, hi = max(start, peak_end), min(stop, decay_end)
            if lo < hi:
                np.less(
                    uniforms[lo - start : hi - start],
                    ramp[lo - peak_end : hi - peak_end],
                    out=mask[lo - onset : hi - onset],
                )
        hits = int(mask.sum())
        if hits:
            tokens[onset:decay_end][mask] = rng.choice(crowd, size=hits)
    return Trace(tokens, sizes, name="flash-crowd")


def diurnal_trace(
    num_requests: int = 200_000,
    num_targets: int = 20_000,
    total_bytes: int = 600 * 2**20,
    zipf_alpha_peak: float = 1.10,
    zipf_alpha_trough: float = 0.75,
    cycles: int = 3,
    phases_per_cycle: int = 8,
    peak_to_trough: float = 4.0,
    seed: int = 105,
) -> Trace:
    """Day/night load envelope expressed in stream composition.

    The simulator is closed-loop — a trace has no arrival timestamps —
    so a diurnal *rate* envelope maps onto the share of the request
    stream each phase contributes: phase ``k`` of every cycle carries a
    raised-cosine weight between 1 (trough) and ``peak_to_trough``
    (peak).  Popularity concentration rides the same envelope: peak
    phases draw from Zipf(``zipf_alpha_peak``) (daytime traffic is
    browse-heavy and concentrated), trough phases from the flatter
    Zipf(``zipf_alpha_trough``) (nighttime crawlers sweep the long
    tail), with linear blending in between.
    """
    if num_requests < 0:
        raise ValueError(f"negative request count: {num_requests}")
    if cycles < 1 or phases_per_cycle < 2:
        raise ValueError("need cycles >= 1 and phases_per_cycle >= 2")
    if peak_to_trough < 1.0:
        raise ValueError(f"peak_to_trough must be >= 1, got {peak_to_trough}")
    rng = np.random.default_rng(seed)
    sizes = _catalog(rng, num_targets, total_bytes)
    phases = cycles * phases_per_cycle
    k = np.arange(phases, dtype=np.float64)
    # Raised cosine in [0, 1] per phase position within its cycle.
    envelope01 = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / phases_per_cycle))
    weights = 1.0 + (peak_to_trough - 1.0) * envelope01
    counts = np.floor(weights * (num_requests / weights.sum())).astype(np.int64)
    # Distribute the rounding remainder deterministically to the largest
    # phases so counts sum exactly to num_requests.
    remainder = num_requests - int(counts.sum())
    if remainder > 0:
        order = np.argsort(-weights, kind="stable")
        counts[order[:remainder]] += 1
    tokens = np.empty(num_requests, dtype=token_dtype(num_targets))
    stop = 0
    for phase in range(phases):
        start, stop = stop, stop + int(counts[phase])
        if start == stop:
            continue
        alpha = zipf_alpha_trough + (
            zipf_alpha_peak - zipf_alpha_trough
        ) * float(envelope01[phase])
        draw_tokens(rng, zipf_weights(num_targets, alpha), tokens[start:stop])
    return Trace(tokens, sizes, name="diurnal")


def drift_trace(
    num_requests: int = 200_000,
    num_targets: int = 20_000,
    total_bytes: int = 600 * 2**20,
    alpha_start: float = 0.90,
    alpha_end: float = 1.30,
    phases: int = 8,
    churn_fraction: float = 0.25,
    seed: int = 103,
) -> Trace:
    """Popularity drift: Zipf alpha sweeps while rank identity churns.

    The trace is cut into ``phases`` equal segments.  Segment ``p`` draws
    from Zipf(alpha) with alpha linearly interpolated from
    ``alpha_start`` to ``alpha_end``, through a rank permutation that is
    re-churned at every phase boundary: a seeded ``churn_fraction`` of
    the popularity ranks swap places with uniformly-chosen partners
    (cumulatively), so the documents occupying the hot ranks rotate and
    a locality policy's learned target->node mappings go stale
    mid-trace.  ``churn_fraction=0`` with ``alpha_start == alpha_end``
    degenerates to the static IRM generator.
    """
    if num_requests < 0:
        raise ValueError(f"negative request count: {num_requests}")
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    if not 0.0 <= churn_fraction <= 1.0:
        raise ValueError(f"churn_fraction must be in [0, 1], got {churn_fraction}")
    rng = np.random.default_rng(seed)
    sizes = _catalog(rng, num_targets, total_bytes)
    tokens = np.empty(num_requests, dtype=token_dtype(num_targets))
    perm = np.arange(num_targets, dtype=tokens.dtype)
    churn_count = int(churn_fraction * num_targets)
    bounds = np.linspace(0, num_requests, phases + 1).astype(np.int64)
    for phase in range(phases):
        if phase > 0 and churn_count > 0:
            # Swap churn_count ranks with uniformly-chosen partners.
            a = rng.choice(num_targets, size=churn_count, replace=False)
            b = rng.choice(num_targets, size=churn_count, replace=False)
            perm[a], perm[b] = perm[b].copy(), perm[a].copy()
        start, stop = int(bounds[phase]), int(bounds[phase + 1])
        if start == stop:
            continue
        frac = phase / (phases - 1) if phases > 1 else 0.0
        alpha = alpha_start + (alpha_end - alpha_start) * frac
        ranks = draw_tokens(rng, zipf_weights(num_targets, alpha), tokens[start:stop])
        ranks[:] = perm[ranks]
    return Trace(tokens, sizes, name="drift")


def mark_dynamic_targets(
    trace: Trace,
    dynamic_fraction: float,
    cpu_cost_s: float,
    cost_spread: float = 0.5,
    seed: int = 0,
    name: Optional[str] = None,
) -> Trace:
    """Derive a trace marking a fraction of the catalog CPU-bound (CGI).

    A seeded uniform sample of ``dynamic_fraction`` of the targets gets a
    per-target CPU cost drawn uniformly from ``cpu_cost_s * (1 ±
    cost_spread)``; all other targets stay static.  The request stream
    and size table are shared with the source trace, so any generator's
    output (flash crowd, drift, ...) composes with a CGI mix.
    """
    if not 0.0 <= dynamic_fraction <= 1.0:
        raise TraceError(
            f"dynamic_fraction must be in [0, 1], got {dynamic_fraction}"
        )
    if cpu_cost_s < 0:
        raise TraceError(f"cpu_cost_s must be >= 0, got {cpu_cost_s}")
    if not 0.0 <= cost_spread <= 1.0:
        raise TraceError(f"cost_spread must be in [0, 1], got {cost_spread}")
    rng = np.random.default_rng(seed)
    num_targets = trace.num_targets
    count = int(dynamic_fraction * num_targets)
    costs = np.zeros(num_targets, dtype=np.float64)
    if count > 0 and cpu_cost_s > 0:
        chosen = rng.choice(num_targets, size=count, replace=False)
        low = cpu_cost_s * (1.0 - cost_spread)
        high = cpu_cost_s * (1.0 + cost_spread)
        costs[chosen] = rng.uniform(low, high, size=count)
    return Trace(
        trace.targets,
        trace.sizes_by_target,
        name=name if name is not None else f"{trace.name}+cgi",
        cpu_cost_s_by_target=costs,
    )


def cgi_mix_trace(
    num_requests: int = 200_000,
    num_targets: int = 20_000,
    total_bytes: int = 600 * 2**20,
    zipf_alpha: float = 0.90,
    dynamic_fraction: float = 0.10,
    cpu_cost_s: float = 0.020,
    seed: int = 107,
) -> Trace:
    """Static Zipf IRM with a CPU-bound (CGI) target fraction.

    ``dynamic_fraction`` of the catalog is marked dynamic with a
    size-independent CPU cost within 50% of ``cpu_cost_s`` seconds
    (paper Section 2: dynamic content is compute-dominated and
    uncacheable); the cluster charges it through
    :meth:`repro.cluster.costs.CostModel.dynamic_service_time` and
    counts it in ``SimulationResult.dynamic_requests``.
    """
    base = synthesize_trace(
        num_requests,
        num_targets,
        total_bytes,
        zipf_alpha,
        size_popularity_correlation=-0.5,
        seed=seed,
        name="cgi-mix",
    )
    return mark_dynamic_targets(
        base, dynamic_fraction, cpu_cost_s, seed=seed, name="cgi-mix"
    )


def multi_tenant_trace(
    num_requests: int = 200_000,
    tenants: int = 3,
    targets_per_tenant: int = 8_000,
    bytes_per_tenant: int = 200 * 2**20,
    zipf_alphas: Sequence[float] = (0.80, 1.00, 1.20),
    tenant_weights: Sequence[float] = (0.5, 0.3, 0.2),
    seed: int = 109,
) -> Trace:
    """K independent catalogs interleaved with per-tenant weights.

    Tenant ``t`` owns a private ``targets_per_tenant``-document catalog
    (tokens offset so catalogs never collide) with its own Zipf alpha;
    each request picks its tenant by the normalized ``tenant_weights``
    and then a document by the tenant's own popularity law.  The
    aggregate working set is the union of per-tenant hot sets — the
    shape that rewards partitioning policies and punishes uniform
    striping.
    """
    if num_requests < 0:
        raise ValueError(f"negative request count: {num_requests}")
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    if len(zipf_alphas) != tenants or len(tenant_weights) != tenants:
        raise ValueError(
            f"zipf_alphas and tenant_weights must each have {tenants} entries"
        )
    weights = np.asarray(tenant_weights, dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("tenant_weights must all be positive")
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    sizes = np.concatenate(
        [_catalog(rng, targets_per_tenant, bytes_per_tenant) for _ in range(tenants)]
    )
    tenant_of = draw_tokens(
        rng, weights, np.empty(num_requests, dtype=token_dtype(tenants))
    )
    # Each tenant's draws are offset into the union catalog, so they are
    # drawn at the union's width, not at their own catalog's.  They are
    # drawn and scattered a chunk of requests at a time: one tenant's
    # draws are one stretch of the stream however it is cut, and what is
    # alive beside the output and ``tenant_of`` is one chunk's.
    tokens = np.empty(num_requests, dtype=token_dtype(len(sizes)))
    for tenant in range(tenants):
        popularity = zipf_weights(targets_per_tenant, float(zipf_alphas[tenant]))
        for start, stop in _chunks(num_requests):
            mask = tenant_of[start:stop] == tenant
            draws = draw_tokens(
                rng, popularity, np.empty(np.count_nonzero(mask), dtype=tokens.dtype)
            )
            draws += tenant * targets_per_tenant
            np.place(tokens[start:stop], mask, draws)
    return Trace(tokens, sizes, name="multi-tenant")
