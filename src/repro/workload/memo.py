"""Disk memoization for synthetic trace generation.

Synthetic traces are pure functions of their parameters.  Generating
100k requests costs tens of milliseconds, which every benchmark script,
CLI invocation and parallel worker would pay again; loading the same
trace from its uncompressed archive costs about one.  :func:`cached_trace`
keys the generator call by a hash of its parameters and stores the result
through :mod:`repro.workload.io`, so identical traces are generated once
per machine and then loaded.

The cache lives in ``$REPRO_TRACE_CACHE`` if set (``0``/``off`` disables
caching entirely), else ``$XDG_CACHE_HOME/repro-lard/traces``, else
``~/.cache/repro-lard/traces``.  Entries are written atomically (temp
file + rename), so concurrent workers racing on the same key are safe:
one wins the rename, the rest overwrite with identical bytes or load the
winner.  A corrupt or stale-format entry is regenerated, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .dynamic import (
    cgi_mix_trace,
    diurnal_trace,
    drift_trace,
    flash_crowd_trace,
    multi_tenant_trace,
)
from .io import load_trace, save_trace
from .synthetic import chess_like_trace, ibm_like_trace, rice_like_trace, synthesize_trace
from .trace import Trace, TraceError

__all__ = [
    "cached_trace",
    "trace_cache_dir",
    "trace_cache_key",
    "clear_trace_cache",
    "TRACE_GENERATORS",
]

#: Bump when any generator's output changes for identical parameters, so
#: stale cache entries from older code are never reused.  2: the dynamic
#: generator family (flash/diurnal/drift/cgi/tenants) joined the registry
#: and archives may carry the format-2 ``cpu_cost_s_by_target`` table.
_MEMO_VERSION = 2

#: Values of ``$REPRO_TRACE_CACHE`` that turn the disk cache off.
_DISABLED = {"", "0", "off", "none", "disabled"}

TRACE_GENERATORS: Dict[str, Callable[..., Trace]] = {
    "rice": rice_like_trace,
    "ibm": ibm_like_trace,
    "chess": chess_like_trace,
    "synthetic": synthesize_trace,
    "flash": flash_crowd_trace,
    "diurnal": diurnal_trace,
    "drift": drift_trace,
    "cgi": cgi_mix_trace,
    "tenants": multi_tenant_trace,
}


def trace_cache_dir() -> Optional[Path]:
    """Resolve the cache directory from the environment (None = disabled)."""
    env = os.environ.get("REPRO_TRACE_CACHE")  # lardlint: disable=transitive-nondeterminism -- cache *location* only; cached traces are content-addressed by the synthesis parameters
    if env is not None:
        if env.strip().lower() in _DISABLED:
            return None
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")  # lardlint: disable=transitive-nondeterminism -- cache *location* only; cached traces are content-addressed by the synthesis parameters
    root = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return root / "repro-lard" / "traces"


def trace_cache_key(kind: str, params: Dict[str, Any]) -> str:
    """Stable content hash of one generator invocation."""
    payload = json.dumps(
        {"memo": _MEMO_VERSION, "kind": kind, "params": params},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def cached_trace(
    kind: str,
    cache_dir: Optional[Union[str, Path]] = None,
    refresh: bool = False,
    **params: Any,
) -> Trace:
    """Generate (or reload) the trace ``TRACE_GENERATORS[kind](**params)``.

    ``cache_dir`` overrides the environment-resolved location; ``refresh``
    forces regeneration (and rewrites the cache entry).  With caching
    disabled this is exactly the plain generator call.
    """
    try:
        generator = TRACE_GENERATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown trace kind {kind!r}; known: {', '.join(sorted(TRACE_GENERATORS))}"
        ) from None
    directory = trace_cache_dir() if cache_dir is None else Path(cache_dir).expanduser()
    if directory is None:
        return generator(**params)
    path = directory / f"{kind}-{trace_cache_key(kind, params)}.npz"
    if not refresh and path.exists():
        try:
            return load_trace(path)
        except TraceError:
            pass  # corrupt or stale-format entry: fall through and regenerate
    trace = generator(**params)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = save_trace(trace, path.with_name(f".{path.stem}.{os.getpid()}.tmp"))
        os.replace(tmp, path)
    except OSError:
        # An unwritable cache is a missed optimization, not an error.
        pass
    return trace


def clear_trace_cache(cache_dir: Optional[Union[str, Path]] = None) -> int:
    """Delete cached trace files; returns how many were removed."""
    directory = trace_cache_dir() if cache_dir is None else Path(cache_dir).expanduser()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for entry in directory.glob("*.npz"):
        try:
            entry.unlink()
            removed += 1
        except OSError:  # pragma: no cover - concurrent cleanup
            pass
    return removed
