"""Generic parameter sweeps over the cluster simulator, with CSV export.

The per-figure experiments in :mod:`repro.analysis.experiments` are fixed
reproductions; :func:`sweep` is the open-ended tool a downstream user
reaches for — "run this trace over every combination of these parameters
and give me a flat result table I can load into pandas/R":

>>> from repro.analysis.sweep import sweep
>>> from repro.workload import rice_like_trace
>>> rows = sweep(rice_like_trace(num_requests=20_000, scale=0.1),
...              policy=["wrr", "lard/r"], num_nodes=[2, 4],
...              node_cache_bytes=[2 * 2**20])      # doctest: +SKIP
>>> rows[0]["throughput_rps"]                       # doctest: +SKIP

Every keyword is either a single value or a list of values to sweep; the
cross product is simulated and each result flattened into a dict.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..cluster import SimulationResult
from ..workload.trace import Trace
from .parallel import run_many

__all__ = ["sweep", "result_row", "write_csv", "expand_parameters"]

#: Flat fields exported for every simulation result.
_RESULT_FIELDS = (
    "throughput_rps",
    "cache_miss_ratio",
    "cache_hit_ratio",
    "idle_fraction",
    "mean_delay_s",
    "sim_time_s",
    "disk_reads",
    "coalesced_reads",
    "cpu_busy_fraction",
    "disk_busy_fraction",
    "connections",
    "rehandoffs",
)


def result_row(result: SimulationResult, parameters: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten one simulation result (plus its swept parameters) to a dict."""
    row: Dict[str, Any] = dict(parameters)
    row["policy"] = result.policy
    row["num_nodes"] = result.num_nodes
    row["num_requests"] = result.num_requests
    for field in _RESULT_FIELDS:
        row[field] = getattr(result, field)
    return row


def expand_parameters(
    parameters: Dict[str, Union[Any, List[Any]]],
) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Normalize sweep kwargs into (sorted names, cross-product combinations).

    Values that are lists (or tuples) are swept, scalars are held fixed.
    The combination order is deterministic: sorted parameter names,
    left-to-right product.
    """
    if not parameters:
        raise ValueError("nothing to sweep: pass at least one parameter")
    names = sorted(parameters)
    value_lists = [
        list(parameters[name])
        if isinstance(parameters[name], (list, tuple))
        else [parameters[name]]
        for name in names
    ]
    return names, list(itertools.product(*value_lists))


def sweep(
    trace: Trace,
    jobs: Optional[int] = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    **parameters: Union[Any, List[Any]],
) -> List[Dict[str, Any]]:
    """Simulate the cross product of the given parameter lists.

    Each keyword is a :class:`~repro.cluster.ClusterConfig` field; values
    that are lists (or tuples) are swept, scalars are held fixed.  Returns
    one flat row dict per combination, in deterministic (sorted-key,
    left-to-right) order.

    ``jobs`` fans the combinations out over worker processes (see
    :mod:`repro.analysis.parallel`; ``None`` auto-sizes to the machine);
    rows are identical to a serial run in content and order.
    ``progress(done, total)`` is called as cells complete.
    """
    names, combinations = expand_parameters(parameters)
    configs = [dict(zip(names, combination)) for combination in combinations]
    results = run_many(trace, configs, jobs=jobs, progress=progress)
    return [result_row(result, config) for result, config in zip(results, configs)]


def write_csv(
    rows: Sequence[Dict[str, Any]],
    path: Union[str, Path],
    columns: Optional[Sequence[str]] = None,
    float_format: str = ".10g",
) -> Path:
    """Write sweep rows to a CSV file.

    ``columns`` fixes the column order explicitly (keys outside it are
    dropped, rows missing one leave the cell empty); the default is the
    sorted union of all row keys.  Floats are rendered with
    ``float_format`` so repeated runs diff cleanly — ``.10g`` keeps full
    double precision for round-trips while normalizing representation.
    """
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if columns is None:
        columns = sorted({key for row in rows for key in row})
    else:
        columns = list(columns)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    key: format(value, float_format) if type(value) is float else value
                    for key, value in row.items()
                }
            )
    return path
