"""Parallel execution of independent simulation runs.

A parameter sweep is embarrassingly parallel: every cell is one
deterministic, CPU-bound simulation with no shared mutable state.  This
module fans cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping the *results* indistinguishable from a serial run — rows come
back in submission order and each simulation is bit-identical to what
``jobs=1`` produces, so parallelism is purely a wall-clock knob.

Trace sharing
-------------
The trace is the only large input and it is immutable, so workers never
need it pickled per task:

* On platforms with ``fork`` (POSIX), the parent stores the trace in a
  module global before creating the pool; forked workers inherit the
  memory for free (copy-on-write).
* Elsewhere (``spawn``), the trace is spilled once to uncompressed
  ``.npy`` files and each worker maps them read-only via
  ``np.load(..., mmap_mode="r")`` in its initializer — one disk copy,
  zero per-task serialization.

Failures in a worker are re-raised in the parent as
:class:`ParallelExecutionError` naming the failing configuration, so a
sweep never silently drops cells.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..cluster import ClusterConfig, SimulationResult, run_simulation
from ..workload.trace import Trace

__all__ = ["run_many", "default_jobs", "ParallelExecutionError"]

#: A sweep cell: ClusterConfig, or a dict of ``run_simulation`` overrides.
ConfigLike = Union[ClusterConfig, Dict[str, Any]]

#: ``progress(done, total)`` — invoked in the parent as cells complete.
ProgressFn = Callable[[int, int], None]


class ParallelExecutionError(RuntimeError):
    """A sweep cell failed (or its worker process died) during a parallel run."""


def default_jobs() -> int:
    """Default worker count: one per CPU."""
    return os.cpu_count() or 1


# -- worker side -------------------------------------------------------------

#: Set in the parent before forking (fork path) or by the initializer
#: (spawn path); read by every worker task.
_WORKER_TRACE: Optional[Trace] = None


def _spill_trace(trace: Trace, directory: Union[str, Path]) -> None:
    """Write the trace as uncompressed arrays a worker can memory-map."""
    base = Path(directory)
    np.save(base / "targets.npy", trace.targets)
    np.save(base / "sizes_by_target.npy", trace.sizes_by_target)
    if trace.cpu_cost_s_by_target is not None:
        np.save(base / "cpu_cost_s_by_target.npy", trace.cpu_cost_s_by_target)
    (base / "name.txt").write_text(trace.name, encoding="utf-8")


def _load_spilled_trace(directory: str) -> Trace:
    base = Path(directory)
    targets = np.load(base / "targets.npy", mmap_mode="r")
    sizes = np.load(base / "sizes_by_target.npy", mmap_mode="r")
    costs_path = base / "cpu_cost_s_by_target.npy"
    cpu_costs = np.load(costs_path, mmap_mode="r") if costs_path.exists() else None
    name = (base / "name.txt").read_text(encoding="utf-8")
    return Trace(targets, sizes, name=name, cpu_cost_s_by_target=cpu_costs)


def _init_worker_from_spill(directory: str) -> None:
    global _WORKER_TRACE
    _WORKER_TRACE = _load_spilled_trace(directory)


def _run_one(trace: Trace, config: ConfigLike) -> SimulationResult:
    if isinstance(config, ClusterConfig):
        return run_simulation(trace, config)
    return run_simulation(trace, **config)


def _run_indexed(index: int, config: ConfigLike) -> SimulationResult:
    trace = _WORKER_TRACE
    if trace is None:  # pragma: no cover - defensive, initializer guarantees it
        raise ParallelExecutionError("worker started without a trace")
    return _run_one(trace, config)


def _describe(config: ConfigLike) -> str:
    if isinstance(config, ClusterConfig):
        return f"policy={config.policy!r}, num_nodes={config.num_nodes}"
    return ", ".join(f"{k}={v!r}" for k, v in sorted(config.items(), key=lambda kv: kv[0]))


# -- parent side -------------------------------------------------------------


def run_many(
    trace: Trace,
    configs: Sequence[ConfigLike],
    jobs: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> List[SimulationResult]:
    """Simulate every config over ``trace``, using up to ``jobs`` processes.

    Results are returned in the order of ``configs`` regardless of
    completion order, and each is identical to a serial
    :func:`~repro.cluster.run_simulation` call — the pool only changes
    wall-clock time.  ``jobs=None`` uses one worker per CPU; ``jobs<=1``
    runs serially in-process (no pool, no spill).
    """
    configs = list(configs)
    total = len(configs)
    if total == 0:
        return []
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or total == 1:
        results = []
        for index, config in enumerate(configs):
            results.append(_run_one(trace, config))
            if progress is not None:
                progress(index + 1, total)
        return results

    global _WORKER_TRACE
    jobs = min(jobs, total)
    spill_dir: Optional[str] = None
    use_fork = "fork" in multiprocessing.get_all_start_methods()
    try:
        if use_fork:
            # Workers are forked after this assignment and inherit the
            # trace copy-on-write: no pickling, no extra disk copy.
            _WORKER_TRACE = trace
            executor = ProcessPoolExecutor(
                max_workers=jobs, mp_context=multiprocessing.get_context("fork")
            )
        else:  # pragma: no cover - exercised only on spawn-only platforms
            spill_dir = tempfile.mkdtemp(prefix="repro-trace-spill-")
            _spill_trace(trace, spill_dir)
            executor = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker_from_spill,
                initargs=(spill_dir,),
            )
        with executor:
            futures = {
                executor.submit(_run_indexed, index, config): index
                for index, config in enumerate(configs)
            }
            results: List[Optional[SimulationResult]] = [None] * total
            done = 0
            for future in as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except BrokenProcessPool as exc:
                    raise ParallelExecutionError(
                        f"a worker process died while running sweep cell {index} "
                        f"({_describe(configs[index])}); the pool is unusable and "
                        f"the sweep was aborted"
                    ) from exc
                except Exception as exc:
                    raise ParallelExecutionError(
                        f"sweep cell {index} ({_describe(configs[index])}) "
                        f"failed: {exc}"
                    ) from exc
                done += 1
                if progress is not None:
                    progress(done, total)
        return results  # type: ignore[return-value]  # every slot filled above
    finally:
        _WORKER_TRACE = None
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
