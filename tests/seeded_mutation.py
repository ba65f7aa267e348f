"""Seed one bug into a copy of the package.

Shared by the test modules that record mutations beside their tests
(``test_cluster_differential``, ``test_cluster_memory``,
``test_fastpath_identity``, ``test_obs_span``,
``test_cluster_metamorphic``, ``test_analysis_matrix``,
``test_sim_sanitize``): each shows, in a subprocess importing the
mutated copy, that its checks fail on it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict

import repro
from repro.workload.memo import trace_cache_dir

REPO_ROOT = Path(__file__).resolve().parent.parent


#: The compiled extension's files (engine and core), in the package.
NATIVE_SOURCES = ("sim/_engine.h", "sim/_engine.c", "cluster/_lifecycle.c")


def mutated_env(tmp_path: Path, relpath: str, anchor: str, replacement: str) -> Dict[str, str]:
    """Copy ``repro`` under ``tmp_path`` with ``anchor`` (which must
    occur exactly once in ``relpath``) replaced; return an environment
    whose ``PYTHONPATH`` finds that copy, then the repo's ``tests``.

    A mutation of the Python code runs on the Python engine and
    lifecycle: the copy has no C sources, so no run can take the
    compiled engine or core (which would not run the mutated code).  A
    mutation of a C source is built from the copy, into a build cache of
    its own."""
    root = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).resolve().parent, root)
    text = (root / relpath).read_text(encoding="utf-8")
    assert text.count(anchor) == 1, f"mutation anchor not found once in {relpath}"
    (root / relpath).write_text(text.replace(anchor, replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(REPO_ROOT)]))
    if relpath not in NATIVE_SOURCES:
        for source in NATIVE_SOURCES:
            (root / source).unlink()
    else:
        # The trace memo stays where it is; only the build moves.
        traces = trace_cache_dir()
        if traces is not None:
            env.setdefault("REPRO_TRACE_CACHE", str(traces))
        env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    return env


def run_mutated(
    tmp_path: Path, relpath: str, anchor: str, replacement: str, code: str
) -> subprocess.CompletedProcess:
    """Run ``python -c code`` against a copy of ``repro`` mutated as
    :func:`mutated_env` mutates it; its output is the caller's to
    judge."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=mutated_env(tmp_path, relpath, anchor, replacement),
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )


def assert_selected_tests_fail(
    tmp_path: Path, relpath: str, anchor: str, replacement: str,
    test_file: str, selector: str,
) -> None:
    """Run the tests of ``test_file`` that ``-k selector`` picks against
    the mutated copy; at least one of them must fail."""
    verdict = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "addopts=", str(Path(test_file).resolve()), "-k", selector],
        env=mutated_env(tmp_path, relpath, anchor, replacement),
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    # 1: pytest ran the selected tests and at least one failed.
    assert verdict.returncode == 1, verdict.stdout + verdict.stderr
    assert " failed" in verdict.stdout
