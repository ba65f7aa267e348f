"""Import budget: a simulation loads only what it runs.

Each case starts a fresh interpreter, does one thing a user does — one
``run_simulation``, one serial ``run_matrix`` over a tiny spec, one
``python -m repro simulate`` — and then lists which of the modules below
are in ``sys.modules``.  None of them is needed for any of the three:
the experiment registry and the campaign renderers belong to ``run``
and the campaign verbs, the process pool to ``jobs > 1``, the tracer to
``--spans``, the live prototype and the linter to their own entry
points.  Loading one anyway costs its compile and import time in every
process (the CLI, each ledger workload, each campaign), which is what
this test keeps from creeping back.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import List

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Module (or package prefix) -> what it is for, so a failure says why
#: the module should not be there.
_NOT_NEEDED = {
    "repro.analysis.experiments": "the experiment registry (lard-repro run)",
    "repro.analysis.chart": "ASCII charts (lard-repro run --chart)",
    "repro.analysis.report": "experiment rendering and scorecard tables",
    "repro.analysis.scaleout": "the scaleout scorecard (lard-repro scaleout)",
    "repro.analysis.sweep": "cross-product sweeps and the CSV writer",
    "multiprocessing": "the process pool (run_many with jobs > 1)",
    "concurrent.futures": "the process pool (run_many with jobs > 1)",
    "repro.obs": "span logs and metrics (--spans)",
    "repro.handoff": "the live hand-off prototype",
    "repro.lint": "the linter (lard-repro lint)",
}

_REPORT = textwrap.dedent(
    """
    import sys
    budget = {budget!r}
    loaded = sorted(
        name for name in budget
        if any(m == name or m.startswith(name + ".") for m in sys.modules)
    )
    print("LOADED", ",".join(loaded))
    """
)

_CASES = {
    "run_simulation": """
        from repro.cluster import run_simulation
        from repro.workload import rice_like_trace
        trace = rice_like_trace(num_requests=2000, scale=0.05)
        run_simulation(trace, policy="lard/r", num_nodes=4)
    """,
    "run_matrix": """
        from repro.analysis.matrix import MatrixSpec, paper_scenario, run_matrix
        spec = MatrixSpec(
            name="tiny",
            scenarios=(paper_scenario("rice", 2000, 0.05),),
            policies=("wrr", "lard/r"),
            num_nodes=2,
        )
        assert len(run_matrix(spec, jobs=1)) == 2
    """,
    "cli_simulate": """
        import runpy  # what python -m repro does
        sys.argv = ["repro", "simulate", "--requests", "2000"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert exit.code == 0, exit.code
    """,
}


def _loaded_by_fresh_process(code: str, tmp_path: Path) -> List[str]:
    """The modules of ``_NOT_NEEDED`` that ``code`` loads when it runs in
    a fresh interpreter."""
    script = "import sys\n" + textwrap.dedent(code) + _REPORT.format(
        budget=sorted(_NOT_NEEDED)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.rsplit("LOADED", 1)[1].split()
    return loaded[0].split(",") if loaded else []


@pytest.mark.parametrize("case", sorted(_CASES))
def test_fresh_process_loads_nothing_it_does_not_run(case, tmp_path):
    crept = {name: _NOT_NEEDED[name] for name in _loaded_by_fresh_process(_CASES[case], tmp_path)}
    assert not crept, f"{case} loaded modules it does not run: {crept}"


def test_a_simulated_experiment_does_not_load_the_live_prototype(tmp_path):
    """``python -m repro run fig5`` loads the experiment registry, whose
    live experiments (``Experiment.live``) import the prototype inside
    their functions.  An import hoisted to module level would start the
    hand-off package in every ``run``, ``run all`` and bench process."""
    loaded = _loaded_by_fresh_process(
        """
        import runpy
        sys.argv = ["repro", "run", "fig5", "--scale", "smoke"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            assert exit.code == 0, exit.code
        """,
        tmp_path,
    )
    assert "repro.analysis.experiments" in loaded
    assert "repro.handoff" not in loaded
