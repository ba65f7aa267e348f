"""The engine suites again, on the compiled engine.

``tests/test_sim_engine.py`` (the contract) and
``tests/test_sim_engine_reference.py`` (the ``NaiveEngine`` oracle,
``until``/``stop`` boundaries, the counts) run on ``engine.py``, the
reference.  This module collects the same tests once more with their
``Engine`` bound to the compiled one (``_engine.c``, built by
:mod:`repro.sim.native`), so both engines answer to one set of tests;
where no C compiler is found they skip.  Two stay with the reference:
one reads its queues, and one seeds a bug into ``engine.py``.
"""

import pytest

from repro.sim import native
from tests import test_sim_engine as contract
from tests import test_sim_engine_reference as oracle
from tests.seeded_mutation import assert_selected_tests_fail
from tests.test_sim_engine import *  # noqa: F401,F403 -- collected again here
from tests.test_sim_engine_reference import *  # noqa: F401,F403 -- and these

del test_an_event_is_one_function_and_one_argument  # noqa: F821
del test_seeded_mutation_dropping_the_pending_at_start_term_is_caught  # noqa: F821


@pytest.fixture(scope="module", autouse=True)
def _compiled_engine():
    compiled, why = native.engine_type()
    if compiled is None:
        pytest.skip(f"compiled engine unavailable: {why}")
    with pytest.MonkeyPatch.context() as patch:
        for module in (contract, oracle):
            patch.setattr(module, "Engine", compiled)
        yield


def test_the_tests_here_run_the_compiled_engine():
    assert type(contract.Engine()).__module__ == "repro.sim._native"


def test_seeded_mutation_serving_the_staged_fifo_first_is_caught(tmp_path):
    """A staged event dispatched ahead of a heap entry due at the same
    instant: the naive event list's order breaks on the witness."""
    assert_selected_tests_fail(
        tmp_path,
        "sim/_engine.c",
        "            if (q->heap_len && q->heap[0].time <= q->fifo[q->fifo_head].time)\n",
        "            if (q->heap_len && q->heap[0].time < q->fifo[q->fifo_head].time)\n",
        __file__,
        "test_engine_matches_naive_reference",
    )
