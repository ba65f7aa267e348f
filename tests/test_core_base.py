"""Unit tests for the Policy base class and admission formula."""

import pytest

from repro.core import (
    DEFAULT_T_HIGH,
    DEFAULT_T_LOW,
    PolicyError,
    WeightedRoundRobin,
    admission_limit,
)


def test_paper_default_thresholds():
    assert DEFAULT_T_LOW == 25
    assert DEFAULT_T_HIGH == 65


class TestAdmissionLimit:
    def test_formula(self):
        # S = (n-1) * T_high + T_low - 1
        assert admission_limit(8, 25, 65) == 7 * 65 + 24
        assert admission_limit(1, 25, 65) == 24

    def test_guarantees_full_utilization_possible(self):
        # Enough connections for every node to be above T_low.
        for n in range(2, 17):
            assert admission_limit(n) >= n * (DEFAULT_T_LOW + 1)

    def test_prevents_all_nodes_saturating(self):
        # Not enough for all n nodes to sit at T_high while one is below T_low.
        for n in range(2, 17):
            assert admission_limit(n) < n * DEFAULT_T_HIGH

    def test_validation(self):
        with pytest.raises(PolicyError):
            admission_limit(0)


class TestLoadBookkeeping:
    def test_dispatch_and_complete(self):
        policy = WeightedRoundRobin(3)
        policy.on_dispatch(1)
        policy.on_dispatch(1)
        assert policy.loads == [0, 2, 0]
        policy.on_complete(1)
        assert policy.loads == [0, 1, 0]
        assert policy.dispatches == 2
        assert policy.completions == 1

    def test_total_load(self):
        policy = WeightedRoundRobin(3)
        for node in (0, 1, 2, 0):
            policy.on_dispatch(node)
        assert policy.total_load == 4

    def test_complete_below_zero_rejected(self):
        policy = WeightedRoundRobin(2)
        with pytest.raises(PolicyError):
            policy.on_complete(0)

    def test_dispatch_to_bad_node_rejected(self):
        policy = WeightedRoundRobin(2)
        with pytest.raises(PolicyError):
            policy.on_dispatch(5)

    def test_least_loaded_node(self):
        policy = WeightedRoundRobin(3)
        policy.on_dispatch(0)
        policy.on_dispatch(2)
        assert policy.least_loaded_node() == 1

    def test_least_loaded_tie_lowest_id(self):
        policy = WeightedRoundRobin(3)
        assert policy.least_loaded_node() == 0

    def test_has_node_below(self):
        policy = WeightedRoundRobin(2, t_low=2, t_high=5)
        assert policy.has_node_below(1) is True
        policy.on_dispatch(0)
        policy.on_dispatch(1)
        assert policy.has_node_below(1) is False


class TestFailureHandling:
    def test_failure_removes_node(self):
        policy = WeightedRoundRobin(3)
        policy.on_dispatch(1)
        policy.on_node_failure(1)
        assert policy.alive_nodes == [0, 2]
        assert policy.loads[1] == 0
        with pytest.raises(PolicyError):
            policy.on_dispatch(1)

    def test_admission_limit_shrinks_with_failures(self):
        policy = WeightedRoundRobin(3)
        before = policy.admission_limit
        policy.on_node_failure(0)
        assert policy.admission_limit < before

    def test_join_restores(self):
        policy = WeightedRoundRobin(3)
        policy.on_node_failure(2)
        policy.on_node_join(2)
        assert policy.alive_nodes == [0, 1, 2]

    def test_double_failure_rejected(self):
        policy = WeightedRoundRobin(2)
        policy.on_node_failure(0)
        with pytest.raises(PolicyError):
            policy.on_node_failure(0)

    def test_join_of_alive_node_rejected(self):
        policy = WeightedRoundRobin(2)
        with pytest.raises(PolicyError):
            policy.on_node_join(1)

    def test_last_node_failure_rejected(self):
        policy = WeightedRoundRobin(1)
        with pytest.raises(PolicyError):
            policy.on_node_failure(0)

    def test_last_node_failure_leaves_state_untouched(self):
        policy = WeightedRoundRobin(2)
        policy.on_node_failure(0)
        policy.on_dispatch(1)
        epoch = policy.membership_epoch
        with pytest.raises(PolicyError, match="last alive"):
            policy.on_node_failure(1)
        assert policy.is_alive(1)
        assert policy.alive_count == 1
        assert policy.loads == [0, 1]
        assert policy.membership_epoch == epoch
        assert policy.choose("t", 1) == 1

    def test_alive_count_tracks_membership(self):
        policy = WeightedRoundRobin(4)
        assert policy.alive_count == 4
        policy.on_node_failure(2)
        policy.on_node_failure(0)
        assert policy.alive_count == 2 == len(policy.alive_nodes)
        policy.on_node_join(2)
        assert policy.alive_count == 3 == len(policy.alive_nodes)

    def test_total_load_forgets_connections_shed_by_a_failure(self):
        policy = WeightedRoundRobin(3)
        for node in (0, 1, 1, 2):
            policy.on_dispatch(node)
        policy.on_node_failure(1)
        assert policy.total_load == 2 == sum(policy.loads)
        policy.on_node_join(1)
        policy.on_dispatch(1)
        policy.on_complete(0)
        assert policy.total_load == 2 == sum(policy.loads)

    def test_least_loaded_skips_dead_idle_nodes(self):
        policy = WeightedRoundRobin(4)
        policy.on_dispatch(1)
        policy.on_node_failure(0)
        assert policy.least_loaded_node() == 2
        policy.on_dispatch(2)
        policy.on_dispatch(3)
        assert policy.has_node_below(1) is False
        assert policy.least_loaded_node() == 1
        policy.on_node_join(0)
        assert policy.has_node_below(1) is True
        assert policy.least_loaded_node() == 0

    def test_completion_lowers_the_least_load(self):
        policy = WeightedRoundRobin(3)
        for node in (0, 0, 1, 1, 2, 2):
            policy.on_dispatch(node)
        assert policy.least_loaded_node() == 0
        assert policy.has_node_below(2) is False
        policy.on_complete(2)
        assert policy.has_node_below(2) is True
        assert policy.least_loaded_node() == 2

    def test_bookkeeping_bypass_fails_loudly(self):
        """Loads changed behind ``on_complete`` leave the bound stale; the
        walk must raise rather than spin looking for a level nobody is at."""
        policy = WeightedRoundRobin(3)
        for node in (0, 1, 2):
            policy.on_dispatch(node)
        assert policy.least_loaded_node() == 0  # bound now 1
        policy.loads[:] = [0, 0, 0]
        policy.completions += 3
        with pytest.raises(PolicyError, match="least-load bound"):
            policy.least_loaded_node()

    def test_choose_skips_dead_nodes(self):
        policy = WeightedRoundRobin(3)
        policy.on_node_failure(0)
        for _ in range(10):
            node = policy.choose("t", 1)
            assert node in (1, 2)
            policy.on_dispatch(node)


class TestValidation:
    def test_bad_num_nodes(self):
        with pytest.raises(PolicyError):
            WeightedRoundRobin(0)

    def test_bad_thresholds(self):
        with pytest.raises(PolicyError):
            WeightedRoundRobin(2, t_low=65, t_high=25)
        with pytest.raises(PolicyError):
            WeightedRoundRobin(2, t_low=0, t_high=25)

    def test_describe(self):
        policy = WeightedRoundRobin(4)
        assert "wrr" in policy.describe()
        assert "n=4" in policy.describe()
