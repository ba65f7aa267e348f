"""Naive scan oracle for the policy load helpers.

``repro.core.base.Policy`` answers "who is least loaded" from an
incrementally maintained lower bound (``_min_load``) instead of scanning
the cluster.  These are the straight O(N) Python scans the helpers and
the ``wrr`` rotation used before that change, kept here — reading only
``loads`` and ``_alive``, never the incremental summaries — so the differential tests in
``test_properties_policies.py`` can assert the production helpers return
exactly the scan's answer after every step.
"""

from typing import Optional

from repro.core.base import Policy


def least_loaded_node(policy: Policy, start: int = 0) -> Optional[int]:
    """Alive node with the lowest load; ties go to the first one met walking the ring from ``start`` (the ``wrr`` rotation
    when ``start`` is its pointer, lowest id when 0)."""
    n = policy.num_nodes
    best, best_load = None, None
    for offset in range(n):
        node = (start + offset) % n
        if not policy._alive[node]:
            continue
        load = policy.loads[node]
        if best_load is None or load < best_load:
            best, best_load = node, load
    return best


def has_node_below(policy: Policy, threshold: int) -> bool:
    """Whether any alive node's load is strictly below ``threshold``."""
    return any(
        policy._alive[node] and policy.loads[node] < threshold
        for node in range(policy.num_nodes)
    )
