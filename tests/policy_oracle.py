"""Naive scan oracle for the policy load helpers.

``repro.core.base.Policy`` answers "who is least loaded" from an
incrementally maintained lower bound (``_min_load``) instead of scanning
the cluster.  These are the straight O(N) Python scans the helpers and
the ``wrr`` rotation used before that change, kept here — reading only
``loads``, ``_alive`` and ``_inv_weights``/``weights``, never the
incremental summaries — so the differential tests in
``test_properties_policies.py`` can assert the production helpers return
exactly the scan's answer after every step.
"""

from typing import Optional

from repro.core.base import Policy


def least_loaded_node(policy: Policy, start: int = 0) -> Optional[int]:
    """Alive node with the lowest load per unit weight; ties go to the
    first one met walking the ring from ``start`` (the ``wrr`` rotation
    when ``start`` is its pointer, lowest id when 0)."""
    n = policy.num_nodes
    inv = policy._inv_weights
    best, best_key = None, None
    for offset in range(n):
        node = (start + offset) % n
        if not policy._alive[node]:
            continue
        key = policy.loads[node] if inv is None else policy.loads[node] * inv[node]
        if best_key is None or key < best_key:
            best, best_key = node, key
    return best


def has_node_below(policy: Policy, threshold: int) -> bool:
    """Whether any alive node's load is strictly below its scaled threshold."""
    weights = policy.weights
    for node in range(policy.num_nodes):
        if not policy._alive[node]:
            continue
        limit = threshold if weights is None else threshold * weights[node]
        if policy.loads[node] < limit:
            return True
    return False
