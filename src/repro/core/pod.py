"""Power-of-d-choices policies — ``pod`` and cache-aware ``pod/lc``.

``pod`` is the classic randomized load balancer (Mitzenmacher / Azar et
al.): probe ``d`` back-ends chosen uniformly at random and dispatch to
the least loaded probe.  Sampling just two instead of scanning all n
drops the maximum load from ``Theta(log n / log log n)`` to
``Theta(log log n)`` — near-ideal balance at O(d) decision cost, which
is why it is the standard baseline at the 64-1024 node scales this repo
sweeps.  It is completely locality-oblivious, so it inherits WRR's
working-set problem: every node ends up caching the whole database.

``pod/lc`` is the cache-aware variant from the proximity-aware
balanced-allocation line (Pourmiri et al., arXiv:1610.05961) and the
randomized load balancing / replication trade-off studied for cache
networks by Jafari Siavoshani et al. (arXiv:1706.10209): each target
hashes to ``r`` fixed "replica locations", the front-end probes ``d``
of them, and prefers the least-loaded probe *predicted to already hold
the target in cache* — falling back to the overall least-loaded probe
when every cached candidate is overloaded (load >= T_high).  Raising
``r`` trades cache duplication for load spread exactly as in LARD/R,
but with O(d) decision state instead of an explicit server-set table.

Both policies draw randomness exclusively from a per-instance
``random.Random(seed)`` and consume it only inside :meth:`choose`, which
the simulator calls exactly once per dispatch in trace order — so runs
are deterministic, and the connection state machine and the coroutine
oracle in ``tests/`` advance the generator identically.  The probes are
picked by this module's own :func:`draw` over the generator's public
``getrandbits`` (the raw Mersenne Twister words), not by
``Random.sample``: the Python documentation promises the generator's
sequence for a seed and explicitly not the algorithms built on it, and
the pinned decision digests should not hang on one of those.
"""

from __future__ import annotations

import math
from random import Random
from typing import Callable, Dict, Hashable, List, Sequence, Set, Tuple

from .base import Policy, PolicyError, _positive_int
from .locality import stable_hash

__all__ = [
    "PowerOfD",
    "CacheAwarePowerOfD",
    "DEFAULT_D",
    "DEFAULT_REPLICATION",
    "draw",
]

#: The classic "power of two choices": d = 2 captures almost all of the
#: benefit of larger d.
DEFAULT_D = 2

#: Default replica locations per target for ``pod/lc``.
DEFAULT_REPLICATION = 3


def draw(getrandbits: Callable[[int], int], population: Sequence[int], k: int) -> List[int]:
    """``k`` distinct members of ``population``, in selection order.

    Each index comes from rejection sampling on ``getrandbits`` (draw
    ``bit_length`` bits, retry while out of range).  Small populations
    are drawn from a shrinking pool — index below what is left, vacancy
    filled with the pool's last member — and large ones by redrawing
    indices already taken; the crossover is where a ``k``-entry set gets
    smaller than an ``n``-entry list.  That is the procedure, bit for
    bit, the recorded decision digests were taken with (CPython's
    ``Random.sample``, which ``tests/test_core_pod.py`` holds this to).
    """
    n = len(population)
    if not 0 <= k <= n:
        raise PolicyError(f"cannot draw {k} of {n}")
    pool_limit = 21
    if k > 5:
        pool_limit += 4 ** math.ceil(math.log(k * 3, 4))
    picked: List[int] = []
    if n <= pool_limit:
        pool = list(population)
        for left in range(n, n - k, -1):
            bits = left.bit_length()
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[left - 1]
        return picked
    taken: Set[int] = set()
    bits = n.bit_length()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in taken:
            j = getrandbits(bits)
        taken.add(j)
        picked.append(population[j])
    return picked


class PowerOfD(Policy):
    """Power-of-d-choices: probe ``d`` random alive nodes, take the least loaded.

    Parameters
    ----------
    d:
        Probes per request (clamped to the alive-node count).
    seed:
        Seed for the policy's private :class:`random.Random`; equal seeds
        reproduce identical simulations.
    """

    name = "pod"

    def __init__(
        self,
        num_nodes: int,
        d: int = DEFAULT_D,
        seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(num_nodes, **kwargs)
        self.d = _positive_int("d", d)
        self.seed = seed
        self._getrandbits = Random(seed).getrandbits
        self._alive_epoch = -1
        self._alive_list: List[int] = []

    def _alive_snapshot(self) -> List[int]:
        """Alive-node id list, cached per membership epoch."""
        if self._alive_epoch != self.membership_epoch:
            self._alive_list = self.alive_nodes
            self._alive_epoch = self.membership_epoch
        return self._alive_list

    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """Dispatch to the least-loaded of ``d`` uniformly sampled probes."""
        alive = self._alive_list
        if self._alive_epoch != self.membership_epoch:
            alive = self._alive_snapshot()
        d = self.d
        probes = alive if d >= len(alive) else draw(self._getrandbits, alive, d)
        loads = self.loads
        best = -1
        best_load = 0
        for node in probes:
            load = loads[node]
            # Strict <: earlier probe order wins ties, which is the
            # textbook rule and keeps reruns deterministic.
            if best < 0 or load < best_load:
                best, best_load = node, load
        return best

    def describe(self) -> str:
        """Short human-readable configuration summary."""
        return f"{self.name}(n={self.num_nodes}, d={self.d}, seed={self.seed})"


class CacheAwarePowerOfD(PowerOfD):
    """Cache-aware d-choices over ``r`` hashed replica locations (``pod/lc``).

    Decision rule per request for target ``t``:

    1. Derive ``t``'s replica locations: the first ``r`` distinct alive
       nodes produced by ``stable_hash(t, k) % n`` for ``k = 1, 2, ...``
       (memoized per membership epoch).
    2. Probe ``d`` of them (all when ``d >= r``, else a seeded-RNG
       subset).
    3. Among probes predicted to hold ``t`` in cache (they served it
       since the last membership change), take the least loaded; accept
       it unless it is overloaded (load >= T_high).
    4. Otherwise take the overall least-loaded probe (cold dispatch) and
       remember that it now caches ``t``.

    ``r`` is the replication degree of arXiv:1706.10209: larger ``r``
    spreads a hot target over more caches (better balance, more
    duplication), ``r = 1`` degenerates to hash partitioning.
    """

    name = "pod/lc"

    def __init__(
        self,
        num_nodes: int,
        d: int = DEFAULT_D,
        replication: int = DEFAULT_REPLICATION,
        seed: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(num_nodes, d=d, seed=seed, **kwargs)
        self.replication = _positive_int("replication", replication)
        #: target -> (epoch, replica locations)
        self._locations: Dict[Hashable, Tuple[int, List[int]]] = {}
        #: target -> nodes predicted to hold it in cache.
        self._cached: Dict[Hashable, Set[int]] = {}
        self.predicted_hits = 0
        self.cold_dispatches = 0

    def _replica_locations(self, target: Hashable) -> List[int]:
        """First ``r`` distinct alive nodes hashed from ``target`` (memoized)."""
        epoch = self.membership_epoch
        memo = self._locations.get(target)
        if memo is not None and memo[0] == epoch:
            return memo[1]
        r = min(self.replication, self.alive_count)
        locations: List[int] = []
        salt = 1
        # 64 tries per slot before falling back to a scan keeps the
        # derivation deterministic even with many dead nodes.
        limit = 64 * self.replication
        while len(locations) < r and salt <= limit:
            node = stable_hash(target, salt) % self.num_nodes
            if self._alive[node] and node not in locations:
                locations.append(node)
            salt += 1
        if len(locations) < r:  # pathological membership: fill in id order
            for node in self._alive_snapshot():
                if node not in locations:
                    locations.append(node)
                    if len(locations) == r:
                        break
        self._locations[target] = (epoch, locations)
        return locations

    def choose(self, target: Hashable, size: int, now: float = 0.0) -> int:
        """Least-loaded cached probe when viable, else least-loaded probe."""
        memo = self._locations.get(target)
        if memo is not None and memo[0] == self.membership_epoch:
            locations = memo[1]
        else:
            locations = self._replica_locations(target)
        d = self.d
        if d >= len(locations):
            probes = locations
        else:
            probes = draw(self._getrandbits, locations, d)
        cached = self._cached.get(target)
        loads = self.loads
        best = -1
        best_load = 0
        best_hit = -1
        best_hit_load = 0
        for node in probes:
            load = loads[node]
            if best < 0 or load < best_load:
                best, best_load = node, load
            if cached is not None and node in cached:
                if best_hit < 0 or load < best_hit_load:
                    best_hit, best_hit_load = node, load
        if best_hit >= 0 and loads[best_hit] < self.t_high:
            self.predicted_hits += 1
            return best_hit
        self.cold_dispatches += 1
        if cached is None:
            cached = self._cached[target] = set()
        cached.add(best)
        return best

    def on_node_failure(self, node: int) -> None:
        """Forget cache predictions for the failed node (its cache is gone
        if it ever returns); location memos invalidate via the epoch."""
        super().on_node_failure(node)
        for nodes in self._cached.values():
            nodes.discard(node)

    def describe(self) -> str:
        """Short human-readable configuration summary."""
        return (
            f"{self.name}(n={self.num_nodes}, d={self.d}, "
            f"r={self.replication}, seed={self.seed})"
        )
