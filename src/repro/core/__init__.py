"""The paper's contribution: content-based request-distribution policies.

All strategies implement :class:`Policy` (choose / on_dispatch /
on_complete against an active-connection load vector) so the same objects
drive both the trace simulator (:mod:`repro.cluster`) and the live TCP
hand-off prototype (:mod:`repro.handoff`).
"""

from .base import (
    DEFAULT_T_HIGH,
    DEFAULT_T_LOW,
    PERSISTENT_POLICIES,
    Policy,
    PolicyError,
    admission_limit,
)
from .chash import ConsistentHashBounded
from .lard import LARD
from .lardr import DEFAULT_K_SECONDS, LARDReplication
from .lbgc import LocalityGlobalCache
from .locality import HashLocality, stable_hash
from .pod import CacheAwarePowerOfD, PowerOfD
from .registry import PAPER_POLICY_NAMES, POLICY_NAMES, make_policy, uses_gms
from .wrr import WeightedRoundRobin

__all__ = [
    "Policy",
    "PolicyError",
    "admission_limit",
    "DEFAULT_T_LOW",
    "DEFAULT_T_HIGH",
    "DEFAULT_K_SECONDS",
    "PERSISTENT_POLICIES",
    "WeightedRoundRobin",
    "HashLocality",
    "stable_hash",
    "LocalityGlobalCache",
    "LARD",
    "LARDReplication",
    "ConsistentHashBounded",
    "PowerOfD",
    "CacheAwarePowerOfD",
    "PAPER_POLICY_NAMES",
    "POLICY_NAMES",
    "make_policy",
    "uses_gms",
]
