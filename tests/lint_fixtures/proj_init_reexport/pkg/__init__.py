"""A package that re-exports its helper: the caller's only route to
``clock.host_now`` goes through this module's relative import."""

from .clock import host_now

__all__ = ["host_now"]
