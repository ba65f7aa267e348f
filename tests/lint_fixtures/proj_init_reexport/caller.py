# lardlint: scope=determinism
"""Determinism-scoped caller that imports the helper from its package,
not from the module that defines it."""

from pkg import host_now


def stamp():
    return host_now()
