# lardlint: scope=determinism
"""Callers of the set_pool helpers: only the one reaching list(pool)
reaches iteration order."""

from set_pool import evens, ordered


def count_evens(values):
    return len(evens(values))


def first(values):
    return ordered(values)[0]
