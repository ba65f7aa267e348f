# lardlint: scope=determinism
"""A set-to-set comprehension (order cannot be observed) and a list()
of a set (order escapes into a sequence)."""


def evens(values):
    pool = set(values)
    return {v for v in pool if v % 2 == 0}


def ordered(values):
    pool = set(values)
    return list(pool)
