# lardlint: scope=determinism
"""Positive fixture: a heapq function reached through an ``as`` alias."""

from heapq import heappush as hp


def push(queue, when):
    hp(queue, (when, None))
