# lardlint: scope=concurrency
"""A guard declaration naming a lock the class never creates: the
declaration is rejected (guard-decl), so no pass may enforce it."""

import threading


class Box:
    __guarded_by__ = {"count": "_lok"}

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0


def reset(box: Box):
    box.count = 1
