# lardlint: scope=concurrency
"""Positive fixture: the aliased-lock class without a guard declaration,
nested inside another class."""

import threading as th


class Registry:
    class Counter:
        def __init__(self):
            self._lock = th.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1
