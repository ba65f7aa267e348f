# lardlint: scope=concurrency
"""Positive fixture: a lock made through an aliased threading import,
with no guard declaration."""

import threading as th


class Counter:
    def __init__(self):
        self._lock = th.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1
