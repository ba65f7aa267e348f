"""Hygiene-scoped module: a connection whose stage reads the host clock."""

import time


class Conn:
    def __init__(self):
        cls = type(self)
        self.tick_stage = cls._tick
        self.tock_stage = type(self)._tock

    def _tick(self):
        return time.time()

    def _tock(self):
        return time.time()
