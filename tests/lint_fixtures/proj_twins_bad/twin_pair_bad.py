# lardlint: scope=determinism
"""Declared twin that lost an effect: the checked loop no longer counts
what it dispatches."""

__twin_of__ = {"Loop.run_checked": "twin_pair_bad.Loop.run"}


class Loop:
    def run(self):
        self.now = 1.0
        self.events_dispatched += 1

    def run_checked(self):
        self.now = 1.0
