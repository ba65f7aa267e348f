# lardlint: scope=determinism
"""Declared twin pair with identical effect skeletons: the dispatch
count is written one call deeper on one side, so the closure (not just
the root body) must match."""

__twin_of__ = {"Loop.run_checked": "twin_pair_good.Loop.run"}


class Loop:
    def run(self):
        self.now = 1.0
        self.events_dispatched += 1

    def _count(self):
        self.events_dispatched += 1

    def run_checked(self):
        self.now = 1.0
        self._count()
