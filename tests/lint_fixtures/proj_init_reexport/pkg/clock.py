"""Hygiene-scoped helper module: only the interprocedural taint pass
can see the source."""

import time


def host_now():
    return time.time()
