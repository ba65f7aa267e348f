"""Performance measurement for the simulator substrate.

Unlike the figure benchmarks (which reproduce paper results), this
package measures the *speed* of the reproduction itself.  The
instrument of record is the layered ledger in ``ledger/`` (declared by
``BENCHMARK.json``); ``micro.py`` holds the few pieces it shares with
the smoke tests.
"""
