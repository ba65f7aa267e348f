"""``lardlint`` — determinism & concurrency static analysis for this repo.

Every result in the LARD reproduction depends on two properties that
ordinary tests are bad at protecting:

* the **simulator is deterministic** — identical traces must produce
  identical delay/throughput curves, or policy comparisons are noise; and
* the **hand-off prototype is race-free** — the threaded front-end mutates
  shared dispatcher/statistics state from many threads.

``lardlint`` makes violations of those properties merge-blocking instead
of hoping a test notices.  Three rule families (see
``docs/static-analysis.md`` for the full catalogue):

* **determinism** (``repro.sim``, ``repro.core``, ``repro.cache``,
  ``repro.cluster``, ``repro.workload``, ``repro.analysis``): no
  wall-clock or global-RNG calls, no iteration over unordered sets where
  order can reach event scheduling, no mutable default arguments, no raw
  ``heapq`` event queues outside the engine's ``(time, seq)`` tie-break;
* **concurrency** (``repro.handoff``, ``repro.obs``): every
  shared-mutable attribute is declared in ``__guarded_by__`` and
  assigned under its documented lock, nested lock acquisition follows
  the hierarchy declared in ``repro/handoff/locks.py``, and no blocking
  call is made while a dispatcher lock is held;
* **hygiene** (repo-wide): no bare ``except:``, no ``assert`` used for
  runtime validation in shipped code.

Run it as ``python -m repro.lint src/repro`` or ``lard-repro lint``.
Suppressions require a reason::

    risky_line()  # lardlint: disable=rule-name -- why this is safe
"""

from __future__ import annotations

from .findings import Finding
from .runner import (
    ALL_RULES,
    SCOPE_CONCURRENCY,
    SCOPE_DETERMINISM,
    SCOPE_HYGIENE,
    lint_file,
    lint_paths,
    main,
)

__all__ = [
    "Finding",
    "ALL_RULES",
    "SCOPE_CONCURRENCY",
    "SCOPE_DETERMINISM",
    "SCOPE_HYGIENE",
    "lint_file",
    "lint_paths",
    "main",
]
