"""Choosing the engine and the core a test runs on.

A run takes the compiled engine, and a plain run the compiled core, when
it can (``FrontEnd.start`` decides); ``repro.sim.engine`` and
``repro.cluster.fastpath`` stay the references.  Suites that compare the
two, and tests that look at the references' own objects while a run is
on, pick the references here: ``reference_core()`` makes
:func:`repro.sim.native.load` report the extension unavailable, as a
machine without a C compiler would, for as long as it is active.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

from repro.sim import native


def native_available() -> bool:
    return native.load()[0] is not None


def require_native() -> None:
    """Skip the calling test where the compiled core cannot be built."""
    module, why = native.load()
    if module is None:
        pytest.skip(f"native core unavailable: {why}")


@contextlib.contextmanager
def reference_core() -> Iterator[None]:
    """Runs started (and engines built by ``repro.sim.Engine()``) inside
    take ``engine.py`` and ``fastpath.py``, as on a machine without a C
    compiler."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "load", lambda: (None, "disabled by the test"))
        yield
