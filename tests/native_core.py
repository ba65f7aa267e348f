"""Choosing the core a test runs on.

A plain run takes the compiled core when it can (``FrontEnd.start``
decides); ``repro.cluster.fastpath`` stays the reference.  Suites that
compare the two, and tests that look at the reference's own objects
while a run is on, pick the reference here: ``reference_core()`` makes
:func:`repro.cluster.native.load` report the extension unavailable, as
a machine without a C compiler would, for as long as it is active.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

from repro.cluster import native


def native_available() -> bool:
    return native.load()[0] is not None


def require_native() -> None:
    """Skip the calling test where the compiled core cannot be built."""
    module, why = native.load()
    if module is None:
        pytest.skip(f"native core unavailable: {why}")


@contextlib.contextmanager
def reference_core() -> Iterator[None]:
    """Runs started inside take ``fastpath.py``, as on a machine
    without a C compiler."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "load", lambda: (None, "disabled by the test"))
        yield
