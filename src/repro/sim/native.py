"""The compiled engine and lifecycle: one extension, built on first use.

``_engine.c`` is :class:`~repro.sim.engine.Engine` in C, and
``repro/cluster/_lifecycle.c`` the plain
:class:`~repro.cluster.fastpath.FastConnection` lifecycle, whose stages
run as that engine's native events (``_engine.h`` is what the second
reads of the first).  Both build into one extension, ``_native``.
Nothing builds it at install or import time: the first engine that may
be it (a ``ClusterSimulator``'s, made at first use, or a bare
:func:`new_engine`) compiles it with the system C compiler into
``$XDG_CACHE_HOME/repro-lard/native/`` (``~/.cache/repro-lard/native/``
when unset), beside the trace memo's ``traces/``.  The file there is
named by a digest of the C sources, the interpreter's extension suffix
and the compile command, so an edited source, another Python or other
flags build afresh, and every later process loads it in about a
millisecond.  The one build costs about 1.5 s of wall time and a
``cc1`` child of about 60 MB.

Whatever goes wrong — no compiler, a compile error, an unwritable
cache, a damaged binary — the run takes ``engine.py`` and
``fastpath.py``, which stay the references, and :func:`load` says why;
so does an engine made under a profiler (:func:`engine_type`), whose
profile of the compiled engine would show every event inside one
built-in call.
A compile the compiler refused
(a nonzero exit status) is recorded against its digest (``*.failed``,
holding the compiler's output), so later processes do not retry it; one
that timed out, could not be launched or was killed by a signal is not
recorded, and the next process builds again; a binary whose bytes do not
match the digest recorded when it was built (``*.sha256``) is never
loaded, but rebuilt.  Builders take a lock per digest and publish by
rename, so concurrent first runs end with one good file.

The warm path — a digest, a file read and an extension import — loads
neither :mod:`subprocess` nor :mod:`sysconfig`.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Optional, Tuple

from .engine import Engine

__all__ = [
    "SOURCES", "COMPILER", "CFLAGS", "build_dir", "load", "last_build_s",
    "profiled", "engine_type", "new_engine",
]

_HERE = Path(__file__).resolve().parent

#: The extension's files: the engine's header, then the C sources, the
#: engine's own and the cluster's lifecycle (a file of the tree, not an
#: import: nothing in ``repro.sim`` imports ``repro.cluster``).
SOURCES: Tuple[Path, ...] = (
    _HERE / "_engine.h",
    _HERE / "_engine.c",
    _HERE.parent / "cluster" / "_lifecycle.c",
)
#: The compile command: ``COMPILER CFLAGS -I <Python include dir> -I
#: <header dir> SOURCES... -o OUT``.  ``-ffp-contract=off`` keeps every
#: ``a * b + c`` two roundings, as in Python, so results stay
#: byte-identical.
COMPILER = "cc"
CFLAGS: Tuple[str, ...] = ("-shared", "-fPIC", "-O2", "-ffp-contract=off")

_NAME = "repro.sim._native"

#: ``(module, "")`` or ``(None, why not)``, once per process.
_loaded: Optional[Tuple[Optional[ModuleType], str]] = None
#: Wall seconds this process spent compiling the extension (``None``: it did
#: not compile it).
_build_s: Optional[float] = None


def build_dir() -> Path:
    """Where built extensions live: ``$XDG_CACHE_HOME/repro-lard/native``."""
    xdg = os.environ.get("XDG_CACHE_HOME")  # lardlint: disable=transitive-nondeterminism -- build cache *location* only; the binary is named by the digest of what it was built from
    root = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return root / "repro-lard" / "native"


def last_build_s() -> Optional[float]:
    """Seconds this process spent compiling the extension, if it did."""
    return _build_s


def profiled() -> bool:
    """Whether a profiler (``cProfile``, ``profile``) watches this thread."""
    if sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile's hook
    return monitoring is not None and monitoring.get_tool(monitoring.PROFILER_ID) is not None


def engine_type() -> Tuple[Optional[Any], str]:
    """The compiled :class:`Engine` class, or ``None`` and why an
    engine made now is ``engine.py``: ``profiler attached`` or
    ``extension unavailable: <why>``."""
    if profiled():
        return None, "profiler attached"
    module, why = load()
    if module is None:
        return None, f"extension unavailable: {why}"
    return module.Engine, ""


def new_engine() -> Engine:
    """A fresh engine: the compiled one where :func:`engine_type` gives
    it, else the reference.  ``repro.sim.Engine()`` is this; a
    :class:`~repro.cluster.ClusterSimulator` makes its engine the same
    way at first use, keeping the reason (``engine_reason``)."""
    compiled, _ = engine_type()
    engine: Engine = Engine() if compiled is None else compiled()
    return engine


def load() -> Tuple[Optional[ModuleType], str]:
    """The compiled extension, building it if need be: ``(module, "")``,
    or ``(None, reason)`` when this process's runs take ``engine.py`` and
    ``fastpath.py``."""
    global _loaded
    loaded = _loaded
    if loaded is None:
        try:
            loaded = _load()
        except OSError as error:
            loaded = (None, f"build cache: {error}")
        _loaded = loaded
    return loaded


def _paths(key: str, suffix: str) -> Tuple[Path, Path, Path]:
    """The binary, its recorded digest and the failed-compile record."""
    directory = build_dir()
    stem = f"_native-{key}"
    return (
        directory / f"{stem}{suffix}",
        directory / f"{stem}.sha256",
        directory / f"{stem}.failed",
    )


def _load() -> Tuple[Optional[ModuleType], str]:
    sources = []
    for path in SOURCES:
        try:
            sources.append(path.read_bytes())
        except OSError:
            return None, f"no C source ({path.name})"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    command = " ".join((COMPILER,) + CFLAGS)
    key = hashlib.sha256(
        b"\0".join((*sources, suffix.encode(), command.encode()))
    ).hexdigest()[:24]
    binary, digest, failed = _paths(key, suffix)
    module = _import_verified(binary, digest)
    if module is not None:
        return module, ""
    if failed.exists():
        return None, _first_line(failed.read_text(encoding="utf-8", errors="replace"))
    return _build(binary, digest, failed)


def _import_verified(binary: Path, digest: Path) -> Optional[ModuleType]:
    """Import ``binary`` if its bytes are the ones recorded when it was
    built; a missing, truncated or overwritten file is not loaded."""
    try:
        data = binary.read_bytes()
        recorded = digest.read_text(encoding="ascii").strip()
    except (OSError, ValueError):
        return None
    if hashlib.sha256(data).hexdigest() != recorded:
        return None
    loader = importlib.machinery.ExtensionFileLoader(_NAME, str(binary))
    spec = importlib.util.spec_from_file_location(_NAME, str(binary), loader=loader)
    if spec is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
    except ImportError:
        return None
    return module


def _first_line(text: str) -> str:
    for line in text.splitlines():
        if line.strip():
            return line.strip()
    return "compile failed"


def _build(binary: Path, digest: Path, failed: Path) -> Tuple[Optional[ModuleType], str]:
    """Compile under a lock per digest and publish by rename; a process
    that waited on the lock finds the published file and loads it."""
    import fcntl
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    global _build_s
    compiler = shutil.which(COMPILER)
    if compiler is None:
        return None, f"no C compiler ({COMPILER} is not on PATH)"
    directory = binary.parent
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{binary.name}.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        module = _import_verified(binary, digest)
        if module is not None:
            return module, ""
        if failed.exists():
            return None, _first_line(failed.read_text(encoding="utf-8", errors="replace"))
        handle, scratch = tempfile.mkstemp(prefix=".build-", suffix=binary.suffix, dir=directory)
        os.close(handle)
        header, *sources = SOURCES
        command = [
            compiler, *CFLAGS, "-I", sysconfig.get_paths()["include"], "-I", str(header.parent),
            *map(str, sources), "-o", scratch,
        ]
        started = time.perf_counter()  # lardlint: disable=wall-clock -- times the one-time compile for its report; nothing simulated reads it
        status: Optional[int] = None  # None: the compiler did not finish
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=300)
            output, status = done.stderr + done.stdout, done.returncode
        except (OSError, subprocess.SubprocessError) as error:
            output = f"{COMPILER} did not finish: {error}"
        _build_s = time.perf_counter() - started  # lardlint: disable=wall-clock -- as above
        if status != 0:
            os.unlink(scratch)
            if status is not None and status > 0:
                # The compiler read the source and refused it: so will
                # every later process, until the source changes.
                _publish_text(failed, output or f"{COMPILER} exited with status {status}\n")
            elif status is not None:
                output = f"{COMPILER} was killed by signal {-status}"
            # A timeout, a launch error or a signal says nothing about
            # the source: this process falls back, the next one tries.
            return None, _first_line(output or f"{COMPILER} exited with status {status}")
        _publish_text(digest, hashlib.sha256(Path(scratch).read_bytes()).hexdigest() + "\n")
        os.replace(scratch, binary)
        module = _import_verified(binary, digest)
        if module is None:
            return None, "the built extension does not import"
        return module, ""


def _publish_text(path: Path, text: str) -> None:
    """Write ``path`` whole or not at all."""
    scratch = path.with_name(f".{path.name}.{os.getpid()}")
    scratch.write_text(text, encoding="utf-8")
    os.replace(scratch, path)
