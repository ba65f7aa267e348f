"""The compiled request lifecycle: ``_lifecycle.c``, built on first use.

``_lifecycle.c`` is the plain :class:`~repro.cluster.fastpath.FastConnection`
lifecycle in C: its stages, run as the events of the simulation's own
:class:`~repro.sim.Engine`.  Nothing builds it at install
or import time: the first run that may take it (see
``FrontEnd.start``) compiles it with the system C compiler into
``$XDG_CACHE_HOME/repro-lard/native/`` (``~/.cache/repro-lard/native/``
when unset), beside the trace memo's ``traces/``.  The file there is
named by a digest of the C source, the interpreter's extension suffix
and the compile command, so an edited source, another Python or other
flags build afresh, and every later process loads it in about a
millisecond.  The one build costs about a second of wall time and a
``cc1`` child of about 60 MB.

Whatever goes wrong — no compiler, a compile error, an unwritable
cache, a damaged binary — the run takes ``fastpath.py``, which stays the
reference, and :func:`load` says why.  A compile the compiler refused
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
import time
from pathlib import Path
from types import ModuleType
from typing import Optional, Tuple

__all__ = ["SOURCE", "COMPILER", "CFLAGS", "build_dir", "load", "last_build_s"]

#: The C source, shipped beside this module.
SOURCE = Path(__file__).with_name("_lifecycle.c")
#: The compile command: ``COMPILER CFLAGS -I <Python include dir> SOURCE
#: -o OUT``.  ``-ffp-contract=off`` keeps every ``a * b + c`` two
#: roundings, as in Python, so results stay byte-identical.
COMPILER = "cc"
CFLAGS: Tuple[str, ...] = ("-shared", "-fPIC", "-O2", "-ffp-contract=off")

_NAME = "repro.cluster._lifecycle"

#: ``(module, "")`` or ``(None, why not)``, once per process.
_loaded: Optional[Tuple[Optional[ModuleType], str]] = None
#: Wall seconds this process spent compiling the core (``None``: it did
#: not compile it).
_build_s: Optional[float] = None


def build_dir() -> Path:
    """Where built cores live: ``$XDG_CACHE_HOME/repro-lard/native``."""
    xdg = os.environ.get("XDG_CACHE_HOME")  # lardlint: disable=transitive-nondeterminism -- build cache *location* only; the binary is named by the digest of what it was built from
    root = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return root / "repro-lard" / "native"


def last_build_s() -> Optional[float]:
    """Seconds this process spent compiling the core, if it did."""
    return _build_s


def load() -> Tuple[Optional[ModuleType], str]:
    """The compiled core, building it if need be: ``(module, "")``, or
    ``(None, reason)`` when this process's runs take ``fastpath.py``."""
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
    stem = f"_lifecycle-{key}"
    return (
        directory / f"{stem}{suffix}",
        directory / f"{stem}.sha256",
        directory / f"{stem}.failed",
    )


def _load() -> Tuple[Optional[ModuleType], str]:
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None, f"no C source ({SOURCE.name})"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    command = " ".join((COMPILER,) + CFLAGS)
    key = hashlib.sha256(
        b"\0".join((source, suffix.encode(), command.encode()))
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
        command = [
            compiler, *CFLAGS, "-I", sysconfig.get_paths()["include"], str(SOURCE), "-o", scratch,
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
            return None, "the built core does not import"
        return module, ""


def _publish_text(path: Path, text: str) -> None:
    """Write ``path`` whole or not at all."""
    scratch = path.with_name(f".{path.name}.{os.getpid()}")
    scratch.write_text(text, encoding="utf-8")
    os.replace(scratch, path)
