"""Trace persistence: save/load tokenized traces as compact ``.npz`` files.

Parsing multi-million-line logs (or regenerating synthetic traces) once
and replaying them many times is the normal workflow, so traces serialize
to a single uncompressed numpy archive: the token stream, the size table,
the name, and (format 2) the optional per-target dynamic CPU-cost table.
The two integer arrays are stored at the narrowest unsigned width that
holds them (the tokens at the width the trace already keeps them at), which
keeps the file near zlib's size without paying zlib's time (compression
cost several times what generating the trace does); compressed or wider
archives written by earlier versions load the same way.
Every member must end where its ``.npy`` header says (which also makes zip
check the member's CRC), its dtype and shape are checked, and the arrays
are validated by the :class:`~repro.workload.trace.Trace` constructor, so a
corrupted file raises :class:`~repro.workload.trace.TraceError` and cannot
produce an inconsistent trace object.
"""

from __future__ import annotations

import lzma
import zlib
from pathlib import Path
from tokenize import TokenError
from typing import Any, Union
from zipfile import BadZipFile, ZipFile

import numpy as np

from .trace import Trace, TraceError, unsigned_dtype

__all__ = ["save_trace", "load_trace"]

#: Format 2 adds the optional ``cpu_cost_s_by_target`` array (dynamic/CGI
#: catalogs).  Static traces are still written as format 1, so archives
#: produced by this version stay readable by older loaders.
_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)

#: Every member: what it must be, whether it is a scalar, and the dtype
#: kinds it may hold.  Integers of any width are accepted because the
#: writer narrows them; anything else (a float token, an int name) is
#: refused rather than cast.
_MEMBERS = {
    "version": ("an integer scalar", True, "iu"),
    "targets": ("an integer array", False, "iu"),
    "sizes_by_target": ("an integer array", False, "iu"),
    "name": ("a bytes scalar", True, "S"),
    "cpu_cost_s_by_target": ("a numeric array", False, "fiu"),
}
_OPTIONAL = "cpu_cost_s_by_target"

#: What a damaged archive raises from inside ``zipfile``, its codecs and
#: numpy's ``.npy`` header parser: a cut or spliced zip (BadZipFile,
#: EOFError, OSError), a flipped method, version or "encrypted" flag
#: (NotImplementedError, RuntimeError), a mangled stream (zlib, lzma), a
#: mangled header (ValueError, TokenError) or a shape too big to allocate.
_UNREADABLE = (
    OSError,
    ValueError,
    EOFError,
    RuntimeError,
    MemoryError,
    BadZipFile,
    zlib.error,
    lzma.LZMAError,
    TokenError,
)


def _narrow(values: np.ndarray[Any, Any]) -> np.ndarray[Any, Any]:
    """``values`` (all ``>= 0``) at the smallest unsigned dtype holding them."""
    return values.astype(unsigned_dtype(values.max() if len(values) else 0), copy=False)


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = dict(
        targets=trace.targets,
        sizes_by_target=_narrow(trace.sizes_by_target),
        name=np.bytes_(trace.name.encode("utf-8")),
    )
    if trace.cpu_cost_s_by_target is not None:
        arrays[_OPTIONAL] = trace.cpu_cost_s_by_target
        version = _FORMAT_VERSION
    else:
        version = 1
    np.savez(path, version=np.int64(version), **arrays)
    return path


def _read_member(archive: ZipFile, name: str) -> np.ndarray[Any, Any]:
    """The ``.npy`` member ``name``, read to its last byte.

    ``np.load`` stops after the bytes its header declares, so a damaged
    shape (``(2000,)`` read as ``(0000,)``) would silently load a shorter
    array and zip would never reach the end where it checks the CRC.
    """
    with archive.open(name) as stream:
        values = np.lib.format.read_array(stream, allow_pickle=False)
        if stream.read(1):
            raise ValueError(f"{name} holds more bytes than its header declares")
    return values


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    try:
        with ZipFile(path) as archive:
            names = set(archive.namelist())
            arrays = {
                member: _read_member(archive, f"{member}.npy")
                for member in _MEMBERS
                if f"{member}.npy" in names
            }
    except _UNREADABLE as exc:
        raise TraceError(f"{path}: cannot read trace archive: {exc}") from exc
    missing = [m for m in _MEMBERS if m not in arrays and m != _OPTIONAL]
    if missing:
        raise TraceError(f"{path}: not a trace archive (missing {', '.join(missing)})")
    for member, values in arrays.items():
        what, scalar, kinds = _MEMBERS[member]
        if values.dtype.kind not in kinds or scalar != (values.ndim == 0):
            raise TraceError(
                f"{path}: {member} must be {what}, got {values.dtype} of shape {values.shape}"
            )
    version = int(arrays["version"])
    if version not in _READABLE_VERSIONS:
        raise TraceError(f"{path}: unsupported trace format version {version}")
    if (version == _FORMAT_VERSION) != (_OPTIONAL in arrays):
        # The writer stores the cost table exactly when it writes format 2.
        raise TraceError(f"{path}: format {version} does not match {_OPTIONAL} presence")
    try:
        name = arrays["name"].item().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: name is not UTF-8: {exc}") from exc
    return Trace(
        arrays["targets"],
        arrays["sizes_by_target"],
        name=name,
        cpu_cost_s_by_target=arrays.get(_OPTIONAL),
    )
