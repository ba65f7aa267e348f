"""Socket plumbing shared by the live front-ends and back-ends.

:class:`Listener` is the package's one listener lifecycle: the hand-off
front-end, the L4 relay and a back-end in listening mode each own one.
The helpers below are the three ways a connection is torn down: quietly,
with an RST, or after a best-effort reply.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Tuple

__all__ = ["Listener", "abort_socket", "close_quietly", "reply_and_close"]

_BACKLOG = 512


class Listener:
    """A bound TCP listener whose accept thread (named ``name``) passes
    every accepted connection to ``on_accept`` until :meth:`close`."""

    def __init__(
        self,
        name: str,
        on_accept: Callable[[socket.socket], None],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(_BACKLOG)
        self._sock = sock
        self._on_accept = on_accept
        #: The bound (host, port).
        self.address: Tuple[str, int] = sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            self._on_accept(conn)

    def close(self) -> None:
        """Stop accepting and join the accept thread."""
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() makes it return immediately.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        close_quietly(self._sock)
        self._thread.join(timeout=5)


def close_quietly(sock: socket.socket) -> None:
    """Close ``sock``; a peer that is already gone is not an error."""
    try:
        sock.close()
    except OSError:
        pass


def abort_socket(sock: socket.socket) -> None:
    """Close with an RST so the peer learns of the crash immediately."""
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    except OSError:
        pass
    close_quietly(sock)


def reply_and_close(conn: socket.socket, payload: bytes) -> None:
    """Best-effort: send ``payload``, then close whatever happened."""
    try:
        conn.sendall(payload)
    except OSError:
        pass
    close_quietly(conn)
