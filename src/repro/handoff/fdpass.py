"""Cross-process TCP connection hand-off via SCM_RIGHTS.

This is the closest user-space analogue of the paper's kernel hand-off:
the front-end process accepts and inspects a client TCP connection, then
ships the *live socket* (its file descriptor) to a separate back-end
process over a Unix domain socket.  The back-end process adopts the
established connection and answers the client directly — no proxying, no
second TCP connection, and the front-end is out of the data path.

:func:`run_fd_backend` is the back-end process entry point (spawn it with
:class:`multiprocessing.Process`); :class:`FDHandoffSender` is the
front-end side.  The in-process threaded prototype
(:mod:`repro.handoff.cluster`) remains the default for benchmarks — this
module exists to demonstrate that the hand-off itself needs no kernel
support beyond SCM_RIGHTS.
"""

from __future__ import annotations

import os
import socket
from pathlib import Path
from typing import Optional

from .docroot import DocumentStore
from .http import HTTPError, build_response, read_request_head
from .net import close_quietly
from .protocol import (
    MSG_HANDOFF,
    MSG_SHUTDOWN,
    recv_handoff,
    send_handoff,
    send_shutdown,
)

__all__ = ["FDHandoffSender", "run_fd_backend"]


class FDHandoffSender:
    """Front-end side of the cross-process hand-off channel."""

    def __init__(self, channel_path: str) -> None:
        self.channel_path = channel_path
        self._channel = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._channel.connect(channel_path)

    def handoff(self, conn: socket.socket, consumed: bytes) -> None:
        """Transfer ``conn`` (plus the bytes already read) to the back-end.

        After this call the sender must treat the connection as gone: the
        local duplicate descriptor is closed and only the back-end's copy
        remains attached to the client.
        """
        send_handoff(self._channel, conn.fileno(), consumed)
        conn.close()

    def shutdown_backend(self) -> None:
        """Ask the peer back-end process to exit its hand-off loop."""
        send_shutdown(self._channel)

    def close(self) -> None:
        """Close the hand-off channel socket."""
        close_quietly(self._channel)


def _serve_adopted_connection(fd: int, payload: bytes, store: DocumentStore) -> bool:
    """Serve one HTTP request on an adopted client connection."""
    conn = socket.socket(fileno=fd)
    try:
        conn.settimeout(10.0)
        request, _ = read_request_head(conn, payload)
        if request is None:
            return False
        if request.method != "GET":
            conn.sendall(build_response(501, b"GET only"))
            return False
        if request.target not in store:
            conn.sendall(build_response(404, b"not found"))
            return True
        body = store.read(request.target)
        conn.sendall(
            build_response(200, body, extra_headers={"X-Handoff": "fd-pass"})
        )
        return True
    except (HTTPError, OSError):
        return False
    finally:
        conn.close()


def run_fd_backend(channel_path: str, docroot: str, catalog: dict) -> None:
    """Back-end process main loop: adopt handed-off connections and serve.

    Parameters
    ----------
    channel_path:
        Unix socket path to listen on for hand-off messages.
    docroot / catalog:
        Document tree location and its ``{path: size}`` catalog (the
        store is reconstructed rather than pickled).
    """
    store = DocumentStore(Path(docroot))
    store._catalog.update(catalog)
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if os.path.exists(channel_path):
        os.unlink(channel_path)
    listener.bind(channel_path)
    listener.listen(1)
    channel, _ = listener.accept()
    try:
        while True:
            message = recv_handoff(channel)
            if message is None or message.msg_type == MSG_SHUTDOWN:
                return
            if message.msg_type == MSG_HANDOFF and message.fd is not None:
                _serve_adopted_connection(message.fd, message.payload, store)
    finally:
        channel.close()
        listener.close()
        if os.path.exists(channel_path):
            os.unlink(channel_path)
