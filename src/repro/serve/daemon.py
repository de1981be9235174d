"""The basis-store serving daemon: one warm snapshot, many clients.

The daemon wraps a :class:`repro.api.Session` (typically
``Session.open(snapshot)`` — the zero-copy mmap load, so the kernel
page cache is the working set and copy-on-write promotion protects the
snapshot) and serves the typed estimate / match / refine / stats
vocabulary of :mod:`repro.api.messages` over the length-prefixed JSON
socket protocol of :mod:`repro.serve.protocol`.  The lifecycle admin
kinds (:class:`~repro.api.messages.EvictRequest` /
:class:`~repro.api.messages.CompactRequest`) ride the same dispatch:
they reach :meth:`Session.handle_batch` like any other request, take
the session lock there, and apply their bound between probe runs — so
an operator can cap a long-running daemon's store without restarting
it, and in-flight probes still see a consistent store.

Architecture
------------

One thread, ``serve-loop``, runs one ``selectors`` loop over the
listener and every client socket, all non-blocking.  A turn of it

* accepts a connection if one is waiting;
* takes **one** ``recv`` from each readable socket into that
  connection's :class:`~repro.serve.protocol.FrameDecoder` — a frame may
  arrive in any number of pieces over any length of time, a slow sender
  holds up nobody — and decodes every frame those bytes completed into a
  typed request, in arrival order (a well-framed but malformed request
  becomes its own typed ``ProtocolError`` answer, in order, and the
  stream continues; a framing error ends the reading of that peer);
* answers the lot with **one** :meth:`Session.handle_batch` call, which
  routes probe runs straight into :meth:`BasisStore.match_batch` — the
  micro-batch is whatever was ready, so concurrent clients get the
  columnar kernels' batched throughput while every response stays
  bitwise what a sequential in-process call would return (the
  ``handle_batch`` invariant);
* appends each encoded answer to its connection's unsent buffer and
  sends what the socket takes.  What it does not take waits for the
  socket to turn writable, so a slow reader holds up nobody either, and
  while it is owed more than :data:`MAX_UNSENT_BYTES` the daemon stops
  reading it: its requests wait in the kernel's buffers, then in its
  own, and the daemon's memory stays bounded.

A connection is closed and forgotten once its peer has finished — EOF,
a framing error, the drain sweep — *and* it is owed nothing: a peer
that half-closes after pipelining still gets every answer, and a client
costs the daemon a descriptor only while it lasts and never a thread.

Shutdown
--------

``stop(drain=True)`` (and SIGTERM under :meth:`serve_forever`) is
graceful: the loop finishes its turn, the listener closes, every socket
is read until it would block — everything its peer had sent by then —
the lot is answered, each peer gets until :data:`_DRAIN_SECONDS` have
passed to take what it is owed, connections close, and — when a
``save_path`` is configured — the session flushes through the atomic
snapshot writer.  A client that got a response got a true one; a client
mid-send sees a clean EOF.  The
:class:`~repro.api.messages.ShutdownRequest` kind triggers the same
sequence without a signal (for tests and orchestrators).
"""

from __future__ import annotations

import selectors
import socket
import threading
from typing import List, Optional, Set, Tuple

from repro.api.messages import (
    ErrorResponse,
    ShutdownRequest,
    ShutdownResponse,
    decode_request,
    encode_response,
)
from repro.api.session import Session
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import FrameDecoder, encode_frame
from repro.util import timing

#: Most one ``recv`` takes from a socket, and so what bounds a turn's
#: batch: a turn answers what one read of each ready socket completed.
_RECV_BYTES = 64 * 1024

#: A peer owed more than this is not read until it has taken some of it.
#: What it is owed can pass the mark by the answers to one ``recv``, no
#: further.
MAX_UNSENT_BYTES = 1024 * 1024

#: How long a drain waits for peers to take what they are owed.
_DRAIN_SECONDS = 5.0

#: How often :meth:`BasisServer.serve_forever` returns to the
#: interpreter so that a signal's Python handler can run.
_SIGNAL_POLL_SECONDS = 0.1


class _Connection:
    """One client socket, its half-read frame and its unsent answers."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.unsent = bytearray()
        #: Nothing more will be read: EOF, a framing error, a drain.
        self.finished = False
        #: What the selector is watching this socket for.
        self.events = selectors.EVENT_READ


class BasisServer:
    """Serve one warm session over a socket (see module docstring)."""

    def __init__(
        self,
        session: Session,
        host: str = "127.0.0.1",
        port: int = 0,
        save_path: Optional[str] = None,
    ):
        self.session = session
        self.save_path = save_path
        self._host = host
        self._port = int(port)
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        #: ``stop()`` writes to one end, which wakes the loop's select on
        #: the other; ``stop()`` closes both once the loop has exited.
        self._wake: Tuple[socket.socket, ...] = ()
        self._loop: Optional[threading.Thread] = None
        #: Open connections, touched by the loop thread only: from
        #: accept until the peer has finished and is owed nothing.
        self._connections: Set[_Connection] = set()
        #: ``None`` while serving; ``stop(drain)`` leaves its argument.
        self._stop_drains: Optional[bool] = None
        self.shutdown_requested = threading.Event()
        self._interrupted = False
        #: Requests answered over this server's lifetime (diagnostics).
        self.requests_served = 0

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound (resolves ``port=0``)."""
        if self._listener is None:
            raise ServeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "BasisServer":
        """Bind, listen, and start the loop thread."""
        if self._loop is not None:
            raise ServeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self._host, self._port))
        except OSError as error:
            listener.close()
            raise ServeError(
                f"cannot bind {self._host}:{self._port}: {error}"
            ) from error
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(self._wake[0], selectors.EVENT_READ)
        self._loop = threading.Thread(
            target=self._serve_loop, name="serve-loop", daemon=True
        )
        self._loop.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` answer everything sent first.

        Idempotent.  With ``drain=False`` requests not yet answered are
        dropped (connections just close) — the store is still flushed if
        a ``save_path`` is configured, atomically either way.
        """
        if self._loop is None or self._stop_drains is not None:
            return
        self._stop_drains = drain
        self._wake[1].send(b"\0")
        self._loop.join()
        for sock in self._wake:
            sock.close()
        self._selector.close()
        if self.save_path is not None:
            self.session.save(self.save_path)

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into a graceful drain (main thread only).

        Installed *before* any readiness announcement, so an
        orchestrator that signals the instant it sees the daemon is up
        still gets a drain, not the default kill.
        """
        import signal

        def on_term(signum, frame):
            self.shutdown_requested.set()

        def on_int(signum, frame):
            self._interrupted = True
            self.shutdown_requested.set()

        signal.signal(signal.SIGTERM, on_term)
        signal.signal(signal.SIGINT, on_int)

    def serve_forever(self, install_signals: bool = True) -> int:
        """Block until a shutdown is requested; returns the exit code.

        SIGTERM (and a :class:`ShutdownRequest` frame) drain and return
        0; SIGINT drains and returns 130, preserving the CLI's
        interrupt contract.  Pass ``install_signals=False`` if
        :meth:`install_signal_handlers` already ran (or signals are
        managed elsewhere).
        """
        if install_signals:
            self.install_signal_handlers()
        # Polled, not one untimed wait: the kernel may deliver a signal to
        # any thread, and only the main thread runs the Python handler —
        # blocked on a lock with no timeout it would never wake to do so.
        while not self.shutdown_requested.wait(_SIGNAL_POLL_SECONDS):
            pass
        self.stop(drain=True)
        return 130 if self._interrupted else 0

    def __enter__(self) -> "BasisServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- the loop -----------------------------------------------------------

    def _serve_loop(self) -> None:
        selector = self._selector
        try:
            while self._stop_drains is None:
                arrivals: List[Tuple[_Connection, object]] = []
                ready = selector.select()
                for key, mask in ready:
                    if key.fileobj is self._listener:
                        self._accept()
                    elif mask & selectors.EVENT_READ and key.data:
                        self._read(key.data, arrivals)
                self._answer(arrivals)
                for key, _ in ready:
                    if key.data:
                        self._flush(key.data)
            selector.unregister(self._wake[0])
            selector.unregister(self._listener)
            self._listener.close()
            if self._stop_drains:
                self._drain()
        finally:
            self._listener.close()
            for connection in self._connections:
                connection.sock.close()
            self._connections.clear()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            # The peer gave up between the readiness and the call.
            return
        sock.setblocking(False)
        # Frames are small; Nagle + delayed ACK would add ~40ms.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(sock)
        self._connections.add(connection)
        self._selector.register(sock, connection.events, connection)

    def _read(self, connection: _Connection, arrivals: list) -> bool:
        """One ``recv``: the requests it completed join ``arrivals``.

        False once the socket has nothing more to give for now (it would
        block) or for good (the connection is then ``finished``).
        """
        try:
            data = connection.sock.recv(_RECV_BYTES)
            bodies = connection.decoder.feed(data)
        except BlockingIOError:
            return False
        except (ProtocolError, OSError):
            # Framing that cannot be resynchronized, or a reset.
            data = b""
        if not data:
            connection.finished = True
            return False
        for body in bodies:
            try:
                request = decode_request(body)
            except ProtocolError as error:
                # A well-framed but malformed request answers in order
                # and the stream continues.
                request = ErrorResponse(
                    code="ProtocolError",
                    message=str(error),
                    request_id=body.get("id"),
                )
            arrivals.append((connection, request))
        return True

    def _answer(self, arrivals: list) -> None:
        """Answer one turn's arrivals through the session facade, each
        onto its connection's unsent buffer, in arrival order."""
        to_serve = [
            item
            for _, item in arrivals
            if not isinstance(item, (ErrorResponse, ShutdownRequest))
        ]
        served = iter(self.session.handle_batch(to_serve) if to_serve else ())
        for connection, item in arrivals:
            if isinstance(item, ShutdownRequest):
                item = ShutdownResponse(
                    draining=True, request_id=item.request_id
                )
                self.shutdown_requested.set()
            elif not isinstance(item, ErrorResponse):
                item = next(served)
            connection.unsent += encode_frame(encode_response(item))
            self.requests_served += 1

    def _flush(self, connection: _Connection) -> None:
        """Send what the socket takes of what the connection is owed,
        then watch it for what it can still do — or close it, when its
        peer has finished and it is owed nothing."""
        if connection.unsent:
            try:
                sent = connection.sock.send(connection.unsent)
                del connection.unsent[:sent]
            except BlockingIOError:
                pass
            except OSError:
                # The peer is gone; nobody is owed anything.
                connection.unsent.clear()
                connection.finished = True
        events = selectors.EVENT_WRITE if connection.unsent else 0
        if (
            not connection.finished
            and len(connection.unsent) <= MAX_UNSENT_BYTES
        ):
            events |= selectors.EVENT_READ
        if events == connection.events:
            return
        connection.events = events
        if events:
            self._selector.modify(connection.sock, events, connection)
        else:
            self._selector.unregister(connection.sock)
            connection.sock.close()
            self._connections.remove(connection)

    def _drain(self) -> None:
        """Answer everything the peers had sent, and give them one
        bounded wait to take it."""
        arrivals: List[Tuple[_Connection, object]] = []
        for connection in self._connections:
            while self._read(connection, arrivals):
                pass
            connection.finished = True
        self._answer(arrivals)
        for connection in list(self._connections):
            self._flush(connection)
        deadline = timing.perf_counter() + _DRAIN_SECONDS
        while self._connections:
            remaining = deadline - timing.perf_counter()
            if remaining <= 0:
                break
            for key, _ in self._selector.select(remaining):
                self._flush(key.data)


def serve_snapshot(
    path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    save_path: Optional[str] = None,
    mmap: bool = True,
) -> BasisServer:
    """Open a snapshot as a warm session and start a server over it."""
    session = Session.open(path, mmap=mmap)
    return BasisServer(
        session, host=host, port=port, save_path=save_path
    ).start()
