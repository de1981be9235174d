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

* an **accept thread** admits connections and starts one reader thread
  per connection;
* **reader threads** decode frames into typed requests and enqueue them
  on one admission queue (per-connection order is preserved end to
  end: one queue, one dispatcher); a reader that exits — EOF, a framing
  error, a drain — queues a farewell behind what it admitted, and the
  dispatcher closes and forgets the connection when it gets there, so a
  client costs the daemon a descriptor and a thread only while it lasts;
* a single **dispatcher thread** drains the queue in micro-batches of
  up to :data:`MAX_BATCH` requests and answers them through
  :meth:`Session.handle_batch`, which routes probe runs straight into
  :meth:`BasisStore.match_batch` — so concurrent clients get the
  columnar kernels' batched throughput while every response stays
  bitwise what a sequential in-process call would return (the
  ``handle_batch`` invariant).

Shutdown
--------

``stop(drain=True)`` (and SIGTERM under :meth:`serve_forever`) is
graceful: the listener closes, readers sweep already-sent frames off
their sockets and exit, the dispatcher answers everything admitted,
connections close, and — when a ``save_path`` is configured — the
session flushes through the atomic snapshot writer.  A client that got
a response got a true one; a client mid-send sees a clean EOF.  The
:class:`~repro.api.messages.ShutdownRequest` kind triggers the same
sequence without a signal (for tests and orchestrators).
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import List, Optional, Tuple

from repro.api.messages import (
    ErrorResponse,
    ShutdownRequest,
    ShutdownResponse,
    decode_request,
    encode_response,
)
from repro.api.session import Session
from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import recv_frame, send_frame

#: Largest micro-batch the dispatcher forms from the admission queue.
MAX_BATCH = 64

#: Reader poll interval: how quickly an idle connection notices a drain
#: (and the final buffered-frame sweep window during one).
_READ_POLL_SECONDS = 0.1


#: What a reader leaves on the admission queue as it exits: behind
#: everything its connection admitted, so when the dispatcher reaches it
#: all of that has been answered and the connection can go.
_READER_DONE = object()


class _Connection:
    """One client socket, its ordered-send lock and its reader thread."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.send_lock = threading.Lock()
        self.alive = True
        self.reader: Optional[threading.Thread] = None

    def send(self, body: dict) -> None:
        with self.send_lock:
            if not self.alive:
                return
            try:
                send_frame(self.sock, body)
            except OSError:
                self.alive = False

    def close(self) -> None:
        with self.send_lock:
            self.alive = False
            try:
                self.sock.close()
            except OSError:
                pass


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
        self._queue: "queue.Queue[Tuple[_Connection, object]]" = (
            queue.Queue()
        )
        #: Open connections: from accept until the dispatcher has
        #: answered everything the connection's (exited) reader admitted.
        self._connections: List[_Connection] = []
        self._connections_lock = threading.Lock()
        self._accept_thread: Optional[threading.Thread] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._draining = threading.Event()
        self._finish = threading.Event()
        self.shutdown_requested = threading.Event()
        self._started = False
        self._stopped = False
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
        """Bind, listen, and start the accept/dispatch threads."""
        if self._started:
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
        listener.settimeout(_READ_POLL_SECONDS)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        self._accept_thread.start()
        self._dispatcher.start()
        self._started = True
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` answer everything admitted first.

        Idempotent.  With ``drain=False`` queued requests are dropped
        (connections just close) — the store is still flushed if a
        ``save_path`` is configured, atomically either way.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._draining.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join()
        # Readers notice the drain flag at their next poll, sweep any
        # frames their peer already sent, and exit.
        with self._connections_lock:
            readers = [connection.reader for connection in self._connections]
        for thread in readers:
            thread.join()
        if not drain:
            # Drop whatever is still queued, unanswered.
            try:
                while True:
                    self._queue.get_nowait()
            except queue.Empty:
                pass
        # The dispatcher empties the queue before honoring _finish.
        self._finish.set()
        if self._dispatcher is not None:
            self._dispatcher.join()
        with self._connections_lock:
            for connection in self._connections:
                connection.close()
            self._connections.clear()
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
        while not self.shutdown_requested.wait(_READ_POLL_SECONDS):
            pass
        self.stop(drain=True)
        return 130 if self._interrupted else 0

    def __enter__(self) -> "BasisServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- threads ------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            sock.settimeout(_READ_POLL_SECONDS)
            # Frames are small; Nagle + delayed ACK would add ~40ms.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock)
            connection.reader = threading.Thread(
                target=self._read_loop,
                args=(connection,),
                name="serve-read",
                daemon=True,
            )
            with self._connections_lock:
                self._connections.append(connection)
            connection.reader.start()

    def _read_loop(self, connection: _Connection) -> None:
        """Decode frames into requests until EOF, error, or drain.

        During a drain the loop keeps consuming frames the peer already
        sent (they are admitted work) and exits at the first quiet
        poll — so "drain in-flight" covers everything on the wire at
        shutdown time, not just what happened to be queued.  However it
        ends, the last thing admitted is :data:`_READER_DONE`: a peer
        that half-closes after pipelining still gets every answer, and
        only then is its socket closed.
        """
        while True:
            try:
                body = recv_frame(connection.sock)
            except socket.timeout:
                if self._draining.is_set():
                    break
                continue
            except (ProtocolError, OSError):
                # Framing is unrecoverable mid-stream: drop the peer.
                connection.alive = False
                break
            if body is None:
                break
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
            self._queue.put((connection, request))
        self._queue.put((connection, _READER_DONE))

    def _dispatch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=_READ_POLL_SECONDS)
            except queue.Empty:
                if self._finish.is_set():
                    return
                continue
            batch = [first]
            while len(batch) < MAX_BATCH:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._serve_batch(batch)

    def _serve_batch(self, batch) -> None:
        """Answer one admission batch through the session facade."""
        pending: List[Tuple[_Connection, object]] = []
        to_serve: List[object] = []
        serve_slots: List[int] = []
        for position, (connection, item) in enumerate(batch):
            if item is _READER_DONE or isinstance(item, ErrorResponse):
                # Nothing to compute: the reader's farewell, or a
                # malformed request it pre-answered.
                pending.append((connection, item))
                continue
            if isinstance(item, ShutdownRequest):
                pending.append(
                    (
                        connection,
                        ShutdownResponse(
                            draining=True, request_id=item.request_id
                        ),
                    )
                )
                self.shutdown_requested.set()
                continue
            pending.append((connection, None))
            to_serve.append(item)
            serve_slots.append(len(pending) - 1)
        if to_serve:
            responses = self.session.handle_batch(to_serve)
            for slot, response in zip(serve_slots, responses):
                pending[slot] = (pending[slot][0], response)
        for connection, response in pending:
            if response is _READER_DONE:
                self._forget(connection)
                continue
            connection.send(encode_response(response))
            self.requests_served += 1

    def _forget(self, connection: _Connection) -> None:
        """Close a connection nobody reads any more, everything it
        admitted having been answered, and drop it from the books."""
        connection.close()
        with self._connections_lock:
            self._connections.remove(connection)


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
