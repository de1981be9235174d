"""The serving daemon end to end: parity, batching, drain, signals.

The acceptance contract of the serve tentpole:

* **Parity** — a serial client stream against the daemon returns
  *bitwise* the responses an in-process ``Session.open`` on the same
  snapshot returns for the same requests (mappings, metrics, per-probe
  counters, mid-stream stats included);
* **Concurrency** — under concurrent clients, every probe/refine
  response is still bitwise the in-process answer, and the final
  deterministic counters equal the serial run's.  Two things
  legitimately depend on interleaving and are checked for what *is*
  invariant: mid-stream stats snapshots (exempt; final counters are
  compared instead), and the ``metrics`` of an estimate that hits a
  basis the stream also refines from another connection (every other
  field bitwise; ``metrics`` equal to the pre- or the post-refine
  value);
* **Drain** — requests admitted before shutdown are all answered;
  SIGTERM exits 0 and flushes ``--save-store`` atomically; Ctrl-C
  (SIGINT) exits 130, preserving the CLI interrupt contract.
"""

import dataclasses
import json
import os
import selectors
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.api import (
    ErrorResponse,
    EstimateRequest,
    EstimateResponse,
    MatchRequest,
    RefineRequest,
    Session,
    ShutdownRequest,
    StatsRequest,
    decode_response,
    encode_request,
    encode_response,
)
from repro.errors import ServeError
from repro.serve import (
    BasisServer,
    ServeClient,
    build_fixture_session,
    build_request_stream,
    daemon,
    encode_frame,
    expected_responses,
    recv_frame,
    run_concurrent,
)

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


@pytest.fixture
def snapshot(tmp_path):
    path = str(tmp_path / "snap")
    build_fixture_session(bases=10, seed=99).save(path)
    return path


@pytest.fixture
def server(snapshot):
    instance = BasisServer(Session.open(snapshot)).start()
    yield instance
    instance.stop()


class TestSerialParity:
    """The acceptance parity test: wire answers == in-process answers."""

    def test_serial_stream_is_bitwise_in_process(self, snapshot, server):
        reference = Session.open(snapshot)
        requests = build_request_stream(reference, 150, seed=5)
        want = expected_responses(reference, requests)
        host, port = server.address
        with ServeClient(host, port) as client:
            got = [client.request(request) for request in requests]
        # Dataclass equality is field-by-field; floats crossed the wire
        # as hex, so == here is bitwise for every mapping parameter,
        # metric, and counter — mid-stream stats included (serial
        # stream, so the counter sequence is the in-process one).
        assert got == want

    def test_convenience_methods_match_session(self, snapshot, server):
        reference = Session.open(snapshot)
        base = reference.store().bases[0]
        probe = tuple(2.0 * v + 1.0 for v in base.fingerprint.values)
        host, port = server.address
        with ServeClient(host, port) as client:
            wire = client.estimate(probe)
        in_process = reference.estimate(
            EstimateRequest(fingerprint=probe)
        )
        assert wire.basis_id == in_process.basis_id
        assert wire.mapping == in_process.mapping
        assert wire.metrics == in_process.metrics


class TestConcurrentParity:
    def test_concurrent_probes_are_bitwise_with_equal_counters(
        self, snapshot, server
    ):
        reference = Session.open(snapshot)
        requests = build_request_stream(reference, 300, seed=11)
        want = expected_responses(Session.open(snapshot), requests)
        host, port = server.address
        result = run_concurrent(host, port, requests, concurrency=4)
        by_id = {
            response.request_id: response
            for response in result.responses
            if response.request_id is not None
        }
        stats_positions = {
            request.request_id
            for request in requests
            if isinstance(request, StatsRequest)
        }
        # The stream refines some bases while estimates on other
        # connections hit those same bases: which side of the refine the
        # daemon saw such an estimate on decides its metrics (sample
        # count included).  Each basis is refined at most once, so there
        # are exactly two legitimate values — never-refined and
        # every-refine-applied sessions supply them.
        refines = [r for r in requests if isinstance(r, RefineRequest)]
        refined = {(r.store, r.basis_id) for r in refines}
        assert refined, "the stream must keep its refines"
        before, after = Session.open(snapshot), Session.open(snapshot)
        for refine in refines:
            after.handle(refine)
        raced = 0
        for request, expected in zip(requests, want):
            if expected.request_id in stats_positions:
                continue  # point-in-time snapshots; checked at the end
            got = by_id[expected.request_id]
            if (
                isinstance(expected, EstimateResponse)
                and (expected.store, expected.basis_id) in refined
            ):
                raced += 1
                assert dataclasses.replace(
                    got, metrics=None
                ) == dataclasses.replace(expected, metrics=None)
                assert got.metrics in (
                    before.handle(request).metrics,
                    after.handle(request).metrics,
                )
            else:
                assert got == expected
        assert raced, "no estimate raced a refine: the case is untested"
        # Final counters: ask the daemon after the run completes.
        with ServeClient(host, port) as client:
            final = client.stats()
        serial = Session.open(snapshot)
        for request in requests:
            serial.handle(request)
        assert final.counters == serial.stats().counters
        assert final.bases == serial.stats().bases

    def test_a_failed_connection_surfaces_as_serve_error(self, snapshot):
        gone = BasisServer(Session.open(snapshot)).start()
        host, port = gone.address
        gone.stop()
        requests = build_request_stream(Session.open(snapshot), 8, seed=1)
        with pytest.raises(ServeError, match="load generation failed"):
            run_concurrent(host, port, requests, concurrency=2, timeout=5.0)

    def test_errors_do_not_poison_the_stream(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            bad = client.request(
                MatchRequest(fingerprint=(1.0,), store="nope")
            )
            assert isinstance(bad, ErrorResponse)
            assert bad.code == "ApiError"
            # The connection keeps serving after an error response.
            follow_up = client.stats()
            assert follow_up.bases == {"default": 10}


class TestDrain:
    def test_shutdown_request_drains_and_answers_everything(
        self, snapshot
    ):
        server = BasisServer(Session.open(snapshot)).start()
        host, port = server.address
        reference = Session.open(snapshot)
        requests = build_request_stream(reference, 40, seed=3)
        with ServeClient(host, port) as client:
            for request in requests:
                client.send(request)
            # Pipelined behind everything else; answered in order, so
            # every admitted request is served before the ack arrives.
            client.send(ShutdownRequest(request_id=999))
            responses = [client.recv() for _ in range(len(requests) + 1)]
        ack = responses[-1]
        assert ack.kind == "shutdown"
        assert ack.request_id == 999
        server.shutdown_requested.wait(timeout=10)
        server.stop()
        assert server.requests_served == len(requests) + 1

    def test_stop_without_drain_still_saves(self, snapshot, tmp_path):
        out = str(tmp_path / "flushed")
        server = BasisServer(
            Session.open(snapshot), save_path=out
        ).start()
        server.stop(drain=False)
        assert Session.open(out).basis_count() == 10


def _books(server):
    """What one client may cost the daemon only while it lasts: its
    connection and its selector registration.  Counted on the server,
    not over the process's fds, which the rest of the test run opens and
    closes too; the daemon unregisters a socket before closing it."""
    return len(server._connections), len(server._selector.get_map())


def _idle_books(server, timeout=10.0):
    """``_books`` once no connection is left: the loop closes and
    forgets a connection a moment after its client hung up."""
    deadline = time.monotonic() + timeout
    while _books(server)[0] and time.monotonic() < deadline:
        time.sleep(0.02)
    return _books(server)


class TestConnectionLifetime:
    """A connection is closed and forgotten once its peer has finished
    and it is owed nothing — not at ``stop()``."""

    @pytest.fixture
    def idle(self, server):
        """The books after a first client has come and gone."""
        with ServeClient(*server.address) as client:
            client.stats()
        books = _idle_books(server)
        assert books[0] == 0
        return books

    def test_connect_close_cycles_leave_the_books_flat(self, server, idle):
        for _ in range(25):
            with ServeClient(*server.address) as client:
                assert client.stats().bases == {"default": 10}
        assert _idle_books(server) == idle
        assert server.requests_served == 26

    def test_a_framing_error_drops_the_peer_for_good(self, server, idle):
        with socket.create_connection(server.address) as raw:
            raw.sendall(b"\xff\xff\xff\xff not a frame")
            assert _idle_books(server)[0] == 0
        assert _idle_books(server) == idle

    def test_malformed_requests_are_answered_and_cost_nobody(
        self, server, idle
    ):
        """Well-framed requests ``decode_request`` must refuse — numbers
        ``int()`` cannot take (``1e400`` is hand-framed: ``json.dumps``
        never emits it) and a ``store`` that is not a name — each get a
        typed ``ProtocolError`` answer in order, and the one loop
        everyone shares does not go down with them."""
        hostile = [
            b'{"kind":"refine","basis_id":1e400,"samples":[],"id":"huge"}',
            b'{"kind":"evict","max_bases":Infinity,"id":"inf"}',
            b'{"kind":"match","fingerprint":[],"store":["x"],"id":"list"}',
            b'{"kind":"compact","store":{"a":1},"id":"dict"}',
        ]
        with ServeClient(*server.address, timeout=10.0) as client:
            with ServeClient(*server.address, timeout=10.0) as bystander:
                sent = []
                for number, payload in enumerate(hostile):
                    client.send(StatsRequest(request_id=number))
                    client._sock.sendall(
                        struct.pack(">I", len(payload)) + payload
                    )
                    sent += [number, json.loads(payload)["id"]]
                    assert bystander.stats().bases == {"default": 10}
                client.send(StatsRequest(request_id="last"))
                sent.append("last")
                got = [client.recv() for _ in sent]
        assert [response.request_id for response in got] == sent
        refused = {json.loads(payload)["id"] for payload in hostile}
        for response in got:
            if response.request_id in refused:
                assert isinstance(response, ErrorResponse)
                assert response.code == "ProtocolError"
            else:
                assert response.bases == {"default": 10}
        assert _idle_books(server) == idle

    def test_half_closed_pipeline_still_gets_every_answer(
        self, snapshot, server, idle
    ):
        """Pipeline k requests, ``shutdown(SHUT_WR)``, keep reading: the
        reader sees EOF at once, the k answers must still arrive — in
        order — before the daemon hangs up."""
        reference = Session.open(snapshot)
        requests = build_request_stream(reference, 40, seed=8)
        want = expected_responses(reference, requests)
        with ServeClient(*server.address) as client:
            for request in requests:
                client.send(request)
            client._sock.shutdown(socket.SHUT_WR)
            got = [client.recv() for _ in requests]
            with pytest.raises(ServeError, match="closed the connection"):
                client.recv()
        assert got == want
        assert server.requests_served == len(requests) + 1
        assert _idle_books(server)[0] == 0


def _stats_frame(request_id):
    return encode_frame(encode_request(StatsRequest(request_id=request_id)))


def _most_owed(server):
    """The longest unsent buffer, as a bystander thread may read it."""
    return max(len(c.unsent) for c in list(server._connections))


class TestSlowPeers:
    """A peer slow to send or slow to read loses no answer and holds up
    nobody else."""

    def test_a_dribbled_frame_is_answered_and_holds_up_nobody(self, server):
        frame = _stats_frame("slow")
        with socket.create_connection(
            server.address, timeout=10.0
        ) as raw, ServeClient(*server.address, timeout=10.0) as bystander:
            for piece in (frame[:10], frame[10:20], frame[20:]):
                raw.sendall(piece)
                time.sleep(0.15)
                assert bystander.stats().bases == {"default": 10}
            answer = decode_response(recv_frame(raw))
        assert answer.request_id == "slow"
        assert answer.bases == {"default": 10}

    def test_a_late_reader_gets_every_answer_and_is_not_read_meanwhile(
        self, server
    ):
        """Pipeline far more than the socket buffers hold and start
        reading late: past :data:`daemon.MAX_UNSENT_BYTES` owed the
        daemon stops reading this peer — its memory stays bounded, the
        rest of the requests wait in the kernel's buffers and in the
        client's ``sendall`` — and every answer arrives, in order."""
        count = 30_000
        frames = [_stats_frame(number) for number in range(count)]
        with ServeClient(*server.address) as client:
            answer = client.request(StatsRequest(request_id=count))
            reply = len(encode_frame(encode_response(answer)))
        assert count * reply > 4 * daemon.MAX_UNSENT_BYTES
        # Owed when reading stopped, plus the answers to one last recv.
        bound = daemon.MAX_UNSENT_BYTES + reply * (
            daemon._RECV_BYTES // len(frames[0]) + 1
        )
        peak, paused = 0, False
        raw = socket.socket()
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        raw.settimeout(10.0)
        raw.connect(server.address)
        sender = threading.Thread(
            target=raw.sendall, args=(b"".join(frames),), daemon=True
        )
        with raw, ServeClient(*server.address, timeout=10.0) as bystander:
            sender.start()
            # Read no earlier than a second in, and no earlier than the
            # daemon stops reading this peer (which a busy host can delay
            # past the second), up to a deadline.
            late, deadline = time.monotonic() + 1.0, time.monotonic() + 10.0
            while time.monotonic() < late or (
                not paused and time.monotonic() < deadline
            ):
                assert bystander.stats().bases == {"default": 10}
                peak = max(peak, _most_owed(server))
                paused |= any(
                    not connection.events & selectors.EVENT_READ
                    for connection in list(server._connections)
                )
                time.sleep(0.01)
            for number in range(count):
                assert recv_frame(raw)["id"] == number
                if number % 100 == 0:
                    peak = max(peak, _most_owed(server))
            sender.join(timeout=10.0)
            assert not sender.is_alive()
        assert paused, "the peer was never owed enough to stop reading it"
        assert daemon.MAX_UNSENT_BYTES < peak <= bound
        assert _idle_books(server)[0] == 0


class TestOneLoop:
    """The daemon is one thread however many clients it has, and goes
    away whole."""

    def test_thread_count_does_not_depend_on_the_clients(self, server):
        census = {0: threading.active_count()}
        clients = []
        try:
            for count in (1, 8, 32):
                while len(clients) < count:
                    clients.append(ServeClient(*server.address).connect())
                for client in clients:
                    assert client.stats().bases == {"default": 10}
                assert len(server._connections) == count
                census[count] = threading.active_count()
        finally:
            for client in clients:
                client.close()
        assert len(set(census.values())) == 1, census
        assert [t.name for t in threading.enumerate()].count(
            "serve-loop"
        ) == 1

    def test_stop_with_an_idle_client_is_prompt(self, snapshot):
        server = BasisServer(Session.open(snapshot)).start()
        with ServeClient(*server.address) as client:
            assert client.stats().bases == {"default": 10}
            began = time.monotonic()
            server.stop()
            assert time.monotonic() - began < 0.05
            with pytest.raises(ServeError, match="closed the connection"):
                client.recv()

    def test_hang_ups_racing_stop_leave_nothing_behind(
        self, snapshot, monkeypatch
    ):
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        session = Session.open(snapshot)
        BasisServer(session).start().stop()  # first-use imports and caches
        before = threading.active_count(), len(os.listdir("/proc/self/fd"))
        for cycle in range(200):
            server = BasisServer(session).start()
            raw = socket.create_connection(server.address)
            raw.sendall(_stats_frame(cycle)[: cycle % 40])
            closer = threading.Thread(target=raw.close)
            closer.start()
            server.stop(drain=cycle % 2 == 0)
            closer.join(timeout=10.0)
            assert not server._connections
        assert not crashes, crashes[0]
        after = threading.active_count(), len(os.listdir("/proc/self/fd"))
        assert after == before


def _boot_daemon(snapshot, tmp_path, extra_args=()):
    """Start ``python -m repro serve`` and parse its SERVE_READY line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--store",
            snapshot,
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("SERVE_READY "), (
        line,
        process.stderr.read() if process.poll() is not None else "",
    )
    fields = dict(
        part.split("=", 1) for part in line.split()[1:]
    )
    return process, fields["host"], int(fields["port"]), fields


class TestSignals:
    def test_sigterm_drains_flushes_and_exits_0(self, snapshot, tmp_path):
        out = str(tmp_path / "flushed")
        process, host, port, _ = _boot_daemon(
            snapshot, tmp_path, ("--save-store", out)
        )
        try:
            reference = Session.open(snapshot)
            requests = build_request_stream(reference, 30, seed=21)
            with ServeClient(host, port) as client:
                for request in requests:
                    client.send(request)
                process.send_signal(signal.SIGTERM)
                # Everything already sent must still be answered.
                responses = [client.recv() for _ in requests]
            assert len(responses) == len(requests)
            code = process.wait(timeout=30)
            assert code == 0
            # The drain flushed the (refined) stores atomically.
            flushed = Session.open(out)
            assert flushed.basis_count() == 10
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_sigint_exits_130(self, snapshot, tmp_path):
        process, host, port, _ = _boot_daemon(snapshot, tmp_path)
        try:
            with ServeClient(host, port) as client:
                assert client.stats().bases == {"default": 10}
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 130
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_ready_line_reports_basis_count(self, snapshot, tmp_path):
        process, host, port, fields = _boot_daemon(snapshot, tmp_path)
        try:
            assert fields["bases"] == "10"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
