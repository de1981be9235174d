"""Hostile bytes on the wire: the frame decoder, then the daemon behind it.

The snapshot fuzz of ``test_prop_persist_roundtrip.py``, extended to the
socket.  Two families of properties:

* **The decoder is indifferent to how the stream was cut up.**  Any
  split of any concatenation of valid frames through
  :meth:`FrameDecoder.feed` yields exactly those bodies, in order; a
  truncated stream yields the frames it holds whole and is a
  :class:`ProtocolError` when it ends; a frame no peer should have sent
  — oversized announcement, bytes that are not UTF-8, text that is not
  JSON, JSON that is not an object — is a :class:`ProtocolError`, the
  oversized one from its four prefix bytes alone.
* **One hostile connection costs nobody else anything.**  Against a live
  :class:`BasisServer`, garbage bytes, well-framed requests with
  wrong-typed fields and mid-frame disconnects end in a typed
  ``ProtocolError`` answer or a dropped peer — while a bystander's
  serial stream stays bitwise the in-process answers and the daemon's
  books return to zero.

Derandomized: a failure here reproduces from the test name alone.
"""

import json
import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ErrorResponse, Session, decode_response
from repro.errors import ProtocolError
from repro.serve import (
    BasisServer,
    ServeClient,
    build_fixture_session,
    build_request_stream,
    expected_responses,
)
from repro.serve.protocol import MAX_FRAME_BYTES, FrameDecoder, encode_frame

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=8,
)
bodies = st.dictionaries(st.text(max_size=6), values, max_size=5)
streams = st.lists(bodies, min_size=1, max_size=6)


def _pieces(stream: bytes, cuts) -> list:
    """``stream`` cut at ``cuts`` (any integers: taken modulo its
    length, duplicates making empty pieces — a ``recv`` of nothing new
    is a split too)."""
    edges = sorted(cut % (len(stream) + 1) for cut in cuts)
    spans = zip([0] + edges, edges + [len(stream)])
    return [stream[low:high] for low, high in spans]


def _parses(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


class TestFrameDecoderFuzz:
    @given(stream=streams, cuts=st.lists(st.integers(0, 1 << 16), max_size=12))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_split_yields_exactly_the_frames_in_order(self, stream, cuts):
        wire = b"".join(encode_frame(body) for body in stream)
        decoder = FrameDecoder()
        got = []
        for piece in _pieces(wire, cuts):
            got += decoder.feed(piece)
        assert got == stream
        decoder.close()

    @given(stream=streams, cut=st.integers(0, 1 << 16))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_a_truncation_yields_the_whole_frames_then_refuses(
        self, stream, cut
    ):
        frames = [encode_frame(body) for body in stream]
        wire = b"".join(frames)
        cut %= len(wire)
        whole, end = 0, 0
        while end + len(frames[whole]) <= cut:
            end += len(frames[whole])
            whole += 1
        decoder = FrameDecoder()
        assert decoder.feed(wire[:cut]) == stream[:whole]
        if cut == end:
            decoder.close()
        else:
            with pytest.raises(ProtocolError, match="mid-frame"):
                decoder.close()

    @given(
        before=st.lists(bodies, max_size=3),
        announced=st.integers(MAX_FRAME_BYTES + 1, (1 << 32) - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_an_oversized_announcement_is_refused_from_its_prefix(
        self, before, announced
    ):
        decoder = FrameDecoder()
        for body in before:
            assert decoder.feed(encode_frame(body)) == [body]
        with pytest.raises(ProtocolError, match="over the"):
            decoder.feed(struct.pack(">I", announced))
        # Nothing was sized by the announcement: the decoder holds the
        # four bytes it was given.
        assert len(decoder._buffer) == 4

    @given(
        payload=st.one_of(
            # Not UTF-8: 0xff never occurs in it.
            st.binary(max_size=24).map(lambda raw: raw + b"\xff"),
            # UTF-8, but not JSON.
            st.text(max_size=24)
            .filter(lambda text: not _parses(text))
            .map(str.encode),
            # JSON, but not an object.
            values.filter(lambda value: not isinstance(value, dict)).map(
                lambda value: json.dumps(value).encode()
            ),
        ),
        before=st.lists(bodies, max_size=2),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_a_body_that_is_not_a_json_object_is_refused(
        self, payload, before
    ):
        decoder = FrameDecoder()
        for body in before:
            assert decoder.feed(encode_frame(body)) == [body]
        with pytest.raises(ProtocolError, match="UTF-8 JSON|JSON object"):
            decoder.feed(struct.pack(">I", len(payload)) + payload)


# -- against a live daemon ---------------------------------------------------

#: JSON values no request field accepts: not a string (a store name, a
#: hex float), not a number (an id, a bound), and — for a fingerprint —
#: not something that iterates into strings, which a dict's keys would.
wrong_list = st.lists(
    st.one_of(st.none(), st.lists(leaves, max_size=2)),
    min_size=1,
    max_size=3,
)
wrong = st.one_of(
    wrong_list, st.dictionaries(st.text(max_size=4), leaves, max_size=2)
)
wrong_typed_requests = st.one_of(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["match", "estimate"]),
            "fingerprint": wrong_list,
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("refine"),
            "basis_id": wrong,
            "samples": st.just([]),
        }
    ),
    st.fixed_dictionaries({"kind": st.just("evict"), "max_bases": wrong}),
    st.fixed_dictionaries({"kind": st.just("compact"), "store": wrong}),
    st.fixed_dictionaries({"kind": wrong}),
)
hostile_acts = st.one_of(
    st.tuples(st.just("garbage"), st.binary(min_size=1, max_size=48)),
    st.tuples(
        st.just("wrong-typed"),
        st.lists(wrong_typed_requests, min_size=1, max_size=4),
    ),
    st.tuples(
        st.just("mid-frame"),
        st.tuples(bodies, st.integers(1, 1 << 16)),
    ),
)

STREAM_LENGTH = 24


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("wire_fuzz") / "snap")
    build_fixture_session(bases=10, seed=99).save(path)
    return path


@pytest.fixture(scope="module")
def stream(snapshot):
    """A serial request stream and its in-process answers."""
    reference = Session.open(snapshot)
    requests = build_request_stream(reference, STREAM_LENGTH, seed=17)
    return requests, expected_responses(reference, requests)


def _commit(kind, payload) -> tuple:
    """(bytes one hostile act sends, typed refusals it must be answered
    with — ``None`` when all that is promised is a dropped peer)."""
    if kind == "wrong-typed":
        return b"".join(encode_frame(body) for body in payload), len(payload)
    if kind == "mid-frame":
        body, cut = payload
        frame = encode_frame(body)
        return frame[: 1 + cut % (len(frame) - 1)], 0
    return payload, None


def _aftermath(raw) -> list:
    """Everything the daemon says to a peer that has stopped talking,
    until it hangs up (a reset is a hang-up: the daemon closes a socket
    it refuses to read further)."""
    raw.shutdown(socket.SHUT_WR)
    decoder = FrameDecoder()
    said = []
    while True:
        try:
            data = raw.recv(4096)
        except ConnectionResetError:
            data = b""
        if not data:
            return said
        said += decoder.feed(data)


class TestHostilePeer:
    @given(acts=st.lists(hostile_acts, min_size=1, max_size=STREAM_LENGTH))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_a_hostile_connection_costs_a_bystander_nothing(
        self, snapshot, stream, acts
    ):
        requests, want = stream
        server = BasisServer(Session.open(snapshot)).start()
        try:
            with ServeClient(*server.address, timeout=10.0) as bystander:
                got = []
                for position, (kind, payload) in enumerate(acts):
                    sent, refusals = _commit(kind, payload)
                    with socket.create_connection(
                        server.address, timeout=10.0
                    ) as raw:
                        raw.sendall(sent)
                        got.append(bystander.request(requests[position]))
                        said = [decode_response(b) for b in _aftermath(raw)]
                    for answer in said:
                        assert isinstance(answer, ErrorResponse)
                        assert answer.code == "ProtocolError"
                    if refusals is not None:
                        assert len(said) == refusals
                got += [bystander.request(r) for r in requests[len(acts) :]]
            assert got == want
            deadline = time.monotonic() + 10.0
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(server._connections) == 0
        finally:
            server.stop()
