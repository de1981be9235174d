"""The wire framing: length-prefixed JSON, EOF discipline, frame caps."""

import socket
import struct
import threading

import pytest

from repro.errors import ProtocolError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    recv_frame,
    send_frame,
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        body = {"kind": "match", "fingerprint": ["0x1.8p+0"], "id": 3}
        send_frame(left, body)
        assert recv_frame(right) == body

    def test_many_frames_stay_in_order(self, pair):
        left, right = pair
        for index in range(50):
            send_frame(left, {"i": index})
        for index in range(50):
            assert recv_frame(right) == {"i": index}

    def test_empty_object(self, pair):
        left, right = pair
        send_frame(left, {})
        assert recv_frame(right) == {}

    def test_encode_is_prefix_plus_utf8_json(self):
        frame = encode_frame({"a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert frame[4:] == b'{"a":1}'


class TestEofDiscipline:
    def test_clean_eof_between_frames_is_none(self, pair):
        left, right = pair
        send_frame(left, {"x": 1})
        left.close()
        assert recv_frame(right) == {"x": 1}
        assert recv_frame(right) is None

    def test_eof_mid_prefix_is_protocol_error(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")  # half a length prefix
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(right)

    def test_eof_mid_body_is_protocol_error(self, pair):
        left, right = pair
        frame = encode_frame({"kind": "stats"})
        left.sendall(frame[:-3])
        left.close()
        with pytest.raises(ProtocolError):
            recv_frame(right)


class TestRefusals:
    def test_oversized_announcement_refused_before_allocation(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="over the"):
            recv_frame(right)

    def test_oversized_body_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 16)})

    def test_non_json_body_refused(self, pair):
        left, right = pair
        payload = b"\xff\xfe not json"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="not valid UTF-8 JSON"):
            recv_frame(right)

    def test_non_object_body_refused(self, pair):
        left, right = pair
        payload = b"[1,2,3]"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_frame(right)


class TestChunkedDelivery:
    def test_frame_split_across_many_sends(self, pair):
        """recv_frame reassembles however the kernel fragments it."""
        left, right = pair
        frame = encode_frame({"kind": "estimate", "fingerprint": []})
        received = {}

        def reader():
            received["body"] = recv_frame(right)

        thread = threading.Thread(target=reader)
        thread.start()
        for offset in range(0, len(frame), 3):
            left.sendall(frame[offset : offset + 3])
        thread.join(timeout=5)
        assert received["body"] == {"kind": "estimate", "fingerprint": []}


class TestFrameDecoder:
    """The same discipline with no socket: bytes in, bodies out."""

    def test_a_frame_dribbled_in_three_pieces(self):
        body = {"kind": "stats", "id": "slow"}
        frame = encode_frame(body)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:10]) == []
        assert decoder.feed(frame[10:20]) == []
        assert decoder.feed(frame[20:]) == [body]
        decoder.close()

    def test_one_feed_may_complete_many_frames_and_start_another(self):
        frames = [encode_frame({"i": index}) for index in range(3)]
        decoder = FrameDecoder()
        assert decoder.feed(frames[0] + frames[1] + frames[2][:5]) == [
            {"i": 0},
            {"i": 1},
        ]
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.close()
        assert decoder.feed(frames[2][5:]) == [{"i": 2}]
        decoder.close()

    def test_missing_is_what_the_frame_in_progress_still_needs(self):
        frame = encode_frame({"kind": "stats"})
        decoder = FrameDecoder()
        assert decoder.missing == 4
        decoder.feed(frame[:3])
        assert decoder.missing == 1
        decoder.feed(frame[3:6])
        assert decoder.missing == len(frame) - 6
        assert decoder.feed(frame[6:]) == [{"kind": "stats"}]
        assert decoder.missing == 4
