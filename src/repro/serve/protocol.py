"""Length-prefixed JSON framing for the serving daemon's socket protocol.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object.  Requests and responses are the
:mod:`repro.api.messages` dicts — every float crosses as ``float.hex()``
(the snapshot manifest convention), so answers survive the wire
bitwise.  The framing is deliberately boring: any language can speak it
with a dozen lines, and a stuck peer can never desynchronize the stream
(the length is read before the body, oversized frames are refused
before allocation).  Reading is incremental — :class:`FrameDecoder`
takes the stream in whatever pieces it arrives — so the daemon never
waits on a socket for the rest of a frame.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import List, Optional

from repro.errors import ProtocolError

#: Refuse frames larger than this before reading the body — a corrupt or
#: hostile length prefix must not become an allocation.  64 MiB is far
#: beyond any legitimate request (a million-sample refine is ~24 MiB of
#: hex floats).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def encode_frame(body: dict) -> bytes:
    """One framed message as bytes (length prefix + UTF-8 JSON)."""
    payload = json.dumps(
        body, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, body: dict) -> None:
    """Write one framed message to a connected socket."""
    sock.sendall(encode_frame(body))


class FrameDecoder:
    """Frames out of a byte stream, however the stream was cut up.

    The one place a frame is parsed: the daemon's loop feeds it whatever
    one ``recv`` returned, :func:`recv_frame` feeds it exactly the bytes
    the frame in progress still :attr:`missing`.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Bytes until the frame in progress can be complete.
        self.missing = _LENGTH.size

    def feed(self, data: bytes) -> List[dict]:
        """Take the next bytes of the stream; return, in order, the
        bodies of the frames they complete.

        Raises :class:`ProtocolError` at the first frame no peer should
        have sent — an oversized announcement as soon as its prefix is
        in, before any of the body is — after which the stream cannot be
        resynchronized and the decoder is done for.
        """
        buffer = self._buffer
        buffer += data
        bodies: List[dict] = []
        start = 0
        while True:
            end = start + _LENGTH.size
            if len(buffer) >= end:
                (length,) = _LENGTH.unpack_from(buffer, start)
                if length > MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"peer announced a {length}-byte frame, over the "
                        f"{MAX_FRAME_BYTES}-byte limit"
                    )
                end += length
            if len(buffer) < end:
                self.missing = end - len(buffer)
                break
            try:
                body = json.loads(
                    buffer[start + _LENGTH.size : end].decode("utf-8")
                )
            except (UnicodeDecodeError, ValueError) as error:
                raise ProtocolError(
                    f"frame body is not valid UTF-8 JSON "
                    f"({type(error).__name__}: {error})"
                ) from error
            if not isinstance(body, dict):
                raise ProtocolError(
                    f"frame body must be a JSON object, got "
                    f"{type(body).__name__}"
                )
            bodies.append(body)
            start = end
        del buffer[:start]
        return bodies

    def close(self) -> None:
        """The stream has ended: :class:`ProtocolError` if mid-frame."""
        if self._buffer:
            raise ProtocolError(
                f"connection closed mid-frame ({len(self._buffer)} of "
                f"{len(self._buffer) + self.missing} bytes read)"
            )


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one framed message; None on clean EOF between frames."""
    decoder = FrameDecoder()
    while True:
        chunk = sock.recv(decoder.missing)
        if not chunk:
            decoder.close()
            return None
        bodies = decoder.feed(chunk)
        if bodies:
            return bodies[0]
