"""Serve a warm basis-store snapshot to concurrent clients.

The daemon (:class:`BasisServer`) opens one snapshot through the
zero-copy mmap loader, holds it warm, and admits concurrent client
requests into micro-batches routed through the columnar
``match_batch`` engine — every answer bitwise what an in-process
:class:`repro.api.Session` would return for the same request.  The
wire protocol is 4-byte-length-prefixed JSON with hex-encoded floats
(:mod:`repro.serve.protocol`); :class:`ServeClient` is the Python
client; :mod:`repro.serve.loadgen` generates deterministic request
streams and drives them over concurrent connections for the ``serve``
check and the parity suite.

Quickstart::

    # daemon (or: python -m repro serve --store snapshots/demand)
    from repro.serve import serve_snapshot
    server = serve_snapshot("snapshots/demand", port=7411)

    # client
    from repro.serve import ServeClient
    with ServeClient("127.0.0.1", 7411) as client:
        response = client.estimate((0.5, 1.0, 2.0))
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import BasisServer, serve_snapshot
from repro.serve.loadgen import (
    LoadResult,
    build_fixture_session,
    build_request_stream,
    expected_responses,
    run_concurrent,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    recv_frame,
    send_frame,
)

__all__ = [
    "BasisServer",
    "FrameDecoder",
    "LoadResult",
    "MAX_FRAME_BYTES",
    "ServeClient",
    "build_fixture_session",
    "build_request_stream",
    "encode_frame",
    "expected_responses",
    "recv_frame",
    "run_concurrent",
    "send_frame",
    "serve_snapshot",
]
