"""Unified session API: typed requests over basis-store reuse state.

:class:`Session` is the single warm-start and query surface for the
library's precomputed reuse state (a Session goes wherever an explorer
or the interactive session takes ``basis_store=``;
``ScenarioRunner.save_stores`` / ``load_stores`` and the CLI's
``--store``/``--save-store`` delegate here).  The same
typed request/response dataclasses drive the in-process facade and the
:mod:`repro.serve` daemon, with bitwise-identical answers.

Quickstart::

    from repro.api import EstimateRequest, Session

    session = Session.open("snapshots/demand")       # zero-copy mmap
    response = session.estimate(
        EstimateRequest(fingerprint=probe_values)
    )
    if response.matched:
        print(response.metrics.expectation)
    session.save("snapshots/demand")                 # atomic
"""

from repro.api.messages import (
    DEFAULT_STORE,
    CompactRequest,
    CompactResponse,
    ErrorResponse,
    EstimateRequest,
    EstimateResponse,
    EvictRequest,
    EvictResponse,
    MatchRequest,
    MatchResponse,
    RefineRequest,
    RefineResponse,
    Request,
    Response,
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.api.session import Session

__all__ = [
    "DEFAULT_STORE",
    "CompactRequest",
    "CompactResponse",
    "ErrorResponse",
    "EstimateRequest",
    "EstimateResponse",
    "EvictRequest",
    "EvictResponse",
    "MatchRequest",
    "MatchResponse",
    "RefineRequest",
    "RefineResponse",
    "Request",
    "Response",
    "Session",
    "ShutdownRequest",
    "ShutdownResponse",
    "StatsRequest",
    "StatsResponse",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
]
