"""Deterministic load generation for the serving daemon.

Three pieces, kept separate so tests and CI can pin them
independently:

* :func:`build_fixture_session` — a seeded, self-contained basis store
  (no snapshot required) for fixtures and smoke benchmarks;
* :func:`build_request_stream` — a seeded request mix derived from a
  session's actual bases: estimate/match probes that are exact affine
  images of stored fingerprints (guaranteed warm hits), unrelated
  probes (misses), one refine per distinct basis, and periodic stats
  requests.  Same seed + same snapshot -> byte-identical stream;
* :func:`run_concurrent` — drives a stream over a fixed pool of
  pipelining connections, as fast as they will take it.  It keeps no
  schedule and reads no clock: what it returns is a function of the
  stream alone.  Latency and throughput under a seeded open-loop
  Poisson schedule are ``perfbench/``'s to measure (``python3
  perfbench/run.py --workload serve_mixed``).

Determinism contract (what the ``serve`` check diffs exactly): the
request mix, per-kind response counts, hit/miss counts, the summed
per-probe ``candidates_tested``, the warm-reuse fraction, and the
daemon's final ``StoreStats`` counters are functions of (snapshot,
seed, count) only — request *ordering* under concurrency cannot change
them, because probes are read-only against the store, refines target
distinct bases, and per-probe counters are order-independent (the
``match_batch`` parity invariant).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.messages import (
    EstimateRequest,
    EstimateResponse,
    MatchRequest,
    MatchResponse,
    RefineRequest,
    StatsRequest,
)
from repro.api.session import Session
from repro.core.basis import BasisStore
from repro.core.fingerprint import Fingerprint
from repro.errors import ServeError
from repro.serve.client import ServeClient


def build_fixture_session(
    bases: int = 12,
    fingerprint_size: int = 5,
    samples_per_basis: int = 48,
    seed: int = 20110611,
) -> Session:
    """A seeded single-store session for fixtures and smoke benches.

    Half the bases are independent random fingerprints, half are affine
    images of earlier ones (so the store has the same-shape structure
    real sweeps produce and probes can hit through non-identity
    mappings).  Fully deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    store = BasisStore()
    roots: List[Fingerprint] = []
    for index in range(bases):
        if roots and index % 2 == 1:
            root = roots[rng.integers(0, len(roots))]
            alpha = float(rng.uniform(1.25, 3.0))
            beta = float(rng.uniform(-2.0, 2.0))
            fingerprint = Fingerprint(
                tuple(alpha * v + beta for v in root.values)
            )
        else:
            fingerprint = Fingerprint(
                tuple(
                    float(v)
                    for v in rng.uniform(-4.0, 4.0, fingerprint_size)
                )
            )
            roots.append(fingerprint)
        samples = rng.normal(
            loc=float(fingerprint.values[0]),
            scale=1.0 + 0.1 * index,
            size=samples_per_basis,
        )
        store.add(fingerprint, samples)
    return Session(store)


def build_request_stream(
    session: Session,
    count: int,
    seed: int = 0,
    hit_fraction: float = 0.7,
    match_fraction: float = 0.25,
    refine_count: Optional[int] = None,
    stats_every: int = 64,
) -> List[object]:
    """A seeded request mix against ``session``'s actual bases.

    ``hit_fraction`` of probes are exact affine images of stored
    fingerprints (guaranteed matches under the default linear family);
    the rest are unrelated vectors (expected misses).
    ``match_fraction`` of probes ask for :class:`MatchRequest` (id +
    mapping only), the rest for the full :class:`EstimateRequest`.  One
    :class:`RefineRequest` per *distinct* basis (at most
    ``refine_count``, default bases//2) is interleaved — distinct
    targets keep the final store state independent of completion order.
    Every ``stats_every`` requests a :class:`StatsRequest` rides along.
    ``request_id`` is the stream position, so pipelined responses
    correlate.
    """
    stores = session.stores
    if not stores:
        raise ServeError("session has no stores to build a stream for")
    rng = np.random.default_rng(seed)
    per_store_bases: Dict[str, list] = {
        name: list(store.bases) for name, store in sorted(stores.items())
    }
    store_names = [
        name for name, bases in per_store_bases.items() if bases
    ]
    if not store_names:
        raise ServeError(
            "session stores are empty; a request stream needs bases "
            "to probe against"
        )
    refine_targets: List[Tuple[str, int]] = [
        (name, basis.basis_id)
        for name in store_names
        for basis in per_store_bases[name]
    ]
    if refine_count is None:
        refine_count = max(1, len(refine_targets) // 2)
    refine_targets = refine_targets[:refine_count]
    refine_positions = set(
        int(p)
        for p in rng.choice(
            max(count, 1),
            size=min(len(refine_targets), count),
            replace=False,
        )
    )

    requests: List[object] = []
    refine_cursor = 0
    for position in range(count):
        request_id = len(requests)
        if position in refine_positions:
            store_name, basis_id = refine_targets[refine_cursor]
            refine_cursor += 1
            samples = rng.normal(size=8)
            requests.append(
                RefineRequest(
                    basis_id=basis_id,
                    samples=tuple(float(v) for v in samples),
                    store=store_name,
                    request_id=request_id,
                )
            )
            continue
        store_name = store_names[rng.integers(0, len(store_names))]
        bases = per_store_bases[store_name]
        base = bases[rng.integers(0, len(bases))]
        if rng.random() < hit_fraction:
            alpha = float(rng.uniform(0.5, 4.0))
            beta = float(rng.uniform(-3.0, 3.0))
            values = tuple(
                alpha * v + beta for v in base.fingerprint.values
            )
        else:
            values = tuple(
                float(v)
                for v in rng.uniform(-50.0, 50.0, base.fingerprint.size)
            )
        if rng.random() < match_fraction:
            requests.append(
                MatchRequest(
                    fingerprint=values,
                    store=store_name,
                    request_id=request_id,
                )
            )
        else:
            requests.append(
                EstimateRequest(
                    fingerprint=values,
                    store=store_name,
                    request_id=request_id,
                )
            )
        if stats_every and (position + 1) % stats_every == 0:
            requests.append(StatsRequest(request_id=len(requests)))
    return requests


@dataclass
class LoadResult:
    """One concurrent run's responses, in stream order."""

    responses: List[object]

    def deterministic_counters(self) -> Dict[str, int]:
        """The exactly-reproducible counters (see module docstring)."""
        by_kind: Dict[str, int] = {}
        hits = misses = 0
        candidates_tested = 0
        for response in self.responses:
            by_kind[response.kind] = by_kind.get(response.kind, 0) + 1
            if isinstance(response, (MatchResponse, EstimateResponse)):
                if response.matched:
                    hits += 1
                else:
                    misses += 1
                candidates_tested += response.candidates_tested
        errors = by_kind.get("error", 0)
        counters = {
            "requests": len(self.responses),
            "hits": hits,
            "misses": misses,
            "candidates_tested": candidates_tested,
            "errors": errors,
        }
        for kind in sorted(by_kind):
            counters[f"kind_{kind}"] = by_kind[kind]
        return counters

    def warm_reuse_fraction(self) -> float:
        """Hits over probes (0.0 for a stream without probes)."""
        counters = self.deterministic_counters()
        probes = counters["hits"] + counters["misses"]
        return counters["hits"] / probes if probes else 0.0


def run_concurrent(
    host: str,
    port: int,
    requests: Sequence[object],
    concurrency: int = 4,
    timeout: float = 60.0,
) -> LoadResult:
    """Drive the daemon over ``concurrency`` pipelining connections.

    Requests round-robin over the connections (stream position ``p``
    goes out on connection ``p % concurrency``), so every per-connection
    stream is deterministic.  Each connection is a sender paired with a
    receiver thread: the sender writes its slice back to back while the
    receiver collects the responses (they come back in send order on one
    connection), so a slice longer than the socket buffers cannot
    deadlock the two ends.  The first failure on any connection is
    raised as :class:`ServeError`, as is a request left unanswered.
    """
    if concurrency < 1:
        raise ServeError("concurrency must be at least 1")
    responses: List[Optional[object]] = [None] * len(requests)
    failures: List[Exception] = []

    def receive(client: ServeClient, sent: "queue.Queue") -> None:
        try:
            for position in iter(sent.get, None):
                responses[position] = client.recv()
        except Exception as error:  # surfaced to the caller below
            failures.append(error)

    def connection(index: int) -> None:
        sent: "queue.Queue[Optional[int]]" = queue.Queue()
        try:
            with ServeClient(host, port, timeout=timeout) as client:
                receiver = threading.Thread(
                    target=receive,
                    args=(client, sent),
                    name=f"loadgen-recv-{index}",
                )
                receiver.start()
                try:
                    for position in range(index, len(requests), concurrency):
                        client.send(requests[position])
                        sent.put(position)
                finally:
                    sent.put(None)
                    receiver.join()
        except Exception as error:  # surfaced to the caller below
            failures.append(error)

    threads = [
        threading.Thread(
            target=connection, args=(index,), name=f"loadgen-{index}"
        )
        for index in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise ServeError(
            f"load generation failed: {failures[0]!r}"
        ) from failures[0]
    missing = [p for p, r in enumerate(responses) if r is None]
    if missing:
        raise ServeError(
            f"{len(missing)} requests went unanswered "
            f"(first: {missing[0]})"
        )
    return LoadResult(responses)


def expected_responses(
    session: Session, requests: Sequence[object]
) -> List[object]:
    """The in-process ground truth for a request stream.

    Serves the stream sequentially through ``session.handle`` — the
    reference a *serial* wire stream must equal bitwise (used by the
    parity suite and the smoke gate's hit/miss accounting).  Under
    concurrent connections the ``metrics`` of an estimate on a basis
    that another connection refines may be the pre- or the post-refine
    value; every gated counter is independent of that.
    """
    return [session.handle(request) for request in requests]
