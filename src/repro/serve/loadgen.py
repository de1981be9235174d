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
* :func:`run_open_loop` — an open-loop driver: arrivals follow a seeded
  Poisson process at a target rate *independent of completions* (the
  honest way to measure a server — a closed loop would slow arrivals
  down exactly when the server struggles), dispatched over a fixed pool
  of pipelining connections.  Latency for a request counts from its
  *scheduled* arrival, so queueing delay under overload is visible.

Determinism contract (what the CI smoke gate diffs exactly): the
request mix, per-kind response counts, hit/miss counts, the summed
per-probe ``candidates_tested``, the warm-reuse fraction, and the
daemon's final ``StoreStats`` counters are functions of (snapshot,
seed, count) only — request *ordering* under concurrency cannot change
them, because probes are read-only against the store, refines target
distinct bases, and per-probe counters are order-independent (the
``match_batch`` parity invariant).  Latency and throughput are
host-dependent and reported informationally (the keys listed in
``repro.bench.checks.SERVE_INFORMATIONAL``).
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
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
    """One open-loop run: responses plus timing, split by determinism."""

    responses: List[object]
    #: Seconds from *scheduled* arrival to response, per request.
    latencies: List[float]
    elapsed_seconds: float
    rate: float
    concurrency: int

    def deterministic_counters(self) -> Dict[str, int]:
        """The exactly-reproducible half (see module docstring)."""
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
        probes = sum(
            1
            for r in self.responses
            if isinstance(r, (MatchResponse, EstimateResponse))
        )
        if probes == 0:
            return 0.0
        hits = sum(
            1
            for r in self.responses
            if isinstance(r, (MatchResponse, EstimateResponse))
            and r.matched
        )
        return hits / probes

    def summarize(self) -> dict:
        """Bench document fragment: deterministic counters + timing."""
        return {
            "rate": self.rate,
            "concurrency": self.concurrency,
            "counters": self.deterministic_counters(),
            "warm_reuse_fraction": self.warm_reuse_fraction(),
            # Host-dependent; informational only (never exact-gated).
            "seconds": self.elapsed_seconds,
            "throughput_rps": (
                len(self.responses) / self.elapsed_seconds
                if self.elapsed_seconds > 0
                else 0.0
            ),
            "latency_p50_ms": _percentile_ms(self.latencies, 50.0),
            "latency_p99_ms": _percentile_ms(self.latencies, 99.0),
        }


def _percentile_ms(latencies: Sequence[float], pct: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = int(np.ceil(pct / 100.0 * len(ordered))) - 1
    return ordered[max(0, min(rank, len(ordered) - 1))] * 1000.0


@dataclass
class _Slot:
    """Bookkeeping for one in-flight request on one connection."""

    position: int
    scheduled: float


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[object],
    rate: float = 500.0,
    concurrency: int = 4,
    seed: int = 0,
    timeout: float = 60.0,
) -> LoadResult:
    """Drive the daemon with open-loop Poisson arrivals.

    ``rate`` is the target arrival rate (requests/second); interarrival
    gaps are seeded exponentials, so the schedule is reproducible even
    though actual wall clocks are not.  Arrivals round-robin over
    ``concurrency`` pipelining connections: each worker sends its
    request at the scheduled instant (or as soon as it can — falling
    behind *is* the overload signal) and a paired receiver loop collects
    in-order responses.  Latency is measured from the scheduled arrival,
    so queueing shows up in p99 instead of silently stretching the run.
    """
    if concurrency < 1:
        raise ServeError("concurrency must be at least 1")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=len(requests))
    arrivals = np.cumsum(gaps)
    # Round-robin assignment keeps per-connection streams deterministic.
    assignments: List[List[Tuple[int, float]]] = [
        [] for _ in range(concurrency)
    ]
    for position, arrival in enumerate(arrivals):
        assignments[position % concurrency].append(
            (position, float(arrival))
        )

    responses: List[Optional[object]] = [None] * len(requests)
    latencies: List[Optional[float]] = [None] * len(requests)
    failures: List[BaseException] = []
    start_barrier = threading.Barrier(concurrency + 1)

    def worker(worker_index: int) -> None:
        plan = assignments[worker_index]
        if not plan:
            start_barrier.wait()
            return
        client = ServeClient(host, port, timeout=timeout)
        try:
            client.connect()
        except BaseException as error:
            failures.append(error)
            try:
                start_barrier.abort()
            except threading.BrokenBarrierError:
                pass
            return
        # The sender keeps the arrival clock; a paired receiver records
        # each completion the moment it arrives (responses come back in
        # send order on one connection), so latency is response time,
        # not when the sender got around to reading.
        in_flight: "queue_module.Queue[Optional[_Slot]]" = (
            queue_module.Queue()
        )

        def receive() -> None:
            try:
                while True:
                    slot = in_flight.get()
                    if slot is None:
                        return
                    responses[slot.position] = client.recv()
                    latencies[slot.position] = max(
                        0.0,
                        time.perf_counter() - t_zero - slot.scheduled,
                    )
            except BaseException as error:
                failures.append(error)

        receiver = threading.Thread(
            target=receive, name=f"loadgen-recv-{worker_index}"
        )
        try:
            start_barrier.wait()
            receiver.start()
            for position, scheduled in plan:
                delay = t_zero + scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                client.send(requests[position])
                in_flight.put(
                    _Slot(position=position, scheduled=scheduled)
                )
        except BaseException as error:  # surfaced to the caller below
            failures.append(error)
            try:
                start_barrier.abort()
            except threading.BrokenBarrierError:
                pass
        finally:
            in_flight.put(None)
            if receiver.is_alive() or receiver.ident is not None:
                receiver.join()
            client.close()

    threads = [
        threading.Thread(
            target=worker, args=(index,), name=f"loadgen-{index}"
        )
        for index in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    t_zero = time.perf_counter() + 0.05
    try:
        start_barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t_zero
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
    return LoadResult(
        responses=list(responses),
        latencies=[lat for lat in latencies if lat is not None],
        elapsed_seconds=elapsed,
        rate=rate,
        concurrency=concurrency,
    )


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
