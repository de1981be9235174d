"""The unified session facade over basis-store reuse state.

Before this module the library had four divergent warm-start entry
points, each calling :mod:`repro.core.persist` with its own
conventions.  :class:`Session` is the one surface behind what remains
of them — ``basis_store=`` on the explorers and the interactive session,
``ScenarioRunner.save_stores``/``load_stores`` and the CLI's
``--store``/``--save-store``:

* it owns a named collection of :class:`~repro.core.basis.BasisStore`
  instances plus the seed bank they were fingerprinted under,
* it opens and saves snapshots (:meth:`Session.open` / :meth:`save`),
* it answers the typed request vocabulary of
  :mod:`repro.api.messages` (estimate / match / refine / stats, plus
  the evict / compact lifecycle admin kinds), both one at a time
  (:meth:`handle`) and in micro-batches routed through
  :meth:`BasisStore.match_batch` (:meth:`handle_batch`), and
* it can stand in anywhere a ``basis_store=`` argument is expected —
  explorers resolve a passed Session to its store via
  :meth:`resolve_basis_store`.

**Batching invariant.**  ``handle_batch(requests)`` returns bitwise the
same responses — ids, mapping parameters, metrics, per-probe counters —
as ``[handle(r) for r in requests]``: probes inside a batch are
read-only against the store (the PR 4 ``match_batch`` parity
invariant), and any mutating request (refine) flushes the pending probe
run first, so sequential semantics are preserved exactly.  The serving
daemon leans on this to admit concurrent clients into batches without
changing a single answer.

**Thread safety.**  A Session serializes store access behind one
reentrant lock: concurrent threads may share a Session (the daemon's
loop, the concurrent-reader tests), and counter totals equal the
serial sequence's.  The underlying stores themselves remain
single-threaded objects — never bypass a shared Session to poke one.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

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
    ShutdownRequest,
    ShutdownResponse,
    StatsRequest,
    StatsResponse,
)
from repro.core.backend import active_backend
from repro.core.basis import BasisStore, EvictionPolicy
from repro.core.estimator import Estimator
from repro.core.fingerprint import Fingerprint
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank
from repro.errors import ApiError, JigsawError

StoreArg = Union[BasisStore, Mapping[str, BasisStore]]


class Session:
    """In-process facade over one or more basis stores (see module doc)."""

    def __init__(
        self,
        stores: Optional[StoreArg] = None,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        eviction: Optional[EvictionPolicy] = None,
    ):
        if stores is None:
            stores = BasisStore(estimator=estimator)
        if isinstance(stores, BasisStore):
            stores = {DEFAULT_STORE: stores}
        if not stores:
            raise ApiError("a session needs at least one store")
        self._stores: Dict[str, BasisStore] = dict(stores)
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator
        #: Standing eviction bound, re-applied to a store after every
        #: refine (the only in-session mutation that grows state) — a
        #: long-running daemon with a policy stays within it indefinitely.
        #: Admin :class:`EvictRequest` messages work with or without one.
        self.eviction = eviction
        self._lock = threading.RLock()

    # -- construction / persistence (the unified warm-start surface) -------

    @classmethod
    def create(
        cls,
        mapping_family=None,
        index_strategy: str = "normalization",
        estimator: Optional[Estimator] = None,
        seed_bank: Optional[SeedBank] = None,
    ) -> "Session":
        """A fresh single-store session (cold start)."""
        store = BasisStore(
            mapping_family=mapping_family,
            index_strategy=index_strategy,
            estimator=estimator,
        )
        return cls(store, seed_bank=seed_bank, estimator=estimator)

    @classmethod
    def open(
        cls,
        path: str,
        like: Optional[StoreArg] = None,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        mmap: bool = True,
    ) -> "Session":
        """Open a snapshot as a warm session (zero-copy mmap by default).

        ``like`` carries the caller's configured store(s) for the
        compatibility check, exactly as :func:`repro.core.persist.
        load_stores` expects; a single store stands for ``"default"``.
        The configured ``seed_bank`` (default: the process-wide bank) is
        validated against the one recorded at save time — incompatible
        snapshots refuse with a typed error rather than serving
        silently-wrong reuse.
        """
        from repro.core import persist

        if isinstance(like, BasisStore):
            like = {DEFAULT_STORE: like}
        bank = seed_bank or DEFAULT_SEED_BANK
        stores = persist.load_stores(
            path,
            like=like,
            seed_bank=bank,
            estimator=estimator,
            mmap=mmap,
        )
        return cls(stores, seed_bank=bank, estimator=estimator)

    def save(self, path: str, metadata: Optional[dict] = None) -> None:
        """Atomically snapshot every store (see :mod:`repro.core.persist`)."""
        from repro.core import persist

        with self._lock:
            persist.save_stores(
                self._stores, path, seed_bank=self.seed_bank,
                metadata=metadata,
            )

    # -- store access -------------------------------------------------------

    @property
    def stores(self) -> Dict[str, BasisStore]:
        """Named stores (a copy; the name -> store binding is not
        caller-mutable, the stores themselves are live)."""
        with self._lock:
            return dict(self._stores)

    @property
    def store_names(self) -> List[str]:
        with self._lock:
            return sorted(self._stores)

    def store(self, name: str = DEFAULT_STORE) -> BasisStore:
        with self._lock:
            try:
                return self._stores[name]
            except KeyError:
                raise ApiError(
                    f"session has no store named {name!r} "
                    f"(available: {sorted(self._stores)})"
                ) from None

    def resolve_basis_store(
        self, name: str = DEFAULT_STORE
    ) -> BasisStore:
        """The store to hand an explorer's ``basis_store=`` argument.

        Explorers and the interactive engine accept a Session wherever
        they accept a store and call this to unwrap it — which is how
        ``Session.open(path)`` became the single warm-start spelling.
        """
        return self.store(name)

    def basis_count(self) -> int:
        """Total bases across every store (CLI/diagnostics)."""
        with self._lock:
            return sum(len(store) for store in self._stores.values())

    # -- typed request handlers --------------------------------------------

    def match(self, request: MatchRequest) -> MatchResponse:
        """FindMatch probe (paper Algorithm 3's matching half)."""
        with self._lock:
            store = self.store(request.store)
            result, tested = self._probe(store, request.fingerprint)
            if result is None:
                return MatchResponse(
                    matched=False,
                    candidates_tested=tested,
                    store=request.store,
                    request_id=request.request_id,
                )
            return MatchResponse(
                matched=True,
                basis_id=result.basis.basis_id,
                mapping=result.mapping,
                candidates_tested=tested,
                store=request.store,
                request_id=request.request_id,
            )

    def estimate(self, request: EstimateRequest) -> EstimateResponse:
        """FindMatch plus metric remapping: the cheap what-if answer."""
        with self._lock:
            store = self.store(request.store)
            result, tested = self._probe(store, request.fingerprint)
            if result is None:
                return EstimateResponse(
                    matched=False,
                    candidates_tested=tested,
                    store=request.store,
                    request_id=request.request_id,
                )
            metrics = store.metrics_for(result.basis, result.mapping)
            return EstimateResponse(
                matched=True,
                basis_id=result.basis.basis_id,
                mapping=result.mapping,
                metrics=metrics,
                candidates_tested=tested,
                store=request.store,
                request_id=request.request_id,
            )

    def refine(self, request: RefineRequest) -> RefineResponse:
        """Fold refinement samples (basis coordinates) into a basis."""
        if not request.samples:
            raise ApiError("refine needs at least one sample")
        with self._lock:
            store = self.store(request.store)
            try:
                store.get(request.basis_id)
            except KeyError:
                raise ApiError(
                    f"store {request.store!r} has no basis "
                    f"{request.basis_id}"
                ) from None
            basis = store.extend_basis(
                request.basis_id,
                np.asarray(request.samples, dtype=float),
            )
            response = RefineResponse(
                basis_id=basis.basis_id,
                sample_count=int(basis.samples.size),
                metrics=basis.metrics,
                store=request.store,
                request_id=request.request_id,
            )
            if self.eviction is not None:
                # Refines are the only in-session growth; re-applying the
                # standing bound here keeps a long-running session within
                # it.  The response reflects the refine that did happen,
                # even if the policy then retired the refined basis.
                store.evict(self.eviction)
            return response

    def stats(
        self, request: Optional[StatsRequest] = None
    ) -> StatsResponse:
        """Deterministic counters and basis counts per store."""
        request = request or StatsRequest()
        with self._lock:
            return StatsResponse(
                counters={
                    name: store.stats.as_dict()
                    for name, store in sorted(self._stores.items())
                },
                bases={
                    name: len(store)
                    for name, store in sorted(self._stores.items())
                },
                backend={
                    name: active_backend().describe(store.columnar_check)
                    for name, store in sorted(self._stores.items())
                },
                request_id=request.request_id,
            )

    def evict(self, request: EvictRequest) -> EvictResponse:
        """Admin: bound one store (or all) by an eviction policy now.

        Survivors answer every future probe bitwise as a store rebuilt
        from only them would (the lifecycle parity invariant); evicted
        ids are retired permanently, never reissued.
        """
        if request.max_bases is None and request.max_bytes is None:
            raise ApiError(
                "evict needs max_bases and/or max_bytes; an unbounded "
                "eviction would be a no-op"
            )
        policy = EvictionPolicy(
            max_bases=request.max_bases,
            max_bytes=request.max_bytes,
            keep=request.keep,
        )
        with self._lock:
            names = (
                sorted(self._stores)
                if request.store is None
                else [request.store]
            )
            evicted: Dict[str, tuple] = {}
            bases: Dict[str, int] = {}
            for name in names:
                store = self.store(name)
                evicted[name] = tuple(store.evict(policy))
                bases[name] = len(store)
            return EvictResponse(
                evicted=evicted,
                bases=bases,
                request_id=request.request_id,
            )

    def compact(self, request: Optional[CompactRequest] = None):
        """Admin: drop tombstoned columnar rows now (also migrates any
        version-1 state to the compacted on-disk form at the next save)."""
        request = request or CompactRequest()
        with self._lock:
            names = (
                sorted(self._stores)
                if request.store is None
                else [request.store]
            )
            rows_dropped: Dict[str, int] = {}
            bases: Dict[str, int] = {}
            for name in names:
                store = self.store(name)
                rows_dropped[name] = store.compact()
                bases[name] = len(store)
            return CompactResponse(
                rows_dropped=rows_dropped,
                bases=bases,
                request_id=request.request_id,
            )

    # -- generic dispatch ---------------------------------------------------

    def handle(self, request):
        """Serve one request; typed misuse becomes an ``ErrorResponse``.

        This is the transport-facing entry: a bad request in a stream
        answers with an error instead of raising, so daemons (and batch
        loops) keep serving.
        """
        try:
            if isinstance(request, MatchRequest):
                return self.match(request)
            if isinstance(request, EstimateRequest):
                return self.estimate(request)
            if isinstance(request, RefineRequest):
                return self.refine(request)
            if isinstance(request, StatsRequest):
                return self.stats(request)
            if isinstance(request, EvictRequest):
                return self.evict(request)
            if isinstance(request, CompactRequest):
                return self.compact(request)
            if isinstance(request, ShutdownRequest):
                # In-process there is nothing to drain; the daemon
                # intercepts this kind before it reaches the session.
                return ShutdownResponse(
                    draining=True, request_id=request.request_id
                )
        except JigsawError as error:
            return ErrorResponse(
                code=type(error).__name__,
                message=str(error),
                request_id=getattr(request, "request_id", None),
            )
        return ErrorResponse(
            code="ApiError",
            message=f"unsupported request type {type(request).__name__}",
            request_id=getattr(request, "request_id", None),
        )

    def handle_batch(self, requests) -> List[object]:
        """Serve a micro-batch; bitwise equal to sequential :meth:`handle`.

        Maximal runs of probe requests (match/estimate) are grouped per
        store and answered through one
        :meth:`~repro.core.basis.BasisStore.match_batch` call each —
        the daemon's admission batches land here.  Mutating or
        administrative requests flush the pending run first, preserving
        sequential semantics exactly.
        """
        requests = list(requests)
        responses: List[Optional[object]] = [None] * len(requests)
        with self._lock:
            run: List[int] = []
            for position, request in enumerate(requests):
                if isinstance(request, (MatchRequest, EstimateRequest)):
                    run.append(position)
                    continue
                self._flush_probe_run(requests, run, responses)
                run = []
                responses[position] = self.handle(request)
            self._flush_probe_run(requests, run, responses)
        return responses

    # -- internals ----------------------------------------------------------

    def _probe(self, store: BasisStore, fingerprint) -> tuple:
        """One counted FindMatch probe; returns (result, tested)."""
        if not fingerprint:
            raise ApiError("a probe fingerprint needs at least one entry")
        before = store.stats.candidates_tested
        result = store.match(Fingerprint(fingerprint))
        return result, store.stats.candidates_tested - before

    def _flush_probe_run(self, requests, run, responses) -> None:
        """Answer a run of probe requests through per-store match_batch."""
        if not run:
            return
        by_store: Dict[str, List[int]] = {}
        for position in run:
            by_store.setdefault(requests[position].store, []).append(
                position
            )
        for store_name, positions in by_store.items():
            try:
                store = self.store(store_name)
            except ApiError as error:
                for position in positions:
                    responses[position] = ErrorResponse(
                        code="ApiError",
                        message=str(error),
                        request_id=requests[position].request_id,
                    )
                continue
            probes = []
            for position in positions:
                values = requests[position].fingerprint
                if not values:
                    responses[position] = ErrorResponse(
                        code="ApiError",
                        message=(
                            "a probe fingerprint needs at least one entry"
                        ),
                        request_id=requests[position].request_id,
                    )
                else:
                    probes.append((position, Fingerprint(values)))
            if not probes:
                # Every probe in this group was malformed; sequential
                # handle() never touches the store for a bad request, so
                # the batch path must not call match_batch either.
                continue
            tested_counts: List[int] = []
            results = store.match_batch(
                [fp for _, fp in probes], tested_out=tested_counts
            )
            for (position, _), result, tested in zip(
                probes, results, tested_counts
            ):
                request = requests[position]
                if isinstance(request, MatchRequest):
                    if result is None:
                        responses[position] = MatchResponse(
                            matched=False,
                            candidates_tested=tested,
                            store=store_name,
                            request_id=request.request_id,
                        )
                    else:
                        responses[position] = MatchResponse(
                            matched=True,
                            basis_id=result.basis.basis_id,
                            mapping=result.mapping,
                            candidates_tested=tested,
                            store=store_name,
                            request_id=request.request_id,
                        )
                elif result is None:
                    responses[position] = EstimateResponse(
                        matched=False,
                        candidates_tested=tested,
                        store=store_name,
                        request_id=request.request_id,
                    )
                else:
                    responses[position] = EstimateResponse(
                        matched=True,
                        basis_id=result.basis.basis_id,
                        mapping=result.mapping,
                        metrics=store.metrics_for(
                            result.basis, result.mapping
                        ),
                        candidates_tested=tested,
                        store=store_name,
                        request_id=request.request_id,
                    )
