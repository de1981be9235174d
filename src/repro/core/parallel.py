"""Sharded parallel sweeps with mergeable basis stores.

PR 1 made one process as fast as NumPy allows; this module scales a sweep
across cores.  The key observation (Kennedy & Nath's fingerprint reuse) is
that a sweep is *embarrassingly shardable*: each point's fingerprint rounds
are independent, and a missed reuse opportunity only ever costs duplicate
work — never correctness — so shard-local basis stores can speculate freely
and be reconciled afterwards.

The engine runs in two phases:

1. **Speculate** (parallel): the parameter space is split into contiguous
   shards, one fork-pool worker per shard.  Each worker runs a plain
   :class:`~repro.core.explorer.ParameterExplorer` over its shard with its
   own :class:`~repro.core.basis.BasisStore` (built like the canonical
   one) and a fresh standard-draw cache, and ships back, per point, the
   fingerprint values plus — for points it fully simulated — the full
   sample vector.
2. **Replay-merge** (serial, cheap): the master replays the points in
   canonical space order against one merged store, re-probing every
   incoming fingerprint so cross-shard duplicate bases collapse into
   mappings.  A replay miss consumes the worker's precomputed samples; in
   the rare case a shard reused a point the canonical order simulates
   fully, the master re-runs that point's completion rounds itself.
   (:meth:`BasisStore.merge` / :meth:`FingerprintIndex.merge` apply the
   same collapse rule at store granularity — point order forgotten — for
   offline merging of independently built stores; the replay here works
   point-by-point because the bit-parity invariant needs the canonical
   visit order.)

Because simulations are deterministic under the shared seed bank, the
replay *is* the serial algorithm with sampling outsourced: per-point
metrics, reuse decisions, basis ids, mappings, and counters are all
bit-identical to the serial explorer for every worker count.  (The engine
therefore guarantees more than the documented invariant — estimates may
never differ; decisions happen not to either.)  Only the *shard-side* work
varies with the shard count; :class:`ParallelStats` accounts for it.

This is the one sharded engine.  A multi-column scenario sweep
(:class:`repro.scenario.runner.ScenarioRunner`) is this class over a
simulation whose draws are rounds x columns blocks and a store that is one
basis store per column answering jointly: the records, the replay, the
adaptive cursor and the checkpoint codec below never ask which, because
they only slice sample blocks by rounds (``len``, ``block[a:b]``).

Both phases run on the columnar match engine: shard workers and the merged
replay consume the serial explorer's one per-visited-point loop
(:meth:`ParameterExplorer.explore`), so both probe through block probes
over contiguous fingerprint/key matrices grown incrementally as bases are
adopted, and sharding and columnar matching compose — because a block
probe's answers are bit-identical to the scalar loop's, the replay-merge
parity invariant is untouched.  Offline store
reconciliation (:meth:`BasisStore.merge`) adopts a shard's columnar
matrices with one :meth:`ColumnarStore.extend` (one slice write into the
reserved matrix) per fingerprint size in verbatim mode, and re-probes
incoming bases through the same columnar engine otherwise.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import threading
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.blackbox import draws
from repro.blackbox.base import Params
from repro.core.adaptive import AdaptiveBudget
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator
from repro.core.explorer import (
    ExplorationResult,
    ExplorerStats,
    ParameterExplorer,
    Simulation,
    make_batch_simulation,
)
from repro.core.mapping import MappingFamily
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank, SeedSlice
from repro.core.supervise import (
    ShardSupervisor,
    SupervisionPolicy,
    SupervisionReport,
)

# ---------------------------------------------------------------------------
# Fork fan-out
#
# run_shards is the one fan-out: it resumes what a checkpoint holds and
# runs the rest.  Workers are forked, not spawned: the shard context
# (simulation callable, store factory, ...) is handed over through
# inherited memory instead of pickling, so closures and bound methods
# parallelize as well as module-level functions.  Only the shard *results*
# cross the wire.
#
# Execution routes through repro.core.supervise: each shard attempt is an
# individually submitted future the supervisor can deadline, retry on a
# rebuilt pool after a worker death, or — once retries exhaust — recompute
# in-process, so one dead or hung worker no longer costs the whole sweep.
# Shards are deterministic under the shared seed bank, so none of that
# recovery can change results.

#: Token -> (context, runner).  Entries are registered *before* the pool
#: forks, so every child inherits the full dict; the token each worker is
#: handed picks its own sweep's entry, which is what lets two sweeps fork
#: concurrently (the old design had a single context slot and had to hold
#: its lock for the pool's entire lifetime, fully serializing them).
_SHARD_CONTEXTS: Dict[int, Tuple[Any, Callable[[Any, int], Any]]] = {}
#: Guards only the registry mutations, never held across a fork or a
#: pool's lifetime.  Forked children must not touch it at all — another
#: parent thread could have held it at fork time, which would deadlock
#: the child — so ``_invoke_shard`` reads the dict with a bare ``get``
#: (atomic under the GIL, and the fork itself happens while the forking
#: thread holds the GIL, so children see a consistent dict).
_SHARD_CONTEXT_LOCK = threading.Lock()
_SHARD_TOKENS = itertools.count()
_IN_WORKER = False


def default_worker_count() -> int:
    """Worker count when the caller does not choose one (all cores)."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether fork-based pools exist on this platform (Linux: yes)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_initializer() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    draws.initialize_worker()


def _invoke_shard(token: int, index: int) -> Any:
    entry = _SHARD_CONTEXTS.get(token)
    assert entry is not None, "shard context lost across fork"
    context, runner = entry
    return runner(context, index)


class _ForkShardPool:
    """Supervisable pool over a fork-context ``ProcessPoolExecutor``.

    Workers resolve their sweep's context through the inherited registry
    by token.  ``abandon`` terminates the worker processes outright —
    it is the supervisor's remedy for a broken pool or a worker stuck
    past its deadline, where a clean shutdown would block forever.
    """

    def __init__(self, token: int, workers: int):
        self._token = token
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_initializer,
        )

    def submit(self, index: int):
        return self._executor.submit(_invoke_shard, self._token, index)

    def abandon(self) -> None:
        processes = list(getattr(self._executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        self._executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=1.0)

    def close(self) -> None:
        self._executor.shutdown(wait=True)


def shard_slices(total: int, shard_count: int) -> List[slice]:
    """Split ``range(total)`` into contiguous, balanced slices.

    Contiguity matters: replay order is concatenation order, so contiguous
    shards keep every shard's internal visit order identical to the serial
    sweep's (shard 0's speculation is exactly the serial prefix).
    """
    shard_count = max(1, min(shard_count, total)) if total else 1
    bounds = np.linspace(0, total, shard_count + 1).astype(int)
    return [
        slice(int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


def adaptive_config(budget: Optional[AdaptiveBudget]) -> Optional[dict]:
    """An adaptive budget as a checkpoint config records it (floats
    bitwise, so a resume under any other stopping rule refuses)."""
    if budget is None:
        return None
    return {
        "rtol": float(budget.rtol).hex(),
        "atol": float(budget.atol).hex(),
        "confidence": float(budget.confidence).hex(),
        "max_samples": budget.max_samples,
        "min_samples": budget.min_samples,
        "method": budget.method,
    }


def run_shards(
    runner: Callable[[Any, int], Any],
    context: Any,
    shard_count: int,
    workers: int,
    *,
    policy: Optional[SupervisionPolicy],
    checkpoint: Optional[str],
    config: Callable[[], dict],
    encode: Callable[[Any], Tuple[dict, Dict[str, np.ndarray]]],
    decode: Callable[[dict, Dict[str, np.ndarray]], Any],
) -> Tuple[List[Any], int, Optional[SupervisionReport]]:
    """``runner(context, i)`` for every shard, resumed from ``checkpoint``.

    The one fan-out, which both sweep engines use.  With a ``checkpoint``
    path, valid completed-shard records of the same sweep (``config()`` is
    its identity; a different one refuses, see
    :class:`~repro.core.persist.SweepCheckpoint`) are decoded instead of
    recomputed, and each newly accepted outcome is recorded as it arrives.
    The remaining shards run under a
    :class:`~repro.core.supervise.ShardSupervisor` with ``policy``
    (default :data:`~repro.core.supervise.DEFAULT_POLICY`): on a fork pool
    of at most ``workers`` processes, or in-process — same code path, same
    results — when one worker suffices, fork is unavailable (gated, not
    emulated with spawn: spawn would require pickling arbitrary
    simulations), or this is already a worker (no nested pools).  Returns
    ``(outcomes in shard order, shards resumed, the supervision report —
    None when nothing had to run)``.  Shards are deterministic, so the
    outcomes are the same either way.
    """
    outcomes: Dict[int, Any] = {}
    on_complete = None
    if checkpoint is not None:
        from repro.core.persist import SweepCheckpoint

        store = SweepCheckpoint(checkpoint, config())
        outcomes = {
            index: decode(meta, arrays)
            for index, (meta, arrays) in store.load().items()
            if 0 <= index < shard_count
        }

        def on_complete(index: int, outcome: Any) -> None:
            store.record(index, *encode(outcome))

    resumed = len(outcomes)
    remaining = [i for i in range(shard_count) if i not in outcomes]
    report = None
    if remaining:
        workers = min(int(workers), len(remaining))
        token: Optional[int] = None
        pool_factory = None
        if workers > 1 and not _IN_WORKER and fork_available():
            token = next(_SHARD_TOKENS)
            with _SHARD_CONTEXT_LOCK:
                _SHARD_CONTEXTS[token] = (context, runner)
            pool_factory = functools.partial(_ForkShardPool, token, workers)
        supervisor = ShardSupervisor(
            runner,
            context,
            remaining,
            policy,
            pool_factory=pool_factory,
            on_shard_complete=on_complete,
        )
        try:
            outcomes.update(supervisor.run())
        finally:
            if token is not None:
                with _SHARD_CONTEXT_LOCK:
                    _SHARD_CONTEXTS.pop(token, None)
        report = supervisor.report
    return [outcomes[index] for index in range(shard_count)], resumed, report


# ---------------------------------------------------------------------------
# Parallel explorer


@dataclass
class ParallelStats:
    """Shard-side work accounting (what the canonical stats hide).

    ``ExplorationResult.stats`` reports the serial-equivalent counters so
    estimates and bench counters are invariant to the shard count; this
    records what the shards actually did, including the speculation that
    the merge collapsed.
    """

    workers: int = 0
    shard_sizes: Tuple[int, ...] = ()
    #: Samples actually drawn inside shards (>= stats.samples_drawn).  For
    #: scenario sweeps this counts Monte Carlo rounds (one round covers all
    #: output columns), matching ``RunnerStats.rounds_executed``.
    shard_samples_drawn: int = 0
    #: Shard-created bases that collapsed into mappings during the merge.
    bases_collapsed: int = 0
    #: Points the canonical replay had to resimulate because their shard
    #: reused them while the canonical order demanded a full simulation.
    points_resimulated: int = 0
    #: Per-shard work counters, one ``ExplorerStats`` a shard.
    shard_stats: List[ExplorerStats] = field(default_factory=list)
    #: Shards whose outcomes were consumed from a resumable checkpoint
    #: instead of being recomputed this run.
    shards_resumed: int = 0
    #: The :class:`~repro.core.supervise.SupervisionReport` for the shard
    #: fan-out (None when every shard came from a checkpoint).
    supervision: Optional[object] = None


@dataclass
class _ShardPointRecord:
    """One point's shipped outcome: fingerprint, and samples on a miss.

    ``samples`` carries the shard's *complete* draw for the point — under
    an adaptive budget its length IS the per-point sample count the shard
    recorded, and the canonical replay consumes it block-by-block (the
    adaptive schedule is a pure function of the sample values, so the
    replay requests exactly these values back in exactly these blocks).
    """

    fingerprint_values: np.ndarray
    samples: Optional[np.ndarray]


@dataclass
class _ShardOutcome:
    records: List[_ShardPointRecord]
    stats: ExplorerStats


@dataclass
class _ExplorerShardContext:
    """Inherited-by-fork description of one sweep's shard jobs."""

    simulation: Simulation
    shards: List[List[Dict[str, float]]]
    samples_per_point: int
    fingerprint_size: int
    fingerprint_slice: SeedSlice
    estimator: Estimator
    store_factory: Callable[[], BasisStore]
    adaptive: Optional[AdaptiveBudget] = None


def _run_explorer_shard(
    context: _ExplorerShardContext, index: int
) -> _ShardOutcome:
    explorer = ParameterExplorer(
        context.simulation,
        samples_per_point=context.samples_per_point,
        fingerprint_size=context.fingerprint_size,
        basis_store=context.store_factory(),
        seed_bank=context.fingerprint_slice.bank,
        estimator=context.estimator,
        adaptive=context.adaptive,
    )
    stats = ExplorerStats()
    records = []
    # One record per *visited* point, in shard order: run()'s result dict
    # would collapse duplicate parameter points and misalign the replay.
    for point in explorer.explore(context.shards[index]):
        stats.record(point)
        samples = (
            None
            if point.reused
            else explorer.store.get(point.basis_id).samples
        )
        records.append(
            _ShardPointRecord(point.fingerprint.array, samples)
        )
    return _ShardOutcome(records, stats)


def space_digest(points: List[Dict[str, float]]) -> str:
    """Order-sensitive digest of a parameter space (bitwise on floats).

    Checkpoint configs carry this so a resume against a *different* space
    (or the same points in a different order — replay order is sacred)
    refuses instead of silently mixing sweeps.
    """
    canonical = json.dumps(
        [
            [[str(k), float(v).hex()] for k, v in sorted(p.items())]
            for p in points
        ],
        separators=(",", ":"),
    )
    return f"{zlib.crc32(canonical.encode()):08x}"


def _encode_explorer_outcome(
    outcome: _ShardOutcome,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Checkpoint encoding of one shard outcome (meta dict + arrays)."""
    arrays: Dict[str, np.ndarray] = {}
    records = []
    for position, record in enumerate(outcome.records):
        arrays[f"fp{position}"] = np.asarray(
            record.fingerprint_values, dtype=np.float64
        )
        records.append({"samples": record.samples is not None})
        if record.samples is not None:
            arrays[f"s{position}"] = np.asarray(
                record.samples, dtype=np.float64
            )
    stats = outcome.stats
    meta = {
        "records": records,
        "stats": {
            "points_total": int(stats.points_total),
            "points_reused": int(stats.points_reused),
            "bases_created": int(stats.bases_created),
            "fingerprint_samples": int(stats.fingerprint_samples),
            "full_samples": int(stats.full_samples),
        },
    }
    return meta, arrays


def _decode_explorer_outcome(
    meta: dict, arrays: Dict[str, np.ndarray]
) -> _ShardOutcome:
    records = []
    for position, entry in enumerate(meta["records"]):
        samples = (
            np.asarray(arrays[f"s{position}"]) if entry["samples"] else None
        )
        records.append(
            _ShardPointRecord(np.asarray(arrays[f"fp{position}"]), samples)
        )
    stats = ExplorerStats(
        **{key: int(value) for key, value in meta["stats"].items()}
    )
    return _ShardOutcome(records, stats)


class _ReplayPoint(dict):
    """A parameter point that knows its place in the canonical order."""

    def __init__(self, params: Dict[str, float], position: int):
        super().__init__(params)
        self.position = position


class _PlaybackSimulation:
    """Replays worker-recorded sample vectors into a serial explorer.

    The merge phase runs a plain :class:`ParameterExplorer` over the full
    space — the literal serial algorithm, stats and all — with this object
    standing in for the simulation: fingerprint rounds return the shard's
    recorded values, completion rounds return the shard's recorded samples
    (consumed cursor-wise, so an adaptive budget's multiple completion
    blocks replay as the exact slices the shard drew), and only when a
    shard speculatively reused a point the canonical order must simulate
    does it fall through to the real batch simulation.  The explorer draws
    a whole block's fingerprints before it completes any of the block's
    points, so call order says nothing about which point a call is for:
    the replay sweeps :class:`_ReplayPoint` s, each carrying its position
    (duplicate parameter points stay distinct visits).  Calls are
    told apart by seed-array identity (the explorer passes its one
    fingerprint-seed array for every fingerprint call), so the protocol is
    safe even when both phases draw equally many rounds.
    """

    def __init__(
        self,
        records: List[_ShardPointRecord],
        batch_simulation,
    ):
        self._records = records
        self._batch_simulation = batch_simulation
        self._fingerprint_seeds: Optional[np.ndarray] = None
        self._completing = -1
        self._cursor = 0
        self.points_resimulated = 0

    def bind(self, fingerprint_seeds: np.ndarray) -> None:
        self._fingerprint_seeds = fingerprint_seeds

    def sample_batch(
        self, params: _ReplayPoint, seeds: np.ndarray
    ) -> np.ndarray:
        record = self._records[params.position]
        if seeds is self._fingerprint_seeds:
            return record.fingerprint_values
        if self._completing != params.position:
            # First completion call of this point.  Resimulated *points*
            # are counted, not calls: under an adaptive budget one
            # resimulated point draws several blocks.
            self._completing = params.position
            self._cursor = len(record.fingerprint_values)
            if record.samples is None:
                self.points_resimulated += 1
        if record.samples is None:
            return self._batch_simulation(params, seeds)
        start = self._cursor
        self._cursor += len(seeds)
        return record.samples[start:self._cursor]


class ParallelExplorer:
    """A :class:`ParameterExplorer` sharded across a pool of workers.

    Same ``run(space) -> ExplorationResult`` contract; per-point metrics
    (and in this implementation even reuse decisions and counters) are
    bit-identical to the serial explorer for any ``workers``.  The merged
    basis store is available as ``store`` afterwards, exactly like the
    serial explorer's.

    ``store_factory`` builds each worker's shard-local store *and* the
    merged store; by default it mirrors the serial constructor
    (``mapping_family`` + ``index_strategy`` + shared estimator) — or,
    given ``basis_store``, that store: same family, effective index
    strategy, tolerances and estimator, so the shards decide what the
    canonical replay will.

    ``basis_store`` warm-starts the sweep: a caller-provided (typically
    snapshot-loaded, see :mod:`repro.core.persist`) store becomes the
    canonical replay/merge store, exactly as passing ``basis_store`` to
    the serial explorer would.  Shard workers still speculate against
    fresh cold stores — speculation only ever costs duplicate samples,
    and the canonical replay probes the warm store, so per-point metrics
    and decisions stay bit-identical to a serial warm sweep for any
    worker count (a point a shard simulated but the warm store covers is
    simply reused, its shipped samples dropped; the rare converse falls
    through to a real resimulation, as ever).
    """

    def __init__(
        self,
        simulation: Simulation,
        workers: Optional[int] = None,
        samples_per_point: int = 1000,
        fingerprint_size: int = 10,
        index_strategy: str = "normalization",
        mapping_family: Optional[MappingFamily] = None,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        store_factory: Optional[Callable[[], BasisStore]] = None,
        adaptive: Optional[AdaptiveBudget] = None,
        basis_store: Optional[BasisStore] = None,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint: Optional[str] = None,
    ):
        if fingerprint_size < 1:
            raise ValueError("fingerprint_size must be at least 1")
        if samples_per_point < fingerprint_size:
            raise ValueError(
                "samples_per_point must be >= fingerprint_size (fingerprint "
                "rounds double as the first simulation rounds)"
            )
        self.workers = (
            default_worker_count() if workers is None else int(workers)
        )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.simulation = simulation
        self._batch_simulation = make_batch_simulation(simulation)
        self.samples_per_point = samples_per_point
        self.fingerprint_size = fingerprint_size
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()
        self.adaptive = adaptive
        # A repro.api.Session stands in for its store wherever a
        # basis_store is accepted (duck-typed: no core -> api import).
        if basis_store is not None and hasattr(
            basis_store, "resolve_basis_store"
        ):
            basis_store = basis_store.resolve_basis_store()
        if store_factory is None:
            # `is None`, not `or`: an empty warm store is falsy (len() == 0)
            # and is still the canonical store the shards are built like.
            if basis_store is None:
                basis_store = BasisStore(
                    mapping_family=mapping_family,
                    index_strategy=index_strategy,
                    estimator=self.estimator,
                )
            like = basis_store

            def store_factory() -> BasisStore:
                # Everything persist.store_config calls a store's identity:
                # a shard matching under another family or tolerance reuses
                # points the canonical replay must then resimulate serially.
                return BasisStore(
                    mapping_family=like.mapping_family,
                    index_strategy=type(like.index).strategy,
                    estimator=like.estimator,
                    rel_tol=like.rel_tol,
                    abs_tol=like.abs_tol,
                )

        self._store_factory = store_factory
        self.store = (
            basis_store if basis_store is not None else store_factory()
        )
        self._fingerprint_slice = self.seed_bank.slice(fingerprint_size)
        self.supervision = supervision
        self.checkpoint = checkpoint

    def _checkpoint_config(self, points, shards) -> dict:
        config = {
            "engine": "explorer",
            "space": space_digest(points),
            "shard_sizes": [len(shard) for shard in shards],
            "samples_per_point": int(self.samples_per_point),
            "fingerprint_size": int(self.fingerprint_size),
            "seed_master": int(self.seed_bank.master_seed),
            "adaptive": adaptive_config(self.adaptive),
        }
        # A store that shapes the shard records says so (a scenario's
        # per-column stores: which columns, reused or not); a plain
        # BasisStore adds nothing, so its checkpoints read as ever.
        identity = getattr(self.store, "checkpoint_identity", None)
        if identity is not None:
            config["store"] = identity
        return config

    def run(self, space: Iterable[Params]) -> ExplorationResult:
        """Explore every point of ``space``: speculate in shards, then merge.

        With ``checkpoint`` set, completed-shard outcomes are persisted as
        they arrive and a restarted run consumes the valid records,
        recomputing only the remainder — determinism makes the merged
        result bit-identical to an uninterrupted run either way.
        """
        points = [dict(p) for p in space]
        slices = shard_slices(len(points), self.workers)
        shards = [points[s] for s in slices]
        context = _ExplorerShardContext(
            simulation=self.simulation,
            shards=shards,
            samples_per_point=self.samples_per_point,
            fingerprint_size=self.fingerprint_size,
            fingerprint_slice=self._fingerprint_slice,
            estimator=self.estimator,
            store_factory=self._store_factory,
            adaptive=self.adaptive,
        )
        outcomes, resumed, report = run_shards(
            _run_explorer_shard,
            context,
            len(shards),
            self.workers,
            policy=self.supervision,
            checkpoint=self.checkpoint,
            config=lambda: self._checkpoint_config(points, shards),
            encode=_encode_explorer_outcome,
            decode=_decode_explorer_outcome,
        )
        result = self._merge(points, outcomes)
        if result.parallel is not None:
            result.parallel.shards_resumed = resumed
            result.parallel.supervision = report
        return result

    def _merge(
        self,
        points: List[Dict[str, float]],
        outcomes: List[_ShardOutcome],
    ) -> ExplorationResult:
        """Replay the canonical sweep order against one merged store.

        Runs the *actual* serial explorer over the full space with a
        :class:`_PlaybackSimulation` as the simulation — so reuse
        decisions, per-point metrics, and counters are serial by
        construction, and cross-shard duplicate bases collapse exactly
        where a serial sweep would have reused them.
        """
        records = [
            record for outcome in outcomes for record in outcome.records
        ]
        playback = _PlaybackSimulation(records, self._batch_simulation)
        replay = ParameterExplorer(
            playback,
            samples_per_point=self.samples_per_point,
            fingerprint_size=self.fingerprint_size,
            basis_store=self.store,
            seed_bank=self.seed_bank,
            estimator=self.estimator,
            adaptive=self.adaptive,
        )
        playback.bind(replay._fingerprint_seeds)
        result = replay.run(
            _ReplayPoint(params, position)
            for position, params in enumerate(points)
        )
        parallel = ParallelStats(
            workers=self.workers,
            shard_sizes=tuple(len(o.records) for o in outcomes),
            shard_samples_drawn=sum(
                o.stats.samples_drawn for o in outcomes
            ),
            points_resimulated=playback.points_resimulated,
            shard_stats=[o.stats for o in outcomes],
        )
        shard_bases = sum(o.stats.bases_created for o in outcomes)
        adopted = result.stats.bases_created - parallel.points_resimulated
        parallel.bases_collapsed = shard_bases - adopted
        result.parallel = parallel
        return result
