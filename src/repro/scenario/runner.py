"""Batch scenario execution: naive and fingerprint-reusing modes.

The runner generalizes :class:`repro.core.explorer.ParameterExplorer` to
multi-column scenarios.  One Monte Carlo round computes *all* output columns
(one set of black-box invocations), so the fingerprint decision is joint: a
point skips its remaining rounds only when **every** column's fingerprint
maps onto a stored basis.  This is precisely why the paper's boolean
Overload column halves the achievable speedup of its query (section 6.2) —
one unmappable column forces the full simulation for the whole row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.blackbox.base import ParamKey, param_key
from repro.core.adaptive import AdaptiveBudget, next_target
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator, MetricSet
from repro.core.fingerprint import Fingerprint
from repro.core.parallel import (
    ParallelStats,
    adaptive_config,
    run_shards,
    shard_slices,
    space_digest,
)
from repro.core.supervise import SupervisionPolicy
from repro.core.mapping import (
    IdentityMappingFamily,
    LinearMappingFamily,
    Mapping,
    MappingFamily,
)
from repro.core.optimizer import ResultRow, Selector
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank
from repro.probdb.expressions import BatchUnsupported
from repro.scenario.scenario import Scenario


@dataclass
class RunnerStats:
    """Joint work accounting across all output columns."""

    points_total: int = 0
    points_reused: int = 0
    rounds_executed: int = 0
    bases_created: int = 0

    @property
    def reuse_fraction(self) -> float:
        if self.points_total == 0:
            return 0.0
        return self.points_reused / self.points_total


@dataclass
class ScenarioResult:
    """Per-point, per-column metrics plus accounting.

    ``stats`` is the canonical (serial-equivalent) accounting regardless of
    how many workers executed the sweep; ``parallel`` carries the
    shard-side work when the run was sharded (see
    :mod:`repro.core.parallel`).
    """

    metrics: Dict[ParamKey, Dict[str, MetricSet]] = field(default_factory=dict)
    points: Dict[ParamKey, Dict[str, float]] = field(default_factory=dict)
    stats: RunnerStats = field(default_factory=RunnerStats)
    parallel: Optional[ParallelStats] = None

    def metrics_for(
        self, params: Mapping[str, float]
    ) -> Dict[str, MetricSet]:
        return self.metrics[param_key(params)]

    def rows(self) -> List[ResultRow]:
        """Rows in the Selector's input format."""
        return [
            (self.points[key], self.metrics[key]) for key in self.metrics
        ]

    def optimize(self, selector: Selector):
        """Run an OPTIMIZE clause over the explored results table."""
        return selector.solve(self.rows())

    def __len__(self) -> int:
        return len(self.metrics)


@dataclass
class _ScenarioPointRecord:
    """One point's shipped outcome: per-column fingerprints, and — when the
    shard fully simulated the point — per-column full sample vectors."""

    fingerprints: Dict[str, np.ndarray]
    samples: Optional[Dict[str, np.ndarray]]


@dataclass
class _ScenarioShardContext:
    """Inherited-by-fork description of a sharded scenario sweep."""

    runner_factory: "object"
    shards: List[List[Dict[str, float]]]


def _run_scenario_shard(
    context: _ScenarioShardContext, index: int
) -> Tuple[List[_ScenarioPointRecord], RunnerStats]:
    runner = context.runner_factory()
    stats = RunnerStats()
    records: List[_ScenarioPointRecord] = []
    for point in context.shards[index]:
        _, record = runner._run_point(point, stats)
        records.append(record)
        stats.points_total += 1
    return records, stats


def _encode_scenario_outcome(
    columns: Tuple[str, ...],
    outcome: Tuple[List[_ScenarioPointRecord], RunnerStats],
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Checkpoint encoding of one scenario shard outcome.

    Column arrays are keyed positionally (``fp{point}c{column}``) — the
    checkpoint config pins the column list, so positions are stable."""
    records, stats = outcome
    arrays: Dict[str, np.ndarray] = {}
    meta_records = []
    for position, record in enumerate(records):
        for col, column in enumerate(columns):
            arrays[f"fp{position}c{col}"] = np.asarray(
                record.fingerprints[column], dtype=np.float64
            )
        meta_records.append({"samples": record.samples is not None})
        if record.samples is not None:
            for col, column in enumerate(columns):
                arrays[f"s{position}c{col}"] = np.asarray(
                    record.samples[column], dtype=np.float64
                )
    meta = {
        "records": meta_records,
        "stats": {
            "points_total": int(stats.points_total),
            "points_reused": int(stats.points_reused),
            "rounds_executed": int(stats.rounds_executed),
            "bases_created": int(stats.bases_created),
        },
    }
    return meta, arrays


def _decode_scenario_outcome(
    columns: Tuple[str, ...], meta: dict, arrays: Dict[str, np.ndarray]
) -> Tuple[List[_ScenarioPointRecord], RunnerStats]:
    records = []
    for position, entry in enumerate(meta["records"]):
        fingerprints = {
            column: np.asarray(arrays[f"fp{position}c{col}"])
            for col, column in enumerate(columns)
        }
        samples = None
        if entry["samples"]:
            samples = {
                column: np.asarray(arrays[f"s{position}c{col}"])
                for col, column in enumerate(columns)
            }
        records.append(_ScenarioPointRecord(fingerprints, samples))
    stats = RunnerStats(
        **{key: int(value) for key, value in meta["stats"].items()}
    )
    return records, stats


class ScenarioRunner:
    """Executes a scenario over its whole parameter space with reuse.

    ``column_families`` optionally overrides the mapping family per column;
    boolean outputs default to identity-only matching (a 0/1 fingerprint
    admits no meaningful affine remap — scaling probabilities would be
    statistically wrong).

    ``workers > 1`` shards the parameter space across a fork pool (see
    :mod:`repro.core.parallel`): each worker sweeps its shard with its own
    per-column basis stores, then the master replays the canonical point
    order against the merged stores, so per-point metrics and counters are
    bit-identical to the serial sweep for any worker count.
    """

    def __init__(
        self,
        scenario: Scenario,
        samples_per_point: int = 1000,
        fingerprint_size: int = 10,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        index_strategy: str = "normalization",
        column_families: Optional[Mapping[str, MappingFamily]] = None,
        use_fingerprints: bool = True,
        workers: int = 1,
        adaptive: Optional[AdaptiveBudget] = None,
        supervision: Optional[SupervisionPolicy] = None,
        checkpoint: Optional[str] = None,
    ):
        if fingerprint_size < 1:
            raise ValueError("fingerprint_size must be at least 1")
        if samples_per_point < fingerprint_size:
            raise ValueError("samples_per_point must be >= fingerprint_size")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.scenario = scenario
        self.samples_per_point = samples_per_point
        self.fingerprint_size = fingerprint_size
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()
        self.use_fingerprints = use_fingerprints
        self.workers = int(workers)
        self.adaptive = adaptive
        self.supervision = supervision
        self.checkpoint = checkpoint
        self._index_strategy = index_strategy
        self._family_overrides = dict(column_families or {})
        self._stores: Dict[str, BasisStore] = {}
        for column in scenario.output_columns:
            family = self._family_overrides.get(
                column, LinearMappingFamily()
            )
            self._stores[column] = BasisStore(
                mapping_family=family,
                index_strategy=index_strategy,
                estimator=self.estimator,
            )

    def store_for(self, column: str) -> BasisStore:
        return self._stores[column]

    @property
    def stores(self) -> Dict[str, BasisStore]:
        """Per-column basis stores, keyed by output column (a copy: the
        runner's column -> store binding itself is not caller-mutable)."""
        return dict(self._stores)

    def basis_count(self) -> int:
        """Total bases across every column's store (CLI/diagnostics)."""
        return sum(len(store) for store in self._stores.values())

    def save_stores(self, path: str, metadata=None) -> None:
        """Snapshot every column's basis store for later warm starts.

        Atomic and versioned (see :mod:`repro.core.persist`); records the
        runner's seed bank so a later load can refuse cross-bank reuse.
        """
        from repro.api import Session

        Session(self._stores, seed_bank=self.seed_bank).save(
            path, metadata=metadata
        )

    def load_stores(self, path: str, mmap: bool = True) -> None:
        """Warm-start this runner from a :meth:`save_stores` snapshot.

        The snapshot must cover exactly this scenario's output columns,
        and each column's store must match the runner's configured mapping
        family, index strategy, tolerances, estimator, and seed bank —
        any mismatch raises a typed
        :class:`~repro.errors.SnapshotCompatibilityError` instead of
        silently reusing incompatible state.  Loaded stores are
        memory-mapped read-only by default; sweeps that add bases promote
        copy-on-write and leave the snapshot untouched.  Sharded runs
        (``workers > 1``) warm-start too: the canonical replay probes the
        loaded stores, so results stay bit-identical to a serial warm run.
        """
        from repro.api import Session

        self._stores = Session.open(
            path,
            like=self._stores,
            seed_bank=self.seed_bank,
            estimator=self.estimator,
            mmap=mmap,
        ).stores

    def _clone_serial(self) -> "ScenarioRunner":
        """A fresh single-worker runner with this runner's configuration
        (shard workers build their local per-column stores through this)."""
        return ScenarioRunner(
            self.scenario,
            samples_per_point=self.samples_per_point,
            fingerprint_size=self.fingerprint_size,
            seed_bank=self.seed_bank,
            estimator=self.estimator,
            index_strategy=self._index_strategy,
            column_families=self._family_overrides,
            use_fingerprints=self.use_fingerprints,
            workers=1,
            adaptive=self.adaptive,
        )

    def _checkpoint_config(self, points, shards) -> dict:
        return {
            "engine": "scenario",
            "space": space_digest(points),
            "shard_sizes": [len(shard) for shard in shards],
            "samples_per_point": int(self.samples_per_point),
            "fingerprint_size": int(self.fingerprint_size),
            "seed_master": int(self.seed_bank.master_seed),
            "columns": list(self.scenario.output_columns),
            "use_fingerprints": bool(self.use_fingerprints),
            "adaptive": adaptive_config(self.adaptive),
        }

    def run(self) -> ScenarioResult:
        if (
            self.workers > 1
            or self.checkpoint is not None
            or self.supervision is not None
        ):
            # Checkpointed or supervised runs route through the sharded
            # engine even with one worker: shard records are the resumable
            # unit, supervision watches shard attempts, and the canonical
            # replay makes the result bit-identical to the plain serial
            # loop regardless.
            return self._run_parallel()
        result = ScenarioResult()
        for point in self.scenario.space.points():
            key = param_key(point)
            result.points[key] = dict(point)
            metrics, _ = self._run_point(point, result.stats)
            result.metrics[key] = metrics
            result.stats.points_total += 1
        return result

    def _run_parallel(self) -> ScenarioResult:
        """Shard, speculate, then replay the canonical order.

        The replay runs the *actual* serial loop (``_run_point``) with a
        playback rounds-provider serving the workers' recorded sample
        vectors, so per-point metrics and counters are serial by
        construction; only a point a shard speculatively reused but the
        canonical order must simulate falls through to the real rounds.
        """
        points = list(self.scenario.space.points())
        slices = shard_slices(len(points), self.workers)
        shards = [points[s] for s in slices]
        context = _ScenarioShardContext(self._clone_serial, shards)
        columns = tuple(self.scenario.output_columns)
        outcomes, resumed, report = run_shards(
            _run_scenario_shard,
            context,
            len(shards),
            self.workers,
            policy=self.supervision,
            checkpoint=self.checkpoint,
            config=lambda: self._checkpoint_config(points, shards),
            encode=partial(_encode_scenario_outcome, columns),
            decode=partial(_decode_scenario_outcome, columns),
        )
        parallel = ParallelStats(
            workers=self.workers,
            shard_sizes=tuple(len(records) for records, _ in outcomes),
            shard_samples_drawn=sum(
                stats.rounds_executed for _, stats in outcomes
            ),
            shard_stats=[stats for _, stats in outcomes],
            shards_resumed=resumed,
            supervision=report,
        )
        shard_bases = sum(stats.bases_created for _, stats in outcomes)
        records = [
            record for shard_records, _ in outcomes
            for record in shard_records
        ]
        cursor = {"index": -1, "resimulated": -1}

        def playback_rounds(
            point: Dict[str, float], count: int, start: int
        ) -> Dict[str, np.ndarray]:
            if start == 0:  # fingerprint rounds open each point's replay
                cursor["index"] += 1
                return records[cursor["index"]].fingerprints
            record = records[cursor["index"]]
            if record.samples is not None:
                # Serve the requested round range; an adaptive budget asks
                # for several blocks per point, each a slice of the
                # shard's recorded draw (identical schedule by purity of
                # the stopping rule in the sample values).
                return {
                    column: samples[start:start + count]
                    for column, samples in record.samples.items()
                }
            if cursor["resimulated"] != cursor["index"]:
                # Count resimulated points, not completion calls.
                cursor["resimulated"] = cursor["index"]
                parallel.points_resimulated += 1
            return self._simulate_rounds(point, count, start)

        result = ScenarioResult()
        for point in points:
            key = param_key(point)
            result.points[key] = dict(point)
            metrics, _ = self._run_point(
                point, result.stats, simulate_rounds=playback_rounds
            )
            result.metrics[key] = metrics
            result.stats.points_total += 1
        adopted = (
            result.stats.bases_created
            - parallel.points_resimulated
            * len(self.scenario.output_columns)
        )
        parallel.bases_collapsed = shard_bases - adopted
        result.parallel = parallel
        return result

    def _simulate_rounds(
        self, point: Dict[str, float], count: int, start: int
    ) -> Dict[str, np.ndarray]:
        """``count`` Monte Carlo rounds for every column, batched when the
        scenario plan supports it (bit-identical to the per-seed loop)."""
        seeds = self.seed_bank.seed_array(count, start=start)
        try:
            columns = self.scenario.simulate_batch(point, seeds)
            return {
                name: np.asarray(values, dtype=float)
                for name, values in columns.items()
            }
        except BatchUnsupported:
            rows = [
                self.scenario.simulate(point, int(seed)) for seed in seeds
            ]
            return {
                column: np.array(
                    [row[column] for row in rows], dtype=float
                )
                for column in self.scenario.output_columns
            }

    def _run_point(
        self,
        point: Dict[str, float],
        stats: RunnerStats,
        simulate_rounds=None,
    ) -> Tuple[Dict[str, MetricSet], _ScenarioPointRecord]:
        """One point of the sweep: probe, reuse or fully simulate.

        ``simulate_rounds`` optionally overrides :meth:`_simulate_rounds`
        — the parallel replay injects a playback provider here so this
        exact code path (and its accounting) serves both modes.
        """
        if simulate_rounds is None:
            simulate_rounds = self._simulate_rounds
        columns = self.scenario.output_columns
        m = self.fingerprint_size

        # Fingerprint rounds (double as the first m simulation rounds).
        column_values = simulate_rounds(point, m, 0)
        stats.rounds_executed += m

        if self.use_fingerprints:
            # One columnar probe per column, short-circuiting on the first
            # unmappable column (each column has its own store, and the
            # scalar-identical counters require that stores past the first
            # miss are *not* probed — so this cannot be one cross-store
            # match_batch call).
            matches: Dict[str, Tuple[object, Mapping]] = {}
            for column in columns:
                fingerprint = Fingerprint(column_values[column])
                matched = self._stores[column].match(fingerprint)
                if matched is None:
                    break
                matches[column] = matched
            if len(matches) == len(columns):
                stats.points_reused += 1
                return (
                    {
                        column: self._stores[column].metrics_for(
                            basis, mapping  # type: ignore[arg-type]
                        )
                        for column, (basis, mapping) in matches.items()
                    },
                    _ScenarioPointRecord(column_values, None),
                )

        # Full simulation: complete the remaining rounds and register bases.
        # One Monte Carlo round costs every column jointly, so the adaptive
        # stopping decision is joint too: rounds keep growing until EVERY
        # column's confidence interval is inside tolerance (or the fixed
        # budget is exhausted) — mirroring how one unmappable column forces
        # the whole row's simulation in the reuse decision.
        if self.adaptive is None:
            remaining = simulate_rounds(point, self.samples_per_point - m, m)
            stats.rounds_executed += self.samples_per_point - m
            column_samples = {
                column: np.concatenate(
                    [column_values[column], remaining[column]]
                )
                for column in columns
            }
        else:
            cap = max(m, self.adaptive.cap(self.samples_per_point))
            column_samples = {
                column: np.asarray(column_values[column], dtype=float)
                for column in columns
            }
            size = m
            while size < cap and not all(
                self.adaptive.satisfied_by(column_samples[column])
                for column in columns
            ):
                target = next_target(size, cap, self.adaptive)
                block = simulate_rounds(point, target - size, size)
                column_samples = {
                    column: np.concatenate(
                        [column_samples[column], block[column]]
                    )
                    for column in columns
                }
                size = target
            stats.rounds_executed += size - m

        metrics: Dict[str, MetricSet] = {}
        for column in columns:
            samples = column_samples[column]
            fingerprint = Fingerprint(samples[:m])
            if self.use_fingerprints:
                basis = self._stores[column].add(fingerprint, samples)
                stats.bases_created += 1
                metrics[column] = basis.metrics
            else:
                metrics[column] = self.estimator.estimate(samples)
        return metrics, _ScenarioPointRecord(column_values, column_samples)


def boolean_column_families(
    scenario: Scenario, boolean_columns: Tuple[str, ...]
) -> Dict[str, MappingFamily]:
    """Convenience: identity-only matching for indicator columns."""
    families: Dict[str, MappingFamily] = {}
    for column in boolean_columns:
        if column not in scenario.output_columns:
            raise ValueError(f"unknown column {column!r}")
        families[column] = IdentityMappingFamily()
    return families
