"""Batch scenario execution: naive and fingerprint-reusing modes.

A scenario sweep is the sweep of :mod:`repro.core.explorer` (serial) or
:mod:`repro.core.parallel` (sharded, supervised, checkpointed) — paper
Algorithm 3, the shard protocol, the canonical replay, the adaptive loop
and the checkpoint codec all live there, once.  What is particular to a
multi-column query (paper Figure 1) is here: one possible world computes
*all* output columns (one set of black-box invocations), so the engine's
simulation returns a rounds x columns block, and the engine's store is one
basis store per column whose reuse decision is joint — a point skips its
remaining rounds only when **every** column's fingerprint maps onto a
stored basis, and the probe stops at the first column that does not.
This is precisely why the paper's boolean Overload column halves the
achievable speedup of its query (section 6.2) — one unmappable column
forces the full simulation for the whole row.  The adaptive stopping rule
is joint the same way: :meth:`AdaptiveBudget.satisfied_by` on a block is
"every column satisfied".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.base import ParamKey, param_key
from repro.core.adaptive import AdaptiveBudget
from repro.core.basis import BasisDistribution, BasisStore, MatchResult
from repro.core.estimator import Estimator, MetricSet
from repro.core.explorer import ParameterExplorer
from repro.core.fingerprint import Fingerprint
from repro.core.parallel import ParallelExplorer, ParallelStats
from repro.core.supervise import SupervisionPolicy
from repro.core.mapping import (
    IdentityMappingFamily,
    LinearMappingFamily,
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


class _Rounds:
    """A scenario's Monte Carlo rounds as the engines' batch simulation."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def sample_batch(
        self, params: Mapping[str, float], seeds: np.ndarray
    ) -> np.ndarray:
        """One row per seed, one column per output column; batched when
        the scenario plan supports it (bit-identical to the per-seed
        loop)."""
        columns = self.scenario.output_columns
        try:
            drawn = self.scenario.simulate_batch(params, seeds)
            return np.column_stack([drawn[column] for column in columns])
        except BatchUnsupported:
            rows = [
                self.scenario.simulate(params, int(seed)) for seed in seeds
            ]
            return np.array(
                [[row[column] for column in columns] for row in rows],
                dtype=float,
            ).reshape(len(rows), len(columns))


class _JointFingerprint(tuple):
    """One fingerprint per column, all over the same fingerprint rounds."""

    def __new__(cls, values: np.ndarray):
        self = super().__new__(cls, map(Fingerprint, values.T))
        #: The rounds x columns block as drawn (what a shard ships).
        self.array = values
        self.size = len(values)
        return self


class _JointBasis(tuple):
    """The bases one fully simulated point left, one per column."""

    @property
    def basis_id(self) -> Tuple[int, ...]:
        return tuple(basis.basis_id for basis in self)

    @property
    def metrics(self) -> Tuple[MetricSet, ...]:
        return tuple(basis.metrics for basis in self)

    @property
    def samples(self) -> np.ndarray:
        return np.column_stack([basis.samples for basis in self])


class _JointProbe:
    """A block of joint probes: one :class:`BlockProbe` per column."""

    def __init__(
        self,
        stores: Sequence[BasisStore],
        fingerprints: Sequence[_JointFingerprint],
    ):
        self._handles = [
            store.block_probe([joint[column] for joint in fingerprints])
            for column, store in enumerate(stores)
        ]

    def plan(self) -> None:
        """No plan, so every joint probe goes through :meth:`match`: a
        column's handle accounts a lookup only when asked and the columns
        stop at the first miss, so no column can plan ahead of knowing
        the columns before it hit too."""
        return None

    def match(self, i: int) -> Tuple[Optional[MatchResult], int]:
        """Ask the columns in order and stop at the first miss: a handle
        accounts a lookup only when asked, so the stores past an
        unmappable column see none.  The tested count is always 0: the
        explorer reads only the result, and each column's store counts
        its own."""
        if not self._handles:  # a naive sweep reuses nothing
            return None, 0
        bases, mappings = [], []
        for handle in self._handles:
            matched = handle.match(i)[0]
            if matched is None:
                return None, 0
            bases.append(matched.basis)
            mappings.append(matched.mapping)
        return MatchResult(_JointBasis(bases), tuple(mappings)), 0


class _ColumnStores:
    """A scenario's per-column basis stores, standing in for one store
    under :class:`ParameterExplorer` / :class:`ParallelExplorer`.

    ``stores`` is ``None`` for a naive sweep, which never probes and never
    stores (each point's bases then live only until the next ``add``).
    Column order is ``columns``' — never a dict's, which for stores loaded
    from a snapshot is sorted by name.
    """

    fingerprint = _JointFingerprint

    def __init__(
        self,
        columns: Sequence[str],
        stores: Optional[Mapping[str, BasisStore]],
        estimator: Estimator,
    ):
        self.stores = (
            () if stores is None else tuple(stores[c] for c in columns)
        )
        self.estimator = estimator
        self.checkpoint_identity = {
            "columns": list(columns),
            "use_fingerprints": stores is not None,
        }

    def block_probe(
        self, fingerprints: Iterable[_JointFingerprint]
    ) -> _JointProbe:
        return _JointProbe(self.stores, list(fingerprints))

    def metrics_for(
        self, bases: _JointBasis, mappings: Sequence
    ) -> Tuple[MetricSet, ...]:
        return tuple(
            store.metrics_for(basis, mapping)
            for store, basis, mapping in zip(self.stores, bases, mappings)
        )

    def add(
        self, fingerprint: _JointFingerprint, samples: np.ndarray
    ) -> _JointBasis:
        columns = [np.ascontiguousarray(column) for column in samples.T]
        if self.stores:
            return _JointBasis(
                store.add(part, column)
                for store, part, column in zip(
                    self.stores, fingerprint, columns
                )
            )
        self._unstored = _JointBasis(
            BasisDistribution(
                -1, part, column, self.estimator.estimate(column)
            )
            for part, column in zip(fingerprint, columns)
        )
        return self._unstored

    def get(self, basis_id: Tuple[int, ...]) -> _JointBasis:
        """What ``add`` returned for ``basis_id`` (a shard ships its
        samples, stored or not)."""
        if not self.stores:
            return self._unstored
        return _JointBasis(map(BasisStore.get, self.stores, basis_id))


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
        self._stores = self._column_stores()

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

    def _column_stores(self) -> Dict[str, BasisStore]:
        """Fresh per-column stores as configured: the canonical ones and
        every shard's."""
        return {
            column: BasisStore(
                mapping_family=self._family_overrides.get(
                    column, LinearMappingFamily()
                ),
                index_strategy=self._index_strategy,
                estimator=self.estimator,
            )
            for column in self.scenario.output_columns
        }

    def _joint(self, stores: Mapping[str, BasisStore]) -> _ColumnStores:
        return _ColumnStores(
            self.scenario.output_columns,
            stores if self.use_fingerprints else None,
            self.estimator,
        )

    def run(self) -> ScenarioResult:
        columns = self.scenario.output_columns
        store = self._joint(self._stores)
        shared = dict(
            simulation=_Rounds(self.scenario),
            samples_per_point=self.samples_per_point,
            fingerprint_size=self.fingerprint_size,
            seed_bank=self.seed_bank,
            estimator=self.estimator,
            adaptive=self.adaptive,
            basis_store=store,
        )
        if (
            self.workers > 1
            or self.checkpoint is not None
            or self.supervision is not None
        ):
            # Checkpointed or supervised runs shard even with one worker:
            # shard records are the resumable unit, supervision watches
            # shard attempts, and the canonical replay makes the result
            # bit-identical to the serial loop regardless.
            engine = ParallelExplorer(
                workers=self.workers,
                store_factory=lambda: self._joint(self._column_stores()),
                supervision=self.supervision,
                checkpoint=self.checkpoint,
                **shared,
            )
        else:
            engine = ParameterExplorer(**shared)
        swept = engine.run(self.scenario.space.points())
        result = ScenarioResult(parallel=swept.parallel)
        for key, point in swept.points.items():
            result.points[key] = point.params
            result.metrics[key] = dict(zip(columns, point.metrics))
        # The engine counts a fully simulated point once; it left one
        # basis per column (none in a naive sweep).
        per_point = len(store.stores)
        result.stats = RunnerStats(
            points_total=swept.stats.points_total,
            points_reused=swept.stats.points_reused,
            rounds_executed=swept.stats.samples_drawn,
            bases_created=swept.stats.bases_created * per_point,
        )
        if swept.parallel is not None:
            swept.parallel.bases_collapsed *= per_point
        return result


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
