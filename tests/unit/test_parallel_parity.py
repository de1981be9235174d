"""Parity suite for the sharded parallel sweep engine.

The engine's contract (ISSUE 2): per-point ``metrics`` of
:class:`~repro.core.parallel.ParallelExplorer` are **bit-identical** to the
serial :class:`~repro.core.explorer.ParameterExplorer` — reuse *decisions*
may in principle differ across shard counts, estimates may not.  The
replay-merge implementation actually guarantees the stronger property that
decisions, basis ids, mappings, and counters all match too, and these tests
pin the stronger property so a regression in the merge shows up as loudly
as possible.

Runs workers in {1, 2, 4} over two black-box models and two index
strategies, plus the merge APIs (``BasisStore.merge`` /
``FingerprintIndex.merge``), picklable seed slices, per-worker cache init,
the sharded scenario runner, and the CLI plumbing.
"""

import pickle

import numpy as np
import pytest

import repro.core.basis as basis_module
import repro.core.explorer as explorer_module
from repro.blackbox import draws
from repro.core.basis import BasisStore
from repro.core.explorer import (
    ExplorerStats,
    NaiveExplorer,
    ParameterExplorer,
)
from repro.core.fingerprint import Fingerprint
from repro.core.index import ArrayIndex, NormalizationIndex, SortedSIDIndex
from repro.core.mapping import IdentityMappingFamily
from repro.core.parallel import (
    ParallelExplorer,
    fork_available,
    run_shards,
    shard_slices,
)
from repro.core.seeds import SeedBank, SeedSlice
from repro.bench.workloads import (
    capacity_workload,
    overload_workload,
    user_selection_workload,
)
from repro.errors import IndexError_
from repro.scenario import ScenarioRunner
from repro.lang import compile_query
from repro.blackbox import default_registry

WORKER_COUNTS = (1, 2, 4)

WORKLOADS = {
    "capacity": lambda: capacity_workload(weeks=10, purchase_step=4),
    "user_selection": lambda: user_selection_workload(
        weeks=6, user_count=50
    ),
}

INDEX_STRATEGIES = ("normalization", "sorted_sid")


def _serial_run(workload_factory, strategy, samples=60):
    workload = workload_factory()
    explorer = ParameterExplorer(
        workload.simulation(),
        samples_per_point=samples,
        fingerprint_size=workload.fingerprint_size,
        index_strategy=strategy,
    )
    return workload, explorer.run(workload.points)


def _parallel_run(workload_factory, strategy, workers, samples=60):
    workload = workload_factory()
    explorer = ParallelExplorer(
        workload.simulation(),
        workers=workers,
        samples_per_point=samples,
        fingerprint_size=workload.fingerprint_size,
        index_strategy=strategy,
    )
    return workload, explorer.run(workload.points)


class TestParallelExplorerParity:
    """workers x models x index strategies: bit-identical to serial."""

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("model", sorted(WORKLOADS))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_metrics_bit_identical(self, model, strategy, workers):
        factory = WORKLOADS[model]
        _, serial = _serial_run(factory, strategy)
        _, parallel = _parallel_run(factory, strategy, workers)
        assert len(parallel) == len(serial)
        for key, serial_point in serial.points.items():
            point = parallel.points[key]
            # MetricSet is a frozen dataclass: == is exact float equality
            # on every metric (expectation, stddev, extrema, quantiles).
            assert point.metrics == serial_point.metrics, (model, key)
            assert point.reused == serial_point.reused
            assert point.basis_id == serial_point.basis_id
            assert point.mapping == serial_point.mapping
            assert (
                point.fingerprint.values == serial_point.fingerprint.values
            )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_counters_shard_invariant(self, workers):
        _, serial = _serial_run(WORKLOADS["capacity"], "normalization")
        _, parallel = _parallel_run(
            WORKLOADS["capacity"], "normalization", workers
        )
        assert parallel.stats == serial.stats

    def test_identity_family_boolean_output(self):
        """Overload's 0/1 output (identity-only matching, array index)."""
        workload = overload_workload(weeks=8, purchase_step=4)
        serial = ParameterExplorer(
            workload.simulation(),
            samples_per_point=40,
            fingerprint_size=workload.fingerprint_size,
            basis_store=BasisStore(mapping_family=IdentityMappingFamily()),
        ).run(workload.points)
        for workers in (2, 4):
            workload = overload_workload(weeks=8, purchase_step=4)
            parallel = ParallelExplorer(
                workload.simulation(),
                workers=workers,
                samples_per_point=40,
                fingerprint_size=workload.fingerprint_size,
                mapping_family=IdentityMappingFamily(),
            ).run(workload.points)
            for key, serial_point in serial.points.items():
                assert parallel.points[key].metrics == serial_point.metrics

    def test_parallel_stats_account_for_speculation(self):
        _, serial = _serial_run(WORKLOADS["capacity"], "normalization")
        _, parallel = _parallel_run(
            WORKLOADS["capacity"], "normalization", workers=4
        )
        stats = parallel.parallel
        assert stats is not None
        assert stats.workers == 4
        assert sum(stats.shard_sizes) == serial.stats.points_total
        # Shards speculate: each one re-creates bases the serial order
        # reuses, and the merge collapses exactly that duplication.
        assert stats.shard_samples_drawn >= serial.stats.samples_drawn
        assert stats.bases_collapsed > 0
        assert stats.points_resimulated >= 0

    def test_matches_naive_where_serial_does(self):
        """End-to-end sanity: parity also transfers serial-vs-naive
        equivalence to the parallel engine."""
        workload = WORKLOADS["capacity"]()
        naive = NaiveExplorer(
            workload.simulation(), samples_per_point=60
        ).run(workload.points)
        assert naive.stats.points_total == len(workload.points)
        assert naive.stats.samples_drawn == 60 * len(workload.points)
        _, parallel = _parallel_run(
            WORKLOADS["capacity"], "normalization", workers=2
        )
        assert parallel.stats.samples_drawn < naive.stats.samples_drawn

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_duplicate_points_stay_aligned(self, workers):
        """Regression: worker records are built per *visited* point, so a
        space containing repeated parameter points must not collapse in
        the shard payload and misalign (or truncate) the replay."""
        base = capacity_workload(weeks=6, purchase_step=4)
        points = base.points[:6] + base.points[:2] + base.points[3:5]
        serial = ParameterExplorer(
            capacity_workload(weeks=6, purchase_step=4).simulation(),
            samples_per_point=40,
            fingerprint_size=10,
        ).run(points)
        parallel = ParallelExplorer(
            capacity_workload(weeks=6, purchase_step=4).simulation(),
            workers=workers,
            samples_per_point=40,
            fingerprint_size=10,
        ).run(points)
        assert parallel.stats == serial.stats
        assert len(parallel) == len(serial)
        for key, serial_point in serial.points.items():
            assert parallel.points[key].metrics == serial_point.metrics
            assert parallel.points[key].reused == serial_point.reused

    @staticmethod
    def _explorer(cls=ParameterExplorer, **extra):
        return cls(
            capacity_workload(weeks=10, purchase_step=4).simulation(),
            samples_per_point=40,
            fingerprint_size=10,
            # Every basis is a candidate: lists reach the kernel cutover,
            # so the sweep's block probes really speculate.
            index_strategy="array",
            **extra,
        )

    def _per_point_reference(self, points):
        """One-probe blocks per visit — the single-probe form: a block of
        one reads nothing ahead, so each probe is ``store.match``."""
        explorer = self._explorer()
        stats = ExplorerStats()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(explorer_module, "BLOCK_PROBES", 1)
            visits = list(explorer.explore(points))
        for visit in visits:
            stats.record(visit)
        return explorer, visits, stats

    @pytest.mark.parametrize("block", (4, None))
    @pytest.mark.parametrize("workers", (None,) + WORKER_COUNTS)
    def test_duplicates_straddling_a_block_boundary(
        self, workers, block, monkeypatch
    ):
        """A first visit that misses at the end of one block, its repeat
        opening the next (a reuse the block could not have speculated), a
        repeat inside the same block (the appended-tail path): every
        visit decides as the per-point sweep does, sharded or not."""
        base = capacity_workload(weeks=10, purchase_step=4).points
        if block is None:
            block = explorer_module.BLOCK_PROBES
        else:
            monkeypatch.setattr(explorer_module, "BLOCK_PROBES", block)
        # The serial sweep simulates points 9, 10 and 12 of this workload
        # in full: each is a first visit wherever it is put.
        points = base[:9] * 8
        points = (
            points[: block - 1]
            + [base[9], base[9]]  # last of one block, first of the next
            + points[block - 1 : 2 * block - 1]
            + [base[10], base[12], base[10], base[12]]  # inside one block
            + base
        )
        reference, visits, stats = self._per_point_reference(points)
        assert not visits[block - 1].reused and visits[block].reused
        if workers is None:
            speculated = []
            speculate = basis_module.BlockProbe._speculate
            monkeypatch.setattr(
                basis_module.BlockProbe,
                "_speculate",
                lambda self, *args: (
                    speculated.append(1), speculate(self, *args)
                ),
            )
            explorer = self._explorer()
            got = list(explorer.explore(points))
            assert speculated
            assert [
                (v.reused, v.basis_id, v.mapping, v.metrics) for v in got
            ] == [
                (v.reused, v.basis_id, v.mapping, v.metrics) for v in visits
            ]
            explorer = self._explorer()
        else:
            explorer = self._explorer(ParallelExplorer, workers=workers)
        result = explorer.run(points)
        assert result.stats == stats
        assert explorer.store.stats.as_dict() == (
            reference.store.stats.as_dict()
        )
        assert [b.hits for b in explorer.store.bases] == [
            b.hits for b in reference.store.bases
        ]
        for visit in visits:
            point = result.result(visit.params)
            assert point.metrics == visit.metrics

    @pytest.mark.parametrize("workers", (None,) + WORKER_COUNTS)
    def test_lazy_generator_as_space(self, workers):
        base = capacity_workload(weeks=10, purchase_step=4).points
        points = base + base[:40]
        _, visits, stats = self._per_point_reference(points)
        explorer = (
            self._explorer()
            if workers is None
            else self._explorer(ParallelExplorer, workers=workers)
        )
        result = explorer.run(dict(params) for params in points)
        assert result.stats == stats
        for visit in visits:
            assert result.result(visit.params).metrics == visit.metrics

    def test_explore_walks_the_space_a_block_at_a_time(self):
        base = capacity_workload(weeks=10, purchase_step=4).points
        pulled = []

        def space():
            for params in base * 3:
                pulled.append(params)
                yield params

        visits = self._explorer().explore(space())
        next(visits)
        assert len(pulled) == explorer_module.BLOCK_PROBES
        for _ in range(explorer_module.BLOCK_PROBES):
            next(visits)
        assert len(pulled) == 2 * explorer_module.BLOCK_PROBES

    def test_explorer_honors_empty_basis_store(self):
        """Regression: an empty BasisStore is falsy (len() == 0), and the
        explorer used to drop it via ``basis_store or BasisStore(...)`` —
        silently discarding the caller's mapping family and index."""
        store = BasisStore(
            mapping_family=IdentityMappingFamily(), index_strategy="array"
        )
        explorer = ParameterExplorer(
            lambda p, s: 0.0, samples_per_point=20, basis_store=store
        )
        assert explorer.store is store

    def test_validates_constructor_arguments(self):
        with pytest.raises(ValueError):
            ParallelExplorer(lambda p, s: 0.0, workers=-1)
        with pytest.raises(ValueError):
            ParallelExplorer(lambda p, s: 0.0, fingerprint_size=0)
        with pytest.raises(ValueError):
            ParallelExplorer(
                lambda p, s: 0.0, samples_per_point=5, fingerprint_size=10
            )


class TestShardStoresMirrorTheCanonicalStore:
    """``basis_store=`` alone configures the sweep: the shard-local stores
    are built like it (family, effective index strategy, tolerances,
    estimator).  They used to come from ``mapping_family=`` /
    ``index_strategy=`` instead, so a caller who gave the family once —
    on the store — had shards matching under the *linear* default: on this
    sweep they reused 69 of 84 points the identity-family replay then had
    to resimulate serially (right answers, sharding thrown away)."""

    POINTS = [{"point": float(i)} for i in range(84)]

    @staticmethod
    def _store(**overrides):
        return BasisStore(mapping_family=IdentityMappingFamily(), **overrides)

    def _sweeps(self, serial_store, sharded_store):
        from repro.blackbox.synth_basis import SynthBasisModel

        model = SynthBasisModel(basis_count=5)
        serial = ParameterExplorer(
            model, samples_per_point=60, basis_store=serial_store
        ).run(self.POINTS)
        sharded = ParallelExplorer(
            model, workers=3, samples_per_point=60, basis_store=sharded_store
        ).run(self.POINTS)
        return serial, sharded

    def test_shards_match_under_the_stores_family(self):
        serial, sharded = self._sweeps(self._store(), self._store())
        assert sharded.parallel.points_resimulated == 0
        assert sharded.stats == serial.stats
        assert [s.points_reused for s in sharded.parallel.shard_stats] == [
            0,
            0,
            0,
        ]
        for key, point in serial.points.items():
            assert sharded.points[key].metrics == point.metrics

    def test_a_session_opened_from_a_snapshot_is_mirrored_too(self, tmp_path):
        from repro.api import Session

        path = str(tmp_path / "identity-store")
        Session(self._store()).save(path)
        serial, sharded = self._sweeps(Session.open(path), Session.open(path))
        assert sharded.parallel.points_resimulated == 0
        assert sharded.stats == serial.stats

    def test_tolerances_and_effective_strategy_are_mirrored(self):
        explorer = ParallelExplorer(
            lambda p, s: 0.0,
            workers=2,
            basis_store=self._store(rel_tol=1e-3, abs_tol=1e-5),
        )
        shard_store = explorer._store_factory()
        assert shard_store is not explorer.store
        assert isinstance(shard_store.mapping_family, IdentityMappingFamily)
        # The effective strategy: normalization is downgraded to the scan
        # for a family without a normal form, on both sides.
        assert type(explorer.store.index) is ArrayIndex
        assert type(shard_store.index) is ArrayIndex
        assert (shard_store.rel_tol, shard_store.abs_tol) == (1e-3, 1e-5)
        assert shard_store.estimator is explorer.store.estimator


class TestShardSlices:
    def test_contiguous_cover(self):
        slices = shard_slices(10, 3)
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == list(range(10))

    def test_more_workers_than_points(self):
        slices = shard_slices(2, 8)
        assert len(slices) == 2

    def test_empty_space(self):
        assert shard_slices(0, 4) == []


def _fan_out(runner, context, shard_count, workers):
    """The outcomes of :func:`run_shards` with no checkpoint to resume."""
    outcomes, _, _ = run_shards(
        runner,
        context,
        shard_count,
        workers,
        policy=None,
        checkpoint=None,
        config=dict,
        encode=None,
        decode=None,
    )
    return outcomes


class TestRunShards:
    def test_inline_when_single_worker(self):
        calls = []

        def runner(context, index):
            calls.append(index)
            return context + index

        assert _fan_out(runner, 10, 3, workers=1) == [10, 11, 12]
        assert calls == [0, 1, 2]

    @pytest.mark.skipif(not fork_available(), reason="no fork on platform")
    def test_forked_results_match_inline(self):
        def runner(context, index):
            return context * index

        forked = _fan_out(runner, 3, 4, workers=4)
        inline = _fan_out(runner, 3, 4, workers=1)
        assert forked == inline == [0, 3, 6, 9]

    @pytest.mark.skipif(not fork_available(), reason="no fork on platform")
    def test_worker_exceptions_propagate(self):
        def runner(context, index):
            raise RuntimeError("shard failed")

        with pytest.raises(RuntimeError):
            _fan_out(runner, None, 2, workers=2)


class TestBasisStoreMerge:
    @staticmethod
    def _store_with(fingerprints, strategy="normalization"):
        store = BasisStore(index_strategy=strategy)
        for values in fingerprints:
            values = np.asarray(values, dtype=float)
            store.add(Fingerprint(values), np.tile(values, 3))
        return store

    def test_duplicates_collapse_into_mappings(self):
        base = [1.0, 2.0, 3.0, 5.0]
        left = self._store_with([base])
        # An affine image of the same fingerprint plus a genuinely new one.
        right = self._store_with(
            [[2 * v + 1 for v in base], [1.0, -4.0, 2.0, 9.0]]
        )
        translation = left.merge(right)
        assert len(left) == 2  # one collapsed, one adopted
        target_id, mapping = translation[0]
        assert target_id == 0
        assert mapping is not None
        mapped = mapping.apply_array(left.get(0).fingerprint.array)
        np.testing.assert_allclose(
            mapped, right.get(0).fingerprint.array, rtol=1e-9
        )
        adopted_id, adopted_mapping = translation[1]
        assert adopted_mapping is None
        np.testing.assert_array_equal(
            left.get(adopted_id).samples, right.get(1).samples
        )

    def test_merged_bases_are_probeable(self):
        left = self._store_with([[1.0, 2.0, 3.0, 5.0]])
        right = self._store_with([[1.0, -4.0, 2.0, 9.0]])
        left.merge(right)
        probe = Fingerprint(np.array([3.0, -7.0, 5.0, 19.0]))  # 2x + 1
        matched = left.match(probe)
        assert matched is not None
        basis, mapping = matched
        assert basis.basis_id == 1
        assert mapping.alpha == pytest.approx(2.0)

    def test_bulk_merge_without_reprobe(self):
        base = [1.0, 2.0, 3.0, 5.0]
        left = self._store_with([base])
        right = self._store_with([[2 * v + 1 for v in base]])
        translation = left.merge(right, reprobe=False)
        assert len(left) == 2  # duplicate kept: no collapsing requested
        assert translation[0] == (1, None)
        assert len(left.index) == 2

    @pytest.mark.parametrize("strategy", ("array", "sorted_sid"))
    def test_merge_under_other_strategies(self, strategy):
        left = self._store_with([[1.0, 2.0, 3.0, 5.0]], strategy)
        right = self._store_with([[0.0, 7.0, 1.0, 2.0]], strategy)
        left.merge(right, reprobe=False)
        probe = Fingerprint(np.array([0.0, 7.0, 1.0, 2.0]))
        matched = left.match(probe)
        assert matched is not None
        assert matched[0].basis_id == 1


class TestFingerprintIndexMerge:
    @staticmethod
    def _fingerprint(values):
        return Fingerprint(np.asarray(values, dtype=float))

    def test_array_index_translates_and_filters(self):
        left, right = ArrayIndex(), ArrayIndex()
        left.insert(self._fingerprint([1.0, 2.0]), 0)
        right.insert(self._fingerprint([3.0, 4.0]), 0)
        right.insert(self._fingerprint([5.0, 6.0]), 1)
        left.merge(right, {0: 7})  # id 1 collapsed away: not in the map
        assert left.candidates(self._fingerprint([0.0, 0.0])) == [0, 7]
        assert len(left) == 2

    def test_normalization_index_buckets_merge(self):
        left, right = NormalizationIndex(), NormalizationIndex()
        fp = self._fingerprint([1.0, 2.0, 4.0])
        affine_image = self._fingerprint([3.0, 5.0, 9.0])  # 2x + 1
        left.insert(fp, 0)
        right.insert(affine_image, 0)
        left.merge(right, {0: 1})
        assert left.candidates(fp) == [0, 1]

    def test_sorted_sid_index_buckets_merge(self):
        left, right = SortedSIDIndex(), SortedSIDIndex()
        fp = self._fingerprint([1.0, 3.0, 2.0])
        same_order = self._fingerprint([10.0, 30.0, 20.0])
        left.insert(fp, 0)
        right.insert(same_order, 5)
        left.merge(right, {5: 1})
        assert left.candidates(fp) == [0, 1]

    def test_strategy_mismatch_rejected(self):
        with pytest.raises(IndexError_):
            ArrayIndex().merge(NormalizationIndex(), {})


class TestSeedSlices:
    def test_materialize_matches_seed_array(self):
        bank = SeedBank(1234)
        sliced = bank.slice(16, start=10)
        np.testing.assert_array_equal(
            sliced.materialize(), bank.seed_array(16, start=10)
        )

    def test_round_trips_through_pickle(self):
        sliced = SeedBank(99).slice(8, start=2)
        clone = pickle.loads(pickle.dumps(sliced))
        assert clone == sliced
        np.testing.assert_array_equal(
            clone.materialize(), sliced.materialize()
        )
        assert clone.bank == SeedBank(99)
        assert len(clone) == 8

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            SeedBank().slice(-1)
        with pytest.raises(ValueError):
            SeedSlice(0, -1, 4)


class TestWorkerCacheInit:
    def test_initialize_worker_clears_and_rebounds(self):
        cache = draws.DEFAULT_DRAW_CACHE
        original_budget = cache.max_floats
        try:
            seeds = SeedBank(7).seed_array(4)
            cache.matrix(seeds, ("normal",))
            assert len(cache) > 0
            draws.initialize_worker(max_floats=1024)
            assert len(cache) == 0
            assert cache.max_floats == 1024
            # Entries are pure functions of their key: recomputation after
            # the reset is bit-identical.
            first = np.array(cache.matrix(seeds, ("normal",)))
            draws.initialize_worker()
            np.testing.assert_array_equal(
                first, cache.matrix(seeds, ("normal",))
            )
        finally:
            draws.initialize_worker(max_floats=original_budget)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            draws.initialize_worker(max_floats=-1)


SCENARIO_QUERY = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 14 STEP BY 1;
SELECT DemandModel(@current_week, 4) AS demand,
       CapacityModel(@current_week, 2, 6) AS capacity
INTO results;
"""


class TestScenarioRunnerWorkers:
    @pytest.fixture(scope="class")
    def bound(self):
        return compile_query(SCENARIO_QUERY, default_registry())

    @pytest.mark.parametrize("workers", (2, 4))
    def test_multi_column_parity(self, bound, workers):
        serial = ScenarioRunner(bound.scenario, samples_per_point=40).run()
        parallel = ScenarioRunner(
            bound.scenario, samples_per_point=40, workers=workers
        ).run()
        assert parallel.stats == serial.stats
        assert parallel.points == serial.points
        for key, columns in serial.metrics.items():
            assert parallel.metrics[key] == columns
        assert parallel.parallel is not None
        assert parallel.parallel.workers == workers

    def test_workers_validated(self, bound):
        with pytest.raises(ValueError):
            ScenarioRunner(bound.scenario, workers=0)


class TestCliWorkers:
    def test_run_with_workers_matches_serial_output(self, tmp_path, capsys):
        from repro.cli import main

        query = tmp_path / "scenario.sql"
        query.write_text(
            "DECLARE PARAMETER @current_week AS RANGE 0 TO 6 STEP BY 1;\n"
            "SELECT DemandModel(@current_week, 3) AS demand INTO results;\n"
        )
        assert main(["run", str(query), "--samples", "30"]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(["run", str(query), "--samples", "30", "--workers", "2"])
            == 0
        )
        parallel_out = capsys.readouterr().out
        # Same estimates line for line; the sharded run only adds its
        # worker annotation to the header.
        serial_lines = serial_out.splitlines()
        parallel_lines = parallel_out.splitlines()
        assert parallel_lines[0].startswith(serial_lines[0])
        assert "2 workers" in parallel_lines[0]
        assert parallel_lines[1:] == serial_lines[1:]
