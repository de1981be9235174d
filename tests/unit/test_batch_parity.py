"""Scalar-vs-batch parity: the batch engine must be bit-identical.

The batch sampling subsystem's contract is that every vectorized path —
stream seeding, standard draws, black-box sampling, Markov stepping, and
the explorer's reuse decisions — produces *bitwise* the same numbers as the
scalar path it replaces.  These tests enforce that contract for every
built-in box and both Markov models, including the rare ziggurat-rejection
lanes that fall back to per-seed generators.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.blackbox import draws, fastrng
from repro.blackbox.base import MarkovModel
from repro.blackbox.capacity import CapacityModel
from repro.blackbox.demand import DemandModel
from repro.blackbox.draws import (
    DEFAULT_DRAW_CACHE,
    DERIVED_CHUNK_SEEDS,
    StandardDrawCache,
    derived_seed_array_cached,
)
from repro.blackbox.markov_branch import MarkovBranchModel
from repro.blackbox.markov_step import MarkovStepModel
from repro.blackbox.overload import OverloadModel
from repro.blackbox.rng import DeterministicRng
from repro.blackbox.synth_basis import SynthBasisModel
from repro.blackbox.user_selection import UserSelectionModel
from repro.core.adaptive import AdaptiveBudget
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator, MetricSet
from repro.core.explorer import BLOCK_PROBES, NaiveExplorer, ParameterExplorer
from repro.core.mapping import LinearMappingFamily
from repro.core.markov import MarkovJumpRunner, NaiveMarkovRunner
from repro.core.parallel import ParallelExplorer
from repro.core.seeds import SeedBank, derive_seed, derive_seed_array

BANK = SeedBank()
SEEDS = BANK.seed_array(64)


class TestFastRngStreamParity:
    def test_fast_path_self_test_passes(self):
        assert fastrng.fast_path_available()

    @pytest.mark.parametrize(
        "kinds",
        [
            (fastrng.KIND_UNIFORM,),
            (fastrng.KIND_NORMAL,),
            (fastrng.KIND_EXPONENTIAL,),
            (
                fastrng.KIND_NORMAL,
                fastrng.KIND_EXPONENTIAL,
                fastrng.KIND_EXPONENTIAL,
            ),
            (fastrng.KIND_UNIFORM,) * 6,
        ],
    )
    def test_draw_matrix_matches_deterministic_rng(self, kinds):
        # Enough seeds that ziggurat rejection lanes occur (~1.5%/draw).
        seeds = np.arange(4000, dtype=np.uint64)
        matrix = fastrng.draw_matrix(seeds, kinds)
        draw = {
            fastrng.KIND_UNIFORM: DeterministicRng.standard_uniform,
            fastrng.KIND_NORMAL: DeterministicRng.standard_normal,
            fastrng.KIND_EXPONENTIAL: DeterministicRng.standard_exponential,
        }
        for i in (0, 1, 17, 1234, 3999):
            rng = DeterministicRng(int(seeds[i]))
            expected = [draw[kind](rng) for kind in kinds]
            assert matrix[i].tolist() == expected

    def test_rejection_lanes_are_bitwise_exact(self):
        seeds = np.arange(30000, dtype=np.uint64)
        fast = fastrng.draw_matrix(seeds, (fastrng.KIND_NORMAL,))[:, 0]
        sample = np.random.default_rng(7).choice(30000, size=400, replace=False)
        for i in sample:
            assert fast[i] == DeterministicRng(int(i)).standard_normal()

    def test_seed_arrays_match_scalar_derivation(self):
        assert [int(s) for s in BANK.seed_array(50)] == BANK.seeds(50)
        matrix = BANK.step_seed_matrix(7, 5, start_step=3)
        for row, step in enumerate(range(3, 8)):
            for i in range(7):
                assert int(matrix[row, i]) == BANK.step_seed(i, step)
        assert int(derive_seed_array(9, np.arange(4))[3]) == derive_seed(9, 3)

    def test_derived_seed_cache_matches_uncached(self):
        derived = derived_seed_array_cached(SEEDS, 2)
        assert np.array_equal(derived, derive_seed_array(SEEDS, 2))
        again = derived_seed_array_cached(SEEDS, 2)
        assert again is derived  # memoized


BOX_CASES = [
    (
        DemandModel(),
        {"current_week": 20.0, "feature_release": 12.0},
    ),
    (
        DemandModel(),
        {"current_week": 5.0, "feature_release": 12.0},
    ),
    (
        CapacityModel(),
        {"current_week": 20.0, "purchase1": 8.0, "purchase2": 16.0},
    ),
    (
        CapacityModel(structure_size=0.0, weekly_failure_rate=0.01),
        {"current_week": 20.0, "purchase1": 8.0, "purchase2": 16.0},
    ),
    (
        OverloadModel(
            capacity=CapacityModel(base_capacity=10.0, purchase_volume=10.0)
        ),
        {"current_week": 30.0, "purchase1": 8.0, "purchase2": 16.0},
    ),
    (SynthBasisModel(basis_count=7), {"point": 23.0}),
    (SynthBasisModel(basis_count=3, work_per_sample=4), {"point": 5.0}),
    (UserSelectionModel(user_count=50), {"current_week": 6.0}),
]


class TestBlackBoxBatchParity:
    @pytest.mark.parametrize(
        "box,params", BOX_CASES, ids=lambda case: getattr(case, "name", "")
    )
    def test_sample_batch_bitwise_equals_scalar_loop(self, box, params):
        batch = box.sample_batch(params, SEEDS)
        scalars = [box.sample(params, int(seed)) for seed in SEEDS]
        assert batch.tolist() == scalars

    def test_batch_and_scalar_count_invocations_equally(self):
        box = DemandModel()
        params = {"current_week": 8.0, "feature_release": 3.0}
        box.sample_batch(params, SEEDS)
        assert box.invocations == len(SEEDS)
        for seed in SEEDS:
            box.sample(params, int(seed))
        assert box.invocations == 2 * len(SEEDS)

    def test_batch_validates_parameters_once(self):
        box = DemandModel()
        with pytest.raises(KeyError):
            box.sample_batch({"current_week": 1.0}, SEEDS)
        assert box.invocations == 0

    def test_scalar_fallback_used_without_native_batch(self):
        class LoopOnly(DemandModel):
            def _sample_batch(self, params, seeds):
                return None

        box = LoopOnly()
        params = {"current_week": 20.0, "feature_release": 12.0}
        assert (
            box.sample_batch(params, SEEDS).tolist()
            == DemandModel().sample_batch(params, SEEDS).tolist()
        )


def _bits(values):
    """Sign of zero included; NaN compares equal to NaN."""
    return [float(value).hex() for value in values]


#: Truncated like ``int(params["point"])`` truncates; 2**63 is one past
#: int64, which only the per-point loop can take.
POINT_VALUES = (0.0, 3.7, 5.0, 23.0, 399.0, 400.0, 1234567.0, 9.0)
PAST_INT64 = float(2**63)


def _loop_rows(box, block, seeds):
    return [_bits(box.sample_batch(params, seeds)) for params in block]


def _raised(call):
    with pytest.raises(Exception) as caught:
        call()
    return caught.type, str(caught.value)


class TestPointsAxisParity:
    """``sample_points`` row ``i`` is ``sample_batch(block[i], seeds)``,
    bit for bit, on the vectorised form and on the loop alike."""

    @pytest.mark.parametrize("work", [1, 3])
    @pytest.mark.parametrize("basis_count", [1, 7, 400])
    def test_synth_basis_rows_bitwise_equal_sample_batch(
        self, basis_count, work
    ):
        block = [{"point": value} for value in POINT_VALUES]
        vectorised = SynthBasisModel(basis_count, work_per_sample=work)
        looped = SynthBasisModel(basis_count, work_per_sample=work)
        assert vectorised._sample_points(block, SEEDS) is not None
        matrix = vectorised.sample_points(block, SEEDS)
        assert matrix.shape == (len(block), len(SEEDS))
        assert [_bits(row) for row in matrix] == _loop_rows(
            looped, block, SEEDS
        )
        assert vectorised.invocations == looped.invocations

    @pytest.mark.parametrize("basis_count", [1, 7, 400])
    def test_a_point_past_int64_takes_the_loop(self, basis_count):
        block = [{"point": 3.7}, {"point": PAST_INT64}, {"point": 0.0}]
        box = SynthBasisModel(basis_count)
        assert box._sample_points(block, SEEDS) is None
        matrix = box.sample_points(block, SEEDS)
        reference = SynthBasisModel(basis_count)
        assert [_bits(row) for row in matrix] == _loop_rows(
            reference, block, SEEDS
        )
        assert box.invocations == reference.invocations == 3 * len(SEEDS)

    def test_empty_block(self):
        box = SynthBasisModel(7)
        empty = box.sample_points([], SEEDS)
        assert empty.shape == (0, len(SEEDS)) and box.invocations == 0
        assert DemandModel().sample_points([], SEEDS).shape == (0, len(SEEDS))

    @pytest.mark.parametrize(
        "block",
        [
            [{"point": 2.0}, {"other": 1.0}],
            [{"point": 2.0}, {"point": -1.0}, {"point": 4.0}],
            [{"point": -3.0}, {}],
            [{"point": float("nan")}],
        ],
        ids=["missing", "negative", "negative-then-missing", "nan"],
    )
    def test_a_refused_block_raises_what_the_loop_raises(self, block):
        expected = _raised(
            lambda: [
                SynthBasisModel(7).sample_batch(params, SEEDS)
                for params in block
            ]
        )
        assert _raised(
            lambda: SynthBasisModel(7).sample_points(block, SEEDS)
        ) == expected

    @pytest.mark.parametrize(
        "box,params", BOX_CASES, ids=lambda case: getattr(case, "name", "")
    )
    def test_every_box_row_bitwise_equals_sample_batch(self, box, params):
        block = [dict(params), dict(params), dict(params)]
        for name in box.parameter_names:
            block[1][name] = block[1][name] + 1.0
        matrix = box.sample_points(block, SEEDS)
        assert [_bits(row) for row in matrix] == _loop_rows(box, block, SEEDS)

    def test_box_without_override_loops_over_sample_batch(self):
        box = DemandModel()
        block = [
            {"current_week": float(week), "feature_release": 6.0}
            for week in range(5)
        ]
        assert box._sample_points(block, SEEDS) is None
        matrix = box.sample_points(block, SEEDS)
        reference = DemandModel()
        assert [_bits(row) for row in matrix] == _loop_rows(
            reference, block, SEEDS
        )
        assert box.invocations == reference.invocations


@pytest.fixture
def cold_cache():
    """An empty draw cache, so the derived entries below are filled by
    the shapes under test."""
    DEFAULT_DRAW_CACHE.clear()
    yield
    DEFAULT_DRAW_CACHE.clear()


@functools.lru_cache(maxsize=None)
def _user_selection_scalars(user_count, seed_count, week=6.0, **constants):
    box = UserSelectionModel(user_count=user_count, **constants)
    return _bits(
        box.sample({"current_week": week}, int(seed))
        for seed in BANK.seed_array(seed_count)
    )


class TestUserSelectionBatchParity:
    """The batch path sums a cached (users x seeds) matrix; the scalar path
    adds user by user.  Summation order is where they can part: numpy sums
    a *single* column pairwise (from 8 rows up), which no test at one seed
    count could see."""

    @pytest.mark.parametrize(
        "seed_count",
        [1, 2, 3, 17, DERIVED_CHUNK_SEEDS, DERIVED_CHUNK_SEEDS + 1],
    )
    @pytest.mark.parametrize("user_count", [1, 8, 129, 500])
    def test_every_shape_bitwise_equals_scalar_loop(
        self, user_count, seed_count, cold_cache
    ):
        box = UserSelectionModel(user_count=user_count)
        params = {"current_week": 6.0}
        seeds = BANK.seed_array(seed_count)
        expected = _user_selection_scalars(user_count, seed_count)
        assert _bits(box.sample_batch(params, seeds)) == expected  # cold
        assert _bits(box.sample_batch(params, seeds)) == expected  # warm
        # Seeds as a plain list, and as a strided view of a longer array.
        assert _bits(box.sample_batch(params, seeds.tolist())) == expected
        strided = np.repeat(seeds, 2)[::2]
        assert not strided.flags["C_CONTIGUOUS"] or seed_count == 1
        assert _bits(box.sample_batch(params, strided)) == expected

    def test_empty_batch(self):
        box = UserSelectionModel(user_count=8)
        empty = box.sample_batch({"current_week": 6.0}, [])
        assert empty.shape == (0,) and box.invocations == 0

    @pytest.mark.parametrize(
        "week,constants",
        [
            (6.0, {"weekly_growth": -0.05}),  # inactive lanes are -0.0
            (40.0, {"weekly_growth": -0.05}),  # growth itself negative
            (20.0, {"weekly_growth": -0.05}),  # growth exactly zero
            (-3.0, {}),  # clamped to week 0
            (6.0, {"activity_probability": 0.0}),
            (6.0, {"activity_probability": 1.0}),
            (6.0, {"activity_probability": 0.0, "weekly_growth": -0.05}),
            (6.0, {"mean_requirement": -1.0}),  # most lanes clamp to zero
            (6.0, {"requirement_spread": 0.0}),
            # Non-finite growth: 0 * growth is NaN, so an inactive lane
            # must be skipped, not multiplied.
            (float("inf"), {}),
            (float("inf"), {"activity_probability": 0.0}),
            (float("nan"), {"activity_probability": 0.0}),
            (6.0, {"weekly_growth": float("inf")}),
            (6.0, {"weekly_growth": float("-inf"), "mean_requirement": -9.0}),
        ],
    )
    @pytest.mark.parametrize("seed_count", [1, 17])
    def test_every_accepted_input_bitwise_equals_scalar_loop(
        self, week, constants, seed_count
    ):
        box = UserSelectionModel(user_count=24, **constants)
        batch = box.sample_batch(
            {"current_week": week}, BANK.seed_array(seed_count)
        )
        assert _bits(batch) == _user_selection_scalars(
            24, seed_count, week, **constants
        )

    def test_all_inactive_is_positive_zero(self):
        box = UserSelectionModel(
            user_count=24, activity_probability=0.0, weekly_growth=-0.05
        )
        for week in (6.0, float("inf")):
            batch = box.sample_batch({"current_week": week}, SEEDS)
            assert _bits(batch) == [(0.0).hex()] * len(SEEDS)

    def test_invocations_count_every_seed_on_both_routes(self):
        box = UserSelectionModel(user_count=8)
        box.sample_batch({"current_week": 6.0}, SEEDS)
        box.sample_batch({"current_week": float("inf")}, SEEDS)
        assert box.invocations == 2 * len(SEEDS)


class _ScalarOnly(MarkovModel):
    """Wrap a Markov model, hiding its vectorized hooks (reference path)."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.name = inner.name

    def initial_state(self):
        return self.inner.initial_state()

    def _step(self, state, step_index, seed):
        return self.inner._step(state, step_index, seed)

    def output(self, state, step_index):
        return self.inner.output(state, step_index)


MARKOV_CASES = [
    MarkovStepModel(),
    MarkovBranchModel(branching=0.25, work_per_step=2),
]


class TestMarkovBatchParity:
    @pytest.mark.parametrize("model", MARKOV_CASES, ids=lambda m: m.name)
    def test_step_batch_bitwise_equals_scalar_loop(self, model):
        states = np.full(24, model.initial_state())
        states[4:9] = 3.0
        seeds = BANK.step_seed_array(np.arange(24), 11)
        batch = model.step_batch(states, 11, seeds)
        scalars = [
            model.step(float(state), 11, int(seed))
            for state, seed in zip(states, seeds)
        ]
        assert batch.tolist() == scalars

    @pytest.mark.parametrize("model", MARKOV_CASES, ids=lambda m: m.name)
    def test_run_block_with_planned_draws_matches_step_loop(self, model):
        states = np.full(16, model.initial_state())
        seed_matrix = BANK.step_seed_matrix(16, 6, start_step=2)
        draws = model.plan_step_draws(seed_matrix)
        trajectory = model.run_block(states, 2, seed_matrix, draws)
        current = [float(state) for state in states]
        for offset in range(6):
            current = [
                model.step(state, 2 + offset, int(seed))
                for state, seed in zip(current, seed_matrix[offset])
            ]
            assert trajectory[offset].tolist() == current

    @pytest.mark.parametrize("model", MARKOV_CASES, ids=lambda m: m.name)
    def test_output_batch_matches_scalar_output(self, model):
        states = np.linspace(-2.0, 40.0, 9)
        batch = model.output_batch(states, 5)
        assert batch.tolist() == [
            model.output(float(state), 5) for state in states
        ]

    def test_naive_runner_matches_scalar_only_model(self):
        vectorized = NaiveMarkovRunner(
            MarkovBranchModel(branching=0.1), instance_count=40
        ).run(30)
        scalar = NaiveMarkovRunner(
            _ScalarOnly(MarkovBranchModel(branching=0.1)), instance_count=40
        ).run(30)
        assert vectorized.states.tolist() == scalar.states.tolist()
        assert vectorized.step_invocations == scalar.step_invocations
        assert vectorized.full_steps == scalar.full_steps

    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda: MarkovStepModel(),
            lambda: MarkovBranchModel(branching=0.02),
        ],
        ids=["MarkovStep", "MarkovBranch"],
    )
    def test_jump_runner_matches_scalar_only_model(self, model_factory):
        vectorized = MarkovJumpRunner(
            model_factory(), instance_count=60, fingerprint_size=8
        ).run(50)
        scalar = MarkovJumpRunner(
            _ScalarOnly(model_factory()), instance_count=60, fingerprint_size=8
        ).run(50)
        assert vectorized.states.tolist() == scalar.states.tolist()
        assert vectorized.full_steps == scalar.full_steps
        assert [
            (jump.from_step, jump.to_step) for jump in vectorized.jumps
        ] == [(jump.from_step, jump.to_step) for jump in scalar.jumps]
        assert vectorized.step_invocations == scalar.step_invocations


def _strip_batch(box):
    """A scalar-only view of a box: forces the explorer's fallback loop."""

    def simulation(params, seed):
        return box.sample(params, seed)

    return simulation


class TestExplorerBatchParity:
    def _space(self):
        return [
            {"current_week": float(week), "feature_release": 6.0}
            for week in range(12)
        ]

    def test_explorer_reuse_decisions_match_scalar_path(self):
        batch_explorer = ParameterExplorer(
            DemandModel(), samples_per_point=40, fingerprint_size=10
        )
        scalar_explorer = ParameterExplorer(
            _strip_batch(DemandModel()), samples_per_point=40, fingerprint_size=10
        )
        batch_result = batch_explorer.run(self._space())
        scalar_result = scalar_explorer.run(self._space())
        assert batch_result.stats == scalar_result.stats
        for key, batch_point in batch_result.points.items():
            scalar_point = scalar_result.points[key]
            assert batch_point.reused == scalar_point.reused
            assert batch_point.basis_id == scalar_point.basis_id
            assert (
                batch_point.fingerprint.values
                == scalar_point.fingerprint.values
            )
            assert batch_point.metrics == scalar_point.metrics

    def test_user_selection_sweep_matches_scalar_path(self):
        """Nothing is reusable here: every point is simulated in full, the
        way perfbench's ``sweep_simulate`` runs it."""
        space = [{"current_week": float(week)} for week in (3, 11, 3, 40)]
        batch_box = UserSelectionModel(user_count=30)
        scalar_box = UserSelectionModel(user_count=30)
        batch_result = ParameterExplorer(
            batch_box, samples_per_point=40, fingerprint_size=10
        ).run(space)
        scalar_result = ParameterExplorer(
            _strip_batch(scalar_box), samples_per_point=40, fingerprint_size=10
        ).run(space)
        assert batch_result.stats == scalar_result.stats
        assert batch_box.invocations == scalar_box.invocations
        for key, batch_point in batch_result.points.items():
            assert batch_point.metrics == scalar_result.points[key].metrics

    def test_naive_explorer_metrics_match_scalar_path(self):
        params = {"current_week": 9.0, "feature_release": 6.0}
        batch = NaiveExplorer(DemandModel(), samples_per_point=50)
        scalar = NaiveExplorer(
            _strip_batch(DemandModel()), samples_per_point=50
        )
        assert batch.explore_point(params) == scalar.explore_point(params)


class _WithoutPointsAxis:
    """A box seen only through ``sample_batch``: the explorer then draws a
    block's fingerprint rounds one point at a time."""

    def __init__(self, box):
        self.sample_batch = box.sample_batch


def _synth_space():
    """Enough SynthBasis points that every shard of a four-worker sweep
    crosses a block, a fractional point that truncates onto a neighbour's
    class, and a revisited point."""
    rng = np.random.default_rng(25)
    values = rng.choice(900, size=4 * BLOCK_PROBES + 23, replace=False)
    space = [{"point": float(value)} for value in values]
    space[5] = {"point": float(values[5]) + 0.6}
    space[70] = dict(space[3])
    return space


def _point_bits(point):
    metrics = point.metrics
    mapping = point.mapping
    return (
        point.params,
        point.reused,
        point.basis_id,
        None if mapping is None else _bits((mapping.alpha, mapping.beta)),
        metrics.count,
        _bits(
            (metrics.expectation, metrics.stddev)
            + (metrics.minimum, metrics.maximum)
            + tuple(value for pair in metrics.quantiles for value in pair)
        ),
        _bits(point.fingerprint.values),
        point.samples_drawn,
    )


def _store_bits(store):
    return store.stats, [(basis.basis_id, basis.hits) for basis in store.bases]


class TestPointsAxisSweepParity:
    """A sweep that draws each block through ``sample_points`` decides,
    maps, estimates and counts exactly like one drawing point by point."""

    SAMPLES = 40

    @pytest.mark.parametrize("adaptive", [None, AdaptiveBudget(rtol=0.05)])
    def test_serial_sweep(self, adaptive):
        space = _synth_space()
        runs = []
        for simulation in (
            SynthBasisModel(basis_count=7),
            _WithoutPointsAxis(SynthBasisModel(basis_count=7)),
        ):
            explorer = ParameterExplorer(
                simulation,
                samples_per_point=self.SAMPLES,
                basis_store=BasisStore(mapping_family=LinearMappingFamily()),
                adaptive=adaptive,
            )
            points = list(explorer.explore(space))
            runs.append(
                ([_point_bits(p) for p in points], _store_bits(explorer.store))
            )
        assert runs[0] == runs[1]
        assert sum(bits[1] for bits in runs[0][0]) > len(space) // 2

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_sweep(self, workers):
        space = _synth_space()
        serial = ParameterExplorer(
            SynthBasisModel(basis_count=7),
            samples_per_point=self.SAMPLES,
            basis_store=BasisStore(mapping_family=LinearMappingFamily()),
        ).run(space)
        runs = []
        for simulation in (
            SynthBasisModel(basis_count=7),
            _WithoutPointsAxis(SynthBasisModel(basis_count=7)),
        ):
            explorer = ParallelExplorer(
                simulation,
                workers=workers,
                samples_per_point=self.SAMPLES,
                mapping_family=LinearMappingFamily(),
            )
            result = explorer.run(space)
            assert result.stats == serial.stats
            runs.append(
                (
                    [_point_bits(p) for p in result.points.values()],
                    _store_bits(explorer.store),
                    result.parallel.shard_stats,
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][0] == [_point_bits(p) for p in serial.points.values()]


class TestStandardDrawCache:
    def test_hit_returns_same_matrix(self):
        cache = StandardDrawCache()
        first = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,))
        second = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,))
        assert first is second
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1

    def test_matrices_are_read_only(self):
        cache = StandardDrawCache()
        matrix = cache.matrix(SEEDS, (fastrng.KIND_UNIFORM,))
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_budget_eviction_recomputes_identically(self):
        cache = StandardDrawCache(max_floats=128)
        first = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,)).copy()
        cache.matrix(SEEDS, (fastrng.KIND_UNIFORM,))
        cache.matrix(SEEDS, (fastrng.KIND_EXPONENTIAL,))
        again = cache.matrix(SEEDS, (fastrng.KIND_NORMAL,))
        assert np.array_equal(first, again)

    def test_oversized_requests_are_served_uncached(self):
        cache = StandardDrawCache(max_floats=4)
        matrix = cache.matrix(SEEDS, (fastrng.KIND_UNIFORM,))
        assert matrix.shape == (len(SEEDS), 1)
        assert len(cache) == 0


def _double_transposed(block):
    return (2.0 * block).T


class TestDerivedDrawTier:
    """``derived`` entries live in the same store, under the same rules,
    as the matrices they are computed from."""

    KINDS = (fastrng.KIND_UNIFORM, fastrng.KIND_NORMAL, fastrng.KIND_UNIFORM)

    def test_hit_returns_same_object_and_counts_as_a_hit(self):
        cache = StandardDrawCache()
        calls = []

        def build(block):
            calls.append(block.shape)
            return _double_transposed(block)

        first = cache.derived(SEEDS, self.KINDS, "double", build)
        second = cache.derived(SEEDS, self.KINDS, "double", build)
        assert first is second
        assert calls == [(len(SEEDS), 3)]
        assert cache.stats["hits"] == 1 and cache.stats["misses"] == 1
        # The draws it was built from are not kept beside it.
        assert cache.stats["entries"] == 1
        assert cache.stats["floats_cached"] == first.size

    def test_entries_are_read_only(self):
        cache = StandardDrawCache()
        entry = cache.derived(SEEDS, self.KINDS, "double", _double_transposed)
        with pytest.raises(ValueError):
            entry[0, 0] = 0.0

    def test_chunks_join_along_the_last_axis(self):
        seeds = BANK.seed_array(2 * DERIVED_CHUNK_SEEDS + 22)
        cache = StandardDrawCache()
        heights = []

        def build(block):
            heights.append(block.shape[0])
            return _double_transposed(block)

        entry = cache.derived(seeds, self.KINDS, "double", build)
        assert heights == [DERIVED_CHUNK_SEEDS, DERIVED_CHUNK_SEEDS, 22]
        assert entry.flags["C_CONTIGUOUS"]
        whole = _double_transposed(fastrng.draw_matrix(seeds, self.KINDS))
        assert entry.tobytes() == np.ascontiguousarray(whole).tobytes()

    def test_empty_seed_slice(self):
        entry = StandardDrawCache().derived(
            [], self.KINDS, "double", _double_transposed
        )
        assert entry.shape == (3, 0)

    def test_tag_tells_transforms_of_the_same_draws_apart(self):
        cache = StandardDrawCache()
        doubled = cache.derived(
            SEEDS, self.KINDS, "double", _double_transposed
        )
        plain = cache.derived(
            SEEDS, self.KINDS, "plain", lambda block: block.T
        )
        matrix = cache.matrix(SEEDS, self.KINDS)
        assert len(cache) == 3
        assert np.array_equal(plain, matrix.T)
        assert np.array_equal(doubled, 2.0 * plain)

    def test_floats_count_against_budget_and_eviction_rebuilds_identically(
        self,
    ):
        size = 3 * len(SEEDS)
        cache = StandardDrawCache(max_floats=2 * size)
        first = cache.derived(SEEDS, self.KINDS, "double", _double_transposed)
        first_bytes = first.tobytes()
        assert cache.stats["floats_cached"] == size
        cache.matrix(SEEDS, self.KINDS)
        assert cache.stats["floats_cached"] == 2 * size
        # One more entry evicts the least recently used: the derived one.
        cache.derived(SEEDS, self.KINDS, "plain", lambda block: block.T)
        assert cache.stats["floats_cached"] == 2 * size and len(cache) == 2
        again = cache.derived(SEEDS, self.KINDS, "double", _double_transposed)
        assert again is not first
        assert again.tobytes() == first_bytes

    def test_a_hit_refreshes_lru_order(self):
        size = 3 * len(SEEDS)
        cache = StandardDrawCache(max_floats=2 * size)
        kept = cache.derived(SEEDS, self.KINDS, "double", _double_transposed)
        cache.matrix(SEEDS, self.KINDS)
        assert cache.derived(SEEDS, self.KINDS, "double", None) is kept
        cache.derived(SEEDS, self.KINDS, "plain", lambda block: block.T)
        # The matrix went, not the entry that was just read.
        assert cache.derived(SEEDS, self.KINDS, "double", None) is kept

    def test_oversized_entry_is_served_uncached(self):
        cache = StandardDrawCache(max_floats=4)
        entry = cache.derived(SEEDS, self.KINDS, "double", _double_transposed)
        assert entry.shape == (3, len(SEEDS))
        assert not entry.flags["WRITEABLE"]
        assert len(cache) == 0 and cache.stats["floats_cached"] == 0

    def test_clear_drops_derived_entries(self):
        cache = StandardDrawCache()
        cache.derived(SEEDS, self.KINDS, "double", _double_transposed)
        cache.clear()
        assert cache.stats == {
            "entries": 0, "floats_cached": 0, "hits": 0, "misses": 0
        }

    def test_initialize_worker_drops_derived_entries(self):
        DEFAULT_DRAW_CACHE.clear()
        box = UserSelectionModel(user_count=8)
        box.sample_batch({"current_week": 6.0}, SEEDS)
        assert DEFAULT_DRAW_CACHE.stats["floats_cached"] == 8 * len(SEEDS)
        draws.initialize_worker()
        assert len(DEFAULT_DRAW_CACHE) == 0
        assert DEFAULT_DRAW_CACHE.stats["floats_cached"] == 0

    @pytest.mark.parametrize(
        "constant,value",
        [
            ("activity_probability", 0.3),
            ("mean_requirement", 1.25),
            ("requirement_spread", 2.0),
        ],
    )
    def test_models_differing_in_one_constant_never_share_an_entry(
        self, constant, value
    ):
        DEFAULT_DRAW_CACHE.clear()
        params = {"current_week": 6.0}
        default = UserSelectionModel(user_count=24)
        other = UserSelectionModel(user_count=24, **{constant: value})
        first = default.sample_batch(params, SEEDS)
        second = other.sample_batch(params, SEEDS)
        assert len(DEFAULT_DRAW_CACHE) == 2
        assert _bits(first) != _bits(second)
        assert _bits(second) == _user_selection_scalars(
            24, len(SEEDS), **{constant: value}
        )
        # The constants are read per call: changing one on a model that
        # has already sampled asks for the other model's entry, not its own.
        setattr(default, constant, value)
        assert _bits(default.sample_batch(params, SEEDS)) == _bits(second)
        assert len(DEFAULT_DRAW_CACHE) == 2
        assert DEFAULT_DRAW_CACHE.stats["hits"] == 1

    def test_cold_warm_and_just_evicted_calls_return_identical_bits(self):
        box = UserSelectionModel(user_count=24)
        params = {"current_week": 6.0}
        budget = DEFAULT_DRAW_CACHE.max_floats
        try:
            # Room for exactly one of this box's entries.
            draws.initialize_worker(max_floats=24 * len(SEEDS))
            cold = box.sample_batch(params, SEEDS)
            warm = box.sample_batch(params, SEEDS)
            assert DEFAULT_DRAW_CACHE.stats["hits"] == 1
            box.sample_batch(params, SEEDS[::-1])  # evicts the first entry
            assert len(DEFAULT_DRAW_CACHE) == 1
            evicted = box.sample_batch(params, SEEDS)
            assert DEFAULT_DRAW_CACHE.stats["hits"] == 1
        finally:
            draws.initialize_worker(max_floats=budget)
        assert _bits(cold) == _bits(warm) == _bits(evicted)
        assert _bits(cold) == _user_selection_scalars(24, len(SEEDS))


class TestQueryBatchParity:
    QUERY = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 8 STEP BY 4;
DECLARE PARAMETER @feature_release AS SET (4);
SELECT DemandModel(@current_week, @feature_release) AS demand,
       demand * 2.0 + 1.0 AS scaled,
       CASE WHEN demand > 8.0 THEN 1 ELSE 0 END AS high
INTO results;
"""

    def _scenario(self):
        from repro.blackbox.base import BlackBoxRegistry
        from repro.lang.binder import compile_query

        registry = BlackBoxRegistry()
        registry.register(DemandModel(), "DemandModel")
        return compile_query(self.QUERY, registry).scenario

    def test_simulate_batch_matches_per_world_simulate(self):
        scenario = self._scenario()
        params = {"current_week": 8.0, "feature_release": 4.0}
        seeds = BANK.seed_array(32)
        columns = scenario.simulate_batch(params, seeds)
        for k, seed in enumerate(seeds):
            row = scenario.simulate(params, int(seed))
            for name, values in columns.items():
                assert float(values[k]) == row[name], (name, k)

    def test_unreused_runner_matches_the_per_world_loop(self):
        # Paper Fig. 3's dashed box: every point runs the query in each
        # sampled world and the Estimator reduces the per-world answers.
        from repro.scenario import ScenarioRunner

        scenario = self._scenario()
        runner = ScenarioRunner(
            scenario, samples_per_point=40, use_fingerprints=False
        )
        result = runner.run()
        seeds = runner.seed_bank.seeds(40)
        assert len(result) == 3
        for key, params in result.points.items():
            for column in scenario.output_columns:
                looped = Estimator().estimate(
                    [scenario.simulate(params, seed)[column] for seed in seeds]
                )
                assert pickle.dumps(result.metrics[key][column]) == (
                    pickle.dumps(looped)
                ), (params, column)

    def test_column_simulation_exposes_matching_batch(self):
        scenario = self._scenario()
        params = {"current_week": 8.0, "feature_release": 4.0}
        simulation = scenario.column_simulation("demand")
        seeds = BANK.seed_array(16)
        batch = simulation.sample_batch(params, seeds)
        assert batch.tolist() == [
            simulation(params, int(seed)) for seed in seeds
        ]

    def test_fallback_rolls_back_composite_children_counters(self):
        from repro.blackbox import default_registry
        from repro.probdb import expressions as E
        from repro.probdb.query import Project, SingletonScan

        overload = default_registry().lookup("OverloadModel")
        demand, capacity = overload.component_boxes()
        def counters():
            return (
                overload.invocations,
                demand.invocations,
                capacity.invocations,
            )
        before = counters()
        mid = {}

        class Boom(E.Expression):
            def references(self):
                return ()

            def children(self):
                return ()

            def evaluate(self, context):
                return 0.0

            def evaluate_batch(self, context):
                mid["counters"] = counters()
                raise E.BatchUnsupported("boom")

        call = E.BlackBoxCall(
            box=overload,
            argument_names=("current_week", "purchase1", "purchase2"),
            arguments=(E.Constant(1.0), E.Constant(2.0), E.Constant(3.0)),
        )
        project = Project(
            child=SingletonScan(), items=[("o", call), ("g", Boom())]
        )
        with pytest.raises(E.BatchUnsupported):
            project.execute_batch({}, np.arange(8, dtype=np.uint64))
        # The batch really sampled the composite and its children ...
        assert mid["counters"] == tuple(c + 8 for c in before)
        # ... and the rollback restored every counter, children included.
        assert counters() == before


class TestQuantileTolerantLookup:
    def test_remapped_probability_stays_retrievable(self):
        metrics = MetricSet(
            count=10,
            expectation=0.0,
            stddev=1.0,
            minimum=-1.0,
            maximum=1.0,
            quantiles=((1.0 - 0.95, -1.5), (0.5, 0.0), (0.95, 1.5)),
        )
        # 1.0 - 0.95 = 0.050000000000000044 in IEEE arithmetic; the exact
        # 0.05 the caller asks for must still resolve.
        assert metrics.quantile(0.05) == -1.5
        assert metrics.quantile(0.95) == 1.5
