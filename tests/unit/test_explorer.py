"""Unit tests for batch parameter exploration with fingerprint reuse."""

import pickle

import numpy as np
import pytest

from repro.blackbox.base import param_key
from repro.blackbox.demand import DemandModel
from repro.blackbox.rng import DeterministicRng
from repro.blackbox.synth_basis import SynthBasisModel
from repro.core.adaptive import AdaptiveBudget
from repro.core.basis import BasisStore, BlockProbe
from repro.core.estimator import Estimator
from repro.core.explorer import NaiveExplorer, ParameterExplorer
from repro.core.seeds import SeedBank
from repro.errors import EstimatorError


def linear_family_simulation(params, seed):
    """All points are affine images of one another: one basis suffices."""
    rng = DeterministicRng(seed)
    return rng.normal(params["mu"], params["sigma"])


def two_code_paths_simulation(params, seed):
    """Two genuinely different shapes: exactly two bases."""
    rng = DeterministicRng(seed)
    first = rng.normal()
    second = rng.normal()
    if params["mode"] < 1.0:
        return first
    return first * second + first


SPACE_LINEAR = [
    {"mu": float(mu), "sigma": float(sigma)}
    for mu in range(5)
    for sigma in (1.0, 2.0)
]


class TestReuse:
    def test_single_basis_for_affine_family(self):
        explorer = ParameterExplorer(
            linear_family_simulation, samples_per_point=60
        )
        result = explorer.run(SPACE_LINEAR)
        assert result.stats.bases_created == 1
        assert result.stats.points_reused == len(SPACE_LINEAR) - 1

    def test_two_bases_for_two_code_paths(self):
        points = [{"mode": 0.0}, {"mode": 1.0}, {"mode": 0.0}, {"mode": 1.0}]
        explorer = ParameterExplorer(
            two_code_paths_simulation, samples_per_point=40
        )
        result = explorer.run(points)
        assert result.stats.bases_created == 2
        assert result.stats.points_reused == 2

    def test_reused_point_records_mapping_and_basis(self):
        explorer = ParameterExplorer(
            linear_family_simulation, samples_per_point=60
        )
        result = explorer.run(SPACE_LINEAR)
        reused = [p for p in result.points.values() if p.reused]
        assert reused
        for point in reused:
            assert point.mapping is not None
            assert point.basis_id == 0

    def test_sample_accounting(self):
        explorer = ParameterExplorer(
            linear_family_simulation,
            samples_per_point=60,
            fingerprint_size=10,
        )
        result = explorer.run(SPACE_LINEAR)
        expected_fingerprint = 10 * len(SPACE_LINEAR)
        expected_full = (60 - 10) * result.stats.bases_created
        assert result.stats.fingerprint_samples == expected_fingerprint
        assert result.stats.full_samples == expected_full
        assert result.stats.samples_drawn == (
            expected_fingerprint + expected_full
        )

    def test_reuse_fraction(self):
        explorer = ParameterExplorer(
            linear_family_simulation, samples_per_point=60
        )
        result = explorer.run(SPACE_LINEAR)
        assert result.stats.reuse_fraction == pytest.approx(
            (len(SPACE_LINEAR) - 1) / len(SPACE_LINEAR)
        )


class TestEquivalenceWithNaive:
    """Paper section 6.2: Jigsaw outputs are equivalent to full simulation."""

    def test_metrics_match_naive_exactly(self):
        bank = SeedBank(99)
        explorer = ParameterExplorer(
            linear_family_simulation, samples_per_point=80, seed_bank=bank
        )
        naive = NaiveExplorer(
            linear_family_simulation, samples_per_point=80, seed_bank=bank
        )
        jigsaw_result = explorer.run(SPACE_LINEAR)
        naive_result = naive.run(SPACE_LINEAR)
        for point in SPACE_LINEAR:
            jig = jigsaw_result.metrics(point)
            ref = naive_result[param_key(point)]
            assert jig.approx_equals(ref, rel_tol=1e-8), point

    def test_demand_model_equivalence(self):
        box = DemandModel()
        points = [
            {"current_week": float(week), "feature_release": 6.0}
            for week in range(12)
        ]
        explorer = ParameterExplorer(box.sample, samples_per_point=50)
        naive = NaiveExplorer(box.sample, samples_per_point=50)
        jigsaw_result = explorer.run(points)
        naive_result = naive.run(points)
        for point in points:
            assert jigsaw_result.metrics(point).approx_equals(
                naive_result[param_key(point)], rel_tol=1e-8
            )


class TestValidation:
    def test_fingerprint_size_bounds(self):
        with pytest.raises(ValueError):
            ParameterExplorer(linear_family_simulation, fingerprint_size=0)
        with pytest.raises(ValueError):
            ParameterExplorer(
                linear_family_simulation,
                samples_per_point=5,
                fingerprint_size=10,
            )

    def test_result_lookup_api(self):
        explorer = ParameterExplorer(
            linear_family_simulation, samples_per_point=30
        )
        result = explorer.run(SPACE_LINEAR[:3])
        assert len(result) == 3
        point = SPACE_LINEAR[0]
        assert result.result(point).params == point
        assert result.metrics(point).count == 30


class _FailingSynth(SynthBasisModel):
    """SynthBasis whose completion rounds fail at one point (its
    fingerprint rounds, ten seeds, still draw): they raise, or with
    ``fill`` they are that value."""

    def __init__(self, fail_point, fill=None):
        super().__init__(basis_count=9)
        self.fail_point = fail_point
        self.fill = fill

    def _sample_batch(self, params, seeds):
        if params["point"] == self.fail_point and len(seeds) > 10:
            if self.fill is not None:
                return np.full(len(seeds), self.fill)
            raise RuntimeError(f"no completion at {self.fail_point}")
        return super()._sample_batch(params, seeds)

    def _sample_points(self, block, seeds):
        if len(seeds) > 10 and any(
            params["point"] == self.fail_point for params in block
        ):
            return None  # the loop draws, and raises, point by point
        return super()._sample_points(block, seeds)


def _failed_sweep(simulation, calls, estimator, adaptive, planned):
    """Sweep 40 SynthBasis points (nine classes, so the first nine miss)
    into a fresh store, either as the explorer does or with every block
    answered per point (no plan); returns what the failure left."""
    store = BasisStore(estimator=estimator)
    explorer = ParameterExplorer(
        simulation,
        samples_per_point=60,
        fingerprint_size=10,
        basis_store=store,
        adaptive=adaptive,
    )
    with pytest.MonkeyPatch.context() as patch:
        if not planned:
            patch.setattr(BlockProbe, "plan", lambda self: None)
        with pytest.raises((RuntimeError, EstimatorError)) as caught:
            explorer.run([{"point": float(p)} for p in range(40)])
    return (
        str(caught.value),
        store.stats.as_dict(),
        store._next_id,
        [
            (
                b.basis_id,
                b.fingerprint.values,
                b.samples.tobytes(),
                pickle.dumps(b.metrics),
                b.hits,
            )
            for b in store.bases
        ],
        calls(),
    )


class TestFailedCompletionInAPlannedBlock:
    """A miss whose completion draw raises, inside a planned block,
    leaves the state the per-point loop leaves: the same exception, the
    misses before it added, every probe up to it accounted, nothing
    after it drawn."""

    @pytest.mark.parametrize("kind", ["box", "function"])
    def test_same_state_as_the_per_point_loop(self, kind):
        outcomes = []
        for planned in (True, False):
            box = _FailingSynth(fail_point=5.0)
            if kind == "box":
                simulation, calls = box, lambda: box.invocations
            else:
                counted = []

                def simulation(params, seed, counted=counted, box=box):
                    # A point's first ten calls are its fingerprint rounds.
                    counted.append(params["point"])
                    if counted.count(5.0) > 10 and params["point"] == 5.0:
                        raise RuntimeError("no completion at 5.0")
                    return box.sample(params, seed)

                calls = counted.__len__
            outcomes.append(
                _failed_sweep(simulation, calls, Estimator(), None, planned)
            )
        planned, per_point = outcomes
        assert planned == per_point
        assert "5.0" in planned[0]
        assert planned[1]["bases_created"] == 5  # points 0 to 4

    def test_the_block_was_planned(self):
        """The sweep above does take the plan (and its one points call)."""
        assert _plans(Estimator(), None) == [list(range(9))]

    @pytest.mark.parametrize(
        "estimator, adaptive",
        [
            (Estimator(histogram_bins=4), None),
            (Estimator(), AdaptiveBudget(rtol=0.05, min_samples=20)),
        ],
    )
    def test_adaptive_and_histogram_sweeps_take_no_plan(
        self, estimator, adaptive
    ):
        """Their misses are drawn, estimated and added point by point."""
        assert _plans(estimator, adaptive) == []


def _plans(estimator, adaptive):
    """The plans the failing sweep of :func:`_failed_sweep` makes."""
    plans = []
    plan = BlockProbe.plan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            BlockProbe,
            "plan",
            lambda self: plans.append(plan(self)) or plans[-1],
        )
        _failed_sweep(
            _FailingSynth(fail_point=5.0),
            lambda: None,
            estimator,
            adaptive,
            True,
        )
    return plans


def test_planned_misses_own_their_samples():
    """A planned block's misses are drawn as one matrix, but each basis
    owns its samples: none keeps its siblings' rows alive, and its
    ``nbytes`` is what freeing it returns."""
    store = BasisStore()
    explorer = ParameterExplorer(
        SynthBasisModel(basis_count=9),
        samples_per_point=60,
        fingerprint_size=10,
        basis_store=store,
    )
    result = explorer.run([{"point": float(p)} for p in range(40)])
    assert store.stats.bases_created == 9
    for basis in store.bases:
        assert basis.samples.base is None and basis.samples.flags.owndata
        assert basis.samples.shape == (60,)
    assert all(
        point.samples_drawn == (60 if not point.reused else 10)
        for point in result.points.values()
    )
