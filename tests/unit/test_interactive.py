"""Unit tests for the online what-if engine (paper Algorithm 5)."""

import pytest

from repro.blackbox.rng import DeterministicRng
from repro.core.mapping import AffineMapping, PiecewiseLinearMapping
from repro.core.seeds import SeedBank
from repro.errors import InteractiveError
from repro.interactive.heuristics import (
    AdjacentExploreHeuristic,
    RoundRobinTaskHeuristic,
    TASK_EXPLORATION,
    TASK_REFINEMENT,
    TASK_VALIDATION,
)
from repro.interactive.session import InteractiveSession
from repro.scenario.parameter import RangeParameter
from repro.scenario.space import ParameterSpace


def linear_simulation(params, seed):
    """Every point is an affine image of every other: one shared basis."""
    rng = DeterministicRng(seed)
    return rng.normal(params["week"], 1.0 + 0.1 * params["week"])


def space():
    return ParameterSpace([RangeParameter("week", 0.0, 10.0, 1.0)])


def session(**kwargs):
    return InteractiveSession(
        linear_simulation,
        space(),
        fingerprint_size=10,
        chunk=10,
        seed_bank=SeedBank(5),
        **kwargs,
    )


class TestHeuristics:
    def test_round_robin_pattern(self):
        heuristic = RoundRobinTaskHeuristic(refinement_weight=2)
        tasks = [heuristic.next_task({}) for _ in range(8)]
        assert tasks[:4] == [
            TASK_REFINEMENT,
            TASK_REFINEMENT,
            TASK_VALIDATION,
            TASK_EXPLORATION,
        ]

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            RoundRobinTaskHeuristic(refinement_weight=0)

    def test_explore_heuristic_returns_neighbor(self):
        heuristic = AdjacentExploreHeuristic(space())
        neighbor = heuristic.next_point({"week": 5.0})
        assert neighbor["week"] in (4.0, 6.0)

    def test_explore_heuristic_empty_space(self):
        heuristic = AdjacentExploreHeuristic(ParameterSpace([]))
        assert heuristic.next_point({}) is None


class TestSessionLifecycle:
    def test_tick_before_focus_rejected(self):
        with pytest.raises(InteractiveError):
            session().tick()

    def test_focus_bootstraps_estimate(self):
        s = session()
        s.focus({"week": 3.0})
        estimate = s.estimate({"week": 3.0})
        assert estimate is not None
        assert estimate.count >= 10

    def test_estimate_unvisited_point_is_none(self):
        s = session()
        s.focus({"week": 3.0})
        assert s.estimate({"week": 9.0}) is None

    def test_validation_parameters(self):
        with pytest.raises(InteractiveError):
            InteractiveSession(
                linear_simulation, space(), fingerprint_size=1
            )
        with pytest.raises(InteractiveError):
            InteractiveSession(linear_simulation, space(), chunk=0)


class TestReuseAcrossPoints:
    def test_second_point_shares_basis(self):
        s = session()
        s.focus({"week": 2.0})
        s.focus({"week": 7.0})
        # The linear family maps week 7 onto week 2's basis: one basis only.
        assert len(s.store) == 1

    def test_refinement_grows_shared_basis(self):
        s = session()
        s.focus({"week": 2.0})
        before = s.sample_count({"week": 2.0})
        report = s.run(2)  # two refinement ticks under default weights
        assert all(r.task == TASK_REFINEMENT for r in report)
        assert s.sample_count({"week": 2.0}) == before + 20

    def test_refinement_improves_other_points_too(self):
        s = session()
        s.focus({"week": 2.0})
        s.focus({"week": 7.0})
        before = s.sample_count({"week": 7.0})
        s.focus({"week": 2.0})
        s.run(2)
        # weeks 2 and 7 share the basis, so week 7 got deeper too.
        assert s.sample_count({"week": 7.0}) > before


class TestTicks:
    def test_validation_tick_extends_fingerprint_without_rebind(self):
        s = session()
        s.focus({"week": 2.0})
        s.run(5)  # extend the basis well past the fingerprint
        reports = [s.tick() for _ in range(4)]
        validations = [r for r in reports if r.task == TASK_VALIDATION]
        assert validations
        assert not any(r.rebound for r in validations)

    def test_exploration_prefetches_neighbor(self):
        s = session()
        s.focus({"week": 5.0})
        reports = s.run(4)
        explorations = [r for r in reports if r.task == TASK_EXPLORATION]
        assert explorations
        explored_point = explorations[0].point
        assert explored_point["week"] in (4.0, 6.0)
        assert s.estimate(explored_point) is not None

    def test_estimates_converge_to_truth(self):
        s = session()
        s.focus({"week": 4.0})
        s.run(12)
        estimate = s.estimate({"week": 4.0})
        # True mean is 4; the progressive estimate should be near it.
        assert estimate.expectation == pytest.approx(4.0, abs=1.0)

    def test_tick_reports_shape(self):
        s = session()
        s.focus({"week": 4.0})
        report = s.tick()
        assert report.task in (
            TASK_REFINEMENT,
            TASK_VALIDATION,
            TASK_EXPLORATION,
        )
        assert report.samples_drawn >= 0


class _Always:
    """Task heuristic stub: every tick runs the one task."""

    def __init__(self, task):
        self.task = task

    def next_task(self, focused_point):
        return self.task


@pytest.mark.parametrize(
    "task, week",
    # Refinement recycles into the focused point's basis, exploration
    # into its (already attached) forward neighbour's.
    [(TASK_REFINEMENT, 2.0), (TASK_EXPLORATION, 3.0)],
)
class TestSampleRecycling:
    """Recycling new samples through M^-1: only a mapping without an
    inverse rebinds the point; anything else that fails is a real error."""

    def _attached(self, task, week):
        s = session(task_heuristic=_Always(task))
        s.focus({"week": 3.0})
        s.focus({"week": 2.0})
        return s, s._state({"week": week})

    @pytest.mark.parametrize(
        "mapping",
        [
            AffineMapping(0.0, 1.0),
            PiecewiseLinearMapping((0.0, 1.0, 2.0), (0.0, 1.0, 1.0)),
        ],
        ids=["degenerate-affine", "non-strict-piecewise"],
    )
    def test_mapping_without_inverse_rebinds(
        self, task, week, mapping, monkeypatch
    ):
        s, state = self._attached(task, week)
        state.mapping = mapping
        rebound = []
        monkeypatch.setattr(s, "_rebind_from_scratch", rebound.append)
        before = len(s.store.get(state.basis_id).samples)
        assert s.tick().samples_drawn == s.chunk
        assert rebound == [state]
        assert len(s.store.get(state.basis_id).samples) == before

    def test_extend_basis_failure_propagates(self, task, week, monkeypatch):
        s, _ = self._attached(task, week)

        def refuse(basis_id, new_samples):
            raise RuntimeError("cannot extend the basis")

        monkeypatch.setattr(s.store, "extend_basis", refuse)
        with pytest.raises(RuntimeError, match="cannot extend"):
            s.tick()


class TestMappedEstimates:
    def test_mapped_point_estimate_tracks_its_own_mean(self):
        s = session()
        s.focus({"week": 2.0})
        s.run(6)
        s.focus({"week": 8.0})
        estimate = s.estimate({"week": 8.0})
        # Week 8's estimate comes from week 2's basis through the mapping,
        # but must reflect week 8's distribution (mean 8).
        assert estimate.expectation == pytest.approx(8.0, abs=1.5)
