"""The MarkovStep black box (paper Figure 6 and section 4).

"A simple Markovian process simulating the behavior of Demand with a
Markovian dependency introduced between feature release and the prior date's
demand."

The chain's per-instance state is the feature release week (initially in the
future / "not yet released", encoded as the sentinel ``pending_release``).
At each step (week), demand is drawn from the Demand model conditioned on the
current release state; if demand crosses ``release_threshold`` while the
feature is unreleased, management releases it at that week.  Markovian
dependencies are therefore *infrequent*: exactly one discontinuity per
trajectory, surrounded by long regions where a state-frozen estimator is
valid — the structure the Markov-jump algorithm (Algorithm 4) exploits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.blackbox.base import MarkovModel
from repro.blackbox.demand import DemandModel
from repro.blackbox.draws import DEFAULT_DRAW_CACHE
from repro.blackbox.fastrng import KIND_NORMAL, draw_matrix


class MarkovStepModel(MarkovModel):
    """Demand process whose feature-release week depends on past demand.

    State encoding: the release week if released, else ``pending_release``
    (a large sentinel meaning "not released yet").  The observable output is
    the demand drawn for the step.
    """

    name = "MarkovStep"

    def __init__(
        self,
        release_threshold: float = 30.0,
        pending_release: float = 1.0e9,
        demand: DemandModel = None,
    ):
        super().__init__()
        self.release_threshold = release_threshold
        self.pending_release = pending_release
        self.demand = demand if demand is not None else DemandModel()

    def initial_state(self) -> float:
        return self.pending_release

    def demand_at(self, state: float, step_index: int, seed: int) -> float:
        """Demand for the step given the current release state."""
        return self.demand.sample(
            {"current_week": float(step_index), "feature_release": state},
            seed,
        )

    def _step(self, state: float, step_index: int, seed: int) -> float:
        demand_value = self.demand_at(state, step_index, seed)
        released = state < self.pending_release
        if not released and demand_value > self.release_threshold:
            return float(step_index)
        return state

    def demand_at_batch(
        self, states: np.ndarray, step_index: int, z: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`demand_at` from precomputed standard normals."""
        values = self.demand.values_from_draws(float(step_index), states, z)
        # Mirror the scalar path's bookkeeping: one Demand sample per lane.
        self.demand._invocations += int(states.shape[0])
        return values

    def _step_batch(
        self,
        states: np.ndarray,
        step_index: int,
        seeds: np.ndarray,
        draws: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        if draws is None:
            z = draw_matrix(seeds, (KIND_NORMAL,))[:, 0]
        else:
            z = np.asarray(draws, dtype=np.float64)
        demand_values = self.demand_at_batch(states, step_index, z)
        released = states < self.pending_release
        triggered = ~released & (demand_values > self.release_threshold)
        return np.where(triggered, float(step_index), states)

    def plan_step_draws(
        self, seed_matrix: np.ndarray
    ) -> Optional[np.ndarray]:
        flat = np.asarray(seed_matrix, dtype=np.uint64).reshape(-1)
        z = DEFAULT_DRAW_CACHE.matrix(flat, (KIND_NORMAL,))[:, 0]
        return z.reshape(np.asarray(seed_matrix).shape)

    def output_batch(
        self, states: np.ndarray, step_index: int
    ) -> np.ndarray:
        return np.asarray(states, dtype=np.float64).copy()

    def output(self, state: float, step_index: int) -> float:
        """Observable: the release week driving downstream demand.

        The jump evaluator compares outputs via fingerprints; observing the
        state directly (rather than the noisy demand draw) mirrors the
        paper's release-week chain in Figure 5.
        """
        return state
