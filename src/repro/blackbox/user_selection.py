"""The UserSelection black box (paper Figure 6 and section 6.1).

"The UserSim black box simulates the per-user requirements of each of a set
of users."  This is the *data-dependent* model of the evaluation: one sample
touches a row per user, so its cost is dominated by bulk data handling rather
than model logic.  The paper uses it to show where the DBMS-backed prototype
beats the lightweight engine (Figure 7's last row); our wrapper engine takes
the vectorized bulk path while the core engine loops per user in Python,
preserving that crossover.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.blackbox.base import BlackBox, Params
from repro.blackbox.draws import DEFAULT_DRAW_CACHE
from repro.blackbox.fastrng import KIND_UNIFORM
from repro.blackbox.rng import DeterministicRng


class UserSelectionModel(BlackBox):
    """Aggregate stochastic requirement of a population of users.

    Each user has a lognormal-ish base requirement that grows with the
    current date and is active with a per-user probability; one sample sums
    the active users' requirements.
    """

    name = "UserSelect"
    parameter_names: Tuple[str, ...] = ("current_week",)

    def __init__(
        self,
        user_count: int = 5000,
        mean_requirement: float = 2.0,
        requirement_spread: float = 0.5,
        activity_probability: float = 0.8,
        weekly_growth: float = 0.01,
    ):
        super().__init__()
        if user_count <= 0:
            raise ValueError("user_count must be positive")
        if not 0.0 <= activity_probability <= 1.0:
            raise ValueError("activity_probability must lie in [0, 1]")
        if requirement_spread < 0:
            raise ValueError("requirement_spread must be non-negative")
        self.user_count = user_count
        self.mean_requirement = mean_requirement
        self.requirement_spread = requirement_spread
        self.activity_probability = activity_probability
        self.weekly_growth = weekly_growth

    def _growth_factor(self, week: float) -> float:
        return 1.0 + self.weekly_growth * max(week, 0.0)

    def _sample(self, params: Params, seed: int) -> float:
        """Row-at-a-time evaluation: one Python-level loop over users.

        Uses the same (uniform, uniform) draws per user as the bulk path,
        pushing the second through the normal quantile function, so the two
        paths produce bit-identical samples for a given seed.
        """
        week = float(params["current_week"])
        rng = DeterministicRng(seed)
        growth = self._growth_factor(week)
        total = 0.0
        for _ in range(self.user_count):
            activity_draw = rng.uniform()
            requirement_draw = rng.uniform()
            active = activity_draw < self.activity_probability
            requirement = self.mean_requirement + (
                self.requirement_spread
                * float(_normal_ppf(np.array([requirement_draw]))[0])
            )
            if active:
                total += max(requirement, 0.0) * growth
        return total

    def _sample_batch(
        self, params: Params, seeds: np.ndarray
    ) -> Optional[np.ndarray]:
        """All seeds at once, from the cached quantile-transformed draws.

        Only ``growth`` depends on the point.  Each user's clamped
        requirement — zero where the user is inactive — depends on the
        seeds and the model constants alone, so the (users x seeds) matrix
        of them is a derived entry of the draw cache, built once per seed
        slice (:meth:`_requirements`).  A point costs one multiply and one
        sum: per lane the same ``max(requirement, 0.0) * growth`` terms as
        :meth:`_sample`, added in the same user order.

        An inactive lane adds ``0.0 * growth`` where the scalar loop adds
        nothing.  For finite ``growth`` that is ``+0.0`` or ``-0.0``, and a
        running total that starts at ``+0.0`` is never ``-0.0`` (a sum is
        ``-0.0`` only when both terms are), so adding either leaves every
        bit of it alone.  For a non-finite ``growth`` it is NaN, and the
        point is left to the scalar loop.
        """
        week = float(params["current_week"])
        growth = self._growth_factor(week)
        if not math.isfinite(growth):
            return None
        kinds = (KIND_UNIFORM,) * (2 * self.user_count)
        # The constants are read per call: a model whose attribute was
        # changed since its last call asks for a different entry.
        tag = (
            "UserSelect.requirements",
            self.mean_requirement,
            self.requirement_spread,
            self.activity_probability,
        )
        requirements = DEFAULT_DRAW_CACHE.derived(
            seeds, kinds, tag, self._requirements
        )
        return _sum_rows_in_order(requirements * growth)

    def _requirements(self, draws: np.ndarray) -> np.ndarray:
        """(users x seeds) clamped requirements of a (seeds x 2·users)
        block of uniforms; zero where the user is inactive."""
        active = draws[:, 0::2] < self.activity_probability
        requirement = self.mean_requirement + (
            self.requirement_spread * _normal_ppf(draws[:, 1::2])
        )
        return np.where(active, np.maximum(requirement, 0.0), 0.0).T

    def sample_vectorized(self, params: Params, seed: int) -> float:
        """Set-at-a-time evaluation: the bulk path a DBMS engine would take.

        Draws the same variates as :meth:`sample` (activity first, then
        requirement, per user, from one stream) so row and bulk paths agree
        exactly for a given seed.
        """
        week = float(params["current_week"])
        rng = DeterministicRng(seed)
        growth = self._growth_factor(week)
        draws = rng.uniforms(2 * self.user_count).reshape(self.user_count, 2)
        active = draws[:, 0] < self.activity_probability
        # Invert the uniform draw through the normal quantile function so the
        # per-user requirement matches the scalar path's normal() draw.
        requirement = (
            self.mean_requirement
            + self.requirement_spread * _normal_ppf(draws[:, 1])
        )
        self._invocations += 1
        contributions = np.where(active, np.maximum(requirement, 0.0), 0.0)
        return float(contributions.sum() * growth)


def _sum_rows_in_order(rows: np.ndarray) -> np.ndarray:
    """``((0.0 + rows[0]) + rows[1]) + ...`` per column of a C-contiguous
    matrix: the scalar loop's left-to-right sum, every column at once.

    numpy adds "each number individually to the result" except along the
    fast axis in memory, where it sums pairwise (``numpy.sum``, Notes).
    Axis 0 is the fast axis exactly when there is a single column, so that
    case is added up here.
    """
    if rows.shape[1] == 1:
        total = 0.0
        for value in rows[:, 0].tolist():
            total += value
        return np.array([total])
    return np.add.reduce(rows, axis=0, initial=0.0)


def _normal_ppf(u: np.ndarray) -> np.ndarray:
    """Acklam-style rational approximation of the standard normal quantile.

    Accurate to ~1e-9, sufficient for the bulk path, and dependency-free.
    """
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    result = np.empty_like(u)

    low = u < 0.02425
    high = u > 1.0 - 0.02425
    mid = ~(low | high)

    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        result[mid] = num * q / den

    if np.any(low):
        q = np.sqrt(-2.0 * np.log(u[low]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        result[low] = num / den

    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        result[high] = -num / den

    return result
