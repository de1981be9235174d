"""Adaptive-precision estimation: confidence-driven early stopping.

The paper's engine draws a *fixed* per-point sample budget even when an
estimate has long since converged.  This module implements the natural
bounded-error alternative (in the spirit of Koch & Olteanu's "Conditioning
Probabilistic Databases" accuracy/effort trade): grow each point's Monte
Carlo sample set in vectorized blocks, and stop as soon as a confidence
interval on the expectation is inside a user-set *relative* tolerance —
with the fixed budget as a hard cap, so adaptive runs are never more
expensive than fixed ones.

Two interval constructions are offered:

* ``clt`` — the classical normal interval ``z * s / sqrt(n)``.  Valid
  asymptotically for any square-integrable output; the default.
* ``bernstein`` — the empirical-Bernstein bound (Maurer & Pontil 2009)
  using the *observed* sample range as the range proxy.  Tighter for
  low-variance bounded outputs (e.g. 0/1 indicator columns) and does not
  lean on asymptotic normality, but the observed-range proxy makes it a
  heuristic for unbounded outputs.

Everything here is a pure function of the sample values, which are
themselves pure functions of the shared seed bank — so adaptive stopping
decisions are deterministic per seed and identical across worker counts
(the sharded replay consumes the exact block schedule the shard produced).

Determinism contract: with the policy disabled (``adaptive=None``
everywhere), no call site changes behavior in any way — the fixed-budget
paths are bit-identical to a build without this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

from repro.errors import EstimatorError

#: Interval constructions understood by :class:`AdaptiveBudget`.
METHODS = ("clt", "bernstein")

#: Default sample count before the interval math is trusted at all; below
#: this neither construction is meaningful (CLT: asymptotics; Bernstein:
#: the observed range badly underestimates the true range).
DEFAULT_MIN_SAMPLES = 32


@lru_cache(maxsize=64)
def _normal_quantile(probability: float) -> float:
    """Memoized standard-normal inverse CDF — the quantile is constant
    per policy but evaluated on every per-block convergence check."""
    return NormalDist().inv_cdf(probability)


@dataclass(frozen=True)
class AdaptiveBudget:
    """Stopping policy for sequential (confidence-driven) estimation.

    A point stops drawing once the two-sided ``confidence`` interval
    half-width on its running mean is at most ``rtol * |mean|`` (or
    ``atol``, whichever allows stopping earlier) — but never before
    ``min_samples`` and never beyond ``max_samples``.

    ``max_samples=None`` means "the caller's fixed budget": every engine
    caps the adaptive loop at its own ``samples_per_point``, so enabling
    the policy can only ever *save* samples.
    """

    rtol: float
    confidence: float = 0.95
    max_samples: Optional[int] = None
    min_samples: int = DEFAULT_MIN_SAMPLES
    method: str = "clt"
    atol: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rtol:
            raise EstimatorError("rtol must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise EstimatorError("confidence must be in (0, 1)")
        if self.max_samples is not None and self.max_samples < 1:
            raise EstimatorError("max_samples must be positive")
        if self.min_samples < 2:
            raise EstimatorError("min_samples must be at least 2")
        if self.method not in METHODS:
            raise EstimatorError(f"method must be one of {METHODS}")
        if self.atol < 0.0:
            raise EstimatorError("atol must be non-negative")

    @property
    def z_value(self) -> float:
        """Two-sided standard-normal quantile for ``confidence``."""
        return _normal_quantile(0.5 + self.confidence / 2.0)

    def cap(self, fixed_budget: int) -> int:
        """The hard sample cap given a caller's fixed per-point budget."""
        if self.max_samples is None:
            return fixed_budget
        return min(self.max_samples, fixed_budget)

    # -- interval math -----------------------------------------------------

    def halfwidth(
        self, count: int, stddev: float, value_range: float
    ) -> float:
        """Two-sided CI half-width on the mean of ``count`` samples.

        ``stddev`` is the population standard deviation of the samples
        (matching :meth:`Estimator.estimate`); ``value_range`` is the
        observed max-min, used only by the Bernstein construction.
        """
        if count < 2:
            return math.inf
        if self.method == "clt":
            return self.z_value * stddev / math.sqrt(count)
        # Empirical Bernstein (Maurer & Pontil 2009, Thm 4) with the
        # observed range standing in for the a-priori range bound.
        delta = 1.0 - self.confidence
        log_term = math.log(3.0 / delta)
        return math.sqrt(
            2.0 * stddev * stddev * log_term / count
        ) + 3.0 * value_range * log_term / count

    def tolerance(self, mean: float) -> float:
        """The half-width target for a running ``mean``."""
        return max(self.rtol * abs(mean), self.atol)

    def satisfied(
        self, count: int, mean: float, stddev: float, value_range: float
    ) -> bool:
        """Whether the interval is inside tolerance (ignores the cap)."""
        if count < self.min_samples:
            return False
        return self.halfwidth(count, stddev, value_range) <= self.tolerance(
            mean
        )

    def satisfied_by(self, samples: np.ndarray) -> bool:
        """:meth:`satisfied` evaluated directly on a sample vector.

        A rounds x columns block (one possible world computes every
        column of a scenario row at once) is satisfied when every column
        is: rounds are drawn jointly, so they are stopped jointly.
        """
        array = np.asarray(samples, dtype=float)
        if array.ndim == 2:
            return all(self.satisfied_by(column) for column in array.T)
        if array.size < self.min_samples:
            return False
        mean = float(array.mean())
        return self.satisfied(
            int(array.size),
            mean,
            float(array.std()),
            float(array.max() - array.min()),
        )


def next_target(current: int, cap: int, policy: AdaptiveBudget) -> int:
    """Size to grow to next: geometric doubling toward the cap.

    Doubling keeps the block count logarithmic in the budget (so the
    vectorized draws stay large) while never overshooting ``cap``.  The
    schedule is a pure function of ``(current, cap, policy)`` — no data
    dependence — which keeps shard-recorded block boundaries trivially
    replayable.
    """
    return min(cap, max(policy.min_samples, 2 * max(current, 1)))


#: ``draw(start, count)`` returns ``count`` fresh sample values for global
#: sample ids ``[start, start + count)`` — typically a batched simulation
#: over ``seed_bank.seed_array(count, start=start)``.
DrawBlock = Callable[[int, int], np.ndarray]


def grow_samples(
    initial: np.ndarray,
    draw: DrawBlock,
    cap: int,
    policy: AdaptiveBudget,
) -> np.ndarray:
    """Sequential estimation loop: grow ``initial`` until converged/capped.

    Stopping is re-evaluated after every block on the full accumulated
    vector, so the decision sequence — and therefore the block schedule
    and the returned vector — is a pure function of the sample values.
    """
    samples = np.asarray(initial, dtype=float)
    while len(samples) < cap and not policy.satisfied_by(samples):
        target = next_target(len(samples), cap, policy)
        block = np.asarray(
            draw(len(samples), target - len(samples)), dtype=float
        )
        samples = np.concatenate([samples, block])
    return samples


def fixed_budget_samples(
    points_total: int,
    points_reused: int,
    samples_per_point: int,
    fingerprint_size: int,
) -> int:
    """Samples the *fixed*-budget engine would draw for the same sweep.

    Reuse decisions are fingerprint-only, and fingerprints are unaffected
    by adaptive stopping, so the reuse pattern of an adaptive sweep matches
    the fixed sweep's exactly — which makes this closed form the correct
    denominator for :func:`saved_fraction`.
    """
    simulated = points_total - points_reused
    return points_total * fingerprint_size + simulated * (
        samples_per_point - fingerprint_size
    )


def saved_fraction(actual_samples: int, fixed_samples: int) -> float:
    """Fraction of the fixed budget the adaptive run did not draw."""
    if fixed_samples <= 0:
        return 0.0
    return max(0.0, 1.0 - actual_samples / fixed_samples)
