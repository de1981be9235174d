"""The SynthBasis black box (paper Figure 6, sections 6.3).

"A synthetic black box based on Demand, but with a deterministic number of
basis distributions."  The indexing experiments (Figures 10 and 11) need
precise control over how many distinct basis distributions a parameter sweep
produces; SynthBasis partitions its parameter domain into ``basis_count``
residue classes such that

* points in the same class are exact affine images of one another (one basis
  per class under the linear mapping family), and
* points in different classes are *not* affine-related (each class really is
  a separate basis).

Non-relatedness across classes is achieved by mixing two independent normal
draws with a class-dependent nonlinear blend; no single affine map can align
all fingerprint entries of different blends.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.base import BlackBox, Params
from repro.blackbox.draws import DEFAULT_DRAW_CACHE
from repro.blackbox.fastrng import KIND_NORMAL
from repro.blackbox.rng import DeterministicRng


class SynthBasisModel(BlackBox):
    """Synthetic model producing exactly ``basis_count`` basis distributions."""

    name = "SynthBasis"
    parameter_names: Tuple[str, ...] = ("point",)

    def __init__(
        self,
        basis_count: int = 10,
        work_per_sample: int = 1,
        scale_step: float = 0.01,
    ):
        super().__init__()
        if basis_count < 1:
            raise ValueError("basis_count must be positive")
        if work_per_sample < 1:
            raise ValueError("work_per_sample must be positive")
        self.basis_count = basis_count
        self.work_per_sample = work_per_sample
        self.scale_step = scale_step

    def _sample(self, params: Params, seed: int) -> float:
        point = int(params["point"])
        if point < 0:
            raise ValueError("point must be non-negative")
        residue = point % self.basis_count
        rng = DeterministicRng(seed)
        first = rng.normal()
        second = rng.normal()
        # Busy-work knob: emulate a more expensive model without changing
        # its distribution (the extra draws are discarded).
        for _ in range(self.work_per_sample - 1):
            rng.normal()
        # Class-dependent nonlinear blend: affine within a class (via the
        # point-dependent scale below), non-affine across classes.
        blend = first + (residue + 1) * first * second
        class_index = point // self.basis_count
        scale = 1.0 + self.scale_step * class_index
        return scale * blend + 0.5 * class_index

    def _sample_batch(
        self, params: Params, seeds: np.ndarray
    ) -> Optional[np.ndarray]:
        point = int(params["point"])
        if point < 0:
            raise ValueError("point must be non-negative")
        return self._blend(
            point % self.basis_count, point // self.basis_count, seeds
        )

    def _sample_points(
        self, block: Sequence[Params], seeds: np.ndarray
    ) -> Optional[np.ndarray]:
        # Every point blends the same two draw columns: they are read once
        # and each point's Python ints become one entry of an int64
        # (points, 1) column.  That reproduces the per-point bits for int64
        # points and the constructor's usual types; anything else (or a
        # point the per-point path refuses) is left to the loop.
        if not (
            isinstance(self.basis_count, int)
            and isinstance(self.scale_step, float)
        ):
            return None
        try:
            points = np.array(
                [int(params["point"]) for params in block], dtype=np.int64
            )
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        if points.min() < 0:
            return None
        return self._blend(
            (points % self.basis_count)[:, None],
            (points // self.basis_count)[:, None],
            seeds,
        )

    def _blend(self, residue, class_index, seeds: np.ndarray) -> np.ndarray:
        """``_sample``'s arithmetic over the cached draws, for one point's
        ``residue`` and ``class_index`` (Python ints) or a block's
        (int64 columns, broadcast: the same IEEE operations per lane)."""
        # The busy-work columns are drawn (and discarded) so the knob keeps
        # emulating a costlier model on the batch path too.
        kinds = (KIND_NORMAL,) * (self.work_per_sample + 1)
        draws = DEFAULT_DRAW_CACHE.matrix(seeds, kinds)
        first = 0.0 + 1.0 * draws[:, 0]
        second = 0.0 + 1.0 * draws[:, 1]
        blend = first + (residue + 1) * first * second
        scale = 1.0 + self.scale_step * class_index
        return scale * blend + 0.5 * class_index
