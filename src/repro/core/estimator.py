"""The Estimator component (paper Figure 3): samples → output metrics.

The PDB subsystem hands the estimator a set of i.i.d. samples of the query
result distribution; the estimator reduces them to the characteristics of
interest (expectation, standard deviation, quantiles, histogram).  For
Jigsaw's reuse path, a :class:`MetricSet` computed for one basis distribution
can be *remapped* through an affine mapping — ``Mest`` in the paper — instead
of being recomputed, which is the entire point of fingerprinting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptiveBudget
from repro.core.mapping import AffineMapping, Mapping
from repro.errors import EstimatorError

DEFAULT_QUANTILES: Tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class Histogram:
    """Equi-width sample histogram (the PDB's binned answer representation)."""

    counts: Tuple[int, ...]
    edges: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.counts) + 1:
            raise EstimatorError(
                f"histogram needs {len(self.counts) + 1} edges, got "
                f"{len(self.edges)}"
            )

    @property
    def total(self) -> int:
        return sum(self.counts)

    def density(self) -> Tuple[float, ...]:
        """Per-bin probability mass."""
        total = self.total or 1
        return tuple(c / total for c in self.counts)

    def remap(self, mapping: "AffineMapping") -> "Histogram":
        """Map bin edges through M; a negative α reverses the bin order.

        Exact up to boundary semantics: numpy bins are half-open on the
        left, so a sample sitting exactly on an interior edge can land in
        the adjacent bin when a histogram is recomputed after a
        negative-α map (the bin *edges* always agree exactly).
        """
        alpha = mapping.alpha
        beta = mapping.beta
        edges = [alpha * e + beta for e in self.edges]
        counts = list(self.counts)
        if alpha < 0:
            edges.reverse()
            counts.reverse()
        return Histogram(tuple(counts), tuple(edges))

    def probability_above(self, threshold: float) -> float:
        """P(X > threshold) estimated from bin mass (linear within bins)."""
        total = self.total
        if total == 0:
            raise EstimatorError("empty histogram")
        mass = 0.0
        for count, lo, hi in zip(self.counts, self.edges, self.edges[1:]):
            if lo >= threshold:
                mass += count
            elif hi > threshold and hi > lo:
                mass += count * (hi - threshold) / (hi - lo)
        return mass / total


@dataclass(frozen=True)
class MetricSet:
    """Summary metrics of one output distribution.

    ``expectation`` is the Monte Carlo mean; ``quantiles`` pairs each
    requested probability with its sample quantile; ``histogram`` is the
    optional binned representation (paper section 2.1 lists it among the
    answer forms a PDB reports).
    """

    count: int
    expectation: float
    stddev: float
    minimum: float
    maximum: float
    quantiles: Tuple[Tuple[float, float], ...] = ()
    histogram: Optional[Histogram] = None

    def quantile(self, probability: float) -> float:
        # Tolerant match: probabilities that round-trip through a remap
        # (e.g. 1.0 - p under a negative-α mapping) differ from the
        # requested value by a ulp or two and must stay retrievable.
        for p, value in self.quantiles:
            if p == probability or math.isclose(
                p, probability, rel_tol=1e-12, abs_tol=1e-12
            ):
                return value
        raise EstimatorError(
            f"quantile {probability} was not computed; available: "
            f"{[p for p, _ in self.quantiles]}"
        )

    def remap(self, mapping: Mapping) -> "MetricSet":
        """Apply ``Mest`` — derive this distribution's metrics for a mapped one.

        Affine maps transform every metric in closed form: the expectation
        maps through M, the standard deviation scales by |α|, extrema swap
        when α < 0, and each quantile p maps to M(quantile) at probability p
        (or 1-p when α < 0 reverses orientation).
        """
        if not isinstance(mapping, AffineMapping):
            raise EstimatorError(
                "closed-form metric remapping requires an affine mapping; "
                "remap samples instead for general mappings"
            )
        # Each value is AffineMapping.apply's ``alpha * x + beta``, written
        # out instead of called once per value.
        alpha = mapping.alpha
        beta = mapping.beta
        lo = alpha * self.minimum + beta
        hi = alpha * self.maximum + beta
        if alpha < 0:
            lo, hi = hi, lo
        # Only ``alpha >= 0`` keeps p (a NaN alpha maps it to 1 - p).  The
        # pairs are sorted even when they are already in order: the sort
        # finds that in one pass in C, faster than a test for it in Python.
        quantiles = [
            (p if alpha >= 0 else 1.0 - p, alpha * v + beta)
            for p, v in self.quantiles
        ]
        quantiles.sort()
        return _metric_set(
            self.count,
            alpha * self.expectation + beta,
            abs(alpha) * self.stddev,
            lo,
            hi,
            tuple(quantiles),
            (
                self.histogram.remap(mapping)
                if self.histogram is not None
                else None
            ),
        )

    def approx_equals(self, other: "MetricSet", rel_tol: float = 1e-9) -> bool:
        """Tolerant comparison of every metric (tests and validation)."""
        scale = max(abs(self.expectation), abs(other.expectation), 1.0)
        tol = rel_tol * scale
        if abs(self.expectation - other.expectation) > tol:
            return False
        if abs(self.stddev - other.stddev) > tol:
            return False
        if abs(self.minimum - other.minimum) > tol:
            return False
        if abs(self.maximum - other.maximum) > tol:
            return False
        if len(self.quantiles) != len(other.quantiles):
            return False
        return all(
            a[0] == b[0] and abs(a[1] - b[1]) <= tol
            for a, b in zip(self.quantiles, other.quantiles)
        )


def _metric_set(
    count: int,
    expectation: float,
    stddev: float,
    minimum: float,
    maximum: float,
    quantiles: Tuple[Tuple[float, float], ...],
    histogram: Optional[Histogram],
) -> MetricSet:
    """``MetricSet(...)`` for the two hot builders, ``remap`` and
    ``estimate``: the frozen dataclass's generated ``__init__`` sets each
    field through ``object.__setattr__``, which costs more than twice what
    writing the instance dict does.  Fields go in in declaration order, as
    ``__init__`` would put them (so pickles are byte-equal), and nothing
    is skipped: ``MetricSet`` has no ``__post_init__``."""
    metrics = object.__new__(MetricSet)
    fields = metrics.__dict__
    fields["count"] = count
    fields["expectation"] = expectation
    fields["stddev"] = stddev
    fields["minimum"] = minimum
    fields["maximum"] = maximum
    fields["quantiles"] = quantiles
    fields["histogram"] = histogram
    return metrics


def _moments(samples: np.ndarray, axis: Optional[int]) -> tuple:
    """``ndarray.mean`` / ``std`` (population std: metrics describe the
    sampled worlds directly) / ``min`` / ``max`` over ``axis`` (``None``:
    every sample), as the reductions they are.  The extremes are taken
    over the samples as given, not read off a partitioned copy: with -0.0
    / 0.0 ties and NaN the answer depends on the order visited."""
    count = samples.size if axis is None else samples.shape[axis]
    mean = np.add.reduce(samples, axis=axis) / count
    deviations = samples - (mean if axis is None else mean[:, None])
    np.square(deviations, out=deviations)
    variance = np.add.reduce(deviations, axis=axis) / count
    lowest = np.minimum.reduce(samples, axis=axis)
    return mean, np.sqrt(variance), lowest, np.maximum.reduce(samples, axis=axis)


class Estimator:
    """Aggregates i.i.d. Monte Carlo samples into a :class:`MetricSet`.

    ``histogram_bins`` enables the binned answer representation; it stays
    off by default since most callers only need moments and quantiles.
    """

    def __init__(
        self,
        quantile_probabilities: Sequence[float] = DEFAULT_QUANTILES,
        histogram_bins: int = 0,
    ):
        for p in quantile_probabilities:
            if not 0.0 <= p <= 1.0:
                raise EstimatorError(f"quantile probability {p} not in [0,1]")
        if histogram_bins < 0:
            raise EstimatorError("histogram_bins must be non-negative")
        self.quantile_probabilities = tuple(quantile_probabilities)
        self.histogram_bins = histogram_bins
        #: The probabilities as ``np.quantile`` would read them.
        self._probabilities = np.asanyarray(self.quantile_probabilities)
        #: ``(n, plan)`` of the last sample count seen: derived state.
        self._plan: Tuple[int, tuple] = (0, ())

    def estimate(self, samples: Sequence[float]) -> MetricSet:
        """Reduce ``samples`` to a :class:`MetricSet`, reading them once.

        Every value carries the bits of the numpy call that defines it —
        ``np.quantile(a, probabilities)``, ``a.mean()``, ``a.std()``,
        ``a.min()``, ``a.max()`` — computed as the IEEE operations those
        calls perform, without their Python wrappers
        (``tests/property/test_prop_estimator.py`` holds the two side by
        side against the installed numpy).
        """
        array = np.asarray(samples, dtype=float)
        count = array.size
        if count == 0:
            raise EstimatorError("cannot estimate metrics from zero samples")
        if not self.quantile_probabilities:
            quantiles = ()
        else:
            if self._probabilities.dtype == np.float64:
                quantile_values = self._quantile_values(array.flatten())
            else:
                # Integer (or otherwise exotic) probabilities take numpy's
                # no-interpolation branch, which is not mirrored here.
                quantile_values = np.quantile(
                    array, self.quantile_probabilities
                ).tolist()
            quantiles = tuple(
                zip(map(float, self.quantile_probabilities), quantile_values)
            )
        histogram = None
        if self.histogram_bins:
            try:
                counts, edges = np.histogram(array, bins=self.histogram_bins)
            except (ValueError, IndexError) as error:
                # numpy refuses a range it cannot cut into finite bins
                # (inf, NaN, max - min overflowing) — or, with finite
                # edges whose difference overflows, trips over its own
                # NaN bin index.
                raise EstimatorError(
                    f"cannot build a {self.histogram_bins}-bin histogram: "
                    f"{error}"
                ) from error
            histogram = Histogram(
                tuple(int(c) for c in counts),
                tuple(float(e) for e in edges),
            )
        moments = map(float, _moments(array, None))
        return _metric_set(count, *moments, quantiles, histogram)

    def estimate_rows(self, rows: Sequence[Sequence[float]]) -> List[MetricSet]:
        """``[estimate(row) for row in rows]``, bit for bit.

        A C-contiguous float64 matrix is reduced row-wise: one partition
        along the rows and one call per statistic for the whole matrix, each
        the operation :meth:`estimate` performs on one row
        (``TestEstimateBitsMatchNumpy`` holds the rows against it).  Rows
        take :meth:`estimate` one at a time where the row-wise form is not
        shown bitwise equal — a histogram, probabilities numpy does not
        read as float64, anything but such a matrix — so a row it refuses
        raises there as it would alone.
        """
        matrix = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.size
        if not (matrix and rows.flags.c_contiguous and rows.dtype == float) or (
            self.histogram_bins or self._probabilities.dtype != np.float64
        ):
            return [self.estimate(row) for row in rows]
        count = rows.shape[1]
        probabilities = tuple(map(float, self.quantile_probabilities))
        quantiles = [()] * len(rows)
        if probabilities:
            quantiles = self._quantile_values(rows.copy())
        moments = np.stack(_moments(rows, 1), axis=1).tolist()
        return [
            _metric_set(count, *values, tuple(zip(probabilities, row)), None)
            for values, row in zip(moments, quantiles)
        ]

    def _quantile_values(self, ordered: np.ndarray) -> list:
        """``np.quantile(samples, probabilities)`` (method ``"linear"``)
        along the last axis of ``ordered`` — a flat copy of the samples, or
        a matrix of them, one sample vector a row — partitioned in place:
        one partition, then numpy's interpolation expression."""
        size = ordered.shape[-1]
        planned_for, plan = self._plan
        if planned_for != size:
            plan = self._quantile_plan(size)
            self._plan = (size, plan)
        kth, lower, upper, gamma, one_minus_gamma, upper_half = plan
        ordered.partition(kth, axis=-1)
        vector = ordered.ndim == 1
        below = ordered[lower] if vector else ordered[:, lower]
        above = ordered[upper] if vector else ordered[:, upper]
        spread = above - below
        values = below + spread * gamma
        np.subtract(
            above, spread * one_minus_gamma, out=values, where=upper_half
        )
        # NaN sorts last, and one NaN makes every quantile of its vector
        # that NaN.
        if vector:
            last = ordered[-1]
            if last != last:
                values[:] = last
        else:
            last = ordered[:, -1]
            nan = last != last
            if nan.any():
                np.copyto(values, last[:, None], where=nan[:, None])
        return values.tolist()

    def _quantile_plan(self, n: int) -> tuple:
        """What ``np.quantile`` derives from ``(n, probabilities)`` alone.

        The virtual index is numpy's ``(n - 1) * q`` for the linear method
        (the general Hyndman-Fan form differs from it in the last bit);
        an index at or past the last element reads ``-1`` on both sides,
        with the weight numpy then gets from ``virtual - (-1)``.
        """
        virtual = (n - 1) * self._probabilities
        lower = np.floor(virtual)
        upper = lower + 1
        past_end = virtual >= n - 1
        lower[past_end] = -1
        upper[past_end] = -1
        lower = lower.astype(np.intp)
        upper = upper.astype(np.intp)
        gamma = virtual - lower
        kth = np.unique(np.concatenate(([0, -1], lower, upper)))
        return kth, lower, upper, gamma, 1 - gamma, gamma >= 0.5

    def halfwidth(self, metrics: MetricSet, policy: AdaptiveBudget) -> float:
        """CI half-width on ``metrics.expectation`` under ``policy``.

        Works on a :class:`MetricSet` rather than raw samples so callers
        holding only remapped metrics (the interactive engine's mapped
        basis view) can evaluate convergence without re-materializing
        sample vectors.  A mapped :class:`MetricSet` carries exactly the
        mean/stddev/extrema the mapped samples would have, so the verdict
        here equals the verdict on the mapped sample vector.
        """
        return policy.halfwidth(
            metrics.count, metrics.stddev, metrics.maximum - metrics.minimum
        )

    def converged(self, metrics: MetricSet, policy: AdaptiveBudget) -> bool:
        """Whether ``metrics`` already satisfies ``policy`` (cap ignored)."""
        return policy.satisfied(
            metrics.count,
            metrics.expectation,
            metrics.stddev,
            metrics.maximum - metrics.minimum,
        )

    def probability(
        self, samples: Sequence[float], threshold: float = 0.5
    ) -> float:
        """Fraction of samples exceeding ``threshold`` (P(X > t) estimate)."""
        array = np.asarray(samples, dtype=float)
        if array.size == 0:
            raise EstimatorError("cannot estimate probability of no samples")
        return float((array > threshold).mean())


def remap_samples(samples: np.ndarray, mapping: Mapping) -> np.ndarray:
    """Map a basis's raw samples through M (general-mapping reuse path)."""
    return mapping.apply_array(np.asarray(samples, dtype=float))


def merge_metric_sets(
    first: MetricSet, second: MetricSet, estimator: Optional[Estimator] = None
) -> MetricSet:
    """Combine two metric sets over disjoint sample batches.

    Exact for count/mean/variance/extrema; quantiles are dropped unless the
    caller recomputes them from retained samples (the interactive engine's
    progressive refinement keeps samples and recomputes instead).
    """
    total = first.count + second.count
    if total == 0:
        raise EstimatorError("cannot merge two empty metric sets")
    weight_first = first.count / total
    weight_second = second.count / total
    mean = weight_first * first.expectation + weight_second * second.expectation
    delta = second.expectation - first.expectation
    variance = (
        weight_first * first.stddev**2
        + weight_second * second.stddev**2
        + weight_first * weight_second * delta * delta
    )
    return MetricSet(
        count=total,
        expectation=mean,
        stddev=float(np.sqrt(variance)),
        minimum=min(first.minimum, second.minimum),
        maximum=max(first.maximum, second.maximum),
        quantiles=(),
    )
