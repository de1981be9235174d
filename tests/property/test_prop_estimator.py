"""Property-based tests for estimator math and metric remapping."""

import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    DEFAULT_QUANTILES,
    Estimator,
    Histogram,
    MetricSet,
    merge_metric_sets,
)
from repro.core.mapping import AffineMapping
from repro.errors import EstimatorError
from repro.util.stats import RunningStats

sample_lists = st.lists(
    st.floats(
        min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False
    ),
    min_size=2,
    max_size=60,
)

alphas = st.floats(min_value=0.01, max_value=100.0).flatmap(
    lambda a: st.sampled_from([a, -a])
)
betas = st.floats(min_value=-1e3, max_value=1e3)


class TestRemapCommutes:
    """estimate(M(samples)) == M_est(estimate(samples)) — the identity that
    justifies skipping Monte Carlo for mapped points."""

    @given(samples=sample_lists, alpha=alphas, beta=betas)
    @settings(max_examples=200)
    def test_expectation_stddev_extrema(self, samples, alpha, beta):
        estimator = Estimator(())
        mapping = AffineMapping(alpha, beta)
        direct = estimator.estimate(mapping.apply_array(np.asarray(samples)))
        remapped = estimator.estimate(samples).remap(mapping)
        scale = max(abs(direct.expectation), abs(direct.stddev), 1.0)
        assert abs(remapped.expectation - direct.expectation) <= 1e-6 * scale
        assert abs(remapped.stddev - direct.stddev) <= 1e-6 * scale
        assert abs(remapped.minimum - direct.minimum) <= 1e-6 * scale
        assert abs(remapped.maximum - direct.maximum) <= 1e-6 * scale

    @given(samples=sample_lists, alpha=alphas, beta=betas)
    @settings(max_examples=100)
    def test_quantiles(self, samples, alpha, beta):
        estimator = Estimator((0.25, 0.5, 0.75))
        mapping = AffineMapping(alpha, beta)
        direct = estimator.estimate(mapping.apply_array(np.asarray(samples)))
        remapped = estimator.estimate(samples).remap(mapping)
        for (pa, va), (pb, vb) in zip(remapped.quantiles, direct.quantiles):
            assert abs(pa - pb) <= 1e-9
            assert abs(va - vb) <= 1e-5 * max(abs(vb), 1.0)


class TestMergeIsPooling:
    @given(left=sample_lists, right=sample_lists)
    @settings(max_examples=150)
    def test_merge_matches_pooled(self, left, right):
        estimator = Estimator(())
        merged = merge_metric_sets(
            estimator.estimate(left), estimator.estimate(right)
        )
        pooled = estimator.estimate(left + right)
        scale = max(abs(pooled.expectation), pooled.stddev, 1.0)
        assert merged.count == pooled.count
        assert abs(merged.expectation - pooled.expectation) <= 1e-6 * scale
        assert abs(merged.stddev - pooled.stddev) <= 1e-5 * scale


class TestRunningStats:
    @given(samples=sample_lists)
    @settings(max_examples=150)
    def test_matches_numpy(self, samples):
        stats = RunningStats()
        stats.add_many(samples)
        array = np.asarray(samples)
        scale = max(abs(array.mean()), array.var(), 1.0)
        assert abs(stats.mean - array.mean()) <= 1e-7 * scale
        assert abs(stats.variance - array.var()) <= 1e-6 * scale
        assert stats.minimum == array.min()
        assert stats.maximum == array.max()

    @given(left=sample_lists, right=sample_lists)
    @settings(max_examples=100)
    def test_merge_equals_sequential(self, left, right):
        merged = RunningStats()
        merged.add_many(left)
        other = RunningStats()
        other.add_many(right)
        combined = merged.merge(other)
        sequential = RunningStats()
        sequential.add_many(left + right)
        scale = max(abs(sequential.mean), sequential.variance, 1.0)
        assert combined.count == sequential.count
        assert abs(combined.mean - sequential.mean) <= 1e-7 * scale
        assert abs(combined.variance - sequential.variance) <= 1e-6 * scale


def _bits(value: float) -> bytes:
    """The eight bytes of a double: tells -0.0 from 0.0, NaN from NaN."""
    return struct.pack("d", value)


def _reference(samples, probabilities, bins):
    """The five numpy calls ``Estimator.estimate`` is defined by."""
    array = np.asarray(samples, dtype=float)
    quantiles = ()
    if probabilities:
        quantiles = tuple(
            (_bits(float(p)), _bits(float(v)))
            for p, v in zip(probabilities, np.quantile(array, probabilities))
        )
    histogram = None
    if bins:
        counts, edges = np.histogram(array, bins=bins)
        histogram = (
            tuple(int(c) for c in counts),
            tuple(_bits(float(e)) for e in edges),
        )
    return (
        int(array.size),
        _bits(float(array.mean())),
        _bits(float(array.std())),
        _bits(float(array.min())),
        _bits(float(array.max())),
        quantiles,
        histogram,
    )


def _observed(estimator, samples):
    return _metric_bits(estimator.estimate(samples))


def _metric_bits(metrics):
    histogram = metrics.histogram
    return (
        metrics.count,
        _bits(metrics.expectation),
        _bits(metrics.stddev),
        _bits(metrics.minimum),
        _bits(metrics.maximum),
        tuple((_bits(p), _bits(v)) for p, v in metrics.quantiles),
        None
        if histogram is None
        else (histogram.counts, tuple(_bits(e) for e in histogram.edges)),
    )


def _recorded(call, refusal):
    """``(outcome, warning kinds)``; numpy's refusal to bin a non-finite
    range and the estimator's typed one both read ``"refused"``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = call()
        except refusal:
            outcome = "refused"
    return outcome, {(w.category, str(w.message)) for w in caught}


def _assert_same_bits(samples, probabilities, bins, estimator=None):
    estimator = estimator or Estimator(probabilities, histogram_bins=bins)
    expected = _recorded(
        lambda: _reference(samples, probabilities, bins),
        (ValueError, IndexError),
    )
    observed = _recorded(lambda: _observed(estimator, samples), EstimatorError)
    assert observed == expected


def _assert_rows_same_bits(matrix, probabilities, bins, estimator=None):
    """``estimate_rows(matrix)`` row by row against ``estimate`` of each
    row and the five numpy calls: every value's bits, and the warnings.
    A row either refuses (a histogram it cannot build) refuses the call."""
    estimator = estimator or Estimator(probabilities, histogram_bins=bins)
    rows = list(matrix)
    refusals = (ValueError, IndexError)
    expected = [
        _recorded(lambda: _reference(row, probabilities, bins), refusals)
        for row in rows
    ]
    one_by_one = [
        _recorded(lambda: _observed(estimator, row), EstimatorError)
        for row in rows
    ]
    assert one_by_one == expected
    observed = _recorded(
        lambda: [_metric_bits(m) for m in estimator.estimate_rows(matrix)],
        EstimatorError,
    )
    if any(outcome == "refused" for outcome, _ in expected):
        assert observed[0] == "refused"
        return
    assert observed[0] == [outcome for outcome, _ in expected]
    assert observed[1] == set().union(*(kinds for _, kinds in expected))


#: Every size to 130, then the edges of numpy's pairwise-summation blocks.
GRID_SIZES = tuple(range(1, 131)) + (255, 256, 257, 1000, 2000)

PROBABILITY_TUPLES = (
    (),
    (0.0, 1.0),
    (0.999,),
    (1 / 3, 2 / 3),
    DEFAULT_QUANTILES,
)


def _grid_cases(rng, n):
    """Sample vectors of ``n`` values that stress one statistic each."""
    yield rng.normal(size=n)
    yield rng.integers(0, 3, size=n).astype(float)  # ties
    yield rng.choice([0.0, -0.0], size=n)
    mixed = rng.normal(size=n)
    mixed[rng.integers(0, n, size=max(1, n // 3))] = rng.choice([0.0, -0.0])
    yield mixed
    inf, nan = np.inf, np.nan
    for specials in ((inf,), (-inf, inf), (nan,), (nan, inf)):
        spiked = rng.normal(size=n)
        spiked[rng.integers(0, n, size=len(specials))] = specials
        yield spiked
    payload = rng.normal(size=n)
    payload[rng.integers(0, n)] = struct.unpack(
        "d", struct.pack("Q", 0xFFF8_0000_0000_BEEF)
    )[0]
    yield payload
    yield np.full(n, 3.25)
    yield rng.normal(size=n) * 1e300  # squares overflow
    yield rng.normal(size=n) * 1e-300
    yield rng.integers(-2000, 2000, size=n) * 5e-324  # subnormals
    yield rng.normal(size=(n, 3))[:, 1]  # strided view
    yield rng.normal(size=n + 1)[::-1][:n]  # negative stride
    yield rng.normal(size=(2, n))
    yield rng.normal(size=(n, 2)).T  # 2-D, not contiguous
    yield rng.integers(-5, 5, size=n)
    yield rng.normal(size=n).tolist()
    yield [rng.normal(size=n).tolist(), rng.normal(size=n).tolist()]


class TestEstimateBitsMatchNumpy:
    """``Estimator.estimate`` spells out what ``np.quantile``, ``mean``,
    ``std``, ``min`` and ``max`` compute instead of calling them; this is
    the guard that the spelling is numpy's, to the bit, on the installed
    numpy (MetricSet values are exact-compared by every baseline)."""

    @pytest.mark.parametrize("bins", [0, 4])
    @pytest.mark.parametrize("probabilities", PROBABILITY_TUPLES)
    def test_grid(self, probabilities, bins):
        rng = np.random.default_rng([20261003, len(probabilities), bins])
        # One instance across sizes: the per-size plan is replaced, never
        # read for the wrong size.
        estimator = Estimator(probabilities, histogram_bins=bins)
        for n in GRID_SIZES:
            for samples in _grid_cases(rng, n):
                _assert_same_bits(samples, probabilities, bins, estimator)

    @given(
        samples=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
            min_size=1,
            max_size=80,
        ),
        probabilities=st.lists(
            st.floats(min_value=0.0, max_value=1.0), max_size=6
        ).map(tuple),
        bins=st.sampled_from([0, 1, 7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_samples_any_probabilities(self, samples, probabilities, bins):
        _assert_same_bits(samples, probabilities, bins)

    def test_a_range_that_overflows_is_refused_not_an_index_error(self):
        # Both edges are finite, so numpy's range check passes; max - min
        # is inf, the bin index NaN, and numpy raises IndexError.
        _assert_same_bits([1.797693124862316e308, -1e300], (), 1)
        with pytest.raises(EstimatorError, match="1-bin histogram"):
            Estimator((), histogram_bins=1).estimate(
                [1.797693124862316e308, -1e300]
            )

    def test_integer_probabilities_keep_numpys_own_branch(self):
        # np.quantile does not interpolate integer q: [1, inf] at q=1 is
        # inf there and NaN (inf - inf) through the interpolation.
        _assert_same_bits([1.0, np.inf, 2.0], (0, 1), 0)
        _assert_same_bits([3.0, 1.0, 2.0], (True,), 0)

    def test_overflow_is_warned_where_numpy_warns(self):
        samples = [1e300, -1e300, 1e299]
        with pytest.warns(RuntimeWarning, match="overflow"):
            np.asarray(samples).std()
        with pytest.warns(RuntimeWarning, match="overflow"):
            Estimator().estimate(samples)

    @pytest.mark.parametrize("bins", [0, 4])
    @pytest.mark.parametrize("probabilities", PROBABILITY_TUPLES)
    def test_rows_grid(self, probabilities, bins):
        """``estimate_rows`` over a matrix of the grid's vectors of one
        size, row by row, against ``estimate`` and the five calls."""
        rng = np.random.default_rng([20261019, len(probabilities), bins])
        estimator = Estimator(probabilities, histogram_bins=bins)
        for n in GRID_SIZES:
            rows = [
                flat
                for flat in (
                    np.asarray(case, dtype=float).ravel()[:n]
                    for case in _grid_cases(rng, n)
                )
                if flat.size == n
            ]
            _assert_rows_same_bits(np.array(rows), probabilities, bins, estimator)

    @given(
        rows=st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(allow_nan=True, allow_infinity=True, width=64)
                    | st.sampled_from(
                        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=6,
            )
        ),
        probabilities=st.lists(
            st.floats(min_value=0.0, max_value=1.0), max_size=6
        ).map(tuple),
        bins=st.sampled_from([0, 1, 7]),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_rows_any_probabilities(self, rows, probabilities, bins):
        _assert_rows_same_bits(np.array(rows), probabilities, bins)


def _reference_remap(metrics, mapping):
    """``MetricSet.remap`` as first written — ``replace``, one
    ``mapping.apply`` per value, an unconditional ``sorted`` — frozen here
    as the definition the inlined one must reproduce bit for bit."""
    alpha = mapping.alpha
    lo = mapping.apply(metrics.minimum)
    hi = mapping.apply(metrics.maximum)
    if alpha < 0:
        lo, hi = hi, lo
    mapped_quantiles = tuple(
        sorted(
            ((p if alpha >= 0 else 1.0 - p), mapping.apply(value))
            for p, value in metrics.quantiles
        )
    )
    histogram = metrics.histogram
    if histogram is not None:
        edges = [mapping.apply(e) for e in histogram.edges]
        counts = list(histogram.counts)
        if mapping.alpha < 0:
            edges.reverse()
            counts.reverse()
        histogram = Histogram(tuple(counts), tuple(edges))
    return replace(
        metrics,
        expectation=mapping.apply(metrics.expectation),
        stddev=abs(alpha) * metrics.stddev,
        minimum=lo,
        maximum=hi,
        quantiles=mapped_quantiles,
        histogram=histogram,
    )


def _assert_remap_bits(metrics, mapping):
    expected = _metric_bits(_reference_remap(metrics, mapping))
    assert _metric_bits(metrics.remap(mapping)) == expected


NAN = float("nan")
INF = float("inf")

REMAP_ALPHAS = (1.5, 0.25, -1.5, -0.25, 0.0, -0.0, INF, -INF, NAN)
REMAP_BETAS = (0.0, -0.0, 2.75, -1e300, INF, -INF)

#: Probabilities as a MetricSet may hold them: increasing, unsorted,
#: duplicated, and two that tie once mapped to ``1 - p``.
REMAP_PROBABILITIES = (
    (),
    DEFAULT_QUANTILES,
    (0.95, 0.05),
    (0.5, 0.5),
    (0.0, 1e-17),
    (0.25, 0.5, 0.5, 0.75),
)

#: Quantile values, cycled over the probabilities: ties, NaN, ±0.0, inf.
REMAP_VALUES = (
    (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    (-0.0, 0.0, 0.0, -0.0, 0.0, -0.0),
    (NAN, 1.0, NAN, -2.0, INF, -0.0),
    (3.0, 3.0, -INF, 3.0, NAN, 0.0),
)


def _metric_set(probabilities, values, bins):
    histogram = None
    if bins:
        edges = tuple(float(e) for e in np.linspace(-2.0, 3.0, bins + 1))
        histogram = Histogram(tuple(range(1, bins + 1)), edges)
    return MetricSet(
        count=17,
        expectation=values[0],
        stddev=values[1] if values[1] == values[1] else 0.5,
        minimum=min(values[2], -1.0),
        maximum=values[3],
        quantiles=tuple(zip(probabilities, values)),
        histogram=histogram,
    )


class TestRemapBitsMatchReference:
    """``MetricSet.remap`` computes ``Mest`` as plain float expressions
    and builds the ``MetricSet`` directly; every field keeps the bits of
    the ``replace`` / ``apply`` / ``sorted`` form, quantile order
    included."""

    @pytest.mark.parametrize("bins", [0, 3])
    @pytest.mark.parametrize("probabilities", REMAP_PROBABILITIES)
    def test_grid(self, probabilities, bins):
        for values in REMAP_VALUES:
            metrics = _metric_set(probabilities, values, bins)
            for alpha in REMAP_ALPHAS:
                for beta in REMAP_BETAS:
                    _assert_remap_bits(metrics, AffineMapping(alpha, beta))

    def test_unsorted_duplicated_and_tied_probabilities_come_out_sorted(self):
        metrics = _metric_set((0.95, 0.05), (1.0, 2.0, 3.0, 4.0), 0)
        remapped = metrics.remap(AffineMapping(2.0, 0.0))
        assert remapped.quantiles == ((0.05, 4.0), (0.95, 2.0))
        tied = _metric_set((0.0, 1e-17), (5.0, 2.0, 3.0, 4.0), 0)
        flipped = tied.remap(AffineMapping(-1.0, 0.0)).quantiles
        assert flipped == ((1.0, -5.0), (1.0, -2.0))

    @given(
        alpha=st.floats(allow_nan=True, allow_infinity=True)
        | st.sampled_from([0.0, -0.0]),
        beta=st.floats(allow_nan=True, allow_infinity=True),
        quantiles=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1e-17, 0.05, 0.5, 0.95, 1.0])
                | st.floats(min_value=0.0, max_value=1.0),
                st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([0.0, -0.0]),
            ),
            max_size=7,
        ).map(tuple),
        moments=st.lists(
            st.floats(allow_nan=True, allow_infinity=True),
            min_size=4,
            max_size=4,
        ),
        bins=st.sampled_from([0, 1, 4]),
    )
    @settings(max_examples=400, deadline=None)
    def test_any_mapping_any_metrics(
        self, alpha, beta, quantiles, moments, bins
    ):
        histogram = None
        if bins:
            edges = tuple(moments[0] + k for k in range(bins + 1))
            histogram = Histogram(tuple(range(bins)), edges)
        metrics = MetricSet(
            count=9,
            expectation=moments[0],
            stddev=moments[1],
            minimum=moments[2],
            maximum=moments[3],
            quantiles=quantiles,
            histogram=histogram,
        )
        _assert_remap_bits(metrics, AffineMapping(alpha, beta))
