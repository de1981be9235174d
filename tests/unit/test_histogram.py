"""Unit tests for the histogram answer representation and its remapping."""

import numpy as np
import pytest

from repro.core.estimator import Estimator, Histogram
from repro.core.mapping import AffineMapping
from repro.errors import EstimatorError

SAMPLES = np.linspace(0.0, 10.0, 101)


class TestConstruction:
    def test_estimator_builds_histogram(self):
        metrics = Estimator(histogram_bins=5).estimate(SAMPLES)
        assert metrics.histogram is not None
        assert len(metrics.histogram.counts) == 5
        assert metrics.histogram.total == len(SAMPLES)
        assert metrics.histogram.edges[0] == 0.0
        assert metrics.histogram.edges[-1] == 10.0

    def test_histogram_off_by_default(self):
        assert Estimator().estimate(SAMPLES).histogram is None

    def test_negative_bins_rejected(self):
        with pytest.raises(EstimatorError):
            Estimator(histogram_bins=-1)

    def test_edge_count_validated(self):
        with pytest.raises(EstimatorError):
            Histogram((1, 2), (0.0, 1.0))

    @pytest.mark.parametrize(
        "samples",
        [(1.0, np.inf), (-np.inf, 0.0), (1.0, np.nan), (1e308, -1e308)],
        ids=["inf", "-inf", "nan", "range-overflow"],
    )
    def test_unbinnable_range_is_a_typed_error(self, samples):
        # numpy says ValueError; the estimator's callers map JigsawError.
        # (errstate: inf - inf and the like warn on the way, as in numpy.)
        with np.errstate(all="ignore"):
            with pytest.raises(EstimatorError, match="4-bin histogram"):
                Estimator(histogram_bins=4).estimate(samples)
            # Without bins the same samples are estimable.
            assert Estimator().estimate(samples).count == 2

    def test_density_sums_to_one(self):
        histogram = Estimator(histogram_bins=4).estimate(SAMPLES).histogram
        assert sum(histogram.density()) == pytest.approx(1.0)


class TestRemap:
    def test_positive_alpha_maps_edges(self):
        histogram = Histogram((5, 10), (0.0, 1.0, 2.0))
        mapped = histogram.remap(AffineMapping(2.0, 1.0))
        assert mapped.edges == (1.0, 3.0, 5.0)
        assert mapped.counts == (5, 10)

    def test_negative_alpha_reverses_bins(self):
        histogram = Histogram((5, 10), (0.0, 1.0, 2.0))
        mapped = histogram.remap(AffineMapping(-1.0, 0.0))
        assert mapped.edges == (-2.0, -1.0, 0.0)
        assert mapped.counts == (10, 5)

    def test_remap_matches_recomputing(self):
        # Irregular samples keep values off computed bin edges: a value
        # exactly on an interior edge may switch bins under a negative-alpha
        # map because numpy bins are half-open (edges always agree exactly).
        # Equally spaced samples would sit on 1/4, 1/2, 3/4 edges.
        samples = np.random.default_rng(7).uniform(0.0, 10.0, 200)
        mapping = AffineMapping(-2.5, 4.0)
        estimator = Estimator(histogram_bins=8)
        remapped = estimator.estimate(samples).histogram.remap(mapping)
        direct = estimator.estimate(mapping.apply_array(samples)).histogram
        assert remapped.counts == direct.counts
        assert remapped.edges == pytest.approx(direct.edges)

    def test_metricset_remap_carries_histogram(self):
        metrics = Estimator(histogram_bins=4).estimate(SAMPLES)
        remapped = metrics.remap(AffineMapping(3.0, -1.0))
        assert remapped.histogram is not None
        assert remapped.histogram.edges[0] == pytest.approx(-1.0)


class TestProbabilityAbove:
    def test_exact_at_edges(self):
        histogram = Histogram((10, 30, 60), (0.0, 1.0, 2.0, 3.0))
        assert histogram.probability_above(1.0) == pytest.approx(0.9)
        assert histogram.probability_above(0.0) == pytest.approx(1.0)
        assert histogram.probability_above(3.0) == 0.0

    def test_interpolates_within_bin(self):
        histogram = Histogram((100,), (0.0, 1.0))
        assert histogram.probability_above(0.25) == pytest.approx(0.75)

    def test_matches_empirical_tail(self):
        histogram = Estimator(histogram_bins=50).estimate(SAMPLES).histogram
        empirical = float((SAMPLES > 7.3).mean())
        assert histogram.probability_above(7.3) == pytest.approx(
            empirical, abs=0.03
        )

    def test_empty_histogram_rejected(self):
        with pytest.raises(EstimatorError):
            Histogram((0, 0), (0.0, 1.0, 2.0)).probability_above(0.5)
