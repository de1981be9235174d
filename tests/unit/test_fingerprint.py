"""Unit tests for fingerprints (paper section 3.1)."""

import numpy as np
import pytest

from repro.core.fingerprint import (
    Fingerprint,
    compute_fingerprint,
    fingerprint_from_values,
    values_close,
)
from repro.core.seeds import SeedBank
from repro.errors import FingerprintError


class TestConstruction:
    def test_holds_values(self):
        fp = Fingerprint((1.0, 2.0, 3.0))
        assert fp.values == (1.0, 2.0, 3.0)
        assert fp.size == 3
        assert len(fp) == 3

    def test_indexing_and_iteration(self):
        fp = Fingerprint((5.0, 6.0))
        assert fp[0] == 5.0
        assert list(fp) == [5.0, 6.0]

    def test_empty_rejected(self):
        with pytest.raises(FingerprintError):
            Fingerprint(())

    def test_from_values_coerces_floats(self):
        fp = fingerprint_from_values([1, 2, 3])
        assert fp.values == (1.0, 2.0, 3.0)

    def test_sequence_inputs_become_python_floats(self):
        """Lists, integer arrays and float32 sample vectors all land as a
        tuple of Python floats — the doubles ``float(v)`` would give."""
        samples = np.array([0.1, -2.5, 3.0], dtype=np.float32)
        for values in ([1, 2, 3], np.arange(3), samples):
            fp = Fingerprint(values)
            assert isinstance(fp.values, tuple)
            assert all(type(v) is float for v in fp.values)
            assert fp.values == tuple(float(v) for v in values)

    def test_repr_truncates(self):
        fp = Fingerprint(tuple(float(i) for i in range(10)))
        assert "..." in repr(fp)


class TestComputeFingerprint:
    def test_uses_first_m_seeds_in_order(self):
        bank = SeedBank(3)
        seen = []

        def sample(seed):
            seen.append(seed)
            return float(len(seen))

        fp = compute_fingerprint(sample, bank, 4)
        assert seen == bank.seeds(4)
        assert fp.values == (1.0, 2.0, 3.0, 4.0)

    def test_size_must_be_positive(self):
        with pytest.raises(FingerprintError):
            compute_fingerprint(lambda s: 0.0, SeedBank(3), 0)


class TestConstancy:
    def test_constant_detected(self):
        assert Fingerprint((2.0, 2.0, 2.0)).is_constant()

    def test_near_constant_within_tolerance(self):
        fp = Fingerprint((1.0, 1.0 + 1e-12, 1.0))
        assert fp.is_constant()

    def test_nonconstant_detected(self):
        assert not Fingerprint((1.0, 2.0)).is_constant()

    def test_first_distinct_pair(self):
        assert Fingerprint((1.0, 1.0, 5.0)).first_distinct_pair() == (0, 2)

    def test_first_distinct_pair_none_for_constant(self):
        assert Fingerprint((1.0, 1.0)).first_distinct_pair() is None


class TestNormalForm:
    def test_anchors_map_to_zero_and_one(self):
        form = Fingerprint((3.0, 7.0, 5.0)).normal_form()
        assert form[0] == 0.0
        assert form[1] == 1.0
        assert form[2] == pytest.approx(0.5)

    def test_affine_images_share_normal_form(self):
        base = Fingerprint((1.0, 4.0, 2.5, -1.0))
        mapped = Fingerprint(tuple(2.5 * v - 7.0 for v in base.values))
        assert base.normal_form() == mapped.normal_form()

    def test_negative_scale_images_share_normal_form(self):
        base = Fingerprint((1.0, 4.0, 2.5))
        flipped = Fingerprint(tuple(-3.0 * v + 1.0 for v in base.values))
        assert base.normal_form() == flipped.normal_form()

    def test_constant_normalizes_to_zeros(self):
        assert Fingerprint((9.0, 9.0)).normal_form() == (0.0, 0.0)

    def test_no_negative_zero_keys(self):
        form = Fingerprint((1.0, 2.0, 1.0)).normal_form()
        assert all(str(v) != "-0.0" for v in form)

    def test_distinct_shapes_differ(self):
        a = Fingerprint((0.0, 1.0, 0.5)).normal_form()
        b = Fingerprint((0.0, 1.0, 0.75)).normal_form()
        assert a != b


class TestSidOrder:
    def test_ascending_order(self):
        assert Fingerprint((3.0, 1.0, 2.0)).sid_order() == (1, 2, 0)

    def test_descending_order_is_reverse(self):
        fp = Fingerprint((3.0, 1.0, 2.0))
        assert fp.sid_order(descending=True) == tuple(
            reversed(fp.sid_order())
        )

    def test_ties_broken_by_index(self):
        assert Fingerprint((1.0, 1.0, 0.0)).sid_order() == (2, 0, 1)

    def test_invariant_under_increasing_affine_map(self):
        base = Fingerprint((3.0, 1.0, 2.0, 10.0))
        mapped = Fingerprint(tuple(2.0 * v + 5.0 for v in base.values))
        assert base.sid_order() == mapped.sid_order()

    def test_reversed_under_decreasing_affine_map(self):
        base = Fingerprint((3.0, 1.0, 2.0, 10.0))
        mapped = Fingerprint(tuple(-2.0 * v for v in base.values))
        assert mapped.sid_order() == base.sid_order(descending=True)


class TestScaleAndTolerance:
    def test_scale_positive_even_for_zero_vector(self):
        assert Fingerprint((0.0, 0.0)).scale() == 1.0

    def test_values_close_relative(self):
        assert values_close(1e9, 1e9 * (1 + 1e-12))
        assert not values_close(1.0, 1.001)

    def test_values_close_absolute_floor(self):
        assert values_close(0.0, 1e-13)
