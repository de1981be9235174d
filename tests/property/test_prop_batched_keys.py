"""Property: the vectorized key pass hashes what the scalar methods hash.

``batch_normal_forms`` / ``batch_sid_orders`` on fresh fingerprints (no
cached key) return, key for key and bit for bit, what
``Fingerprint._compute_normal_form`` / ``Fingerprint.sid_order`` compute
one fingerprint at a time — for mixed sizes, ties, constants, ``-0.0``,
forms that equal their reflection entry by entry for a while, and whether
or not the caller hands over its own stack of the probes.  And the
row-wise choice between a form and its reflection is Python's
``min(tuple, tuple)``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import (
    DEFAULT_REL_TOL,
    Fingerprint,
    _rows_lexicographic_min,
    batch_normal_forms,
    batch_sid_orders,
    stack_by_size,
)

#: A coarse grid — ties, constants and symmetric forms are the interesting
#: cases — plus both zeros and a few values the grid would never tie.
_entries = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([-0.0, 0.0, 0.5, 1e-12, -1e6, 1e6]),
    st.floats(min_value=-4.0, max_value=4.0),
)
_fingerprint_values = st.integers(min_value=1, max_value=7).flatmap(
    lambda size: st.lists(_entries, min_size=size, max_size=size)
)
_batches = st.lists(_fingerprint_values, min_size=0, max_size=12)


def _bits(key):
    """Sign of zero included (``-0.0 == 0.0`` would hide a wrong key)."""
    return [value.hex() if isinstance(value, float) else value for value in key]


def _fresh(batch):
    return [Fingerprint(tuple(values)) for values in batch]


class TestBatchedKeysAreTheScalarKeys:
    @given(batch=_batches, stacked=st.booleans(), cached=st.data())
    @settings(max_examples=150, deadline=None)
    def test_normal_forms(self, batch, stacked, cached):
        probes = _fresh(batch)
        # Some probes arrive with their key already cached (the traced
        # benchmark sibling, a fingerprint probed twice): the pass must
        # cut the pending rows out of the caller's stack.
        for probe in probes:
            if cached.draw(st.booleans()):
                probe.normal_form(DEFAULT_REL_TOL)
        stacks = stack_by_size(probes) if stacked else None
        keys = batch_normal_forms(probes, DEFAULT_REL_TOL, stacks=stacks)
        want = [
            Fingerprint(tuple(values))._compute_normal_form(DEFAULT_REL_TOL)
            for values in batch
        ]
        assert [_bits(key) for key in keys] == [_bits(key) for key in want]
        for probe, values in zip(probes, batch):
            twin = Fingerprint(tuple(values))
            assert probe.first_distinct_pair() == twin.first_distinct_pair()
            assert probe.normal_form() is probe.normal_form()  # cached

    @given(batch=_batches, stacked=st.booleans(), descending=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sid_orders(self, batch, stacked, descending):
        probes = _fresh(batch)
        stacks = stack_by_size(probes) if stacked else None
        keys = batch_sid_orders(
            probes, descending=descending, stacks=stacks
        )
        want = [
            Fingerprint(tuple(values)).sid_order(descending=descending)
            for values in batch
        ]
        assert keys == want
        assert all(type(entry) is int for key in keys for entry in key)

    @given(batch=_batches)
    @settings(max_examples=60, deadline=None)
    def test_stacks_hold_the_probes_in_order(self, batch):
        probes = _fresh(batch)
        stacks = stack_by_size(probes)
        assert sorted(i for indices, _ in stacks.values() for i in indices) == (
            list(range(len(probes)))
        )
        for size, (indices, matrix) in stacks.items():
            assert indices == sorted(indices)
            assert matrix.dtype == np.float64
            assert matrix.shape == (len(indices), size)
            for row, i in enumerate(indices):
                assert matrix[row].tobytes() == probes[i].array.tobytes()


_cells = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, float("nan")])
_row_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(
        st.tuples(
            st.lists(_cells, min_size=width, max_size=width),
            st.lists(_cells, min_size=width, max_size=width),
        ),
        min_size=1,
        max_size=8,
    )
)


class TestRowsLexicographicMin:
    """``min(tuple(forward), tuple(reflected))`` row by row: rows equal
    throughout, first differing in the last column, differing at a NaN
    (``min`` keeps its first argument there), signed zeros."""

    @given(rows=_row_pairs)
    @settings(max_examples=200, deadline=None)
    def test_equals_tuple_min(self, rows):
        forward = np.array([left for left, _ in rows])
        reflected = np.array([right for _, right in rows])
        chosen = _rows_lexicographic_min(forward, reflected)
        for row, (left, right) in enumerate(
            zip(forward.tolist(), reflected.tolist())
        ):
            want = min(tuple(left), tuple(right))
            assert _bits(chosen[row].tolist()) == _bits(want)

    def test_first_difference_in_the_last_column(self):
        forward = np.array([[0.5, 0.5, 1.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.5]])
        reflected = np.array(
            [[0.5, 0.5, 0.0], [0.5, 0.5, 1.0], [0.5, 0.5, 0.5]]
        )
        chosen = _rows_lexicographic_min(forward, reflected)
        assert chosen.tolist() == [
            [0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.5],
        ]
