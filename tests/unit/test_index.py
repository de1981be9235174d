"""Unit tests for fingerprint indexes (paper section 3.2)."""

import pickle

import numpy as np
import pytest

from repro.core import persist
from repro.core.basis import BLOCK_MIN_PROBES, BasisStore
from repro.core.fingerprint import Fingerprint
from repro.core.index import (
    ArrayIndex,
    NormalizationIndex,
    SortedSIDIndex,
    make_index,
)
from repro.errors import IndexError_


def affine(fp, alpha, beta):
    return Fingerprint(tuple(alpha * v + beta for v in fp.values))


BASE = Fingerprint((0.0, 1.2, 2.3, 1.3, 1.5))


class TestIndexState:
    """``dump_state`` equality is the equality of the snapshot files."""

    @pytest.mark.parametrize(
        "strategy", ["array", "normalization", "sorted_sid"]
    )
    def test_equal_states_and_their_restores_compare_equal(self, strategy):
        index = make_index(strategy)
        for basis_id, fingerprint in enumerate((BASE, affine(BASE, 2, 1))):
            index.insert(fingerprint, basis_id)
        state = index.dump_state()
        assert state == type(index).restore_state(state).dump_state()
        assert not state != index.dump_state()

    def test_one_bit_or_one_dtype_apart_is_unequal(self):
        index = NormalizationIndex()
        index.insert(Fingerprint((0.0, 1.0, 0.5)), 0)
        state = index.dump_state()
        signed = dict(state, keys=state["keys"].copy())
        signed["keys"][0] = -0.0  # 0.0 == -0.0, but not bitwise
        assert state != signed and not state == signed
        assert state != dict(state, ids=state["ids"].astype(np.int32))
        assert state != dict(state, rel_tol=(2e-9).hex())


class TestArrayIndex:
    def test_returns_everything(self):
        index = ArrayIndex()
        index.insert(BASE, 0)
        index.insert(affine(BASE, 2.0, 1.0), 1)
        probe = Fingerprint((9.0, 9.0, 9.0, 9.0, 9.0))
        assert index.candidates(probe) == [0, 1]

    def test_len_tracks_inserts(self):
        index = ArrayIndex()
        assert len(index) == 0
        index.insert(BASE, 0)
        assert len(index) == 1


class TestNormalizationIndex:
    def test_affine_image_found(self):
        index = NormalizationIndex()
        index.insert(BASE, 7)
        assert index.candidates(affine(BASE, 3.0, -2.0)) == [7]

    def test_negative_scale_image_found(self):
        index = NormalizationIndex()
        index.insert(BASE, 7)
        assert index.candidates(affine(BASE, -1.5, 4.0)) == [7]

    def test_unrelated_shape_not_returned(self):
        index = NormalizationIndex()
        index.insert(BASE, 7)
        probe = Fingerprint((0.0, 1.0, 0.3, 0.9, 0.1))
        assert index.candidates(probe) == []

    def test_constant_fingerprints_bucket_together(self):
        index = NormalizationIndex()
        index.insert(Fingerprint((4.0,) * 5), 1)
        assert index.candidates(Fingerprint((9.0,) * 5)) == [1]

    def test_multiple_in_bucket(self):
        index = NormalizationIndex()
        index.insert(BASE, 1)
        index.insert(affine(BASE, 5.0, 0.0), 2)
        assert set(index.candidates(BASE)) == {1, 2}


def _arrivals(count, seed=5):
    """``(fingerprint, id)`` pairs: two fingerprint sizes, and every
    fourth an affine image of the first so buckets fill past one id."""
    rng = np.random.default_rng(seed)
    pairs = []
    for basis_id in range(count):
        if basis_id % 4 == 3:
            values = 2.5 * np.asarray(pairs[0][0].values) - basis_id
        else:
            values = rng.uniform(-4.0, 4.0, size=5 if basis_id % 3 else 3)
        pairs.append((Fingerprint(tuple(values.tolist())), basis_id))
    return pairs


def _twins(pairs):
    """Cache-free copies: no index sees a key another one computed."""
    return [(Fingerprint(fp.values), basis_id) for fp, basis_id in pairs]


def _keyed_on_arrival(pairs):
    index = NormalizationIndex()
    for fingerprint, basis_id in _twins(pairs):
        index.insert(fingerprint, basis_id)
        index.candidates(fingerprint)  # a read: settles this arrival alone
    return index


def _unread(pairs):
    index = NormalizationIndex()
    for fingerprint, basis_id in _twins(pairs):
        index.insert(fingerprint, basis_id)
    return index


#: Bursts on both sides of the settle's scalar / vectorized crossover.
BURSTS = (1, BLOCK_MIN_PROBES - 1, BLOCK_MIN_PROBES, 70)


class TestNormalizationIndexSettles:
    """``insert`` only queues; every reader of the buckets keys the queue
    first.  Whoever reads first, the index is the one keyed on arrival."""

    @pytest.mark.parametrize("burst", BURSTS)
    def test_candidates_after_a_burst(self, burst):
        pairs = _arrivals(burst)
        eager, lazy = _keyed_on_arrival(pairs), _unread(pairs)
        for fingerprint, _ in pairs:
            image = affine(fingerprint, -1.5, 0.25)
            assert lazy.candidates(image) == eager.candidates(image)

    @pytest.mark.parametrize("burst", BURSTS)
    def test_candidates_batch_and_dump_state_after_a_burst(self, burst):
        pairs = _arrivals(burst)
        eager = _keyed_on_arrival(pairs)
        probes = [fingerprint for fingerprint, _ in _twins(pairs)]
        assert _unread(pairs).candidates_batch(
            probes
        ) == eager.candidates_batch(probes)
        assert _unread(pairs).dump_state() == eager.dump_state()

    def test_len_counts_unread_inserts(self):
        index = _unread(_arrivals(9))
        assert len(index) == 9
        index.candidates(BASE)
        assert len(index) == 9

    def test_settling_leaves_the_caches_a_scalar_probe_leaves(self):
        pairs = _twins(_arrivals(9))
        index = NormalizationIndex()
        for fingerprint, basis_id in pairs:
            index.insert(fingerprint, basis_id)
            assert not fingerprint._cache  # nothing keyed on arrival
        index.candidates(BASE)
        for fingerprint, _ in pairs:
            key = fingerprint._cache[("normal_form", index._rel_tol)]
            assert key == Fingerprint(fingerprint.values).normal_form()

    def test_remove_of_a_still_queued_id(self):
        pairs = _arrivals(12)
        eager, lazy = _keyed_on_arrival(pairs), _unread(pairs)
        for fingerprint, basis_id in (pairs[3], pairs[0], pairs[11]):
            eager.remove(fingerprint, basis_id)
            lazy.remove(fingerprint, basis_id)
        assert len(lazy) == len(eager) == 9
        assert lazy.dump_state() == eager.dump_state()
        with pytest.raises(IndexError_):
            lazy.remove(*pairs[3])

    def test_merge_from_and_into_unread_indexes(self):
        ours, theirs = _arrivals(10, seed=1), _arrivals(7, seed=2)
        id_map = {basis_id: 100 + basis_id for _, basis_id in theirs[:-2]}
        eager = _keyed_on_arrival(ours)
        eager.merge(_keyed_on_arrival(theirs), id_map)
        lazy = _unread(ours)
        lazy.merge(_unread(theirs), id_map)
        assert len(lazy) == len(eager) == 15
        assert lazy.dump_state() == eager.dump_state()

    def test_pickle_carries_the_queue(self):
        # Fork/spawn workers receive stores by pickle, read or not.
        pairs = _arrivals(9)
        clone = pickle.loads(pickle.dumps(_unread(pairs)))
        assert len(clone) == 9
        assert clone.dump_state() == _keyed_on_arrival(pairs).dump_state()

    def test_restored_index_has_nothing_queued(self):
        state = _unread(_arrivals(9)).dump_state()
        restored = NormalizationIndex.restore_state(state)
        assert restored.dump_state() == state
        restored.insert(BASE, 50)
        assert restored.candidates(BASE)[-1] == 50


class TestUnreadStore:
    """The same, seen from the store: bases added with no probe between."""

    @staticmethod
    def _store(pairs, probe_between):
        store = BasisStore()
        for fingerprint, _ in _twins(pairs):
            store.add(fingerprint, np.asarray(fingerprint.values))
            if probe_between:
                store.index.candidates(fingerprint)
        return store

    def test_snapshot_bytes_do_not_depend_on_when_keys_were_computed(
        self, tmp_path
    ):
        pairs = _arrivals(40)
        for name, probe_between in (("eager", True), ("lazy", False)):
            persist.save_store(
                self._store(pairs, probe_between), str(tmp_path / name)
            )

        def files(name):  # the manifest among them, with its CRCs
            return {
                entry.name: entry.read_bytes()
                for entry in (tmp_path / name).iterdir()
            }

        assert len(files("eager")) >= 3
        assert files("lazy") == files("eager")

    @pytest.mark.parametrize("reprobe", [True, False])
    def test_merge_of_unread_stores(self, reprobe):
        ours, theirs = _arrivals(10, seed=1), _arrivals(7, seed=2)
        merged = {}
        for probe_between in (True, False):
            store = self._store(ours, probe_between)
            translation = store.merge(
                self._store(theirs, probe_between), reprobe=reprobe
            )
            merged[probe_between] = (
                {k: v[0] for k, v in translation.items()},
                store.index.dump_state(),
                store.stats.as_dict(),
            )
        assert merged[False] == merged[True]


class TestSortedSIDIndex:
    def test_increasing_map_found(self):
        index = SortedSIDIndex()
        index.insert(BASE, 3)
        cubed = Fingerprint(tuple(v**3 for v in BASE.values))
        assert index.candidates(cubed) == [3]

    def test_decreasing_map_found_via_reversed_key(self):
        index = SortedSIDIndex()
        index.insert(BASE, 3)
        negated = Fingerprint(tuple(-v for v in BASE.values))
        assert index.candidates(negated) == [3]

    def test_different_order_not_returned(self):
        index = SortedSIDIndex()
        index.insert(Fingerprint((1.0, 2.0, 3.0)), 1)
        assert index.candidates(Fingerprint((2.0, 1.0, 3.0))) == []

    def test_no_duplicate_candidates_for_symmetric_orders(self):
        index = SortedSIDIndex()
        fp = Fingerprint((1.0, 2.0))
        index.insert(fp, 1)
        # A constant probe cannot collide; a matching probe appears once.
        assert index.candidates(fp).count(1) == 1


class TestFactory:
    def test_strategy_names(self):
        assert isinstance(make_index("array"), ArrayIndex)
        assert isinstance(make_index("normalization"), NormalizationIndex)
        assert isinstance(make_index("sorted_sid"), SortedSIDIndex)
        assert isinstance(make_index("sorted-sid"), SortedSIDIndex)
        assert isinstance(make_index("SID"), SortedSIDIndex)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(IndexError_):
            make_index("btree")
