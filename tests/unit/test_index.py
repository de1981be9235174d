"""Unit tests for fingerprint indexes (paper section 3.2)."""

import pickle

import numpy as np
import pytest

from repro.core import persist
from repro.core.basis import BLOCK_MIN_PROBES, BasisStore
from repro.core.fingerprint import (
    DEFAULT_REL_TOL,
    Fingerprint,
    batch_sid_orders,
)
from repro.core.index import (
    INDEX_STRATEGIES,
    ArrayIndex,
    NormalizationIndex,
    SortedSIDIndex,
    make_index,
)
from repro.errors import IndexError_


def affine(fp, alpha, beta):
    return Fingerprint(tuple(alpha * v + beta for v in fp.values))


BASE = Fingerprint((0.0, 1.2, 2.3, 1.3, 1.5))


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


def _buckets(index):
    """A normalization index's buckets once its queue is keyed: all that
    any probe reads (the dict's key order is not read)."""
    index._settle()
    return dict(index._buckets)


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
    def test_candidates_batch_and_buckets_after_a_burst(self, burst):
        pairs = _arrivals(burst)
        eager = _keyed_on_arrival(pairs)
        probes = [fingerprint for fingerprint, _ in _twins(pairs)]
        assert _unread(pairs).candidates_batch(
            probes
        ) == eager.candidates_batch(probes)
        assert _buckets(_unread(pairs)) == _buckets(eager)

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
            key = fingerprint._cache[("normal_form", DEFAULT_REL_TOL)]
            assert key == Fingerprint(fingerprint.values).normal_form()

    def test_remove_of_a_still_queued_id(self):
        pairs = _arrivals(12)
        eager, lazy = _keyed_on_arrival(pairs), _unread(pairs)
        for fingerprint, basis_id in (pairs[3], pairs[0], pairs[11]):
            eager.remove(fingerprint, basis_id)
            lazy.remove(fingerprint, basis_id)
        assert len(lazy) == len(eager) == 9
        assert _buckets(lazy) == _buckets(eager)
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
        assert _buckets(lazy) == _buckets(eager)

    def test_pickle_carries_the_queue(self):
        # Fork/spawn workers receive stores by pickle, read or not.
        pairs = _arrivals(9)
        clone = pickle.loads(pickle.dumps(_unread(pairs)))
        assert len(clone) == 9
        assert _buckets(clone) == _buckets(_keyed_on_arrival(pairs))


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
                _buckets(store.index),
                store.stats.as_dict(),
            )
        assert merged[False] == merged[True]


def _contents(index):
    """All a probe can read of an index: its ids, or its buckets once its
    queued arrivals are keyed (the dict's key order is not read)."""
    if isinstance(index, ArrayIndex):
        return list(index._ids)
    if isinstance(index, NormalizationIndex):
        index._settle()
    return dict(index._buckets)


class TestLoadDerivesTheIndex:
    """A snapshot carries no index: a load re-inserts the stored
    fingerprints in id order under the recorded strategy.  That is the
    index the saved store held — bucket for bucket, after removals and a
    compaction too — and it answers every probe the same."""

    @staticmethod
    def _store(strategy):
        store = BasisStore(index_strategy=strategy)
        for fingerprint, _ in _twins(_arrivals(24)):
            store.add(fingerprint, np.asarray(fingerprint.values))
        for basis_id in (3, 10, 17):
            store.remove(basis_id)
        store.compact()
        return store

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_loaded_index_is_the_saved_one(self, strategy, mmap, tmp_path):
        live = self._store(strategy)
        persist.save_store(live, str(tmp_path / "snap"))
        loaded = persist.load_store(str(tmp_path / "snap"), mmap=mmap)
        assert type(loaded.index) is type(live.index)
        assert len(loaded.index) == len(live.index) == 21
        assert _contents(loaded.index) == _contents(live.index)
        probes = []
        for basis in live.bases:  # each basis and an affine image
            probes.append(Fingerprint(basis.fingerprint.values))
            probes.append(affine(basis.fingerprint, -2.0, 2.5))
        assert loaded.index.candidates_batch(probes) == (
            live.index.candidates_batch(
                [Fingerprint(probe.values) for probe in probes]
            )
        )

    def test_loaded_normalization_index_keys_at_its_first_read(
        self, tmp_path
    ):
        live = self._store("normalization")
        persist.save_store(live, str(tmp_path / "snap"))
        loaded = persist.load_store(str(tmp_path / "snap"))
        index = loaded.index
        # Queued in id order, nothing keyed until a probe reads.
        assert [basis_id for _, basis_id in index._pending] == [
            basis.basis_id for basis in live.bases
        ]
        assert not index._buckets
        assert index.candidates(BASE) == live.index.candidates(BASE)
        assert not index._pending
        # An arrival after the load lands behind the loaded ids.
        first = live.bases[0].fingerprint
        index.insert(affine(first, 3.0, 1.0), 50)
        assert index.candidates(first)[-1] == 50

    def test_sorted_sid_load_keys_each_block_in_one_pass(
        self, monkeypatch, tmp_path
    ):
        live = self._store("sorted_sid")
        persist.save_store(live, str(tmp_path / "snap"))
        passes = []

        def counted(fingerprints, *args, **kwargs):
            passes.append(len(fingerprints))
            return batch_sid_orders(fingerprints, *args, **kwargs)

        scalar = Fingerprint.sid_order

        def cached_only(fingerprint, descending=False):
            # The inserts find every key the block pass left in the cache.
            key = "sid_desc" if descending else "sid_asc"
            assert key in fingerprint._cache
            return scalar(fingerprint, descending)

        monkeypatch.setattr(persist, "batch_sid_orders", counted)
        monkeypatch.setattr(Fingerprint, "sid_order", cached_only)
        loaded = persist.load_store(str(tmp_path / "snap"))
        monkeypatch.undo()
        # One pass per fingerprint size (3 and 5), over all its rows.
        assert sorted(passes) == sorted(
            sum(len(b.fingerprint.values) == size for b in live.bases)
            for size in (3, 5)
        )
        for basis in loaded.bases:
            fresh = Fingerprint(basis.fingerprint.values)
            assert basis.fingerprint._cache["sid_asc"] == fresh.sid_order()


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
