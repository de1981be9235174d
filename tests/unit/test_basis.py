"""Unit tests for the basis-distribution store (paper Algorithm 3)."""

import copy
import os
import pickle
from operator import attrgetter

import numpy as np
import pytest

from repro.core import persist
from repro.core.basis import BasisStore, EvictionPolicy
from repro.core.estimator import Estimator
from repro.core.fingerprint import Fingerprint
from repro.core.index import ArrayIndex, NormalizationIndex, SortedSIDIndex
from repro.core.mapping import (
    AffineMapping,
    IdentityMappingFamily,
    LinearMappingFamily,
    MonotoneMappingFamily,
)


def affine_fp(fp, alpha, beta):
    return Fingerprint(tuple(alpha * v + beta for v in fp.values))


BASE_FP = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
BASE_SAMPLES = np.linspace(-1.0, 2.0, 50)


class TestAddAndMatch:
    def test_empty_store_matches_nothing(self):
        store = BasisStore()
        assert store.match(BASE_FP) is None
        assert len(store) == 0

    def test_added_basis_matches_itself(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        matched = store.match(BASE_FP)
        assert matched is not None
        basis, mapping = matched
        assert isinstance(mapping, AffineMapping)
        assert mapping.is_identity
        assert basis.fingerprint == BASE_FP

    def test_affine_image_matches_with_mapping(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        probe = affine_fp(BASE_FP, 2.0, 1.0)
        basis, mapping = store.match(probe)
        assert mapping.alpha == pytest.approx(2.0)
        assert mapping.beta == pytest.approx(1.0)

    def test_unrelated_fingerprint_does_not_match(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        assert store.match(Fingerprint((0.0, 1.0, 0.9, 0.1, 0.2))) is None

    def test_ids_are_sequential(self):
        store = BasisStore()
        first = store.add(BASE_FP, BASE_SAMPLES)
        second = store.add(
            Fingerprint((0.0, 1.0, 0.9, 0.1, 0.2)), BASE_SAMPLES
        )
        assert (first.basis_id, second.basis_id) == (0, 1)
        assert store.get(1) is second

    def test_bases_property_sorted(self):
        store = BasisStore()
        store.add(BASE_FP, BASE_SAMPLES)
        store.add(Fingerprint((0.0, 1.0, 0.9, 0.1, 0.2)), BASE_SAMPLES)
        assert [b.basis_id for b in store.bases] == [0, 1]


class TestMetricsFor:
    def test_affine_reuse_uses_closed_form(self):
        store = BasisStore()
        basis = store.add(BASE_FP, BASE_SAMPLES)
        mapping = AffineMapping(3.0, -1.0)
        metrics = store.metrics_for(basis, mapping)
        direct = Estimator().estimate(mapping.apply_array(BASE_SAMPLES))
        assert metrics.expectation == pytest.approx(direct.expectation)
        assert metrics.stddev == pytest.approx(direct.stddev)

    def test_general_mapping_recomputes_from_samples(self):
        store = BasisStore(mapping_family=MonotoneMappingFamily())
        basis = store.add(BASE_FP, BASE_SAMPLES)
        cubed = Fingerprint(tuple(v**3 for v in BASE_FP.values))
        matched = store.match(cubed)
        assert matched is not None
        _, mapping = matched
        metrics = store.metrics_for(basis, mapping)
        assert metrics.count == len(BASE_SAMPLES)


class TestStats:
    def test_counters_track_activity(self):
        store = BasisStore()
        store.match(BASE_FP)
        store.add(BASE_FP, BASE_SAMPLES)
        store.match(affine_fp(BASE_FP, 2.0, 0.0))
        stats = store.stats
        assert stats.lookups == 2
        assert stats.matches == 1
        assert stats.bases_created == 1
        assert stats.candidates_tested >= 1
        assert set(stats.as_dict()) == {
            "lookups",
            "candidates_tested",
            "matches",
            "bases_created",
        }


class TestExtendBasis:
    def test_extension_updates_metrics(self):
        store = BasisStore()
        basis = store.add(BASE_FP, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        before = basis.metrics.count
        store.extend_basis(basis.basis_id, np.array([6.0, 7.0]))
        assert store.get(basis.basis_id).metrics.count == before + 2
        assert store.get(basis.basis_id).metrics.maximum == 7.0


class TestFamilyIndexInteraction:
    def test_identity_family_falls_back_to_array_index(self):
        store = BasisStore(mapping_family=IdentityMappingFamily())
        assert isinstance(store.index, ArrayIndex)

    @pytest.mark.parametrize(
        "strategy, index_class",
        [
            ("array", ArrayIndex),
            ("normalization", NormalizationIndex),
            ("sorted_sid", SortedSIDIndex),
        ],
    )
    def test_explicit_index_strategy_respected(self, strategy, index_class):
        store = BasisStore(
            mapping_family=LinearMappingFamily(), index_strategy=strategy
        )
        assert type(store.index) is index_class
        assert store.index.strategy == strategy

    def test_identity_family_still_matches_equal(self):
        store = BasisStore(mapping_family=IdentityMappingFamily())
        store.add(BASE_FP, BASE_SAMPLES)
        matched = store.match(Fingerprint(BASE_FP.values))
        assert matched is not None
        _, mapping = matched
        assert mapping.is_identity

    def test_identity_family_rejects_affine_image(self):
        store = BasisStore(mapping_family=IdentityMappingFamily())
        store.add(BASE_FP, BASE_SAMPLES)
        assert store.match(affine_fp(BASE_FP, 2.0, 0.0)) is None


def _full_sort_victims(policy, store):
    """``EvictionPolicy.victims`` as first written: every live basis
    sorted by the ranking key, then retired in order until the bounds
    hold."""
    bases = list(store._bases.values())
    count = len(bases)
    total = sum(b.nbytes() for b in bases) if policy.max_bytes is not None else 0
    if not policy._exceeded(count, total):
        return []
    key = (
        attrgetter("hits", "basis_id")
        if policy.keep == "value"
        else attrgetter("basis_id")
    )
    victims = []
    for basis in sorted(bases, key=key):
        if not policy._exceeded(count, total):
            break
        victims.append(basis.basis_id)
        count -= 1
        total -= basis.nbytes()
    return victims


class TestVictimsAgainstTheFullSort:
    """The partial ranking retires exactly the bases, in exactly the
    order, that sorting every live basis does."""

    @staticmethod
    def _store(tmp_path, restored):
        rng = np.random.default_rng(11)
        store = BasisStore(index_strategy="array")
        for i in range(60):
            # Samples of three lengths, so byte bounds retire unevenly.
            store.add(
                Fingerprint(tuple(rng.normal(size=5))),
                rng.normal(size=10 * (1 + i % 3)),
            )
        for basis_id in range(0, 60, 7):
            store.remove(basis_id)
        for basis in store.bases:
            basis.hits = int(rng.integers(0, 3))  # ties at every count
        if restored:
            persist.save_store(store, str(tmp_path / "snap"))
            store = persist.load_store(str(tmp_path / "snap"))
            # Listed out of id order, as a snapshot may list its bases.
            order = rng.permutation(sorted(store._bases)).tolist()
            store._bases = {i: store._bases[i] for i in order}
            assert list(store._bases) != sorted(store._bases)
        return store

    @pytest.mark.parametrize("restored", [False, True])
    @pytest.mark.parametrize("keep", ["value", "recent"])
    def test_every_bound(self, tmp_path, keep, restored):
        store = self._store(tmp_path, restored)
        total = sum(b.nbytes() for b in store.bases)
        policies = [
            EvictionPolicy(max_bases=bound, keep=keep)
            for bound in (0, 1, 10, len(store) - 1, len(store), 100)
        ] + [
            EvictionPolicy(max_bytes=bound, keep=keep)
            for bound in (0, 200, total // 2, total - 1, total)
        ] + [
            EvictionPolicy(max_bases=30, max_bytes=total // 3, keep=keep),
            EvictionPolicy(max_bases=10, max_bytes=total, keep=keep),
        ]
        for policy in policies:
            victims = policy.victims(store)
            assert victims == _full_sort_victims(policy, store), policy
            assert all(type(basis_id) is int for basis_id in victims)


def _batch_fixture(seed=5):
    """Fingerprints of two sizes — fresh ones and affine images of
    earlier ones, so buckets are shared — and a C-contiguous sample
    matrix, one row a fingerprint."""
    rng = np.random.default_rng(seed)
    fingerprints = []
    for k in range(11):
        size = (5, 7)[k % 3 == 2]
        same = [fp for fp in fingerprints if fp.size == size]
        if same and k % 2:
            fingerprints.append(affine_fp(same[0], -2.0, 0.5 * k))
        else:
            fingerprints.append(Fingerprint(tuple(rng.normal(size=size))))
    return fingerprints, rng.normal(size=(len(fingerprints), 12))


def _seeded_store(strategy, removed=()):
    store = BasisStore(index_strategy=strategy)
    for fingerprint in _batch_fixture(seed=9)[0][:6]:
        store.add(fingerprint, BASE_SAMPLES)
    for basis_id in removed:
        store.remove(basis_id)
    return store


def _index_contents(index):
    """Everything a probe can read of an index (queued arrivals keyed)."""
    if isinstance(index, ArrayIndex):
        return list(index._ids)
    if isinstance(index, NormalizationIndex):
        index._settle()
    return {key: list(ids) for key, ids in index._buckets.items()}


def _columnar_state(columnar):
    """The columnar mirror, bit for bit: each size block's live matrix,
    ids and fingerprints, and the id -> (size, row) arrays."""
    known = columnar._known
    return (
        known,
        columnar._size_of[:known].tolist(),
        columnar._row_of[:known].tolist(),
        {
            size: (
                block.count,
                block.dead,
                block.matrix[: block.count].tobytes(),
                [int(i) for i in block.ids],
                [fp.values for fp in block.fingerprints],
            )
            for size, block in sorted(columnar._blocks.items())
        },
    )


def _store_state(store):
    return (
        _columnar_state(store.columnar),
        _index_contents(copy.deepcopy(store.index)),
        store._next_id,
        store.stats.as_dict(),
        store._nbytes,
        [
            (b.basis_id, b.hits, b.samples.tobytes(), pickle.dumps(b.metrics))
            for b in store.bases
        ],
    )


def _snapshot_bytes(store, path):
    persist.save_store(copy.deepcopy(store), str(path))
    return {
        name: (path / name).read_bytes() for name in sorted(os.listdir(path))
    }


class TestAddBatchIsTheAddLoop:
    """``add_batch`` — one columnar append a fingerprint size — leaves
    the store a loop of ``add`` leaves: columnar bits, index buckets,
    ids, counters, and the snapshot it saves."""

    @staticmethod
    def _loop(store, fingerprints, samples):
        for fingerprint, row in zip(fingerprints, samples):
            store.add(fingerprint, np.array(row, dtype=float))

    def _assert_same(self, batched, looped, tmp_path):
        assert _store_state(batched) == _store_state(looped)
        assert _snapshot_bytes(batched, tmp_path / "batched") == (
            _snapshot_bytes(looped, tmp_path / "looped")
        )

    @pytest.mark.parametrize("strategy", ["array", "normalization", "sorted_sid"])
    def test_every_prefix_of_mixed_sizes(self, tmp_path, strategy):
        fingerprints, samples = _batch_fixture()
        for done in (0, 1, 4, len(samples)):
            batched = _seeded_store(strategy, removed=(1, 4))
            looped = copy.deepcopy(batched)
            added = batched.add_batch(fingerprints, samples[:done])
            self._loop(looped, fingerprints, samples[:done])
            assert [b.basis_id for b in added] == list(range(6, 6 + done))
            self._assert_same(batched, looped, tmp_path / str(done))
            # Each basis owns its row.
            assert all(b.samples.base is None for b in added)

    @pytest.mark.parametrize("strategy", ["array", "normalization", "sorted_sid"])
    def test_onto_a_memory_mapped_snapshot(self, tmp_path, strategy):
        persist.save_store(_seeded_store(strategy, removed=(2,)), str(tmp_path / "s"))
        on_disk = {
            name: (tmp_path / "s" / name).read_bytes()
            for name in os.listdir(tmp_path / "s")
        }
        batched = persist.load_store(str(tmp_path / "s"), mmap=True)
        looped = persist.load_store(str(tmp_path / "s"), mmap=True)
        assert not batched.columnar._blocks[5].matrix.flags.writeable
        fingerprints, samples = _batch_fixture()
        batched.add_batch(fingerprints, samples)
        self._loop(looped, fingerprints, samples)
        # Copy-on-write promotion: fresh writable matrices, file untouched.
        assert all(
            block.matrix.flags.writeable
            for block in batched.columnar._blocks.values()
        )
        assert on_disk == {
            name: (tmp_path / "s" / name).read_bytes()
            for name in os.listdir(tmp_path / "s")
        }
        self._assert_same(batched, looped, tmp_path)

    @pytest.mark.parametrize("strategy", ["array", "normalization", "sorted_sid"])
    def test_adopt_and_restore_register_as_adds_do(self, tmp_path, strategy):
        fingerprints, samples = _batch_fixture()
        shard = BasisStore(index_strategy=strategy)
        self._loop(shard, fingerprints, samples)
        shard.remove(3)  # a gap: adopted ids need not be every id
        merged = _seeded_store(strategy, removed=(0,))
        looped = copy.deepcopy(merged)
        merged.merge(shard, reprobe=False)
        for basis in shard.bases:  # creation order, as the merge adopts
            looped.add(basis.fingerprint, basis.samples, basis.metrics)
        assert _columnar_state(merged.columnar) == _columnar_state(
            looped.columnar
        )
        assert merged._nbytes == looped._nbytes
        # A snapshot load registers each block in one step; retired ids
        # stay unregistered (size 0), as a compacted store has them.
        persist.save_store(merged, str(tmp_path / "m"))
        restored = persist.load_store(str(tmp_path / "m"), mmap=True)
        assert _columnar_state(restored.columnar) == _columnar_state(
            merged.columnar
        )
        assert restored.columnar._size_of[0] == 0


class TestRunningByteTotal:
    """``_nbytes`` — what a byte bound reads — is the live bases' summed
    ``nbytes()`` after every change to the store."""

    def test_every_mutation(self, tmp_path):
        def total(store):
            return sum(basis.nbytes() for basis in store.bases)

        fingerprints, samples = _batch_fixture()
        store = _seeded_store("normalization")
        assert store._nbytes == total(store)
        store.add_batch(fingerprints[:4], samples[:4])
        assert store._nbytes == total(store)
        store.remove(2)
        store.extend_basis(5, np.arange(7.0))
        assert store._nbytes == total(store)
        for reprobe in (False, True):
            shard = BasisStore()
            shard.add_batch(fingerprints[4:], samples[4:])
            store.merge(shard, reprobe=reprobe)
            assert store._nbytes == total(store)
        store.evict(EvictionPolicy(max_bytes=store._nbytes // 2))
        assert 0 < store._nbytes == total(store)
        persist.save_store(store, str(tmp_path / "s"))
        loaded = persist.load_store(str(tmp_path / "s"), mmap=True)
        assert loaded._nbytes == store._nbytes == total(loaded)
