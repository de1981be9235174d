"""Unit tests for the basis-distribution store (paper Algorithm 3)."""

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
