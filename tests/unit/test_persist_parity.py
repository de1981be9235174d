"""Save -> load -> probe parity (the persistence layer's invariant).

A store loaded from a snapshot must be indistinguishable from the live
store it was saved from: for every probe the same basis id, bitwise-same
mapping parameters, and the same ``candidates_tested`` counters (stats are
persisted, so the cumulative counters line up exactly) — across all five
mapping families, all three index strategies, and every store shape the
match-parity suite exercises, including after a :meth:`BasisStore.merge`
into a loaded store.  Mirrors ``test_match_parity.py``.

Also pinned here: copy-on-write promotion (mutating a memory-mapped store
never writes through to the snapshot), atomic overwrite, and the typed
compatibility refusals.
"""

import os

import numpy as np
import pytest

from repro.api import Session
from repro.core import persist
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator
from repro.core.fingerprint import Fingerprint
from repro.core.index import INDEX_STRATEGIES
from repro.core.mapping import (
    IdentityMappingFamily,
    LinearMappingFamily,
    MonotoneMappingFamily,
    ScaleMappingFamily,
    ShiftMappingFamily,
)
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank
from repro.errors import (
    PersistError,
    SnapshotCompatibilityError,
)
from repro.interactive.session import InteractiveSession
from repro.scenario.parameter import RangeParameter
from repro.scenario.space import ParameterSpace

FAMILY_FACTORIES = {
    "linear": LinearMappingFamily,
    "identity": IdentityMappingFamily,
    "shift": ShiftMappingFamily,
    "scale": ScaleMappingFamily,
    "monotone": MonotoneMappingFamily,
}

BASE = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
SAMPLES = np.linspace(-1.0, 2.0, 40)


def _affine(fp, alpha, beta):
    return Fingerprint(tuple(alpha * v + beta for v in fp.values))


def _cubic(fp):
    return Fingerprint(tuple(v**3 for v in fp.values))


CONTENTS = {
    "empty": [],
    "singleton": [BASE],
    "duplicates": [BASE, Fingerprint(BASE.values), _affine(BASE, 1.0, 0.0)],
    "mixed": [
        BASE,
        _affine(BASE, 2.0, 3.0),
        _cubic(BASE),
        Fingerprint((4.0, 4.0, 4.0, 4.0, 4.0)),  # constant
        Fingerprint((0.0, 0.0, 0.0, 0.0, 0.0)),  # zero
        Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),  # other size
        _affine(BASE, -1.5, 0.25),
    ],
}

PROBES = [
    BASE,
    _affine(BASE, 1.0, 0.0),
    _affine(BASE, 3.0, -2.0),
    _affine(BASE, 1.0, 4.5),  # pure shift
    _affine(BASE, 2.5, 0.0),  # pure scale
    _affine(BASE, -2.0, 1.0),  # decreasing affine
    _cubic(BASE),  # monotone, not affine
    Fingerprint(tuple(-(v**3) for v in BASE.values)),  # decreasing monotone
    Fingerprint((4.0, 4.0, 4.0, 4.0, 4.0)),  # constant hit
    Fingerprint((7.5, 7.5, 7.5, 7.5, 7.5)),  # constant shift image
    Fingerprint((0.0, 0.0, 0.0, 0.0, 0.0)),  # zero
    Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8)),  # unrelated: miss
    Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),  # other size, exact
    Fingerprint((2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)),  # other size, 2x
]


def build_store(family_name, strategy, fingerprints):
    store = BasisStore(
        mapping_family=FAMILY_FACTORIES[family_name](),
        index_strategy=strategy,
    )
    store.columnar_min_candidates = 0
    store.columnar_check.exhaust()
    for index, fingerprint in enumerate(fingerprints):
        store.add(fingerprint, SAMPLES * (index + 1))
    return store


def fresh_like(store):
    return BasisStore(
        mapping_family=type(store.mapping_family)(),
        index_strategy=type(store.index).strategy,
    )


def save_and_load(store, path, mmap=True):
    persist.save_store(store, str(path))
    loaded = persist.load_store(str(path), like=fresh_like(store), mmap=mmap)
    loaded.columnar_min_candidates = store.columnar_min_candidates
    loaded.columnar_check.exhaust()
    return loaded


def assert_same_match(expected, actual):
    assert (expected is None) == (actual is None)
    if expected is None:
        return
    assert actual.basis.basis_id == expected.basis.basis_id
    assert type(actual.mapping) is type(expected.mapping)
    assert actual.mapping == expected.mapping


def assert_probe_parity(live, loaded):
    """Probe both stores identically; everything observable must agree."""
    assert len(loaded) == len(live)
    assert loaded.stats.as_dict() == live.stats.as_dict()
    expected = [live.match(probe) for probe in PROBES]
    actual = [loaded.match(probe) for probe in PROBES]
    for want, got in zip(expected, actual):
        assert_same_match(want, got)
    assert loaded.stats.as_dict() == live.stats.as_dict()
    via_batch = loaded.match_batch(PROBES)
    live.match_batch(PROBES)
    for want, got in zip(expected, via_batch):
        assert_same_match(want, got)
    assert loaded.stats.as_dict() == live.stats.as_dict()


class TestSaveLoadProbeParity:
    @pytest.mark.parametrize("content_name", sorted(CONTENTS))
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_loaded_store_probes_like_live(
        self, family_name, strategy, content_name, tmp_path
    ):
        content = CONTENTS[content_name]
        if not content:
            # An empty collection is refused outright (nothing to persist
            # is almost always a caller bug); pin that and stop.
            store = build_store(family_name, strategy, content)
            persist.save_store(store, str(tmp_path / "snap"))
            loaded = persist.load_store(
                str(tmp_path / "snap"), like=fresh_like(store)
            )
            assert len(loaded) == 0
            assert loaded.match(BASE) is None
            return
        live = build_store(family_name, strategy, content)
        loaded = save_and_load(live, tmp_path / "snap")
        assert_probe_parity(live, loaded)

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_probed_store_roundtrips_materialized_keys(
        self, family_name, strategy, tmp_path
    ):
        """Saving *after* probes (key matrices materialized, stats
        non-zero) must round-trip those too."""
        live = build_store(family_name, strategy, CONTENTS["mixed"])
        for probe in PROBES:
            live.match(probe)
        loaded = save_and_load(live, tmp_path / "snap")
        assert_probe_parity(live, loaded)

    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_samples_and_metrics_bitwise(self, family_name, tmp_path):
        live = build_store(family_name, "array", CONTENTS["mixed"])
        loaded = save_and_load(live, tmp_path / "snap")
        for basis_id in range(len(live)):
            live_basis = live.get(basis_id)
            loaded_basis = loaded.get(basis_id)
            np.testing.assert_array_equal(
                np.asarray(loaded_basis.samples),
                np.asarray(live_basis.samples),
            )
            assert loaded_basis.metrics == live_basis.metrics
            assert (
                loaded_basis.fingerprint.values
                == live_basis.fingerprint.values
            )

    def test_snapshot_listing_normal_form_matrices_still_loads(
        self, tmp_path
    ):
        """Earlier builds also wrote a per-block normal-form key matrix;
        nothing reads it any more and the loader skips the entry."""
        import json
        import zlib

        live = build_store("linear", "normalization", CONTENTS["mixed"])
        path = tmp_path / "snap"
        persist.save_store(live, str(path))
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        body = manifest["body"]
        for block_entry in body["stores"]["default"]["blocks"].values():
            name = block_entry["matrix"]
            body["arrays"][name + ".nf"] = body["arrays"][name]
            block_entry["normal_forms"] = {
                persist.encode_float(live.rel_tol): name + ".nf"
            }
        manifest["crc32"] = zlib.crc32(persist._canonical(body))
        manifest_path.write_text(json.dumps(manifest))
        loaded = persist.load_store(str(path), like=fresh_like(live))
        loaded.columnar_min_candidates = 0
        loaded.columnar_check.exhaust()
        assert_probe_parity(live, loaded)

    def test_no_mmap_mode_matches_mmap_mode(self, tmp_path):
        live = build_store("linear", "normalization", CONTENTS["mixed"])
        persist.save_store(live, str(tmp_path / "snap"))
        mapped = persist.load_store(
            str(tmp_path / "snap"), like=fresh_like(live), mmap=True
        )
        copied = persist.load_store(
            str(tmp_path / "snap"), like=fresh_like(live), mmap=False
        )
        for probe in PROBES:
            assert_same_match(mapped.match(probe), copied.match(probe))
        assert mapped.stats.as_dict() == copied.stats.as_dict()


class TestMergeIntoLoadedStore:
    LEFT = [BASE, _cubic(BASE), Fingerprint((3.0, 3.0, 3.0, 3.0, 3.0))]
    RIGHT = [
        _affine(BASE, 4.0, -1.0),  # collapses into BASE under linear
        Fingerprint((0.2, 0.7, 0.1, 0.9, 0.4)),  # new basis
        Fingerprint(BASE.values),  # duplicate of BASE
    ]

    @pytest.mark.parametrize("reprobe", (True, False))
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_merge_after_load_equals_live_merge(
        self, family_name, strategy, reprobe, tmp_path
    ):
        live_left = build_store(family_name, strategy, self.LEFT)
        live_right = build_store(family_name, strategy, self.RIGHT)
        loaded_left = save_and_load(live_left, tmp_path / "left")
        loaded_right = save_and_load(live_right, tmp_path / "right")

        expected = live_left.merge(live_right, reprobe=reprobe)
        actual = loaded_left.merge(loaded_right, reprobe=reprobe)

        assert set(actual) == set(expected)
        for incoming_id in expected:
            assert actual[incoming_id] == expected[incoming_id]
        assert_probe_parity(live_left, loaded_left)

    def test_merged_loaded_store_resnapshots(self, tmp_path):
        """save -> load -> merge -> save -> load keeps full parity."""
        live_left = build_store("linear", "normalization", self.LEFT)
        live_right = build_store("linear", "normalization", self.RIGHT)
        loaded_left = save_and_load(live_left, tmp_path / "left")
        loaded_right = save_and_load(live_right, tmp_path / "right")
        live_left.merge(live_right)
        loaded_left.merge(loaded_right)
        reloaded = save_and_load(loaded_left, tmp_path / "merged")
        assert_probe_parity(live_left, reloaded)


class TestCopyOnWrite:
    """Mutating a memory-mapped store must never touch the snapshot."""

    def _snapshot_bytes(self, path):
        payload = {}
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as handle:
                payload[name] = handle.read()
        return payload

    def test_add_extend_merge_leave_snapshot_untouched(self, tmp_path):
        live = build_store("linear", "normalization", CONTENTS["mixed"])
        path = tmp_path / "snap"
        persist.save_store(live, str(path))
        before = self._snapshot_bytes(path)

        loaded = persist.load_store(str(path), like=fresh_like(live))
        # Every mutation class: append a basis, extend one, merge a store.
        loaded.add(Fingerprint((9.0, 8.0, 7.0, 6.0, 5.0)), np.arange(12.0))
        loaded.extend_basis(0, np.arange(5.0))
        other = build_store("linear", "normalization", [_cubic(BASE)])
        loaded.merge(other)
        loaded.match_batch(PROBES)

        assert self._snapshot_bytes(path) == before
        # And a reload still sees the original store.
        reloaded = persist.load_store(str(path), like=fresh_like(live))
        assert len(reloaded) == len(live)

    def test_loaded_matrices_are_readonly_until_promoted(self, tmp_path):
        live = build_store("linear", "array", CONTENTS["mixed"])
        loaded = save_and_load(live, tmp_path / "snap")
        block = loaded.columnar._blocks[BASE.size]
        assert not block.matrix.flags.writeable
        loaded.add(_affine(BASE, 7.0, 7.0), SAMPLES)
        assert block is loaded.columnar._blocks[BASE.size]
        assert block.matrix.flags.writeable  # promoted, not written through

    def test_interactive_rebind_on_loaded_store(self, tmp_path):
        """`_rebind_from_scratch` (and refinement) on a read-only/mmap
        store must promote copy-on-write, not crash or corrupt."""
        live = BasisStore()
        explorer_sim = lambda params, seed: (  # noqa: E731
            params["x"] * float(seed % 97) / 97.0
        )
        # Seed the store with one basis so the session can warm-start.
        space = ParameterSpace([RangeParameter("x", 1.0, 3.0, 1.0)])
        seeder = InteractiveSession(
            explorer_sim, space, fingerprint_size=4, chunk=3,
            basis_store=live,
        )
        seeder.focus({"x": 1.0})
        seeder.run(4)
        path = tmp_path / "snap"
        persist.save_store(live, str(path))
        before = self._snapshot_bytes(path)

        session = InteractiveSession(
            explorer_sim, space, fingerprint_size=4, chunk=3,
            basis_store=Session.open(
                str(path),
                like=BasisStore(),
                seed_bank=DEFAULT_SEED_BANK,
                estimator=live.estimator,
            ),
        )
        assert len(session.store) == len(live)
        session.focus({"x": 2.0})
        for _ in range(9):
            session.tick()
        # Force the failed-validation path directly as well.
        state = session._state({"x": 2.0})
        session._rebind_from_scratch(state)
        assert session.estimate({"x": 2.0}) is not None
        assert self._snapshot_bytes(path) == before


class TestAtomicityAndRefusals:
    def test_overwrite_is_all_or_nothing(self, tmp_path):
        first = build_store("linear", "normalization", CONTENTS["singleton"])
        second = build_store("linear", "normalization", CONTENTS["mixed"])
        path = tmp_path / "snap"
        persist.save_store(first, str(path))
        persist.save_store(second, str(path))
        loaded = persist.load_store(str(path), like=fresh_like(second))
        assert len(loaded) == len(second)
        # No stray temp/old directories survive a successful swap.
        leftovers = [
            name
            for name in os.listdir(tmp_path)
            if name != "snap"
        ]
        assert leftovers == []

    def test_family_mismatch_refused(self, tmp_path):
        live = build_store("linear", "normalization", CONTENTS["singleton"])
        persist.save_store(live, str(tmp_path / "snap"))
        with pytest.raises(SnapshotCompatibilityError, match="family"):
            persist.load_store(
                str(tmp_path / "snap"),
                like=BasisStore(mapping_family=ShiftMappingFamily()),
            )

    def test_strategy_mismatch_refused(self, tmp_path):
        live = build_store("linear", "normalization", CONTENTS["singleton"])
        persist.save_store(live, str(tmp_path / "snap"))
        with pytest.raises(SnapshotCompatibilityError, match="strategy"):
            persist.load_store(
                str(tmp_path / "snap"),
                like=BasisStore(index_strategy="sorted_sid"),
            )

    def test_tolerance_mismatch_refused(self, tmp_path):
        live = build_store("linear", "array", CONTENTS["singleton"])
        persist.save_store(live, str(tmp_path / "snap"))
        with pytest.raises(SnapshotCompatibilityError, match="tolerance"):
            persist.load_store(
                str(tmp_path / "snap"),
                like=BasisStore(index_strategy="array", rel_tol=1e-6),
            )

    def test_seed_bank_mismatch_refused(self, tmp_path):
        live = build_store("linear", "array", CONTENTS["singleton"])
        persist.save_store(
            live, str(tmp_path / "snap"), seed_bank=SeedBank(1234)
        )
        with pytest.raises(SnapshotCompatibilityError, match="seed bank"):
            persist.load_store(
                str(tmp_path / "snap"), seed_bank=SeedBank(5678)
            )
        # The recorded bank itself loads fine.
        loaded = persist.load_store(
            str(tmp_path / "snap"), seed_bank=SeedBank(1234)
        )
        assert len(loaded) == 1

    def test_estimator_mismatch_refused(self, tmp_path):
        live = build_store("linear", "array", CONTENTS["singleton"])
        persist.save_store(live, str(tmp_path / "snap"))
        unusual = BasisStore(
            index_strategy="array",
            estimator=Estimator(quantile_probabilities=(0.5,)),
        )
        with pytest.raises(SnapshotCompatibilityError, match="estimator"):
            persist.load_store(str(tmp_path / "snap"), like=unusual)

    def test_store_name_set_mismatch_refused(self, tmp_path):
        persist.save_stores(
            {"a": build_store("linear", "array", CONTENTS["singleton"])},
            str(tmp_path / "snap"),
        )
        with pytest.raises(SnapshotCompatibilityError, match="covers"):
            persist.load_stores(
                str(tmp_path / "snap"),
                like={"a": BasisStore(index_strategy="array"),
                      "b": BasisStore(index_strategy="array")},
            )

    def test_newer_version_refused(self, tmp_path):
        live = build_store("linear", "array", CONTENTS["singleton"])
        path = tmp_path / "snap"
        persist.save_store(live, str(path))
        import json
        import zlib

        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["body"]["version"] = persist.SNAPSHOT_VERSION + 1
        manifest["crc32"] = zlib.crc32(
            persist._canonical(manifest["body"])
        )
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCompatibilityError, match="version"):
            persist.load_store(str(path))

    def test_missing_snapshot_raises_persist_error(self, tmp_path):
        with pytest.raises(PersistError, match="no snapshot"):
            persist.load_store(str(tmp_path / "absent"))

    def test_empty_collection_refused(self, tmp_path):
        with pytest.raises(PersistError, match="empty"):
            persist.save_stores({}, str(tmp_path / "snap"))

    def test_snapshot_info_summarizes_without_loading(self, tmp_path):
        persist.save_stores(
            {
                "demand": build_store(
                    "linear", "normalization", CONTENTS["mixed"]
                ),
                "overload": build_store(
                    "identity", "array", CONTENTS["singleton"]
                ),
            },
            str(tmp_path / "snap"),
            metadata={"figure": "fig8"},
        )
        info = persist.snapshot_info(str(tmp_path / "snap"))
        assert info["version"] == persist.SNAPSHOT_VERSION
        assert info["metadata"] == {"figure": "fig8"}
        assert info["stores"]["demand"] == {
            "bases": len(CONTENTS["mixed"]),
            "mapping_family": "LinearMappingFamily",
            "index_strategy": "normalization",
        }
        assert info["stores"]["overload"]["mapping_family"] == (
            "IdentityMappingFamily"
        )
        assert info["stores"]["overload"]["index_strategy"] == "array"

    def test_unknown_family_without_like_refused(self, tmp_path):
        class OddFamily(LinearMappingFamily):
            pass

        live = BasisStore(mapping_family=OddFamily(), index_strategy="array")
        live.add(BASE, SAMPLES)
        persist.save_store(live, str(tmp_path / "snap"))
        with pytest.raises(SnapshotCompatibilityError, match="built-in"):
            persist.load_store(str(tmp_path / "snap"))
        # With a matching `like` store the user family round-trips.
        loaded = persist.load_store(
            str(tmp_path / "snap"),
            like=BasisStore(
                mapping_family=OddFamily(), index_strategy="array"
            ),
        )
        assert isinstance(loaded.mapping_family, OddFamily)
        assert loaded.match(_affine(BASE, 2.0, 1.0)) is not None
