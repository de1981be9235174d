"""Property-based snapshot round trips and corruption detection.

Two families of properties:

* **Bitwise round trips.**  Generated fingerprints, mappings, metric sets,
  and whole basis stores survive serialize∘deserialize *bit-identically* —
  including nan/inf entries and subnormal magnitudes, because a float
  crosses JSON as a ``float.hex()`` string and a snapshot as a float64
  array.
* **Corruption is always typed, never partial.**  Truncating or
  bit-flipping any byte of any snapshot file either leaves the snapshot
  loadable with the *original* content (flip landed in dead zip/JSON
  whitespace — impossible here, so in practice it doesn't) or raises
  :class:`~repro.errors.SnapshotCorruptionError`; a load never returns a
  store built from damaged bytes.  So does a checksum-consistent snapshot
  whose tables do not add up (an array rewritten and its CRC recomputed),
  and one whose index does not hold each stored basis exactly once.
"""

import io
import json
import math
import os
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import persist
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator, MetricSet
from repro.core.fingerprint import Fingerprint
from repro.core.index import INDEX_STRATEGIES, NormalizationIndex
from repro.core.mapping import (
    AffineMapping,
    IdentityMappingFamily,
    LinearMappingFamily,
    PiecewiseLinearMapping,
    _NegatedPiecewise,
)
from repro.errors import (
    PersistError,
    SnapshotCompatibilityError,
    SnapshotCorruptionError,
)

# Full-range doubles, including nan, inf, subnormals, and signed zeros:
# hex encoding must round-trip every bit pattern a store can hold.
any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
finite_float = st.floats(allow_nan=False, allow_infinity=False, width=64)

fingerprints = st.lists(finite_float, min_size=1, max_size=12).map(
    lambda vs: Fingerprint(tuple(vs))
)


def _bit_equal(a, b):
    """Float equality treating nan == nan and distinguishing -0.0/0.0.

    nan signs are not compared: ``float.hex`` canonicalizes every nan to
    ``'nan'``, and no store semantics distinguish nan payloads (array
    payloads travel through ``.npy`` files, which preserve them exactly).
    """
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


class TestFloatCodec:
    @given(value=any_float)
    @settings(max_examples=400)
    def test_hex_roundtrip_is_bitwise(self, value):
        again = persist.decode_float(persist.encode_float(value))
        assert _bit_equal(value, again)

    @given(value=any_float)
    @settings(max_examples=200)
    def test_roundtrip_survives_json(self, value):
        encoded = json.loads(json.dumps(persist.encode_float(value)))
        assert _bit_equal(value, persist.decode_float(encoded))


class TestValueRoundTrips:
    @given(fp=fingerprints)
    @settings(max_examples=200)
    def test_fingerprint_roundtrip(self, fp):
        again = persist.decode_fingerprint(persist.encode_fingerprint(fp))
        assert again.values == fp.values
        assert again.sid_order() == fp.sid_order()

    @given(
        fp=st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=12,
        ).map(lambda vs: Fingerprint(tuple(vs)))
    )
    @settings(max_examples=200)
    def test_fingerprint_roundtrip_rebuilds_index_keys(self, fp):
        """Derived hash keys match bitwise too (bounded magnitudes: the
        normal form's span arithmetic overflows to nan near 1e308, where
        the keys are nan-poisoned for live and loaded stores alike)."""
        again = persist.decode_fingerprint(persist.encode_fingerprint(fp))
        assert again.normal_form() == fp.normal_form()
        assert again.sid_order(descending=True) == fp.sid_order(
            descending=True
        )

    @given(alpha=finite_float, beta=finite_float)
    @settings(max_examples=200)
    def test_affine_mapping_roundtrip(self, alpha, beta):
        mapping = AffineMapping(alpha, beta)
        again = persist.decode_mapping(persist.encode_mapping(mapping))
        assert type(again) is AffineMapping
        assert _bit_equal(again.alpha, mapping.alpha)
        assert _bit_equal(again.beta, mapping.beta)

    @given(
        xs=st.lists(
            st.integers(min_value=-10_000, max_value=10_000),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        ys=st.lists(finite_float, min_size=8, max_size=8),
        negated=st.booleans(),
    )
    @settings(max_examples=200)
    def test_piecewise_mapping_roundtrip(self, xs, ys, negated):
        knots_x = tuple(float(x) for x in sorted(xs))
        knots_y = tuple(ys[: len(knots_x)])
        mapping = PiecewiseLinearMapping(knots_x, knots_y)
        if negated:
            mapping = _NegatedPiecewise(mapping)
        again = persist.decode_mapping(persist.encode_mapping(mapping))
        assert type(again) is type(mapping)
        inner_a = again.inner if negated else again
        inner_b = mapping.inner if negated else mapping
        assert inner_a.knots_x == inner_b.knots_x
        assert all(
            _bit_equal(a, b)
            for a, b in zip(inner_a.knots_y, inner_b.knots_y)
        )

    @given(
        # Bounded magnitudes: np.histogram needs finite, resolvable bin
        # edges, which extreme doubles deny — an Estimator precondition,
        # not a persistence one (matrices/samples go through .npy, which
        # is bit-exact for every double; scalar extremes are covered by
        # the float-codec tests above).
        samples=st.lists(
            st.floats(
                min_value=-1e9,
                max_value=1e9,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=40,
        ),
        with_histogram=st.booleans(),
    )
    @settings(max_examples=150)
    def test_metric_set_roundtrip(self, samples, with_histogram):
        estimator = Estimator(histogram_bins=4 if with_histogram else 0)
        metrics = estimator.estimate(np.asarray(samples, dtype=float))
        again = persist.decode_metrics(persist.encode_metrics(metrics))
        assert isinstance(again, MetricSet)
        # MetricSet is a frozen dataclass of floats/tuples: dataclass
        # equality is exact — and nan-free here, so == is the full check.
        assert again == metrics


def _store_from(sample_rows):
    store = BasisStore()
    for row in sample_rows:
        samples = np.asarray(row, dtype=float)
        store.add(Fingerprint(tuple(samples[:4])), samples)
    return store


store_contents = st.lists(
    st.lists(finite_float, min_size=4, max_size=12),
    min_size=1,
    max_size=5,
)


class TestStoreRoundTrip:
    @given(rows=store_contents)
    @settings(max_examples=50, deadline=None)
    def test_store_roundtrip_bitwise(self, rows, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("snap") / "store")
        live = _store_from(rows)
        persist.save_store(live, path)
        loaded = persist.load_store(path, like=BasisStore())
        assert len(loaded) == len(live)
        for basis_id in range(len(live)):
            live_basis = live.get(basis_id)
            loaded_basis = loaded.get(basis_id)
            assert (
                loaded_basis.fingerprint.values
                == live_basis.fingerprint.values
            )
            np.testing.assert_array_equal(
                np.asarray(loaded_basis.samples),
                np.asarray(live_basis.samples),
            )
            assert loaded_basis.metrics == live_basis.metrics
        assert loaded.stats.as_dict() == live.stats.as_dict()


class TestCorruptionDetection:
    """Damage anywhere in a snapshot raises the typed corruption error."""

    def _snapshot(self, tmp_path):
        path = str(tmp_path / "store")
        live = _store_from([[0.0, 1.0, 0.5, 2.0, -1.0, 3.5]] * 3)
        live.match(Fingerprint((0.0, 2.0, 1.0, 4.0)))  # materialize keys
        persist.save_store(live, path)
        return path

    def _files(self, path):
        return sorted(
            os.path.join(path, name) for name in os.listdir(path)
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_raises_typed_error(self, data, tmp_path_factory):
        path = self._snapshot(tmp_path_factory.mktemp("snap"))
        files = self._files(path)
        target = data.draw(st.sampled_from(files), label="file")
        with open(target, "rb") as handle:
            raw = handle.read()
        # Cut into real content: the manifest ends with a newline, and a
        # whitespace-only truncation leaves a byte-equivalent (still
        # valid) document — that is not corruption.  Array files reject
        # any shortening via their recorded byte length, so the tighter
        # bound only skips cases that are equally fatal.
        max_keep = len(raw.rstrip()) - 1
        keep = data.draw(
            st.integers(min_value=0, max_value=max(0, max_keep)),
            label="keep_bytes",
        )
        with open(target, "wb") as handle:
            handle.write(raw[:keep])
        try:
            persist.load_store(path, like=BasisStore())
            raise AssertionError("truncated snapshot loaded successfully")
        except SnapshotCorruptionError:
            pass

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_flip_raises_typed_error(self, data, tmp_path_factory):
        path = self._snapshot(tmp_path_factory.mktemp("snap"))
        files = self._files(path)
        target = data.draw(st.sampled_from(files), label="file")
        with open(target, "rb") as handle:
            raw = bytearray(handle.read())
        position = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1),
            label="byte",
        )
        bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
        raw[position] ^= 1 << bit
        with open(target, "wb") as handle:
            handle.write(bytes(raw))
        try:
            persist.load_store(path, like=BasisStore())
            raise AssertionError("bit-flipped snapshot loaded successfully")
        except SnapshotCorruptionError:
            pass

    def test_deleted_array_file_raises(self, tmp_path):
        path = self._snapshot(tmp_path)
        for name in os.listdir(path):
            if name.endswith(".npy"):
                os.unlink(os.path.join(path, name))
                break
        try:
            persist.load_store(path, like=BasisStore())
            raise AssertionError("snapshot loaded with a missing array")
        except SnapshotCorruptionError:
            pass

    def test_non_snapshot_directory_raises(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"hello": "world"}')
        try:
            persist.load_store(str(tmp_path))
            raise AssertionError("non-snapshot directory loaded")
        except SnapshotCorruptionError:
            pass

    def test_missing_directory_is_persist_error(self, tmp_path):
        try:
            persist.load_store(str(tmp_path / "nope"))
            raise AssertionError("missing snapshot loaded")
        except PersistError:
            pass


# ---------------------------------------------------------------------------
# Checksum-consistent damage: the CRCs agree, the contents do not


V1_FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "unit", "data", "snapshot_v1"
)
V2_FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "unit", "data", "snapshot_v2"
)

BASE = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
OTHERS = (
    Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8)),
    Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),
    Fingerprint((-1.0, 0.5, 0.25, 3.0, 2.0)),
)


def _v3_snapshot(path):
    """Every basis-table column in use: quantiles, histograms on some
    bases and not others, two fingerprint sizes, nonzero hits."""
    store = BasisStore(estimator=Estimator(histogram_bins=3))
    plain = Estimator()
    for position, fingerprint in enumerate((BASE,) + OTHERS):
        samples = np.linspace(-1.0, 2.0, 12) * (position + 1)
        metrics = plain.estimate(samples) if position % 2 else None
        store.add(fingerprint, samples, metrics=metrics)
    store.match(Fingerprint(tuple(3.0 * v - 1.0 for v in BASE.values)))
    persist.save_store(store, path)
    return path


def _write_manifest(path, manifest):
    """Recompute the body CRC, so only the content is wrong."""
    manifest["crc32"] = zlib.crc32(persist._canonical(manifest["body"]))
    with open(os.path.join(path, persist.MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle)


def _read_manifest(path):
    with open(os.path.join(path, persist.MANIFEST_NAME)) as handle:
        return json.load(handle)


def _rewrite_array(path, name, edit):
    """Replace array ``name`` by ``edit(array)`` with a matching CRC."""
    manifest = _read_manifest(path)
    entry = manifest["body"]["arrays"][name]
    file_path = os.path.join(path, entry["file"])
    buffer = io.BytesIO()
    np.save(buffer, edit(np.load(file_path)))
    raw = buffer.getvalue()
    with open(file_path, "wb") as handle:
        handle.write(raw)
    entry.update(nbytes=len(raw), crc32=zlib.crc32(raw))
    _write_manifest(path, manifest)


def _moved(first, second, amount):
    """``edit`` moving ``amount`` from entry ``second`` to ``first``
    (the column's sum is unchanged)."""

    def edit(array):
        array = array.copy()
        array[first] += amount
        array[second] -= amount
        return array

    return edit


def _set(position, value):
    def edit(array):
        array = array.copy()
        array[position] = value
        return array

    return edit


CRAFTED = {
    "quantile counts summing past the vector": (
        "store0.quantile_counts", _set(0, 6)
    ),
    "a negative quantile count": ("store0.quantile_counts", _moved(0, 1, -6)),
    "histogram edges one short": (
        "store0.histogram_edges", lambda edges: edges[:-1]
    ),
    "histogram counts one long": (
        "store0.histogram_counts", lambda counts: np.append(counts, 1)
    ),
    "a bin count below -1": ("store0.bin_counts", _set(1, -2)),
    "a negative sample count": ("store0.sample_counts", _moved(0, 1, -16)),
    "sample counts summing past the vector": (
        "store0.sample_counts", _set(0, 13)
    ),
    "a negative MetricSet count": ("store0.count", _set(0, -1)),
    "a column one short": ("store0.hits", lambda hits: hits[:-1]),
    "a column of the wrong dtype": (
        "store0.hits", lambda hits: hits.astype(np.float64)
    ),
    "moments one column short": ("store0.moments", lambda m: m[:, :3]),
    "a basis listed twice": ("store0.basis_ids", _set(1, 0)),
    "a basis with no block row": ("store0.basis_ids", _set(1, 5)),
    "block ids one short": ("store0.block5.ids", lambda ids: ids[:-1]),
    "a block id out of range": ("store0.block5.ids", _set(0, 99)),
}


class TestCraftedTablesAreRefused:
    @pytest.mark.parametrize("case", sorted(CRAFTED))
    @pytest.mark.parametrize("mmap", [True, False])
    def test_v3_crafted_table(self, case, mmap, tmp_path):
        path = _v3_snapshot(str(tmp_path / "snap"))
        name, edit = CRAFTED[case]
        _rewrite_array(path, name, edit)
        with pytest.raises(SnapshotCorruptionError):
            persist.load_store(path, mmap=mmap)

    def test_v3_snapshot_without_damage_loads(self, tmp_path):
        """The crafted cases start from a loadable snapshot."""
        path = _v3_snapshot(str(tmp_path / "snap"))
        _rewrite_array(path, "store0.hits", lambda hits: hits)
        loaded = persist.load_store(path)
        assert [b.hits for b in loaded.bases] == [1, 0, 0, 0]
        assert [b.metrics.histogram is None for b in loaded.bases] == [
            False, True, False, True,
        ]

    def test_v3_basis_on_two_block_rows(self, tmp_path):
        path = _v3_snapshot(str(tmp_path / "snap"))
        _rewrite_array(
            path, "store0.block5.matrix", lambda m: np.vstack([m, m[:1]])
        )
        _rewrite_array(
            path, "store0.block5.ids", lambda ids: np.append(ids, ids[0])
        )
        manifest = _read_manifest(path)
        manifest["body"]["stores"]["default"]["blocks"]["5"]["count"] += 1
        _write_manifest(path, manifest)
        with pytest.raises(SnapshotCorruptionError, match="two block rows"):
            persist.load_store(path)

    def test_v2_negative_sample_count(self, tmp_path):
        """``[start, -16]`` passed ``start + count <= size``: the basis
        loaded with empty samples while its metrics counted 24."""
        path = str(tmp_path / "v2")
        shutil.copytree(V2_FIXTURE, path)
        manifest = _read_manifest(path)
        entry = manifest["body"]["stores"]["default"]["bases"][1]
        entry["samples"] = [entry["samples"][0], -16]
        _write_manifest(path, manifest)
        with pytest.raises(SnapshotCorruptionError, match="sample slice"):
            persist.load_store(path)

    def test_v1_index_state_is_never_read(self, tmp_path):
        """Version-1 buckets that drop live ids, name no basis and were
        keyed under another tolerance load as the index the stored
        fingerprints derive."""
        path = str(tmp_path / "v1")
        shutil.copytree(V1_FIXTURE, path)
        manifest = _read_manifest(path)
        index = manifest["body"]["stores"]["default"]["index"]
        assert [ids for _, ids in index["buckets"]] == [[0, 1, 4], [2], [3]]
        index["buckets"][0][1] = [0, 99]
        index["buckets"] = index["buckets"][:2]
        index["rel_tol"] = (1e-6).hex()
        _write_manifest(path, manifest)
        loaded = persist.load_store(path)
        derived = NormalizationIndex()
        for basis in loaded.bases:
            derived.insert(
                Fingerprint(basis.fingerprint.values), basis.basis_id
            )
        for built in (loaded.index, derived):
            built._settle()
        assert loaded.index._buckets == derived._buckets
        assert sorted(
            basis_id
            for ids in loaded.index._buckets.values()
            for basis_id in ids
        ) == [0, 1, 2, 3, 4]
        for basis in loaded.bases:
            image = Fingerprint(
                tuple(3.0 * v - 1.0 for v in basis.fingerprint.values)
            )
            assert basis.basis_id in loaded.index.candidates(image)

    def test_v2_index_missing_a_live_id(self, tmp_path):
        """The index is derived on load, so buckets that drop a live id
        are never read: the basis still answers its exact image."""
        path = str(tmp_path / "v2")
        shutil.copytree(V2_FIXTURE, path)
        manifest = _read_manifest(path)
        index = manifest["body"]["stores"]["default"]["index"]
        index["buckets"] = [
            bucket for bucket in index["buckets"] if bucket[1] != [4]
        ]
        assert len(index["buckets"]) == 5
        _write_manifest(path, manifest)
        loaded = persist.load_store(path)
        image = Fingerprint(tuple(0.5 * v for v in OTHERS[2].values))
        result = loaded.match(image)
        assert result.basis.basis_id == 4
        assert result.mapping.alpha == 0.5 and result.mapping.beta == 0.0


class TestLoadRebuildsADamagedIndex:
    """A live index that lost a basis's id misses that basis's exact
    affine image — a false negative paper section 3.2 rules out — and
    one naming no basis hands the matcher a dangling id.  Neither damage
    outlives a save and load: the loaded index is derived from the
    stored bases."""

    def _store(self, strategy):
        store = BasisStore(index_strategy=strategy)
        for position, fingerprint in enumerate((BASE,) + OTHERS):
            store.add(fingerprint, np.linspace(-1.0, 2.0, 12) + position)
        return store

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_index_missing_a_live_id(self, strategy, tmp_path):
        store = self._store(strategy)
        store.index.remove(BASE, 0)
        image = Fingerprint(tuple(2.0 * v for v in BASE))
        assert store.match(image) is None
        persist.save_store(store, str(tmp_path / "snap"))
        loaded = persist.load_store(str(tmp_path / "snap"))
        assert len(loaded.index) == len(loaded) == 4
        assert loaded.match(image).basis.basis_id == 0

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_index_naming_no_basis(self, strategy, tmp_path):
        store = self._store(strategy)
        stray = Fingerprint((5.0, 1.0, 3.0, 2.0, 4.0))
        store.index.insert(stray, 99)
        persist.save_store(store, str(tmp_path / "snap"))
        loaded = persist.load_store(str(tmp_path / "snap"))
        assert len(loaded.index) == len(loaded) == 4
        assert 99 not in loaded.index.candidates(stray)
        assert loaded.match(stray) is None


class TestIndexStrategyRefusal:
    """The loaded index is built under the recorded strategy, or the load
    refuses: never one the saved store did not hold."""

    @pytest.mark.parametrize(
        "family, strategy",
        [("linear", "btree"), ("identity", "normalization")],
    )
    def test_a_strategy_this_version_cannot_build(
        self, family, strategy, tmp_path
    ):
        family_class = {
            "linear": LinearMappingFamily,
            "identity": IdentityMappingFamily,
        }[family]
        store = BasisStore(mapping_family=family_class())
        store.add(BASE, np.linspace(-1.0, 2.0, 12))
        path = str(tmp_path / "snap")
        persist.save_store(store, path)
        manifest = _read_manifest(path)
        manifest["body"]["stores"]["default"]["config"][
            "index_strategy"
        ] = strategy
        _write_manifest(path, manifest)
        with pytest.raises(SnapshotCompatibilityError, match=strategy):
            persist.load_store(path)


class TestEveryV3FileRefusesDamage:
    """Truncation and bit flips of *each* file of a v3 snapshot (the
    sampled-file properties above may skip some of its many arrays)."""

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_truncate_or_flip_each_file(self, data, tmp_path_factory):
        path = _v3_snapshot(str(tmp_path_factory.mktemp("snap") / "store"))
        names = sorted(os.listdir(path))
        assert len(names) >= 15  # the manifest and every table column
        for name in names:
            target = os.path.join(path, name)
            with open(target, "rb") as handle:
                raw = handle.read()
            keep = data.draw(
                st.integers(0, len(raw.rstrip()) - 1), label=f"{name} keep"
            )
            flipped = bytearray(raw)
            position = data.draw(
                st.integers(0, len(raw) - 1), label=f"{name} byte"
            )
            flipped[position] ^= 1 << data.draw(
                st.integers(0, 7), label=f"{name} bit"
            )
            for damaged in (raw[:keep], bytes(flipped)):
                with open(target, "wb") as handle:
                    handle.write(damaged)
                with pytest.raises(SnapshotCorruptionError):
                    persist.load_store(path)
            with open(target, "wb") as handle:
                handle.write(raw)
        persist.load_store(path)  # undamaged again
