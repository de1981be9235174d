"""Store lifecycle differential suite (the invalidation layer's invariant).

A store that has lived — targeted removals, predicate invalidation,
policy eviction, compaction — must be indistinguishable from a fresh
store built from only its survivors: for every probe the same basis
(modulo the rebuild's renumbering), bitwise-same mapping parameters, and
the same per-probe ``candidates_tested`` work, across all five mapping
families, all three index strategies, and both the columnar and scalar
match paths.  Evicted ids must be unreachable everywhere: index buckets,
``candidates_batch``, the columnar gather, and :meth:`BasisStore.match`
itself.

Also pinned here: eviction-policy ranking semantics, the sustained-load
bound (a policied store never exceeds ``max_bases``), ``hits``
round-trips with the committed v1, v2 and v3 fixtures loading through
the compat branches, the integer-tolerance codec fix, and the interactive
engine's failed-validation invalidation.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.api import (
    CompactRequest,
    EvictRequest,
    MatchRequest,
    RefineRequest,
    Session,
)
from repro.blackbox.rng import DeterministicRng
from repro.core import persist
from repro.core.basis import BasisStore, EvictionPolicy
from repro.core.estimator import Estimator
from repro.core.fingerprint import Fingerprint, rows_first_distinct
from repro.core.index import INDEX_STRATEGIES
from repro.core.mapping import (
    IdentityMappingFamily,
    LinearMappingFamily,
    MonotoneMappingFamily,
    ScaleMappingFamily,
    ShiftMappingFamily,
    rows_ratio_columns,
)
from repro.core.seeds import SeedBank
from repro.errors import ApiError, LifecycleError
from repro.interactive.heuristics import TASK_VALIDATION
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

V1_FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "snapshot_v1"
)

#: Written by the version-2 writer: a ``normalization`` store (linear
#: family, 3-bin histograms) of seven bases over fingerprint sizes 5 and
#: 7, bases 1 and 5 holding metrics from a histogram-free estimator,
#: basis 3 removed (one tombstone, compacted away by the save), and the
#: first five probes of ``V2_PROBES`` answered before the save.
V2_FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "snapshot_v2"
)

#: Written by the version-3 writer: a ``sorted_sid`` store (linear
#: family, 3-bin histograms) of seven bases over fingerprint sizes 5 and
#: 7, bases 1 and 5 holding metrics from a histogram-free estimator,
#: basis 3 removed (one tombstone, compacted away by the save), block 5's
#: SID-order key matrix materialized, and six probes answered before the
#: save.  Its ``index.*`` files hold the buckets a version-3 load read.
V3_FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "snapshot_v3"
)


def _affine(fp, alpha, beta):
    return Fingerprint(tuple(alpha * v + beta for v in fp.values))


def _cubic(fp):
    return Fingerprint(tuple(v**3 for v in fp.values))


MIXED = [
    BASE,
    _affine(BASE, 2.0, 3.0),
    _cubic(BASE),
    Fingerprint((4.0, 4.0, 4.0, 4.0, 4.0)),  # constant
    Fingerprint((0.0, 0.0, 0.0, 0.0, 0.0)),  # zero
    Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),  # other size
    _affine(BASE, -1.5, 0.25),
]

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

_ONE, _ZERO = "0x1.0000000000000p+0", "0x0.0p+0"

#: Probes of the v2 fixture with the answers the writing tree gave:
#: ``(basis id, alpha hex, beta hex)``, or ``None`` for a miss.
V2_PROBES = [
    (BASE, (0, _ONE, _ZERO)),
    (_affine(BASE, 3.0, -2.0), (0, "0x1.8000000000000p+1", "-0x1.0p+1")),
    (_affine(BASE, -2.0, 1.0), (0, "-0x1.0p+1", _ONE)),
    (Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8)), (1, _ONE, _ZERO)),
    (
        _affine(Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)), 2.0, 0.5),
        (2, "0x1.0p+1", "0x1.0p-1"),
    ),
    # Basis 3 (this constant) was removed: the zero basis answers.
    (Fingerprint((4.0, 4.0, 4.0, 4.0, 4.0)), (6, _ONE, "0x1.0p+2")),
    (
        _affine(Fingerprint((-1.0, 0.5, 0.25, 3.0, 2.0)), 0.5, 0.0),
        (4, "0x1.0p-1", _ZERO),
    ),
    (Fingerprint((9.0, 1.0, 5.0, 2.0, 8.0)), None),
]

_SEVEN = Fingerprint((2.0, -3.0, 7.0, 1.0, 0.5, 6.0, -2.0))

#: Probes of the v3 fixture with the answers the writing tree gave, in
#: ``V2_PROBES``' form.
V3_PROBES = [
    (BASE, (0, _ONE, _ZERO)),
    (_affine(BASE, 2.0, 3.0), (0, "0x1.0p+1", "0x1.8p+1")),
    (_affine(BASE, -2.0, 1.0), (0, "-0x1.0p+1", _ONE)),
    (
        _affine(Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8)), 0.25, -1.0),
        (1, "0x1.ffffffffffff5p-3", "-0x1.0p+0"),
    ),
    (
        _affine(Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)), 2.0, 0.5),
        (2, "0x1.0p+1", "0x1.0p-1"),
    ),
    (_affine(_SEVEN, -1.5, 2.0), (5, "-0x1.8p+0", "0x1.0p+1")),
    # Basis 3 (this constant) was removed: the zero basis answers.
    (Fingerprint((4.0, 4.0, 4.0, 4.0, 4.0)), (6, _ONE, "0x1.0p+2")),
    (
        _affine(Fingerprint((-1.0, 0.5, 0.25, 3.0, 2.0)), 0.5, 0.0),
        (4, "0x1.0p-1", _ZERO),
    ),
    (Fingerprint((9.0, 1.0, 5.0, 2.0, 8.0)), None),
]

#: Both match paths: columnar kernels always on vs. never reached.
MATCH_PATHS = {"columnar": 0, "scalar": 10**9}


def build_store(family_name, strategy, fingerprints, path="columnar"):
    store = BasisStore(
        mapping_family=FAMILY_FACTORIES[family_name](),
        index_strategy=strategy,
    )
    store.columnar_min_candidates = MATCH_PATHS[path]
    store.columnar_check.exhaust()
    for index, fingerprint in enumerate(fingerprints):
        store.add(fingerprint, SAMPLES * (index + 1))
    return store


def rebuild_from_survivors(store):
    """A fresh store holding only the survivors, plus orig-id -> new-id.

    The rebuild renumbers ids from zero, so comparisons translate
    through the returned map.  Survivors are inserted in ascending
    original id — the relative order removal preserved in every bucket —
    which is exactly what makes first-match-wins line up.
    """
    rebuild = BasisStore(
        mapping_family=type(store.mapping_family)(),
        index_strategy=type(store.index).strategy,
    )
    rebuild.columnar_min_candidates = store.columnar_min_candidates
    rebuild.columnar_check.exhaust()
    id_map = {}
    for new_id, basis in enumerate(store.bases):
        id_map[basis.basis_id] = new_id
        rebuild.add(basis.fingerprint, np.asarray(basis.samples))
    return rebuild, id_map


def probe_with_deltas(store, probes):
    """Match each probe, recording per-probe candidates_tested work."""
    out = []
    for probe in probes:
        before = store.stats.candidates_tested
        result = store.match(probe)
        out.append((result, store.stats.candidates_tested - before))
    return out


def assert_differential(store):
    """The lifecycle invariant: store == rebuild-from-survivors."""
    rebuild, id_map = rebuild_from_survivors(store)
    assert len(rebuild) == len(store)
    lived = probe_with_deltas(store, PROBES)
    fresh = probe_with_deltas(rebuild, PROBES)
    for (got, got_work), (want, want_work) in zip(lived, fresh):
        assert got_work == want_work
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert id_map[got.basis.basis_id] == want.basis.basis_id
        assert type(got.mapping) is type(want.mapping)
        assert got.mapping == want.mapping
    # The batch path must agree with itself and with the rebuild.
    via_batch = store.match_batch(PROBES)
    fresh_batch = rebuild.match_batch(PROBES)
    for got, want in zip(via_batch, fresh_batch):
        assert (got is None) == (want is None)
        if got is not None:
            assert id_map[got.basis.basis_id] == want.basis.basis_id
            assert got.mapping == want.mapping


def warm(store, rounds=1):
    for _ in range(rounds):
        for probe in PROBES:
            store.match(probe)


def op_remove_first(store):
    return [store.remove(min(b.basis_id for b in store.bases)).basis_id]


def op_remove_scattered(store):
    ids = sorted(b.basis_id for b in store.bases)
    doomed = [ids[1], ids[-1]]
    for basis_id in doomed:
        store.remove(basis_id)
    return doomed


def op_invalidate_odd(store):
    return store.invalidate_where(lambda b: b.basis_id % 2 == 1)


def op_evict_value(store):
    warm(store)
    return store.evict(EvictionPolicy(max_bases=3))


def op_remove_then_compact(store):
    ids = sorted(b.basis_id for b in store.bases)
    doomed = ids[:2]
    for basis_id in doomed:
        store.remove(basis_id)
    store.compact()
    return doomed


LIFECYCLE_OPS = {
    "remove_first": op_remove_first,
    "remove_scattered": op_remove_scattered,
    "invalidate_odd": op_invalidate_odd,
    "evict_value": op_evict_value,
    "remove_then_compact": op_remove_then_compact,
}


class TestLifecycleDifferential:
    @pytest.mark.parametrize("op_name", sorted(LIFECYCLE_OPS))
    @pytest.mark.parametrize("path", sorted(MATCH_PATHS))
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_survivors_probe_like_fresh_store(
        self, family_name, strategy, path, op_name
    ):
        store = build_store(family_name, strategy, MIXED, path=path)
        warm(store)
        removed = LIFECYCLE_OPS[op_name](store)
        assert removed
        assert len(store) == len(MIXED) - len(removed)
        assert_differential(store)

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_first_match_wins_shifts_to_next_duplicate(self, strategy):
        """Removing the bucket head promotes the *next* entry, verbatim."""
        duplicates = [BASE, Fingerprint(BASE.values), _affine(BASE, 1.0, 0.0)]
        store = build_store("linear", strategy, duplicates)
        assert store.match(BASE).basis.basis_id == 0
        store.remove(0)
        assert store.match(BASE).basis.basis_id == 1
        assert_differential(store)
        store.remove(1)
        assert store.match(BASE).basis.basis_id == 2
        assert_differential(store)

    def test_remove_unknown_id_raises_keyerror(self):
        store = build_store("linear", "array", MIXED)
        with pytest.raises(KeyError):
            store.remove(99)
        store.remove(0)
        with pytest.raises(KeyError):
            store.remove(0)  # already gone; ids are never reissued

    def test_removed_ids_are_retired_forever(self):
        store = build_store("linear", "array", MIXED)
        store.remove(2)
        added = store.add(Fingerprint((5.0, 6.0, 7.0, 8.0, 9.0)), SAMPLES)
        assert added.basis_id == len(MIXED)  # next_id grew past the hole
        assert_differential(store)

    def test_lifecycle_then_save_load_keeps_parity(self, tmp_path):
        store = build_store("linear", "normalization", MIXED)
        warm(store)
        store.remove(1)
        store.invalidate_where(lambda b: b.fingerprint.size == 7)
        persist.save_store(store, str(tmp_path / "snap"))
        loaded = persist.load_store(
            str(tmp_path / "snap"),
            like=BasisStore(index_strategy="normalization"),
        )
        loaded.columnar_min_candidates = 0
        loaded.columnar_check.exhaust()
        assert len(loaded) == len(store)
        assert_differential(loaded)


class TestUnreachability:
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_removed_ids_unreachable_everywhere(self, strategy):
        store = build_store("linear", strategy, MIXED)
        removed_fps = [store.get(i).fingerprint for i in (0, 3, 5)]
        removed = [store.remove(i).basis_id for i in (0, 3, 5)]
        probes = PROBES + removed_fps
        # Index buckets, scalar and batch flavors.
        for probe in probes:
            assert not set(removed) & set(store.index.candidates(probe))
        for candidates in store.index.candidates_batch(probes):
            assert not set(removed) & set(candidates)
        # Columnar layout: retired ids are filtered by the size check
        # (their _size_of entry is zeroed) and never gathered.
        for basis_id, fingerprint in zip(removed, removed_fps):
            assert store.columnar._size_of[basis_id] == 0
            positions, rows, _ = store.columnar.gather(
                [basis_id], fingerprint.size
            )
            assert positions.size == 0 and rows.size == 0
        # And the match engine itself.
        for probe in probes:
            result = store.match(probe)
            assert result is None or result.basis.basis_id not in removed

    def test_retired_id_never_aliases_a_live_row_after_compact(self):
        """A retired id's row entry is zeroed, i.e. it points at row 0 —
        which, once compaction and later adds have refilled the block, is
        somebody else's row.  The gather's size check alone must keep
        the stale id out, in a single-size store included."""
        same_size = [fp for fp in MIXED if fp.size == BASE.size]
        store = build_store("linear", "array", same_size)
        retired = store.remove(0)
        store.compact()
        assert store.columnar.tombstones == 0
        store.add(_affine(retired.fingerprint, 1.0, 9.0), SAMPLES)
        store.add(Fingerprint((9.0, 8.0, 7.5, 1.0, 2.0)), SAMPLES)
        live = [basis.basis_id for basis in store.bases]
        positions, rows, _ = store.columnar.gather([0] + live, BASE.size)
        # The stale id (candidate position 0) is dropped; every live id
        # gathers its own distinct row.
        assert positions.tolist() == list(range(1, len(live) + 1))
        assert sorted(rows.tolist()) == list(range(len(live)))
        for probe in PROBES + [retired.fingerprint]:
            result = store.match(probe)
            assert result is None or result.basis.basis_id != 0
        assert_differential(store)

    def test_tombstones_auto_compact_past_threshold(self):
        same_size = [fp for fp in MIXED if fp.size == BASE.size]
        store = build_store("linear", "array", same_size)
        from repro.core.columnar import COMPACT_TOMBSTONE_FRACTION

        for basis_id in range(len(same_size) - 1):
            store.remove(basis_id)
            # The mirror never lets dead rows dominate: past the
            # threshold it compacts itself instead of scanning them.
            total = sum(b.count for b in store.columnar._blocks.values())
            assert (
                store.columnar.tombstones
                <= COMPACT_TOMBSTONE_FRACTION * total
            )
        block = store.columnar._blocks[BASE.size]
        assert block.count < len(same_size)  # compaction did run
        assert block.count - block.dead == 1  # one live row left
        assert_differential(store)

    def test_emptied_block_is_dropped(self):
        store = build_store("linear", "array", MIXED)
        seven = [b.basis_id for b in store.bases if b.fingerprint.size == 7]
        for basis_id in seven:
            store.remove(basis_id)
        store.compact()
        assert 7 not in store.columnar._blocks
        positions, rows, block = store.columnar.gather(seven, 7)
        assert block is None
        assert_differential(store)


def anchor_watermarks(store):
    """Filled-row count of each block's anchor columns (0: none held)."""
    return {
        size: block._anchors.get(store.rel_tol, (None, 0))[1]
        for size, block in store.columnar._blocks.items()
    }


def snapshot_bytes(path):
    payload = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            payload[name] = handle.read()
    return payload


def assert_anchor_columns_from_scratch(store):
    """Whatever the blocks hold below their watermark, and what they hand
    out once filled, is what a from-scratch pass over the rows gives."""
    for block in store.columnar._blocks.values():
        matrix = block.matrix[: block.count]
        want_pair, want_anchor = rows_first_distinct(matrix, store.rel_tol)
        want = (
            want_pair,
            want_anchor,
            matrix[np.arange(block.count), want_anchor] - matrix[:, 0],
        )
        for columns, filled in block._anchors.values():
            assert filled <= block.count
            for have, column in zip(columns, want):
                np.testing.assert_array_equal(have[:filled], column[:filled])
        for have, column in zip(block.anchor_columns(store.rel_tol), want):
            np.testing.assert_array_equal(have, column)
        # The ratio prefilter's columns, under a watermark of their own.
        ratios = rows_ratio_columns(matrix, want)
        for columns, filled in block._ratios.values():
            assert filled <= block.count
            for have, column in zip(columns, ratios):
                np.testing.assert_array_equal(have[:filled], column[:filled])
        for have, column in zip(block.pair_columns(store.rel_tol)[3:], ratios):
            np.testing.assert_array_equal(have, column)


class TestAnchorColumnsLifecycle:
    """The blocks' cached Algorithm 2 anchors (``has_pair``, ``anchor``,
    ``denominator``) fill lazily behind a watermark; every lifecycle step
    must leave them equal to a from-scratch ``rows_first_distinct`` (and
    the ratio prefilter's columns beside them to a from-scratch
    ``rows_ratio_columns``)."""

    @staticmethod
    def fingerprints(count, start=0):
        """Distinct same-size rows: constants, late anchors, plain ones."""
        out = []
        for index in range(start, start + count):
            if index % 4 == 0:
                values = (float(index),) * 5
            elif index % 4 == 1:
                values = (1.0, 1.0, 1.0, 1.0, 2.0 + index)
            else:
                values = tuple(float((index * k) % 7) for k in range(1, 6))
            out.append(Fingerprint(values))
        return out

    def test_add_never_materializes_them(self):
        store = build_store("linear", "array", MIXED)
        assert anchor_watermarks(store) == {5: 0, 7: 0}
        store.columnar_min_candidates = 10**9  # scalar probes only
        warm(store)
        assert anchor_watermarks(store) == {5: 0, 7: 0}

    def test_growth_tombstones_and_compaction(self):
        store = build_store("linear", "array", self.fingerprints(5))
        assert store.match(BASE) is None  # first columnar probe fills
        assert anchor_watermarks(store) == {5: 5}
        assert_anchor_columns_from_scratch(store)

        # Append past the capacity doubling (8 rows): the filled prefix is
        # carried into the grown columns, the rest fills on the next use.
        for fingerprint in self.fingerprints(6, start=5):
            store.add(fingerprint, SAMPLES)
        assert anchor_watermarks(store) == {5: 5}
        assert_anchor_columns_from_scratch(store)
        assert anchor_watermarks(store) == {5: 11}

        store.remove(3)  # a tombstone moves nothing
        assert store.columnar.tombstones == 1
        assert_anchor_columns_from_scratch(store)

        # Threshold compaction of fully filled columns carries them over.
        for basis_id in (0, 1, 2, 4, 5):
            store.remove(basis_id)
        assert store.columnar.tombstones == 0
        assert anchor_watermarks(store) == {5: 5}
        assert_anchor_columns_from_scratch(store)

        # Explicit compaction of partially filled columns drops them; the
        # next use refills from the surviving rows.
        for fingerprint in self.fingerprints(2, start=11):
            store.add(fingerprint, SAMPLES)
        store.remove(6)
        assert store.compact() == 1
        assert anchor_watermarks(store) == {5: 0}
        assert_anchor_columns_from_scratch(store)
        assert anchor_watermarks(store) == {5: 6}
        assert_differential(store)

    def test_verbatim_merge_adoption(self):
        store = build_store("linear", "array", self.fingerprints(5))
        shard = build_store("linear", "array", self.fingerprints(6, start=5))
        assert_anchor_columns_from_scratch(store)
        assert_anchor_columns_from_scratch(shard)
        store.merge(shard, reprobe=False)
        # Adopted rows land past the watermark (and past a growth).
        assert anchor_watermarks(store) == {5: 5}
        assert_anchor_columns_from_scratch(store)
        assert anchor_watermarks(store) == {5: 11}
        assert_differential(store)

    def test_mmap_load_then_add_never_writes_through(self, tmp_path):
        live = build_store("linear", "array", self.fingerprints(6))
        assert_anchor_columns_from_scratch(live)
        path = str(tmp_path / "snap")
        persist.save_store(live, path)
        before = snapshot_bytes(path)
        assert not [name for name in before if "anchor" in name]

        loaded = persist.load_store(
            path, like=BasisStore(index_strategy="array"), mmap=True
        )
        loaded.columnar_min_candidates = 0
        loaded.columnar_check.exhaust()
        block = loaded.columnar._blocks[5]
        assert anchor_watermarks(loaded) == {5: 0}  # not persisted
        assert_anchor_columns_from_scratch(loaded)  # fills off the mapping
        assert not block.matrix.flags.writeable

        loaded.add(self.fingerprints(1, start=6)[0], SAMPLES)
        assert block.matrix.flags.writeable  # copy-on-write promotion
        assert anchor_watermarks(loaded) == {5: 6}
        assert_anchor_columns_from_scratch(loaded)
        assert_differential(loaded)
        assert snapshot_bytes(path) == before


class TestEvictionPolicy:
    def _store_with_hits(self, hits):
        store = build_store("linear", "array", MIXED[: len(hits)])
        for basis, count in zip(store.bases, hits):
            basis.hits = count
        return store

    def test_value_ranking_evicts_least_hit_oldest_first(self):
        store = self._store_with_hits([5, 0, 2, 0])
        policy = EvictionPolicy(max_bases=2, keep="value")
        assert policy.victims(store) == [1, 3]  # never-hit, older first

    def test_recent_ranking_ignores_hits(self):
        store = self._store_with_hits([0, 9, 9, 9])
        policy = EvictionPolicy(max_bases=2, keep="recent")
        assert policy.victims(store) == [0, 1]

    @pytest.mark.parametrize(
        "keep, expected", [("recent", [0, 1]), ("value", [2, 0])]
    )
    def test_ranking_does_not_read_the_dict_order(self, keep, expected):
        store = self._store_with_hits([1, 5, 0, 5])
        store._bases = {i: store._bases[i] for i in (3, 1, 2, 0)}
        policy = EvictionPolicy(max_bases=2, keep=keep)
        assert policy.victims(store) == expected

    def test_a_store_within_its_bounds_is_not_ranked(self):
        store = self._store_with_hits([0, 1, 2])
        store.get(1).hits = None  # unrankable, were anything to rank it
        within = EvictionPolicy(
            max_bases=3, max_bytes=3 * store.get(0).nbytes()
        )
        assert within.victims(store) == []

    def test_max_bytes_bound(self):
        store = self._store_with_hits([0, 1, 2])
        per_basis = store.get(0).nbytes()
        policy = EvictionPolicy(max_bytes=2 * per_basis)
        assert store.evict(policy) == [0]
        assert sum(b.nbytes() for b in store.bases) <= 2 * per_basis

    def test_hits_are_bumped_by_matching(self):
        store = build_store("linear", "array", MIXED)
        assert all(b.hits == 0 for b in store.bases)
        winner = store.match(BASE).basis
        assert winner.hits == 1
        store.match(_affine(BASE, 2.0, -1.0))
        assert winner.hits == 2
        store.match(Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8)))  # miss
        assert sum(b.hits for b in store.bases) == 2

    def test_policy_validation(self):
        with pytest.raises(LifecycleError, match="ranking"):
            EvictionPolicy(max_bases=1, keep="lru")
        with pytest.raises(LifecycleError, match="non-negative"):
            EvictionPolicy(max_bases=-1)
        with pytest.raises(LifecycleError, match="non-negative"):
            EvictionPolicy(max_bytes=-8)

    def test_no_bounds_is_a_noop(self):
        store = build_store("linear", "array", MIXED)
        assert EvictionPolicy().victims(store) == []

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_bounded_store_stays_bounded_under_sustained_load(
        self, strategy
    ):
        """The acceptance bound: max_bases=N holds through any number of
        add/probe/evict rounds, and survivors stay differential-clean."""
        policy = EvictionPolicy(max_bases=4)
        store = build_store("linear", strategy, [])
        for round_index in range(20):
            store.add(
                _affine(BASE, 1.0 + round_index, float(round_index)),
                SAMPLES * (round_index + 1),
            )
            store.match(BASE)
            store.evict(policy)
            assert len(store) <= 4
        assert len(store) == 4
        assert_differential(store)


class TestSessionLifecycle:
    def _session(self, bases=MIXED, **kwargs):
        return Session(build_store("linear", "array", bases), **kwargs)

    def test_standing_policy_applies_after_refine(self):
        session = self._session(eviction=EvictionPolicy(max_bases=3))
        assert session.basis_count() == len(MIXED)
        survivor = len(MIXED) - 1  # newest: survives keep="value" ties
        response = session.refine(
            RefineRequest(basis_id=survivor, samples=(1.0, 2.0))
        )
        assert response.basis_id == survivor
        assert session.basis_count() == 3
        # The bound keeps holding, refine after refine.
        session.refine(RefineRequest(basis_id=survivor, samples=(3.0,)))
        assert session.basis_count() == 3

    def test_evict_request_bounds_store(self):
        session = self._session()
        response = session.evict(EvictRequest(max_bases=2))
        assert response.bases == {"default": 2}
        assert len(response.evicted["default"]) == len(MIXED) - 2
        assert session.basis_count() == 2

    def test_evict_request_without_bounds_refused(self):
        with pytest.raises(ApiError, match="max_bases"):
            self._session().evict(EvictRequest())

    def test_compact_request_reports_dropped_rows(self):
        session = self._session()
        session.store().remove(0)
        session.store().remove(2)
        response = session.compact(CompactRequest())
        assert response.rows_dropped == {"default": 2}
        assert response.bases == {"default": len(MIXED) - 2}
        assert session.store().columnar.tombstones == 0

    def test_admin_requests_ride_handle_batch(self):
        """Mixed probe + admin batches answer in order, with the admin
        request applied between the probe runs around it."""
        session = self._session()
        responses = session.handle_batch(
            [
                MatchRequest(fingerprint=BASE.values),
                EvictRequest(max_bases=2),
                MatchRequest(fingerprint=BASE.values),
                CompactRequest(),
            ]
        )
        assert responses[0].matched
        assert responses[1].bases == {"default": 2}
        assert responses[3].bases == {"default": 2}
        # Whether the second probe still matches depends only on the
        # survivors — exactly what a sequential replay would see.
        replay = self._session()
        replay.handle(MatchRequest(fingerprint=BASE.values))
        replay.handle(EvictRequest(max_bases=2))
        sequential = replay.handle(MatchRequest(fingerprint=BASE.values))
        assert responses[2].matched == sequential.matched
        assert responses[2].basis_id == sequential.basis_id


class TestSnapshotVersion2:
    def test_v1_fixture_loads_through_compat_branch(self):
        assert persist.snapshot_info(V1_FIXTURE)["version"] == 1
        loaded = persist.load_store(V1_FIXTURE, mmap=False)
        assert len(loaded) == 5
        # Version-1 snapshots predate reuse counters: restored cold.
        assert [b.hits for b in loaded.bases] == [0, 0, 0, 0, 0]
        assert loaded.stats.as_dict() == {
            "lookups": 5,
            "candidates_tested": 4,
            "matches": 4,
            "bases_created": 5,
        }
        result = loaded.match(BASE)
        assert result is not None and result.basis.basis_id == 0

    @pytest.mark.parametrize("mmap", [True, False])
    def test_v2_fixture_loads(self, mmap):
        assert persist.snapshot_info(V2_FIXTURE)["version"] == 2
        assert persist.snapshot_info(V2_FIXTURE)["stores"]["default"][
            "bases"
        ] == 6
        loaded = persist.load_store(V2_FIXTURE, mmap=mmap)
        assert [b.basis_id for b in loaded.bases] == [0, 1, 2, 4, 5, 6]
        assert [b.hits for b in loaded.bases] == [3, 1, 1, 0, 0, 0]
        assert loaded.stats.as_dict() == {
            "lookups": 5,
            "candidates_tested": 5,
            "matches": 5,
            "bases_created": 7,
        }
        assert loaded._next_id == 7
        # Metrics bitwise: re-encoded, they are the manifest's hex text.
        with open(os.path.join(V2_FIXTURE, "manifest.json")) as handle:
            entries = json.load(handle)["body"]["stores"]["default"]["bases"]
        assert [persist.encode_metrics(b.metrics) for b in loaded.bases] == [
            entry["metrics"] for entry in entries
        ]
        assert [b.metrics.histogram is not None for b in loaded.bases] == [
            True, False, True, True, False, True,
        ]
        for probe, expected in V2_PROBES:
            result = loaded.match(probe)
            if expected is None:
                assert result is None
                continue
            basis_id, alpha, beta = expected
            assert result.basis.basis_id == basis_id
            assert result.mapping.alpha.hex() == float.fromhex(alpha).hex()
            assert result.mapping.beta.hex() == float.fromhex(beta).hex()

    @pytest.mark.parametrize("mmap", [True, False])
    def test_v3_fixture_loads(self, mmap):
        info = persist.snapshot_info(V3_FIXTURE)
        assert info["version"] == 3
        assert info["stores"]["default"]["bases"] == 6
        assert info["stores"]["default"]["index_strategy"] == "sorted_sid"
        loaded = persist.load_store(V3_FIXTURE, mmap=mmap)
        assert [b.basis_id for b in loaded.bases] == [0, 1, 2, 4, 5, 6]
        assert [b.hits for b in loaded.bases] == [3, 1, 0, 1, 1, 0]
        assert loaded.stats.as_dict() == {
            "lookups": 6,
            "candidates_tested": 6,
            "matches": 6,
            "bases_created": 7,
        }
        assert loaded._next_id == 7
        histograms = [True, False, True, True, False, True]
        assert [
            b.metrics.histogram is not None for b in loaded.bases
        ] == histograms
        # Metrics bitwise: each is what its estimator makes of the
        # stored samples.
        for basis, binned in zip(loaded.bases, histograms):
            estimator = Estimator(histogram_bins=3 if binned else 0)
            assert persist.encode_metrics(basis.metrics) == (
                persist.encode_metrics(estimator.estimate(basis.samples))
            )
        for probe, expected in V3_PROBES:
            result = loaded.match(probe)
            if expected is None:
                assert result is None
                continue
            basis_id, alpha, beta = expected
            assert result.basis.basis_id == basis_id
            assert result.mapping.alpha.hex() == float.fromhex(alpha).hex()
            assert result.mapping.beta.hex() == float.fromhex(beta).hex()
        # The probes tested what the writing tree's index handed them.
        assert loaded.stats.candidates_tested == 6 + 8

    def test_v3_fixture_index_files_are_never_opened(self, tmp_path):
        path = tmp_path / "v3"
        shutil.copytree(V3_FIXTURE, path)
        index_files = sorted(path.glob("store0.index.*"))
        assert len(index_files) == 4
        for index_file in index_files:
            index_file.unlink()
        loaded = persist.load_store(str(path))
        assert [b.basis_id for b in loaded.bases] == [0, 1, 2, 4, 5, 6]
        for probe, expected in V3_PROBES:
            result = loaded.match(probe)
            assert (None if result is None else result.basis.basis_id) == (
                None if expected is None else expected[0]
            )

    def test_v3_fixture_resaves_with_no_index_state(self, tmp_path):
        loaded = persist.load_store(V3_FIXTURE, mmap=True)
        path = tmp_path / "snap"
        persist.save_store(loaded, str(path))
        with open(path / "manifest.json") as handle:
            body = json.load(handle)["body"]
        assert body["version"] == persist.SNAPSHOT_VERSION == 4
        assert not {"index", "index_arrays"} & set(body["stores"]["default"])
        assert not [name for name in os.listdir(path) if ".index." in name]
        again = persist.load_store(str(path), mmap=True)
        assert again.index._buckets == loaded.index._buckets
        for probe, _ in V3_PROBES:
            want, got = loaded.match(probe), again.match(probe)
            assert (want is None) == (got is None)
            if want is not None:
                assert got.basis.basis_id == want.basis.basis_id
                assert got.mapping == want.mapping
        assert again.stats.as_dict() == loaded.stats.as_dict()

    def test_v2_fixture_resaves_at_the_current_version(self, tmp_path):
        loaded = persist.load_store(V2_FIXTURE, mmap=True)
        path = str(tmp_path / "snap")
        persist.save_store(loaded, path)
        assert persist.snapshot_info(path)["version"] == (
            persist.SNAPSHOT_VERSION
        )
        again = persist.load_store(path, mmap=True)
        assert [
            (b.basis_id, b.hits, persist.encode_metrics(b.metrics))
            for b in again.bases
        ] == [
            (b.basis_id, b.hits, persist.encode_metrics(b.metrics))
            for b in loaded.bases
        ]
        for basis in loaded.bases:
            np.testing.assert_array_equal(
                again.get(basis.basis_id).samples, basis.samples
            )
        for index in (again.index, loaded.index):
            index._settle()
        assert again.index._buckets == loaded.index._buckets
        for probe, _ in V2_PROBES:
            want, got = loaded.match(probe), again.match(probe)
            assert (want is None) == (got is None)
            if want is not None:
                assert got.basis.basis_id == want.basis.basis_id
                assert got.mapping == want.mapping
        assert again.stats.as_dict() == loaded.stats.as_dict()

    def test_v1_resaves_at_the_current_version_with_hits_roundtrip(
        self, tmp_path
    ):
        loaded = persist.load_store(V1_FIXTURE, mmap=False)
        loaded.match(BASE)  # bump one reuse counter
        persist.save_store(loaded, str(tmp_path / "snap"))
        assert (
            persist.snapshot_info(str(tmp_path / "snap"))["version"]
            == persist.SNAPSHOT_VERSION
        )
        reloaded = persist.load_store(str(tmp_path / "snap"), mmap=False)
        assert [b.hits for b in reloaded.bases] == [1, 0, 0, 0, 0]

    def test_dump_compacts_tombstones_away(self, tmp_path):
        store = build_store("linear", "array", MIXED)
        store.remove(1)  # below the auto-compaction threshold
        assert store.columnar.tombstones == 1
        persist.save_store(store, str(tmp_path / "snap"))
        assert store.columnar.tombstones == 0  # compacted by the dump
        loaded = persist.load_store(
            str(tmp_path / "snap"), like=BasisStore(index_strategy="array")
        )
        assert loaded.columnar.tombstones == 0
        loaded.columnar_min_candidates = 0
        loaded.columnar_check.exhaust()
        assert_differential(loaded)


class TestIntegerToleranceCodec:
    """Integer tolerances used to crash the snapshot's hex codec (int has
    no ``.hex()``); constructors now coerce to float at the boundary."""

    def test_integer_tolerances_snapshot_bitwise(self, tmp_path):
        store = BasisStore(index_strategy="normalization", rel_tol=1,
                           abs_tol=0)
        store.add(BASE, SAMPLES)
        assert store.rel_tol == 1.0 and isinstance(store.rel_tol, float)
        persist.save_store(store, str(tmp_path / "snap"))
        loaded = persist.load_store(
            str(tmp_path / "snap"),
            like=BasisStore(index_strategy="normalization", rel_tol=1,
                            abs_tol=0),
        )
        assert loaded.rel_tol.hex() == float(1).hex()
        assert loaded.abs_tol.hex() == float(0).hex()


class TestInteractiveInvalidation:
    def _drifting_session(self, table):
        def simulation(params, seed):
            rng = DeterministicRng(seed)
            return table["scale"] * rng.normal(params["week"], 1.0)

        return InteractiveSession(
            simulation,
            ParameterSpace([RangeParameter("week", 0.0, 10.0, 1.0)]),
            fingerprint_size=10,
            chunk=10,
            seed_bank=SeedBank(5),
        )

    def test_failed_validation_invalidates_stale_basis(self):
        table = {"scale": 1.0}
        session = self._drifting_session(table)
        session.focus({"week": 2.0})
        session.run(5)
        stale_id = session._state({"week": 2.0}).basis_id
        table["scale"] = 50.0  # the model drifts under the session
        rebound = []
        for _ in range(8):
            report = session.tick()
            if report.task == TASK_VALIDATION:
                rebound.append(report.rebound)
        assert any(rebound)
        # The stale basis is gone from the store — not just unbound.
        with pytest.raises(KeyError):
            session.store.get(stale_id)
        assert session.estimate({"week": 2.0}) is not None

    def test_invalidation_unbinds_every_sharing_point(self):
        session = self._drifting_session({"scale": 1.0})
        session.focus({"week": 2.0})
        session.focus({"week": 7.0})
        assert len(session.store) == 1  # linear family: one shared basis
        state = session._state({"week": 2.0})
        other = session._state({"week": 7.0})
        stale_id = state.basis_id
        assert other.basis_id == stale_id
        session._rebind_from_scratch(state, invalidate=True)
        with pytest.raises(KeyError):
            session.store.get(stale_id)
        assert other.basis_id != stale_id
        assert other.mapping is None or other.basis_id is not None
