"""Batched vs scalar FindMatch parity (the columnar engine's invariant).

The columnar match engine must return, for every probe, the same basis id,
the same mapping parameters, and the same candidates-tested counters as the
scalar reference loop — first-match-wins tie-breaking included — across
every mapping family, index strategy, and store shape.  These tests put one
store on each side of the ``columnar_min_candidates`` cutover: 0 forces the
vectorized path (self-verification exhausted, so parity is asserted here
rather than masked by the fallback), ``ALWAYS_SCALAR`` the reference loop.
"""

import copy

import numpy as np
import pytest

from repro.blackbox.synth_basis import SynthBasisModel
from repro.core import persist
from repro.core.backend import VERIFY_CALLS, active_backend
import repro.core.basis as basis_module
import repro.core.mapping as mapping_module
from repro.core.basis import BasisStore, EvictionPolicy, MatchResult
from repro.core.columnar import CandidateKeys
from repro.core.explorer import BLOCK_PROBES, ParameterExplorer
from repro.core.fingerprint import (
    Fingerprint,
    batch_normal_forms,
    batch_sid_orders,
)
from repro.core.index import INDEX_STRATEGIES, SortedSIDIndex
from repro.core.mapping import (
    AffineMapping,
    IdentityMappingFamily,
    LinearMappingFamily,
    MonotoneMappingFamily,
    PiecewiseLinearMapping,
    ScaleMappingFamily,
    ShiftMappingFamily,
    _NegatedPiecewise,
)

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


#: Store contents: name -> list of fingerprints added in order.
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

#: Probes covering every family's accept/reject cases plus size mismatches.
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


#: A cutover no candidate list reaches: every probe takes the scalar loop.
ALWAYS_SCALAR = 10**9


def filled_store(fingerprints, family_name, strategy, columnar):
    store = BasisStore(
        mapping_family=FAMILY_FACTORIES[family_name](),
        index_strategy=strategy,
    )
    store.columnar_min_candidates = 0 if columnar else ALWAYS_SCALAR
    store.columnar_check.exhaust()
    for fingerprint in fingerprints:
        store.add(fingerprint, SAMPLES)
    return store


def build_store(family_name, strategy, content_name, columnar):
    return filled_store(
        CONTENTS[content_name], family_name, strategy, columnar
    )


def assert_same_match(expected, actual):
    assert (expected is None) == (actual is None)
    if expected is None:
        return
    assert actual.basis.basis_id == expected.basis.basis_id
    assert type(actual.mapping) is type(expected.mapping)
    assert actual.mapping == expected.mapping


class TestMatchParity:
    @pytest.mark.parametrize("content_name", sorted(CONTENTS))
    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_match_and_match_batch_agree_with_scalar(
        self, family_name, strategy, content_name
    ):
        reference = build_store(family_name, strategy, content_name, False)
        single = build_store(family_name, strategy, content_name, True)
        batched = build_store(family_name, strategy, content_name, True)

        expected = [reference.match(probe) for probe in PROBES]
        actual = [single.match(probe) for probe in PROBES]
        via_batch = batched.match_batch(PROBES)

        for want, got_single, got_batch in zip(expected, actual, via_batch):
            assert_same_match(want, got_single)
            assert_same_match(want, got_batch)
        assert single.stats.as_dict() == reference.stats.as_dict()
        assert batched.stats.as_dict() == reference.stats.as_dict()

    def test_wrong_size_candidates_are_counted(self):
        """The array scan visits (and counts) untestable sizes, both paths."""
        reference = build_store("linear", "array", "mixed", False)
        columnar = build_store("linear", "array", "mixed", True)
        probe = Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
        want = reference.match(probe)
        got = columnar.match(probe)
        assert_same_match(want, got)
        # Candidate list holds all 7 bases; the size-7 basis sits at
        # position 5, so exactly 6 candidates are tested either way.
        assert reference.stats.candidates_tested == 6
        assert columnar.stats.candidates_tested == 6

    def test_match_returns_namedtuple(self):
        store = build_store("linear", "array", "singleton", True)
        matched = store.match(_affine(BASE, 2.0, 1.0))
        assert isinstance(matched, MatchResult)
        basis, mapping = matched  # tuple unpacking stays supported
        assert basis.basis_id == 0
        assert mapping == AffineMapping(2.0, 1.0)

    def test_scalar_cutover_threshold_is_transparent(self):
        """Below the candidate threshold the scalar loop answers; results
        and counters cannot depend on which path ran."""
        forced = build_store("linear", "array", "mixed", True)
        lazy = build_store("linear", "array", "mixed", False)
        for probe in PROBES:
            assert_same_match(lazy.match(probe), forced.match(probe))
        assert lazy.stats.as_dict() == forced.stats.as_dict()


class TestMergeParity:
    LEFT = [BASE, _cubic(BASE), Fingerprint((3.0, 3.0, 3.0, 3.0, 3.0))]
    RIGHT = [
        _affine(BASE, 4.0, -1.0),  # collapses into BASE under linear
        Fingerprint((0.2, 0.7, 0.1, 0.9, 0.4)),  # new basis
        Fingerprint(BASE.values),  # duplicate of BASE
    ]

    _filled = staticmethod(filled_store)

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    @pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
    def test_reprobe_merge_matches_scalar_merge(self, family_name, strategy):
        ref_left = self._filled(self.LEFT, family_name, strategy, False)
        ref_right = self._filled(self.RIGHT, family_name, strategy, False)
        col_left = self._filled(self.LEFT, family_name, strategy, True)
        col_right = self._filled(self.RIGHT, family_name, strategy, True)

        expected = ref_left.merge(ref_right)
        actual = col_left.merge(col_right)

        assert set(actual) == set(expected)
        for incoming_id in expected:
            want_id, want_mapping = expected[incoming_id]
            got_id, got_mapping = actual[incoming_id]
            assert got_id == want_id
            assert got_mapping == want_mapping
        assert len(col_left) == len(ref_left)
        assert col_left.stats.as_dict() == ref_left.stats.as_dict()
        # The merged columnar store still answers probes like the scalar one.
        for probe in PROBES:
            assert_same_match(ref_left.match(probe), col_left.match(probe))
        assert col_left.stats.as_dict() == ref_left.stats.as_dict()

    @pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
    def test_verbatim_merge_adopts_columnar_matrices(self, strategy):
        ref_left = self._filled(self.LEFT, "linear", strategy, False)
        ref_right = self._filled(self.RIGHT, "linear", strategy, False)
        col_left = self._filled(self.LEFT, "linear", strategy, True)
        col_right = self._filled(self.RIGHT, "linear", strategy, True)

        expected = ref_left.merge(ref_right, reprobe=False)
        actual = col_left.merge(col_right, reprobe=False)
        assert actual == expected
        assert len(col_left.columnar) == len(col_left)
        for probe in PROBES:
            assert_same_match(ref_left.match(probe), col_left.match(probe))
        assert col_left.stats.as_dict() == ref_left.stats.as_dict()


class TestSelfVerification:
    """The degrade halves live with the other sites of the one harness:
    ``test_degrade.py::TestDegradeSemantics``."""

    def test_agreement_spends_the_budget_and_stays_columnar(self):
        store = BasisStore(index_strategy="array")
        store.columnar_min_candidates = 0
        store.add(BASE, SAMPLES)
        for _ in range(6):  # beyond VERIFY_CALLS
            assert store.match(_affine(BASE, 2.0, 1.0)) is not None
        assert store.columnar_check.remaining == 0
        assert not store.columnar_check.degraded
        assert active_backend().describe(store.columnar_check) == "numpy"

    def test_the_pair_pass_has_its_own_verification_budget(self):
        """Its first ``VERIFY_CALLS`` answers on a store are held against
        the scalar loop; ``columnar_check``'s budget — the one
        ``_match_columnar`` is vouched for with, should the store ever
        see a long list — is not spent on them."""
        store = BasisStore()
        for fingerprint in SELECTIVE:
            store.add(fingerprint, SAMPLES)
        checked = []
        scalar = store._match_scalar
        store._match_scalar = lambda *args: checked.append(args) or scalar(
            *args
        )
        count = basis_module.PAIR_PASS_MIN_PROBES
        store.match_batch(selective_probes(count))
        assert len(checked) == VERIFY_CALLS
        assert store.pair_checks_left == 0
        store.match_batch(selective_probes(count))
        assert len(checked) == VERIFY_CALLS
        assert store.columnar_check.remaining == VERIFY_CALLS
        assert active_backend().describe(store.columnar_check) == "numpy"


class TestBatchedKeys:
    def test_batch_normal_forms_bitwise_equal(self):
        values = [
            BASE.values,
            (5.0, 5.0, 5.0, 5.0, 5.0),
            (-2.0, 0.0, 1.0, 0.5, 3.0),
            (0.0, 0.0, 0.0, 0.0, 0.0),
            (1.0, 2.0, 3.0),
        ]
        fresh = [Fingerprint(v) for v in values]
        batched = batch_normal_forms(fresh)
        scalar = [Fingerprint(v).normal_form() for v in values]
        assert batched == scalar

    def test_batch_sid_orders_bitwise_equal(self):
        values = [
            BASE.values,
            (5.0, 5.0, 5.0, 5.0, 5.0),
            (3.0, 1.0, 2.0, 1.0, 0.0),  # ties break by ascending index
            (1.0, 2.0, 3.0),
        ]
        for descending in (False, True):
            fresh = [Fingerprint(v) for v in values]
            batched = batch_sid_orders(fresh, descending=descending)
            scalar = [
                Fingerprint(v).sid_order(descending=descending)
                for v in values
            ]
            assert batched == scalar

    def test_candidates_batch_matches_candidates(self):
        for strategy in INDEX_STRATEGIES:
            store = build_store("linear", strategy, "mixed", True)
            per_probe = [store.index.candidates(p) for p in PROBES]
            batched = store.index.candidates_batch(PROBES)
            assert batched == per_probe

    def test_columnar_key_matrices_mirror_fingerprint_keys(self):
        """The parallel SID-order key matrix must hold, row for row,
        exactly the keys the hash index inserted — that is what makes
        pruning on it sound — and the anchor columns exactly what the
        scalar ``find`` anchors on."""
        store = build_store("linear", "array", "mixed", True)
        blocks = store.columnar._blocks
        assert sum(block.count for block in blocks.values()) == len(store)
        for block in blocks.values():
            sid_rows = block.sid_matrix()
            has_pair, anchor, denominator = block.anchor_columns(
                store.rel_tol
            )
            for row, fingerprint in enumerate(block.fingerprints):
                assert tuple(sid_rows[row]) == fingerprint.sid_order()
                pair = fingerprint.first_distinct_pair(store.rel_tol)
                assert bool(has_pair[row]) == (pair is not None)
                if pair is not None:
                    assert (0, int(anchor[row])) == pair
                    assert (
                        denominator[row]
                        == fingerprint[pair[1]] - fingerprint[0]
                    )
        # The gathered per-candidate view families receive sees the same.
        block = blocks[BASE.size]
        rows = np.arange(block.count)[::-1]
        keys = CandidateKeys(block, rows)
        np.testing.assert_array_equal(
            keys.sid_asc(), block.sid_matrix()[rows]
        )
        for gathered, column in zip(
            keys.anchors(store.rel_tol), block.anchor_columns(store.rel_tol)
        ):
            np.testing.assert_array_equal(gathered, column[rows])


#: Seven entries: wide enough that anchors, screen column and the entries
#: only the full-width pass sees are all different columns.
WIDE = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0, 3.0, 0.25))


def _bits(mapping):
    return mapping.alpha.hex(), mapping.beta.hex()


class TestLinearFindMatrixAnchors:
    """``find_matrix`` reading the store's cached anchor columns, deriving
    them itself (``keys=None``) and the row-wise scalar ``find`` must agree
    on the mask and on every bit of alpha and beta."""

    def check(self, sources, target):
        """Returns the scalar answers, last source first."""
        family = LinearMappingFamily()
        store = filled_store(sources, "linear", "array", True)
        block = store.columnar._blocks[target.size]
        # Reversed, so a keys view that ignored its row selection shows.
        rows = np.arange(block.count)[::-1]
        gathered = block.matrix[rows]
        expected = [family.find(sources[row], target) for row in rows]
        for keys in (CandidateKeys(block, rows), None):
            valid, build = family.find_matrix(
                gathered,
                target,
                keys=keys,
            )
            assert valid.tolist() == [want is not None for want in expected]
            for row, want in enumerate(expected):
                if want is not None:
                    assert _bits(build(row)) == _bits(want)
        return expected

    def test_mixed_constant_and_fitted_sources(self):
        sources = [
            WIDE,
            Fingerprint((4.0,) * 7),  # constant: excluded from the fit
            _affine(WIDE, -1.5, 0.25),
            Fingerprint((0.0,) * 7),
            _cubic(WIDE),  # fitted, rejected
        ]
        target = _affine(WIDE, 3.0, -2.0)
        found = self.check(sources, target)
        assert [want is not None for want in found] == [
            False, False, True, False, True,
        ]

    def test_constant_target(self):
        sources = [WIDE, Fingerprint((4.0,) * 7), Fingerprint((0.0,) * 7)]
        found = self.check(sources, Fingerprint((7.5,) * 7))
        assert [want is not None for want in found] == [True, True, False]

    @pytest.mark.parametrize("size", (1, 2))
    def test_too_narrow_to_screen(self, size):
        sources = [
            Fingerprint(WIDE.values[:size]),
            Fingerprint((2.0,) * size),
            Fingerprint((5.0, 3.0)[:size]),
        ]
        target = Fingerprint((1.0, 4.0)[:size])
        assert any(self.check(sources, target))

    def test_anchor_is_the_screen_column(self):
        """First distinct entry == last entry: the screen column passes
        by construction and only the full-width pass can reject."""
        late = Fingerprint((1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0))
        sources = [late, _affine(late, 2.0, 1.0)]
        image = _affine(late, -3.0, 0.5)
        assert all(self.check(sources, image))
        bumped = Fingerprint((1.0, 1.0, 1.0, 9.0, 1.0, 1.0, 2.0))
        assert not any(self.check(sources, bumped))

    def test_rows_passing_the_screen_but_not_the_full_check(self):
        """Agreeing with the target on both anchors and on the screen
        column is not enough."""
        nudged = list(WIDE.values)
        nudged[3] += 0.5
        sources = [Fingerprint(tuple(nudged)), WIDE]
        target = _affine(WIDE, 2.0, 1.0)
        found = self.check(sources, target)
        assert [want is not None for want in found] == [True, False]

    def test_duplicates_all_pass_and_the_first_wins(self):
        sources = [_cubic(WIDE)] + [
            Fingerprint(WIDE.values) for _ in range(12)
        ]
        probe = _affine(WIDE, 0.5, 4.0)
        found = self.check(sources, probe)
        assert [want is not None for want in found] == [True] * 12 + [False]
        reference = filled_store(sources, "linear", "array", False)
        columnar = filled_store(sources, "linear", "array", True)
        want, got = reference.match(probe), columnar.match(probe)
        assert_same_match(want, got)
        assert got.basis.basis_id == 1
        assert columnar.stats.as_dict() == reference.stats.as_dict()
        assert columnar.stats.candidates_tested == 2


def spy_affine_validate(monkeypatch):
    """Record ``(sources.shape, target.shape)`` of every
    ``mapping.affine_validate`` call from here on; returns the record."""
    shapes = []
    validate = mapping_module.affine_validate

    def spy(sources, alpha, beta, target, tol):
        shapes.append((sources.shape, target.shape))
        return validate(sources, alpha, beta, target, tol)

    monkeypatch.setattr(mapping_module, "affine_validate", spy)
    return shapes


class TestValidationScreen:
    def test_one_column_first_then_full_width_on_survivors(self, monkeypatch):
        sources = np.stack(
            [WIDE.array, _cubic(WIDE).array, WIDE.array, -WIDE.array]
        )
        sources[2, 3] += 0.5  # passes the screen, fails full-width
        shapes = spy_affine_validate(monkeypatch)
        valid, _ = LinearMappingFamily().find_matrix(
            sources, _affine(WIDE, 2.0, 1.0)
        )
        assert valid.tolist() == [True, False, False, True]
        assert shapes == [((4, 1), (1,)), ((3, 7), (7,))]

    def test_no_survivor_no_second_launch(self, monkeypatch):
        shapes = spy_affine_validate(monkeypatch)
        valid, _ = LinearMappingFamily().find_matrix(
            np.stack([_cubic(WIDE).array] * 3), WIDE
        )
        assert not valid.any()
        assert shapes == [((3, 1), (1,))]

    def test_two_entries_are_validated_in_one_launch(self, monkeypatch):
        shapes = spy_affine_validate(monkeypatch)
        LinearMappingFamily().find_matrix(
            np.array([[0.0, 1.0], [2.0, 5.0]]), Fingerprint((1.0, 3.0))
        )
        assert shapes == [((2, 2), (2,))]


def _answer_bits(answer):
    result, tested = answer
    if result is None:
        return None, tested
    mapping = result.mapping
    if isinstance(mapping, AffineMapping):
        mapping = _bits(mapping)
    return result.basis.basis_id, type(result.mapping), mapping, tested


def answer_sequentially(store, probes, before=None, add_misses=False):
    """The reference: one ``match`` per probe, ``before[i](store)`` run
    ahead of probe ``i``, a missed probe added as a basis on request."""
    answers = []
    for i, probe in enumerate(probes):
        if before and i in before:
            before[i](store)
        tested = store.stats.candidates_tested
        result = store.match(probe)
        answers.append((result, store.stats.candidates_tested - tested))
        if add_misses and result is None:
            store.add(probe, SAMPLES)
    return answers


def answer_through_block(store, probes, before=None, add_misses=False):
    """The same script through one block probe; returns the handle too."""
    handle = store.block_probe(probes)
    answers = []
    for i, probe in enumerate(probes):
        if before and i in before:
            before[i](store)
        answers.append(handle.match(i))
        if add_misses and answers[-1][0] is None:
            store.add(probe, SAMPLES)
    return answers, handle


def assert_block_parity(reference, blocked, probes, **script):
    """Block ``match(i)`` == sequential ``match``: basis id, mapping bits,
    ``tested``, per-basis ``hits`` and ``StoreStats``.  Returns the handle."""
    expected = answer_sequentially(reference, probes, **script)
    actual, handle = answer_through_block(blocked, probes, **script)
    assert [_answer_bits(a) for a in actual] == [
        _answer_bits(a) for a in expected
    ]
    assert blocked.stats.as_dict() == reference.stats.as_dict()
    assert [(b.basis_id, b.hits) for b in blocked.bases] == [
        (b.basis_id, b.hits) for b in reference.bases
    ]
    return handle


@pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
@pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
class TestBlockProbeParity:
    """``block_probe(...).match(i)`` is ``match`` at that moment, whatever
    happened to the store since the block was opened.  The scalar loop is
    the reference in every comparison; ``affine_validate`` gets per-row
    targets and tolerances here."""

    def stores(self, family_name, strategy, content="mixed"):
        reference = build_store(family_name, strategy, content, False)
        blocked = build_store(family_name, strategy, content, True)
        return reference, blocked

    def test_read_only_block(self, family_name, strategy):
        for content in sorted(CONTENTS):
            handle = assert_block_parity(
                *self.stores(family_name, strategy, content),
                PROBES,
            )
            # The linear family has the pair kernel: every probe of the
            # block was speculated.  The others answer per probe.
            speculated = family_name == "linear"
            assert len(handle._found) == (len(PROBES) if speculated else 0)

    def test_adds_between_answers(self, family_name, strategy):
        """(a) Hits survive an ``add``; misses re-test only the tail."""
        late = Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8))
        before = {
            2: lambda store: store.add(_affine(late, 2.0, 0.5), SAMPLES),
            5: lambda store: store.add(_cubic(late), SAMPLES),
            9: lambda store: store.add(Fingerprint((9.0,) * 7), SAMPLES),
        }
        assert_block_parity(
            *self.stores(family_name, strategy),
            PROBES,
            before=before,
        )

    def test_sweep_shape_adds_every_miss(self, family_name, strategy):
        """Algorithm 3 itself: a miss inserts, later probes may hit it."""
        probes = PROBES + [_affine(p, -0.5, 2.0) for p in PROBES]
        for content in ("empty", "mixed"):
            assert_block_parity(
                *self.stores(family_name, strategy, content),
                probes,
                add_misses=True,
            )

    def test_removals_force_the_fallback(self, family_name, strategy):
        """(b) ``remove`` / ``evict`` / ``compact`` mid-block."""
        before = {
            1: lambda store: store.remove(0),
            4: lambda store: store.evict(EvictionPolicy(max_bases=4)),
            6: lambda store: store.compact(),
            8: lambda store: store.add(BASE, SAMPLES),
            11: lambda store: store.remove(store.bases[-1].basis_id),
        }
        assert_block_parity(
            *self.stores(family_name, strategy),
            PROBES,
            before=before,
        )

    def test_mixed_sizes(self, family_name, strategy):
        """(c) Sizes mixed in one block and in one store, including a
        size the store has never held."""
        seven = Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
        probes = [
            _affine(BASE, 2.0, 1.0),
            _affine(seven, 3.0, 0.0),
            Fingerprint((1.0, 2.0, 4.0)),
            _affine(BASE, -1.0, 0.0),
            _affine(seven, -2.0, 5.0),
            Fingerprint((1.0, 2.0, 4.0)),
        ]
        assert_block_parity(
            *self.stores(family_name, strategy),
            probes,
            add_misses=True,
        )

    def test_constant_probes_and_bases(self, family_name, strategy):
        """(d) Constant and zero fingerprints on both sides of a pair."""
        probes = [
            Fingerprint((7.5,) * 5),
            _affine(BASE, 2.0, 1.0),
            Fingerprint((0.0,) * 5),
            Fingerprint((4.0,) * 5),
            Fingerprint((-1e-13,) * 5),
            _affine(BASE, -3.0, 0.0),
        ]
        before = {3: lambda store: store.add(Fingerprint((2.0,) * 5), SAMPLES)}
        assert_block_parity(
            *self.stores(family_name, strategy),
            probes,
            before=before,
        )

    def test_budget_left_and_degraded_stores_answer_per_probe(
        self, family_name, strategy
    ):
        """(g) No speculation before ``columnar_check`` has spent its
        budget, none after it degraded — parity either way."""
        for degraded in (False, True):
            reference, blocked = self.stores(
                family_name, strategy
            )
            blocked.columnar_check = type(blocked.columnar_check)(
                "columnar FindMapping",
                "the scalar find loop",
                tag="scalar-match",
                budget=2,
                equal=blocked._same_result,
            )
            blocked.columnar_check.degraded = degraded
            handle = assert_block_parity(
                reference, blocked, PROBES, add_misses=True
            )
            assert not handle._found


def assert_run_parity(store, handle, i):
    """``handle.standing(i)`` against a ``match(j)`` loop over the same
    probes on a deep copy of the store and handle: the same hits, mapping
    bits, ``StoreStats`` (so the same ``candidates_tested`` in sum) and
    per-basis ``hits``.  Returns the run's length."""
    twin, twin_handle = copy.deepcopy((store, handle))
    run = handle.standing(i)
    expected = [twin_handle.match(j) for j in range(i, i + len(run))]
    assert all(result is not None for result, _ in expected)
    assert [_answer_bits((result, 0)) for result in run] == [
        _answer_bits((result, 0)) for result, _ in expected
    ]
    assert store.stats.as_dict() == twin.stats.as_dict()
    assert [(b.basis_id, b.hits) for b in store.bases] == [
        (b.basis_id, b.hits) for b in twin.bases
    ]
    return len(run)


@pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
@pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
class TestBlockProbeStandingRun:
    """``standing(i)`` is the ``match(i)``, ``match(i + 1)``, ... that
    the speculation answers as it stands: the longest run of speculated
    hits from ``i``, empty once the store changed, accounted as those
    calls would have been.  Only the linear family speculates; the
    others' runs are empty and their parity trivial."""

    def test_stops_at_the_first_speculative_miss(self, family_name, strategy):
        for content in sorted(CONTENTS):
            store = build_store(family_name, strategy, content, True)
            reference = build_store(family_name, strategy, content, False)
            hit = [reference.match(probe) is not None for probe in PROBES]
            handle = store.block_probe(PROBES)
            i = 0
            while i < len(PROBES):
                length = assert_run_parity(store, handle, i)
                if family_name == "linear":
                    assert hit[i : i + length] == [True] * length
                    assert i + length == len(PROBES) or not hit[i + length]
                else:
                    assert length == 0
                i += length
                if i < len(PROBES):
                    handle.match(i)  # read-only: the store is unchanged
                    i += 1

    def test_stops_when_the_stamp_changes(self, family_name, strategy):
        """Past the first miss, added as Algorithm 3 adds it, the hits
        speculated behind it are answered by ``match`` alone."""
        reference = build_store(family_name, strategy, "mixed", False)
        miss = [reference.match(p) is not None for p in PROBES].index(False)
        store = build_store(family_name, strategy, "mixed", True)
        handle = store.block_probe(PROBES)
        speculated = family_name == "linear"
        assert assert_run_parity(store, handle, 0) == (
            miss if speculated else 0
        )
        for i in range(miss if speculated else 0, miss + 1):
            handle.match(i)
        _, untouched = copy.deepcopy((store, handle))
        store.add(PROBES[miss], SAMPLES)
        # Unchanged, the store would have let the two probes after the
        # linear family's miss (both of the other size, both hits) run.
        assert len(untouched.standing(miss + 1)) == (2 if speculated else 0)
        for i in range(miss + 1, len(PROBES)):
            assert assert_run_parity(store, handle, i) == 0

    def test_stops_after_a_removal(self, family_name, strategy):
        """A removal changes the stamp, and an add after it does not
        change it back: ids are never reissued."""
        for late_add in (False, True):
            store = build_store(family_name, strategy, "mixed", True)
            handle = store.block_probe(PROBES)
            store.remove(store.bases[-1].basis_id)
            if late_add:
                store.add(_affine(BASE, -1.5, 0.25), SAMPLES)
            assert len(store) == len(CONTENTS["mixed"]) - (not late_add)
            for i in range(len(PROBES)):
                assert assert_run_parity(store, handle, i) == 0

    def test_sweep_loop_equals_sequential_matching(self, family_name, strategy):
        """The explorer's loop — a run, then one ``match``, a miss added —
        answers as Algorithm 3's one probe a point."""
        probes = PROBES + [_affine(p, -0.5, 2.0) for p in PROBES]
        for content in ("empty", "mixed"):
            reference = build_store(family_name, strategy, content, False)
            store = build_store(family_name, strategy, content, True)
            expected = answer_sequentially(reference, probes, add_misses=True)
            handle = store.block_probe(probes)
            answers = []
            while len(answers) < len(probes):
                answers += handle.standing(len(answers))
                if len(answers) < len(probes):
                    result, _ = handle.match(len(answers))
                    if result is None:
                        store.add(probes[len(answers)], SAMPLES)
                    answers.append(result)
            assert [_answer_bits((result, 0)) for result in answers] == [
                _answer_bits((result, 0)) for result, _ in expected
            ]
            assert store.stats.as_dict() == reference.stats.as_dict()
            assert [(b.basis_id, b.hits) for b in store.bases] == [
                (b.basis_id, b.hits) for b in reference.bases
            ]

    def test_small_blocks_have_no_run(self, family_name, strategy):
        for count in (1, basis_module.BLOCK_MIN_PROBES - 1):
            store = build_store(family_name, strategy, "mixed", True)
            probes = [_affine(BASE, 1.0 + i, float(i)) for i in range(count)]
            handle = store.block_probe(probes)
            for i in range(count):
                assert assert_run_parity(store, handle, i) == 0
        store = build_store(family_name, strategy, "mixed", True)
        probes = [
            _affine(BASE, 1.0 + i, float(i))
            for i in range(basis_module.BLOCK_MIN_PROBES)
        ]
        length = assert_run_parity(store, store.block_probe(probes), 0)
        assert length == (len(probes) if family_name == "linear" else 0)

    def test_budget_left_and_degraded_stores_have_no_run(
        self, family_name, strategy
    ):
        for degraded in (False, True):
            store = build_store(family_name, strategy, "mixed", True)
            store.columnar_check = type(store.columnar_check)(
                "columnar FindMapping",
                "the scalar find loop",
                tag="scalar-match",
                budget=2,
                equal=store._same_result,
            )
            store.columnar_check.degraded = degraded
            handle = store.block_probe(PROBES)
            for i in range(len(PROBES)):
                assert assert_run_parity(store, handle, i) == 0


class TestBlockProbeIndexCases:
    """The two ``sorted_sid`` shapes the prefix rule exists for."""

    def stores(self, fingerprints):
        return (
            filled_store(fingerprints, "linear", "sorted_sid", False),
            filled_store(fingerprints, "linear", "sorted_sid", True),
        )

    def test_tied_probes_share_one_order_not_the_other(self):
        """(e) ``(0, 4, 4, 4, -2)`` and ``(0, 0, 0, 0, -1)`` sort alike
        ascending and differently descending: one candidate list per
        (ascending, descending) pair, not per ascending key."""
        first = Fingerprint((0.0, 4.0, 4.0, 4.0, -2.0))
        second = Fingerprint((0.0, 0.0, 0.0, 0.0, -1.0))
        assert first.sid_order() == second.sid_order()
        assert first.sid_order(True) != second.sid_order(True)
        fingerprints = [
            Fingerprint((0.0, 1.0, 2.0, 3.0, -1.0)),  # shared ascending key
            _affine(first, -1.0, 0.0),  # first's descending bucket
            _affine(second, -2.0, 1.0),  # second's descending bucket
        ]
        reference, blocked = self.stores(fingerprints)
        probes = [first, second, first, second]
        handle = assert_block_parity(reference, blocked, probes)
        assert handle._candidates[0] is handle._candidates[2]
        assert handle._candidates[0] != handle._candidates[1]
        assert [handle._found[i][0] for i in range(4)] == [1, 1, 1, 1]

    def test_descending_hit_preempted_by_an_ascending_insert(self):
        """(f) The bucket that grew sits *in front of* the speculated
        hit, so the old list is no prefix and the probe starts over."""
        probe = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
        filler = Fingerprint((5.0, 4.0, 3.0, 2.0, 1.5))
        fingerprints = [_affine(probe, -2.0, 1.0), filler]
        reference, blocked = self.stores(fingerprints)
        probes = [filler, probe, _affine(probe, 0.5, 0.0), filler]
        before = {1: lambda store: store.add(_affine(probe, 3.0, 3.0), SAMPLES)}
        handle = assert_block_parity(
            reference, blocked, probes, before=before
        )
        assert handle._found[1][0] == 0  # speculated: the descending hit
        assert blocked.get(2).hits == 2  # answered: the inserted basis
        assert blocked.get(0).hits == 0


class PrefilterSpy:
    """Per ``find_block`` launch, ``(cells, kept)``: how many (probe x
    candidate) pairs its ratio prefilter examined and how many it kept."""

    def __init__(self, monkeypatch):
        self.launches = []
        screen = mapping_module._ratio_screen
        find_block = LinearMappingFamily.find_block

        def spied_screen(*args):
            keep = screen(*args)
            cells, kept = self.launches[-1]
            self.launches[-1] = (cells + keep.size, kept + int(keep.sum()))
            return keep

        def spied_find_block(family, *args, **kwargs):
            self.launches.append((0, 0))
            return find_block(family, *args, **kwargs)

        monkeypatch.setattr(mapping_module, "_ratio_screen", spied_screen)
        monkeypatch.setattr(
            LinearMappingFamily, "find_block", spied_find_block
        )


class TestBlockProbeRules:
    def block(self, count):
        store = build_store("linear", "array", "mixed", True)
        return store, [_affine(BASE, 1.0 + i, float(i)) for i in range(count)]

    def test_small_blocks_answer_per_probe(self):
        store, probes = self.block(basis_module.BLOCK_MIN_PROBES - 1)
        assert not store.block_probe(probes)._found
        store, probes = self.block(basis_module.BLOCK_MIN_PROBES)
        assert len(store.block_probe(probes)._found) == len(probes)

    @pytest.mark.parametrize("budget", (1, 6, 13, 35))
    def test_launches_split_past_the_pair_budget(self, monkeypatch, budget):
        """Six probes x the six same-size bases of the seven stored, plus
        a second candidate list: every probe is still speculated, in as
        many launches as the budget makes necessary — no launch's ratio
        prefilter grid holds more than the budget (or one probe's row),
        and the exact screen sees only the pairs the prefilter kept."""
        monkeypatch.setattr(basis_module, "MAX_LAUNCH_PAIRS", budget)
        grids = PrefilterSpy(monkeypatch)
        store, probes = self.block(6)
        shapes = spy_affine_validate(monkeypatch)
        probes += [Fingerprint((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))] * 2
        reference = build_store("linear", "array", "mixed", False)
        handle = assert_block_parity(reference, store, probes)
        assert len(handle._found) == len(probes)
        screens = [rows for (rows, width), _ in shapes if width == 1]
        assert sum(cells for cells, _ in grids.launches) == 6 * 6 + 2 * 1
        assert max(cells for cells, _ in grids.launches) <= max(budget, 6)
        assert screens == [kept for _, kept in grids.launches]
        assert max(screens) <= max(budget, 6)

    def test_match_batch_is_one_block(self):
        reference = build_store("linear", "sorted_sid", "mixed", False)
        batched = build_store("linear", "sorted_sid", "mixed", True)
        tested = []
        got = batched.match_batch(iter(PROBES), tested_out=tested)
        want = answer_sequentially(reference, PROBES)
        assert [_answer_bits(a) for a in zip(got, tested)] == [
            _answer_bits(a) for a in want
        ]
        assert batched.stats.as_dict() == reference.stats.as_dict()

    def test_one_ragged_launch_per_block(self, monkeypatch):
        """All (probe x candidate) pairs of a block — two candidate lists
        of different lengths here — go through the ratio prefilter in one
        launch; the pairs it keeps are screened in one launch with a
        target entry per pair, the survivors in one more."""
        grids = PrefilterSpy(monkeypatch)
        fingerprints = [WIDE, _cubic(WIDE), _affine(WIDE, 2.0, 0.0)] + [
            _affine(WIDE, -1.0, float(shift)) for shift in range(1, 3)
        ]
        store = filled_store(fingerprints, "linear", "sorted_sid", True)
        shapes = spy_affine_validate(monkeypatch)
        probes = [_affine(WIDE, 3.0, 1.0)] * 3 + [_affine(WIDE, -3.0, 1.0)] * 2
        handle = store.block_probe(probes)
        # Ascending probes see [0, 1, 2] then the descending bucket
        # [3, 4]; descending probes the reverse.  Every probe is an image
        # of WIDE, so only the cubic's five pairs fall to the prefilter.
        assert grids.launches == [(25, 20)]
        assert shapes == [((20, 1), (20, 1)), ((20, 7), (20, 7))]
        assert [handle._found[i][0] for i in range(5)] == [0, 0, 0, 0, 0]


def _nudged(fp, column, by=1e-7):
    """``fp`` with one entry moved out of tolerance, not out of its index
    bucket: it rounds to the same normal form and sorts the same."""
    values = list(fp.values)
    values[column] *= 1.0 + by
    return Fingerprint(tuple(values))


#: A selective store: every candidate list is shorter than the default
#: single-probe cutover.  Seven bases, so even the ``array`` scan is — and
#: there the one five-entry basis is a wrong-size id in every list:
#: untestable, but counted.
SELECTIVE = [
    _nudged(WIDE, 6),  # near-miss in the last column: the screen rejects
    _nudged(WIDE, 3),  # in an early one: only the full width rejects
    _affine(WIDE, 2.0, 1.0),  # the first match, third in its bucket
    _affine(WIDE, -1.0, 0.5),  # decreasing image
    Fingerprint((4.0,) * 7),  # constant
    Fingerprint((0.0,) * 7),  # zero
    BASE,  # the other size, a bucket of one
]

SELECTIVE_PROBES = [
    _affine(WIDE, 3.0, -2.0),
    _affine(WIDE, -2.0, 1.0),
    _affine(_nudged(WIDE, 6, 3e-7), 2.0, 0.0),  # misses the whole bucket
    _affine(_nudged(WIDE, 3), 0.5, 1.0),  # hits its own near-miss basis
    Fingerprint((7.5,) * 7),  # constant probe: a pure shift
    Fingerprint((0.0,) * 7),
    _cubic(WIDE),  # monotone, not affine
    _affine(BASE, 2.0, 1.0),
    Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8, 0.5, 0.4)),  # unrelated
    Fingerprint((1.0, 2.0, 4.0)),  # a size the store never held
    _affine(WIDE, 1.0, 0.0),
]


def selective_probes(count):
    """``count`` fresh probes (no cached keys), cycling the list above."""
    return [
        Fingerprint(SELECTIVE_PROBES[i % len(SELECTIVE_PROBES)].values)
        for i in range(count)
    ]


#: Block sizes on both sides of the pair-pass cutover, and well past it.
SELECTIVE_BLOCKS = (
    basis_module.PAIR_PASS_MIN_PROBES - 1,
    basis_module.PAIR_PASS_MIN_PROBES,
    3 * basis_module.PAIR_PASS_MIN_PROBES + 1,
)


class _FindLog:
    """Wraps ``store._find``, keeping the candidate lists it was given."""

    def __init__(self, store):
        self.lists = []
        self._find = store._find
        store._find = self

    def __call__(self, fingerprint, candidates):
        self.lists.append(list(candidates))
        return self._find(fingerprint, candidates)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
@pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
class TestBlockProbeSelective:
    """The block probe where the index does its job: every probe brings
    its own candidate list, shorter than the single-probe cutover, and a
    block of :data:`PAIR_PASS_MIN_PROBES` decides all of them in one
    explicit pair pass.  Stores sit at the *default*
    ``columnar_min_candidates`` with ``columnar_check``'s budget unspent
    — the lists never get long enough to spend it.  A degrade (a masked
    wrong answer) is an error here; ``affine_validate`` gets the pair
    pass's shapes: one-column sources with a target entry and a bound per
    pair, pair counts from 1 up."""

    def stores(self, family_name, strategy, fingerprints=None):
        fingerprints = SELECTIVE if fingerprints is None else fingerprints
        reference = filled_store(fingerprints, family_name, strategy, False)
        blocked = BasisStore(
            mapping_family=FAMILY_FACTORIES[family_name](),
            index_strategy=strategy,
        )
        for fingerprint in fingerprints:
            blocked.add(fingerprint, SAMPLES)
        return reference, blocked

    @pytest.mark.parametrize("count", SELECTIVE_BLOCKS)
    def test_read_only_block(self, family_name, strategy, count):
        reference, blocked = self.stores(family_name, strategy)
        log = _FindLog(blocked)
        handle = assert_block_parity(
            reference, blocked, selective_probes(count)
        )
        fired = (
            family_name == "linear"
            and count >= basis_module.PAIR_PASS_MIN_PROBES
        )
        assert len(handle._found) == (count if fired else 0)
        # Every answer was read ahead: nothing left for the per-probe
        # path, not even an empty tail.
        assert len(log.lists) == (0 if fired else count)
        assert blocked.columnar_check.remaining == VERIFY_CALLS
        assert blocked.pair_checks_left == (0 if fired else VERIFY_CALLS)

    def test_pair_counts_from_one_up(self, family_name, strategy):
        """One to seven candidates a probe: a store that grows under a
        block of images of everything it holds."""
        count = basis_module.PAIR_PASS_MIN_PROBES
        for held in range(1, 8):
            fingerprints = [_nudged(WIDE, 3, 1e-7 * k) for k in range(held)]
            reference, blocked = self.stores(
                family_name, strategy, fingerprints
            )
            probes = [
                _affine(fingerprints[i % held], 2.0, float(i))
                for i in range(count)
            ]
            assert_block_parity(reference, blocked, probes)
            assert blocked.stats.candidates_tested >= count

    def test_single_pair_launches(self, family_name, strategy, monkeypatch):
        """The smallest launch there is: one probe, one candidate."""
        monkeypatch.setattr(basis_module, "MAX_LAUNCH_PAIRS", 1)
        count = basis_module.PAIR_PASS_MIN_PROBES
        reference, blocked = self.stores(
            family_name, strategy, [WIDE]
        )
        shapes = spy_affine_validate(monkeypatch)
        probes = [
            _affine(WIDE, 2.0, float(i)) if i % 3 else _nudged(WIDE, 3)
            for i in range(count)
        ]
        assert_block_parity(reference, blocked, probes)
        if family_name == "linear":
            screens = [rows for (rows, width), _ in shapes if width == 1]
            assert screens == [1] * count

    def test_add_appends_to_a_speculated_bucket(self, family_name, strategy):
        """Only the appended tail is re-tested — for the probe that missed
        its bucket and for the one that had no bucket at all; a probe
        that hit is not touched by an append."""
        count = basis_module.PAIR_PASS_MIN_PROBES
        probes = selective_probes(count)
        before = {
            2: lambda store: store.add(_affine(probes[2], 0.5, 0.5), SAMPLES),
            8: lambda store: store.add(_affine(probes[8], -1.0, 0.0), SAMPLES),
        }
        reference, blocked = self.stores(family_name, strategy)
        log = _FindLog(blocked)
        assert_block_parity(reference, blocked, probes, before=before)
        if family_name == "linear" and strategy == "normalization":
            # (The array scan appends to *every* list; a sorted_sid
            # bucket can grow in front of another probe's descending
            # half, which starts that probe over.)
            tails = [ids for ids in log.lists if ids]
            assert all(set(ids) <= {7, 8} for ids in tails)
            assert [7] in tails and [8] in tails

    def test_remove_breaks_the_prefix(self, family_name, strategy):
        """A basis retired after the block was opened: probes that had it
        on their list start over, and its stale id — zeroed in the
        columnar layout, still on the speculated lists — wins nothing."""
        count = basis_module.PAIR_PASS_MIN_PROBES + 5
        before = {
            1: lambda store: store.remove(2),
            12: lambda store: store.remove(4),
            20: lambda store: store.add(_affine(WIDE, 5.0, 5.0), SAMPLES),
        }
        assert_block_parity(
            *self.stores(family_name, strategy),
            selective_probes(count),
            before=before,
        )

    def test_sweep_shape_adds_every_miss(self, family_name, strategy):
        count = 2 * basis_module.PAIR_PASS_MIN_PROBES
        for fingerprints in ([], SELECTIVE):
            assert_block_parity(
                *self.stores(family_name, strategy, fingerprints),
                selective_probes(count),
                add_misses=True,
            )

    def test_tombstoned_and_restored_stores(
        self, family_name, strategy, tmp_path
    ):
        """Rows tombstoned in place, then the same store back from a
        memory-mapped snapshot (compacted on save): same answers as the
        scalar loop over a store that lived the same life."""
        count = basis_module.PAIR_PASS_MIN_PROBES
        reference, blocked = self.stores(family_name, strategy)
        for store in (reference, blocked):
            store.remove(1)
            store.remove(5)
        assert blocked.columnar.tombstones == 2
        assert_block_parity(reference, blocked, selective_probes(count))
        restored = []
        for name, store in (("reference", reference), ("blocked", blocked)):
            path = str(tmp_path / name)
            persist.save_store(store, path)
            restored.append(persist.load_store(path, mmap=True))
        reference, blocked = restored
        reference.columnar_min_candidates = ALWAYS_SCALAR
        assert not blocked.columnar._blocks[7].matrix.flags.writeable
        assert_block_parity(
            reference, blocked, selective_probes(count), add_misses=True
        )

    @pytest.mark.parametrize("budget", (1, 5, 40))
    def test_launches_split_past_the_pair_budget(
        self, family_name, strategy, monkeypatch, budget
    ):
        monkeypatch.setattr(basis_module, "MAX_LAUNCH_PAIRS", budget)
        count = basis_module.PAIR_PASS_MIN_PROBES + 3
        reference, blocked = self.stores(family_name, strategy)
        shapes = spy_affine_validate(monkeypatch)
        handle = assert_block_parity(
            reference, blocked, selective_probes(count)
        )
        if family_name == "linear":
            assert len(handle._found) == count
        screens = [rows for (rows, width), _ in shapes if width == 1]
        # A launch holds whole probes: at most the budget, or one list.
        assert all(rows <= max(budget, 7) for rows in screens)


class TestBlockProbeSelectiveIndexCases:
    """``sorted_sid`` at the default cutover, in a block the pair pass
    speculates."""

    def test_ascending_bucket_grows_in_front_of_a_descending_hit(self):
        probe = Fingerprint((0.0, 1.0, 0.5, 2.0, -1.0))
        filler = Fingerprint((5.0, 4.0, 3.0, 2.0, 1.5))
        fingerprints = [_affine(probe, -2.0, 1.0), filler]
        reference = filled_store(fingerprints, "linear", "sorted_sid", False)
        blocked = BasisStore(index_strategy="sorted_sid")
        for fingerprint in fingerprints:
            blocked.add(fingerprint, SAMPLES)
        count = basis_module.PAIR_PASS_MIN_PROBES
        probes = [filler, probe, _affine(probe, 0.5, 0.0)] + [filler] * count
        before = {1: lambda store: store.add(_affine(probe, 3.0, 3.0), SAMPLES)}
        handle = assert_block_parity(
            reference, blocked, probes, before=before
        )
        assert handle._found[1][0] == 0  # speculated: the descending hit
        assert blocked.get(2).hits == 2  # answered: the inserted basis
        assert blocked.get(0).hits == 0


#: Roots of a cold block; each is followed later by its planted images.
OWN_TAIL_ROOTS = [
    BASE,
    Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8)),
    Fingerprint((4.0,) * 5),  # constant: its images are pure shifts
    _cubic(BASE),  # a monotone image of the first root, not an affine one
]

#: ``(alpha, beta)`` of the planted images: decreasing, a pure shift, a
#: pure scale, an exact copy, decreasing again, increasing.
OWN_TAIL_MAPS = [
    (-2.0, 1.0),
    (1.0, 4.5),
    (2.5, 0.0),
    (1.0, 0.0),
    (-0.5, -3.0),
    (3.0, -2.0),
]


def planted_block(roots=OWN_TAIL_ROOTS):
    """Fresh copies of the roots, then every image of every root: a block
    of at least :data:`PAIR_PASS_MIN_PROBES` probes whose later probes
    match what its earlier misses add.  The last probe is the fourth one
    again, the same object."""
    probes = [Fingerprint(root.values) for root in roots]
    probes += [
        _affine(root, alpha, beta)
        for alpha, beta in OWN_TAIL_MAPS
        for root in roots
    ]
    assert len(probes) >= basis_module.PAIR_PASS_MIN_PROBES
    return probes + [probes[3]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strategy", INDEX_STRATEGIES)
@pytest.mark.parametrize("family_name", sorted(FAMILY_FACTORIES))
class TestBlockProbeOwnTails:
    """A speculative miss whose tail is the block's own earlier misses —
    a sweep's adds, each from its probe's own fingerprint — is answered
    from the own-tail table, not by ``_find``.  The reference is a
    ``match`` loop over a deep copy of the store, on the scalar loop;
    the block's store has both budgets spent, so every table answer is
    the table's own."""

    def stores(self, family_name, strategy, fingerprints=()):
        blocked = BasisStore(
            mapping_family=FAMILY_FACTORIES[family_name](),
            index_strategy=strategy,
        )
        blocked.columnar_check.exhaust()
        blocked.pair_checks_left = 0
        for fingerprint in fingerprints:
            blocked.add(fingerprint, SAMPLES)
        reference = copy.deepcopy(blocked)
        reference.columnar_min_candidates = ALWAYS_SCALAR
        return reference, blocked

    def test_cold_block_of_planted_images(self, family_name, strategy):
        reference, blocked = self.stores(family_name, strategy)
        log = _FindLog(blocked)
        handle = assert_block_parity(
            reference, blocked, planted_block(), add_misses=True
        )
        if family_name == "linear":
            # Every tail was the block's own: none reached ``_find``.
            assert log.lists == []
            assert handle._tails
            assert blocked.stats.matches > 0
        else:
            assert handle._tails is None

    def test_foreign_add_between_calls(self, family_name, strategy):
        """A basis the block did not add sends every tail holding it to
        ``_find`` whole: here an image of the first root, added before
        the root's turn, which the root and its images then match."""
        probes = planted_block()
        foreign = _affine(BASE, 7.0, 1.0)
        before = {
            0: lambda store: store.add(foreign, SAMPLES),
            17: lambda store: store.add(Fingerprint((9.0,) * 7), SAMPLES),
        }
        reference, blocked = self.stores(family_name, strategy)
        log = _FindLog(blocked)
        assert_block_parity(
            reference, blocked, probes, before=before, add_misses=True
        )
        if family_name == "linear":
            assert blocked.get(0).fingerprint is foreign
            assert blocked.get(0).hits == 1 + len(OWN_TAIL_MAPS)
            assert log.lists and all(0 in ids for ids in log.lists)

    def test_removal(self, family_name, strategy):
        """An own miss retired mid-block (its id leaves every tail), and
        a basis of a warm store retired (the prefix breaks)."""
        before = {
            9: lambda store: store.remove(store.bases[0].basis_id),
            20: lambda store: store.remove(store.bases[-1].basis_id),
        }
        for content in ("empty", "mixed"):
            assert_block_parity(
                *self.stores(family_name, strategy, CONTENTS[content]),
                planted_block(),
                before=before,
                add_misses=True,
            )

    def test_mixed_sizes(self, family_name, strategy):
        """Pairs of two sizes are tested and unmatched, not launched."""
        roots = [
            BASE,
            WIDE,
            Fingerprint((1.0, 2.0, 4.0)),
            Fingerprint((4.0,) * 7),
        ]
        reference, blocked = self.stores(family_name, strategy)
        log = _FindLog(blocked)
        handle = assert_block_parity(
            reference, blocked, planted_block(roots), add_misses=True
        )
        if family_name == "linear":
            assert log.lists == []
            sizes = {
                (handle._probes[source].size, handle._probes[target].size)
                for source, target in handle._tails
            }
            assert sizes == {(5, 5), (7, 7), (3, 3)}

    def test_later_probe_added_out_of_order(self, family_name, strategy):
        """A later probe's own fingerprint added ahead of its turn (the
        constant root's): the table has no pair with it as the source for
        an earlier probe, or for itself, so those tails go to ``_find``;
        after its turn, the table answers for it again."""
        probes = planted_block()
        before = {1: lambda store: store.add(probes[2], SAMPLES)}
        reference, blocked = self.stores(family_name, strategy)
        log = _FindLog(blocked)
        assert_block_parity(
            reference, blocked, probes, before=before, add_misses=True
        )
        if family_name == "linear":
            early = blocked.get(1)
            assert early.fingerprint is probes[2]
            assert early.hits == 1 + len(OWN_TAIL_MAPS)  # itself, images
            assert log.lists and all(1 in ids for ids in log.lists)
            assert len(log.lists) <= 2  # probes 1 and 2 only


class TestOwnTailBudgetGuard:
    def test_a_cold_array_sweep_spends_the_columnar_budget(self):
        """Own tails spend nothing, so while ``columnar_check`` has budget
        a tail long enough for the columnar path goes to ``_find``: a
        cold ``array`` sweep still vouches for that path in its first
        block and speculates shared lists from its second on."""
        store = BasisStore(index_strategy="array")
        handles = []
        open_block = store.block_probe

        def spy(fingerprints):
            handles.append(open_block(fingerprints))
            return handles[-1]

        store.block_probe = spy
        explorer = ParameterExplorer(
            SynthBasisModel(basis_count=40),
            samples_per_point=20,
            fingerprint_size=10,
            basis_store=store,
        )
        explorer.run([{"point": float(p)} for p in range(2 * BLOCK_PROBES)])
        first, second = handles
        assert first._tails  # the first block's own tails: the table
        assert store.columnar_check.remaining == 0
        assert not store.columnar_check.degraded
        # Every probe of the second block was read ahead on a shared list.
        assert len(second._found) == BLOCK_PROBES
        assert all(
            len(ids) >= store.columnar_min_candidates
            for ids in second._candidates
        )


class TestPerRowAffineValidate:
    def test_per_row_targets_equal_one_call_per_row(self):
        rng = np.random.default_rng(7)
        sources = rng.uniform(-2.0, 2.0, size=(40, 6))
        alpha = rng.uniform(0.5, 2.0, size=40)
        beta = rng.uniform(-1.0, 1.0, size=40)
        targets = alpha[:, None] * sources + beta[:, None]
        targets[::3, 4] += 1e-6  # every third row misses one entry
        tol = np.where(np.arange(40) % 6 == 0, 1e-3, 1e-9)
        validate = mapping_module.affine_validate
        together = validate(sources, alpha, beta, targets, tol)
        for width in (slice(None), slice(5, None)):
            one_by_one = [
                bool(
                    validate(
                        sources[row : row + 1, width],
                        alpha[row : row + 1],
                        beta[row : row + 1],
                        targets[row, width],
                        float(tol[row]),
                    )[0]
                )
                for row in range(40)
            ]
            wide = validate(
                sources[:, width], alpha, beta, targets[:, width], tol
            )
            assert wide.tolist() == one_by_one
        assert together.tolist() == [
            row % 3 != 0 or row % 6 == 0 for row in range(40)
        ]

    def test_find_block_agrees_with_find_pair_by_pair(self):
        family = LinearMappingFamily()
        sources = [
            WIDE,
            Fingerprint((4.0,) * 7),
            _affine(WIDE, -1.5, 0.25),
            Fingerprint((0.0,) * 7),
            _cubic(WIDE),
            Fingerprint(WIDE.values),
        ]
        targets = [
            _affine(WIDE, 3.0, -2.0),
            Fingerprint((7.5,) * 7),
            _cubic(WIDE),
            _affine(_cubic(WIDE), 1e6, 5.0),
            Fingerprint((0.3, 0.1, 0.9, 0.2, 0.8, 0.5, 0.4)),
        ]
        store = filled_store(sources, "linear", "array", True)
        block = store.columnar._blocks[7]
        groups = [(2, np.array([5, 4, 3, 2, 1, 0])), (3, np.array([1, 4]))]
        for anchors in (block.anchor_columns(store.rel_tol), None):
            first, build = family.find_block(
                block.matrix[: block.count],
                np.stack([target.array for target in targets]),
                groups,
                anchors=anchors,
            )
            probe = 0
            for count, rows in groups:
                for target in targets[probe : probe + count]:
                    found = [family.find(sources[r], target) for r in rows]
                    winner = next(
                        (k for k, m in enumerate(found) if m is not None), -1
                    )
                    assert first[probe] == winner
                    if winner >= 0:
                        assert _bits(build(probe)) == _bits(found[winner])
                    probe += 1


class TestSortedSIDFastPaths:
    def test_ascending_only_probe(self):
        index = SortedSIDIndex()
        index.insert(BASE, 0)
        index.insert(_affine(BASE, 2.0, 0.0), 1)
        assert index.candidates(BASE) == [0, 1]

    def test_descending_only_probe(self):
        index = SortedSIDIndex()
        index.insert(BASE, 0)
        probe = _affine(BASE, -1.0, 0.0)
        assert index.candidates(probe) == [0]

    def test_tied_fingerprint_probes_one_bucket_once(self):
        index = SortedSIDIndex()
        constant = Fingerprint((2.0, 2.0, 2.0))
        index.insert(constant, 0)
        # asc and desc keys coincide for fully tied entries; the candidate
        # list must not duplicate the bucket.
        assert constant.sid_order() == constant.sid_order(descending=True)
        assert index.candidates(Fingerprint((7.0, 7.0, 7.0))) == [0]

    def test_mixed_buckets_preserve_order_and_dedup(self):
        index = SortedSIDIndex()
        index.insert(BASE, 0)
        index.insert(_affine(BASE, -3.0, 1.0), 1)
        # Ascending bucket first, then the descending bucket's entries.
        assert index.candidates(BASE) == [0, 1]
        assert index.candidates(_affine(BASE, -1.0, 0.0)) == [1, 0]


class TestPiecewiseApplyArray:
    MAPPING = PiecewiseLinearMapping(
        (0.0, 0.5, 1.25, 3.0), (1.0, -0.5, 2.0, 2.5)
    )

    def test_bitwise_equal_to_scalar_apply(self):
        values = np.concatenate(
            [
                np.linspace(-2.0, 5.0, 113),  # interior + both extrapolations
                np.asarray(self.MAPPING.knots_x),  # exact knot hits
            ]
        )
        expected = np.array(
            [self.MAPPING.apply(float(v)) for v in values], dtype=float
        )
        actual = self.MAPPING.apply_array(values)
        assert actual.dtype == np.float64
        np.testing.assert_array_equal(actual, expected)

    def test_negated_piecewise_bitwise(self):
        negated = _NegatedPiecewise(self.MAPPING)
        values = np.linspace(-1.0, 4.0, 57)
        expected = np.array([negated.apply(float(v)) for v in values])
        np.testing.assert_array_equal(negated.apply_array(values), expected)

    def test_empty_input(self):
        assert self.MAPPING.apply_array(np.empty(0)).shape == (0,)
