"""Model-based test of the basis store across features (ROADMAP 4(b)).

The dynamic-evaluation contract (Berkholz–Keppeler–Schweikardt, PAPERS.md)
used as a test: *after any update sequence the maintained structure answers
exactly as a from-scratch evaluation*.  A hypothesis state machine drives
:class:`BasisStore` through interleaved add / add_batch (a prefix of
the fingerprints given samples, one columnar append a size) / match /
match_batch / match_block (a block probe with the machine's own add /
remove / merge, or the add of one of the block's own probes, run between
its answers) / plan (a block planned and settled as a sweep does, with a
foreign add / remove / merge between the two) / remove / evict / compact
/ merge / extend_basis / save→load, and after every step compares it
with a deliberately naive oracle — a plain list of bases in insertion
order, a linear scan over it, the scalar ``find`` — on the matched basis
(through the store-id → oracle-entry renumbering), the mapping parameters
(exact) and
the per-probe ``candidates_tested`` work.  The store's index is held, after
every step and without being read, to an index of its own class that was
handed the same inserts and removals and probed after each one: an index
that keys its arrivals late (``add_burst``: 2–70 adds with nothing read
between) must be the index that keyed them on arrival.  It must also be
the index a snapshot load derives — a fresh one handed the live bases in
id order — bucket for bucket, and probe for probe on every live basis
and an affine image of it.

The machine runs on both sides of the ``columnar_min_candidates`` cutover:
at 0 (every probe through the columnar gather and kernels, cross-check
exhausted so a wrong columnar answer is not masked by the fallback) and at
the default.  This is the guard against retired-id aliasing in the columnar
layout: retired fingerprints are re-probed, stale rows get compacted away
and refilled, snapshots come back memory-mapped and are appended to.
The blocks' lazily filled anchor columns are held to the same contract:
below their watermark they equal a from-scratch pass over the rows.  So
is the running byte total an eviction byte bound reads: it equals the
live bases' summed ``nbytes()``.
A third run sits on both sides of the block probe's *pair-pass* cutover:
``match_block`` draws 4–8 probes, under any cutover worth having, so that
run patches ``PAIR_PASS_MIN_PROBES`` down to the smallest block there is
and every block's short candidate lists go through the explicit pair
pass (its cross-check spent, for the same reason).
"""

import copy
import os
import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro.core.basis as basis_module
from repro.core import persist
from repro.core.basis import BasisStore, EvictionPolicy
from repro.core.fingerprint import Fingerprint, rows_anchor_columns
from repro.core.index import INDEX_STRATEGIES, ArrayIndex, NormalizationIndex
from repro.core.mapping import (
    LinearMappingFamily,
    MonotoneMappingFamily,
    rows_ratio_columns,
)

# Small integer grids: collisions (duplicate bases, shared buckets, ties,
# constants) are the interesting cases, and every affine image below is
# exact in binary floating point.
_values = st.integers(min_value=-4, max_value=4).map(float)
fingerprints = st.sampled_from([5, 5, 5, 3]).flatmap(
    lambda size: st.lists(_values, min_size=size, max_size=size)
).map(lambda values: Fingerprint(tuple(values)))

#: (kind, pick, alpha, beta, nudge, fresh): how to build one probe from
#: the machine's current state — see ``StoreMachine._probe``.  An ``edge``
#: probe is an exact image with its last entry moved ``nudge`` probe
#: tolerances: both sides of the pair screen, and of the block probe's
#: ratio prefilter in front of it.
probe_specs = st.tuples(
    st.sampled_from(["image", "image", "edge", "retired", "fresh"]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]),
    st.sampled_from([-1.0, 0.0, 2.5]),
    st.sampled_from([0.5, 0.999, 1.001, 2.0, -0.5, -0.999, -1.001, -2.0]),
    fingerprints,
)


def _copy(fingerprint):
    """A cache-free twin, so oracle keys are never the store's cached ones."""
    return Fingerprint(fingerprint.values)


def _contents(index):
    """All a probe can read of an index: its ids, or its buckets once its
    queued arrivals are keyed (the dict's key order is not read)."""
    if isinstance(index, ArrayIndex):
        return index._ids
    if isinstance(index, NormalizationIndex):
        index._settle()
    return index._buckets


#: What may happen to the store between a block plan and its resolution:
#: nothing, or one of the machine's own mutating rules with its arguments.
foreign_steps = st.one_of(
    st.none(),
    st.tuples(st.just("add"), fingerprints),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(
        st.just("merge"),
        st.lists(fingerprints, min_size=1, max_size=3),
        st.booleans(),
    ),
)

#: What may happen between two answers of one block probe: a foreign step,
#: or ``add_own``: the add a sweep makes, of one of the block's own probes
#: (the fingerprint object itself, picked by position), whose later tails
#: ``match`` re-tests through ``_find`` — as it does for a probe whose turn
#: has not come.
block_steps = st.one_of(
    foreign_steps,
    st.tuples(st.just("add_own"), st.integers(min_value=0, max_value=10**6)),
)


class _Entry:
    """One oracle basis; identity (not equality) is what tests compare."""

    def __init__(self, fingerprint):
        self.fingerprint = _copy(fingerprint)
        self.hits = 0


class NaiveStore:
    """Bases in insertion order; every probe rescans all of them."""

    def __init__(self, store):
        self.family = type(store.mapping_family)()
        self.strategy = store.index.strategy
        self.rel_tol = store.rel_tol
        self.abs_tol = store.abs_tol
        self.entries = []

    def add(self, fingerprint):
        entry = _Entry(fingerprint)
        self.entries.append(entry)
        return entry

    def candidates(self, probe):
        if self.strategy == "array":
            return list(self.entries)
        if self.strategy == "normalization":
            key = probe.normal_form(self.rel_tol)
            return [
                entry
                for entry in self.entries
                if entry.fingerprint.normal_form(self.rel_tol) == key
            ]
        ascending = probe.sid_order()
        descending = probe.sid_order(descending=True)
        keys = [ascending] if descending == ascending else [
            ascending, descending
        ]
        return [
            entry
            for key in keys
            for entry in self.entries
            if entry.fingerprint.sid_order() == key
        ]

    def match(self, probe):
        """``(entry, mapping, tested)`` by linear scan and scalar find."""
        probe = _copy(probe)
        candidates = self.candidates(probe)
        for position, entry in enumerate(candidates):
            mapping = self.family.find(
                entry.fingerprint,
                probe,
                rel_tol=self.rel_tol,
                abs_tol=self.abs_tol,
            )
            if mapping is not None:
                entry.hits += 1
                return entry, mapping, position + 1
        return None, None, len(candidates)

    def victims(self, max_bases, keep):
        ranked = self.entries
        if keep == "value":
            ranked = sorted(ranked, key=lambda entry: entry.hits)  # stable
        return ranked[: max(0, len(ranked) - max_bases)]


class StoreMachine(RuleBasedStateMachine):
    #: ``None`` leaves the store on its default cutover.
    min_candidates = None

    def __init__(self):
        super().__init__()
        self.scratch = tempfile.mkdtemp(prefix="store-machine-")
        self.saves = 0

    def teardown(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _new_store(self):
        return self._configure(
            BasisStore(
                mapping_family=self.family_class(),
                index_strategy=self.strategy,
            )
        )

    def _configure(self, store):
        if self.min_candidates is not None:
            store.columnar_min_candidates = self.min_candidates
        store.columnar_check.exhaust()
        return store

    @initialize(
        strategy=st.sampled_from(INDEX_STRATEGIES),
        family_class=st.sampled_from(
            [LinearMappingFamily, MonotoneMappingFamily]
        ),
    )
    def build(self, strategy, family_class):
        self.strategy = strategy
        self.family_class = family_class
        self.store = self._new_store()
        self.naive = NaiveStore(self.store)
        #: The store's index, had every arrival been keyed on arrival.
        self.eager_index = type(self.store.index)()
        self.entry_of = {}  # live store basis id -> oracle entry
        self.retired = []  # fingerprints of removed bases

    # -- helpers ------------------------------------------------------------

    def _probe(self, spec):
        kind, pick, alpha, beta, nudge, fresh = spec
        if kind in ("image", "edge") and self.naive.entries:
            source = self.naive.entries[pick % len(self.naive.entries)]
            values = [alpha * v + beta for v in source.fingerprint.values]
            if kind == "edge":
                # The tolerance ``find`` validates this probe against.
                scale = Fingerprint(tuple(values)).scale()
                values[-1] += nudge * max(
                    self.naive.rel_tol * max(scale, 1.0), self.naive.abs_tol
                )
            return Fingerprint(tuple(values))
        if kind == "retired" and self.retired:
            return _copy(self.retired[pick % len(self.retired)])
        return fresh

    def _check(self, probe, result, tested=None):
        """Hold one answer to the oracle's; returns the oracle's tested
        count (``tested`` is ``None`` where only a sum is observable)."""
        entry, mapping, naive_tested = self.naive.match(probe)
        assert tested in (None, naive_tested)
        assert (result is None) == (entry is None)
        if result is not None:
            assert self.entry_of[result.basis.basis_id] is entry
            assert type(result.mapping) is type(mapping)
            assert result.mapping == mapping
        return naive_tested

    def _adopt(self, basis_id, fingerprint):
        entry = self.entry_of[basis_id] = self.naive.add(fingerprint)
        self.eager_index.insert(entry.fingerprint, basis_id)
        self.eager_index.candidates(entry.fingerprint)  # a read: keyed now

    def _retire(self, basis_id):
        entry = self.entry_of.pop(basis_id)
        self.naive.entries.remove(entry)
        self.retired.append(entry.fingerprint)
        self.eager_index.remove(entry.fingerprint, basis_id)

    # -- rules --------------------------------------------------------------

    @rule(fingerprint=fingerprints)
    def add(self, fingerprint):
        basis = self.store.add(fingerprint, np.asarray(fingerprint.values))
        self._adopt(basis.basis_id, fingerprint)

    @rule(burst=st.lists(fingerprints, min_size=2, max_size=70))
    def add_burst(self, burst):
        """Adds with no read of the index between them, on both sides of
        the crossover at which a settle keys its queue in one pass."""
        for fingerprint in burst:
            self.add(fingerprint)

    @rule(
        batch=st.lists(fingerprints, min_size=1, max_size=8),
        data=st.data(),
    )
    def add_batch(self, batch, data):
        """A sweep block's adds: the first ``done`` fingerprints (a draw
        that raised leaves a prefix), each with its row of one matrix."""
        done = data.draw(st.integers(min_value=0, max_value=len(batch)))
        samples = np.array([fp.values[:3] * 2 for fp in batch[:done]])
        added = self.store.add_batch(batch, samples)
        assert len(added) == done
        for basis, fingerprint in zip(added, batch):
            assert basis.fingerprint is fingerprint
            self._adopt(basis.basis_id, fingerprint)

    @rule(spec=probe_specs)
    def match(self, spec):
        probe = self._probe(spec)
        before = self.store.stats.candidates_tested
        result = self.store.match(probe)
        tested = self.store.stats.candidates_tested - before
        self._check(probe, result, tested)

    @rule(specs=st.lists(probe_specs, min_size=1, max_size=6))
    def match_batch(self, specs):
        probes = [self._probe(spec) for spec in specs]
        tested = []
        results = self.store.match_batch(probes, tested_out=tested)
        assert len(results) == len(tested) == len(probes)
        for probe, result, work in zip(probes, results, tested):
            self._check(probe, result, work)

    @rule(
        script=st.lists(
            st.tuples(probe_specs, block_steps),
            min_size=4,
            max_size=8,
        )
    )
    def match_block(self, script):
        """One block probe, the store mutated between its answers: each
        ``match(i)`` must be what a fresh linear scan says *now*."""
        probes = [self._probe(spec) for spec, _ in script]
        handle = self.store.block_probe(probes)
        for i, (_, step) in enumerate(script):
            if step is not None:
                if step[0] == "add_own":
                    self.add(probes[step[1] % len(probes)])
                else:
                    getattr(self, step[0])(*step[1:])
            result, tested = handle.match(i)
            self._check(probes[i], result, tested)

    @rule(
        specs=st.lists(probe_specs, min_size=4, max_size=8),
        foreign=foreign_steps,
    )
    def plan(self, specs, foreign):
        """A sweep's block: planned, a foreign step (or none) run between
        the plan and its resolution, settled with each planned miss's
        samples — or, where there is no plan or the step undid it,
        answered by ``match`` a probe at a time, each miss added.  Either
        way every answer, in order, is what a fresh linear scan says once
        the block's earlier misses are in, and the block's work is the
        scan's: the ``candidates_tested`` of each answer the plan decided,
        and of the whole block."""
        probes = [self._probe(spec) for spec in specs]
        handle = self.store.block_probe(probes)
        misses = handle.plan()
        decided = handle._plan
        if foreign is not None:
            getattr(self, foreign[0])(*foreign[1:])
        stats = self.store.stats
        before = (stats.lookups, stats.candidates_tested)
        outcomes = None
        if misses is not None:
            outcomes = handle.settle(
                [np.asarray(probes[i].values) for i in misses]
            )
        if outcomes is None:
            assert (stats.lookups, stats.candidates_tested) == before
            for i, probe in enumerate(probes):
                result, tested = handle.match(i)
                self._check(probe, result, tested)
                if result is None:
                    self.add(probe)
            return
        assert stats.lookups - before[0] == len(probes)
        work = 0
        for probe, outcome, (_, mapping, tested) in zip(
            probes, outcomes, decided[1]
        ):
            if mapping is None:
                self._check(probe, None, tested)
                self._adopt(outcome.basis_id, probe)
            else:
                self._check(probe, outcome, tested)
            work += tested
        assert stats.candidates_tested - before[1] == work

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def remove(self, pick):
        if not self.entry_of:
            return
        basis_id = sorted(self.entry_of)[pick % len(self.entry_of)]
        self.store.remove(basis_id)
        self._retire(basis_id)

    @rule(
        max_bases=st.integers(min_value=0, max_value=12),
        keep=st.sampled_from(["value", "recent"]),
    )
    def evict(self, max_bases, keep):
        expected = self.naive.victims(max_bases, keep)
        evicted = self.store.evict(
            EvictionPolicy(max_bases=max_bases, keep=keep)
        )
        assert [self.entry_of[basis_id] for basis_id in evicted] == expected
        for basis_id in evicted:
            self._retire(basis_id)

    @rule()
    def compact(self):
        self.store.compact()
        assert self.store.columnar.tombstones == 0

    @rule(
        incoming=st.lists(fingerprints, min_size=1, max_size=5),
        reprobe=st.booleans(),
    )
    def merge(self, incoming, reprobe):
        shard = self._new_store()
        for fingerprint in incoming:
            shard.add(fingerprint, np.asarray(fingerprint.values))
        translation = self.store.merge(shard, reprobe=reprobe)
        assert sorted(translation) == [b.basis_id for b in shard.bases]
        for basis in shard.bases:
            here, mapping = translation[basis.basis_id]
            entry = None
            if reprobe:
                entry, expected, _ = self.naive.match(basis.fingerprint)
            if entry is None:
                assert mapping is None
                self._adopt(here, basis.fingerprint)
            else:
                assert self.entry_of[here] is entry
                assert mapping == expected

    @rule(
        pick=st.integers(min_value=0, max_value=10**6),
        extra=st.integers(min_value=1, max_value=9),
    )
    def extend_basis(self, pick, extra):
        if self.entry_of:
            basis_id = sorted(self.entry_of)[pick % len(self.entry_of)]
            self.store.extend_basis(basis_id, np.arange(float(extra)))

    @rule(mmap=st.booleans())
    def save_load(self, mmap):
        self.saves += 1
        path = os.path.join(self.scratch, f"snap{self.saves}")
        before = self.store.bases
        persist.save_store(self.store, path)
        loaded = persist.load_store(path, like=self._new_store(), mmap=mmap)
        after = loaded.bases
        assert len(after) == len(before)
        self.entry_of = {
            new.basis_id: self.entry_of[old.basis_id]
            for old, new in zip(before, after)
        }
        self.store = self._configure(loaded)

    # -- invariants ---------------------------------------------------------

    @invariant()
    def same_bases_same_order_same_hits(self):
        if not hasattr(self, "store"):
            return
        bases = self.store.bases
        assert [self.entry_of[b.basis_id] for b in bases] == self.naive.entries
        assert [b.hits for b in bases] == [
            entry.hits for entry in self.naive.entries
        ]
        assert len(self.store.columnar) >= len(bases)

    @invariant()
    def running_byte_total_is_the_live_sum(self):
        if hasattr(self, "store"):
            assert self.store._nbytes == sum(
                basis.nbytes() for basis in self.store.bases
            )

    @invariant()
    def index_is_the_one_keyed_on_arrival(self):
        """Compared on a copy: reading the store's own index would key
        its queue, and the next rule is owed an index with arrivals still
        unkeyed (the copy also goes the way a worker's pickle does)."""
        if not hasattr(self, "store"):
            return
        assert _contents(copy.deepcopy(self.store.index)) == _contents(
            self.eager_index
        )

    @invariant()
    def index_is_the_one_rebuilt_from_the_live_bases(self):
        """What ``persist`` derives on load, so a snapshot need not carry
        the index: ids only grow, ``merge`` adopts in creation order and
        removal keeps the survivors' order.  Probed on a copy, as above."""
        if not hasattr(self, "store"):
            return
        rebuilt = type(self.store.index)()
        for basis in self.store.bases:  # in id order
            rebuilt.insert(_copy(basis.fingerprint), basis.basis_id)
        live = copy.deepcopy(self.store.index)
        assert _contents(live) == _contents(rebuilt)
        probes = []
        for basis in self.store.bases:  # each basis and an affine image
            values = basis.fingerprint.values
            probes.append(Fingerprint(values))
            probes.append(Fingerprint(tuple(-2.0 * v + 2.5 for v in values)))
        assert live.candidates_batch(probes) == rebuilt.candidates_batch(
            [_copy(probe) for probe in probes]
        )

    @invariant()
    def anchor_columns_equal_from_scratch(self):
        """Checked as maintained — nothing is filled here, so partially
        filled columns reach the growth, compaction and adoption steps.
        The ratio prefilter's columns, under their own watermark, too."""
        if not hasattr(self, "store"):
            return
        for block in self.store.columnar._blocks.values():
            for rel_tol, (columns, filled) in block._anchors.items():
                assert filled <= block.count
                fresh = rows_anchor_columns(block.matrix[:filled], rel_tol)
                for have, want in zip(columns, fresh):
                    np.testing.assert_array_equal(have[:filled], want)
            for rel_tol, (columns, filled) in block._ratios.items():
                assert filled <= block.count
                rows = block.matrix[:filled]
                fresh = rows_ratio_columns(
                    rows, rows_anchor_columns(rows, rel_tol)
                )
                for have, want in zip(columns, fresh):
                    np.testing.assert_array_equal(have[:filled], want)


class AlwaysColumnarMachine(StoreMachine):
    min_candidates = 0


class PairPassMachine(StoreMachine):
    """Default cutover — short lists stay short — with every block of at
    least ``BLOCK_MIN_PROBES`` probes taking the pair pass.  Linear family
    only: it is the one with the pair kernel, and any other would repeat
    :class:`StoreMachine`."""

    def __init__(self):
        super().__init__()
        self.cutover = basis_module.PAIR_PASS_MIN_PROBES
        basis_module.PAIR_PASS_MIN_PROBES = basis_module.BLOCK_MIN_PROBES

    def teardown(self):
        basis_module.PAIR_PASS_MIN_PROBES = self.cutover
        super().teardown()

    def _configure(self, store):
        store.pair_checks_left = 0
        return super()._configure(store)

    @initialize(strategy=st.sampled_from(INDEX_STRATEGIES))
    def build(self, strategy):
        super().build(strategy, LinearMappingFamily)


_SETTINGS = settings(
    max_examples=40,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestStoreAtDefaultCutover = StoreMachine.TestCase
TestStoreAtDefaultCutover.settings = _SETTINGS
TestStoreAlwaysColumnar = AlwaysColumnarMachine.TestCase
TestStoreAlwaysColumnar.settings = _SETTINGS
TestStorePairPass = PairPassMachine.TestCase
TestStorePairPass.settings = _SETTINGS
