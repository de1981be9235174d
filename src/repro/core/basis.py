"""Basis distributions and the FindMatch store (paper section 3.1, Alg 3).

During execution Jigsaw incrementally maintains a set of *basis
distributions* — (fingerprint, output metrics) pairs for parameter points
that were fully simulated.  A new point first computes its fingerprint; if a
stored basis maps onto it, the expensive remaining Monte Carlo rounds are
skipped and the basis's metrics are remapped instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.backend import VERIFY_CALLS, VerifyThenDegrade, active_backend
from repro.core.columnar import CandidateKeys, ColumnarStore
from repro.errors import LifecycleError
from repro.core.estimator import Estimator, MetricSet
from repro.core.fingerprint import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    Fingerprint,
    rows_anchor_columns,
    stack_by_size,
)
from repro.core.index import make_index
from repro.core.mapping import (
    AffineMapping,
    LinearMappingFamily,
    Mapping,
    MappingFamily,
    _targets_state,
)


@dataclass(slots=True)
class BasisDistribution:
    """A fully simulated distribution available for reuse.

    ``samples`` holds the raw Monte Carlo outputs (fingerprint rounds first),
    enabling sample-level reuse under non-affine mappings and sample
    recycling in the interactive engine.
    """

    basis_id: int
    fingerprint: Fingerprint
    samples: np.ndarray
    metrics: MetricSet
    #: Successful reuses of this basis (probes it answered), bumped by the
    #: match engine.  The eviction policy's notion of reuse *value*;
    #: persisted since snapshot version 2.
    hits: int = 0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)

    def nbytes(self) -> int:
        """Approximate resident size (samples + fingerprint vector), the
        unit :class:`EvictionPolicy`'s ``max_bytes`` bound is written in."""
        return int(self.samples.nbytes) + 8 * self.fingerprint.size


@dataclass
class StoreStats:
    """Work counters for basis matching (benchmarks read these)."""

    lookups: int = 0
    candidates_tested: int = 0
    matches: int = 0
    bases_created: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "lookups": self.lookups,
            "candidates_tested": self.candidates_tested,
            "matches": self.matches,
            "bases_created": self.bases_created,
        }


class MatchResult(NamedTuple):
    """A successful FindMatch: the stored basis plus the witness mapping.

    A ``NamedTuple``, so the long-standing ``basis, mapping = store.match(
    fp)`` unpacking (and truthiness checks against ``None``) keep working
    unchanged.
    """

    basis: BasisDistribution
    mapping: Mapping


@dataclass(frozen=True)
class EvictionPolicy:
    """Bound a store's size by evicting its least-reusable bases first.

    ``max_bases`` caps the basis count, ``max_bytes`` the summed
    :meth:`BasisDistribution.nbytes`; either (or both) may be set, and
    eviction runs until every configured bound holds.  ``keep`` picks the
    ranking: ``"value"`` retires the least-hit basis first (ties broken
    toward the older id, so a never-hit newcomer outlives a never-hit
    veteran), ``"recent"`` ignores hit counts and retires oldest-first.
    Ranking is a pure function of the store's contents, so applying a
    policy is deterministic — the lifecycle parity suites rely on that.
    """

    max_bases: Optional[int] = None
    max_bytes: Optional[int] = None
    keep: str = "value"

    def __post_init__(self) -> None:
        if self.keep not in ("value", "recent"):
            raise LifecycleError(
                f"unknown eviction ranking {self.keep!r}; "
                f"choose 'value' or 'recent'"
            )
        for name in ("max_bases", "max_bytes"):
            bound = getattr(self, name)
            if bound is not None and int(bound) < 0:
                raise LifecycleError(f"{name} must be non-negative")

    def _exceeded(self, count: int, total: int) -> bool:
        return (
            self.max_bases is not None and count > int(self.max_bases)
        ) or (self.max_bytes is not None and total > int(self.max_bytes))

    def victims(self, store: "BasisStore") -> List[int]:
        """Basis ids to evict, in eviction order (store unchanged)."""
        bases = store._bases
        count = len(bases)
        total = store._nbytes if self.max_bytes is not None else 0
        if not self._exceeded(count, total):
            return []
        # One ranking over the live bases, whatever order the dict holds
        # them in (a restored store's need not be ascending id): least hit
        # first with ties toward the older id, or oldest first.  Ids are
        # unique, so either order is total; the hit counts are one column
        # and the ranking one sort in C.
        if self.keep == "value":
            ids = np.fromiter(bases, np.int64, count)
            hits = np.fromiter(
                map(attrgetter("hits"), bases.values()), np.int64, count
            )
            ranked = ids[np.lexsort((ids, hits))].tolist()
        else:
            ranked = sorted(bases)
        victims: List[int] = []
        for basis_id in ranked:
            if not self._exceeded(count, total):
                break
            victims.append(basis_id)
            count -= 1
            total -= bases[basis_id].nbytes()
        return victims


#: Single probes (:meth:`BasisStore.match`, and every probe a block probe
#: does not speculate) with fewer candidates than this take the scalar
#: loop: a couple of per-candidate find() calls against cached fingerprints
#: beats the fixed cost of gathering rows and launching the matrix kernels
#: for one probe (measured on a
#: 389-basis store, kernels reading cached anchor columns and screening
#: one column: 1 candidate/probe 7.8 us scalar vs 36.7 us kernels; 389
#: candidates/probe 1,167.8 us scalar vs 54.1 us kernels).  The kernels
#: win from 6 candidates when all are tested and from 7 when only the last
#: one matches (from 8 before the anchor columns), but the scalar loop
#: stops at its first match, so a hit at a uniformly random position
#: favours it up to about 11: the cutover stays between the two.  Purely
#: a latency cutover — both paths return bit-identical results — kept as
#: an instance attribute so tests can put a store on either side of it.
#: A block probe sorts its candidate lists by this same cutover, but only
#: to pick the front of its pair kernel: lists on the kernel side are
#: shared by many probes and broadcast (:data:`BLOCK_MIN_PROBES`), shorter
#: ones — a selective index: each probe its own — are flattened into an
#: explicit pair list (:data:`PAIR_PASS_MIN_PROBES`).
COLUMNAR_MIN_CANDIDATES = 8

#: Reading ahead for a block has a fixed cost that this many probes repay.
#: A block speculates its shared lists only when at least this many of its
#: probes have a candidate list on the kernel side of the cutover: the
#: pair pass costs
#: about three single-probe kernel matches to launch (12 / 60 / 390 / 2,000
#: candidates per probe: 1 probe 184 / 136 / 150 / 223 us through the block
#: vs 60 / 46 / 55 / 125 us single; 4 probes 35 / 38 / 45 / 79 us per probe
#: vs 37 / 43 / 56 / 129).  And a block of fewer probes than this does not
#: even batch its index keys — each probe is answered as ``match`` would
#: (256-basis store, us per probe, vectorized key pass vs per-probe keys:
#: normalization 1 probe 66 vs 33, 2: 43 vs 33, 3: 34 vs 33, 4: 25 vs 31;
#: sorted_sid 40 vs 23, 32 vs 24, 30 vs 24, 28 vs 23, 8 probes 24 vs 24).
BLOCK_MIN_PROBES = 4

#: A block of at least this many probes also speculates its *short* lists,
#: all of them in one explicit pair pass.  Against a one-candidate probe the
#: scalar loop costs about 8 us, so the pass has only its own interpreter
#: toll to win back — its fixed cost (about 100 us a launch) spread over
#: the block (256-basis store, one candidate a probe, us per probe, pair
#: pass vs the per-probe scalar loop behind the same key pass:
#: normalization 4 probes 44.6 vs 27.9, 8: 24.4 vs 20.2, 16: 15.1 vs 16.5,
#: 24: 11.2 vs 15.0, 32: 9.4 vs 14.7, 64: 7.1 vs 13.4, 512: 4.5 vs 12.4;
#: sorted_sid 4: 35.5 vs 28.0, 8: 20.1 vs 24.2, 16: 13.2 vs 21.8, 24: 10.0
#: vs 21.6, 32: 9.2 vs 20.4, 512: 4.8 vs 19.8).  The lines cross between 8
#: and 16 probes on the dearer strategy; the constant is the first
#: measured size that wins clearly on both.  The daemon's micro-batches
#: (16 probes at most under ``serve_mixed``) sit at the crossing, with
#: nothing to win, and stay on the per-probe side.  Checked on the
#: block's size before anything is set aside for the pass: smaller blocks
#: pay nothing.
PAIR_PASS_MIN_PROBES = 24

#: Most (probe x candidate) pairs put through one launch; a block with
#: more is speculated in several.  A shared list's pairs meet the ratio
#: prefilter first, whose grid peaks near 10 bytes a pair (one float64
#: gap column and two boolean masks; a few float64 grids more when the
#: candidates' anchor columns differ), and only its survivors, about one
#: a probe, are fitted.  So this bounds a launch's transient memory near
#: 320 KiB however large the store or the batch.  Cost per probe at 390
#: candidates, in us, at 4k / 8k / 16k / 32k / 64k / 128k pairs a launch:
#: 10.9 / 6.2 / 4.2 / 3.1 / 2.5 / 2.3 (the broadcast fit it replaced,
#: about 52 bytes a pair: 13.0 / 7.3 / 4.9 / 7.7 / 9.0 / 8.8).  Past 32k
#: only a launch's fixed cost is left to spread, and a 64-probe block
#: reaches the bound only past 512 candidates.  The value stays because
#: the worst case is unchanged: when every pair survives (a store of
#: images of one another) the full-width validation peaks near 380 bytes
#: a pair, as the broadcast fit's did (350).
MAX_LAUNCH_PAIRS = 1 << 15


class BlockProbe:
    """FindMatch for a block of probes, answered in order (Algorithm 3).

    Opening the handle reads the store once for the whole block: the
    probes are stacked into one matrix per fingerprint size, one
    vectorized key pass over it yields one candidate list per distinct
    index key (:meth:`FingerprintIndex.candidates_batch`), and — for
    families with a pair kernel — the block's (probe x candidate) pairs
    are decided in one pass per size (split only past
    :data:`MAX_LAUNCH_PAIRS`), keeping the first valid candidate per
    probe.  The pair kernel has two fronts and one back half.  Lists on
    the kernel side of ``columnar_min_candidates`` are shared by many
    probes: one :meth:`ColumnarStore.gather` per distinct list, and the
    pair grid broadcast through a conservative ratio prefilter
    (:meth:`LinearMappingFamily.find_block`, reading the block's cached
    :meth:`~repro.core.columnar._SizeBlock.pair_columns`) whose survivors
    — about one a probe — form an explicit pair list.  Shorter lists — a
    selective index hands each probe about one candidate of its own —
    are concatenated: one gather over all their ids (wrong-size ids drop
    out there, and still count as tested), one explicit pair list
    (:meth:`LinearMappingFamily.find_pairs`).  Either list is fitted and
    validated by the one back half.
    That answer is *speculative*: it is what ``store.match`` would have
    said when the block was opened.

    :meth:`match` makes it sequentially consistent — ``match(i)`` is
    exactly ``store.match(probe_i)`` at the moment of the call, whatever
    ``add`` / ``remove`` / ``merge`` ran since the block was opened —
    by the **prefix rule**.  Whether a candidate validates depends on two
    immutable fingerprints, never on the rest of the store, so as long as
    the probe's current candidate list still *starts with* the list that
    was speculated, every verdict on that prefix stands: a speculative hit
    is still the first valid candidate, and a speculative miss only has to
    try the appended tail (``tested = len(old) + tail_tested``).  Anything
    else — a removal, a bucket that grew in front of a hit — fails the
    prefix comparison and the probe is answered from scratch.  The rule
    reads nothing but two candidate lists, so it holds for every index
    strategy without per-strategy reasoning.

    In a sweep the appended tail is the block's own earlier misses: each
    miss is simulated and added with its probe's fingerprint, which later
    probes of the block may match.  :meth:`plan` decides the whole block
    that way at once: every probe answered as :meth:`match` would answer
    it if only the block's own misses changed the store, each added in
    order.  Speculated hits stand.  A speculative miss ``i`` is held
    against the earlier planned misses that the index would list for it —
    by the **membership rule**, :meth:`FingerprintIndex.keys`: an insert
    joins a list when its key is one the probe reads (``array``: every
    insert; ``normalization``: an equal key; ``sorted_sid``: an equal SID
    order) — and the first valid one wins, a pair of two sizes or with a
    "no" verdict counting as tested and unmatched.  The pairs are decided
    in one :meth:`LinearMappingFamily.find_pairs` launch a size, each pair
    a probe of its own, and only pairs the rule lists are launched.  The
    plan shares ``pair_checks_left``: while that lasts each answer it
    takes from a tail is held against the family's scalar ``find`` over
    the planned tail, and a disagreement degrades ``columnar_check`` and
    drops all the block read ahead.  :meth:`settle` then adds the planned
    misses in plan order (:meth:`BasisStore.add_batch`) and accounts the
    block: the plan holds while the store stamp is the opening one plus
    the block's own adds, in plan order, so a foreign ``add``, ``remove``
    or ``merge`` between the two makes it refuse, and :meth:`match`
    answers the block.  A block the plan cannot decide is answered by
    :meth:`match` too: one with a probe not speculated, one with an own
    insert in front of the end of a probe's list (``sorted_sid``'s
    ascending bucket ahead of a descending half: the prefix breaks), one
    with a tail long enough for ``_find`` to spend ``columnar_check``'s
    budget on (so a cold sweep still vouches for the columnar path in its
    first block and speculates shared lists from its second).

    Not speculated (answered through :meth:`BasisStore.match`'s own path
    switch at their turn, from the block's candidate list while the store
    is unchanged): everything, for families without a pair kernel and for
    stores whose ``columnar_check`` has degraded; shared lists, while
    ``columnar_check`` still has budget (``_match_columnar`` has not been
    vouched for) and in blocks with fewer than :data:`BLOCK_MIN_PROBES`
    probes bringing one; short lists, in blocks of fewer than
    :data:`PAIR_PASS_MIN_PROBES` probes.  A block of fewer than
    :data:`BLOCK_MIN_PROBES` probes reads nothing ahead at all.  The
    explicit pair pass is reachable on a store that never sees a long
    list, so it carries its own verification: the first
    :data:`~repro.core.backend.VERIFY_CALLS` answers it gives on a store
    (``pair_checks_left``) are held against the scalar loop when the
    block is opened, and a disagreement degrades ``columnar_check`` —
    the one degrade site — and drops what the block read ahead.
    Counters, per-basis ``hits`` and ``candidates_tested`` are accounted
    per :meth:`match` call, in call order, exactly as the scalar loop
    would — or, for a planned block, in one step by :meth:`settle`.
    """

    def __init__(
        self, store: "BasisStore", fingerprints: Iterable[Fingerprint]
    ):
        self._store = store
        self._probes = list(fingerprints)
        #: probe -> None (speculative miss) or (position, mapping).
        self._found: Dict[int, Optional[Tuple[int, Mapping]]] = {}
        #: Changes whenever a basis is added or removed: every ``add`` /
        #: verbatim merge raises ``_next_id`` (ids are never reissued)
        #: and, that being equal, every ``remove`` lowers the live count.
        self._stamp = (store._next_id, len(store._bases))
        #: What :meth:`plan` decided, until :meth:`settle` takes it: the
        #: planned misses, and per probe ``(basis id, mapping, tested)``
        #: (the id a planned miss will be added as; a miss: no mapping).
        self._plan: Optional[Tuple[List[int], list]] = None
        #: Per probe, what ``index.candidates`` said on opening — or
        #: nothing at all for a block too small to repay reading ahead.
        self._candidates: Optional[List[List[int]]] = None
        #: What the pair kernel derives from the stacked probes' rows, by
        #: fingerprint size (:meth:`_state`).
        self._derived: Dict[int, tuple] = {}
        if len(self._probes) >= BLOCK_MIN_PROBES:
            #: The probes as one matrix per fingerprint size: what the key
            #: pass hashes is what the pair kernel validates.
            self._stacks = stack_by_size(self._probes)
            self._candidates = store.index.candidates_batch(
                self._probes, stacks=self._stacks
            )
            self._speculate()

    def __len__(self) -> int:
        return len(self._probes)

    def _state(self, size: int) -> tuple:
        """Size ``size``'s stacked probes as targets — their
        :func:`~repro.core.mapping._targets_state` — and as sources: their
        anchor columns (own pairs read those), from one first-distinct
        pass.  Derived at first use, once a block, and sliced by every
        launch: both are row-wise, so a slice has the bits a launch would
        derive from its own rows."""
        derived = self._derived.get(size)
        if derived is None:
            store, rows = self._store, self._stacks[size][1]
            anchors = rows_anchor_columns(rows, store.rel_tol)
            state = _targets_state(rows, store.rel_tol, store.abs_tol, anchors[0])
            derived = self._derived[size] = state, anchors
        return derived

    def _speculate(self) -> None:
        store = self._store
        check = store.columnar_check
        if not store.mapping_family.supports_find_block or check.degraded:
            return
        shared_lists = not check.remaining
        short_lists = len(self._probes) >= PAIR_PASS_MIN_PROBES
        if not (shared_lists or short_lists):
            return
        cutover = store.columnar_min_candidates
        # Stack rows by what their probe brings: a list on the kernel side
        # of the cutover (keyed by the list, shared by every probe with an
        # equal index key), or a short one of its own.
        shared: Dict[Tuple[int, int], List[int]] = {}
        short: Dict[int, List[int]] = {}
        for size, (indices, _) in self._stacks.items():
            for row, i in enumerate(indices):
                candidates = self._candidates[i]
                if len(candidates) >= cutover:
                    if shared_lists:
                        shared.setdefault((size, id(candidates)), []).append(
                            row
                        )
                elif short_lists:
                    # A speculative miss until a valid pair says otherwise
                    # (as is a probe none of whose candidates has its
                    # size: the scalar loop would have visited, and
                    # counted, each one, matching none).
                    self._found[i] = None
                    if candidates:
                        short.setdefault(size, []).append(row)
        if sum(map(len, shared.values())) >= BLOCK_MIN_PROBES:
            self._speculate_shared(shared)
        for size, rows in short.items():
            self._speculate_short(size, rows)
        if short and store.pair_checks_left:
            self._cross_check(
                [
                    self._stacks[size][0][row]
                    for size, rows in short.items()
                    for row in rows
                ][: store.pair_checks_left]
            )

    def _speculate_shared(
        self, shared: Dict[Tuple[int, int], List[int]]
    ) -> None:
        """One gather per distinct (candidate list, probe size); groups
        are then validated together, one pair pass per fingerprint size."""
        store = self._store
        by_size: Dict[int, Tuple[object, list]] = {}
        for (size, _), members in shared.items():
            indices = self._stacks[size][0]
            positions, rows, block = store.columnar.gather(
                self._candidates[indices[members[0]]], size
            )
            self._found.update(dict.fromkeys(indices[m] for m in members))
            if len(rows):
                by_size.setdefault(size, (block, []))[1].append(
                    (members, positions, rows)
                )
        for size, (block, gathered) in by_size.items():
            parts, pairs = [], 0
            for members, positions, rows in gathered:
                step = max(1, MAX_LAUNCH_PAIRS // len(rows))
                for start in range(0, len(members), step):
                    chunk = members[start : start + step]
                    cost = len(chunk) * len(rows)
                    if parts and pairs + cost > MAX_LAUNCH_PAIRS:
                        self._launch_shared(size, block, parts)
                        parts, pairs = [], 0
                    parts.append((chunk, positions, rows))
                    pairs += cost
            self._launch_shared(size, block, parts)

    def _launch_shared(self, size: int, block, parts) -> None:
        """First valid candidate per probe, for one fingerprint size."""
        store = self._store
        indices, targets = self._stacks[size]
        members = [row for group, _, _ in parts for row in group]
        first, build = store.mapping_family.find_block(
            block.matrix,
            targets[members],
            [(len(group), rows) for group, _, rows in parts],
            rel_tol=store.rel_tol,
            abs_tol=store.abs_tol,
            anchors=block.pair_columns(store.rel_tol),
            state=[column[members] for column in self._state(size)[0]],
        )
        probe, first = 0, first.tolist()
        for group, positions, _ in parts:
            for row in group:
                if first[probe] >= 0:
                    self._found[indices[row]] = (
                        int(positions[first[probe]]),
                        build(probe),
                    )
                probe += 1

    def _speculate_short(self, size: int, members: List[int]) -> None:
        """The explicit pair pass: every (probe, candidate) pair of the
        short lists of one fingerprint size, flattened probe by probe —
        one gather over the concatenated ids, one pair list a launch."""
        store = self._store
        indices, targets = self._stacks[size]
        state = self._state(size)[0]
        every_list = [self._candidates[indices[row]] for row in members]
        step = max(1, MAX_LAUNCH_PAIRS // max(map(len, every_list)))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            lists = every_list[start : start + step]
            counts = np.fromiter(map(len, lists), np.int64, len(lists))
            positions, rows, block = store.columnar.gather(
                list(chain.from_iterable(lists)), size
            )
            if len(rows):
                # Pair -> (probe of the chunk, position in its own list).
                probes = np.repeat(np.arange(len(chunk)), counts)[positions]
                candidates = positions - (np.cumsum(counts) - counts)[probes]
                first, build = store.mapping_family.find_pairs(
                    block.matrix,
                    targets[chunk],
                    probes,
                    candidates,
                    rows,
                    rel_tol=store.rel_tol,
                    abs_tol=store.abs_tol,
                    anchors=block.anchor_columns(store.rel_tol),
                    state=[column[chunk] for column in state],
                )
                hits = np.nonzero(first >= 0)[0]
                for probe, position in zip(hits.tolist(), first[hits].tolist()):
                    self._found[indices[chunk[probe]]] = (
                        position,
                        build(probe),
                    )

    def _cross_check(self, probes: List[int]) -> None:
        """Hold what the pair pass found for ``probes`` against the scalar
        loop, spending the store's budget; a disagreement degrades the
        store and drops everything this block read ahead."""
        store = self._store
        store.pair_checks_left -= len(probes)
        for i in probes:
            result, tested = store._match_scalar(
                self._probes[i], self._candidates[i]
            )
            expected = None if result is None else (tested - 1, result.mapping)
            if self._found[i] != expected:
                store.columnar_check.degrade(
                    "pair pass disagreed with the scalar find loop"
                )
                self._found.clear()
                return

    def match(self, i: int) -> Tuple[Optional[MatchResult], int]:
        """``(store.match(probe_i), candidates tested)``, as of now."""
        store = self._store
        probe = self._probes[i]
        if self._candidates is None:
            return store._match_one(probe)
        old = self._candidates[i]
        current = (
            old
            if (store._next_id, len(store._bases)) == self._stamp
            else store.index.candidates(probe)
        )
        if i not in self._found or (
            current is not old and current[: len(old)] != old
        ):
            return store._account(*store._find(probe, current))
        found = self._found[i]
        if found is not None:
            position, mapping = found
            result = MatchResult(store._bases[old[position]], mapping)
            return store._account(result, position + 1)
        if len(current) == len(old):
            return store._account(None, len(old))
        result, tested = store._find(probe, current[len(old) :])
        return store._account(result, len(old) + tested)

    def plan(self) -> Optional[List[int]]:
        """Decide the whole block as :meth:`match` would answer it, probe
        by probe, if only the block's own misses changed the store — each
        added, in order, with its probe's own fingerprint.  Returns those
        misses, the probes to simulate, in order (:meth:`settle` takes
        their samples); nothing is accounted yet.  ``None`` when the plan
        cannot decide: the store changed since opening, a probe was not
        speculated, an own insert lands in front of the end of a probe's
        list (the prefix breaks), or a tail is one ``columnar_check`` would
        spend its budget on."""
        store, probes, found = self._store, self._probes, self._found
        if (
            self._candidates is None
            or len(found) < len(probes)
            or (store._next_id, len(store._bases)) != self._stamp
        ):
            return None
        index = store.index
        # Each speculative miss's keys, once: the own pairs and the tails
        # below both read them.
        keys = {
            i: index.keys(probes[i]) for i, hit in found.items() if hit is None
        }
        pairs = self._own_pairs(keys)
        partnered = {later for _, later in pairs}
        tolerances = store.rel_tol, store.abs_tol

        def scalar(pair):  # the reference the pair pass is held against
            source, target = probes[pair[0]], probes[pair[1]]
            return store.mapping_family.find(source, target, *tolerances)

        #: Planned misses by the key they are inserted under; the id each
        #: will be added as; per probe, ``(basis id, mapping, tested)``.
        listed: Dict[object, List[int]] = {}
        own_ids: Dict[int, int] = {}
        answers: List[tuple] = []
        for i, (probe, old) in enumerate(zip(probes, self._candidates)):
            hit = found[i]
            # Before the block's first planned miss nothing of its own is
            # listed: a hit stands, a tail is empty.
            if listed or hit is None:
                key, reads = keys.get(i) or index.keys(probe)
                if old and any(map(listed.get, reads[:-1])):
                    # An own insert in front of the list's last old entry.
                    last = index.keys(store._bases[old[-1]].fingerprint)[0]
                    if any(map(listed.get, reads[: reads.index(last)])):
                        return None
            if hit is not None:
                answers.append((old[hit[0]], hit[1], hit[0] + 1))
                continue
            tail = [j for read in reads for j in listed.get(read, ())]
            if store.columnar_check.remaining and (
                len(tail) >= store.columnar_min_candidates
            ):
                return None
            answer = (
                self._first(i, tail, own_ids, len(old), pairs.get)
                if i in partnered  # else no pair of its tail is valid
                else (None, None, len(old) + len(tail))
            )
            if tail and store.pair_checks_left:
                store.pair_checks_left -= 1
                if answer != self._first(i, tail, own_ids, len(old), scalar):
                    store.columnar_check.degrade(
                        "pair pass disagreed with the scalar find loop"
                    )
                    found.clear()
                    return None
            answers.append(answer)
            if answer[1] is None:
                own_ids[i] = store._next_id + len(own_ids)
                listed.setdefault(key, []).append(i)
        self._plan = (list(own_ids), answers)
        return list(own_ids)

    def _first(self, i, tail, own_ids, tested, find) -> tuple:
        """Probe ``i``'s answer from its planned ``tail``: the first own
        miss ``j`` for which ``find((j, i))`` gives a mapping."""
        for k, j in enumerate(tail):
            mapping = find((j, i))
            if mapping is not None:
                return own_ids[j], mapping, tested + k + 1
        return None, None, tested + len(tail)

    def _own_pairs(self, keys) -> Dict[Tuple[int, int], Mapping]:
        """``(earlier, later) -> mapping`` for each valid pair of the
        block's speculative misses that the index would list together —
        the earlier one's insert key is one the later one reads (at most
        two) — in one :meth:`LinearMappingFamily.find_pairs` launch a
        fingerprint size, each pair a probe of its own.  Pairs of two
        sizes are not launched, nor are pairs no list would hold.
        ``keys`` holds each speculative miss's ``index.keys``."""
        store, codes, valid = self._store, {}, {}
        for size, (indices, stack) in self._stacks.items():
            rows = [r for r, i in enumerate(indices) if self._found[i] is None]
            if len(rows) < 2:
                continue
            # Per miss, its insert key and its first and last read key, coded.
            coded = [
                codes.setdefault(k, len(codes))
                for key, reads in (keys[indices[r]] for r in rows)
                for k in (key, reads[0], reads[-1])
            ]
            columns = np.array(coded, np.int64).reshape(-1, 3)
            # Miss ``e``'s insert is on a list miss ``l`` reads; row by row,
            # the (earlier, later) ones are the pairs.
            inserts = columns[:, :1]
            earlier, later = np.nonzero(
                (inserts == columns[:, 1]) | (inserts == columns[:, 2])
            )
            forward = earlier < later
            if not forward.any():
                continue
            rows = np.array(rows)
            sources, targets = rows[earlier[forward]], rows[later[forward]]
            # Sources and targets are the block's stacked rows, whose
            # anchor columns and target state are derived once a block.
            first, build = store.mapping_family.find_pairs(
                stack, stack[targets], np.arange(len(targets)),
                np.zeros(len(targets), np.int64), sources,
                rel_tol=store.rel_tol, abs_tol=store.abs_tol,
                anchors=self._state(size)[1],
                state=[column[targets] for column in self._state(size)[0]],
            )
            for pair in np.nonzero(first >= 0)[0].tolist():
                valid[indices[sources[pair]], indices[targets[pair]]] = build(pair)
        return valid

    def settle(self, samples: Sequence) -> Optional[List[object]]:
        """Resolve the plan: add the first ``len(samples)`` planned misses
        in plan order (:meth:`BasisStore.add_batch`, one columnar append a
        fingerprint size), each with its row of ``samples``, then account
        the probes up to and including the next planned miss — every
        probe, once each miss has its samples — as those :meth:`match`
        calls would have.  So a miss whose simulation failed leaves the
        state the per-probe loop leaves.  Returns per accounted probe its
        :class:`MatchResult`, the basis its miss added, or ``None`` for a
        miss without samples; ``None`` and no change at all when the
        store changed since the plan, which then holds no more."""
        store, plan, self._plan = self._store, self._plan, None
        if plan is None or (store._next_id, len(store._bases)) != self._stamp:
            return None
        misses, answers = plan
        done = len(samples)
        stop = misses[done] + 1 if done < len(misses) else len(answers)
        fingerprints = [self._probes[i] for i in misses]
        added = iter(store.add_batch(fingerprints, samples))
        outcomes: List[object] = []
        bases, tested, matches = store._bases, 0, 0
        for basis_id, mapping, count in answers[:stop]:
            tested += count
            if mapping is None:
                outcomes.append(next(added, None))
            else:
                basis = bases[basis_id]
                basis.hits += 1
                matches += 1
                outcomes.append(MatchResult(basis, mapping))
        store.stats.lookups += stop
        store.stats.matches += matches
        store.stats.candidates_tested += tested
        return outcomes


class BasisStore:
    """The set of basis distributions plus its fingerprint index.

    Implements the matching half of paper Algorithm 3 (FindMatch): probe the
    index for candidates, run the family's FindMapping on each, and return
    the first basis with a valid mapping.

    Matching is *columnar*: stored fingerprints (and their index-key rows)
    live in contiguous matrices (:mod:`repro.core.columnar`), and a probe
    validates all its candidates through one vectorized
    :meth:`MappingFamily.find_matrix` call instead of a per-candidate
    Python loop.  The scalar loop remains as the reference path:
    ``columnar_check`` (:class:`~repro.core.backend.VerifyThenDegrade`)
    compares the first :data:`~repro.core.backend.VERIFY_CALLS` columnar
    lookups against it and any disagreement permanently falls back.
    Either way every probe returns the same basis id, the same mapping
    parameters, and the same candidates-tested count — first-match-wins
    tie-breaking included.
    """

    def __init__(
        self,
        mapping_family: Optional[MappingFamily] = None,
        index_strategy: str = "normalization",
        estimator: Optional[Estimator] = None,
        rel_tol: float = DEFAULT_REL_TOL,
        abs_tol: float = DEFAULT_ABS_TOL,
    ):
        self.mapping_family = mapping_family or LinearMappingFamily()
        if (
            index_strategy == "normalization"
            and not self.mapping_family.supports_normal_form
        ):
            # Normalization is meaningless for families without a normal
            # form; fall back to the always-correct scan.
            index_strategy = "array"
        self.index = make_index(index_strategy)
        self.estimator = estimator or Estimator()
        # Coerce so integer tolerances survive the snapshot hex codec
        # (``float.hex`` exists, ``int.hex`` does not) and compare
        # consistently across save/load.
        self.rel_tol = float(rel_tol)
        self.abs_tol = float(abs_tol)
        self.stats = StoreStats()
        self._bases: Dict[int, BasisDistribution] = {}
        #: The live bases' summed :meth:`BasisDistribution.nbytes`, which
        #: an :class:`EvictionPolicy` byte bound reads: derived state, kept
        #: by every change to ``_bases`` or a basis's samples.
        self._nbytes = 0
        self._next_id = 0
        self.columnar = ColumnarStore()
        self.columnar_min_candidates = COLUMNAR_MIN_CANDIDATES
        #: Store-scoped columnar-vs-scalar cross-check; a degrade shows as
        #: ``scalar-match`` in ``active_backend().describe(columnar_check)``.
        self.columnar_check = VerifyThenDegrade(
            "columnar FindMapping",
            "the scalar find loop",
            tag="scalar-match",
            budget=VERIFY_CALLS,
            equal=self._same_result,
        )
        #: The block probe's explicit pair pass answers short candidate
        #: lists and its plan a block's own misses, neither of
        #: which spends ``columnar_check``'s budget (that one
        #: vouches for ``_match_columnar``, and a selective store may
        #: never get there): its first answers on this store are held
        #: against the scalar loop on a budget of their own, and a
        #: disagreement degrades ``columnar_check``.
        self.pair_checks_left = VERIFY_CALLS

    def __len__(self) -> int:
        return len(self._bases)

    @property
    def backend(self):
        """The process-wide check record
        (:func:`~repro.core.backend.active_backend`); ``perfbench``'s
        churn workload still reads it."""
        return active_backend()

    @property
    def bases(self) -> Tuple[BasisDistribution, ...]:
        return tuple(self._bases[i] for i in sorted(self._bases))

    def get(self, basis_id: int) -> BasisDistribution:
        return self._bases[basis_id]

    def match(self, fingerprint: Fingerprint) -> Optional[MatchResult]:
        """Find a stored basis and mapping M with M(basis.fp) == fingerprint.

        The mapping direction follows the reuse direction: applying M to the
        basis's samples/metrics yields the probe point's.  Single-probe form
        of :meth:`block_probe` — same candidate validation, same counters.
        """
        return self._match_one(fingerprint)[0]

    def block_probe(self, fingerprints: Iterable[Fingerprint]) -> BlockProbe:
        """Open a :class:`BlockProbe` over ``fingerprints`` (read-only).

        ``handle.match(i)`` then answers probe ``i`` exactly as
        :meth:`match` would at that moment — the store may be mutated
        between calls — while the block's index keys, gathers and (for
        families with a pair kernel) candidate validation were computed in
        one pass when the handle was opened.  The one batched matcher:
        :meth:`match_batch` and the sweep explorers are loops over it.
        """
        return BlockProbe(self, fingerprints)

    def match_batch(
        self,
        fingerprints: Iterable[Fingerprint],
        tested_out: Optional[List[int]] = None,
    ) -> List[Optional[MatchResult]]:
        """:meth:`match` for a batch of probes against the current store.

        A loop over one :meth:`block_probe` handle.  Probes do not see
        each other: the store is read-only during the call, so result
        ``i`` is exactly ``match(fps[i])`` — ids, mapping parameters, and
        counter increments all identical.

        ``tested_out``, when given, receives one per-probe
        candidates-tested count per result (the serving layer reports it
        on each response; the sum is exactly what ``candidates_tested``
        grew by).
        """
        block = BlockProbe(self, fingerprints)
        results: List[Optional[MatchResult]] = []
        for i in range(len(block)):
            result, tested = block.match(i)
            if tested_out is not None:
                tested_out.append(tested)
            results.append(result)
        return results

    def _match_one(
        self, fingerprint: Fingerprint
    ) -> Tuple[Optional[MatchResult], int]:
        """Validate and account one probe; returns (result, tested)."""
        return self._account(
            *self._find(fingerprint, self.index.candidates(fingerprint))
        )

    def _find(
        self, fingerprint: Fingerprint, candidates: Sequence[int]
    ) -> Tuple[Optional[MatchResult], int]:
        """First candidate with a valid mapping; returns (result, tested).

        The path is a function of what the store can observe: the family
        has matrix kernels and the probe has enough candidates to repay
        launching them (``columnar_check`` itself answers through the
        scalar loop once degraded).  ``tested`` is the scalar loop's
        accounting: candidates visited up to and including the first match
        (all of them on a miss).
        """
        if (
            self.mapping_family.supports_find_matrix
            and len(candidates) >= self.columnar_min_candidates
        ):
            return self.columnar_check.run(
                self._match_columnar,
                self._match_scalar,
                fingerprint,
                candidates,
            )
        return self._match_scalar(fingerprint, candidates)

    def _account(
        self, result: Optional[MatchResult], tested: int
    ) -> Tuple[Optional[MatchResult], int]:
        """Count one answered probe: every path's lookup is counted here,
        once, as is the winning basis's :attr:`~BasisDistribution.hits`."""
        self.stats.lookups += 1
        self.stats.candidates_tested += tested
        if result is not None:
            self.stats.matches += 1
            result.basis.hits += 1
        return result, tested

    def _match_scalar(
        self, fingerprint: Fingerprint, candidates: Sequence[int]
    ) -> Tuple[Optional[MatchResult], int]:
        """Reference implementation: per-candidate FindMapping loop."""
        for position, basis_id in enumerate(candidates):
            basis = self._bases[basis_id]
            mapping = self.mapping_family.find(
                basis.fingerprint,
                fingerprint,
                rel_tol=self.rel_tol,
                abs_tol=self.abs_tol,
            )
            if mapping is not None:
                return MatchResult(basis, mapping), position + 1
        return None, len(candidates)

    def _match_columnar(
        self, fingerprint: Fingerprint, candidates: Sequence[int]
    ) -> Tuple[Optional[MatchResult], int]:
        """Vectorized candidate validation over the columnar matrices."""
        positions, rows, block = self.columnar.gather(
            candidates, fingerprint.size
        )
        if block is None or len(rows) == 0:
            # No candidate has the probe's size: the scalar loop would have
            # visited (and counted) each one, matching none.
            return None, len(candidates)
        plausible, build = self.mapping_family.find_matrix(
            block.matrix[rows],
            fingerprint,
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            keys=CandidateKeys(block, rows),
        )
        for index in np.nonzero(plausible)[0]:
            mapping = build(int(index))
            if mapping is not None:
                position = int(positions[index])
                basis = self._bases[candidates[position]]
                return MatchResult(basis, mapping), position + 1
        return None, len(candidates)

    @staticmethod
    def _same_result(
        left: Tuple[Optional[MatchResult], int],
        right: Tuple[Optional[MatchResult], int],
    ) -> bool:
        """Whether two (result, tested) pairs agree exactly."""
        (left_match, left_tested) = left
        (right_match, right_tested) = right
        if left_tested != right_tested:
            return False
        if (left_match is None) != (right_match is None):
            return False
        if left_match is None:
            return True
        return (
            left_match.basis.basis_id == right_match.basis.basis_id
            and left_match.mapping == right_match.mapping
        )

    def add(
        self,
        fingerprint: Fingerprint,
        samples: np.ndarray,
        metrics: Optional[MetricSet] = None,
    ) -> BasisDistribution:
        """Store a fully simulated distribution as a new basis."""
        if metrics is None:
            metrics = self.estimator.estimate(samples)
        basis = BasisDistribution(
            basis_id=self._next_id,
            fingerprint=fingerprint,
            samples=np.asarray(samples, dtype=float),
            metrics=metrics,
        )
        self._bases[basis.basis_id] = basis
        self._nbytes += basis.nbytes()
        self.index.insert(fingerprint, basis.basis_id)
        self.columnar.add(basis.basis_id, fingerprint)
        self._next_id += 1
        self.stats.bases_created += 1
        return basis

    def add_batch(self, fingerprints, samples) -> List[BasisDistribution]:
        """:meth:`add` for the first ``len(samples)`` fingerprints, each
        with its row of ``samples``, in order: the same ids, index
        buckets, columnar rows and counters.  The rows are estimated
        together (:meth:`Estimator.estimate_rows`), and the columnar
        mirror takes one append a fingerprint size
        (:meth:`ColumnarStore.extend`).  Each basis owns a copy of its
        row, so no basis keeps the others' samples alive."""
        metrics = self.estimator.estimate_rows(samples)
        first = self._next_id
        added = [
            BasisDistribution(first + k, fp, np.array(row, float), estimate)
            for k, (fp, row, estimate) in enumerate(
                zip(fingerprints, samples, metrics)
            )
        ]
        stacks = stack_by_size([basis.fingerprint for basis in added])
        for size, (indices, rows) in stacks.items():
            self.columnar.extend(
                size,
                [first + k for k in indices],
                [added[k].fingerprint for k in indices],
                rows,
            )
        for basis in added:
            self._bases[basis.basis_id] = basis
            self._nbytes += basis.nbytes()
            self.index.insert(basis.fingerprint, basis.basis_id)
        self._next_id += len(added)
        self.stats.bases_created += len(added)
        return added

    def remove(self, basis_id: int) -> BasisDistribution:
        """Excise one basis: targeted invalidation (lifecycle layer).

        The basis leaves ``_bases``, its index bucket (survivor order
        preserved verbatim — first-match-wins is part of the FindMatch
        contract), and the columnar mirror (tombstoned, compacted past the
        threshold).  Its id is retired, never reissued: ``_next_id`` only
        grows, so snapshots, merges, and external references stay
        unambiguous.  Returns the removed basis; raises :class:`KeyError`
        for an unknown id (mirroring :meth:`get`).
        """
        basis = self._bases.pop(basis_id, None)
        if basis is None:
            raise KeyError(basis_id)
        self._nbytes -= basis.nbytes()
        self.index.remove(basis.fingerprint, basis_id)
        self.columnar.discard(basis_id)
        return basis

    def invalidate_where(
        self, predicate: Callable[[BasisDistribution], bool]
    ) -> List[int]:
        """Remove every basis the predicate marks stale; returns their ids
        (ascending).  The predicate sees each live basis exactly once and
        must not mutate the store."""
        doomed = [
            basis_id
            for basis_id in sorted(self._bases)
            if predicate(self._bases[basis_id])
        ]
        for basis_id in doomed:
            self.remove(basis_id)
        return doomed

    def evict(self, policy: EvictionPolicy) -> List[int]:
        """Apply an eviction policy; returns the evicted ids in order."""
        victims = policy.victims(self)
        for basis_id in victims:
            self.remove(basis_id)
        return victims

    def compact(self) -> int:
        """Force the columnar mirror tombstone-free now (snapshots do this
        implicitly); returns the number of rows dropped."""
        return self.columnar.compact()

    def merge(
        self,
        other: "BasisStore",
        reprobe: bool = True,
    ) -> Dict[int, Tuple[int, Optional[Mapping]]]:
        """Fold another store's bases into this one (sharded-sweep merge).

        With ``reprobe=True`` (default), each incoming basis — in creation
        order — is re-probed against this store's index: if its fingerprint
        already maps onto a stored basis, it *collapses* into that mapping
        instead of being inserted, so cross-shard duplicate simulation work
        shrinks to a mapping entry.  This is safe for exactly the reason
        index false negatives are (paper section 3.2): a duplicate basis
        costs storage, never correctness, so collapsing is pure win and
        keeping a duplicate (when the probe misses) is merely unfortunate.

        With ``reprobe=False`` every basis is adopted verbatim through the
        bulk :meth:`FingerprintIndex.merge` path — no FindMapping calls, no
        collapsing — which is the right mode when the shards are known to
        partition a space with no cross-shard similarity.

        Returns ``{other_basis_id: (basis_id_here, mapping)}`` where
        ``mapping`` is the collapse mapping (apply it to the absorbed
        basis's samples/metrics to recover the incoming ones) or ``None``
        for bases adopted verbatim.
        """
        translation: Dict[int, Tuple[int, Optional[Mapping]]] = {}
        if not reprobe:
            id_map: Dict[int, int] = {}
            for basis in other.bases:
                adopted = BasisDistribution(
                    basis_id=self._next_id,
                    fingerprint=basis.fingerprint,
                    samples=basis.samples,
                    metrics=basis.metrics,
                )
                self._bases[adopted.basis_id] = adopted
                self._nbytes += adopted.nbytes()
                self._next_id += 1
                self.stats.bases_created += 1
                id_map[basis.basis_id] = adopted.basis_id
                translation[basis.basis_id] = (adopted.basis_id, None)
            self.index.merge(other.index, id_map)
            # Adopt the shard's columnar matrices wholesale, no key
            # recomputation.
            self.columnar.adopt(other.columnar, id_map)
            return translation
        # Re-probe pass, one match per incoming basis.  A block probe would
        # be exact here too (its prefix rule repairs whatever an insert
        # changes), but an incoming basis that misses is inserted, and
        # shards mostly ship bases the store lacks: nearly every answer
        # would invalidate the speculation made for the rest.
        for basis in other.bases:
            matched = self.match(basis.fingerprint)
            if matched is not None:
                target, mapping = matched
                translation[basis.basis_id] = (target.basis_id, mapping)
            else:
                adopted = self.add(
                    basis.fingerprint, basis.samples, metrics=basis.metrics
                )
                translation[basis.basis_id] = (adopted.basis_id, None)
        return translation

    def extend_basis(
        self, basis_id: int, new_samples: np.ndarray
    ) -> BasisDistribution:
        """Append refinement samples to a basis and refresh its metrics.

        Used by the interactive engine (section 5): new samples generated for
        a point of interest are recycled into its basis through M⁻¹, making
        every correlated point's estimate more accurate at once.
        """
        basis = self._bases[basis_id]
        samples = np.concatenate(
            [basis.samples, np.asarray(new_samples, dtype=float)]
        )
        # Estimate first: a refused estimate leaves the basis as it was.
        basis.metrics = self.estimator.estimate(samples)
        self._nbytes += samples.nbytes - basis.samples.nbytes
        basis.samples = samples
        return basis

    def metrics_for(
        self, basis: BasisDistribution, mapping: Mapping
    ) -> MetricSet:
        """Metrics of the mapped distribution: Mest in closed form when the
        mapping is affine, else recomputed from mapped samples."""
        if isinstance(mapping, AffineMapping):
            return basis.metrics.remap(mapping)
        return self.estimator.estimate(mapping.apply_array(basis.samples))
