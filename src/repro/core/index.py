"""Fingerprint indexes (paper section 3.2).

Matching a new fingerprint against every stored basis distribution costs one
``FindMapping`` call per basis; an index prunes that to a near-constant
candidate set.  Per the paper, an index must return *every* truly similar
basis (false positives are fine — Algorithm 3 re-validates — while a false
negative merely creates a duplicate basis, costing work but never
correctness).

Three strategies, as evaluated in Figures 9-11:

* ``ArrayIndex`` — no pruning; scan every basis (the baseline).
* ``NormalizationIndex`` — hash on the affine-canonical normal form; exact
  for the linear mapping family.
* ``SortedSIDIndex`` — hash on the sample-identifier sort order; applicable
  whenever members are monotone, including mapping classes with no normal
  form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.fingerprint import (
    Fingerprint,
    SizeStacks,
    batch_normal_forms,
    batch_sid_orders,
)
from repro.errors import IndexError_


def _remove_from_bucket(buckets: Dict, key, basis_id: int) -> None:
    """Excise one id from one hash bucket, dropping the bucket if emptied.

    ``list.remove`` deletes the first occurrence and shifts survivors left —
    ids are unique across an index, so this keeps the survivors' relative
    order exactly as inserted.
    """
    bucket = buckets.get(key)
    if bucket is None or basis_id not in bucket:
        raise IndexError_(
            f"basis {basis_id} is not indexed under its fingerprint key"
        )
    bucket.remove(basis_id)
    if not bucket:
        del buckets[key]


class FingerprintIndex(ABC):
    """Maps a probe fingerprint to candidate basis ids."""

    #: The ``make_index`` strategy name.  Snapshots record it, and a load
    #: rebuilds the index by re-inserting the stored fingerprints under it
    #: — refusing to hand a store built under one strategy to a caller
    #: expecting another.
    strategy: str = ""

    def __init__(self) -> None:
        self._size = 0

    @abstractmethod
    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        """Register a stored basis fingerprint under its id."""

    @abstractmethod
    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        """Basis ids that may be similar to the probe (superset of truth)."""

    @abstractmethod
    def keys(self, fingerprint: Fingerprint) -> Tuple[Hashable, tuple]:
        """``(key, reads)``: the bucket an insert of ``fingerprint`` joins,
        and the buckets ``candidates(fingerprint)`` reads, in list order
        (a strategy's ``candidates`` reads the buckets named here).  An
        insert is listed for a probe when its key is one the probe
        reads, behind what that bucket held — the membership rule a block
        plan answers its own inserts by
        (:meth:`repro.core.basis.BlockProbe.plan`)."""

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        """Drop one stored basis from the index (lifecycle layer).

        ``fingerprint`` is the basis's own stored fingerprint: hash-keyed
        strategies recompute its insertion key (key derivation is a
        deterministic function of the values, so the recomputed key names
        the bucket ``insert`` used) and excise exactly one entry.  The
        order of surviving ids is preserved verbatim — first-match-wins is
        part of the FindMatch contract, so removal must never reshuffle a
        bucket.
        """
        raise IndexError_(
            f"{type(self).__name__} does not support removal; implement "
            f"remove to run the store lifecycle layer over it"
        )

    def candidates_batch(
        self,
        fingerprints: Sequence[Fingerprint],
        stacks: Optional[SizeStacks] = None,
        backend=None,
    ) -> List[List[int]]:
        """Per-probe candidate lists for a whole batch of probes.

        Contract: ``candidates_batch(fps)[i] == candidates(fps[i])`` —
        same ids, same order — so batched matching inherits the scalar
        path's first-match-wins tie-breaking.  Hash-keyed strategies
        override this to compute every probe's key in one vectorized
        pass before the bucket lookups, over the caller's
        :func:`~repro.core.fingerprint.stack_by_size` matrices (``stacks``)
        when it has stacked the probes already.  ``backend`` is unused:
        ``perfbench/pb_churn.py``, its only caller, still passes it.

        Probes with equal keys are handed the *same* list object — one
        read-only snapshot per distinct key, never a live bucket — which
        is what lets a block probe gather and validate a shared candidate
        set once (:meth:`repro.core.basis.BasisStore.block_probe`).
        """
        return [self.candidates(fp) for fp in fingerprints]

    @abstractmethod
    def merge(
        self, other: "FingerprintIndex", id_map: Mapping[int, int]
    ) -> None:
        """Bulk-adopt another index's entries under translated basis ids.

        ``id_map`` maps the other index's basis ids to ids in the merged
        store; entries absent from it are skipped (their bases collapsed
        into mappings during the store merge and need no index entry).
        Structural: hash keys computed by the other index are adopted as-is
        — nothing is re-derived from fingerprints — so both indexes must
        use the same strategy.
        """

    def _check_mergeable(self, other: "FingerprintIndex") -> None:
        if type(other) is not type(self):
            raise IndexError_(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}; shard stores must share one index "
                f"strategy"
            )

    def __len__(self) -> int:
        return self._size


class ArrayIndex(FingerprintIndex):
    """Naive full scan: every stored basis is a candidate."""

    strategy = "array"

    def __init__(self) -> None:
        super().__init__()
        self._ids: List[int] = []

    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        self._ids.append(basis_id)
        self._size += 1

    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        return list(self._ids)

    def keys(self, fingerprint: Fingerprint) -> Tuple[None, tuple]:
        return None, (None,)  # one bucket: every basis, of every size

    def candidates_batch(
        self,
        fingerprints: Sequence[Fingerprint],
        stacks: Optional[SizeStacks] = None,
        backend=None,
    ) -> List[List[int]]:
        # No keys to vectorize: every probe scans every stored basis.
        return [list(self._ids)] * len(fingerprints)

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        try:
            self._ids.remove(basis_id)
        except ValueError:
            raise IndexError_(
                f"basis {basis_id} is not in this index"
            ) from None
        self._size -= 1

    def merge(
        self, other: FingerprintIndex, id_map: Mapping[int, int]
    ) -> None:
        self._check_mergeable(other)
        assert isinstance(other, ArrayIndex)
        adopted = [id_map[i] for i in other._ids if i in id_map]
        self._ids.extend(adopted)
        self._size += len(adopted)


class NormalizationIndex(FingerprintIndex):
    """Hash lookup on the affine normal form (minimum and maximum mapped
    to 0 and 1, the smaller of the form and its reflection kept — see
    :meth:`Fingerprint.normal_form`).

    Two fingerprints related by a linear map share their normal form, so a
    single hash probe finds all linear-mappable candidates.  Normal-form
    entries are rounded (see :mod:`repro.core.fingerprint`), so fingerprints
    within arithmetic noise of each other land in the same bucket.

    Arrivals are keyed in bulk: :meth:`insert` only queues its pair, and
    whoever next reads the buckets (``candidates``, ``candidates_batch``,
    ``remove``, either side of ``merge``) first settles the queue — one
    vectorized key pass, then appends in arrival order.  Keys are a pure
    function of the fingerprint, so the buckets and their order are those
    of an index keyed on arrival.  A snapshot load re-inserts every stored
    basis, so it pays one such pass, at the loaded store's first read.
    """

    strategy = "normalization"

    def __init__(self) -> None:
        super().__init__()
        self._buckets: Dict[Tuple[float, ...], List[int]] = {}
        #: Inserted, not yet keyed: ``(fingerprint, basis_id)`` as arrived.
        self._pending: List[Tuple[Fingerprint, int]] = []

    def _settle(self) -> None:
        """Key the queued arrivals and append them to their buckets."""
        from repro.core.basis import BLOCK_MIN_PROBES

        pending = self._pending
        fingerprints = [fingerprint for fingerprint, _ in pending]
        if len(pending) >= BLOCK_MIN_PROBES:
            # The crossover of a block's key pass: below it the scalar key
            # is the cheaper one.  Either way the keys land in the
            # fingerprints' caches.
            keys = batch_normal_forms(fingerprints)
        else:
            keys = [fp.normal_form() for fp in fingerprints]
        # Every key exists before any bucket changes: a failed key pass
        # leaves the queue as it was.
        self._pending = []
        for key, (_, basis_id) in zip(keys, pending):
            self._buckets.setdefault(key, []).append(basis_id)

    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        self._pending.append((fingerprint, basis_id))
        self._size += 1

    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        if self._pending:
            self._settle()
        (key,) = self.keys(fingerprint)[1]
        return list(self._buckets.get(key, ()))

    def keys(self, fingerprint: Fingerprint):
        key = fingerprint.normal_form()  # an equal key
        return key, (key,)

    def candidates_batch(
        self,
        fingerprints: Sequence[Fingerprint],
        stacks: Optional[SizeStacks] = None,
        backend=None,
    ) -> List[List[int]]:
        if self._pending:
            self._settle()
        keys = batch_normal_forms(list(fingerprints), stacks=stacks)
        # Probes that read the same bucket object share one copy of it
        # (told apart by identity: no second hash of a float-tuple key).
        copies: Dict[int, List[int]] = {}
        shared = []
        for key in keys:
            bucket = self._buckets.get(key, ())
            copy = copies.get(id(bucket))
            if copy is None:
                copy = copies[id(bucket)] = list(bucket)
            shared.append(copy)
        return shared

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        if self._pending:
            self._settle()
        key = fingerprint.normal_form()
        _remove_from_bucket(self._buckets, key, basis_id)
        self._size -= 1

    def merge(
        self, other: FingerprintIndex, id_map: Mapping[int, int]
    ) -> None:
        self._check_mergeable(other)
        assert isinstance(other, NormalizationIndex)
        for index in (self, other):
            if index._pending:
                index._settle()
        for key, ids in other._buckets.items():
            adopted = [id_map[i] for i in ids if i in id_map]
            if adopted:
                self._buckets.setdefault(key, []).extend(adopted)
                self._size += len(adopted)


class SortedSIDIndex(FingerprintIndex):
    """Hash lookup on the sorted sample-identifier sequence.

    Monotone increasing maps preserve the value ordering of entries, so two
    mappable fingerprints share their SID sequence; decreasing maps reverse
    it, so the probe also checks the reversed key (paper: "comparing both
    the SID sequence and its inverse").
    """

    strategy = "sorted_sid"

    def __init__(self) -> None:
        super().__init__()
        self._buckets: Dict[Tuple[int, ...], List[int]] = {}

    def insert(self, fingerprint: Fingerprint, basis_id: int) -> None:
        self._buckets.setdefault(fingerprint.sid_order(), []).append(basis_id)
        self._size += 1

    def remove(self, fingerprint: Fingerprint, basis_id: int) -> None:
        # Ids are inserted under the ascending key only; the descending
        # probe key is a lookup-time alias, so one excision suffices.
        _remove_from_bucket(self._buckets, fingerprint.sid_order(), basis_id)
        self._size -= 1

    def candidates(self, fingerprint: Fingerprint) -> List[int]:
        return self._merged(*self._bucket_pair(self.keys(fingerprint)[1]))

    def keys(self, fingerprint: Fingerprint):
        # An equal SID order, ascending bucket first: an insert there lands
        # in front of a probe's descending half.
        reads = self._reads(
            fingerprint.sid_order(), fingerprint.sid_order(descending=True)
        )
        return reads[0], reads

    def candidates_batch(
        self,
        fingerprints: Sequence[Fingerprint],
        stacks: Optional[SizeStacks] = None,
        backend=None,
    ) -> List[List[int]]:
        probes = list(fingerprints)
        ascending = batch_sid_orders(probes, stacks=stacks)
        descending = batch_sid_orders(probes, descending=True, stacks=stacks)
        # Probes that read the same *pair* of bucket objects share one
        # merged list.  Both buckets count: probes with tied entries can
        # agree on one order and differ in the other.
        merged: Dict[Tuple[int, int], List[int]] = {}
        shared = []
        for keys in zip(ascending, descending):
            pair = self._bucket_pair(self._reads(*keys))
            token = (id(pair[0]), id(pair[1]))
            candidates = merged.get(token)
            if candidates is None:
                candidates = merged[token] = self._merged(*pair)
            shared.append(candidates)
        return shared

    @staticmethod
    def _reads(
        ascending: Tuple[int, ...], descending: Tuple[int, ...]
    ) -> tuple:
        """The bucket keys a probe reads, in list order."""
        if descending == ascending:
            # Fully tied fingerprints: both orders name the same bucket, so
            # the dedup pass would drop every descending entry anyway.
            return (ascending,)
        return ascending, descending

    def _bucket_pair(
        self, reads: tuple
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """The live (ascending, descending) buckets of ``reads``
        (:meth:`_reads`); a fully tied probe's descending half is empty."""
        ascending, *descending = (self._buckets.get(key, ()) for key in reads)
        return ascending, descending[0] if descending else ()

    @staticmethod
    def _merged(
        ascending: Sequence[int], descending: Sequence[int]
    ) -> List[int]:
        """A fresh candidate list: ascending bucket, then descending."""
        # An id lives under exactly one insertion key, so with distinct
        # probe keys the buckets are disjoint and the common ascending-only
        # (or descending-only) probe needs no set/merge work at all.
        if not descending:
            return list(ascending)
        if not ascending:
            return list(descending)
        merged = list(ascending)
        seen = set(merged)
        merged.extend(b for b in descending if b not in seen)
        return merged

    def merge(
        self, other: FingerprintIndex, id_map: Mapping[int, int]
    ) -> None:
        self._check_mergeable(other)
        assert isinstance(other, SortedSIDIndex)
        for key, ids in other._buckets.items():
            adopted = [id_map[i] for i in ids if i in id_map]
            if adopted:
                self._buckets.setdefault(key, []).extend(adopted)
                self._size += len(adopted)


INDEX_STRATEGIES = ("array", "normalization", "sorted_sid")


def make_index(strategy: str) -> FingerprintIndex:
    """Factory: build a fingerprint index by strategy name."""
    normalized = strategy.lower().replace("-", "_").replace(" ", "_")
    if normalized == "array":
        return ArrayIndex()
    if normalized == "normalization":
        return NormalizationIndex()
    if normalized in ("sorted_sid", "sid"):
        return SortedSIDIndex()
    raise IndexError_(
        f"unknown index strategy {strategy!r}; choose from {INDEX_STRATEGIES}"
    )
