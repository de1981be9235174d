"""Columnar mirror of a basis store's fingerprints and index keys.

The scalar FindMatch loop touches one :class:`BasisDistribution` at a time;
every candidate costs a Python ``MappingFamily.find`` call.  This module
keeps the same data *columnar*: all basis fingerprints of one size live in a
contiguous, incrementally appended ``(n_bases, fingerprint_size)`` float
matrix, with a parallel SID-order key matrix and Algorithm 2's per-basis
anchor columns alongside, so one ``find_matrix`` call validates every
candidate of a probe in a handful of array operations.

Layout notes:

* Basis ids are dense (``BasisStore`` hands them out sequentially), so id →
  (size, row) lookups are plain integer-array indexing, not dict probes.
* Stores may hold fingerprints of several sizes (a candidate of the wrong
  size is untestable but still *counted* by the scalar loop); rows are
  therefore grouped into per-size blocks and gathered per probe.
* Matrices grow geometrically — appends are amortized O(row), and merges
  adopt another store's blocks with one concatenate per size.
* Derived per-row state is materialized lazily behind a fill watermark: a
  store whose family never consults SID orders (or whose probes never reach
  the matrix kernels) never pays for it.  SID orders are read from each
  fingerprint's own cache, so the keys are bitwise the ones the hash
  indexes inserted; anchor columns (and the ratio prefilter's columns
  beside them) are a function of the matrix row and the tolerance alone,
  so they are recomputed, never persisted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fingerprint import (
    Fingerprint,
    batch_sid_orders,
    rows_anchor_columns,
)
from repro.core.mapping import rows_ratio_columns

_EMPTY_ROWS = np.empty(0, dtype=np.int64)

#: Tombstoned rows are compacted away once they exceed this fraction of a
#: store's total rows — removal stays O(1) amortized, matrices stay dense.
COMPACT_TOMBSTONE_FRACTION = 0.5

#: ``(has_pair, anchor, denominator)`` — see ``rows_anchor_columns``.
AnchorColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: ``(ratio, slack)`` — see ``rows_ratio_columns``.
RatioColumns = Tuple[np.ndarray, np.ndarray]


def _grown(array: np.ndarray, capacity: int, filled: int) -> np.ndarray:
    """A fresh ``capacity``-row array holding ``array``'s first ``filled``."""
    grown = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    grown[:filled] = array[:filled]
    return grown


class _SizeBlock:
    """All stored fingerprints of one size, as contiguous matrices."""

    def __init__(self, size: int, capacity: int = 8):
        self.size = size
        self.count = 0
        self.matrix = np.empty((capacity, size), dtype=np.float64)
        self.ids: List[int] = []
        self.fingerprints: List[Fingerprint] = []
        self.dead = 0
        self._sid_matrix: Optional[np.ndarray] = None
        self._sid_filled = 0
        self._anchors: Dict[float, Tuple[AnchorColumns, int]] = {}
        self._ratios: Dict[float, Tuple[RatioColumns, int]] = {}

    def _reserve(self, extra: int) -> None:
        needed = self.count + extra
        capacity = len(self.matrix)
        # Copy-on-write promotion: a block restored from a snapshot holds
        # read-only memory-mapped matrices (shared across forked workers).
        # Any append first lands the matrices in fresh writable arrays; the
        # snapshot file on disk is never written through.
        if needed <= capacity and self.matrix.flags.writeable:
            return
        while capacity < needed:
            capacity *= 2
        self.matrix = _grown(self.matrix, capacity, self.count)
        if self._sid_matrix is not None:
            self._sid_matrix = _grown(
                self._sid_matrix, capacity, self._sid_filled
            )
        for cache in (self._anchors, self._ratios):
            for rel_tol, (columns, filled) in cache.items():
                cache[rel_tol] = (
                    tuple(_grown(c, capacity, filled) for c in columns),
                    filled,
                )

    def append(self, basis_id: int, fingerprint: Fingerprint) -> int:
        """Add one fingerprint row; returns its row index."""
        self._reserve(1)
        row = self.count
        self.matrix[row] = fingerprint.array
        self.ids.append(basis_id)
        self.fingerprints.append(fingerprint)
        self.count += 1
        return row

    def tombstone(self, row: int) -> None:
        """Mark one row dead.  The matrix row and the fingerprint object
        stay in place (lazy key fills must still walk every live row's
        cache) until :meth:`compact` rebuilds the block without them."""
        self.ids[row] = -1
        self.dead += 1

    def compact(self) -> int:
        """Rebuild the block without tombstoned rows; returns rows dropped.

        Fancy indexing materializes fresh writable matrices, so compacting
        a memory-mapped block is also a copy-on-write promotion — the
        snapshot file is never written through.  Fully filled key matrices
        and anchor columns are carried over row-for-row (they stay bitwise
        the inserted keys); partially filled ones are dropped and lazily
        refilled from the surviving rows, which yields the same bits.
        """
        if self.dead == 0:
            return 0
        keep = [row for row in range(self.count) if self.ids[row] >= 0]
        dropped = self.count - len(keep)
        self.matrix = self.matrix[keep]
        if self._sid_matrix is not None and self._sid_filled == self.count:
            self._sid_matrix = self._sid_matrix[keep]
            self._sid_filled = len(keep)
        else:
            self._sid_matrix = None
            self._sid_filled = 0
        self._anchors, self._ratios = (
            {
                rel_tol: (tuple(c[keep] for c in columns), len(keep))
                for rel_tol, (columns, filled) in cache.items()
                if filled == self.count
            }
            for cache in (self._anchors, self._ratios)
        )
        self.ids = [self.ids[row] for row in keep]
        self.fingerprints = [self.fingerprints[row] for row in keep]
        self.count = len(keep)
        self.dead = 0
        return dropped

    def sid_matrix(self) -> np.ndarray:
        """Ascending SID-order keys, one row per stored fingerprint.

        Filled from each fingerprint's cached ``sid_order`` (computing the
        missing ones in one vectorized pass), so entries are bitwise the
        keys a :class:`SortedSIDIndex` hashed on insert.
        """
        if self._sid_matrix is None:
            self._sid_matrix = np.empty(
                (len(self.matrix), self.size), dtype=np.int64
            )
        if self._sid_filled < self.count:
            fresh = self.fingerprints[self._sid_filled : self.count]
            orders = batch_sid_orders(fresh)
            self._sid_matrix[self._sid_filled : self.count] = orders
            self._sid_filled = self.count
        return self._sid_matrix[: self.count]

    @classmethod
    def restore(
        cls,
        size: int,
        matrix: np.ndarray,
        ids: Sequence[int],
        fingerprints: Sequence[Fingerprint],
        sid_matrix: Optional[np.ndarray] = None,
    ) -> "_SizeBlock":
        """Rebuild a block from snapshot arrays (``repro.core.persist``).

        ``matrix`` (and the optional SID key matrix) may be read-only
        memory-mapped views; they are adopted as-is — capacity equals the
        row count, so the first append triggers :meth:`_reserve`'s
        copy-on-write promotion instead of writing through the mapping.
        The key matrix is marked fully filled: its rows were persisted
        from (and stay bitwise equal to) the fingerprints' cached keys.
        Anchor columns are not part of a snapshot; they fill on first use.
        """
        block = cls.__new__(cls)
        block.size = size
        block.count = len(ids)
        block.matrix = matrix
        block.ids = list(ids)
        block.fingerprints = list(fingerprints)
        block.dead = 0
        block._sid_matrix = sid_matrix
        block._sid_filled = block.count if sid_matrix is not None else 0
        block._anchors, block._ratios = {}, {}
        return block

    def _filled(self, cache, rel_tol, dtypes, compute) -> tuple:
        """``cache[rel_tol]``'s columns, one entry per stored row: rows
        past its watermark (appended or adopted since the last call) are
        computed by ``compute(start)``, the rows from ``start`` on."""
        columns, filled = cache.get(rel_tol) or (
            tuple(np.empty(len(self.matrix), dtype=d) for d in dtypes),
            0,
        )
        if filled < self.count:
            for column, values in zip(columns, compute(filled)):
                column[filled : self.count] = values
            cache[rel_tol] = (columns, self.count)
        return tuple(c[: self.count] for c in columns)

    def anchor_columns(self, rel_tol: float) -> AnchorColumns:
        """Algorithm 2's anchor state, one entry per stored fingerprint.

        ``(has_pair, anchor, denominator)`` as
        :func:`~repro.core.fingerprint.rows_anchor_columns` computes them,
        cached per tolerance: only rows past the watermark are computed,
        so a probe reads what the scalar path re-derives for every
        candidate.
        """
        return self._filled(
            self._anchors,
            rel_tol,
            (bool, np.int64, np.float64),
            lambda start: rows_anchor_columns(
                self.matrix[start : self.count], rel_tol
            ),
        )

    def pair_columns(self, rel_tol: float) -> tuple:
        """The anchor columns, then the ratio prefilter's ``(ratio,
        slack)`` as :func:`~repro.core.mapping.rows_ratio_columns` computes
        them — what the block probe's broadcast front reads.  The ratio
        columns are cached beside the anchor columns under a watermark of
        their own, so only block probes pay for them.
        """
        anchors = self.anchor_columns(rel_tol)
        return anchors + self._filled(
            self._ratios,
            rel_tol,
            (np.float64, np.float64),
            lambda start: rows_ratio_columns(
                self.matrix[start : self.count],
                tuple(column[start:] for column in anchors),
            ),
        )


class CandidateKeys:
    """Lazy per-candidate key-matrix view handed to ``find_matrix``.

    Families that prune on order statistics (monotone) read ``sid_asc()``,
    the linear family reads ``anchors()``; families that never ask keep
    the store from materializing anything.
    """

    def __init__(self, block: _SizeBlock, row_indices: np.ndarray):
        self._block = block
        self._rows = row_indices

    def sid_asc(self) -> np.ndarray:
        """Ascending SID-order rows for the gathered candidates."""
        return self._block.sid_matrix()[self._rows]

    def anchors(self, rel_tol: float) -> AnchorColumns:
        """``(has_pair, anchor, denominator)`` for the gathered candidates."""
        return tuple(
            c[self._rows] for c in self._block.anchor_columns(rel_tol)
        )


class ColumnarStore:
    """Columnar companion of one :class:`repro.core.basis.BasisStore`."""

    def __init__(self) -> None:
        self._blocks: Dict[int, _SizeBlock] = {}
        self._size_of = np.zeros(8, dtype=np.int64)
        self._row_of = np.zeros(8, dtype=np.int64)
        self._known = 0
        self._tombstones = 0

    def __len__(self) -> int:
        return self._known

    @property
    def tombstones(self) -> int:
        """Rows currently marked dead but not yet compacted away."""
        return self._tombstones

    def _block(self, size: int) -> _SizeBlock:
        block = self._blocks.get(size)
        if block is None:
            block = _SizeBlock(size)
            self._blocks[size] = block
        return block

    def _register(self, basis_id: int, size: int, row: int) -> None:
        if basis_id >= len(self._size_of):
            capacity = len(self._size_of)
            while capacity <= basis_id:
                capacity *= 2
            for name in ("_size_of", "_row_of"):
                grown = np.zeros(capacity, dtype=np.int64)
                old = getattr(self, name)
                grown[: len(old)] = old
                setattr(self, name, grown)
        self._size_of[basis_id] = size
        self._row_of[basis_id] = row
        self._known = max(self._known, basis_id + 1)

    def add(self, basis_id: int, fingerprint: Fingerprint) -> None:
        """Mirror one stored basis into the columnar matrices."""
        row = self._block(fingerprint.size).append(basis_id, fingerprint)
        self._register(basis_id, fingerprint.size, row)

    def restore_blocks(self, blocks: Dict[int, _SizeBlock]) -> None:
        """Adopt fully built size blocks (the snapshot load path).

        Replaces this (empty) store's contents; the id -> (size, row)
        lookup arrays are rebuilt writable, so only the block matrices
        themselves stay memory-mapped.
        """
        self._blocks = dict(blocks)
        for size, block in self._blocks.items():
            for row, basis_id in enumerate(block.ids):
                self._register(basis_id, size, row)

    def discard(self, basis_id: int) -> None:
        """Retire one basis's row (tombstone now, compact past threshold).

        The id's dense-array entries are zeroed — ``_size_of == 0`` never
        equals a real fingerprint size, so a stale id handed to ``gather``
        is filtered out by the size check rather than aliasing a live row.
        """
        if (
            basis_id < 0
            or basis_id >= self._known
            or self._size_of[basis_id] == 0
        ):
            raise KeyError(basis_id)
        size = int(self._size_of[basis_id])
        block = self._blocks[size]
        block.tombstone(int(self._row_of[basis_id]))
        self._size_of[basis_id] = 0
        self._row_of[basis_id] = 0
        self._tombstones += 1
        total = sum(block.count for block in self._blocks.values())
        if self._tombstones > COMPACT_TOMBSTONE_FRACTION * total:
            self.compact()

    def compact(self) -> int:
        """Rebuild every block tombstone-free; returns rows dropped.

        Surviving rows keep their relative order (and their key-matrix
        bits), so a compacted store answers every probe exactly as the
        tombstoned one did — only ``_row_of`` is renumbered.
        """
        dropped = 0
        for size in list(self._blocks):
            block = self._blocks[size]
            dropped += block.compact()
            if block.count == 0:
                del self._blocks[size]
            else:
                for row, basis_id in enumerate(block.ids):
                    self._row_of[basis_id] = row
        self._tombstones = 0
        return dropped

    def adopt(self, other: "ColumnarStore", id_map: Dict[int, int]) -> None:
        """Bulk-append another store's rows under translated basis ids.

        The merge counterpart of :meth:`add`: each of ``other``'s size
        blocks lands in this store with one matrix concatenate (ids absent
        from ``id_map`` were collapsed into mappings and carry no row).
        Materialized key matrices are *not* copied — the adopted
        fingerprints keep their cached keys, so a later watermark fill is
        a cache read, not a recomputation.
        """
        for size, incoming in other._blocks.items():
            kept = [
                row
                for row in range(incoming.count)
                if incoming.ids[row] in id_map
            ]
            if not kept:
                continue
            block = self._block(size)
            block._reserve(len(kept))
            start = block.count
            block.matrix[start : start + len(kept)] = incoming.matrix[kept]
            for offset, row in enumerate(kept):
                basis_id = id_map[incoming.ids[row]]
                block.ids.append(basis_id)
                block.fingerprints.append(incoming.fingerprints[row])
                self._register(basis_id, size, start + offset)
            block.count += len(kept)

    def gather(
        self, candidates: Sequence[int], size: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[_SizeBlock]]:
        """Locate a probe's candidates in the columnar layout.

        Returns ``(positions, rows, block)``: ``positions`` are indices
        into ``candidates`` whose basis has the probe's fingerprint size
        (the only testable ones — the rest fail the scalar loop's size
        check, and a retired id's zeroed size never equals one), ``rows``
        their rows in ``block``.
        """
        block = self._blocks.get(size)
        if block is None or not candidates:
            return _EMPTY_ROWS, _EMPTY_ROWS, None
        ids = np.fromiter(
            candidates, dtype=np.int64, count=len(candidates)
        )
        positions = np.nonzero(self._size_of[ids] == size)[0]
        return positions, self._row_of[ids[positions]], block
