"""Persistent basis-store snapshots with cross-run warm start.

Jigsaw's value proposition is amortization — bases built once answer every
later probe — but (before this module) the reuse state died with the
process.  A *snapshot* materializes the full state of one or more
:class:`~repro.core.basis.BasisStore` instances so a later run (CLI sweep,
bench figure, interactive session, sharded sweep master) can warm-start
from it and only pay fingerprint rounds for points the stored bases cover.

Format
------

A snapshot is a directory::

    <path>/
      manifest.json        identity, configuration, stats, CRC table
      <name>.npy           everything per basis or per block

Per store ``storeN``, the arrays are (int64 unless marked float64):

* ``storeN.block<size>.matrix`` (float64, rows × size) and ``.ids``, plus
  ``.sid`` where the SID-order key matrix was materialized;
* the basis table, one row per basis in id order: ``basis_ids``,
  ``hits``, ``sample_counts`` (slices of ``samples`` are their running
  sum), ``count`` and ``moments`` (float64, n × 4: expectation, stddev,
  minimum, maximum) of each ``MetricSet``, ``quantile_counts`` with the
  flat ``quantiles`` (float64, k × 2 ``(p, value)`` pairs), and
  ``bin_counts`` (−1: no histogram) with the flat ``histogram_counts``
  and ``histogram_edges`` (float64, bins + 1 per histogram);
* ``samples`` (float64), every basis's samples end to end.

* **Bitwise fidelity.**  A float64 array carries every bit of every
  float; the few floats left in the manifest (tolerances, estimator
  probabilities) are ``float.hex()`` strings.  A loaded store answers
  probes with the same basis ids, bitwise-identical mapping parameters,
  and the same ``candidates_tested`` counters as the live store it was
  saved from (``tests/unit/test_persist_parity.py``).
* **Zero-copy matrices.**  Array files are opened with
  ``np.load(mmap_mode="r")``: the columnar fingerprint matrices and basis
  sample vectors are read-only views of the page cache, so forked shard
  workers share physical pages instead of each materializing a copy.
  Mutation paths (``add``/``merge``/``extend_basis``/interactive rebind)
  promote to fresh writable arrays — copy-on-write at the array level; the
  snapshot on disk is never written through.
* **Atomicity.**  Saves build the snapshot under a temp name in the target
  directory and rename it into place, so no reader ever observes a
  partial snapshot at the target path.  Overwrites swap via an adjacent
  ``.old-`` directory with in-process rollback; only a hard crash in the
  instant between the two renames can leave the target absent, and even
  then the previous snapshot survives intact under the ``.old-`` twin.
* **Corruption detection.**  The manifest body carries a CRC32 over its
  canonical serialization (the very bytes written), and every array file
  records its byte length and CRC32.  Truncation or bit damage anywhere
  raises :class:`~repro.errors.SnapshotCorruptionError` before any state
  reaches a store — a load returns a complete store or nothing.  So does
  a checksum-consistent table that does not add up: a column of the
  wrong length, a negative count, or slices past their vectors.
* **Compatibility validation.**  The manifest records the mapping family,
  index strategy, match tolerances, estimator configuration, and
  seed-bank identity each store was built under.  A load checked against
  an expectation (a ``like`` store and/or a seed bank) refuses with
  :class:`~repro.errors.SnapshotCompatibilityError` on any mismatch —
  fingerprints are only comparable under one seed bank and one tolerance
  regime, so silent cross-configuration reuse would be silently wrong.

What is (not) persisted
-----------------------

Persisted: bases (fingerprints, raw sample vectors, metrics), the
columnar matrices including a materialized SID-order key matrix, and the
``StoreStats`` counters.
Not persisted: the fingerprint index.  It is a function of the stored
fingerprints (paper section 3.2), so a load re-inserts the live bases in
id order, which rebuilds the saved store's buckets with their order
(first-match-wins reads it): ids only grow, ``merge`` adopts in creation
order, and removal keeps the survivors' order.  Snapshots up to version
3 carry bucket state; a load never reads it.  Nor are the columnar
blocks' anchor columns (a function of the matrix rows, refilled on first
use), nor the match path's runtime state
(``columnar_min_candidates``, ``columnar_check``, ``pair_checks_left``)
— a loaded store re-verifies its first columnar lookups and its first
pair-pass answers against the scalar loop, exactly like a fresh one.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import zlib
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.basis import BasisDistribution, BasisStore, StoreStats
from repro.core.columnar import ColumnarStore, _SizeBlock
from repro.core.estimator import Estimator, Histogram, MetricSet
from repro.core.fingerprint import Fingerprint, batch_sid_orders
from repro.core.index import INDEX_STRATEGIES
from repro.core.mapping import (
    AffineMapping,
    IdentityMappingFamily,
    LinearMappingFamily,
    Mapping as MappingFunction,
    MappingFamily,
    MonotoneMappingFamily,
    PiecewiseLinearMapping,
    ScaleMappingFamily,
    ShiftMappingFamily,
    _NegatedPiecewise,
)
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank
from repro.errors import (
    PersistError,
    SnapshotCompatibilityError,
    SnapshotCorruptionError,
)

SNAPSHOT_MAGIC = "jigsaw-store-snapshot"

#: Format version written by this build.  Loaders accept any version up to
#: this one (older formats must stay loadable or be explicitly migrated);
#: newer versions are refused — see the ROADMAP's version-bump procedure.
#:
#: Version history:
#:
#: 1. initial format (PR 5).
#: 2. lifecycle (PR 8): per-basis ``hits`` reuse counters in each basis
#:    entry; block matrices are written tombstone-free (the columnar
#:    mirror is compacted at save time).  Version-1 snapshots still load
#:    — their bases restore with ``hits = 0``.
#: 3. arrays: the basis table, the block ids and the index
#:    buckets move out of the manifest into int64 / float64 arrays (see
#:    the module docstring), and the manifest is written compact.
#: 4. derived index: no index state is written; a load rebuilds the
#:    index from the stored fingerprints.  Versions 1-3 still load, their
#:    index entries and ``index.*`` files unread (fixtures under
#:    ``tests/unit/data/``).
SNAPSHOT_VERSION = 4

CHECKPOINT_MAGIC = "jigsaw-sweep-checkpoint"

#: Checkpoint format version; bumped under the same procedure as
#: :data:`SNAPSHOT_VERSION` (see the ROADMAP) — older checkpoints must
#: stay loadable or be explicitly migrated, newer ones are refused.
CHECKPOINT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Mapping-family class name -> factory, for rebuilding a snapshot's family
#: when the caller does not hand in a ``like`` store.  User-defined
#: families round-trip by passing ``like`` (the instance is reused after a
#: name check).
FAMILY_CLASSES = {
    cls.__name__: cls
    for cls in (
        LinearMappingFamily,
        IdentityMappingFamily,
        ShiftMappingFamily,
        ScaleMappingFamily,
        MonotoneMappingFamily,
    )
}


# ---------------------------------------------------------------------------
# Value codecs: floats, fingerprints, mappings, metric sets
#
# JSON with floats as hex strings, so a serialize -> deserialize round
# trip is bitwise (including nan/inf) — pinned by
# tests/property/test_prop_persist_roundtrip.py.  The wire protocol
# (``repro.api.messages``) speaks them; snapshots use them for the
# manifest's few floats and to read versions 1 and 2.


def encode_float(value: float) -> str:
    """Bitwise-exact JSON encoding of one float."""
    return float(value).hex()


def decode_float(text: str) -> float:
    return float.fromhex(text)


def encode_fingerprint(fingerprint: Fingerprint) -> dict:
    return {"values": [encode_float(v) for v in fingerprint.values]}


def decode_fingerprint(obj: dict) -> Fingerprint:
    return Fingerprint(tuple(decode_float(v) for v in obj["values"]))


def encode_mapping(mapping: MappingFunction) -> dict:
    """Serialize a mapping function (every built-in kind)."""
    if isinstance(mapping, AffineMapping):
        return {
            "kind": "affine",
            "alpha": encode_float(mapping.alpha),
            "beta": encode_float(mapping.beta),
        }
    if isinstance(mapping, PiecewiseLinearMapping):
        return {
            "kind": "piecewise",
            "knots_x": [encode_float(v) for v in mapping.knots_x],
            "knots_y": [encode_float(v) for v in mapping.knots_y],
        }
    if isinstance(mapping, _NegatedPiecewise):
        return {"kind": "negated", "inner": encode_mapping(mapping.inner)}
    raise PersistError(
        f"cannot serialize mapping of type {type(mapping).__name__}"
    )


def decode_mapping(obj: dict) -> MappingFunction:
    kind = obj.get("kind")
    if kind == "affine":
        return AffineMapping(
            decode_float(obj["alpha"]), decode_float(obj["beta"])
        )
    if kind == "piecewise":
        return PiecewiseLinearMapping(
            tuple(decode_float(v) for v in obj["knots_x"]),
            tuple(decode_float(v) for v in obj["knots_y"]),
        )
    if kind == "negated":
        inner = decode_mapping(obj["inner"])
        if not isinstance(inner, PiecewiseLinearMapping):
            raise SnapshotCorruptionError(
                "negated mapping wraps a non-piecewise inner mapping"
            )
        return _NegatedPiecewise(inner)
    raise SnapshotCorruptionError(f"unknown mapping kind {kind!r}")


def encode_metrics(metrics: MetricSet) -> dict:
    body = {
        "count": int(metrics.count),
        "expectation": encode_float(metrics.expectation),
        "stddev": encode_float(metrics.stddev),
        "minimum": encode_float(metrics.minimum),
        "maximum": encode_float(metrics.maximum),
        "quantiles": [
            [encode_float(p), encode_float(v)] for p, v in metrics.quantiles
        ],
    }
    if metrics.histogram is not None:
        body["histogram"] = {
            "counts": [int(c) for c in metrics.histogram.counts],
            "edges": [encode_float(e) for e in metrics.histogram.edges],
        }
    return body


def decode_metrics(obj: dict) -> MetricSet:
    histogram = None
    if "histogram" in obj:
        histogram = Histogram(
            tuple(int(c) for c in obj["histogram"]["counts"]),
            tuple(decode_float(e) for e in obj["histogram"]["edges"]),
        )
    return MetricSet(
        count=int(obj["count"]),
        expectation=decode_float(obj["expectation"]),
        stddev=decode_float(obj["stddev"]),
        minimum=decode_float(obj["minimum"]),
        maximum=decode_float(obj["maximum"]),
        quantiles=tuple(
            (decode_float(p), decode_float(v)) for p, v in obj["quantiles"]
        ),
        histogram=histogram,
    )


# ---------------------------------------------------------------------------
# Store <-> manifest entry


def store_config(store: BasisStore) -> dict:
    """The compatibility-relevant identity of a store's configuration.

    This is what a load validates an expectation against: same mapping
    family, same *effective* index strategy (``BasisStore`` may have
    downgraded ``normalization`` to ``array`` for families without a
    normal form — the effective strategy is what the snapshot's candidate
    lists were built under), same match tolerances (bitwise), and the
    same estimator configuration (quantile probabilities, histogram bins
    — a mismatched estimator would silently change every refreshed
    metric).
    """
    return {
        "mapping_family": store.mapping_family.name(),
        "index_strategy": type(store.index).strategy,
        "rel_tol": encode_float(store.rel_tol),
        "abs_tol": encode_float(store.abs_tol),
        "estimator": {
            "quantile_probabilities": [
                encode_float(p)
                for p in store.estimator.quantile_probabilities
            ],
            "histogram_bins": int(store.estimator.histogram_bins),
        },
    }


def _basis_table(bases: Sequence[BasisDistribution]) -> Dict[str, np.ndarray]:
    """The basis table's columns, one row per basis in the order given
    (the module docstring names them)."""
    metrics = [basis.metrics for basis in bases]
    histograms = [m.histogram for m in metrics if m.histogram is not None]
    return {
        "basis_ids": np.array([b.basis_id for b in bases], dtype=np.int64),
        "hits": np.array([b.hits for b in bases], dtype=np.int64),
        "sample_counts": np.array(
            [b.samples.size for b in bases], dtype=np.int64
        ),
        "count": np.array([m.count for m in metrics], dtype=np.int64),
        "moments": np.array(
            [(m.expectation, m.stddev, m.minimum, m.maximum) for m in metrics],
            dtype=np.float64,
        ).reshape(-1, 4),
        "quantile_counts": np.array(
            [len(m.quantiles) for m in metrics], dtype=np.int64
        ),
        "quantiles": np.array(
            [pair for m in metrics for pair in m.quantiles], dtype=np.float64
        ).reshape(-1, 2),
        "bin_counts": np.array(
            [
                -1 if m.histogram is None else len(m.histogram.counts)
                for m in metrics
            ],
            dtype=np.int64,
        ),
        "histogram_counts": np.array(
            [c for h in histograms for c in h.counts], dtype=np.int64
        ),
        "histogram_edges": np.array(
            [e for h in histograms for e in h.edges], dtype=np.float64
        ),
    }


def _dump_store(name: str, store: BasisStore, arrays: dict) -> dict:
    """One store's manifest entry; arrays land in ``arrays`` for writing.

    Snapshots are compacted by construction (since format version 2): any
    tombstoned columnar rows are dropped before the matrices are
    serialized.  Compaction preserves every observable answer, so saving
    remains semantically read-only even though it may renumber rows.
    """
    store.columnar.compact()
    blocks = {}
    for size, block in sorted(store.columnar._blocks.items()):
        if block.count == 0:
            continue
        prefix = f"{name}.block{size}"
        arrays[f"{prefix}.matrix"] = block.matrix[: block.count]
        arrays[f"{prefix}.ids"] = np.array(block.ids, dtype=np.int64)
        entry = {
            "count": int(block.count),
            "ids": f"{prefix}.ids",
            "matrix": f"{prefix}.matrix",
        }
        if block._sid_matrix is not None and block._sid_filled == block.count:
            arrays[f"{prefix}.sid"] = block._sid_matrix[: block.count]
            entry["sid"] = f"{prefix}.sid"
        blocks[str(size)] = entry

    bases = [store._bases[basis_id] for basis_id in sorted(store._bases)]
    arrays[f"{name}.samples"] = (
        np.concatenate([np.asarray(b.samples, dtype=np.float64) for b in bases])
        if bases
        else np.empty(0, dtype=np.float64)
    )
    table = {}
    for key, column in _basis_table(bases).items():
        table[key] = f"{name}.{key}"
        arrays[table[key]] = column
    return {
        "config": store_config(store),
        "next_id": int(store._next_id),
        "stats": store.stats.as_dict(),
        "blocks": blocks,
        "bases": len(bases),
        "table": table,
        "samples": f"{name}.samples",
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotCorruptionError(message)


def _column(array: np.ndarray, dtype, shape: tuple, what: str) -> list:
    """``array`` as Python values, refused unless of ``dtype`` and
    ``shape``."""
    _require(
        array.dtype == dtype and array.shape == shape,
        f"{what} is {array.dtype}{list(array.shape)}, expected "
        f"{np.dtype(dtype)}{list(shape)}",
    )
    return array.tolist()


def _basis_rows(
    entry: dict, load_array, version: int, sample_total: int
) -> List[tuple]:
    """``(basis_id, hits, start, stop, metrics)`` per stored basis, read
    from the v3 table arrays or the v1/v2 JSON list."""
    if version < 3:
        rows = []
        for basis_entry in entry["bases"]:
            basis_id = int(basis_entry["id"])
            start, count = (int(v) for v in basis_entry["samples"])
            _require(
                0 <= start and 0 <= count and start + count <= sample_total,
                f"basis {basis_id} sample slice escapes the sample vector",
            )
            rows.append((
                basis_id,
                # Version-1 snapshots predate reuse counters: restore cold.
                int(basis_entry["hits"]) if version >= 2 else 0,
                start,
                start + count,
                decode_metrics(basis_entry["metrics"]),
            ))
        return rows

    n = entry["bases"]
    _require(isinstance(n, int) and n >= 0, f"basis count {n!r} is invalid")
    names = entry["table"]

    def column(name, dtype, shape):
        return _column(
            load_array(names[name]), dtype, shape, f"basis column {name!r}"
        )

    ids = column("basis_ids", np.int64, (n,))
    hits = column("hits", np.int64, (n,))
    sample_counts = column("sample_counts", np.int64, (n,))
    counts = column("count", np.int64, (n,))
    moments = column("moments", np.float64, (n, 4))
    quantile_counts = column("quantile_counts", np.int64, (n,))
    bin_counts = column("bin_counts", np.int64, (n,))
    _require(
        min(hits + sample_counts + counts + quantile_counts, default=0) >= 0
        and min(bin_counts, default=0) >= -1,
        "the basis table holds a negative count",
    )
    _require(
        sum(sample_counts) == sample_total,
        "sample counts disagree with the sample vector",
    )
    quantiles = column("quantiles", np.float64, (sum(quantile_counts), 2))
    drawn = [bins for bins in bin_counts if bins >= 0]
    histogram_counts = column("histogram_counts", np.int64, (sum(drawn),))
    histogram_edges = column(
        "histogram_edges", np.float64, (sum(drawn) + len(drawn),)
    )

    rows = []
    start = quantile_at = count_at = edge_at = 0
    for basis_id, basis_hits, size, count, moment, quantile_count, bins in zip(
        ids, hits, sample_counts, counts, moments, quantile_counts, bin_counts
    ):
        histogram = None
        if bins >= 0:
            histogram = Histogram(
                tuple(histogram_counts[count_at : count_at + bins]),
                tuple(histogram_edges[edge_at : edge_at + bins + 1]),
            )
            count_at += bins
            edge_at += bins + 1
        expectation, stddev, minimum, maximum = moment
        metrics = MetricSet(
            count=count,
            expectation=expectation,
            stddev=stddev,
            minimum=minimum,
            maximum=maximum,
            quantiles=tuple(
                map(tuple, quantiles[quantile_at : quantile_at + quantile_count])
            ),
            histogram=histogram,
        )
        quantile_at += quantile_count
        rows.append((basis_id, basis_hits, start, start + size, metrics))
        start += size
    return rows


def _restore_store(
    entry: dict,
    load_array,
    mapping_family: MappingFamily,
    estimator: Optional[Estimator],
    version: int = SNAPSHOT_VERSION,
) -> BasisStore:
    """Rebuild one store from its manifest entry (arrays via ``load_array``).

    ``version`` is the snapshot body's format version.  Versions differ in
    two places only: where the block ids and the basis table live (JSON
    up to version 2, array files from version 3); the version-1 table has
    no reuse counters and restores ``hits = 0``.  The index is rebuilt
    from the stored fingerprints under every version.
    """
    config = entry["config"]
    strategy = config["index_strategy"]
    if strategy not in INDEX_STRATEGIES:
        raise SnapshotCompatibilityError(
            f"snapshot uses unknown index strategy {strategy!r}; it cannot "
            f"be rebuilt by this version"
        )
    store = BasisStore(
        mapping_family=mapping_family,
        index_strategy=strategy,
        estimator=estimator,
        rel_tol=decode_float(config["rel_tol"]),
        abs_tol=decode_float(config["abs_tol"]),
    )
    if type(store.index).strategy != strategy:
        raise SnapshotCompatibilityError(
            f"snapshot indexes {mapping_family.name()} by {strategy!r}, "
            f"which this version does not build for that family"
        )
    next_id = int(entry["next_id"])

    blocks: Dict[int, _SizeBlock] = {}
    fingerprint_of: Dict[int, Fingerprint] = {}
    rows_total = 0
    for size_text, block_entry in entry["blocks"].items():
        size = int(size_text)
        matrix = load_array(block_entry["matrix"])
        count = int(block_entry["count"])
        _require(size >= 1, f"block size {size} is invalid")
        if version >= 3:
            ids = _column(
                load_array(block_entry["ids"]), np.int64, (count,),
                f"block {size}'s ids",
            )
        else:
            ids = [int(i) for i in block_entry["ids"]]
            _require(len(ids) == count, "block id list disagrees with count")
        _require(
            not ids or 0 <= min(ids) and max(ids) < next_id,
            f"block {size} names an id outside [0, {next_id})",
        )
        # One conversion per block, and a plain view (not the memmap
        # subclass) whose rows seed each fingerprint's array cache, so
        # the scalar find path shares pages with the columnar kernels.
        rows = np.asarray(matrix)
        values = _column(rows, np.float64, (count, size), f"block {size}")
        fingerprints = []
        for row_view, row_values, basis_id in zip(rows, values, ids):
            fingerprint = Fingerprint(tuple(row_values))
            fingerprint._cache["array"] = row_view
            fingerprints.append(fingerprint)
            fingerprint_of[basis_id] = fingerprint
        if strategy == "sorted_sid":
            # Keys for the index rebuilt below, off the block's own rows.
            batch_sid_orders(
                fingerprints, stacks={size: (list(range(count)), rows)}
            )
        rows_total += count
        sid_matrix = None
        if "sid" in block_entry:
            sid_matrix = load_array(block_entry["sid"])
            _require(
                sid_matrix.shape == (count, size),
                "SID key matrix shape disagrees with its block",
            )
        # A ``normal_forms`` entry (written by earlier builds) is ignored.
        blocks[size] = _SizeBlock.restore(
            size, matrix, ids, fingerprints, sid_matrix
        )
    _require(
        len(fingerprint_of) == rows_total, "a basis id has two block rows"
    )
    columnar = ColumnarStore()
    columnar.restore_blocks(blocks)
    store.columnar = columnar

    samples_all = np.asarray(load_array(entry["samples"]))
    _require(
        samples_all.ndim == 1 and samples_all.dtype == np.float64,
        "sample vector file is not a 1-d float64 vector",
    )
    basis_rows = _basis_rows(entry, load_array, version, samples_all.size)
    for basis_id, hits, start, stop, metrics in basis_rows:
        fingerprint = fingerprint_of.get(basis_id)
        if fingerprint is None:
            raise SnapshotCorruptionError(
                f"basis {basis_id} has no fingerprint row in any block"
            )
        store._bases[basis_id] = BasisDistribution(
            basis_id=basis_id,
            fingerprint=fingerprint,
            samples=samples_all[start:stop],
            metrics=metrics,
            hits=hits,
        )
    _require(
        len(basis_rows) == len(store._bases) == len(fingerprint_of),
        "block rows and basis entries disagree",
    )
    # The index the saved store held, re-derived: its live bases in id
    # order (a normalization index keys them in bulk at its first read).
    for basis_id in sorted(store._bases):
        store.index.insert(store._bases[basis_id].fingerprint, basis_id)
    store._nbytes = sum(basis.nbytes() for basis in store._bases.values())
    store._next_id = next_id
    store.stats = StoreStats(**{
        key: int(value) for key, value in entry["stats"].items()
    })
    return store


# ---------------------------------------------------------------------------
# Manifest + array files: checksummed write, verified read


def _canonical(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _write_snapshot(path: str, body: dict, arrays: Mapping[str, np.ndarray]):
    """Serialize everything into a temp directory, then rename into place."""
    path = os.path.abspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    scratch = tempfile.mkdtemp(
        prefix=os.path.basename(path) + ".tmp-", dir=parent
    )
    try:
        table = {}
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.save(buffer, np.ascontiguousarray(array))
            raw = buffer.getvalue()
            filename = name + ".npy"
            with open(os.path.join(scratch, filename), "wb") as handle:
                handle.write(raw)
            table[name] = {
                "file": filename,
                "nbytes": len(raw),
                "crc32": zlib.crc32(raw),
            }
        # Serialized once: the CRC covers the very bytes written, and the
        # whole manifest is itself canonical JSON.
        canonical = _canonical(dict(body, arrays=table))
        with open(os.path.join(scratch, MANIFEST_NAME), "wb") as handle:
            handle.write(
                b'{"body":%s,"crc32":%d}\n' % (canonical, zlib.crc32(canonical))
            )
        if os.path.lexists(path):
            # Swap: move the old snapshot aside, the new one in, then drop
            # the old.  A reader never observes a half-written directory,
            # and an in-process failure of the second rename rolls the
            # previous snapshot back into place.  A hard crash (power
            # loss) exactly between the two renames can leave the target
            # briefly absent — the previous snapshot then survives intact
            # under the adjacent ``<name>.old-*/previous`` directory, and
            # no reader ever sees partial state.
            graveyard = tempfile.mkdtemp(
                prefix=os.path.basename(path) + ".old-", dir=parent
            )
            previous = os.path.join(graveyard, "previous")
            os.rename(path, previous)
            try:
                os.rename(scratch, path)
            except BaseException:
                os.rename(previous, path)
                raise
            shutil.rmtree(graveyard)
        else:
            os.rename(scratch, path)
    except BaseException:
        shutil.rmtree(scratch, ignore_errors=True)
        raise


def _read_manifest(
    path: str,
    magic: str = SNAPSHOT_MAGIC,
    max_version: int = SNAPSHOT_VERSION,
    kind: str = "store snapshot",
) -> dict:
    """Parse and checksum-verify a snapshot's manifest; returns the body.

    ``magic``/``max_version``/``kind`` distinguish the snapshot families
    sharing this container format (basis-store snapshots and sweep
    checkpoints); the defaults read store snapshots.
    """
    if not os.path.isdir(path):
        raise PersistError(f"no snapshot directory at {path!r}")
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except OSError as error:
        raise PersistError(
            f"cannot read snapshot manifest {manifest_path!r}: {error}"
        ) from error
    except ValueError as error:
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path!r} is not valid JSON "
            f"({error})"
        ) from error
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("body"), dict)
        and isinstance(manifest.get("crc32"), int)
    ):
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path!r} has an unrecognized shape"
        )
    body = manifest["body"]
    if zlib.crc32(_canonical(body)) != manifest["crc32"]:
        raise SnapshotCorruptionError(
            f"snapshot manifest {manifest_path!r} fails its checksum"
        )
    if body.get("magic") != magic:
        raise SnapshotCorruptionError(
            f"{path!r} is not a jigsaw {kind}"
        )
    version = body.get("version")
    if not isinstance(version, int) or version < 1:
        raise SnapshotCorruptionError(
            f"{kind} at {path!r} carries invalid version {version!r}"
        )
    if version > max_version:
        raise SnapshotCompatibilityError(
            f"{kind} at {path!r} is version {version}, newer than this "
            f"build's {max_version}; upgrade to load it"
        )
    return body


def _array_loader(path: str, body: dict, mmap: bool):
    """Returns ``load(name) -> ndarray`` with size+CRC verification."""
    table = body.get("arrays")
    _require(isinstance(table, dict), "manifest has no array table")

    def load(name: str) -> np.ndarray:
        entry = table.get(name)
        _require(
            isinstance(entry, dict), f"array {name!r} missing from manifest"
        )
        file_path = os.path.join(path, os.path.basename(entry["file"]))
        try:
            with open(file_path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise SnapshotCorruptionError(
                f"array file {file_path!r} unreadable: {error}"
            ) from error
        if len(raw) != entry["nbytes"]:
            raise SnapshotCorruptionError(
                f"array file {file_path!r} is {len(raw)} bytes, manifest "
                f"recorded {entry['nbytes']} (truncated?)"
            )
        if zlib.crc32(raw) != entry["crc32"]:
            raise SnapshotCorruptionError(
                f"array file {file_path!r} fails its checksum"
            )
        try:
            array = np.load(file_path, mmap_mode="r" if mmap else None)
        except ValueError as error:
            raise SnapshotCorruptionError(
                f"array file {file_path!r} is not a valid .npy file: "
                f"{error}"
            ) from error
        if not mmap:
            array = np.asarray(array)
            array.setflags(write=False)
        return array

    return load


# ---------------------------------------------------------------------------
# Public save/load API


def save_stores(
    stores: Mapping[str, BasisStore],
    path: str,
    seed_bank: Optional[SeedBank] = None,
    metadata: Optional[dict] = None,
) -> None:
    """Atomically snapshot a named collection of basis stores.

    ``seed_bank`` records the identity the stores' fingerprints were drawn
    under (default: the shared :data:`~repro.core.seeds.DEFAULT_SEED_BANK`)
    — loads validate against it.  ``metadata`` is an arbitrary JSON-able
    dict stored verbatim (avoid raw floats: JSON would round-trip them,
    but the manifest convention is hex strings).
    """
    if not stores:
        raise PersistError("refusing to save an empty store collection")
    bank = seed_bank or DEFAULT_SEED_BANK
    arrays: Dict[str, np.ndarray] = {}
    body = {
        "magic": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "seed_bank": {"master_seed": int(bank.master_seed)},
        "metadata": metadata or {},
        "stores": {
            str(name): _dump_store(f"store{position}", store, arrays)
            for position, (name, store) in enumerate(sorted(stores.items()))
        },
    }
    _write_snapshot(path, body, arrays)


def save_store(
    store: BasisStore,
    path: str,
    seed_bank: Optional[SeedBank] = None,
    metadata: Optional[dict] = None,
) -> None:
    """:func:`save_stores` for the common single-store case."""
    save_stores({"default": store}, path, seed_bank=seed_bank,
                metadata=metadata)


def _check_compatible(
    label: str, stored: dict, expected: dict
) -> None:
    """Refuse on any identity mismatch between snapshot and expectation."""
    for key, description in (
        ("mapping_family", "mapping family"),
        ("index_strategy", "index strategy"),
        ("rel_tol", "relative match tolerance"),
        ("abs_tol", "absolute match tolerance"),
        ("estimator", "estimator configuration"),
    ):
        if stored.get(key) != expected[key]:
            raise SnapshotCompatibilityError(
                f"snapshot store {label!r} was built with {description} "
                f"{stored.get(key)!r}, caller expects {expected[key]!r}; "
                f"refusing to reuse across configurations"
            )


def load_stores(
    path: str,
    like: Optional[Mapping[str, BasisStore]] = None,
    seed_bank: Optional[SeedBank] = None,
    estimator: Optional[Estimator] = None,
    mmap: bool = True,
) -> Dict[str, BasisStore]:
    """Load a snapshot back into live stores, validating compatibility.

    ``like`` maps store names to configured (typically empty) stores the
    caller would otherwise use cold; the snapshot must cover exactly these
    names, and each loaded store must match its ``like`` store's mapping
    family, effective index strategy, tolerances, and estimator
    configuration — the family and estimator *instances* are then reused,
    which is also how user-defined families round-trip.  Without ``like``
    every recorded store is rebuilt from the registry of built-in
    families.

    ``seed_bank``, when given, must match the bank recorded at save time.
    ``mmap=False`` materializes arrays instead of memory-mapping them
    (loaded arrays stay read-only either way).
    """
    body = _read_manifest(path)
    if seed_bank is not None:
        recorded = body.get("seed_bank", {}).get("master_seed")
        if recorded != seed_bank.master_seed:
            raise SnapshotCompatibilityError(
                f"snapshot at {path!r} was built under seed bank master "
                f"{recorded!r}, caller uses {seed_bank.master_seed:#x}; "
                f"fingerprints are not comparable across seed banks"
            )
    entries = body.get("stores")
    _require(isinstance(entries, dict) and entries, "snapshot has no stores")
    if like is not None:
        missing = sorted(set(like) - set(entries))
        extra = sorted(set(entries) - set(like))
        if missing or extra:
            raise SnapshotCompatibilityError(
                f"snapshot at {path!r} covers stores {sorted(entries)}, "
                f"caller expects {sorted(like)} "
                f"(missing {missing}, unexpected {extra})"
            )
    load_array = _array_loader(path, body, mmap)
    stores: Dict[str, BasisStore] = {}
    for name, entry in entries.items():
        config = entry["config"]
        if like is not None:
            template = like[name]
            _check_compatible(name, config, store_config(template))
            family = template.mapping_family
            store_estimator = estimator or template.estimator
        else:
            family_class = FAMILY_CLASSES.get(config["mapping_family"])
            if family_class is None:
                raise SnapshotCompatibilityError(
                    f"snapshot store {name!r} uses mapping family "
                    f"{config['mapping_family']!r}, which is not a "
                    f"built-in; pass a configured `like` store to load it"
                )
            family = family_class()
            store_estimator = estimator
        try:
            stores[name] = _restore_store(
                entry, load_array, family, store_estimator,
                version=int(body["version"]),
            )
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise SnapshotCorruptionError(
                f"snapshot store {name!r} at {path!r} has a malformed "
                f"manifest entry ({type(error).__name__}: {error})"
            ) from error
    return stores


def load_store(
    path: str,
    like: Optional[BasisStore] = None,
    seed_bank: Optional[SeedBank] = None,
    estimator: Optional[Estimator] = None,
    mmap: bool = True,
    name: str = "default",
) -> BasisStore:
    """:func:`load_stores` for the common single-store case."""
    body_like = None if like is None else {name: like}
    stores = load_stores(
        path, like=body_like, seed_bank=seed_bank, estimator=estimator,
        mmap=mmap,
    )
    if name not in stores:
        raise SnapshotCompatibilityError(
            f"snapshot at {path!r} has no store named {name!r} "
            f"(available: {sorted(stores)})"
        )
    return stores[name]


def snapshot_info(path: str) -> dict:
    """Cheap summary of a snapshot (no arrays touched): version, seed
    bank, metadata, and per-store basis counts / configuration."""
    body = _read_manifest(path)
    return {
        "version": body["version"],
        "seed_bank": dict(body.get("seed_bank", {})),
        "metadata": dict(body.get("metadata", {})),
        "stores": {
            name: {
                # Versions 3-4 record the count; versions 1-2 list entries.
                "bases": (
                    entry["bases"]
                    if isinstance(entry.get("bases"), int)
                    else len(entry.get("bases", ()))
                ),
                **{
                    key: entry["config"][key]
                    for key in ("mapping_family", "index_strategy")
                },
            }
            for name, entry in body.get("stores", {}).items()
        },
    }


# ---------------------------------------------------------------------------
# Sweep checkpoints: resumable completed-shard records


class SweepCheckpoint:
    """Resumable record of a sweep's completed shard outcomes.

    A checkpoint is a snapshot directory in the same container format as
    basis-store snapshots (CRC-guarded manifest + ``.npy`` array files,
    written atomically via temp-dir + rename), holding one record per
    *completed* shard plus the sweep configuration it belongs to.  The
    supervision layer appends a record as each shard's result is accepted;
    every append rewrites the whole directory atomically, so a reader —
    including a restarted run — always sees a complete, checksum-valid
    prefix of the sweep, never a torn write.

    ``config`` is the sweep's identity (engine, shard layout, sampling
    parameters, seed bank, a digest of the parameter space, ...).  A
    resume whose configuration differs refuses with
    :class:`~repro.errors.SnapshotCompatibilityError` — consuming shard
    records across configurations would be silently wrong.  A checkpoint
    that fails its checksums is *discarded* instead (:meth:`load` returns
    no records): shards are deterministic, so recomputing is always
    correct, merely slower — corruption must never block a sweep.
    """

    def __init__(self, path: str, config: dict):
        self.path = os.path.abspath(str(path))
        self.config = json.loads(json.dumps(config))
        self._records: Dict[int, tuple] = {}

    def load(self) -> Dict[int, tuple]:
        """Valid completed-shard records, as ``{index: (meta, arrays)}``.

        Returns an empty mapping when no checkpoint exists yet *or* the
        existing one is corrupt (recompute-all fallback); raises
        :class:`~repro.errors.SnapshotCompatibilityError` when an intact
        checkpoint belongs to a different sweep configuration.  Loaded
        records also re-seed this instance, so subsequent :meth:`record`
        calls preserve them.
        """
        if not os.path.isdir(self.path):
            return {}
        try:
            body = _read_manifest(
                self.path,
                magic=CHECKPOINT_MAGIC,
                max_version=CHECKPOINT_VERSION,
                kind="sweep checkpoint",
            )
        except SnapshotCorruptionError:
            return {}
        if body.get("config") != self.config:
            raise SnapshotCompatibilityError(
                f"sweep checkpoint at {self.path!r} belongs to a different "
                f"sweep configuration; refusing to resume from it (move it "
                f"aside to start fresh)"
            )
        load_array = _array_loader(self.path, body, mmap=False)
        records: Dict[int, tuple] = {}
        try:
            for index_text, entry in body.get("shards", {}).items():
                arrays = {
                    name: np.asarray(load_array(ref))
                    for name, ref in entry["arrays"].items()
                }
                records[int(index_text)] = (dict(entry["meta"]), arrays)
        except (SnapshotCorruptionError, KeyError, TypeError, ValueError):
            return {}
        self._records = dict(records)
        return records

    def record(self, index: int, meta: dict, arrays: Mapping[str, np.ndarray]):
        """Persist shard ``index``'s outcome (atomic full rewrite)."""
        self._records[int(index)] = (
            json.loads(json.dumps(meta)),
            {
                str(name): np.ascontiguousarray(array)
                for name, array in arrays.items()
            },
        )
        self._flush()

    def _flush(self) -> None:
        array_files: Dict[str, np.ndarray] = {}
        shards = {}
        for index in sorted(self._records):
            meta, arrays = self._records[index]
            refs = {}
            for name in sorted(arrays):
                ref = f"shard{index}.{name}"
                array_files[ref] = arrays[name]
                refs[name] = ref
            shards[str(index)] = {"meta": meta, "arrays": refs}
        body = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "config": self.config,
            "shards": shards,
        }
        _write_snapshot(self.path, body, array_files)
        # Fault seam: chaos tests corrupt the freshly written checkpoint
        # here to prove resumes detect the damage and recompute.
        from repro.testing import faults as _faults

        _faults.checkpoint_written(self.path)


# Re-exported for callers that only deal in snapshots.
__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "SweepCheckpoint",
    "FAMILY_CLASSES",
    "encode_float",
    "decode_float",
    "encode_fingerprint",
    "decode_fingerprint",
    "encode_mapping",
    "decode_mapping",
    "encode_metrics",
    "decode_metrics",
    "store_config",
    "save_store",
    "save_stores",
    "load_store",
    "load_stores",
    "snapshot_info",
]
