"""Workload ``store_churn``: a basis store under writes beside reads.

One ``BasisStore`` per index strategy is held at a fixed size while a
seeded script probes it (``match_batch``), grows it (``add``, ``merge``),
bounds it (``evict``, which tombstones and, past the threshold, compacts)
and round-trips it through a snapshot.  A round is a fixed number of
cycles that ends with compact + save + load, so every round does the
same kinds of work and the store carries over into the next one.

The oracle is the dynamic-evaluation contract: after any interleaving
of updates the maintained store answers as one rebuilt from scratch
from only the surviving bases.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

from repro.core import persist
from repro.core.basis import BasisStore, EvictionPolicy
from repro.core.fingerprint import Fingerprint

from pb_common import (
    HostGauge,
    Round,
    SpanLog,
    Tally,
    Workload,
    clock,
    make_scratch_dir,
    remove_scratch_dir,
)

#: Frozen sizes.  Every cycle probes, adds, merges a small shard and
#: evicts back to ``bases``, so cycles cost alike; with 2000 bases and
#: 72 rows retired a cycle the columnar tombstone threshold (dead rows >
#: half of all rows) is crossed once per 50-cycle round, around cycle 28,
#: and the save that ends the round leaves the store compact again.
#: Two heavy cycles in 50 keep ``p95_ms`` among the ordinary ones.
SIZES = {
    "full": dict(
        bases=2000, fingerprint=10, samples=64, probes=512, adds=64,
        cycles=50, shard=8, oracle_probes=64,
        strategies=("normalization", "sorted_sid"),
    ),
    "smoke": dict(
        bases=120, fingerprint=10, samples=16, probes=48, adds=8,
        cycles=12, shard=2, oracle_probes=24,
        strategies=("normalization", "sorted_sid"),
    ),
}

_LIFECYCLE = (
    "basis.add", "basis.evict", "basis.merge", "basis.compact",
    "persist.save", "persist.load",
)


def _fingerprint(row: np.ndarray) -> Fingerprint:
    return Fingerprint(tuple(row.tolist()))


class ChurnWorkload(Workload):
    name = "store_churn"

    def __init__(self, seed: int, scale: str, tally: Tally):
        self.tally = tally
        self.sizes = dict(SIZES[scale])
        self.seed = seed
        self.strategies = self.sizes["strategies"]
        self.policy = EvictionPolicy(max_bases=self.sizes["bases"])
        self.tmp = None
        self.snapshot_bytes = 0
        self.gauge = HostGauge()

    # -- fixtures -----------------------------------------------------------

    def _new_bases(self, rng, count: int) -> List[Tuple[Fingerprint, np.ndarray]]:
        sizes = self.sizes
        rows = rng.uniform(-4.0, 4.0, size=(count, sizes["fingerprint"]))
        samples = rng.normal(size=(count, sizes["samples"]))
        return [(_fingerprint(r), s) for r, s in zip(rows, samples)]

    def _probes(self, rng, store: BasisStore, count: int) -> List[Fingerprint]:
        """Three quarters exact affine images of live bases, one quarter
        images with one entry nudged out of tolerance (they still sort
        like their source, so the SID index hands them to validation)."""
        live = store.bases
        chosen = rng.integers(0, len(live), size=count)
        rows = np.array([live[i].fingerprint.values for i in chosen])
        alpha = rng.uniform(1.25, 3.0, size=(count, 1))
        beta = rng.uniform(-2.0, 2.0, size=(count, 1))
        rows = alpha * rows + beta
        broken = np.arange(count) % 4 == 3
        rows[broken, 3] *= 1.001
        return [_fingerprint(r) for r in rows]

    def setup(self) -> None:
        sizes = self.sizes
        self.tmp = make_scratch_dir("churn")
        self.rngs: Dict[str, np.random.Generator] = {}
        self.stores: Dict[str, BasisStore] = {}
        for position, strategy in enumerate(self.strategies):
            rng = np.random.default_rng([self.seed, 3, position])
            store = BasisStore(index_strategy=strategy)
            for fingerprint, samples in self._new_bases(rng, sizes["bases"]):
                store.add(fingerprint, samples)
            # Warm-up: probe once so the columnar cross-check and the
            # lazy key matrices are out of the way.
            store.match_batch(self._probes(rng, store, sizes["probes"]))
            self.rngs[strategy] = rng
            self.stores[strategy] = store

    def teardown(self) -> None:
        self.stores = {}
        remove_scratch_dir(self.tmp)
        self.tmp = None

    # -- rounds -------------------------------------------------------------

    def timed_round(self, k: int) -> Round:
        return self._round(None)

    def traced_round(self, k: int) -> Round:
        log = SpanLog()
        self.last_log = log
        return self._round(log)

    def _round(self, log) -> Round:
        sizes = self.sizes
        # One latency per cycle: its cost on every strategy's store.
        latencies = [0.0] * sizes["cycles"]
        ops = probes = hits = 0
        tombstone_ratios: List[float] = []
        compactions = lookups = tested = matches = 0
        for position, strategy in enumerate(self.strategies):
            rng = self.rngs[strategy]
            store = self.stores[strategy]
            before = store.stats.as_dict()
            for cycle in range(1, sizes["cycles"] + 1):
                op = position * sizes["cycles"] + cycle
                batch = self._probes(rng, store, sizes["probes"])
                fresh = self._new_bases(rng, sizes["adds"])
                shard = BasisStore(index_strategy=strategy)
                for fingerprint, samples in self._new_bases(
                    rng, sizes["shard"]
                ):
                    shard.add(fingerprint, samples)
                last = cycle == sizes["cycles"]
                self.gauge.sample_if_due()
                marks = [("", clock())]
                if log is not None:
                    # Read-only sibling of match_batch, as in the sweeps.
                    store.index.candidates_batch(batch, backend=store.backend)
                    marks.append(("index.probe", clock()))
                results = store.match_batch(batch)
                marks.append(("basis.match_batch", clock()))
                for fingerprint, samples in fresh:
                    store.add(fingerprint, samples)
                marks.append(("basis.add", clock()))
                merged = len(store.merge(shard))
                marks.append(("basis.merge", clock()))
                dead_before = store.columnar.tombstones
                evicted = store.evict(self.policy)
                marks.append(("basis.evict", clock()))
                if store.columnar.tombstones < dead_before + len(evicted):
                    compactions += 1
                dead = store.columnar.tombstones
                tombstone_ratios.append(dead / (len(store) + dead))
                loaded = None
                if last:
                    compactions += 1 if store.compact() else 0
                    marks.append(("basis.compact", clock()))
                    path = os.path.join(self.tmp, f"{strategy}-snapshot")
                    persist.save_store(store, path)
                    marks.append(("persist.save", clock()))
                    loaded = persist.load_store(path, mmap=True)
                    marks.append(("persist.load", clock()))
                started, ended = marks[0][1], marks[-1][1]
                latencies[cycle - 1] += ended - started
                if log is not None:
                    log.add("churn.cycle", started, ended, op)
                    for (_, t_from), (name, t_to) in zip(marks, marks[1:]):
                        log.add(name, t_from, t_to, op, "churn.cycle")
                cycle_hits = sum(1 for r in results if r is not None)
                hits += cycle_hits
                probes += len(batch)
                ops += len(batch) + len(fresh) + len(evicted) + merged
                if loaded is not None:
                    self.snapshot_bytes = _tree_bytes(path)
                    self.snapshot_bases = len(store)
                    self._check_round_trip(rng, store, loaded)
                    store = self.stores[strategy] = loaded
            # Snapshots carry the counters, so the loaded store's
            # continue where the saved one's stopped.
            after = store.stats.as_dict()
            lookups += after["lookups"] - before["lookups"]
            tested += after["candidates_tested"] - before["candidates_tested"]
            matches += after["matches"] - before["matches"]
        self.tally.ran(ops)
        result = Round(
            ops=ops,
            seconds=sum(latencies),
            latencies=latencies,
            host=self.gauge.take(),
            probes=probes,
            misses=probes - hits,
        )
        if log is not None:
            totals = log.totals()
            result.layers = {
                f"{name}_s": totals.get(name, 0.0)
                for name in ("basis.match_batch", "index.probe") + _LIFECYCLE
            }
            result.layers.update(
                {
                    "index.candidates_per_probe": tested / max(lookups, 1),
                    "index.candidates_per_match": tested / max(matches, 1),
                    "columnar.tombstone_ratio": max(tombstone_ratios),
                    "columnar.compactions": float(compactions),
                    "persist.bytes_per_basis": (
                        self.snapshot_bytes / self.snapshot_bases
                    ),
                }
            )
            result.extra["lifecycle_share"] = (
                sum(totals.get(name, 0.0) for name in _LIFECYCLE)
                / result.seconds
            )
        return result

    # -- oracles ------------------------------------------------------------

    def _check_round_trip(self, rng, store, loaded) -> None:
        """``load(save(s))`` answers as ``s``."""
        sample = self._probes(rng, store, self.sizes["oracle_probes"])
        _compare_answers(
            store.match_batch(sample),
            loaded.match_batch(sample),
            {b.basis_id: b.basis_id for b in store.bases},
            self.tally,
            "snapshot round trip",
        )

    def verify(self) -> None:
        """Every store answers as a rebuild from only its survivors."""
        for strategy, store in self.stores.items():
            check_against_rebuild(
                store,
                self._probes(
                    self.rngs[strategy], store, self.sizes["oracle_probes"]
                ),
                self.tally,
            )


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def _compare_answers(got, want, renumber, tally: Tally, label: str) -> None:
    """``got`` (ids in the maintained store) against ``want`` (ids in
    the reference store, reached through ``renumber``): same hits, same
    basis, bitwise the same mapping."""
    for position, (mine, reference) in enumerate(zip(got, want)):
        if mine is None or reference is None:
            ok = mine is None and reference is None
        else:
            ok = (
                renumber.get(mine.basis.basis_id) == reference.basis.basis_id
                and mine.mapping == reference.mapping
            )
        tally.check(ok, f"store_churn: {label}: probe {position} differs")


def check_against_rebuild(
    store: BasisStore, probes: List[Fingerprint], tally: Tally
) -> None:
    """Probe ``store`` and a from-scratch store holding only its
    surviving bases (inserted in id order, so first-match-wins order is
    the same) and require the same answers."""
    rebuilt = BasisStore(index_strategy=store.index.strategy)
    renumber = {}
    for basis in store.bases:
        adopted = rebuilt.add(
            basis.fingerprint, basis.samples, metrics=basis.metrics
        )
        renumber[basis.basis_id] = adopted.basis_id
    _compare_answers(
        store.match_batch(probes),
        rebuilt.match_batch(probes),
        renumber,
        tally,
        f"{store.index.strategy} survivors-only rebuild",
    )
