"""Batch parameter-space exploration with fingerprint reuse (paper §2.3, §3).

The explorer plays the role of the Parameter Enumerator plus the dashed PDB
box of paper Figure 3.  For each parameter point it runs the first ``m``
Monte Carlo rounds (which double as the fingerprint), probes the basis store,
and either

* reuses a mapped basis — skipping the remaining ``n − m`` rounds — or
* completes the full simulation and registers a new basis.

Treating the *entire* Monte Carlo simulation as the stochastic function F is
the paper's "taken to one extreme" usage and is what the evaluation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.blackbox.base import BlackBox, ParamKey, Params, param_key
from repro.core.adaptive import AdaptiveBudget, grow_samples
from repro.core.basis import BasisStore, MatchResult
from repro.core.estimator import Estimator, MetricSet
from repro.core.fingerprint import Fingerprint
from repro.core.mapping import Mapping
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank

#: A simulation is any deterministic-under-seed scalar function of a
#: parameter point — typically an entire PDB query over black boxes.
Simulation = Callable[[Params, int], float]

#: A batch simulation evaluates one point under many seeds in one call.
BatchSimulation = Callable[[Params, np.ndarray], np.ndarray]

#: A points simulation evaluates a block of points under the same seeds,
#: one row per point; given a list too, it appends each row it draws one
#: point at a time to it (a caller whose draw raised reads how far it got).
PointsSimulation = Callable[..., Sequence[np.ndarray]]

#: Points :meth:`ParameterExplorer.explore` draws (one points-axis draw),
#: and probes it opens, per block probe.  Measured on a cold 8,000-point
#: SynthBasis sweep (400 bases, 60 samples a point), CPU us per point by
#: block size 8 / 16 / 32 / 64 / 128 / 256, median of three runs on a
#: shared two-core x86-64 host: array 49.5 / 35.2 / 31.4 / 32.2 / 32.5 /
#: 30.8, sorted_sid 56.9 / 43.2 / 43.3 / 40.6 / 35.3 / 33.9, normalization
#: (keys batched, nothing speculated) 42.1 / 35.4 / 26.4 / 21.7 / 19.9 /
#: 20.2.  The fixed cost of opening a block is spread thin by 64; past it
#: array is flat and the other two fall by a few us, the shape the
#: per-point draw had too, while the pair arrays (and the share of a block
#: answered after a miss changed the store) grow.
BLOCK_PROBES = 64


def _black_box(simulation) -> Optional[BlackBox]:
    """The box behind ``simulation``: itself, or a bound ``sample``'s box."""
    if isinstance(simulation, BlackBox):
        return simulation
    bound_self = getattr(simulation, "__self__", None)
    if (
        isinstance(bound_self, BlackBox)
        and getattr(simulation, "__name__", "") == "sample"
    ):
        return bound_self
    return None


def make_batch_simulation(simulation) -> BatchSimulation:
    """Adapt any simulation to the batched ``(params, seeds) -> vector`` form.

    Black boxes (or objects exposing ``sample_batch``) use their native
    vectorized path; bound ``BlackBox.sample`` methods are unwrapped to
    their box's batch path; everything else falls back to a scalar loop that
    is bit-identical to calling ``simulation(params, seed)`` per seed.
    """
    box = _black_box(simulation)
    if box is not None:
        return box.sample_batch
    batch = getattr(simulation, "sample_batch", None)
    if batch is not None:
        return batch

    def fallback(params: Params, seeds: np.ndarray) -> np.ndarray:
        return np.array(
            [float(simulation(params, int(seed))) for seed in np.atleast_1d(seeds)],
            dtype=np.float64,
        )

    return fallback


def make_points_simulation(simulation) -> PointsSimulation:
    """Adapt any simulation to the block ``(points, seeds) -> rows`` form.

    Black boxes and bound ``BlackBox.sample`` methods draw through
    :meth:`BlackBox.sample_points` (one matrix per block); everything else
    gets the list of its :func:`make_batch_simulation` rows, one call per
    point with the very ``seeds`` passed in.  Row ``i`` is the batch
    simulation's answer for ``points[i]`` either way, bit for bit.
    """
    box = _black_box(simulation)
    if box is not None:
        return box.sample_points
    batch = make_batch_simulation(simulation)

    def points_rows(points, seeds, rows=None) -> List[np.ndarray]:
        rows = [] if rows is None else rows
        for params in points:
            rows.append(batch(params, seeds))
        return rows

    return points_rows


@dataclass
class ExplorerStats:
    """Machine-independent work accounting for one exploration run."""

    points_total: int = 0
    points_reused: int = 0
    bases_created: int = 0
    fingerprint_samples: int = 0
    full_samples: int = 0

    @property
    def samples_drawn(self) -> int:
        return self.fingerprint_samples + self.full_samples

    def record(self, point: "PointResult") -> None:
        """Account one visited point (duplicates count every visit)."""
        fingerprint_size = point.fingerprint.size
        self.points_total += 1
        self.fingerprint_samples += fingerprint_size
        if point.reused:
            self.points_reused += 1
        else:
            self.bases_created += 1
            self.full_samples += point.samples_drawn - fingerprint_size

    @property
    def reuse_fraction(self) -> float:
        if self.points_total == 0:
            return 0.0
        return self.points_reused / self.points_total


@dataclass(slots=True)
class PointResult:
    """Outcome for one parameter point.

    ``samples_drawn`` is the total draws this point cost (fingerprint
    rounds included); under a fixed budget it is ``fingerprint_size`` for
    reused points and ``samples_per_point`` otherwise, while an
    :class:`~repro.core.adaptive.AdaptiveBudget` lets fully simulated
    points stop anywhere in ``[min_samples, cap]``.
    """

    params: Dict[str, float]
    metrics: MetricSet
    reused: bool
    basis_id: int
    mapping: Optional[Mapping]
    fingerprint: Fingerprint
    samples_drawn: int = 0


@dataclass
class ExplorationResult:
    """All per-point outcomes plus aggregate statistics.

    ``stats`` always carries the canonical (serial-equivalent) accounting,
    so counters are invariant to how the sweep was executed; when the run
    came from :class:`repro.core.parallel.ParallelExplorer`, ``parallel``
    additionally reports the shard-side work (duplicates, resimulations).
    """

    points: Dict[ParamKey, PointResult] = field(default_factory=dict)
    stats: ExplorerStats = field(default_factory=ExplorerStats)
    parallel: Optional[object] = None

    def metrics(self, params: Params) -> MetricSet:
        return self.points[param_key(params)].metrics

    def result(self, params: Params) -> PointResult:
        return self.points[param_key(params)]

    def __len__(self) -> int:
        return len(self.points)


class ParameterExplorer:
    """Sweeps a parameter space, reusing Monte Carlo work via fingerprints.

    The one Algorithm 3 loop.  ``basis_store`` is a
    :class:`~repro.core.basis.BasisStore` or anything answering the
    ``block_probe`` (a handle answering ``plan`` and ``match``, and
    ``settle`` where it plans) / ``metrics_for`` / ``add`` that
    :meth:`explore` calls (and the ``get`` a shard reads its samples back
    with, and the ``estimator`` a planned block's misses are estimated
    with): :class:`repro.scenario.runner.ScenarioRunner` sweeps a
    multi-column query through this class with one store per column
    standing in for one store, over a simulation whose draws are rounds x
    columns blocks; its handle has no plan.  Such a store names what it
    probes with (``fingerprint``; a plain store probes with a
    :class:`~repro.core.fingerprint.Fingerprint` of the drawn vector), and
    the loop itself only ever takes a block's ``len`` and concatenates
    along rounds.  A block's fingerprint rounds are one
    :func:`make_points_simulation` draw.  So are a planned block's misses'
    completion rounds, which are then estimated as one matrix
    (:meth:`~repro.core.estimator.Estimator.estimate_rows`) and added in
    plan order before the block is yielded.  A block without a plan —
    and every block under an adaptive budget, or an estimator with a
    histogram — draws one :func:`make_batch_simulation` call per missed
    point.
    """

    def __init__(
        self,
        simulation: Simulation,
        samples_per_point: int = 1000,
        fingerprint_size: int = 10,
        basis_store: Optional[BasisStore] = None,
        index_strategy: str = "normalization",
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        adaptive: Optional[AdaptiveBudget] = None,
    ):
        if fingerprint_size < 1:
            raise ValueError("fingerprint_size must be at least 1")
        if samples_per_point < fingerprint_size:
            raise ValueError(
                "samples_per_point must be >= fingerprint_size (fingerprint "
                "rounds double as the first simulation rounds)"
            )
        self.simulation = simulation
        self.adaptive = adaptive
        self._batch_simulation = make_batch_simulation(simulation)
        self._points_simulation = make_points_simulation(simulation)
        self.samples_per_point = samples_per_point
        self.fingerprint_size = fingerprint_size
        self.estimator = estimator or Estimator()
        # A repro.api.Session stands in for its store wherever a
        # basis_store is accepted (duck-typed: no core -> api import).
        if basis_store is not None and hasattr(
            basis_store, "resolve_basis_store"
        ):
            basis_store = basis_store.resolve_basis_store()
        # `is None`, not `or`: an empty BasisStore has len() == 0 and is
        # falsy, so `or` would silently discard a caller's fresh store
        # (and its mapping family / index strategy) in favor of the
        # default — exactly the stores callers most often pass in.
        if basis_store is None:
            basis_store = BasisStore(
                index_strategy=index_strategy, estimator=self.estimator
            )
        self.store = basis_store
        self._fingerprint = getattr(basis_store, "fingerprint", Fingerprint)
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self._fingerprint_seeds = self.seed_bank.seed_array(
            self.fingerprint_size
        )
        self._completion_seeds = self.seed_bank.seed_array(
            self.samples_per_point - self.fingerprint_size,
            start=self.fingerprint_size,
        )

    def explore(self, space: Iterable[Params]) -> Iterator[PointResult]:
        """One :class:`PointResult` per *visited* point, in ``space`` order.

        The per-visited-point loop behind :meth:`run` and the sharded
        engine.  ``space`` is walked lazily, :data:`BLOCK_PROBES` points
        at a time: a block's fingerprint rounds are drawn first, in one
        :func:`make_points_simulation` call (a black box draws them as one
        points x seeds matrix, :meth:`BlackBox.sample_points`, row ``i``
        bitwise point ``i``'s own draw), and one
        :meth:`BasisStore.block_probe` reads the store for all its probes.
        Algorithm 3 probes once per point because a miss *inserts* a basis
        later points may match; the block's plan
        (:meth:`BlockProbe.plan`) decides every probe as that loop would,
        with each miss added in order.  The planned misses are then
        resolved as a block: their completion rounds drawn in one
        :func:`make_points_simulation` call, estimated as one matrix, added
        in plan order, and the whole block accounted —
        lookups, matches, ``candidates_tested``, per-basis ``hits`` — by
        :meth:`BlockProbe.settle`, all before the block's first point is
        yielded, so a consumer that stops part-way through a block sees
        its later points counted; every in-tree consumer (:meth:`run` and
        the shard worker) drains the generator.  A draw that raises leaves
        the store as the per-point loop would have: the misses before it
        added, every probe up to it accounted.  A block the plan cannot
        decide, and every block under an adaptive budget or a histogram
        estimator, is resolved point by
        point — ``match``, then simulate and ``add`` on a miss — and the
        block probe's prefix rule keeps each answer the one Algorithm 3
        gives, so every decision, mapping bit and counter is the
        per-point sweep's either way.  With an adaptive budget a miss's
        completion rounds grow in geometric blocks until the confidence
        interval is inside tolerance (or the fixed budget is spent); the
        reuse decision is fingerprint-only either way, so the policy never
        changes which points are reused.
        """
        points = iter(space)
        while True:
            block = list(islice(points, BLOCK_PROBES))
            if not block:
                return
            values = self._points_simulation(block, self._fingerprint_seeds)
            if self._fingerprint is Fingerprint and isinstance(
                values, np.ndarray
            ):
                # One conversion for the block: a tuple skips Fingerprint's.
                fingerprints = [
                    Fingerprint(tuple(row))
                    for row in values.astype(float, copy=False).tolist()
                ]
            else:
                fingerprints = [self._fingerprint(drawn) for drawn in values]
            probe = self.store.block_probe(fingerprints)
            # An adaptive budget grows each miss alone, and a histogram may
            # refuse a row: their misses are drawn point by point.
            plain = self.adaptive is None and not (
                self.store.estimator.histogram_bins
            )
            misses = probe.plan() if plain else None
            if misses is None:
                for i, params in enumerate(block):
                    outcome, drawn = probe.match(i)[0], None
                    if outcome is None:
                        samples = self._samples(params, values[i])
                        outcome = self.store.add(fingerprints[i], samples)
                        drawn = len(samples)
                    yield self._point(params, fingerprints[i], outcome, drawn)
                continue
            # The planned misses' completion rounds are one points call
            # (row ``k`` bitwise miss ``k``'s own draw), estimated as one
            # matrix and added in plan order before the block is yielded;
            # a draw that raises leaves the state the per-point loop does.
            drawn = []
            try:
                drawn = self._points_simulation(
                    [block[i] for i in misses], self._completion_seeds, drawn
                )
            finally:
                if len(drawn):
                    heads = [values[i] for i in misses[: len(drawn)]]
                    drawn = np.concatenate(
                        (np.asarray(heads, float), np.asarray(drawn, float)), 1
                    )
                outcomes = probe.settle(drawn)
            width = np.shape(drawn)[-1]
            for params, fingerprint, outcome in zip(
                block, fingerprints, outcomes
            ):
                yield self._point(params, fingerprint, outcome, width)

    def _point(
        self, params: Params, fingerprint: Fingerprint, outcome, drawn=None
    ) -> PointResult:
        """The point an outcome answers: a match's basis, mapped, or the
        basis its full simulation of ``drawn`` rounds added."""
        if isinstance(outcome, MatchResult):
            basis, mapping = outcome
            metrics = self.store.metrics_for(basis, mapping)
            drawn = self.fingerprint_size
        else:
            basis, mapping, metrics = outcome, None, outcome.metrics
        return PointResult(
            dict(params), metrics, mapping is not None, basis.basis_id,
            mapping, fingerprint, drawn,
        )

    def _samples(self, params: Params, fingerprint_values) -> np.ndarray:
        """A missed point's samples: its fingerprint rounds, then its
        completion rounds (grown under an adaptive budget)."""
        head = np.asarray(fingerprint_values, dtype=float)
        if self.adaptive is None:
            return np.concatenate(
                [head, self._batch_simulation(params, self._completion_seeds)]
            )
        return grow_samples(
            head,
            lambda start, count: self._batch_simulation(
                params, self.seed_bank.seed_array(count, start=start)
            ),
            cap=max(
                self.fingerprint_size,
                self.adaptive.cap(self.samples_per_point),
            ),
            policy=self.adaptive,
        )

    def run(self, space: Iterable[Params]) -> ExplorationResult:
        """Explore every point of ``space`` (the Parameter Enumerator loop)."""
        result = ExplorationResult()
        for point in self.explore(space):
            result.points[param_key(point.params)] = point
            result.stats.record(point)
        return result


class NaiveExplorationResult(Dict[ParamKey, MetricSet]):
    """Per-point metrics of a naive sweep plus its work accounting.

    Subclasses ``dict`` so existing ``result[param_key(point)]`` consumers
    keep working; ``stats`` gives benchmarks the same machine-independent
    counters the fingerprinting explorer reports (every round is a full
    sample — ``fingerprint_samples`` stays 0 and nothing is ever reused).
    """

    def __init__(self) -> None:
        super().__init__()
        self.stats = ExplorerStats()


class NaiveExplorer:
    """Baseline: full Monte Carlo at every point, no fingerprinting.

    The paper's "naive generate-everything approach" (section 6.2); shares
    the seed bank so its outputs are sample-for-sample comparable with the
    fingerprinting explorer.
    """

    def __init__(
        self,
        simulation: Simulation,
        samples_per_point: int = 1000,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
    ):
        self.simulation = simulation
        self._batch_simulation = make_batch_simulation(simulation)
        self.samples_per_point = samples_per_point
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()
        self._seeds = self.seed_bank.seed_array(self.samples_per_point)

    def explore_point(self, params: Params) -> MetricSet:
        samples = self._batch_simulation(params, self._seeds)
        return self.estimator.estimate(samples)

    def run(self, space: Iterable[Params]) -> NaiveExplorationResult:
        result = NaiveExplorationResult()
        for params in space:
            result[param_key(params)] = self.explore_point(params)
            result.stats.points_total += 1
            result.stats.full_samples += self.samples_per_point
        return result
