"""Workloads ``sweep_reuse`` and ``sweep_simulate``: cold parameter sweeps.

Untraced rounds call ``ParameterExplorer.run`` block by block; traced
rounds replay paper Algorithm 3 through the same public calls the
explorer makes, one span per call, and must reach bitwise the same
decisions.  Inputs (the points swept, the oracle sample) come from the
seed; the program only ever sees the generated points.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.blackbox.draws import DEFAULT_DRAW_CACHE
from repro.blackbox.synth_basis import SynthBasisModel
from repro.blackbox.user_selection import UserSelectionModel
from repro.core.basis import BasisStore
from repro.core.explorer import NaiveExplorer, ParameterExplorer
from repro.core.fingerprint import Fingerprint
from repro.core.mapping import IdentityMappingFamily, LinearMappingFamily
from repro.core.parallel import ParallelExplorer
from repro.core.seeds import DEFAULT_SEED_BANK

from pb_common import (
    HostGauge, Round, SpanLog, Tally, Workload, clock, median,
)

#: Frozen sizes.  ``block`` points go through one ``explorer.run`` call;
#: ``p50_ms``/``p95_ms`` are the latency of a block under every strategy.
SIZES = {
    "sweep_reuse": {
        "full": dict(
            basis_count=400, points=8000, samples=60, fingerprint=10,
            block=50, warm_points=500,
            strategies=("array", "normalization", "sorted_sid"),
        ),
        "smoke": dict(
            basis_count=20, points=300, samples=60, fingerprint=10,
            block=25, warm_points=50,
            strategies=("array", "normalization", "sorted_sid"),
        ),
    },
    "sweep_simulate": {
        "full": dict(
            user_count=500, points=87, weeks=261, samples=1000,
            fingerprint=10, block=1, warm_points=3,
            # The identity family has no normal form, so the default
            # strategy resolves to the full scan: what a caller gets.
            strategies=("normalization",),
        ),
        "smoke": dict(
            user_count=40, points=12, weeks=261, samples=200,
            fingerprint=10, block=1, warm_points=2,
            strategies=("normalization",),
        ),
    },
}

#: Stage spans of one point, in call order.  ``index.probe`` is a
#: read-only sibling of ``basis.match`` (which probes again inside), so
#: it is left out of the sum that must account for the wall clock.
STAGES = (
    "blackbox.fp_draw", "fingerprint.build", "fingerprint.key",
    "basis.match", "estimator.remap", "blackbox.full_draw",
    "estimator.estimate", "basis.add",
)


class SweepWorkload(Workload):
    def __init__(
        self,
        name: str,
        seed: int,
        scale: str,
        tally: Tally,
        store_factory: Optional[Callable[[str], BasisStore]] = None,
    ):
        self.name = name
        self.tally = tally
        self.sizes = dict(SIZES[name][scale])
        self.seed = seed
        self.reuse = name == "sweep_reuse"
        self.strategies = self.sizes["strategies"]
        self._store_factory = store_factory
        self.gauge = HostGauge()
        self.last_run: Dict[str, list] = {}
        self.last_replay: Dict[str, list] = {}
        self.last_log: Optional[SpanLog] = None
        self.strategy_seconds: Dict[str, List[float]] = {}

    # -- fixtures -----------------------------------------------------------

    def _family(self):
        return LinearMappingFamily() if self.reuse else IdentityMappingFamily()

    def _store(self, strategy: str) -> BasisStore:
        if self._store_factory is not None:
            return self._store_factory(strategy)
        return BasisStore(
            mapping_family=self._family(), index_strategy=strategy
        )

    def _explorer(self, strategy: str) -> ParameterExplorer:
        return ParameterExplorer(
            self.model,
            samples_per_point=self.sizes["samples"],
            fingerprint_size=self.sizes["fingerprint"],
            basis_store=self._store(strategy),
        )

    def setup(self) -> None:
        sizes = self.sizes
        # Every set-up starts from an empty draw cache, so repeated
        # set-ups in one process cost what the first one did.
        DEFAULT_DRAW_CACHE.clear()
        rng = np.random.default_rng([self.seed, 1 if self.reuse else 2])
        if self.reuse:
            self.model = SynthBasisModel(basis_count=sizes["basis_count"])
            domain, parameter = sizes["basis_count"] * 50, "point"
        else:
            self.model = UserSelectionModel(user_count=sizes["user_count"])
            domain, parameter = sizes["weeks"], "current_week"
        values = rng.choice(domain, size=sizes["points"], replace=False)
        self.points = [{parameter: float(v)} for v in values]
        block = sizes["block"]
        self.blocks = [
            self.points[i : i + block]
            for i in range(0, len(self.points), block)
        ]
        sample = rng.choice(
            len(self.points),
            size=max(1, len(self.points) // 20),
            replace=False,
        )
        self.oracle_sample = sorted(int(i) for i in sample)
        # Untimed warm-up pass: fills the draw cache and lets every lazy
        # self-test (fastrng replay, columnar cross-check) finish.
        for strategy in self.strategies:
            self._explorer(strategy).run(self.points[: sizes["warm_points"]])

    def teardown(self) -> None:
        self.last_run = {}
        self.last_replay = {}

    # -- rounds -------------------------------------------------------------

    def timed_round(self, k: int) -> Round:
        # One latency per block: the time to evaluate its points under
        # every strategy (each strategy sweeps cold, from its own store).
        latencies = [0.0] * len(self.blocks)
        points = reused = drawn = 0
        # Only one round's results are ever held (for the oracles).
        self.last_run = outcome = {}
        for strategy in self.strategies:
            explorer = self._explorer(strategy)
            results: list = []
            spent = 0.0
            for position, block in enumerate(self.blocks):
                self.gauge.sample_if_due()
                started = clock()
                result = explorer.run(block)
                elapsed = clock() - started
                latencies[position] += elapsed
                spent += elapsed
                points += result.stats.points_total
                reused += result.stats.points_reused
                drawn += result.stats.samples_drawn
                results.extend(result.points.values())
            outcome[strategy] = results
            self.strategy_seconds.setdefault(strategy, []).append(spent)
        self.tally.ran(points)
        return Round(
            ops=points,
            seconds=sum(latencies),
            latencies=latencies,
            host=self.gauge.take(),
            probes=points,
            misses=points - reused,
            extra={"samples_drawn": drawn},
        )

    def traced_round(self, k: int) -> Round:
        log = SpanLog()
        cache_before = DEFAULT_DRAW_CACHE.stats
        outcome: Dict[str, list] = {}
        lookups = tested = matches = drawn = reused = 0
        match_us: Dict[str, float] = {}
        for position, strategy in enumerate(self.strategies):
            store = self._store(strategy)
            spans_before = len(log.spans)
            results = self._replay(
                store, log, first_op=position * len(self.points)
            )
            outcome[strategy] = results
            stats = store.stats
            lookups += stats.lookups
            tested += stats.candidates_tested
            matches += stats.matches
            reused += sum(1 for r in results if r[0])
            drawn += sum(r[3] for r in results)
            in_match = sum(
                end - start
                for name, start, end, _, _ in log.spans[spans_before:]
                if name == "basis.match"
            )
            match_us[strategy] = 1e6 * in_match / len(self.points)
        cache_after = DEFAULT_DRAW_CACHE.stats
        self.last_replay = outcome
        self.last_log = log
        totals = log.totals()
        latencies = [
            end - start
            for name, start, end, _, _ in log.spans
            if name == "explorer.point"
        ]
        wall = sum(latencies)
        points = len(latencies)
        self.tally.ran(points)
        cache_hits = cache_after["hits"] - cache_before["hits"]
        cache_misses = cache_after["misses"] - cache_before["misses"]
        layers = {
            f"{name}_s": totals.get(name, 0.0)
            for name in STAGES + ("index.probe",)
        }
        layers.update(
            {
                "mapping.validate_s": (
                    layers["basis.match_s"] - layers["index.probe_s"]
                ),
                "blackbox.samples_drawn": float(drawn),
                "draws.cache_hit_ratio": (
                    cache_hits / (cache_hits + cache_misses)
                ),
                "draws.floats_cached": float(cache_after["floats_cached"]),
                "index.candidates_per_probe": tested / lookups,
                "index.candidates_per_match": tested / max(matches, 1),
            }
        )
        if self.reuse:
            for strategy, value in match_us.items():
                layers[f"basis.match_us_per_probe.{strategy}"] = value
        stage_sum = sum(totals.get(name, 0.0) for name in STAGES)
        covered = stage_sum + layers["index.probe_s"]
        return Round(
            ops=points,
            seconds=wall,
            latencies=latencies,
            probes=points,
            misses=points - reused,
            layers=layers,
            extra={"stage_s": stage_sum, "span_coverage": covered / wall},
        )

    def _replay(self, store: BasisStore, log: SpanLog, first_op: int) -> list:
        """Algorithm 3 over ``self.points``, through the explorer's own
        public calls, with a clock reading at every layer boundary.

        Returns ``(reused, basis_id, metrics, samples_drawn)`` per point.
        """
        sizes = self.sizes
        sample = self.model.sample_batch
        fp_seeds = DEFAULT_SEED_BANK.seed_array(sizes["fingerprint"])
        rest_seeds = DEFAULT_SEED_BANK.seed_array(
            sizes["samples"] - sizes["fingerprint"],
            start=sizes["fingerprint"],
        )
        strategy = store.index.strategy
        estimate = store.estimator.estimate
        add = log.add
        parent = "explorer.point"
        results = []
        for op, params in enumerate(self.points, start=first_op):
            t0 = clock()
            values = sample(params, fp_seeds)
            t1 = clock()
            fingerprint = Fingerprint(values)
            t2 = clock()
            if strategy == "normalization":
                fingerprint.normal_form()
            elif strategy == "sorted_sid":
                fingerprint.sid_order()
                fingerprint.sid_order(descending=True)
            t3 = clock()
            store.index.candidates(fingerprint)
            t4 = clock()
            matched = store.match(fingerprint)
            t5 = clock()
            if matched is not None:
                metrics = store.metrics_for(matched.basis, matched.mapping)
                end = clock()
                add("estimator.remap", t5, end, op, parent)
                results.append(
                    (True, matched.basis.basis_id, metrics,
                     sizes["fingerprint"])
                )
            else:
                remaining = sample(params, rest_seeds)
                t6 = clock()
                samples = np.concatenate(
                    [np.asarray(values, dtype=float), remaining]
                )
                t7 = clock()
                metrics = estimate(samples)
                t8 = clock()
                basis = store.add(fingerprint, samples, metrics=metrics)
                end = clock()
                add("blackbox.full_draw", t5, t6, op, parent)
                add("estimator.estimate", t7, t8, op, parent)
                add("basis.add", t8, end, op, parent)
                results.append(
                    (False, basis.basis_id, metrics, int(samples.size))
                )
            # Logged after the point's last clock reading, so that
            # book-keeping is charged to no stage.
            add("blackbox.fp_draw", t0, t1, op, parent)
            add("fingerprint.build", t1, t2, op, parent)
            add("fingerprint.key", t2, t3, op, parent)
            add("index.probe", t3, t4, op, parent)
            add("basis.match", t4, t5, op, parent)
            add(parent, t0, end, op)
        return results

    # -- oracles ------------------------------------------------------------

    def verify(self) -> None:
        """A fixed 5 % point sample of the last untraced round agrees
        with full simulation (``NaiveExplorer``): exactly where the point
        was simulated, within 1e-9 relative where it was reused."""
        tally = self.tally
        naive = NaiveExplorer(
            self.model, samples_per_point=self.sizes["samples"]
        )
        for strategy, results in self.last_run.items():
            for index in self.oracle_sample:
                got = results[index]
                want = naive.explore_point(self.points[index]).expectation
                have = got.metrics.expectation
                if got.reused:
                    ok = abs(have - want) <= 1e-9 * max(abs(want), 1.0)
                else:
                    ok = have == want
                tally.check(
                    ok,
                    f"{self.name}/{strategy}: point {self.points[index]} "
                    f"expectation {have!r}, full simulation {want!r}",
                )

    def verify_trace(self) -> None:
        """The step-by-step replay and ``ParameterExplorer.run`` agree
        bitwise on reuse decisions, basis ids and metric sets."""
        tally = self.tally
        self.verify()
        for strategy, results in self.last_run.items():
            replayed = self.last_replay.get(strategy, [])
            tally.check(
                len(replayed) == len(results),
                f"{self.name}/{strategy}: replay covered {len(replayed)} "
                f"of {len(results)} points",
            )
            for got, (reused, basis_id, metrics, _) in zip(results, replayed):
                tally.check(
                    got.reused == reused
                    and got.basis_id == basis_id
                    and got.metrics == metrics,
                    f"{self.name}/{strategy}: replay and run disagree at "
                    f"{got.params}",
                )

    # -- traced-run extras ---------------------------------------------------

    def trace_extras(
        self, timed: List[Round], traced: List[Round]
    ) -> Dict[str, float]:
        tally = self.tally
        wall = median([r.seconds for r in timed])
        stage = median([r.extra["stage_s"] for r in traced])
        per_point = wall / timed[0].ops
        extras = {"explorer.overhead_share": (wall - stage) / wall}

        naive = NaiveExplorer(
            self.model, samples_per_point=self.sizes["samples"]
        )
        sample = [self.points[i] for i in self.oracle_sample]
        started = clock()
        naive.run(sample)
        naive_per_point = (clock() - started) / len(sample)
        extras["explorer.speedup_vs_naive"] = naive_per_point / per_point

        if not self.reuse:
            # The same points under the linear family: every week is an
            # affine image of the first, which is the paper's effect.
            explorer = ParameterExplorer(
                self.model,
                samples_per_point=self.sizes["samples"],
                fingerprint_size=self.sizes["fingerprint"],
                basis_store=BasisStore(mapping_family=LinearMappingFamily()),
            )
            started = clock()
            explorer.run(self.points)
            extras["explorer.linear_vs_identity"] = wall / (clock() - started)
            return extras

        explorer = ParallelExplorer(
            self.model,
            workers=2,
            samples_per_point=self.sizes["samples"],
            fingerprint_size=self.sizes["fingerprint"],
            index_strategy="normalization",
        )
        started = clock()
        result = explorer.run(self.points)
        elapsed = clock() - started
        tally.ran(len(self.points))
        serial = self.last_run["normalization"]
        mismatched = sum(
            1
            for got, point in zip(serial, self.points)
            if result.result(point).metrics != got.metrics
        )
        if mismatched:
            tally.fail(
                f"{self.name}: {mismatched} sharded results differ from "
                f"the serial sweep",
                mismatched,
            )
        extras.update(
            {
                "parallel.run_s": elapsed,
                "parallel.speedup_vs_serial": (
                    median(self.strategy_seconds["normalization"]) / elapsed
                ),
                "parallel.useful_sample_ratio": (
                    result.stats.samples_drawn
                    / max(result.parallel.shard_samples_drawn, 1)
                ),
                "parallel.points_resimulated": float(
                    result.parallel.points_resimulated
                ),
            }
        )
        return extras
