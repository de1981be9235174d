"""A scenario sweep pinned to absolute values, frozen at PR 23's tree.

Every other :class:`~repro.scenario.ScenarioRunner` test compares one
execution mode with another (serial with sharded, adaptive with fixed), so
a change that moved both sides would pass.  This one compares with
``data/scenario_sweep_reference.json``, which was written by the parent of
the PR that put the runner on the shared sweep engine — before any edit
under ``src/`` — and holds, per mode: a digest of every point's every
column's ``MetricSet`` (through :func:`repro.core.persist.encode_metrics`,
so every float bit counts), ``RunnerStats``, each column store's
``StoreStats`` and per-basis ``hits``, and ``ParallelStats`` per worker
count.  The query has more points than one ``explorer.BLOCK_PROBES`` block
(93), misses inside both blocks (points 0, 1, 2, 15, 76, 78) and an
identity-family boolean column; the per-column ``lookups`` 93 / 91 / 89
are the joint reuse decision stopping at the first unmappable column.

The file is regenerated (only for an *intentional* change to what a sweep
computes, with the diff explained) by::

    PYTHONPATH=src:tests/unit python - <<'EOF'
    import json, test_scenario_reference as t
    frozen = {}
    for mode in t.MODES:
        for workers in t.WORKERS:
            seen = t.observe(mode, workers)
            entry = frozen.setdefault(mode, {"parallel": {}})
            entry["parallel"][str(workers)] = seen.pop("parallel")
            assert all(entry.setdefault(k, v) == v for k, v in seen.items())
    with open(t.REFERENCE, "w") as out:
        json.dump(frozen, out, indent=1, sort_keys=True)
        out.write("\\n")
    EOF
"""

import hashlib
import json
import os

import pytest

from repro.blackbox import BlackBoxRegistry, CapacityModel, DemandModel
from repro.core.adaptive import AdaptiveBudget
from repro.core.persist import encode_metrics
from repro.lang.binder import compile_query
from repro.scenario import ScenarioRunner, boolean_column_families

REFERENCE = os.path.join(
    os.path.dirname(__file__), "data", "scenario_sweep_reference.json"
)

QUERY = """
DECLARE PARAMETER @purchase1 AS SET (0, 10, 20);
DECLARE PARAMETER @current_week AS RANGE 0 TO 30 STEP BY 1;
SELECT DemandModel(@current_week, 14) AS demand,
       CapacityModel(@current_week, @purchase1, 14) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
"""

MODES = {
    "fixed": {},
    "adaptive": {"adaptive": AdaptiveBudget(rtol=0.05)},
    "naive": {"use_fingerprints": False},
    "sorted_sid": {"index_strategy": "sorted_sid"},
    "array": {"index_strategy": "array"},
}

WORKERS = (1, 2, 4)


def _digest(metrics) -> str:
    text = json.dumps(encode_metrics(metrics), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shard_rounds(stats) -> int:
    # Shard counters are the engine's ExplorerStats; the tree that froze
    # the reference kept its own RunnerStats there.
    if hasattr(stats, "rounds_executed"):
        return stats.rounds_executed
    return stats.samples_drawn


def observe(mode: str, workers: int) -> dict:
    """Everything the reference pins, for one mode at one worker count."""
    registry = BlackBoxRegistry()
    registry.register(DemandModel(), "DemandModel")
    registry.register(
        CapacityModel(
            base_capacity=16.0, purchase_volume=12.0, structure_size=1.5
        ),
        "CapacityModel",
    )
    scenario = compile_query(QUERY, registry).scenario
    runner = ScenarioRunner(
        scenario,
        samples_per_point=120,
        fingerprint_size=10,
        column_families=boolean_column_families(scenario, ("overload",)),
        workers=workers,
        **MODES[mode],
    )
    result = runner.run()
    stats = result.stats
    seen = {
        "metrics": {
            json.dumps(list(key)): {
                column: _digest(metrics) for column, metrics in columns.items()
            }
            for key, columns in result.metrics.items()
        },
        "stats": {
            "points_total": stats.points_total,
            "points_reused": stats.points_reused,
            "rounds_executed": stats.rounds_executed,
            "bases_created": stats.bases_created,
        },
        "stores": {
            column: {
                "stats": runner.store_for(column).stats.as_dict(),
                "hits": [
                    basis.hits for basis in runner.store_for(column).bases
                ],
            }
            for column in scenario.output_columns
        },
        "parallel": None,
    }
    parallel = result.parallel
    if parallel is not None:
        seen["parallel"] = {
            "workers": parallel.workers,
            "shard_sizes": list(parallel.shard_sizes),
            "shard_samples_drawn": parallel.shard_samples_drawn,
            "bases_collapsed": parallel.bases_collapsed,
            "points_resimulated": parallel.points_resimulated,
            "shards_resumed": parallel.shards_resumed,
            "shard_stats": [
                [shard.points_total, shard.points_reused, _shard_rounds(shard)]
                for shard in parallel.shard_stats
            ],
        }
    return seen


@pytest.fixture(scope="module")
def frozen():
    with open(REFERENCE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_sweep_equals_frozen_reference(frozen, mode, workers):
    seen = observe(mode, workers)
    expected = dict(frozen[mode])
    expected["parallel"] = expected["parallel"][str(workers)]
    for part in ("stats", "stores", "parallel", "metrics"):
        assert seen[part] == expected[part], part
