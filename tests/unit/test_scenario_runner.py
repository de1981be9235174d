"""Unit tests for scenarios and the multi-column batch runner."""

import pickle

import pytest

from repro.blackbox import (
    BlackBoxRegistry,
    CapacityModel,
    DemandModel,
    FunctionBlackBox,
)
from repro.blackbox.rng import DeterministicRng
from repro.core.estimator import Estimator
from repro.core.seeds import SeedBank
from repro.errors import QueryError
from repro.lang.binder import compile_query
from repro.probdb import (
    BinaryOp,
    BlackBoxCall,
    ColumnRef,
    Constant,
    GroupAggregate,
    ParameterRef,
    Project,
    RandomRelation,
    RandomScan,
    Relation,
    Schema,
    SingletonScan,
    TableScan,
    VGColumn,
)
from repro.probdb.expressions import BatchUnsupported
from repro.scenario import (
    Scenario,
    ScenarioRunner,
    SetParameter,
    boolean_column_families,
)


def registry():
    reg = BlackBoxRegistry()
    reg.register(DemandModel(), "DemandModel")
    reg.register(
        CapacityModel(base_capacity=10.0, purchase_volume=10.0),
        "CapacityModel",
    )
    return reg


SOURCE = """
DECLARE PARAMETER @current_week AS RANGE 0 TO 8 STEP BY 2;
DECLARE PARAMETER @purchase1 AS SET (0, 4);
SELECT DemandModel(@current_week, 50) AS demand,
       CapacityModel(@current_week, @purchase1, 50) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
"""


@pytest.fixture
def scenario():
    return compile_query(SOURCE, registry()).scenario


class TestScenario:
    def test_simulate_returns_all_columns(self, scenario):
        row = scenario.simulate(
            {"current_week": 2.0, "purchase1": 0.0}, seed=3
        )
        assert set(row) == {"demand", "capacity", "overload"}

    def test_simulate_deterministic(self, scenario):
        point = {"current_week": 2.0, "purchase1": 0.0}
        assert scenario.simulate(point, 9) == scenario.simulate(point, 9)

    def test_column_simulation_view(self, scenario):
        simulation = scenario.column_simulation("demand")
        point = {"current_week": 4.0, "purchase1": 0.0}
        assert simulation(point, 5) == scenario.simulate(point, 5)["demand"]

    def test_column_simulation_unknown_column(self, scenario):
        with pytest.raises(QueryError):
            scenario.column_simulation("nope")

    def test_parameter_lookup(self, scenario):
        assert scenario.parameter("purchase1").values() == (0.0, 4.0)
        with pytest.raises(QueryError):
            scenario.parameter("nope")

    def test_space_size(self, scenario):
        assert scenario.space.size() == 5 * 2

    def test_simulate_refuses_more_than_one_row(self):
        table = Relation(Schema.of("x"), [(1.0,), (2.0,)])
        plan = Project(TableScan(table), (("y", ColumnRef("x")),))
        scenario = Scenario(plan, (SetParameter("p", (1.0,)),))
        with pytest.raises(QueryError, match="exactly one row"):
            scenario.simulate({"p": 1.0}, 3)

    def test_simulate_refuses_a_non_numeric_column(self):
        # Project types its outputs as floats, so only a scan of a typed
        # table can hand simulate a string.
        table = Relation(Schema.of("team:str"), [("a",)])
        scenario = Scenario(TableScan(table), (SetParameter("p", (1.0,)),))
        with pytest.raises(QueryError, match="not numeric"):
            scenario.simulate({"p": 1.0}, 3)


class TestScenarioRunner:
    def test_runs_whole_space(self, scenario):
        runner = ScenarioRunner(
            scenario, samples_per_point=30, fingerprint_size=10
        )
        result = runner.run()
        assert len(result) == 10
        assert result.stats.points_total == 10

    def test_reuse_requires_every_column_to_match(self, scenario):
        runner = ScenarioRunner(
            scenario,
            samples_per_point=30,
            fingerprint_size=10,
            column_families=boolean_column_families(scenario, ("overload",)),
        )
        result = runner.run()
        # Some reuse must happen, but the boolean column limits it.
        assert 0 < result.stats.points_reused < result.stats.points_total

    def test_metrics_contain_every_column(self, scenario):
        runner = ScenarioRunner(scenario, samples_per_point=25)
        result = runner.run()
        for metrics in result.metrics.values():
            assert set(metrics) == {"demand", "capacity", "overload"}

    def test_naive_mode_matches_fingerprint_mode(self, scenario):
        bank = SeedBank(31)
        fingerprinting = ScenarioRunner(
            scenario,
            samples_per_point=40,
            seed_bank=bank,
            column_families=boolean_column_families(scenario, ("overload",)),
        ).run()
        naive = ScenarioRunner(
            scenario,
            samples_per_point=40,
            seed_bank=bank,
            use_fingerprints=False,
        ).run()
        for key, columns in naive.metrics.items():
            for column, reference in columns.items():
                assert fingerprinting.metrics[key][column].approx_equals(
                    reference, rel_tol=1e-8
                ), (key, column)

    def test_rounds_accounting(self, scenario):
        runner = ScenarioRunner(
            scenario, samples_per_point=30, fingerprint_size=10
        )
        result = runner.run()
        full_points = result.stats.points_total - result.stats.points_reused
        expected = (
            result.stats.points_total * 10 + full_points * (30 - 10)
        )
        assert result.stats.rounds_executed == expected

    def test_rows_feed_selector(self, scenario):
        runner = ScenarioRunner(scenario, samples_per_point=25)
        result = runner.run()
        rows = result.rows()
        assert len(rows) == 10
        params, columns = rows[0]
        assert "current_week" in params
        assert "overload" in columns

    def test_validation(self, scenario):
        with pytest.raises(ValueError):
            ScenarioRunner(scenario, samples_per_point=5, fingerprint_size=10)
        with pytest.raises(ValueError):
            ScenarioRunner(scenario, fingerprint_size=0)

    def test_boolean_family_unknown_column(self, scenario):
        with pytest.raises(ValueError):
            boolean_column_families(scenario, ("nope",))

    def test_store_per_column(self, scenario):
        runner = ScenarioRunner(scenario, samples_per_point=25)
        runner.run()
        assert len(runner.store_for("demand")) >= 1
        assert len(runner.store_for("capacity")) >= 1


def noise_box():
    return FunctionBlackBox(
        lambda p, s: p["base"] + DeterministicRng(s).normal(),
        name="Noise",
        parameter_names=("base",),
    )


def noise_scenario():
    """One batchable column: ``Noise(100.0)`` in a FROM-less SELECT."""
    plan = Project(
        SingletonScan(),
        (("value", BlackBoxCall(noise_box(), ("base",), (Constant(100.0),))),),
    )
    return Scenario(plan, (SetParameter("p", (1.0,)),))


def random_table_scenario():
    """Paper section 2.2's shape: a SUM over a random table, shifted by a
    parameter.  A random scan cannot batch, so every point takes the
    per-world loop."""
    table = RandomRelation(
        Relation(Schema.of("base"), [(10.0,), (20.0,), (30.0,)]),
        [VGColumn("sampled", noise_box(), ("base",), ("base",))],
    )
    total = GroupAggregate(
        RandomScan(table),
        group_by=(),
        aggregates=(("total", "sum", ColumnRef("sampled")),),
    )
    plan = Project(
        total,
        (
            ("total", ColumnRef("total")),
            ("shifted", BinaryOp("+", ColumnRef("total"), ParameterRef("p"))),
        ),
    )
    return Scenario(plan, (SetParameter("p", (0.0, 5.0)),))


class TestPerWorldScenario:
    def test_simulate_refuses_an_empty_answer(self):
        empty = Relation(Schema.of("team:str", "load"), [])
        plan = GroupAggregate(
            TableScan(empty),
            group_by=("team",),
            aggregates=(("total", "sum", ColumnRef("load")),),
        )
        scenario = Scenario(plan, (SetParameter("p", (1.0,)),))
        with pytest.raises(QueryError, match="exactly one row"):
            scenario.simulate({"p": 1.0}, 3)

    def test_simulate_batch_refuses_a_random_scan(self):
        with pytest.raises(BatchUnsupported):
            random_table_scenario().simulate_batch(
                {"p": 0.0}, SeedBank().seed_array(4)
            )

    def test_sample_batch_falls_back_to_the_per_world_loop(self):
        scenario = random_table_scenario()
        simulation = scenario.column_simulation("shifted")
        seeds = SeedBank().seed_array(8)
        assert simulation.sample_batch({"p": 5.0}, seeds).tolist() == [
            simulation({"p": 5.0}, int(seed)) for seed in seeds
        ]


class TestUnreusedRunner:
    """``use_fingerprints=False``: paper Figure 3's dashed box alone — each
    point runs the query in every sampled world and the Estimator reduces
    the per-world answers."""

    def test_noise_column_metrics(self):
        result = ScenarioRunner(
            noise_scenario(), samples_per_point=400, use_fingerprints=False
        ).run()
        (metrics,) = result.metrics.values()
        assert metrics["value"].count == 400
        assert metrics["value"].expectation == pytest.approx(100.0, abs=0.2)

    def test_reruns_are_bit_identical(self):
        def run():
            return ScenarioRunner(
                random_table_scenario(),
                samples_per_point=20,
                use_fingerprints=False,
            ).run()

        assert pickle.dumps(run().metrics) == pickle.dumps(run().metrics)

    def test_per_world_loop_matches_simulate(self):
        scenario = random_table_scenario()
        bank = SeedBank(8)
        result = ScenarioRunner(
            scenario,
            samples_per_point=20,
            seed_bank=bank,
            use_fingerprints=False,
        ).run()
        assert len(result) == 2
        for key, params in result.points.items():
            for column in scenario.output_columns:
                looped = Estimator().estimate(
                    [
                        scenario.simulate(params, seed)[column]
                        for seed in bank.seeds(20)
                    ]
                )
                assert pickle.dumps(result.metrics[key][column]) == (
                    pickle.dumps(looped)
                ), (params, column)

    def test_seed_bank_picks_the_worlds(self):
        def run(bank):
            return ScenarioRunner(
                noise_scenario(),
                samples_per_point=20,
                seed_bank=bank,
                use_fingerprints=False,
            ).run()

        (a,) = run(SeedBank(1)).metrics.values()
        (b,) = run(SeedBank(2)).metrics.values()
        assert a["value"].expectation != b["value"].expectation

    def test_every_round_runs_and_no_basis_is_kept(self):
        runner = ScenarioRunner(
            random_table_scenario(),
            samples_per_point=20,
            use_fingerprints=False,
        )
        stats = runner.run().stats
        assert stats.points_total == 2
        assert stats.points_reused == 0
        assert stats.rounds_executed == 2 * 20
        assert stats.bases_created == 0
        assert runner.basis_count() == 0

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            ScenarioRunner(noise_scenario(), workers=0)
