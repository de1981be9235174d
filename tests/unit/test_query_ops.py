"""Unit tests for probdb logical query operators."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.probdb.expressions import (
    BatchUnsupported,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Constant,
    ParameterRef,
)
from repro.probdb.query import (
    GroupAggregate,
    Project,
    SingletonScan,
    TableScan,
    WorldContext,
)
from repro.probdb.relation import Relation
from repro.probdb.schema import Schema

WORLD = WorldContext(params={"week": 3.0}, world_seed=17)

PEOPLE = Relation(
    Schema.of("person_id:int", "team:str", "load"),
    [(1, "a", 10.0), (2, "a", 20.0), (3, "b", 30.0), (4, "b", 40.0)],
)


class TestScans:
    def test_table_scan(self):
        plan = TableScan(PEOPLE)
        assert plan.schema().names == ("person_id", "team", "load")
        assert len(plan.execute(WORLD)) == 4

    def test_singleton_scan(self):
        plan = SingletonScan()
        result = plan.execute(WORLD)
        assert len(result) == 1
        assert result.rows == ((),)


class TestProject:
    def test_computes_expressions(self):
        plan = Project(
            TableScan(PEOPLE),
            (("double_load", BinaryOp("*", ColumnRef("load"), Constant(2.0))),),
        )
        assert plan.execute(WORLD).column_values("double_load") == [
            20.0,
            40.0,
            60.0,
            80.0,
        ]

    def test_later_items_see_earlier_aliases(self):
        """Paper Figure 1: overload reads the capacity/demand aliases."""
        plan = Project(
            SingletonScan(),
            (
                ("demand", Constant(5.0)),
                ("capacity", Constant(3.0)),
                (
                    "overload",
                    CaseWhen(
                        BinaryOp("<", ColumnRef("capacity"), ColumnRef("demand")),
                        Constant(1.0),
                        Constant(0.0),
                    ),
                ),
            ),
        )
        result = plan.execute(WORLD)
        assert result.column_values("overload") == [1.0]

    def test_parameters_visible(self):
        plan = Project(SingletonScan(), (("w", ParameterRef("week")),))
        assert plan.execute(WORLD).column_values("w") == [3.0]

    def test_schema(self):
        plan = Project(SingletonScan(), (("a", Constant(1.0)),))
        assert plan.schema().names == ("a",)


SEEDS = np.arange(3, dtype=np.uint64)


class TestProjectBatch:
    def test_singleton_batch_matches_execute(self):
        plan = Project(
            SingletonScan(),
            (
                ("w", ParameterRef("week")),
                ("twice", BinaryOp("*", ColumnRef("w"), Constant(2.0))),
            ),
        )
        columns = plan.execute_batch(WORLD.params, SEEDS)
        row = plan.execute(WORLD).to_dicts()[0]
        assert {name: float(value) for name, value in columns.items()} == row

    def test_one_row_table_columns_are_visible(self):
        table = Relation(Schema.of("load"), [(7.0,)])
        plan = Project(
            TableScan(table),
            (("more", BinaryOp("+", ColumnRef("load"), Constant(1.0))),),
        )
        assert float(plan.execute_batch({}, SEEDS)["more"]) == 8.0

    def test_multi_row_table_refused(self):
        plan = Project(TableScan(PEOPLE), (("load", ColumnRef("load")),))
        with pytest.raises(BatchUnsupported):
            plan.execute_batch(WORLD.params, SEEDS)


class TestGroupAggregate:
    def test_grouped_sum_avg(self):
        plan = GroupAggregate(
            TableScan(PEOPLE),
            group_by=("team",),
            aggregates=(
                ("total", "sum", ColumnRef("load")),
                ("average", "avg", ColumnRef("load")),
            ),
        )
        result = plan.execute(WORLD)
        as_dicts = {d["team"]: d for d in result.to_dicts()}
        assert as_dicts["a"]["total"] == 30.0
        assert as_dicts["b"]["average"] == 35.0

    def test_global_group(self):
        plan = GroupAggregate(
            TableScan(PEOPLE),
            group_by=(),
            aggregates=(("n", "count", ColumnRef("load")),),
        )
        assert plan.execute(WORLD).column_values("n") == [4.0]

    def test_min_max(self):
        plan = GroupAggregate(
            TableScan(PEOPLE),
            group_by=(),
            aggregates=(
                ("lo", "min", ColumnRef("load")),
                ("hi", "max", ColumnRef("load")),
            ),
        )
        row = plan.execute(WORLD).to_dicts()[0]
        assert (row["lo"], row["hi"]) == (10.0, 40.0)

    def test_unknown_aggregate_rejected(self):
        plan = GroupAggregate(
            TableScan(PEOPLE),
            group_by=(),
            aggregates=(("bad", "mode", ColumnRef("load")),),
        )
        with pytest.raises(QueryError):
            plan.execute(WORLD)

    def test_schema(self):
        plan = GroupAggregate(
            TableScan(PEOPLE),
            group_by=("team",),
            aggregates=(("total", "sum", ColumnRef("load")),),
        )
        assert plan.schema().names == ("team", "total")

    def test_group_column_keeps_its_type(self):
        plan = GroupAggregate(
            TableScan(PEOPLE),
            group_by=("team",),
            aggregates=(("total", "sum", ColumnRef("load")),),
        )
        assert [c.type for c in plan.schema().columns] == ["str", "float"]

    def test_batch_engine_refused(self):
        plan = GroupAggregate(
            TableScan(PEOPLE),
            group_by=(),
            aggregates=(("total", "sum", ColumnRef("load")),),
        )
        with pytest.raises(BatchUnsupported):
            plan.execute_batch(WORLD.params, SEEDS)
