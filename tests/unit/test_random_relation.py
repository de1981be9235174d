"""Unit tests for random tables (MCDB VG columns) realized per world, and
for the scan that reads them."""

import numpy as np
import pytest

from repro.blackbox import FunctionBlackBox
from repro.blackbox.rng import DeterministicRng
from repro.errors import SchemaError
from repro.probdb.expressions import BatchUnsupported, ColumnRef
from repro.probdb.query import GroupAggregate, Project, WorldContext
from repro.probdb.relation import Relation
from repro.probdb.scan import RandomScan
from repro.probdb.schema import Schema
from repro.probdb.worlds import RandomRelation, VGColumn


def noise_box():
    return FunctionBlackBox(
        lambda p, s: p["base"] + DeterministicRng(s).normal(),
        name="Noise",
        parameter_names=("base",),
    )


class TestRandomRelation:
    def base_table(self):
        return Relation(Schema.of("row_id:int", "base"), [(0, 10.0), (1, 20.0)])

    def test_instantiate_appends_vg_columns(self):
        random_relation = RandomRelation(
            self.base_table(),
            [VGColumn("sampled", noise_box(), ("base",), ("base",))],
        )
        world = WorldContext(params={}, world_seed=5)
        realized = random_relation.instantiate(world)
        assert realized.schema.names == ("row_id", "base", "sampled")
        values = realized.column_values("sampled")
        assert values[0] != values[1]

    def test_same_world_same_realization(self):
        random_relation = RandomRelation(
            self.base_table(),
            [VGColumn("sampled", noise_box(), ("base",), ("base",))],
        )
        world = WorldContext(params={}, world_seed=5)
        first = random_relation.instantiate(world)
        second = random_relation.instantiate(world)
        assert first.rows == second.rows

    def test_different_worlds_differ(self):
        random_relation = RandomRelation(
            self.base_table(),
            [VGColumn("sampled", noise_box(), ("base",), ("base",))],
        )
        a = random_relation.instantiate(WorldContext(params={}, world_seed=1))
        b = random_relation.instantiate(WorldContext(params={}, world_seed=2))
        assert a.rows != b.rows

    def test_name_collision_rejected(self):
        with pytest.raises(SchemaError):
            RandomRelation(
                self.base_table(),
                [VGColumn("base", noise_box(), ("base",), ("base",))],
            )

    def test_unknown_argument_column_rejected(self):
        with pytest.raises(SchemaError):
            RandomRelation(
                self.base_table(),
                [VGColumn("sampled", noise_box(), ("base",), ("missing",))],
            )

    def test_vg_column_arity_check(self):
        with pytest.raises(SchemaError):
            VGColumn("v", noise_box(), ("a", "b"), ("base",))


class TestRandomScan:
    """The binder's access path to a random table (paper section 2.3)."""

    def table(self):
        return RandomRelation(
            Relation(Schema.of("row_id:int", "base"), [(0, 10.0), (1, 20.0)]),
            [VGColumn("sampled", noise_box(), ("base",), ("base",))],
        )

    def test_schema_is_the_tables(self):
        table = self.table()
        assert RandomScan(table).schema() == table.schema

    def test_execute_realizes_the_world(self):
        table = self.table()
        world = WorldContext(params={}, world_seed=11)
        assert RandomScan(table).execute(world).rows == (
            table.instantiate(world).rows
        )

    def test_global_sum_reads_the_realized_column(self):
        table = self.table()
        world = WorldContext(params={}, world_seed=11)
        plan = GroupAggregate(
            RandomScan(table),
            group_by=(),
            aggregates=(("total", "sum", ColumnRef("sampled")),),
        )
        realized = table.instantiate(world).column_values("sampled")
        assert plan.execute(world).column_values("total") == [
            float(sum(realized))
        ]

    def test_refuses_the_batch_engine(self):
        with pytest.raises(BatchUnsupported):
            RandomScan(self.table()).execute_batch(
                {}, np.arange(4, dtype=np.uint64)
            )

    def test_project_over_it_refuses_the_batch_engine(self):
        plan = Project(
            RandomScan(self.table()), (("y", ColumnRef("sampled")),)
        )
        with pytest.raises(BatchUnsupported):
            plan.execute_batch({}, np.arange(4, dtype=np.uint64))
