"""Scan operators for named tables, deterministic or random.

Separated from :mod:`repro.probdb.query` because the random variant depends
on :mod:`repro.probdb.worlds`, whose random tables realize themselves in a
:class:`~repro.probdb.query.WorldContext`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.probdb.query import Operator, WorldContext
from repro.probdb.relation import Relation
from repro.probdb.schema import Schema
from repro.probdb.worlds import RandomRelation


@dataclass
class RandomScan(Operator):
    """Scan a random table: instantiate one possible world per execution.

    This is the canonical MCDB table access path — the table is represented
    by its schema plus generating black boxes, and each world seed realizes
    a concrete relation (paper section 2.3).
    """

    table: RandomRelation

    def schema(self) -> Schema:
        return self.table.schema

    def execute(self, world: WorldContext) -> Relation:
        return self.table.instantiate(world)
