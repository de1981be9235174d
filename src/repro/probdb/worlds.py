"""Random tables: the MCDB representation of an uncertain relation.

An MCDB-style PDB represents an uncertain table by its deterministic
columns plus the black boxes that fill its uncertain (VG) columns.  One
world seed realizes one possible instance of the table; the world seeds
themselves come from the seed bank of whoever runs the query (the
scenario runner, paper Figure 3's Monte Carlo Generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.blackbox.base import BlackBox
from repro.core.seeds import derive_seed
from repro.errors import SchemaError
from repro.probdb.query import WorldContext
from repro.probdb.relation import Relation
from repro.probdb.schema import Schema


@dataclass(frozen=True)
class VGColumn:
    """An uncertain attribute: filled per world by a black-box function.

    ``argument_columns`` name deterministic columns of the same table whose
    values parameterize the box for each row; ``parameter_names`` are the
    box's corresponding parameter names (positional match).
    """

    name: str
    box: BlackBox
    parameter_names: Tuple[str, ...]
    argument_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.parameter_names) != len(self.argument_columns):
            raise SchemaError(
                f"VG column {self.name!r}: parameter/argument arity mismatch"
            )


class RandomRelation:
    """A random table: deterministic base columns plus VG columns.

    ``instantiate(world)`` realizes one possible world of the table — the
    canonical MCDB representation (schema + generating black boxes).
    """

    def __init__(
        self,
        base: Relation,
        vg_columns: Sequence[VGColumn],
        name: str = "random_table",
    ):
        seen = set(base.schema.names)
        for vg in vg_columns:
            if vg.name in seen:
                raise SchemaError(
                    f"VG column {vg.name!r} collides with an existing column"
                )
            seen.add(vg.name)
            for argument in vg.argument_columns:
                if argument not in base.schema:
                    raise SchemaError(
                        f"VG column {vg.name!r} references unknown column "
                        f"{argument!r}"
                    )
        self.base = base
        self.vg_columns = tuple(vg_columns)
        self.name = name
        self._schema = base.schema.concat(
            Schema.of(*(vg.name for vg in self.vg_columns))
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    def instantiate(self, world: WorldContext) -> Relation:
        """Realize this table in one possible world."""
        rows: List[Tuple[object, ...]] = []
        for row_index, row in enumerate(self.base):
            realized = list(row)
            visible = self.base.row_dict(row)
            for vg_index, vg in enumerate(self.vg_columns):
                params = {
                    parameter: float(visible[argument])  # type: ignore[arg-type]
                    for parameter, argument in zip(
                        vg.parameter_names, vg.argument_columns
                    )
                }
                # Per-(row, column) seed: rows draw independent randomness
                # but remain reproducible within the world.
                seed = derive_seed(world.world_seed, row_index, vg_index)
                value = vg.box.sample(params, seed)
                visible[vg.name] = value
                realized.append(value)
            rows.append(tuple(realized))
        return Relation(self._schema, rows)
