"""Logical query operators executed within one possible world.

A deliberately small relational algebra — table scan, singleton scan,
map/project, global group aggregate — which is what the binder builds for
the paper's scenario queries.  Plans are trees of :class:`Operator`;
``execute`` materializes a :class:`Relation` for a given world context.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.probdb.expressions import (
    BatchEvalContext,
    BatchUnsupported,
    EvalContext,
    Expression,
    _contains_blackbox,
    _iter_blackbox_calls,
    assert_batchable,
)
from repro.probdb.relation import Relation, Row
from repro.probdb.schema import Column, Schema

_AGGREGATES: Dict[str, Callable[[Sequence[float]], float]] = {
    "sum": lambda vs: float(sum(vs)),
    "avg": lambda vs: float(sum(vs) / len(vs)),
    "min": lambda vs: float(min(vs)),
    "max": lambda vs: float(max(vs)),
    "count": lambda vs: float(len(vs)),
}


@dataclass
class WorldContext:
    """Bindings shared by every operator while evaluating one world."""

    params: Mapping[str, float]
    world_seed: int


class Operator(ABC):
    """A node of a logical query plan."""

    @abstractmethod
    def schema(self) -> Schema:
        """Output schema of this operator."""

    @abstractmethod
    def execute(self, world: WorldContext) -> Relation:
        """Materialize this operator's output for one possible world."""

    def execute_batch(
        self, params: Mapping[str, float], world_seeds: np.ndarray
    ) -> Dict[str, object]:
        """Evaluate a single-row plan across every world in one pass.

        Returns column name → scalar (world-independent) or per-world
        vector; lane ``k`` matches ``execute`` under ``world_seeds[k]``.
        Raises :class:`BatchUnsupported` for plan shapes the batch engine
        does not cover — callers fall back to the per-world loop.
        """
        raise BatchUnsupported(type(self).__name__)


@dataclass
class TableScan(Operator):
    """Scan a fixed (deterministic) relation."""

    relation: Relation

    def schema(self) -> Schema:
        return self.relation.schema

    def execute(self, world: WorldContext) -> Relation:
        return self.relation


@dataclass
class SingletonScan(Operator):
    """A one-row, zero-column relation: the FROM-less SELECT's input."""

    def schema(self) -> Schema:
        return Schema(())

    def execute(self, world: WorldContext) -> Relation:
        return Relation(Schema(()), [()])


@dataclass
class Project(Operator):
    """SELECT list: named expressions computed per input row.

    Select items may reference earlier items by alias (paper Figure 1's
    ``overload`` reads ``capacity`` and ``demand``), so items are evaluated
    left to right with the growing row visible to later items.
    """

    child: Operator
    items: Tuple[Tuple[str, Expression], ...]

    def schema(self) -> Schema:
        return Schema(tuple(Column(name) for name, _ in self.items))

    def execute(self, world: WorldContext) -> Relation:
        output_rows: List[Row] = []
        for row in self.child.execute(world):
            visible = dict(
                zip(self.child.schema().names, row)
            )  # type: Dict[str, object]
            values: List[object] = []
            for name, expression in self.items:
                value = expression.evaluate(
                    EvalContext(visible, world.params, world.world_seed)
                )
                visible[name] = value
                values.append(value)
            output_rows.append(tuple(values))
        return Relation(self.schema(), output_rows)

    def execute_batch(
        self, params: Mapping[str, float], world_seeds: np.ndarray
    ) -> Dict[str, object]:
        # Batchable when the input row is single and world-independent —
        # the shape of every scenario SELECT (FROM-less or over a one-row
        # deterministic table).  Aliases stay visible to later items,
        # mirroring the scalar left-to-right evaluation.
        child = self.child
        if isinstance(child, SingletonScan):
            visible: Dict[str, object] = {}
        elif isinstance(child, TableScan) and len(child.relation) == 1:
            visible = dict(
                zip(child.relation.schema.names, child.relation.rows[0])
            )
        else:
            raise BatchUnsupported(type(child).__name__)
        # Reject unsupported shapes *before* evaluating anything: batch
        # evaluation samples black boxes (counted work), so a mid-stream
        # fallback would redo — and double-count — that sampling.
        stochastic: set = set()
        for name, expression in self.items:
            assert_batchable(expression, frozenset(stochastic))
            if _contains_blackbox(expression) or (
                set(expression.references()) & stochastic
            ):
                stochastic.add(name)
        context = BatchEvalContext(
            row=visible, params=params, world_seeds=world_seeds
        )
        # Runtime fallbacks (e.g. a CASE branch erroring under eager
        # evaluation) rerun everything on the scalar path; rolling the
        # invocation counters back keeps the machine-independent work
        # accounting identical to a scalar-only execution.  Composite boxes
        # sample their children, so the snapshot must cover those too.
        boxes = [
            call.box
            for _, expression in self.items
            for call in _iter_blackbox_calls(expression)
        ]
        seen = set()
        closure = []
        while boxes:
            box = boxes.pop()
            if id(box) in seen:
                continue
            seen.add(id(box))
            closure.append(box)
            boxes.extend(box.component_boxes())
        snapshots = [(box, box.invocations) for box in closure]
        try:
            for name, expression in self.items:
                visible[name] = expression.evaluate_batch(context)
        except BatchUnsupported:
            for box, count in snapshots:
                box._invocations = count
            raise
        return {name: visible[name] for name, _ in self.items}


@dataclass
class GroupAggregate(Operator):
    """GROUP BY with SUM/AVG/MIN/MAX/COUNT aggregates.

    ``aggregates`` maps output name to (kind, input expression).  An empty
    ``group_by`` produces the single global group.
    """

    child: Operator
    group_by: Tuple[str, ...]
    aggregates: Tuple[Tuple[str, str, Expression], ...]

    def schema(self) -> Schema:
        columns = [self.child.schema().column(g) for g in self.group_by]
        columns += [Column(name) for name, _, _ in self.aggregates]
        return Schema(tuple(columns))

    def execute(self, world: WorldContext) -> Relation:
        child_schema = self.child.schema()
        for kind_name in {kind for _, kind, _ in self.aggregates}:
            if kind_name.lower() not in _AGGREGATES:
                raise QueryError(f"unknown aggregate {kind_name!r}")
        groups: Dict[Tuple[object, ...], List[Row]] = {}
        for row in self.child.execute(world):
            key = tuple(
                row[child_schema.index_of(g)] for g in self.group_by
            )
            groups.setdefault(key, []).append(row)
        output_rows: List[Row] = []
        for key in sorted(groups, key=repr):
            rows = groups[key]
            values: List[object] = list(key)
            for _, kind, expression in self.aggregates:
                inputs = [
                    float(
                        expression.evaluate(  # type: ignore[arg-type]
                            EvalContext(
                                dict(zip(child_schema.names, row)),
                                world.params,
                                world.world_seed,
                            )
                        )
                    )
                    for row in rows
                ]
                values.append(_AGGREGATES[kind.lower()](inputs))
            output_rows.append(tuple(values))
        return Relation(self.schema(), output_rows)
