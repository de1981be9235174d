"""A compact MCDB-style probabilistic database substrate.

Expressions, the operators the binder builds and random tables.  Plans
run one world at a time (or one batch of worlds); the scenario runner
draws the worlds and estimates the answers.
"""

from repro.probdb.expressions import (
    BinaryOp,
    BlackBoxCall,
    CaseWhen,
    ColumnRef,
    Constant,
    EvalContext,
    Expression,
    FunctionCall,
    ParameterRef,
    UnaryOp,
)
from repro.probdb.query import (
    GroupAggregate,
    Operator,
    Project,
    SingletonScan,
    TableScan,
    WorldContext,
)
from repro.probdb.relation import Relation
from repro.probdb.scan import RandomScan
from repro.probdb.schema import Column, Schema
from repro.probdb.worlds import RandomRelation, VGColumn

__all__ = [
    "BinaryOp",
    "BlackBoxCall",
    "CaseWhen",
    "ColumnRef",
    "Constant",
    "EvalContext",
    "Expression",
    "FunctionCall",
    "ParameterRef",
    "UnaryOp",
    "GroupAggregate",
    "Operator",
    "Project",
    "SingletonScan",
    "TableScan",
    "WorldContext",
    "Relation",
    "RandomScan",
    "Column",
    "Schema",
    "RandomRelation",
    "VGColumn",
]
