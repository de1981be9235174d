"""Scalar expression AST evaluated per row and per possible world.

Covers what the paper's example queries need (Figures 1 and 5): column and
parameter references, arithmetic, comparisons, ``CASE WHEN``, and calls to
registered black-box functions.  Black-box calls receive the current world's
seed, keeping the whole query deterministic per world — the property that
makes whole-query fingerprints possible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.blackbox.base import BlackBox
from repro.blackbox.draws import derived_seed_array_cached
from repro.core.seeds import derive_seed
from repro.errors import QueryError


@dataclass
class EvalContext:
    """Everything an expression may reference during evaluation.

    ``row`` — the current tuple's column values;
    ``params`` — the scenario's parameter valuation (the @variables);
    ``world_seed`` — this possible world's seed (σk for round k).
    """

    row: Mapping[str, object]
    params: Mapping[str, float]
    world_seed: int


class BatchUnsupported(Exception):
    """Raised when an expression (or its inputs) cannot batch over worlds.

    Callers catch this and fall back to the per-world scalar loop, so batch
    evaluation is a pure optimization — never a behavior change.
    """


@dataclass
class BatchEvalContext:
    """One row evaluated across *many* possible worlds at once.

    ``row`` values are scalars (world-independent inputs) or per-world
    vectors; ``world_seeds`` is the uint64 seed per world.
    """

    row: Mapping[str, object]
    params: Mapping[str, float]
    world_seeds: np.ndarray
    #: True while a CASE branch evaluates eagerly: lanes the condition
    #: discards may legitimately divide by zero there, so division defers
    #: its scalar-parity zero check — it records the offending lanes in
    #: ``case_zero_div`` instead of falling back immediately, and CaseWhen
    #: falls back only if the condition *selects* one of those lanes.
    in_case_branch: bool = False
    #: Boolean lane mask (or None) accumulating where a division inside
    #: the currently evaluating CASE branch had a zero denominator.
    case_zero_div: Optional[np.ndarray] = None


class Expression(ABC):
    """A scalar expression over (row, parameters, world)."""

    @abstractmethod
    def evaluate(self, context: EvalContext) -> object:
        """Value of this expression in the given context."""

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        """Value(s) across every world: a scalar or a per-world vector.

        Each lane of the result is identical to :meth:`evaluate` under the
        corresponding world seed.  Raises :class:`BatchUnsupported` when the
        expression cannot vectorize (callers fall back to the world loop).
        """
        raise BatchUnsupported(type(self).__name__)

    @abstractmethod
    def references(self) -> Tuple[str, ...]:
        """Names of columns/parameters this expression reads (for binding)."""


@dataclass(frozen=True)
class Constant(Expression):
    value: object

    def evaluate(self, context: EvalContext) -> object:
        return self.value

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        return self.value

    def references(self) -> Tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str

    def evaluate(self, context: EvalContext) -> object:
        try:
            return context.row[self.name]
        except KeyError:
            raise QueryError(
                f"unknown column {self.name!r}; row has "
                f"{sorted(context.row)}"
            ) from None

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        try:
            return context.row[self.name]
        except KeyError:
            raise QueryError(
                f"unknown column {self.name!r}; row has "
                f"{sorted(context.row)}"
            ) from None

    def references(self) -> Tuple[str, ...]:
        return (self.name,)


@dataclass(frozen=True)
class ParameterRef(Expression):
    """An @parameter reference."""

    name: str

    def evaluate(self, context: EvalContext) -> object:
        try:
            return context.params[self.name]
        except KeyError:
            raise QueryError(
                f"unbound parameter @{self.name}; bound: "
                f"{sorted(context.params)}"
            ) from None

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        try:
            return context.params[self.name]
        except KeyError:
            raise QueryError(
                f"unbound parameter @{self.name}; bound: "
                f"{sorted(context.params)}"
            ) from None

    def references(self) -> Tuple[str, ...]:
        return (f"@{self.name}",)


_BINARY_OPS: Dict[str, Callable[[object, object], object]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise QueryError(f"unknown operator {self.op!r}")

    def evaluate(self, context: EvalContext) -> object:
        return _BINARY_OPS[self.op](
            self.left.evaluate(context), self.right.evaluate(context)
        )

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        left = self.left.evaluate_batch(context)
        right = self.right.evaluate_batch(context)
        if self.op == "and":
            return np.logical_and(left, right)
        if self.op == "or":
            return np.logical_or(left, right)
        if self.op == "/":
            zero = np.asarray(right) == 0
            if np.any(zero):
                # The scalar per-world loop raises ZeroDivisionError here;
                # numpy would return inf/nan and let the query succeed.
                # Fall back so the offending world fails the same way it
                # would under scalar execution — unless a CASE branch is
                # evaluating eagerly, where the decision belongs to
                # CaseWhen (only *selected* lanes must match).
                if not context.in_case_branch:
                    raise BatchUnsupported("division by zero in some world")
                context.case_zero_div = (
                    zero
                    if context.case_zero_div is None
                    else np.logical_or(context.case_zero_div, zero)
                )
        # Arithmetic and comparisons vectorize through the same operators
        # (identical IEEE semantics per lane).
        return _BINARY_OPS[self.op](left, right)

    def references(self) -> Tuple[str, ...]:
        return self.left.references() + self.right.references()


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str
    operand: Expression

    def evaluate(self, context: EvalContext) -> object:
        value = self.operand.evaluate(context)
        if self.op == "-":
            return -value  # type: ignore[operator]
        if self.op == "not":
            return not bool(value)
        raise QueryError(f"unknown unary operator {self.op!r}")

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        value = self.operand.evaluate_batch(context)
        if self.op == "-":
            return -value  # type: ignore[operator]
        if self.op == "not":
            return np.logical_not(value)
        raise QueryError(f"unknown unary operator {self.op!r}")

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN a ELSE b END`` (paper Figure 1's overload)."""

    condition: Expression
    then_value: Expression
    else_value: Expression

    def evaluate(self, context: EvalContext) -> object:
        if bool(self.condition.evaluate(context)):
            return self.then_value.evaluate(context)
        return self.else_value.evaluate(context)

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        # Batch evaluation computes both branches and selects per lane;
        # that changes black-box invocation counts versus the scalar
        # short-circuit, so CASEs over stochastic branches stay scalar.
        if _contains_blackbox(self.then_value) or _contains_blackbox(
            self.else_value
        ):
            raise BatchUnsupported("CASE over a stochastic branch")
        condition = self.condition.evaluate_batch(context)
        try:
            # Both branches evaluate eagerly here where the scalar path
            # short-circuits; a branch that only errors when *not* taken
            # (e.g. a division guarded by the condition) must fall back to
            # the per-world loop rather than fail the whole query.  Lanes
            # the condition discards may legitimately produce inf/nan, so
            # their floating-point warnings are noise — but divisions by
            # zero in lanes the condition *selects* must still fall back
            # (the scalar path raises there), so each branch records its
            # zero-division lanes for the post-selection check below.
            with np.errstate(divide="ignore", invalid="ignore"):
                was_in_case_branch = context.in_case_branch
                outer_zero_div = context.case_zero_div
                context.in_case_branch = True
                context.case_zero_div = None
                try:
                    then_value = self.then_value.evaluate_batch(context)
                    then_zero_div = context.case_zero_div
                    context.case_zero_div = None
                    else_value = self.else_value.evaluate_batch(context)
                    else_zero_div = context.case_zero_div
                finally:
                    context.in_case_branch = was_in_case_branch
                    context.case_zero_div = outer_zero_div
        except BatchUnsupported:
            raise
        except Exception as error:
            # Whatever failed, the per-world scalar loop this reroutes to
            # is the reference: it raises for itself any error that is real.
            raise BatchUnsupported(
                f"CASE branch failed under eager evaluation: {error}"
            ) from error
        scalar_condition = np.isscalar(condition) or np.ndim(condition) == 0
        if then_zero_div is not None or else_zero_div is not None:
            false_mask = np.zeros(1, dtype=bool)
            then_mask = false_mask if then_zero_div is None else then_zero_div
            else_mask = false_mask if else_zero_div is None else else_zero_div
            if scalar_condition:
                selected = then_mask if bool(condition) else else_mask
            else:
                selected = np.where(condition, then_mask, else_mask)
            if np.any(selected):
                if context.in_case_branch:
                    # Nested CASE: let the enclosing CASE's condition
                    # decide whether these lanes are actually reachable.
                    context.case_zero_div = (
                        selected
                        if context.case_zero_div is None
                        else np.logical_or(context.case_zero_div, selected)
                    )
                else:
                    raise BatchUnsupported(
                        "division by zero in a selected CASE lane"
                    )
        if scalar_condition:
            return then_value if bool(condition) else else_value
        return np.where(condition, then_value, else_value)

    def references(self) -> Tuple[str, ...]:
        return (
            self.condition.references()
            + self.then_value.references()
            + self.else_value.references()
        )


@dataclass(frozen=True)
class BlackBoxCall(Expression):
    """Invocation of a VG-style black box with expression arguments.

    The box's seed is derived from the world seed and a per-call salt so
    that multiple calls in one query draw independent randomness while
    remaining deterministic per world.
    """

    box: BlackBox
    argument_names: Tuple[str, ...]
    arguments: Tuple[Expression, ...]
    call_salt: int = 0

    def __post_init__(self) -> None:
        if len(self.argument_names) != len(self.arguments):
            raise QueryError(
                f"{self.box.name}: {len(self.argument_names)} parameter "
                f"names but {len(self.arguments)} arguments"
            )

    def evaluate(self, context: EvalContext) -> object:
        params = {}
        for name, argument in zip(self.argument_names, self.arguments):
            value = argument.evaluate(context)
            try:
                params[name] = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise QueryError(
                    f"{self.box.name} argument {name!r} is not numeric: "
                    f"{value!r}"
                ) from None
        seed = derive_seed(context.world_seed, self.call_salt)
        return self.box.sample(params, seed)

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        params = {}
        for name, argument in zip(self.argument_names, self.arguments):
            value = argument.evaluate_batch(context)
            if isinstance(value, np.ndarray) and value.ndim > 0:
                # Per-world argument values would need one params dict per
                # lane; the black box batches over seeds, not parameters.
                raise BatchUnsupported(
                    f"{self.box.name} argument {name!r} varies per world"
                )
            try:
                params[name] = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise QueryError(
                    f"{self.box.name} argument {name!r} is not numeric: "
                    f"{value!r}"
                ) from None
        seeds = derived_seed_array_cached(context.world_seeds, self.call_salt)
        return self.box.sample_batch(params, seeds)

    def references(self) -> Tuple[str, ...]:
        refs: Tuple[str, ...] = ()
        for argument in self.arguments:
            refs += argument.references()
        return refs


def _children(expression: Expression):
    for attr in (
        "left",
        "right",
        "operand",
        "condition",
        "then_value",
        "else_value",
    ):
        child = getattr(expression, attr, None)
        if isinstance(child, Expression):
            yield child
    for child in getattr(expression, "arguments", ()) or ():
        if isinstance(child, Expression):
            yield child


def _contains_blackbox(expression: Expression) -> bool:
    """True when a black-box call occurs anywhere beneath ``expression``."""
    if isinstance(expression, BlackBoxCall):
        return True
    return any(_contains_blackbox(child) for child in _children(expression))


def _iter_blackbox_calls(expression: Expression):
    """Yield every black-box call beneath ``expression`` (self included)."""
    if isinstance(expression, BlackBoxCall):
        yield expression
    for child in _children(expression):
        yield from _iter_blackbox_calls(child)


_BATCHABLE_FUNCTIONS = frozenset({"abs", "least", "greatest"})


def assert_batchable(
    expression: Expression, stochastic_columns: frozenset
) -> None:
    """Statically reject expressions the batch engine cannot evaluate.

    Run *before* executing any item of a projection: batch evaluation has
    side effects (black-box invocation counters), so discovering
    unsupported shapes mid-execution and falling back would double-count
    work.  ``stochastic_columns`` names earlier select aliases whose
    values vary per world — black-box arguments must not reference them
    (one params dict cannot cover divergent lanes).
    """
    if isinstance(expression, BlackBoxCall):
        for argument in expression.arguments:
            if _contains_blackbox(argument):
                raise BatchUnsupported(
                    f"{expression.box.name} argument is itself stochastic"
                )
            varying = set(argument.references()) & stochastic_columns
            if varying:
                raise BatchUnsupported(
                    f"{expression.box.name} argument references per-world "
                    f"column(s) {sorted(varying)}"
                )
    elif isinstance(expression, CaseWhen):
        if _contains_blackbox(expression.then_value) or _contains_blackbox(
            expression.else_value
        ):
            raise BatchUnsupported("CASE over a stochastic branch")
    elif isinstance(expression, FunctionCall):
        if expression.name.lower() not in _BATCHABLE_FUNCTIONS:
            raise BatchUnsupported(f"scalar function {expression.name!r}")
    elif type(expression).evaluate_batch is Expression.evaluate_batch:
        # Unknown expression type without a batch implementation.
        raise BatchUnsupported(type(expression).__name__)
    for child in _children(expression):
        assert_batchable(child, stochastic_columns)


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A deterministic scalar function (ABS, MIN, MAX over two scalars...)."""

    name: str
    arguments: Tuple[Expression, ...]

    def evaluate(self, context: EvalContext) -> object:
        function = _SCALAR_FUNCTIONS.get(self.name.lower())
        if function is None:
            raise QueryError(f"unknown scalar function {self.name!r}")
        return function(
            *(argument.evaluate(context) for argument in self.arguments)
        )

    def evaluate_batch(self, context: BatchEvalContext) -> object:
        values = [
            argument.evaluate_batch(context) for argument in self.arguments
        ]
        name = self.name.lower()
        if name == "abs":
            return np.abs(values[0])
        # np.where (not np.minimum/np.maximum) so NaN lanes resolve like
        # Python's min/max in the scalar path: keep the earlier argument
        # unless a later one strictly compares past it.
        if name == "least":
            result = values[0]
            for value in values[1:]:
                result = np.where(np.less(value, result), value, result)
            return result
        if name == "greatest":
            result = values[0]
            for value in values[1:]:
                result = np.where(np.greater(value, result), value, result)
            return result
        raise BatchUnsupported(f"scalar function {self.name!r}")

    def references(self) -> Tuple[str, ...]:
        refs: Tuple[str, ...] = ()
        for argument in self.arguments:
            refs += argument.references()
        return refs


_SCALAR_FUNCTIONS: Dict[str, Callable[..., object]] = {
    "abs": lambda x: abs(x),
    "least": lambda *xs: min(xs),
    "greatest": lambda *xs: max(xs),
}
