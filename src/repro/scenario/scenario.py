"""Scenario definition: a parameterized query plus its parameter space.

A *scenario* bundles what the user writes in the DEFINITION section of a
Jigsaw query (paper Figure 1): parameter declarations and a SELECT producing
named output columns, evaluated per possible world.  ``simulate`` realizes
the scenario's output row for one (parameter point, world seed) pair — the
stochastic function F that batch exploration fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import QueryError
from repro.probdb.expressions import BatchUnsupported
from repro.probdb.query import Operator, WorldContext
from repro.scenario.parameter import ChainParameter, ParameterSpec
from repro.scenario.space import ParameterSpace


@dataclass
class Scenario:
    """A parameterized, single-row scenario query.

    ``plan`` must produce exactly one row per world; its columns are the
    scenario's outputs (e.g. demand, capacity, overload).  ``into`` names
    the results table for OPTIMIZE/GRAPH clauses to reference.
    """

    plan: Operator
    parameters: Tuple[ParameterSpec, ...]
    into: str = "results"
    name: str = "scenario"

    def __post_init__(self) -> None:
        self.space = ParameterSpace(self.parameters)

    @property
    def output_columns(self) -> Tuple[str, ...]:
        return self.plan.schema().names

    @property
    def chain_parameters(self) -> Tuple[ChainParameter, ...]:
        return tuple(
            spec for spec in self.parameters if isinstance(spec, ChainParameter)
        )

    def parameter(self, name: str) -> ParameterSpec:
        for spec in self.parameters:
            if spec.name == name:
                return spec
        raise QueryError(f"scenario has no parameter @{name}")

    def simulate(
        self, params: Mapping[str, float], seed: int
    ) -> Dict[str, float]:
        """One Monte Carlo round: all output column values for one world."""
        relation = self.plan.execute(
            WorldContext(params=dict(params), world_seed=seed)
        )
        if len(relation) != 1:
            raise QueryError(
                f"scenario query must yield exactly one row per world; got "
                f"{len(relation)}"
            )
        row = relation.rows[0]
        result: Dict[str, float] = {}
        for name, value in zip(relation.schema.names, row):
            try:
                result[name] = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise QueryError(
                    f"output column {name!r} is not numeric: {value!r}"
                ) from None
        return result

    def simulate_batch(
        self, params: Mapping[str, float], seeds: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """All output columns across many worlds in one vectorized pass.

        Column vectors are lane-for-lane identical to :meth:`simulate`
        under each seed.  Raises
        :class:`~repro.probdb.expressions.BatchUnsupported` when the plan
        shape cannot batch; callers fall back to the scalar loop.
        """
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
        columns = self.plan.execute_batch(dict(params), seeds)
        result: Dict[str, np.ndarray] = {}
        for name in self.plan.schema().names:
            value = columns[name]
            result[name] = np.broadcast_to(
                np.asarray(value, dtype=float), seeds.shape
            )
        return result

    def column_simulation(self, column: str):
        """A scalar ``(params, seed) -> float`` view of one output column.

        Suitable for :class:`repro.core.explorer.ParameterExplorer` when only
        one column matters; multi-column scenarios should use the
        :class:`repro.scenario.runner.ScenarioRunner`, which runs that same
        explorer over all columns at once (one set of black-box
        invocations per world).  The returned callable also exposes
        ``sample_batch`` so the explorer's batched path can vectorize over
        the seed bank (falling back internally when the plan cannot batch).
        """
        if column not in self.output_columns:
            raise QueryError(
                f"unknown output column {column!r}; scenario produces "
                f"{list(self.output_columns)}"
            )

        def simulation(params: Mapping[str, float], seed: int) -> float:
            return self.simulate(params, seed)[column]

        def sample_batch(
            params: Mapping[str, float], seeds: np.ndarray
        ) -> np.ndarray:
            try:
                return np.array(
                    self.simulate_batch(params, seeds)[column], dtype=float
                )
            except BatchUnsupported:
                return np.array(
                    [
                        self.simulate(params, int(seed))[column]
                        for seed in np.atleast_1d(seeds)
                    ],
                    dtype=float,
                )

        simulation.sample_batch = sample_batch  # type: ignore[attr-defined]
        return simulation
