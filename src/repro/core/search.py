"""Adaptive parameter search on top of fingerprint reuse.

Paper section 2.3: brute-force enumeration is *necessary* for arbitrary
black boxes, "but Jigsaw's fingerprinting techniques remain applicable to
more advanced techniques that use additional information about the
black-box (e.g., gradient-descent, if the black-box is known to be
continuous)."  This module provides that advanced path: a hill-climbing
search over the discrete parameter space which evaluates candidate points
through the same :class:`~repro.core.explorer.ParameterExplorer` as every
sweep: a step's uncached neighbours are one
:meth:`~repro.core.explorer.ParameterExplorer.explore` call, so they are
drawn and matched as one block, and every candidate still benefits from
(and contributes to) the shared basis store.

The searcher maximizes a scalar objective of a point's metrics subject to
a feasibility predicate over them.  That is not the OPTIMIZE Selector's
contract: the Selector ranks GROUP BY keys by *parameter* objectives, under
constraints on metric aggregates, and cannot rank points by a metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.blackbox.base import ParamKey, param_key
from repro.core.estimator import MetricSet
from repro.core.explorer import ParameterExplorer, PointResult
from repro.errors import OptimizationError
from repro.scenario.space import ParameterSpace

#: Scalar score of a point's metrics (higher is better).
ObjectiveFn = Callable[[MetricSet], float]

#: Feasibility predicate over a point's metrics.
FeasibleFn = Callable[[MetricSet], bool]


@dataclass
class SearchTrace:
    """What the search visited, for inspection and testing."""

    visited: List[Dict[str, float]] = field(default_factory=list)
    improvements: List[Tuple[Dict[str, float], float]] = field(
        default_factory=list
    )

    @property
    def evaluations(self) -> int:
        return len(self.visited)


@dataclass
class SearchResult:
    """Best feasible point found, its metrics, and the trace."""

    best_point: Optional[Dict[str, float]]
    best_metrics: Optional[MetricSet]
    best_score: float
    trace: SearchTrace
    explorer_stats_reused: int


class _Search:
    """What both searches share: the explorer, the space and the score."""

    def __init__(
        self,
        explorer: ParameterExplorer,
        space: ParameterSpace,
        objective: ObjectiveFn,
        feasible: Optional[FeasibleFn] = None,
    ):
        self.explorer = explorer
        self.space = space
        self.objective = objective
        self.feasible = feasible or (lambda metrics: True)

    def _score(self, metrics: MetricSet) -> float:
        """The objective of a feasible point; -inf for an infeasible one."""
        if not self.feasible(metrics):
            return float("-inf")
        return self.objective(metrics)


class HillClimbSearch(_Search):
    """Greedy neighborhood ascent with random restarts.

    From each start point, repeatedly moves to the best strictly improving
    feasible neighbor (axis-adjacent values in the declared parameter
    domains) until no neighbor improves; multiple restarts guard against
    local optima.  Deterministic: restarts are spread evenly through the
    enumerated space rather than drawn randomly, keeping runs reproducible.
    """

    def __init__(
        self,
        explorer: ParameterExplorer,
        space: ParameterSpace,
        objective: ObjectiveFn,
        feasible: Optional[FeasibleFn] = None,
        restarts: int = 3,
        max_steps: int = 100,
    ):
        if restarts < 1:
            raise OptimizationError("restarts must be positive")
        if max_steps < 1:
            raise OptimizationError("max_steps must be positive")
        super().__init__(explorer, space, objective, feasible)
        self.restarts = restarts
        self.max_steps = max_steps
        self._cache: Dict[ParamKey, PointResult] = {}

    def _evaluate(
        self, points: List[Dict[str, float]], trace: SearchTrace
    ) -> List[MetricSet]:
        """Every point's metrics; the uncached ones are explored first, in
        order, once each, as one block."""
        keys = [param_key(point) for point in points]
        batch: Dict[ParamKey, Dict[str, float]] = {}
        for key, point in zip(keys, points):
            if key not in self._cache:
                batch.setdefault(key, point)
        if batch:
            explored = list(self.explorer.explore(batch.values()))
            for (key, point), outcome in zip(batch.items(), explored):
                self._cache[key] = outcome
                trace.visited.append(dict(point))
        return [self._cache[key].metrics for key in keys]

    def _start_points(self) -> List[Dict[str, float]]:
        points = self.space.points_list()
        if not points:
            raise OptimizationError("cannot search an empty space")
        stride = max(1, len(points) // self.restarts)
        return [points[i * stride % len(points)] for i in range(self.restarts)]

    def run(self) -> SearchResult:
        trace = SearchTrace()
        best_point: Optional[Dict[str, float]] = None
        best_metrics: Optional[MetricSet] = None
        best_score = float("-inf")

        for start in self._start_points():
            current = dict(start)
            (current_metrics,) = self._evaluate([current], trace)
            current_score = self._score(current_metrics)
            for _ in range(self.max_steps):
                neighbors = [
                    neighbor
                    for parameter in self.space.names
                    for neighbor in self.space.neighbors(current, parameter)
                ]
                best_neighbor = None
                for neighbor, metrics in zip(
                    neighbors, self._evaluate(neighbors, trace)
                ):
                    score = self._score(metrics)
                    if score > current_score:
                        best_neighbor = neighbor
                        current_score, current_metrics = score, metrics
                if best_neighbor is None:
                    break
                current = best_neighbor
                trace.improvements.append((dict(current), current_score))
            # A climb only ever improves: where it stops is its best.
            if current_score > best_score:
                best_score = current_score
                best_point = dict(current)
                best_metrics = current_metrics

        reused = sum(
            1 for outcome in self._cache.values() if outcome.reused
        )
        return SearchResult(
            best_point=best_point,
            best_metrics=best_metrics,
            best_score=best_score,
            trace=trace,
            explorer_stats_reused=reused,
        )


class ExhaustiveSearch(_Search):
    """Reference brute-force search over the same objective contract.

    Every point of the space, one :meth:`ParameterExplorer.explore` sweep,
    then the argmax.  Not a second OPTIMIZE Selector: the Selector ranks
    GROUP BY keys by parameter objectives under metric-aggregate
    constraints, and cannot maximize an arbitrary metric score, which is
    what this class does.  It is the hill climb's brute-force reference:
    it validates hill climbing and quantifies how many evaluations
    adaptivity saves.
    """

    def run(self) -> SearchResult:
        trace = SearchTrace()
        best_point: Optional[Dict[str, float]] = None
        best_metrics: Optional[MetricSet] = None
        best_score = float("-inf")
        reused = 0
        for outcome in self.explorer.explore(self.space.points()):
            trace.visited.append(dict(outcome.params))
            reused += outcome.reused
            score = self._score(outcome.metrics)
            if score > best_score:
                best_score = score
                best_point = dict(outcome.params)
                best_metrics = outcome.metrics
        return SearchResult(
            best_point=best_point,
            best_metrics=best_metrics,
            best_score=best_score,
            trace=trace,
            explorer_stats_reused=reused,
        )
