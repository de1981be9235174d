"""The two prototype engines compared in paper section 6.1 (Figure 7).

The paper's original prototype is a C# layer over Microsoft SQL Server whose
timings are dominated by interprocess communication and per-invocation SQL
interpretation; its second prototype is a lightweight Ruby driver that calls
black boxes directly.  We rebuild both roles:

* :class:`WrapperEngine` — the "online" path: every parameter point re-parses
  the scenario's query text, marshals each sampled row through a
  string-serialization boundary (the IPC analogue), and executes through the
  full probdb operator pipeline.  Its one strength mirrors the DBMS's: bulk,
  set-oriented data operations (the vectorized path of data-heavy models).
* :class:`CoreEngine` — the "offline" path: direct Python invocation of the
  black box per sample, no parsing, no marshalling, but row-at-a-time data
  handling.

Figure 7's shape falls out: the wrapper pays orders of magnitude on cheap
models (overhead dominates) yet *wins* on the data-dependent UserSelect
model (bulk beats per-row loops).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from repro.blackbox.base import BlackBox, BlackBoxRegistry, Params
from repro.blackbox.user_selection import UserSelectionModel
from repro.core.estimator import Estimator, MetricSet
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank, derive_seed
from repro.lang.binder import compile_query


#: JSON round trips per sampled row across the simulated process
#: boundary (the wrapper prototype's IPC cost).
MARSHALLING_ROUNDS = 3


@dataclass
class EngineRun:
    """Result of evaluating one parameter point on an engine."""

    metrics: MetricSet
    samples_drawn: int


class CoreEngine:
    """Direct black-box driver: the Ruby-prototype analogue.

    Keeps the prototype's defining cost model — row-at-a-time black-box
    invocation — which is what Figure 7's crossover against the
    set-oriented wrapper measures.
    """

    name = "core"

    def __init__(
        self,
        box: BlackBox,
        samples_per_point: int = 1000,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
    ):
        self.box = box
        self.samples_per_point = samples_per_point
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()

    def evaluate_point(self, params: Params) -> EngineRun:
        # Seed derivation matches the query layer's single-call-site salt
        # (salt 0) so both prototypes produce bit-identical sample sets: the
        # engines differ in cost, never in answer.
        samples = [
            self.box.sample(params, derive_seed(seed, 0))
            for seed in self.seed_bank.seeds(self.samples_per_point)
        ]
        return EngineRun(
            metrics=self.estimator.estimate(samples),
            samples_drawn=len(samples),
        )


class WrapperEngine:
    """Query-wrapper driver: the C# + SQL Server analogue.

    Costs modeled explicitly:

    * per-point query (re)compilation — the stored-procedure/SQL
      interpretation overhead;
    * per-sample row marshalling through a JSON string boundary — the
      interprocess-communication overhead;
    * bulk path for data-dependent models — the set-oriented strength of a
      real DBMS (``UserSelectionModel.sample_vectorized``).
    """

    name = "wrapper"

    def __init__(
        self,
        box: BlackBox,
        query_template: str,
        registry: Optional[BlackBoxRegistry] = None,
        samples_per_point: int = 1000,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
    ):
        self.box = box
        self.query_template = query_template
        self.registry = registry or _single_box_registry(box)
        self.samples_per_point = samples_per_point
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.estimator = estimator or Estimator()

    def evaluate_point(self, params: Params) -> EngineRun:
        samples: List[float] = []
        for seed in self.seed_bank.seeds(self.samples_per_point):
            # Re-interpret the query for every Monte Carlo instance, as the
            # original prototype re-invoked the SQL engine on subqueries and
            # post-processed results outside the DBMS (paper section 6).
            bound = compile_query(self.query_template, self.registry)
            if isinstance(self.box, UserSelectionModel):
                value = self.box.sample_vectorized(
                    params, derive_seed(seed, 0)
                )
            else:
                row = bound.scenario.simulate(params, seed)
                value = row[next(iter(row))]
            samples.append(self._marshal_round_trip(params, value))
        return EngineRun(
            metrics=self.estimator.estimate(samples),
            samples_drawn=len(samples),
        )

    def _marshal_round_trip(self, params: Params, value: float) -> float:
        """Serialize the result row across the simulated process boundary."""
        payload = {"params": dict(params), "value": value}
        for _ in range(MARSHALLING_ROUNDS):
            payload = json.loads(json.dumps(payload))
        return float(payload["value"])


def _single_box_registry(box: BlackBox) -> BlackBoxRegistry:
    registry = BlackBoxRegistry()
    registry.register(box, box.name)
    return registry


def default_query_for(box: BlackBox) -> str:
    """A minimal scenario query template invoking ``box`` once.

    Declares each of the box's parameters over a small placeholder range;
    actual evaluation supplies concrete parameter values directly.
    """
    declares = "\n".join(
        f"DECLARE PARAMETER @{name} AS RANGE 0 TO 52 STEP BY 1;"
        for name in box.parameter_names
    )
    arguments = ", ".join(f"@{name}" for name in box.parameter_names)
    return (
        f"{declares}\n"
        f"SELECT {box.name}({arguments}) AS simulated INTO results;"
    )
