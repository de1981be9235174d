"""The online what-if engine (paper section 5, Algorithm 5).

Online Jigsaw rapidly produces progressively refined metrics for the small
set of parameter points the user is looking at.  Each tick performs one
pick-evaluate-update round:

* **refinement** — draw fresh samples for the focused point and fold them
  (through M⁻¹) into its basis distribution, sharpening every correlated
  point's estimate at once;
* **validation** — re-draw samples whose ids the basis already holds and
  check them against the mapped basis values, effectively extending the
  point's fingerprint; a mismatch re-runs FindMatch (or spawns a new basis);
* **exploration** — prefetch a nearby point: fingerprint it and attach it to
  a basis so that when the user scrubs to it an estimate is already there.

Sample bookkeeping uses the global seed bank's sample ids; a basis always
holds a contiguous id prefix, so "ids not in the basis" are simply the next
``chunk`` ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.blackbox.base import ParamKey, Params, param_key
from repro.core.adaptive import AdaptiveBudget
from repro.core.basis import BasisStore
from repro.core.estimator import Estimator, MetricSet
from repro.core.fingerprint import Fingerprint
from repro.core.mapping import AffineMapping, Mapping
from repro.core.seeds import DEFAULT_SEED_BANK, SeedBank
from repro.errors import InteractiveError, MappingError
from repro.interactive.heuristics import (
    AdjacentExploreHeuristic,
    RoundRobinTaskHeuristic,
    TASK_EXPLORATION,
    TASK_REFINEMENT,
    TASK_VALIDATION,
)
from repro.scenario.space import ParameterSpace

Simulation = Callable[[Params, int], float]


@dataclass
class PointState:
    """Per-point bookkeeping: known samples, attached basis, and mapping."""

    params: Dict[str, float]
    samples: Dict[int, float] = field(default_factory=dict)
    basis_id: Optional[int] = None
    mapping: Optional[Mapping] = None

    @property
    def sample_count(self) -> int:
        return len(self.samples)


@dataclass
class TickReport:
    """What one event-loop iteration did (for tests and UIs)."""

    task: str
    point: Dict[str, float]
    samples_drawn: int
    rebound: bool = False


class InteractiveSession:
    """Progressive estimation of scenario outputs for points of interest."""

    def __init__(
        self,
        simulation: Simulation,
        space: ParameterSpace,
        fingerprint_size: int = 10,
        chunk: int = 10,
        basis_store: Optional[BasisStore] = None,
        seed_bank: Optional[SeedBank] = None,
        estimator: Optional[Estimator] = None,
        task_heuristic: Optional[RoundRobinTaskHeuristic] = None,
        explore_heuristic: Optional[AdjacentExploreHeuristic] = None,
        adaptive: Optional[AdaptiveBudget] = None,
    ):
        if fingerprint_size < 2:
            raise InteractiveError(
                "interactive fingerprints need at least 2 samples"
            )
        if chunk < 1:
            raise InteractiveError("chunk must be positive")
        self.simulation = simulation
        self.space = space
        self.fingerprint_size = fingerprint_size
        self.chunk = chunk
        self.estimator = estimator or Estimator()
        # A repro.api.Session stands in for its store wherever a
        # basis_store is accepted (duck-typed: no core -> api import).
        if basis_store is not None and hasattr(
            basis_store, "resolve_basis_store"
        ):
            basis_store = basis_store.resolve_basis_store()
        # `is None`, not `or`: an empty BasisStore is falsy (len() == 0)
        # and `or` would silently replace a caller's configured store.
        if basis_store is None:
            basis_store = BasisStore(estimator=self.estimator)
        self.store = basis_store
        self.seed_bank = seed_bank or DEFAULT_SEED_BANK
        self.task_heuristic = task_heuristic or RoundRobinTaskHeuristic()
        self.explore_heuristic = explore_heuristic or AdjacentExploreHeuristic(
            space
        )
        self.adaptive = adaptive
        self._states: Dict[ParamKey, PointState] = {}
        self._focus: Optional[Dict[str, float]] = None

    # -- user-facing controls --------------------------------------------------

    def focus(self, point: Mapping[str, float]) -> None:
        """Point the session at a new parameter valuation (GUI slider move)."""
        self._focus = dict(point)
        state = self._state(self._focus)
        if state.basis_id is None:
            self._bootstrap(state)

    def tick(self) -> TickReport:
        """One pick-evaluate-update iteration of Algorithm 5."""
        if self._focus is None:
            raise InteractiveError("no focused point; call focus() first")
        task = self.task_heuristic.next_task(self._focus)
        if task == TASK_REFINEMENT:
            return self._do_refinement(self._focus)
        if task == TASK_VALIDATION:
            return self._do_validation(self._focus)
        if task == TASK_EXPLORATION:
            return self._do_exploration(self._focus)
        raise InteractiveError(f"task heuristic produced unknown task {task}")

    def run(self, ticks: int) -> List[TickReport]:
        """Run several iterations (the GUI's background loop)."""
        return [self.tick() for _ in range(ticks)]

    def estimate(self, point: Mapping[str, float]) -> Optional[MetricSet]:
        """Current best estimate for a point, or None if never visited."""
        state = self._states.get(param_key(point))
        if state is None or state.basis_id is None:
            return None
        basis = self.store.get(state.basis_id)
        assert state.mapping is not None
        return self.store.metrics_for(basis, state.mapping)

    def sample_count(self, point: Mapping[str, float]) -> int:
        """Effective samples behind a point's estimate (its basis size)."""
        state = self._states.get(param_key(point))
        if state is None or state.basis_id is None:
            return 0
        return int(self.store.get(state.basis_id).samples.size)

    # -- internals ----------------------------------------------------------

    def _state(self, point: Mapping[str, float]) -> PointState:
        key = param_key(point)
        if key not in self._states:
            self._states[key] = PointState(params=dict(point))
        return self._states[key]

    def _draw(self, state: PointState, sample_ids: List[int]) -> np.ndarray:
        values = []
        for sample_id in sample_ids:
            value = self.simulation(
                state.params, self.seed_bank.seed(sample_id)
            )
            state.samples[sample_id] = value
            values.append(value)
        return np.asarray(values, dtype=float)

    def _bootstrap(self, state: PointState) -> None:
        """Fingerprint a fresh point and attach it to a basis (FindMatch).

        The probe runs on the store's columnar match engine — the online
        loop shares :meth:`BasisStore.match` (the single-probe form of
        ``match_batch``) with the sweep explorers, so a session over a
        large shared store pays one vectorized kernel per probe rather
        than a per-candidate Python loop.
        """
        wanted = [
            i
            for i in range(self.fingerprint_size)
            if i not in state.samples
        ]
        self._draw(state, wanted)
        fingerprint = Fingerprint(
            tuple(state.samples[i] for i in range(self.fingerprint_size))
        )
        matched = self.store.match(fingerprint)
        if matched is not None:
            basis, mapping = matched
            state.basis_id = basis.basis_id
            state.mapping = mapping
        else:
            ordered = [state.samples[i] for i in sorted(state.samples)]
            basis = self.store.add(fingerprint, np.asarray(ordered))
            state.basis_id = basis.basis_id
            state.mapping = AffineMapping(1.0, 0.0)

    def _converged(self, state: PointState) -> bool:
        """Whether the point's mapped estimate satisfies the adaptive policy.

        Evaluated on the *mapped* metrics (what the user actually sees for
        this point), so a mapping with |α| > 1 keeps refining until the
        magnified interval fits, and a contracting mapping stops earlier.
        The basis size also stops refinement at ``max_samples`` when set —
        the interactive engine has no per-point fixed budget to cap at.
        """
        if self.adaptive is None or state.basis_id is None:
            return False
        basis = self.store.get(state.basis_id)
        assert state.mapping is not None
        if (
            self.adaptive.max_samples is not None
            and basis.samples.size >= self.adaptive.max_samples
        ):
            return True
        metrics = self.store.metrics_for(basis, state.mapping)
        return self.estimator.converged(metrics, self.adaptive)

    def _do_refinement(self, point: Dict[str, float]) -> TickReport:
        """Fresh samples for the focus, recycled into its basis via M⁻¹.

        Under an adaptive budget a converged point draws nothing — the
        tick reports ``samples_drawn=0`` and the event loop's effort is
        freed for validation/exploration of other points.
        """
        state = self._state(point)
        if state.basis_id is None:
            self._bootstrap(state)
        if self._converged(state):
            return TickReport(
                task=TASK_REFINEMENT, point=dict(point), samples_drawn=0
            )
        return TickReport(
            task=TASK_REFINEMENT,
            point=dict(point),
            samples_drawn=self._deepen(state),
        )

    def _deepen(self, state: PointState) -> int:
        """Draw one more chunk at an attached point and recycle it into
        its basis through M⁻¹; returns the number of samples drawn."""
        basis = self.store.get(state.basis_id)  # type: ignore[arg-type]
        next_id = int(basis.samples.size)
        sample_ids = list(range(next_id, next_id + self.chunk))
        values = self._draw(state, sample_ids)
        assert state.mapping is not None
        try:
            inverse = state.mapping.inverse()
        except MappingError:
            # Non-invertible mapping: refine the point privately by
            # spawning a dedicated basis seeded with everything known.
            self._rebind_from_scratch(state)
        else:
            self.store.extend_basis(basis.basis_id, inverse.apply_array(values))
        return len(sample_ids)

    def _do_validation(self, point: Dict[str, float]) -> TickReport:
        """Duplicate basis sample ids at the point; extend its fingerprint."""
        state = self._state(point)
        if state.basis_id is None:
            self._bootstrap(state)
        basis = self.store.get(state.basis_id)  # type: ignore[arg-type]
        known = set(state.samples)
        candidate_ids = [
            i for i in range(int(basis.samples.size)) if i not in known
        ][: self.chunk]
        if not candidate_ids:
            return TickReport(
                task=TASK_VALIDATION, point=dict(point), samples_drawn=0
            )
        values = self._draw(state, candidate_ids)
        assert state.mapping is not None
        expected = state.mapping.apply_array(basis.samples[candidate_ids])
        scale = max(float(np.abs(expected).max()), 1.0)
        rebound = False
        if not np.allclose(values, expected, rtol=1e-9, atol=1e-9 * scale):
            # The basis's samples no longer predict this point through the
            # recorded mapping — the basis is stale (model drift), not just
            # mis-bound.  Invalidate it so no future probe can match it.
            self._rebind_from_scratch(state, invalidate=True)
            rebound = True
        return TickReport(
            task=TASK_VALIDATION,
            point=dict(point),
            samples_drawn=len(candidate_ids),
            rebound=rebound,
        )

    def _do_exploration(self, point: Dict[str, float]) -> TickReport:
        """Prefetch an adjacent point likely to be focused next."""
        neighbor = self.explore_heuristic.next_point(point)
        if neighbor is None:
            return TickReport(
                task=TASK_EXPLORATION, point=dict(point), samples_drawn=0
            )
        state = self._state(neighbor)
        if state.basis_id is None:
            self._bootstrap(state)
            drawn = self.fingerprint_size
        elif self._converged(state):
            drawn = 0
        else:
            # Already attached: deepen its basis slightly.
            drawn = self._deepen(state)
        return TickReport(
            task=TASK_EXPLORATION, point=dict(neighbor), samples_drawn=drawn
        )

    def _rebind_from_scratch(
        self, state: PointState, invalidate: bool = False
    ) -> None:
        """FindMatch again after a failed validation; spawn a basis if none.

        With ``invalidate=True`` (the failed-validation path) the state's
        stale basis is first *removed from the store* — a basis whose
        samples stopped predicting a bound point is stale for every point,
        so leaving it matchable would keep serving drifted answers.  Any
        other point bound to it is unbound and re-bootstraps at its next
        tick.  Without the flag (the non-invertible-mapping refinement
        path) the basis itself is fine and stays.

        A fresh basis is built from the point's contiguous sample-id prefix
        so the invariant "basis sample index == global sample id" (which
        validation relies on) keeps holding.
        """
        if invalidate and state.basis_id is not None:
            stale_id = state.basis_id
            try:
                self.store.remove(stale_id)
            except KeyError:
                pass
            for other in self._states.values():
                if other.basis_id == stale_id:
                    other.basis_id = None
                    other.mapping = None
        fingerprint = Fingerprint(
            tuple(state.samples[i] for i in range(self.fingerprint_size))
        )
        matched = self.store.match(fingerprint)
        if matched is not None:
            basis, mapping = matched
            state.basis_id = basis.basis_id
            state.mapping = mapping
            return
        prefix: List[float] = []
        index = 0
        while index in state.samples:
            prefix.append(state.samples[index])
            index += 1
        basis = self.store.add(
            fingerprint, np.asarray(prefix, dtype=float)
        )
        state.basis_id = basis.basis_id
        state.mapping = AffineMapping(1.0, 0.0)
