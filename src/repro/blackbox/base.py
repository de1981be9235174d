"""Stochastic black-box function protocol (paper sections 2.1 and 3.1).

A *black box* (the paper's simplified notion of an MCDB VG-Function) is a
stochastic function of a parameter point that produces one scalar sample per
invocation.  Jigsaw only ever interacts with black boxes by sampling, and it
makes them deterministic by supplying the pseudorandom seed explicitly:
``sample(params, seed)`` must be a pure function of ``(params, seed)``.

Markov-process models (section 4) additionally carry per-instance state; they
implement :class:`MarkovModel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Params = Mapping[str, float]
ParamKey = Tuple[Tuple[str, float], ...]

Number = Union[int, float]


def param_key(params: Params) -> ParamKey:
    """Canonical hashable form of a parameter point (sorted name/value pairs)."""
    return tuple(sorted((str(k), float(v)) for k, v in params.items()))


def _seed_array(seeds: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Seeds as a 1-D uint64 array (passed through when already one)."""
    if (
        isinstance(seeds, np.ndarray)
        and seeds.dtype == np.uint64
        and seeds.ndim == 1
    ):
        return seeds
    return np.atleast_1d(np.asarray(seeds, dtype=np.uint64))


class BlackBox(ABC):
    """A parameterized stochastic black-box function.

    Subclasses implement :meth:`_sample`; the public :meth:`sample` wrapper
    validates required parameters and counts invocations so benchmark
    harnesses can report machine-independent work.
    """

    #: Human-readable model name, e.g. ``"Demand"``.
    name: str = "BlackBox"

    #: Names of parameters the model requires in each ``params`` mapping.
    parameter_names: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._invocations = 0

    @property
    def invocations(self) -> int:
        """Total number of samples drawn from this box since construction."""
        return self._invocations

    def reset_invocations(self) -> None:
        self._invocations = 0

    def component_boxes(self) -> Tuple["BlackBox", ...]:
        """Direct child boxes this box samples from when it is sampled.

        Composite boxes must override this so work accounting (invocation
        counters) can be snapshotted and rolled back transitively, e.g.
        when a batched query evaluation falls back to the scalar path.
        """
        return ()

    def _require_params(self, params: Params) -> None:
        """Validate required parameters once per point (not once per sample)."""
        for name in self.parameter_names:
            if name not in params:
                raise KeyError(
                    f"{self.name} requires parameter {name!r}; "
                    f"got {sorted(params)}"
                )

    def sample(self, params: Params, seed: int) -> float:
        """Draw one sample at parameter point ``params`` using ``seed``.

        Deterministic: identical ``(params, seed)`` always yields the same
        value.  Raises ``KeyError`` if a required parameter is missing.
        """
        self._require_params(params)
        self._invocations += 1
        return float(self._sample(params, seed))

    def sample_batch(
        self, params: Params, seeds: Union[Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Draw one sample per seed at a single parameter point.

        Entry ``k`` is bit-identical to ``sample(params, seeds[k])``; the
        built-in boxes override :meth:`_sample_batch` to produce the whole
        vector with array arithmetic over shared standard draws.  Parameters
        are validated once for the entire batch.
        """
        self._require_params(params)
        seed_array = _seed_array(seeds)
        values = self._sample_batch(params, seed_array)
        if values is None:
            values = np.array(
                [float(self._sample(params, int(seed))) for seed in seed_array],
                dtype=np.float64,
            )
        else:
            values = np.asarray(values, dtype=np.float64)
        self._invocations += int(seed_array.shape[0])
        return values

    def sample_points(
        self,
        block: Sequence[Params],
        seeds: Union[Sequence[int], np.ndarray],
        rows: Optional[List[np.ndarray]] = None,
    ) -> np.ndarray:
        """Draw one sample per seed at every point of ``block``.

        Returns a ``len(block) x len(seeds)`` matrix whose row ``i`` is
        bit-identical to ``sample_batch(block[i], seeds)``, with
        invocations counted as that loop counts them.  Boxes whose points
        are cheap functions of the same standard draws override
        :meth:`_sample_points` to draw the whole block at once.  When the
        loop runs, it appends each row to ``rows`` (when given) as it is
        drawn, so a caller whose draw raised knows the rows before it.
        """
        seed_array = _seed_array(seeds)
        values = self._sample_points(block, seed_array) if block else None
        if values is None:
            rows = [] if rows is None else rows
            for params in block:
                rows.append(self.sample_batch(params, seed_array))
            return np.array(rows, dtype=np.float64).reshape(
                len(block), seed_array.shape[0]
            )
        self._invocations += len(block) * int(seed_array.shape[0])
        return np.asarray(values, dtype=np.float64)

    @abstractmethod
    def _sample(self, params: Params, seed: int) -> float:
        """Model-specific sampling logic."""

    def _sample_batch(
        self, params: Params, seeds: np.ndarray
    ) -> Optional[np.ndarray]:
        """Vectorized sampling hook; return None to use the scalar loop.

        Overrides must be bit-identical to the scalar path: build each
        variate from the same standard draws with the same location-scale
        arithmetic, in the same order.
        """
        return None

    def _sample_points(
        self, block: Sequence[Params], seeds: np.ndarray
    ) -> Optional[np.ndarray]:
        """Block sampling hook over a non-empty ``block``; return None to
        loop over :meth:`sample_batch`.

        Overrides must give each row the bits of :meth:`_sample_batch`,
        and return None for any block they cannot reproduce exactly —
        including one the loop would refuse, which then raises there.
        """
        return None

    def __call__(self, params: Params, seed: int) -> float:
        return self.sample(params, seed)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionBlackBox(BlackBox):
    """Adapter turning a plain ``f(params, seed) -> float`` into a BlackBox.

    If ``func`` samples other registered boxes, pass them as
    ``component_boxes`` so their invocation counters participate in
    transitive snapshot/rollback (see :meth:`BlackBox.component_boxes`).
    """

    def __init__(
        self,
        func,
        name: str = "",
        parameter_names: Tuple[str, ...] = (),
        component_boxes: Tuple[BlackBox, ...] = (),
    ):
        super().__init__()
        self._func = func
        self.name = name or getattr(func, "__name__", "FunctionBlackBox")
        self.parameter_names = parameter_names
        self._component_boxes = tuple(component_boxes)

    def component_boxes(self) -> Tuple[BlackBox, ...]:
        return self._component_boxes

    def _sample(self, params: Params, seed: int) -> float:
        return self._func(params, seed)


class MarkovModel(ABC):
    """A per-instance Markov process (paper section 4).

    The process evolves scalar per-instance state through discrete steps; the
    chain's randomness at (instance, step) comes from an externally supplied
    seed, keeping every trajectory reproducible.  ``output`` projects a state
    to the observable value that fingerprints compare.
    """

    name: str = "MarkovModel"

    def __init__(self) -> None:
        self._step_invocations = 0

    @property
    def step_invocations(self) -> int:
        """Number of single-instance step evaluations performed."""
        return self._step_invocations

    def reset_invocations(self) -> None:
        self._step_invocations = 0

    @abstractmethod
    def initial_state(self) -> float:
        """State every instance starts from at step 0."""

    def step(self, state: float, step_index: int, seed: int) -> float:
        """Advance one instance one step; deterministic in all arguments."""
        self._step_invocations += 1
        return float(self._step(state, step_index, seed))

    def step_batch(
        self,
        states: np.ndarray,
        step_index: int,
        seeds: Union[Sequence[int], np.ndarray],
        draws: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance many instances through one step as arrays.

        Entry ``i`` is bit-identical to ``step(states[i], step_index,
        seeds[i])``.  ``draws`` optionally carries standard draws
        precomputed by :meth:`plan_step_draws` for a block of steps, letting
        runners amortize stream seeding across steps.
        """
        state_array = np.asarray(states, dtype=np.float64)
        if (
            isinstance(seeds, np.ndarray)
            and seeds.dtype == np.uint64
            and seeds.ndim == 1
        ):
            seed_array = seeds
        else:
            seed_array = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
        if state_array.shape[0] != seed_array.shape[0]:
            raise ValueError("states and seeds must have equal length")
        advanced = self._step_batch(state_array, step_index, seed_array, draws)
        if advanced is None:
            advanced = np.array(
                [
                    float(self._step(float(state), step_index, int(seed)))
                    for state, seed in zip(state_array, seed_array)
                ],
                dtype=np.float64,
            )
        else:
            advanced = np.asarray(advanced, dtype=np.float64)
        self._step_invocations += int(state_array.shape[0])
        return advanced

    @abstractmethod
    def _step(self, state: float, step_index: int, seed: int) -> float:
        """Model-specific transition logic."""

    def _step_batch(
        self,
        states: np.ndarray,
        step_index: int,
        seeds: np.ndarray,
        draws: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Vectorized transition hook; return None to use the scalar loop."""
        return None

    def run_block(
        self,
        states: np.ndarray,
        start_step: int,
        seed_matrix: np.ndarray,
        draws: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance all instances through a block of steps in one call.

        Returns the ``(steps, instances)`` trajectory; row ``t`` holds the
        states after step ``start_step + t``, chained exactly like repeated
        :meth:`step_batch` calls (bit-identical results, one Python call for
        the whole block instead of one per step).
        """
        current = np.asarray(states, dtype=np.float64)
        seed_matrix = np.asarray(seed_matrix, dtype=np.uint64)
        steps = int(seed_matrix.shape[0])
        trajectory = np.empty((steps, current.shape[0]), dtype=np.float64)
        for offset in range(steps):
            step_index = start_step + offset
            advanced = self._step_batch(
                current,
                step_index,
                seed_matrix[offset],
                None if draws is None else draws[offset],
            )
            if advanced is None:
                advanced = np.array(
                    [
                        float(self._step(float(state), step_index, int(seed)))
                        for state, seed in zip(current, seed_matrix[offset])
                    ],
                    dtype=np.float64,
                )
            else:
                advanced = np.asarray(advanced, dtype=np.float64)
            trajectory[offset] = advanced
            current = trajectory[offset]
        self._step_invocations += steps * int(current.shape[0])
        return trajectory

    def plan_step_draws(
        self, seed_matrix: np.ndarray
    ) -> Optional[np.ndarray]:
        """Precompute standard draws for a (steps, instances) seed block.

        Runners pass row ``t`` of the result as ``step_batch``'s ``draws``
        for the block's t-th step.  Returning None (the default) makes
        :meth:`step_batch` derive its own draws per step.
        """
        return None

    def output(self, state: float, step_index: int) -> float:
        """Observable value of a state (defaults to the state itself)."""
        return state

    def output_batch(
        self, states: np.ndarray, step_index: int
    ) -> np.ndarray:
        """Vectorized :meth:`output` (fingerprint construction path)."""
        state_array = np.asarray(states, dtype=np.float64)
        if type(self).output is MarkovModel.output:
            return state_array.copy()
        return np.array(
            [float(self.output(float(state), step_index)) for state in state_array],
            dtype=np.float64,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class BlackBoxRegistry:
    """Name → black box lookup used by the query-language binder."""

    def __init__(self) -> None:
        self._boxes: Dict[str, BlackBox] = {}

    def register(self, box: BlackBox, name: Optional[str] = None) -> None:
        key = (name or box.name).lower()
        if key in self._boxes:
            raise ValueError(f"black box {key!r} already registered")
        self._boxes[key] = box

    def lookup(self, name: str) -> BlackBox:
        try:
            return self._boxes[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._boxes)) or "(none)"
            raise KeyError(
                f"unknown black box {name!r}; registered: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._boxes

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._boxes))
