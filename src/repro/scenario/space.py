"""Parameter-space enumeration: the Parameter Enumerator of paper Figure 3.

The brute-force cartesian product over every non-chain parameter — necessary,
per the paper, to guarantee convergence to the global optimum for arbitrary
black boxes.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import JigsawError
from repro.scenario.parameter import ParameterSpec


class ParameterSpace:
    """The cartesian product of a list of parameter declarations."""

    def __init__(self, specs: Sequence[ParameterSpec]):
        names = [spec.name for spec in specs]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise JigsawError(
                f"duplicate parameter declarations: {sorted(duplicates)}"
            )
        self.specs = tuple(spec for spec in specs if not spec.is_chain)
        self.chain_specs = tuple(spec for spec in specs if spec.is_chain)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def size(self) -> int:
        total = 1
        for spec in self.specs:
            total *= len(spec)
        return total

    def points(self) -> Iterator[Dict[str, float]]:
        """Yield every parameter valuation as a name → value dict."""
        if not self.specs:
            yield {}
            return
        value_lists = [spec.values() for spec in self.specs]
        for combination in itertools.product(*value_lists):
            yield dict(zip(self.names, combination))

    def neighbors(
        self, point: Dict[str, float], parameter: str
    ) -> List[Dict[str, float]]:
        """Adjacent points along one parameter's declared value order.

        The interactive ExploreHeuristic (paper section 5) prefetches
        adjacent points in a discrete parameter space.
        """
        spec = self._spec(parameter)
        values = spec.values()
        try:
            position = values.index(point[parameter])
        except ValueError:
            raise JigsawError(
                f"point value {point[parameter]} is not in @{parameter}'s "
                "domain"
            ) from None
        result = []
        for offset in (-1, 1):
            neighbor_position = position + offset
            if 0 <= neighbor_position < len(values):
                neighbor = dict(point)
                neighbor[parameter] = values[neighbor_position]
                result.append(neighbor)
        return result

    def _spec(self, name: str) -> ParameterSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise JigsawError(f"unknown parameter @{name}")

    def __len__(self) -> int:
        return self.size()
