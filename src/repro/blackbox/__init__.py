"""Stochastic black-box functions: the protocol plus the paper's Figure 6 models."""

from repro.blackbox.base import (
    BlackBox,
    BlackBoxRegistry,
    FunctionBlackBox,
    MarkovModel,
    Params,
    param_key,
)
from repro.blackbox.capacity import CapacityModel
from repro.blackbox.demand import DemandModel
from repro.blackbox.draws import DEFAULT_DRAW_CACHE, StandardDrawCache
from repro.blackbox.markov_branch import MarkovBranchModel
from repro.blackbox.markov_step import MarkovStepModel
from repro.blackbox.overload import OverloadModel
from repro.blackbox.rng import DeterministicRng
from repro.blackbox.synth_basis import SynthBasisModel
from repro.blackbox.user_selection import UserSelectionModel

__all__ = [
    "BlackBox",
    "BlackBoxRegistry",
    "FunctionBlackBox",
    "MarkovModel",
    "Params",
    "param_key",
    "CapacityModel",
    "DemandModel",
    "DEFAULT_DRAW_CACHE",
    "StandardDrawCache",
    "MarkovBranchModel",
    "MarkovStepModel",
    "OverloadModel",
    "DeterministicRng",
    "SynthBasisModel",
    "UserSelectionModel",
]


def default_registry() -> BlackBoxRegistry:
    """Registry with the Figure 6 models under their paper names."""
    registry = BlackBoxRegistry()
    registry.register(DemandModel(), "DemandModel")
    registry.register(CapacityModel(), "CapacityModel")
    registry.register(OverloadModel(), "OverloadModel")
    registry.register(UserSelectionModel(user_count=100), "UserSelectionModel")
    registry.register(SynthBasisModel(), "SynthBasisModel")
    return registry
