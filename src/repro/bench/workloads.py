"""Workload definitions for every evaluation experiment (paper section 6).

Each figure's workload — the black box, its parameter space, and sampling
parameters — lives here so benchmarks, harness scripts, and tests share one
definition.  Defaults are scaled down from the paper's sizes (which target a
2011 C#/Ruby stack running for minutes); ``scale`` knobs let the harness run
paper-sized sweeps when wall-clock budget allows.  The paper's constants are
kept where stated: 1000 sample instances per point, fingerprint size 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.blackbox.base import BlackBox, Params
from repro.blackbox.capacity import CapacityModel
from repro.blackbox.demand import DemandModel
from repro.blackbox.markov_branch import MarkovBranchModel
from repro.blackbox.markov_step import MarkovStepModel
from repro.blackbox.overload import OverloadModel
from repro.blackbox.synth_basis import SynthBasisModel
from repro.blackbox.user_selection import UserSelectionModel

PAPER_SAMPLES_PER_POINT = 1000
PAPER_FINGERPRINT_SIZE = 10


@dataclass
class SweepWorkload:
    """A black box plus the parameter space the paper sweeps it over."""

    name: str
    box: BlackBox
    points: List[Dict[str, float]]
    samples_per_point: int = PAPER_SAMPLES_PER_POINT
    fingerprint_size: int = PAPER_FINGERPRINT_SIZE

    def simulation(self) -> Callable[[Params, int], float]:
        # The box itself: callable as a scalar ``(params, seed)`` simulation
        # and batch-capable via ``sample_batch`` (the explorers detect it).
        return self.box


def demand_workload(
    weeks: int = 52, features: Tuple[float, ...] = (12.0, 36.0, 44.0)
) -> SweepWorkload:
    """Demand over (week, feature release): ~5000 points at paper scale
    comes from a finer week grid; shape is identical at any density."""
    points = [
        {"current_week": float(week), "feature_release": float(feature)}
        for week in range(weeks + 1)
        for feature in features
    ]
    return SweepWorkload("Demand", DemandModel(), points)


def capacity_workload(
    weeks: int = 52, purchase_step: int = 4, structure_size: float = 2.0
) -> SweepWorkload:
    """Capacity over (week, purchase1, purchase2): ~8000 points at paper
    scale (52 × ~13 × ~13)."""
    purchase_weeks = list(range(0, weeks + 1, purchase_step))
    points = [
        {
            "current_week": float(week),
            "purchase1": float(p1),
            "purchase2": float(p2),
        }
        for week in range(weeks + 1)
        for p1 in purchase_weeks
        for p2 in purchase_weeks
    ]
    return SweepWorkload(
        "Capacity",
        CapacityModel(structure_size=structure_size),
        points,
    )


def overload_workload(
    weeks: int = 52, purchase_step: int = 4
) -> SweepWorkload:
    """Overload over (week, purchase1, purchase2).

    Capacity constants are tightened (base 10, +10 per purchase) so demand
    genuinely races capacity across much of the space: the interesting case
    where the boolean output's stochastic boundary regions defeat remapping
    and hold the speedup near the paper's ~2x (section 6.2).
    """
    purchase_weeks = list(range(0, weeks + 1, purchase_step))
    points = [
        {
            "current_week": float(week),
            "purchase1": float(p1),
            "purchase2": float(p2),
        }
        for week in range(weeks + 1)
        for p1 in purchase_weeks
        for p2 in purchase_weeks
    ]
    box = OverloadModel(
        capacity=CapacityModel(base_capacity=10.0, purchase_volume=10.0)
    )
    return SweepWorkload("Overload", box, points)


def user_selection_workload(
    weeks: int = 12, user_count: int = 500
) -> SweepWorkload:
    points = [{"current_week": float(week)} for week in range(weeks + 1)]
    return SweepWorkload(
        "UserSelect",
        UserSelectionModel(user_count=user_count),
        points,
    )


def synth_basis_workload(
    basis_count: int, point_count: int, work_per_sample: int = 1
) -> SweepWorkload:
    """Figures 10/11: a sweep engineered to create exactly ``basis_count``
    basis distributions across ``point_count`` points."""
    box = SynthBasisModel(
        basis_count=basis_count, work_per_sample=work_per_sample
    )
    # Visit residues round-robin so every basis is created early, then reused.
    points = [{"point": float(i)} for i in range(point_count)]
    return SweepWorkload(
        f"SynthBasis(b={basis_count})", box, points
    )


def markov_branch_model(branching: float) -> MarkovBranchModel:
    """Figure 12's synthetic diverging chain."""
    return MarkovBranchModel(branching=branching)


def markov_step_model(
    release_threshold: float = 30.0,
) -> MarkovStepModel:
    """Figure 8's MarkovStep process (Demand with a release dependency)."""
    return MarkovStepModel(release_threshold=release_threshold)
