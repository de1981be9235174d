"""Benchmark engines, workloads, and figure-reproduction runners."""

from repro.bench.engines import CoreEngine, EngineRun, WrapperEngine, default_query_for
from repro.bench.figures import (
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
)
from repro.bench.harness import FigureResult, Series
from repro.bench.workloads import (
    PAPER_FINGERPRINT_SIZE,
    PAPER_SAMPLES_PER_POINT,
    SweepWorkload,
    capacity_workload,
    demand_workload,
    markov_branch_model,
    markov_step_model,
    overload_workload,
    synth_basis_workload,
    user_selection_workload,
)

__all__ = [
    "CoreEngine",
    "EngineRun",
    "WrapperEngine",
    "default_query_for",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "FigureResult",
    "Series",
    "PAPER_FINGERPRINT_SIZE",
    "PAPER_SAMPLES_PER_POINT",
    "SweepWorkload",
    "capacity_workload",
    "demand_workload",
    "markov_branch_model",
    "markov_step_model",
    "overload_workload",
    "synth_basis_workload",
    "user_selection_workload",
]
