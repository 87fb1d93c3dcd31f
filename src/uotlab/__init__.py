"""Desk-scale laboratory for entropic regularization of discrete unbalanced
optimal transport: regularized dual solves, exact reference solutions, and
empirical convergence-rate experiments."""

from .core import (
    DivergenceSpec,
    DualPotential,
    Problem,
    build_cost,
    discrete_entropy,
)
from .divergence import DivergenceF, csiszar, divergence_for, get_entropy
from .exact_solver import solve_exact
from .reg_solver import RegSolveConfig, solve_dual_t, solve_primal_t
from .sweep import SweepConfig, run_sweep

__all__ = [
    "DivergenceSpec",
    "DualPotential",
    "Problem",
    "build_cost",
    "discrete_entropy",
    "DivergenceF",
    "csiszar",
    "divergence_for",
    "get_entropy",
    "solve_exact",
    "RegSolveConfig",
    "solve_dual_t",
    "solve_primal_t",
    "SweepConfig",
    "run_sweep",
]

__version__ = "0.1.0"
