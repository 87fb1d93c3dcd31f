"""Desk-scale laboratory for entropic regularization of discrete unbalanced
optimal transport: regularized dual solves, exact reference solutions, and
empirical convergence-rate experiments."""

import os

# one BLAS thread unless the environment sets one, before the first import
# loads numpy and numpy loads BLAS: on a small machine several threads make
# the factorizations several times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .core import (  # noqa: E402
    DivergenceSpec,
    DualPotential,
    Problem,
    build_cost,
    discrete_entropy,
)
from .divergence import DivergenceF, csiszar, divergence_for, get_entropy  # noqa: E402
from .exact_solver import solve_exact  # noqa: E402
from .reg_solver import RegSolveConfig, solve_dual_t, solve_primal_t  # noqa: E402
from .sweep import SweepConfig, run_sweep  # noqa: E402

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
