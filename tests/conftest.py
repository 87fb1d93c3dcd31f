"""Shared fixtures: tiny closed-form instances and random problem factories."""

import os

# one BLAS thread, set before numpy loads BLAS: on a small machine several
# threads make the n_x = 240 factorizations several times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from uotlab import reg_solver
from uotlab.core import DivergenceSpec, Problem, apply_A_adjoint
from uotlab.divergence import F_conj, divergence_for


def make_1x1(c=1.0, kind="kl", mass=1.0):
    """The 1-point instance with every quantity available in closed form."""
    return Problem(
        points_x=[[0.0]],
        points_y=[[0.0]],
        mu=[mass],
        nu=[mass],
        cost=[[c]],
        divergence=DivergenceSpec(kind=kind),
        cost_kind="explicit",
    )


def random_problem(rng, n_x=None, n_y=None, kind="kl", max_n=3):
    """Small random instance with strictly positive weights and O(1) costs."""
    n_x = n_x or int(rng.integers(1, max_n + 1))
    n_y = n_y or int(rng.integers(1, max_n + 1))
    px = rng.random((n_x, 2))
    py = rng.random((n_y, 2))
    mu = rng.uniform(0.3, 2.0, n_x)
    nu = rng.uniform(0.3, 2.0, n_y)
    cost = rng.uniform(0.1, 2.0, (n_x, n_y))
    return Problem(
        px, py, mu, nu, cost,
        divergence=DivergenceSpec(kind=kind),
        cost_kind="explicit",
    )


def use_unscaled_chain(monkeypatch):
    """Make solve_dual_t's cold chain start each stage at its tangent
    prediction as it is, and solve every stage to the full grad_tol.

    The shipped chain scales those starts and loosens the stages below the
    target t; this plain chain is the one that needs the Newton ridge at
    scale, so tests drive the ridge and seed-nonconverged paths through it.
    """
    monkeypatch.setattr(reg_solver, "scaled_start", lambda problem, t, x: x)
    monkeypatch.setattr(reg_solver, "CHAIN_RTOL", 0.0)


def marginal_matrix(n_x, n_y):
    """Dense matrix of the marginal operator in the canonical plan basis.

    Columns are indexed by plan entries in row-major order; used only for
    small cross-checks.
    """
    A = np.zeros((n_x + n_y, n_x * n_y))
    for i in range(n_x):
        for j in range(n_y):
            k = i * n_y + j
            A[i, k] = 1.0
            A[n_x + j, k] = 1.0
    return A


def coercivity_floor(xi, problem, div=None):
    """Lower bound F*(-xi) + sum (A* xi - c)_+ valid for K_t at every t."""
    div = divergence_for(problem) if div is None else div
    excess = apply_A_adjoint(xi.stacked, problem.n_x) - problem.cost
    return F_conj(-xi.stacked, div) + float(np.sum(np.maximum(excess, 0.0)))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def one_by_one_kl():
    return make_1x1(c=1.0, kind="kl")
