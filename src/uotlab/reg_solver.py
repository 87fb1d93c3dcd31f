"""Damped-Newton solver for the regularized dual problem at a fixed t.

The regularized dual objective is

    K_t(xi) = F*(-xi) + sum_{x,y} (1/t) exp(t (phi_x + psi_y - c_{x,y})),

a smooth strictly convex function of the stacked potential.  Its minimizer
gives the primal plan through gamma = exp(t (A* xi - c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DualPotential,
    InvalidInput,
    apply_A,
    apply_A_adjoint,
    bipartite_hessian,
    discrete_entropy,
)
from .divergence import F_conj, F_conj_grad, F_conj_hess_diag, F_value, divergence_for
from .newton import newton_minimize

# exponent clamp keeping exp() representable; hit only on wild line-search
# trial points, never at accepted iterates of a warm-started sweep
EXP_MAX = 690.0


@dataclass
class RegSolveConfig:
    grad_tol: float = 1e-10
    max_newton_iters: int = 200
    armijo_slope: float = 1e-4
    backtrack: float = 0.5
    hess_ridge: float = 0.0
    # cold starts at large t go through a geometric continuation chain
    continuation_from: float = 1.0
    continuation_ratio: float = 10.0

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise InvalidInput("grad_tol must be positive")
        if not 0 < self.backtrack < 1:
            raise InvalidInput("backtrack factor must lie in (0, 1)")


@dataclass
class RegSolution:
    t: float
    xi: DualPotential
    gamma: np.ndarray
    kan_value: float
    iters: int
    grad_norm: float
    converged: bool
    flags: list = field(default_factory=list)


def _log_gamma(xi, t, problem):
    return t * (apply_A_adjoint(xi) - problem.cost)


def _gamma_from(xi, t, problem):
    return np.exp(np.minimum(_log_gamma(xi, t, problem), EXP_MAX))


def recover_primal(xi, t, problem):
    """Primal plan exp(t (A* xi - c)) associated with a dual point."""
    if t <= 0:
        raise InvalidInput("t must be positive")
    problem.check_shapes(xi=xi)
    return _gamma_from(xi, t, problem)


def kantorovich_eval(xi, t, problem, div=None):
    """Value of the regularized dual objective K_t at xi."""
    if t <= 0:
        raise InvalidInput("t must be positive")
    div = divergence_for(problem) if div is None else div
    expo = _log_gamma(xi, t, problem)
    penalty = float(np.sum(np.exp(np.minimum(expo, EXP_MAX)))) / t
    return F_conj(-xi.stacked, div) + penalty


def kantorovich_grad(xi, t, problem, div=None):
    """Gradient of K_t as a stacked vector: -grad F*(-xi) + A gamma."""
    if t <= 0:
        raise InvalidInput("t must be positive")
    div = divergence_for(problem) if div is None else div
    gamma = _gamma_from(xi, t, problem)
    return -F_conj_grad(-xi.stacked, div) + apply_A(gamma).stacked


def kantorovich_hess(xi, t, problem, div=None):
    """Hessian of K_t: diag(grad^2 F*(-xi)) + t A diag(gamma) A*."""
    if t <= 0:
        raise InvalidInput("t must be positive")
    div = divergence_for(problem) if div is None else div
    gamma = _gamma_from(xi, t, problem)
    return bipartite_hessian(gamma, F_conj_hess_diag(-xi.stacked, div), scale=t)


def _newton_solve(problem, t, config, xi0, div):
    n_x = problem.n_x

    def at(x):
        return DualPotential.from_stacked(x, n_x)

    x, val, grad, iters, flags = newton_minimize(
        lambda x: kantorovich_eval(at(x), t, problem, div),
        lambda x: kantorovich_grad(at(x), t, problem, div),
        lambda x: kantorovich_hess(at(x), t, problem, div),
        xi0.stacked,
        config.grad_tol,
        config.max_newton_iters,
        armijo_slope=config.armijo_slope,
        backtrack=config.backtrack,
        ridge=config.hess_ridge,
    )
    xi = at(x)
    gnorm = float(np.max(np.abs(grad)))
    if np.any(_log_gamma(xi, t, problem) > EXP_MAX):
        flags.append("exp-clamped")
    return RegSolution(
        t=t,
        xi=xi,
        gamma=_gamma_from(xi, t, problem),
        kan_value=val,
        iters=iters,
        grad_norm=gnorm,
        converged=gnorm <= config.grad_tol,
        flags=flags,
    )


def solve_dual_t(problem, t, config=None, init=None):
    """Minimize K_t by damped Newton with Armijo backtracking.

    `init` is a DualPotential warm start; cold starts at zeros, with a
    geometric continuation chain in t when t is large (keeps exponents
    moderate, matching the bounded rescaled-deviation regime).
    """
    if t <= 0:
        raise InvalidInput("t must be positive")
    config = config or RegSolveConfig()
    div = divergence_for(problem)
    if np.any(problem.q <= 0) and np.isinf(div.entropy.recession()):
        raise InvalidInput("reference weights must be strictly positive")
    if init is not None:
        return _newton_solve(problem, t, config, init, div)
    xi = DualPotential.zeros(problem.n_x, problem.n_y)
    t_cur = config.continuation_from
    sol = None
    while t_cur < t:
        sol = _newton_solve(problem, t_cur, config, xi, div)
        xi = sol.xi
        t_cur *= config.continuation_ratio
    return _newton_solve(problem, t, config, xi, div)


def solve_primal_t(problem, t, config=None, init=None):
    """Solve the dual at t and return the recovered primal plan."""
    sol = solve_dual_t(problem, t, config=config, init=init)
    return sol.gamma


def primal_objective(gamma, problem, t=None):
    """Transport cost plus marginal penalty, plus the entropy term when t is given."""
    div = divergence_for(problem)
    val = float(np.sum(problem.cost * gamma)) + F_value(apply_A(gamma).stacked, div)
    if t is not None:
        val += discrete_entropy(gamma) / t
    return val


def coercivity_floor(xi, problem, div=None):
    """Lower bound F*(-xi) + sum (A* xi - c)_+ valid for K_t at every t."""
    div = divergence_for(problem) if div is None else div
    excess = apply_A_adjoint(xi) - problem.cost
    return F_conj(-xi.stacked, div) + float(np.sum(np.maximum(excess, 0.0)))
