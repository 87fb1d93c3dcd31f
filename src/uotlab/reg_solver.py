"""Damped-Newton solver for the regularized dual problem at a fixed t.

The regularized dual objective is

    K_t(xi) = F*(-xi) + sum_{x,y} (1/t) exp(t (phi_x + psi_y - c_{x,y})),

a smooth strictly convex function of the stacked potential.  Its minimizer
gives the primal plan through gamma = exp(t (A* xi - c)).

Warm starts are predicted from the trajectory: at a solved point the tangent
d xi/dt solves the trajectory ODE, and `predicted_start` extrapolates along
the expansion xi(t) = xi* + d/t to the next t.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DualPotential,
    InvalidInput,
    apply_A,
    bipartite_hessian,
    bipartite_solve,
    discrete_entropy,
    marginal_sums,
)
from .divergence import F_conj, F_conj_grad, F_conj_hess_diag, csiszar, divergence_for
from .newton import last_point_cache, newton_minimize

# exponent clamp keeping exp() representable; hit only on wild line-search
# trial points, never at accepted iterates of a warm-started sweep
EXP_MAX = 690.0
# cold starts at large t go through the continuation chain
# t = CONTINUATION_FROM * CONTINUATION_RATIO**k below the target t
CONTINUATION_FROM = 1.0
CONTINUATION_RATIO = 10.0
MAX_NEWTON_ITERS = 200


@dataclass
class RegSolveConfig:
    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise InvalidInput("grad_tol must be positive")


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


def plan_exponent(x, t, problem):
    """Exponent t (A* xi - c) of the plan at a stacked potential."""
    n_x = problem.n_x
    return t * (x[:n_x, None] + x[None, n_x:] - problem.cost)


def clamped_exp(exponent):
    """exp of a plan exponent, clamped at EXP_MAX so it stays representable."""
    return np.exp(np.minimum(exponent, EXP_MAX))


class _DualTerms(NamedTuple):
    plan: Callable
    value: Callable
    gradient: Callable
    hessian: Callable


def _dual_terms(problem, t, div=None):
    """Plan, value, gradient and Hessian of K_t, as functions of the stacked xi.

    The plan at a point is computed once and reused by the others at the same
    array.  The Hessian comes as the pair (t gamma, grad^2 F*(-xi)) standing
    for core.bipartite_hessian of it.
    """
    if not 0 < t < math.inf:
        raise InvalidInput("t must be positive and finite")
    div = divergence_for(problem) if div is None else div
    plan = last_point_cache(lambda x: clamped_exp(plan_exponent(x, t, problem)))

    def value(x):
        return F_conj(-x, div) + float(np.sum(plan(x))) / t

    def gradient(x):
        return -F_conj_grad(-x, div) + marginal_sums(plan(x))

    def hessian(x):
        return t * plan(x), F_conj_hess_diag(-x, div)

    return _DualTerms(plan, value, gradient, hessian)


def recover_primal(xi, t, problem):
    """Primal plan exp(t (A* xi - c)) associated with a dual point."""
    if not 0 < t < math.inf:
        raise InvalidInput("t must be positive and finite")
    problem.check_shapes(xi)
    return clamped_exp(plan_exponent(xi.stacked, t, problem))


def kantorovich_eval(xi, t, problem, div=None):
    """Value of the regularized dual objective K_t at xi."""
    problem.check_shapes(xi)
    return _dual_terms(problem, t, div).value(xi.stacked)


def kantorovich_grad(xi, t, problem, div=None):
    """Gradient of K_t as a stacked vector: -grad F*(-xi) + A gamma."""
    problem.check_shapes(xi)
    return _dual_terms(problem, t, div).gradient(xi.stacked)


def kantorovich_hess(xi, t, problem, div=None):
    """Hessian of K_t: diag(grad^2 F*(-xi)) + t A diag(gamma) A*."""
    problem.check_shapes(xi)
    return bipartite_hessian(*_dual_terms(problem, t, div).hessian(xi.stacked))


def _newton_solve(problem, t, config, xi0, div):
    # the kernel works on the stacked potential, and each trial point's plan
    # is computed once, by the value
    terms = _dual_terms(problem, t, div)
    x, val, grad, iters, flags = newton_minimize(
        terms.value,
        terms.gradient,
        terms.hessian,
        xi0.stacked,
        config.grad_tol,
        MAX_NEWTON_ITERS,
    )
    gnorm = float(np.max(np.abs(grad)))
    if np.any(plan_exponent(x, t, problem) > EXP_MAX):
        flags.append("exp-clamped")
    return RegSolution(
        t=t,
        xi=DualPotential.from_stacked(x, problem.n_x),
        gamma=terms.plan(x),
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
    moderate, matching the bounded rescaled-deviation regime).  Each stage of
    the chain starts from `predicted_start` of the one before.
    """
    if not 0 < t < math.inf:
        raise InvalidInput("t must be positive and finite")
    config = config or RegSolveConfig()
    div = divergence_for(problem)
    if init is not None:
        problem.check_shapes(init)
        return _newton_solve(problem, t, config, init, div)
    xi = DualPotential.zeros(problem.n_x, problem.n_y)
    t_cur = CONTINUATION_FROM
    while t_cur < t:
        sol = _newton_solve(problem, t_cur, config, xi, div)
        t_cur *= CONTINUATION_RATIO
        xi = predicted_start(problem, sol, min(t_cur, t), div)
    return _newton_solve(problem, t, config, xi, div)


def ode_terms(x, t, problem, div):
    """Plan gamma, grad^2 F*(-xi) and forcing A(gamma log gamma) at a stacked xi.

    Differentiating the stationarity condition of K_t in t gives the
    trajectory ODE
        A(gamma A* xi_dot) + grad^2 F*(-xi) xi_dot / t + A(gamma log gamma) / t^2 = 0,
    whose coefficients these are.
    """
    log_g = plan_exponent(x, t, problem)
    gamma = clamped_exp(log_g)
    return gamma, F_conj_hess_diag(-x, div), marginal_sums(gamma * log_g)


def trajectory_tangent(problem, sol, div=None):
    """Stacked d xi/dt at a solved point, from the trajectory ODE.

    The ODE (see ode_terms) reads H xi_dot = -A(gamma log gamma) / t, with H
    the Hessian of K_t at the solution; one Schur-complement solve on its
    pair (t gamma, grad^2 F*(-xi)).
    """
    div = divergence_for(problem) if div is None else div
    gamma, d, forcing = ode_terms(sol.xi.stacked, sol.t, problem, div)
    n_x = problem.n_x
    return bipartite_solve(sol.t * gamma, d[:n_x], d[n_x:], -forcing / sol.t)


def predicted_start(problem, sol, t, div=None):
    """Warm start for t from a solution at s = sol.t.

    xi(t) = xi* + d/t matched to the value and tangent at s predicts
    xi(t) = xi(s) + (1 - s/t) s xi_dot(s).
    """
    s = sol.t
    step = (1.0 - s / t) * s * trajectory_tangent(problem, sol, div)
    return DualPotential.from_stacked(sol.xi.stacked + step, problem.n_x)


def solve_primal_t(problem, t, config=None, init=None):
    """Solve the dual at t and return the recovered primal plan."""
    sol = solve_dual_t(problem, t, config=config, init=init)
    return sol.gamma


def primal_objective(gamma, problem, t=None):
    """Transport cost plus marginal penalty, plus the entropy term when t is given."""
    div = divergence_for(problem)
    p = apply_A(gamma).stacked
    val = float(np.sum(problem.cost * gamma)) + csiszar(p, div.q, div.entropy)
    if t is not None:
        val += discrete_entropy(gamma) / t
    return val

