"""Trajectory asymptotics: rescaled dual deviation, its limit, ODE residual,
saturated-span diagnostics and log-log rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DualPotential,
    InvalidInput,
    apply_A,
    apply_A_adjoint,
    bipartite_solve,
    check_positive_finite,
    component_roots,
    spanning_forest,
)
from .divergence import F_conj_hess_diag
from .exact_solver import ProjectionFailed
from .reg_solver import ode_terms

# sweep errors below this are solver noise and are excluded from rate fits
ERROR_FLOOR = 1e-12
# fewest usable points a rate fit takes
FIT_POINTS = 8


@dataclass
class TrajectoryPoint:
    t: float
    xi: DualPotential
    gamma: np.ndarray
    d: np.ndarray
    dual_err: float
    primal_err: float
    ode_residual: float
    entropy_val: float
    iters: int
    converged: bool
    flags: list
    log_gamma_off_max: float  # max over off-saturated entries of log gamma(t)


@dataclass
class RateFit:
    slope: float
    r2: float


def compute_d(xi_t, xi_star, t):
    """Rescaled dual deviation t (xi(t) - xi*), stacked over both clouds.

    xi_t holds stacked potentials and xi_star the stacked limit; rows of
    xi_t, with t an array of one value per row (a grid), give one deviation
    per row, and a point is one 1-D row with one t.
    """
    check_positive_finite(t, "t")
    return np.asarray(t)[..., None] * (xi_t - xi_star)


def _span_residual(N, m):
    """Relative norm of the part of m outside the saturated span (N: null basis)."""
    denom = np.linalg.norm(m)
    return float(np.linalg.norm(N.T @ m) / denom) if denom > 0 else 0.0


def e0_diagnostics(exact, shape):
    """(dim, relative residual of m*) of the saturated span E0 = range(A_{I0}).

    dim is n_x + n_y minus the number of connected components of the graph
    whose edges are I0; the residual is the part of m* outside E0, measured
    against the graph's null basis (`core.spanning_forest`).
    """
    _, N = spanning_forest(exact.I0, *shape)
    return N.shape[0] - N.shape[1], _span_residual(N, exact.m_star)


def solve_d_star(exact, div, shape):
    """Limit of the rescaled dual deviation.

    On the saturated set the limit plan is gamma* = exp(A* d*), so d* solves
    (A* z)_{I0} = log gamma*_{I0}.  One bipartite_solve on I0's grounded pair
    (unit weights G, diagonal apply_A(G) + core.component_roots) gives one
    solution z0; d* is the minimal weighted-norm point (weight
    grad^2 F*(-xi*)) of the affine solution set z0 + range(N).
    """
    if not exact.I0:
        raise InvalidInput("saturated set is empty")
    _, N = spanning_forest(exact.I0, *shape)
    residual = _span_residual(N, exact.m_star)
    if residual > 1e-6:
        raise ProjectionFailed(residual)
    G = np.zeros(shape)
    G[tuple(np.asarray(exact.I0, dtype=int).T)] = 1.0
    rhs = apply_A(np.log(np.where(G > 0, exact.gamma_star, 1.0)))
    z0 = bipartite_solve(G, apply_A(G) + component_roots(N), rhs)
    # minimal weighted norm over z0 + range(N): disjoint columns, diagonal system
    weights = F_conj_hess_diag(-exact.xi_star.stacked, div)
    return z0 + N @ (-(N.T @ (weights * z0)) / (weights @ N**2))


def ode_residual(xi, xi_dot, t, problem, plan=None, exponent=None):
    """Sup-norm of the trajectory ODE left-hand side at (xi, xi_dot, t).

    xi holds stacked potentials.  Rows of them, with xi_dot of the same
    shape and t an array of one value per row (a grid), give one residual
    per row; a point is one 1-D row with one t.  The penalty in the ODE's
    terms is problem.penalty, and `plan` and `exponent` are passed on to
    reg_solver.ode_terms: a caller that holds the plans or their exponents
    saves recomputing them, and `exponent` is overwritten.
    """
    check_positive_finite(t, "t")
    dot = np.asarray(xi_dot, dtype=float)
    n = problem.n_x + problem.n_y
    if dot.shape != xi.shape or dot.shape[-1:] != (n,) or not np.isfinite(dot).all():
        raise InvalidInput(f"xi_dot must be {n} finite stacked entries per point")
    if np.shape(t) not in ((), xi.shape[:-1]):
        raise InvalidInput("t must be one value, or one value per point")
    gamma, hess, forcing = ode_terms(xi, t, problem, plan, exponent)
    # the forcing is done with the exponent, so A* xi_dot may reuse it
    flow = apply_A_adjoint(dot, problem.n_x, out=exponent)
    flow *= gamma
    t = np.asarray(t)[..., None]
    lhs = apply_A(flow) + hess * dot / t + forcing / (t * t)
    return np.abs(lhs).max(axis=-1)


def ode_inhomogeneous_norm(xi, t, problem):
    """Sup-norm of the (1/t^2) A diag(gamma) log(gamma) forcing term."""
    check_positive_finite(t, "t")
    _, _, forcing = ode_terms(xi.stacked, t, problem)
    return float(np.max(np.abs(forcing / (t * t))))


def xi_dot_log_grid(ts, xs):
    """High-order derivative estimates d xi / dt at every interior grid point.

    ts must be geometric with at least 5 points, so log t is uniformly
    spaced; xs holds one stacked potential per grid point, as rows. Row j of
    the result is the estimate at ts[j + 1]: differentiated in log t with a
    fourth-order central stencil where the five-point window fits, and
    third-order one-sided at the first and last interior points.
    """
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n = len(ts)
    if n < 5:
        raise InvalidInput("derivative estimate needs at least 5 grid points")
    if xs.ndim != 2 or len(xs) != n:
        raise InvalidInput(f"derivative estimate needs {n} stacked potentials as rows")
    log_t = np.log(ts)
    steps = np.diff(log_t)
    h = float(steps.mean())
    # the steps of a geometric grid still differ by the rounding of t and of
    # log t, which 1e-8 h falls below once the grid is fine
    rounding = 4.0 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(log_t))))
    if float(np.max(np.abs(steps - h))) > 1e-8 * h + rounding:
        raise InvalidInput("derivative estimate needs a geometric grid")
    first = (-2.0 * xs[0] - 3.0 * xs[1] + 6.0 * xs[2] - xs[3]) / (6.0 * h)
    central = (xs[:-4] - 8.0 * xs[1:-3] + 8.0 * xs[3:-1] - xs[4:]) / (12.0 * h)
    last = (2.0 * xs[-1] + 3.0 * xs[-2] - 6.0 * xs[-3] + xs[-4]) / (6.0 * h)
    return np.vstack([first, central, last]) / ts[1:-1, None]


def fit_rate(t, err):
    """Least-squares slope of log(err) against log(t).

    t and err are arrays of one value per point.  The fit covers the upper
    half of the grid in log scale, or the whole grid when that half holds
    fewer than FIT_POINTS usable points.  Points at or below the numerical
    floor are excluded.
    """
    keep = err > ERROR_FLOOR
    if not keep.any():
        raise InvalidInput("no usable points above the numerical floor")
    ts, err = t[keep], err[keep]
    log_mid = 0.5 * (np.log(ts.min()) + np.log(ts.max()))
    lo = float(np.exp(log_mid))
    if np.sum(ts >= lo) < FIT_POINTS:
        # short series: widen to the whole grid rather than refuse
        lo = float(ts.min())
    sel = ts >= lo
    if sel.sum() < FIT_POINTS:
        raise InvalidInput(f"rate fit requires at least {FIT_POINTS} usable points")
    x = np.log(ts[sel])
    y = np.log(err[sel])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), r2=r2)


def fit_linear_decay(t, value):
    """Least-squares slope of a log-value against t (exponential decay rate).

    t and value are arrays, one t and one log-value per point, fitted over
    the upper half of the grid in log scale; returns the slope, so a value
    behaving like C exp(-k t) yields approximately -k.
    """
    log_mid = 0.5 * (np.log(t.min()) + np.log(t.max()))
    sel = t >= float(np.exp(log_mid))
    if sel.sum() < 2:
        raise InvalidInput("decay fit requires at least 2 points")
    slope, _ = np.polyfit(t[sel], value[sel], 1)
    return float(slope)
