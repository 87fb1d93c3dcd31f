"""Trajectory asymptotics: rescaled dual deviation, its limit, ODE residual,
saturated-span diagnostics and log-log rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DualPotential,
    InvalidInput,
    apply_A,
    incidence_columns,
    spanning_forest,
)
from .divergence import F_conj_hess_diag, divergence_for
from .exact_solver import ProjectionFailed
from .reg_solver import ode_terms

# sweep errors below this are solver noise and are excluded from rate fits
ERROR_FLOOR = 1e-12


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
    intercept: float
    r2: float
    t_window: tuple
    n_points: int


def compute_d(xi_t, xi_star, t):
    """Rescaled dual deviation t (xi(t) - xi*), stacked over both clouds."""
    if t <= 0:
        raise InvalidInput("t must be positive")
    return t * (xi_t.stacked - xi_star.stacked)


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
    return N.shape[0] - N.shape[1], _span_residual(N, exact.m_star.stacked)


def solve_d_star(exact, div, shape):
    """Limit of the rescaled dual deviation.

    On the saturated set the limit plan is gamma* = exp(A* d*), so d* solves
    (A* z)_{I0} = log gamma*_{I0}.  A least-squares lift gives the solution
    in the saturated span; d* is the minimal weighted-norm point (weight
    grad^2 F*(-xi*)) of the affine solution set.
    """
    if not exact.I0:
        raise InvalidInput("saturated set is empty")
    B = incidence_columns(exact.I0, *shape)
    _, N = spanning_forest(exact.I0, *shape)
    residual = _span_residual(N, exact.m_star.stacked)
    if residual > 1e-6:
        raise ProjectionFailed(residual)
    rows, cols = np.asarray(exact.I0, dtype=int).T
    z0, *_ = np.linalg.lstsq(B.T, np.log(exact.gamma_star[rows, cols]), rcond=None)
    # minimal weighted norm over z0 + (orthogonal complement of the span)
    weights = F_conj_hess_diag(-exact.xi_star.stacked, div)
    u = np.linalg.solve(N.T @ (weights[:, None] * N), -N.T @ (weights * z0))
    return z0 + N @ u


def ode_residual(xi, xi_dot, t, problem, div=None):
    """Sup-norm of the trajectory ODE left-hand side at (xi, xi_dot, t)."""
    if t <= 0:
        raise InvalidInput("t must be positive")
    div = divergence_for(problem) if div is None else div
    gamma, hess, forcing = ode_terms(xi.stacked, t, problem, div)
    dot = np.asarray(xi_dot, dtype=float)
    n_x = problem.n_x
    lhs = (
        apply_A(gamma * (dot[:n_x, None] + dot[None, n_x:])).stacked
        + hess * dot / t
        + forcing / (t * t)
    )
    return float(np.max(np.abs(lhs)))


def ode_inhomogeneous_norm(xi, t, problem):
    """Sup-norm of the (1/t^2) A diag(gamma) log(gamma) forcing term."""
    _, _, forcing = ode_terms(xi.stacked, t, problem, divergence_for(problem))
    return float(np.max(np.abs(forcing / (t * t))))


def xi_dot_log_grid(ts, xis, k):
    """High-order derivative estimate d xi / dt at grid index k.

    ts must be geometric with at least 5 points, so log t is uniformly
    spaced; differentiates in log t with a fourth-order central stencil where
    the five-point window fits, and third-order one-sided at the first and
    last interior indices.
    """
    n = len(ts)
    if not 0 < k < n - 1:
        raise InvalidInput("derivative estimate needs an interior index")
    if n < 5:
        raise InvalidInput("derivative estimate needs at least 5 grid points")
    s = np.log(np.asarray(ts, dtype=float))
    steps = np.diff(s)
    h = float(steps.mean())
    if float(np.max(np.abs(steps - h))) > 1e-8 * h:
        raise InvalidInput("derivative estimate needs a geometric grid")

    # stack only the potentials the stencil reads
    def at(i):
        return xis[i].stacked

    if 2 <= k <= n - 3:
        ds = (
            at(k - 2) - 8.0 * at(k - 1) + 8.0 * at(k + 1) - at(k + 2)
        ) / (12.0 * h)
    elif k == 1:
        ds = (-2.0 * at(0) - 3.0 * at(1) + 6.0 * at(2) - at(3)) / (6.0 * h)
    else:  # k == n - 2
        ds = (
            2.0 * at(n - 1) + 3.0 * at(n - 2) - 6.0 * at(n - 3) + at(n - 4)
        ) / (6.0 * h)
    return ds / ts[k]


def fit_rate(series):
    """Least-squares slope of log(err) against log(t).

    `series` is a list of (t, err) pairs.  The fit covers the upper half of
    the grid in log scale, or the whole grid when that half holds fewer than
    8 usable points.  Points at or below the numerical floor are excluded.
    """
    pts = [(t, e) for t, e in series if e > ERROR_FLOOR]
    if not pts:
        raise InvalidInput("no usable points above the numerical floor")
    ts = np.array([p[0] for p in pts])
    log_mid = 0.5 * (np.log(ts.min()) + np.log(ts.max()))
    lo, hi = float(np.exp(log_mid)), float(ts.max())
    if np.sum(ts >= lo) < 8:
        # short series: widen to the whole grid rather than refuse
        lo = float(ts.min())
    sel = ts >= lo
    if sel.sum() < 8:
        raise InvalidInput("rate fit requires at least 8 usable points")
    x = np.log(ts[sel])
    y = np.log(np.array([p[1] for p in pts])[sel])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        t_window=(lo, hi),
        n_points=int(sel.sum()),
    )


def fit_linear_decay(series):
    """Least-squares slope of log-value against t (exponential decay rate).

    `series` is a list of (t, log_value) pairs, fitted over the upper half
    of the grid in log scale; returns the slope, so a value behaving like
    C exp(-k t) yields approximately -k.
    """
    ts = np.array([p[0] for p in series])
    ys = np.array([p[1] for p in series])
    log_mid = 0.5 * (np.log(ts.min()) + np.log(ts.max()))
    sel = ts >= float(np.exp(log_mid))
    if sel.sum() < 2:
        raise InvalidInput("decay fit requires at least 2 points")
    slope, _ = np.polyfit(ts[sel], ys[sel], 1)
    return float(slope)
