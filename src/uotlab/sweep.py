"""t-sweeps with warm starts, error diagnostics and CSV emission.

Only the first point (index 0) is solved cold. The expansion
xi(t) = xi* + d*/t + ... makes the trajectory smooth in u = 1/t, so from index
HISTORY on each start is the Lagrange extrapolation in u through the last
HISTORY solved points; points 1 to HISTORY - 1 start from the trajectory
tangent of the previous solution (`reg_solver.predicted_start`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    RateFit,
    TrajectoryPoint,
    compute_d,
    e0_diagnostics,
    fit_linear_decay,
    fit_rate,
    ode_residual,
    solve_d_star,
    xi_dot_log_grid,
)
from .core import DualPotential, InvalidInput, discrete_entropy
from .exact_solver import solve_exact
from .reg_solver import RegSolveConfig, plan_exponent, predicted_start, solve_dual_t

CSV_HEADER = "t,dual_err,primal_err,ode_residual,entropy,iters,flags"
# gradient tolerance of the sweep's solves (the CLI `solve` default is 1e-10)
GRAD_TOL = 1e-12
# solved points through which each later start is extrapolated (degree 4 in 1/t)
HISTORY = 5


@dataclass
class SweepConfig:
    t_min: float = 1.0
    t_max: float = 1e4
    n_points: int = 60

    def __post_init__(self):
        for name, kind, what in (
            ("t_min", numbers.Real, "a real number"),
            ("t_max", numbers.Real, "a real number"),
            ("n_points", numbers.Integral, "an integer"),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise InvalidInput(f"{name} must be {what}, got {value!r}")
        if not 0 < self.t_min < self.t_max < math.inf:
            raise InvalidInput("need 0 < t_min < t_max < inf")
        if self.n_points < 8:
            raise InvalidInput("sweep needs at least 8 points")


@dataclass
class SweepResult:
    points: list
    exact: object
    dual_fit: RateFit
    primal_fit: RateFit
    d_star: np.ndarray
    dim_e0: int
    e0_residual: float
    off_support_slope: float | None


def t_grid(config):
    return np.geomspace(config.t_min, config.t_max, config.n_points)


def extrapolation_weights(u):
    """Weights w with p(u[-1]) = sum_i w_i p(u[i]) over i < len(u) - 1, for
    every polynomial p of degree below len(u) - 1 (Lagrange extrapolation)."""
    nodes, target = u[:-1], u[-1]
    w = np.ones(len(nodes))
    for i, ui in enumerate(nodes):
        for m, um in enumerate(nodes):
            if m != i:
                w[i] *= (target - um) / (ui - um)
    return w


def run_sweep(problem, config=None, exact=None):
    """Solve exact once, then warm-start the regularized solves up the grid.

    The trajectory is one array xs, whose row k is the stacked solution at
    grid[k]. Points 1 to HISTORY - 1 start from the tangent prediction of the
    previous solution; every later point from the extrapolation in 1/t through
    the last HISTORY rows. The grid is geometric, so the weights are the same
    at every point and are computed once, and one xi_dot_log_grid call over xs
    gives the derivative for every interior point's ODE residual.
    """
    config = config or SweepConfig()
    if exact is None:
        exact = solve_exact(problem)
    shape = (problem.n_x, problem.n_y)
    gamma_star = exact.gamma_star
    off_mask = np.ones(shape, dtype=bool)
    for i, j in exact.I0:
        off_mask[i, j] = False

    reg_cfg = RegSolveConfig(grad_tol=GRAD_TOL)
    grid = t_grid(config)
    weights = extrapolation_weights(1.0 / grid[: HISTORY + 1])
    xs = np.empty((len(grid), problem.n_x + problem.n_y))
    sols = []
    for k, t in enumerate(grid.tolist()):
        if k == 0:
            init = None
        elif k < HISTORY:
            init = predicted_start(problem, sols[-1], t)
        else:
            past = xs[k - HISTORY : k]
            init = DualPotential.from_stacked(weights @ past, problem.n_x)
        sols.append(solve_dual_t(problem, t, reg_cfg, init=init))
        xs[k] = sols[-1].xi.stacked
    xi_dots = xi_dot_log_grid(grid, xs)

    points = []
    for k, (t, sol) in enumerate(zip(grid, sols)):
        xi = sol.xi
        d = compute_d(xi, exact.xi_star, t)
        dual_err = float(np.linalg.norm(xs[k] - exact.xi_star.stacked))
        primal_err = float(np.linalg.norm(sol.gamma - gamma_star))
        resid = float("nan")
        if 0 < k < len(grid) - 1:
            resid = ode_residual(xi, xi_dots[k - 1], t, problem)
        log_g = plan_exponent(xs[k], t, problem)
        off_max = float(log_g[off_mask].max()) if off_mask.any() else float("nan")
        points.append(
            TrajectoryPoint(
                t=float(t),
                xi=xi,
                gamma=sol.gamma,
                d=d,
                dual_err=dual_err,
                primal_err=primal_err,
                ode_residual=resid,
                entropy_val=discrete_entropy(sol.gamma),
                iters=sol.iters,
                converged=sol.converged,
                flags=list(sol.flags),
                log_gamma_off_max=off_max,
            )
        )

    usable = [p for p in points if p.converged]
    dual_fit = fit_rate([(p.t, p.dual_err) for p in usable])
    primal_fit = fit_rate([(p.t, p.primal_err) for p in usable])
    d_star = solve_d_star(exact, problem.penalty, shape)
    dim_e0, e0_res = e0_diagnostics(exact, shape)
    off_slope = None
    if off_mask.any():
        off_slope = fit_linear_decay(
            [(p.t, p.log_gamma_off_max) for p in usable]
        )
    return SweepResult(
        points=points,
        exact=exact,
        dual_fit=dual_fit,
        primal_fit=primal_fit,
        d_star=d_star,
        dim_e0=dim_e0,
        e0_residual=e0_res,
        off_support_slope=off_slope,
    )


def _fmt(x):
    # repr gives the shortest decimal that round-trips a double
    return repr(float(x))


def emit_csv(points, path):
    """One row per sweep point, shortest round-trip float formatting."""
    if not points:
        raise InvalidInput("empty sweep series")
    lines = [CSV_HEADER]
    for p in points:
        flags = "|".join(p.flags) if p.flags else "ok"
        if not p.converged:
            flags += "|nonconverged"
        lines.append(
            ",".join(
                [
                    _fmt(p.t),
                    _fmt(p.dual_err),
                    _fmt(p.primal_err),
                    _fmt(p.ode_residual),
                    _fmt(p.entropy_val),
                    str(p.iters),
                    flags,
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse an emitted sweep CSV back into a list of plain dict rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidInput("unrecognized sweep CSV header")
    rows = []
    for ln in lines[1:]:
        t, de, pe, od, en, it, fl = ln.split(",")
        rows.append(
            {
                "t": float(t),
                "dual_err": float(de),
                "primal_err": float(pe),
                "ode_residual": float(od),
                "entropy": float(en),
                "iters": int(it),
                "flags": fl,
            }
        )
    return rows


def diagnostics_dict(result):
    """JSON-ready summary of a sweep (slopes, spans, limits, residuals)."""
    return {
        "dual_slope": result.dual_fit.slope,
        "dual_r2": result.dual_fit.r2,
        "primal_slope": result.primal_fit.slope,
        "primal_r2": result.primal_fit.r2,
        "dim_e0": result.dim_e0,
        "e0_residual": result.e0_residual,
        "kappa_star": result.exact.kappa_star,
        "off_support_slope": result.off_support_slope,
        "d_star": [float(v) for v in result.d_star],
        "n_points": len(result.points),
        "n_converged": sum(p.converged for p in result.points),
    }
