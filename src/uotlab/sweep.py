"""t-sweeps with warm starts, error diagnostics and CSV emission.

Only the first point (index 0) is solved cold. The expansion
xi(t) = xi* + d*/t + ... makes the trajectory smooth in u = 1/t, so every
later point k starts from the Lagrange extrapolation in u through the last
min(k, HISTORY) solved points.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
from .core import InvalidInput, discrete_entropy
from .exact_solver import solve_exact
from .reg_solver import RegSolveConfig, _newton_solve, plan_exponent, solve_dual_t

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


def _row_norms(a):
    """Euclidean norm of every row of a 2-D array.

    A row times a column is a BLAS dot in matmul, so each norm is summed as
    np.linalg.norm sums one vector.
    """
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def run_sweep(problem, config=None, exact=None):
    """Solve exact once, then warm-start the regularized solves up the grid.

    The trajectory is one array xs, whose row k is the stacked solution at
    grid[k], and its plans are one (n_points, n_x, n_y) stack.  Point 0 is
    solved cold.  Each later start is written into its row of xs and goes
    from there to Newton as it is, without solve_dual_t's scaled start:
    point k starts from the extrapolation in 1/t through the last
    min(k, HISTORY) rows (the grid is geometric, so the weights of a window
    size are the same at every point, and each is computed once, from the
    first grid points).  The diagnostics are array passes
    over xs, the plan stack and one plan-exponent array: the exponent gives
    the off-support maxima and then the ODE forcing, and one xi_dot_log_grid
    and one ode_residual call, on the solved plans, give every interior
    point's residual.
    """
    config = config or SweepConfig()
    if exact is None:
        exact = solve_exact(problem)
    n_x, n_y = shape = problem.n_x, problem.n_y
    off_mask = np.ones(shape, dtype=bool)
    for i, j in exact.I0:
        off_mask[i, j] = False

    reg_cfg = RegSolveConfig(grad_tol=GRAD_TOL)
    grid = t_grid(config)
    n = len(grid)
    u = 1.0 / grid[: HISTORY + 1]
    # weights[m] extrapolates through the last m solved points
    weights = {m: extrapolation_weights(u[: m + 1]) for m in range(1, HISTORY + 1)}
    xs = np.empty((n, n_x + n_y))
    plans = np.empty((n, *shape))
    sols = []
    for k, t in enumerate(grid.tolist()):
        if k:
            m = min(k, HISTORY)
            np.matmul(weights[m], xs[k - m : k], out=xs[k])
            # an extrapolated row is close enough that solve_dual_t's scaled
            # start saves Newton fewer steps than it costs
            sol = _newton_solve(problem, t, reg_cfg, xs[k])
        else:
            sol = solve_dual_t(problem, t, reg_cfg)
        xs[k] = sol.xi.stacked
        plans[k] = sol.gamma
        sol.gamma = plans[k]  # the point keeps its row of the stack, not a copy
        sols.append(sol)

    # each pass below holds at most one trajectory-sized array beside the plans
    entropy = discrete_entropy(plans)
    primal_err = _row_norms((plans - exact.gamma_star).reshape(n, -1))
    dual_err = _row_norms(xs - exact.xi_star.stacked)
    d = compute_d(xs, exact.xi_star, grid)
    exponent = plan_exponent(xs, grid, problem)
    off_max = np.full(n, np.nan)
    if off_mask.any():
        off_max = exponent.max(axis=(1, 2), where=off_mask, initial=-np.inf)
    resid = np.full(n, np.nan)
    resid[1:-1] = ode_residual(
        xs[1:-1],
        xi_dot_log_grid(grid, xs),
        grid[1:-1],
        problem,
        plan=plans[1:-1],
        exponent=exponent[1:-1],
    )
    columns = (dual_err, primal_err, resid, entropy, off_max)
    points = [
        TrajectoryPoint(
            t=t,
            xi=sol.xi,
            gamma=sol.gamma,
            d=d_k,
            dual_err=dual,
            primal_err=primal,
            ode_residual=res,
            entropy_val=ent,
            iters=sol.iters,
            converged=sol.converged,
            flags=list(sol.flags),
            log_gamma_off_max=off,
        )
        for t, sol, d_k, dual, primal, res, ent, off in zip(
            grid.tolist(), sols, d, *(c.tolist() for c in columns)
        )
    ]

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
    """JSON-ready summary of a sweep (slopes, spans, limits, residuals).

    An infinite kappa* (every entry saturated) is written as null, as
    io.exact_to_dict writes it, so the document stays standard JSON.
    """
    kappa_star = result.exact.kappa_star
    return {
        "dual_slope": result.dual_fit.slope,
        "dual_r2": result.dual_fit.r2,
        "primal_slope": result.primal_fit.slope,
        "primal_r2": result.primal_fit.r2,
        "dim_e0": result.dim_e0,
        "e0_residual": result.e0_residual,
        "kappa_star": None if math.isinf(kappa_star) else kappa_star,
        "off_support_slope": result.off_support_slope,
        "d_star": [float(v) for v in result.d_star],
        "n_points": len(result.points),
        "n_converged": sum(p.converged for p in result.points),
    }
