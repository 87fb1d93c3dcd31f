"""t-sweeps with warm starts, error diagnostics and CSV emission.

The expansion xi(t) = xi* + d*/t + ... makes the trajectory smooth in
u = 1/t, and its remainder is of order exp(-kappa* t) (Cominetti & San
Martin 1994).  The sweep reads xi*, d* and kappa* before its grid, and one
Newton loop solves every point that needs no solved neighbour: the first
block_size(grid) + 1 points from the limit xi* scaled to their t (one
unbalanced-Sinkhorn sweep, reg_solver.scaled_start), and, when d* is finite,
every point with kappa* t >= ASYMPTOTIC_KAPPA_T from xi* + d*/t.  The points
between are solved in blocks of BLOCK consecutive points, each start the
Lagrange extrapolation in u through the last min(k, HISTORY) solved points,
k being the number solved before the block.  Each block is one Newton loop
over a leading row axis (newton.newton_minimize): at the shipped sizes a
Newton iteration costs per-call overhead rather than arithmetic, and a block
pays it once per loop for all its points.  Points further into a block start
further from their solution and take more iterations, while the loops of the
kernel fall.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    FIT_POINTS,
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
from .reg_solver import RegSolveConfig, _newton_rows, plan_exponent, scaled_start

CSV_HEADER = "t,dual_err,primal_err,ode_residual,entropy,iters,flags"
# gradient tolerance of the sweep's solves (the CLI `solve` default is 1e-10)
GRAD_TOL = 1e-12
# solved points through which each later start is extrapolated (degree 4 in 1/t)
HISTORY = 5
# consecutive grid points solved together by one Newton loop, at most; on the
# shipped sweeps 4 is slower and 6 to 9 run alike, and 6 takes the fewest
# per-point iterations of those
BLOCK = 6
# a block reaches at most this factor in t beyond the last solved point: the
# further a start is extrapolated, the more Newton steps it needs, and on a
# coarse grid (12 points to t = 1e4) blocks of 6 left points unconverged
BLOCK_SPAN = 5.0
# a point with kappa* t at least this starts from the expansion xi* + d*/t,
# whose remainder is of order exp(-kappa* t) (Cominetti & San Martin 1994);
# on the seed ladder 1 and 10 took more per-point iterations than 3
ASYMPTOTIC_KAPPA_T = 3.0


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
        if self.n_points < FIT_POINTS:
            raise InvalidInput(f"sweep needs at least {FIT_POINTS} points")


class TooFewConverged(RuntimeError):
    """Fewer sweep points converged than a rate fit takes."""

    def __init__(self, converged, needed):
        super().__init__(f"{converged} sweep points converged, and the rate fit "
                         f"needs {needed}")
        self.converged, self.needed = converged, needed


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
    # iterations of the Newton kernel's loop: the most any point of a block
    # took, summed over the blocks, the first of which holds the points that
    # need no history (each point's own are in points)
    newton_loops: int


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


def block_weights(u, m, size):
    """Row j extrapolates through m solved points to the j-th point after them.

    u holds 1/t at the first m + size grid points.  On a geometric grid,
    scaling u leaves Lagrange weights unchanged, so the weights of a window
    of m points and an offset j into the block that follows it are the same
    at every block; one row per offset j < size.
    """
    return np.array([extrapolation_weights(np.append(u[:m], u[m + j])) for j in range(size)])


def block_size(grid):
    """Points per block on a geometric grid: BLOCK, or fewer within BLOCK_SPAN."""
    reach = math.log(BLOCK_SPAN) / math.log(grid[1] / grid[0])
    return max(1, min(BLOCK, int(reach)))


def _row_norms(a):
    """Euclidean norm of every row of a 2-D array.

    A row times a column is a BLAS dot in matmul, so each norm is summed as
    np.linalg.norm sums one vector.
    """
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def run_sweep(problem, config=None, exact=None):
    """Solve exact once, then the regularized points of the grid in blocks.

    The trajectory is one array xs, whose row k is the stacked solution at
    grid[k], and its plans are one (n_points, n_x, n_y) stack.  Each start is
    written into its row of xs and goes from there to Newton as it is.  The
    limit xi* and d* are read first, and one Newton loop solves every point
    that needs no solved neighbour: the first block_size(grid) + 1 points,
    each from scaled_start(problem, t, xi*), and, when d* is finite, every
    point with kappa* t >= ASYMPTOTIC_KAPPA_T, from xi* + d*/t (such a point
    takes precedence over the first ones).  The points between the two sets
    are solved in blocks of block_size(grid) consecutive points, one Newton
    loop each: a block whose first point is k starts each of its points from
    the extrapolation in 1/t through the last min(k, HISTORY) rows (the grid
    is geometric, so the weights of a window size and an offset into the
    block are the same at every block, and each is computed once, from the
    first grid points).  The diagnostics are array passes over xs, the plan
    stack and one plan-exponent array: the exponent gives the off-support
    maxima and then the ODE forcing, and one xi_dot_log_grid and one
    ode_residual call, on the solved plans, give every interior point's
    residual.  The rate fits take the converged rows of these arrays,
    selected by one mask, and fewer than FIT_POINTS of them raise
    TooFewConverged.
    """
    config = config or SweepConfig()
    if exact is None:
        exact = solve_exact(problem)
    n_x, n_y = shape = problem.n_x, problem.n_y
    off_mask = np.ones(shape, dtype=bool)
    off_mask[tuple(np.asarray(exact.I0, dtype=int).reshape(-1, 2).T)] = False
    d_star = solve_d_star(exact, problem.penalty, shape)
    xi_star = exact.xi_star.stacked

    reg_cfg = RegSolveConfig(grad_tol=GRAD_TOL)
    grid = t_grid(config)
    n = len(grid)
    size = block_size(grid)
    u = 1.0 / grid[: HISTORY + size]
    # weights[m] extrapolates a block through the last m solved points
    weights = {}
    xs = np.empty((n, n_x + n_y))
    plans = np.empty((n, *shape))
    sols = [None] * n
    loops = 0

    def solve(rows):
        nonlocal loops
        block = _newton_rows(problem, grid[rows], reg_cfg, xs[rows])
        loops += max(sol.iters for sol in block)
        for i, sol in zip(np.arange(n)[rows].tolist(), block):
            xs[i] = sol.xi.stacked
            plans[i] = sol.gamma
            sol.gamma = plans[i]  # the point keeps its row of the stack, not a copy
            sols[i] = sol

    # the expansion's tail starts at grid[top]; a NaN d* (a limit flow of
    # zero on the saturated set) gives no tail
    tail = exact.kappa_star * grid >= ASYMPTOTIC_KAPPA_T
    top = n - int(np.count_nonzero(tail)) if np.isfinite(d_star).all() else n
    head = min(size + 1, top)
    for k in range(head):
        xs[k] = scaled_start(problem, grid[k], xi_star)
    np.divide(d_star, grid[top:, None], out=xs[top:])
    xs[top:] += xi_star
    solve(np.r_[:head, top:n])
    for k in range(head, top, size):
        stop = min(k + size, top)
        m = min(k, HISTORY)
        if m not in weights:
            weights[m] = block_weights(u, m, min(size, len(u) - m))
        np.matmul(weights[m][: stop - k], xs[k - m : k], out=xs[k:stop])
        solve(slice(k, stop))

    # each pass below holds at most one trajectory-sized array beside the plans
    entropy = discrete_entropy(plans)
    primal_err = _row_norms((plans - exact.gamma_star).reshape(n, -1))
    dual_err = _row_norms(xs - xi_star)
    d = compute_d(xs, xi_star, grid)
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

    usable = np.array([sol.converged for sol in sols])
    if usable.sum() < FIT_POINTS:
        raise TooFewConverged(int(usable.sum()), FIT_POINTS)
    t_fit = grid[usable]
    dual_fit = fit_rate(t_fit, dual_err[usable])
    primal_fit = fit_rate(t_fit, primal_err[usable])
    dim_e0, e0_res = e0_diagnostics(exact, shape)
    off_slope = None
    if off_mask.any():
        off_slope = fit_linear_decay(t_fit, off_max[usable])
    return SweepResult(
        points=points,
        exact=exact,
        dual_fit=dual_fit,
        primal_fit=primal_fit,
        d_star=d_star,
        dim_e0=dim_e0,
        e0_residual=e0_res,
        off_support_slope=off_slope,
        newton_loops=loops,
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
        "newton_iters": sum(p.iters for p in result.points),
        "newton_loops": result.newton_loops,
    }
