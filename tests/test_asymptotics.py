"""Rescaled deviation d(t), its limit, ODE residual, E0 and rate fitting."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from uotlab.asymptotics import (
    compute_d,
    e0_diagnostics,
    fit_linear_decay,
    fit_rate,
    ode_inhomogeneous_norm,
    ode_residual,
    solve_d_star,
    xi_dot_log_grid,
)
from uotlab.core import DualPotential, InvalidInput, Problem, discrete_entropy
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.divergence import DivergenceF, divergence_for, get_entropy
from uotlab.exact_solver import ExactSolution, ProjectionFailed, solve_exact
from uotlab.reg_solver import (
    RegSolveConfig,
    plan_exponent,
    solve_dual_t,
    trajectory_tangent,
)
from uotlab import reg_solver, sweep
from uotlab.sweep import (
    BLOCK,
    GRAD_TOL,
    HISTORY,
    SweepConfig,
    block_size,
    diagnostics_dict,
    extrapolation_weights,
    run_sweep,
    t_grid,
)

from conftest import make_1x1, random_problem

SHIPPED = [
    ("point-clouds", 4, "kl"),
    ("point-clouds", 4, "quadratic"),
    ("gaussians-1d", 0, "kl"),
    ("gaussians-1d", 0, "quadratic"),
]


def xi_1x1(t):
    s = t / (1.0 + 2.0 * t)
    return DualPotential([s], [s])


def test_compute_d_closed_form():
    star = np.array([0.5, 0.5])
    d1 = compute_d(xi_1x1(1.0).stacked, star, 1.0)
    assert np.allclose(d1, [-1 / 6, -1 / 6])
    d_large = compute_d(xi_1x1(1e7).stacked, star, 1e7)
    assert np.allclose(d_large, [-0.25, -0.25], atol=1e-6)
    assert np.all(compute_d(star, star, 5.0) == 0)


def test_d_star_1x1():
    p = make_1x1(c=1.0)
    ex = solve_exact(p)
    d_star = solve_d_star(ex, divergence_for(p), (1, 1))
    assert np.allclose(d_star, [-0.25, -0.25], atol=1e-9)


def test_d_star_identity_off_support():
    # gamma* = exp(A* d*) on the saturated set; the point-cloud seeds are
    # instances on which an iterative d* solve used to stall
    cases = [(random_problem(np.random.default_rng(83), n_x=3, n_y=2), 1e-7)]
    for seed, div in ((17, "quadratic"), (21, "kl"), (31, "kl")):
        spec = DatasetSpec(kind="point-clouds", seed=seed, divergence=div)
        cases.append((gen_dataset(spec), 1e-12))
    for p, tol in cases:
        ex = solve_exact(p)
        d_star = solve_d_star(ex, divergence_for(p), (p.n_x, p.n_y))
        rows, cols = np.array(ex.I0).T
        lifted = np.exp(d_star[rows] + d_star[p.n_x + cols])
        assert np.max(np.abs(ex.gamma_star[rows, cols] - lifted)) <= tol


def test_solve_d_star_rejects_marginals_off_the_span():
    # I0 = diagonal of 2x2: each component {x_i, y_i} needs equal row and
    # column mass, which m* = (1, 1 | 2, 1) breaks in the first one
    ex = ExactSolution(
        xi_star=DualPotential(np.zeros(2), np.zeros(2)),
        kappa=np.array([[0.0, 1.0], [1.0, 0.0]]),
        I0=[(0, 0), (1, 1)],
        kappa_star=1.0,
        m_star=np.array([1.0, 1.0, 2.0, 1.0]),
        gamma_star=np.eye(2),
        converged=True,
    )
    div = DivergenceF(get_entropy("kl"), np.ones(4))
    with pytest.raises(ProjectionFailed) as info:
        solve_d_star(ex, div, (2, 2))
    assert info.value.residual > 1e-6


@pytest.mark.parametrize("kind,seed,div", SHIPPED)
def test_d_star_relabel_invariance(kind, seed, div):
    # relabelling the points permutes d* and changes nothing else
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    d_star = solve_d_star(solve_exact(p), divergence_for(p), (p.n_x, p.n_y))
    for r in range(10):
        rng = np.random.default_rng(r)
        ix = rng.permutation(p.n_x)
        iy = rng.permutation(p.n_y)
        q = Problem(
            p.points_x[ix], p.points_y[iy], p.mu[ix], p.nu[iy],
            p.cost[np.ix_(ix, iy)], divergence=p.divergence, cost_kind=p.cost_kind,
        )
        d_q = solve_d_star(solve_exact(q), divergence_for(q), (q.n_x, q.n_y))
        expected = np.concatenate([d_star[ix], d_star[p.n_x + iy]])
        assert np.max(np.abs(d_q - expected)) <= 1e-10, r


# Newton iterations of the shipped sweeps: the per-point total (the CSV's
# iters summed) and the loops of the Newton kernel, which solves blocks of
# consecutive points together; every start in a block is extrapolated from
# the points before the block, so the points further into it start further
# from their solutions and take more iterations (the total rises from 136,
# 136, 118 and 121 of one point per loop), while the loops fall.  The slopes
# are as computed with dense Newton steps from plain warm starts; neither the
# step nor the start may move them
SHIPPED_SWEEP_PINS = {
    ("point-clouds", "kl"): (193, 45, -0.9894244806743488, -1.2134520753070839),
    ("point-clouds", "quadratic"): (194, 45, -0.9453401119750642, -1.156970529515693),
    ("gaussians-1d", "kl"): (169, 40, -0.9699561918935524, -1.2767521776191866),
    ("gaussians-1d", "quadratic"): (179, 45, -0.9882888702126001, -1.3298494120205395),
}


@pytest.mark.parametrize("kind,seed,div", SHIPPED)
def test_shipped_sweep_iterations_and_slopes_pinned(kind, seed, div):
    iters, loops, dual_slope, primal_slope = SHIPPED_SWEEP_PINS[kind, div]
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    res = run_sweep(p, SweepConfig())
    assert sum(pt.iters for pt in res.points) == iters
    assert res.newton_loops == loops
    assert res.dual_fit.slope == pytest.approx(dual_slope, abs=1e-9)
    assert res.primal_fit.slope == pytest.approx(primal_slope, abs=1e-9)


def test_block_size_follows_the_grid():
    # blocks of BLOCK points on the shipped grid; a coarser grid gets blocks
    # that reach at most BLOCK_SPAN in t, and the 12-point one solves its
    # points one by one
    assert block_size(t_grid(SweepConfig())) == BLOCK == 6
    assert block_size(t_grid(SweepConfig(n_points=20))) == 3
    assert block_size(t_grid(SweepConfig(n_points=12))) == 1


def test_diagnostics_report_iterations_and_loops():
    p = gen_dataset(DatasetSpec(kind="gaussians-1d", seed=0, divergence="kl"))
    for n_points, loops in ((60, 40), (12, 54)):
        res = run_sweep(p, SweepConfig(n_points=n_points))
        doc = diagnostics_dict(res)
        assert doc["newton_iters"] == sum(pt.iters for pt in res.points)
        assert doc["newton_loops"] == res.newton_loops == loops
    # one point per block: every loop is one point's iteration
    assert doc["newton_iters"] == doc["newton_loops"]


@pytest.mark.parametrize("kind,seed,div", SHIPPED)
def test_predicted_starts_keep_the_trajectory(kind, seed, div):
    # the same points as a chain started from each previous xi, in fewer
    # Newton iterations
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    cfg = SweepConfig()
    res = run_sweep(p, cfg)
    reg_cfg = RegSolveConfig(grad_tol=GRAD_TOL)
    plain, init = [], None
    for t in t_grid(cfg):
        sol = solve_dual_t(p, float(t), reg_cfg, init=init)
        init = sol.xi
        plain.append(sol)
    assert all(pt.converged for pt in res.points)
    for pt, sol in zip(res.points, plain):
        assert np.max(np.abs(pt.xi.stacked - sol.xi.stacked)) <= 1e-10, pt.t
    assert sum(pt.iters for pt in res.points) < sum(s.iters for s in plain)


def test_extrapolation_weights_reproduce_quartics_in_inverse_t():
    u = 1.0 / t_grid(SweepConfig())
    rng = np.random.default_rng(5)
    # windows of m solved points, m + 1 grid points with the target: the
    # full window and the partial ones that start points 1 to HISTORY - 1
    for m in range(1, HISTORY + 1):
        w = extrapolation_weights(u[: m + 1])
        assert w.shape == (m,)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        for k in (m, 30, len(u) - 1):
            window = u[k - m : k + 1]
            # the grid is geometric: every window has the weights of the first
            assert np.max(np.abs(extrapolation_weights(window) - w)) <= 1e-9
            for degree in range(m):
                coef = rng.standard_normal(degree + 1)
                values = np.polyval(coef, window)
                scale = np.abs(w) @ np.abs(values[:-1])
                assert abs(w @ values[:-1] - values[-1]) <= 1e-13 * scale, (m, k, degree)


def test_warm_started_sweep_solves_no_tangent(monkeypatch):
    # every start after the first is extrapolated in 1/t and goes to Newton
    # as it is; only the cold continuation chain of solve_dual_t needs the
    # trajectory tangent, and only an outside warm start is scaled
    calls, scaled = [], []
    tangent = reg_solver.trajectory_tangent
    scale = reg_solver.scaled_start

    def counting(problem, sol):
        calls.append(sol.t)
        return tangent(problem, sol)

    def counting_scale(problem, t, x):
        scaled.append(t)
        return scale(problem, t, x)

    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence="kl"))
    ex = solve_exact(p)
    monkeypatch.setattr(reg_solver, "trajectory_tangent", counting)
    monkeypatch.setattr(reg_solver, "scaled_start", counting_scale)
    res = run_sweep(p, SweepConfig(), exact=ex)
    assert all(pt.converged for pt in res.points)
    assert calls == []
    assert scaled == []


def test_saturated_sweep_diagnostics_are_standard_json():
    # every entry of the 1x1 plan is saturated, so kappa* is infinite
    res = run_sweep(make_1x1(c=1.0), SweepConfig(n_points=20))
    assert res.exact.kappa_star == np.inf
    doc = diagnostics_dict(res)
    json.dumps(doc, allow_nan=False)
    assert doc["kappa_star"] is None


@pytest.mark.parametrize("div", ["kl", "quadratic"])
def test_coarse_sweep_at_scale_converges(div):
    # 20 points to t = 1e4 step t by 1.62x (the seed-ladder and CLI grid),
    # where the extrapolated start lies furthest from the next point
    n_x = 120
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=4, n_x=n_x, n_y=n_x + 2, mass_x=float(n_x),
        mass_y=float(n_x + 2), divergence=div,
    ))
    res = run_sweep(p, SweepConfig(n_points=20))
    assert all(pt.converged for pt in res.points), [
        pt.t for pt in res.points if not pt.converged
    ]


def test_trajectory_tangent_closed_form_1x1():
    p = make_1x1(c=1.0)
    cfg = RegSolveConfig(grad_tol=1e-13)
    for t in (1.0, 10.0, 250.0):
        tangent = trajectory_tangent(p, solve_dual_t(p, t, cfg))
        true = 1.0 / (1.0 + 2.0 * t) ** 2
        assert np.max(np.abs(tangent - true)) <= 1e-10 * true


@pytest.mark.parametrize("kind,seed,div", SHIPPED)
def test_trajectory_tangent_solves_the_ode(kind, seed, div):
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    for t in (10.0, 1e3):
        sol = solve_dual_t(p, t)
        forcing = ode_inhomogeneous_norm(sol.xi, t, p)
        tangent = trajectory_tangent(p, sol)
        assert ode_residual(sol.xi.stacked, tangent, t, p) <= 1e-10 * forcing


def test_ode_residual_analytic_derivative():
    p = make_1x1(c=1.0)
    ts = np.array([1.0, 10.0, 250.0])
    xs = np.array([xi_1x1(t).stacked for t in ts])
    dots = np.repeat(1.0 / (1.0 + 2.0 * ts[:, None]) ** 2, 2, axis=1)
    rows = ode_residual(xs, dots, ts, p)
    assert rows.shape == (3,)
    for k, t in enumerate(ts.tolist()):
        one = ode_residual(xs[k], dots[k], t, p)
        assert one <= 1e-10
        assert rows[k] == one


def test_ode_residual_garbage_negative_control():
    p = make_1x1(c=1.0)
    t = 100.0
    xi = xi_1x1(t).stacked
    good = ode_residual(xi, np.full(2, 1.0 / (1.0 + 2.0 * t) ** 2), t, p)
    bad = ode_residual(xi, np.array([0.3, -0.7]), t, p)
    assert bad >= 10 * max(good, 1e-12)


@pytest.mark.parametrize("t", [0.0, np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda xi, t, p: compute_d(xi.stacked, xi.stacked, t),
        lambda xi, t, p: ode_residual(xi.stacked, np.zeros(2), t, p),
        lambda xi, t, p: ode_inhomogeneous_norm(xi, t, p),
    ],
    ids=["compute_d", "ode_residual", "ode_inhomogeneous_norm"],
)
def test_asymptotics_reject_nonfinite_t(call, t):
    with pytest.raises(InvalidInput):
        call(xi_1x1(1.0), t, make_1x1(c=1.0))


def test_ode_residual_rejects_bad_xi_dot():
    p = make_1x1(c=1.0)
    for xi_dot in (np.zeros(3), np.zeros((1, 2)), np.array([0.0, np.nan])):
        with pytest.raises(InvalidInput):
            ode_residual(xi_1x1(1.0).stacked, xi_dot, 1.0, p)
    # the same cases on rows of two points
    ts = np.array([1.0, 2.0])
    xs = np.array([xi_1x1(t).stacked for t in ts])
    for xi_dot in (
        np.zeros((2, 3)),
        np.zeros((1, 2)),
        np.zeros(2),
        np.array([[0.0, 0.0], [0.0, np.nan]]),
    ):
        with pytest.raises(InvalidInput, match="xi_dot"):
            ode_residual(xs, xi_dot, ts, p)
    for bad_t in (ts[:1], np.array([1.0, np.nan]), np.array([1.0, np.inf])):
        with pytest.raises(InvalidInput, match="t must be"):
            ode_residual(xs, np.zeros((2, 2)), bad_t, p)


def test_ode_residual_finite_difference_ratio_105():
    # solved potentials on a ratio-1.05 grid around t0 = 100; the five-point
    # stencil meets the 1e-4 bound
    p = make_1x1(c=1.0)
    r = 1.05
    ts = 100.0 * r ** np.arange(-2.0, 3.0)
    cfg = RegSolveConfig(grad_tol=1e-13)
    sols = [solve_dual_t(p, float(t), cfg) for t in ts]
    forcing = ode_inhomogeneous_norm(sols[2].xi, ts[2], p)
    xd5 = xi_dot_log_grid(ts, np.array([s.xi.stacked for s in sols]))[1]
    assert ode_residual(sols[2].xi.stacked, xd5, ts[2], p) <= 1e-4 * forcing


def test_xi_dot_high_order_stencil():
    # derivative of the closed-form trajectory on a geometric grid
    ts = np.geomspace(50.0, 50.0 * 1.05 ** 9, 10)
    xs = np.array([xi_1x1(t).stacked for t in ts])
    est = xi_dot_log_grid(ts, xs)
    assert est.shape == (8, 2)
    for k in range(1, 9):
        true = np.full(2, 1.0 / (1.0 + 2.0 * ts[k]) ** 2)
        # the one-sided stencils at the edges are one order lower
        tol = 1e-6 if 2 <= k <= 7 else 1e-4
        assert np.max(np.abs(est[k - 1] - true)) <= tol * np.max(np.abs(true))
    for rows in (xs[:-1], np.vstack([xs, xs[-1:]]), xs[:, 0]):
        with pytest.raises(InvalidInput, match="stacked potentials"):
            xi_dot_log_grid(ts, rows)


def test_xi_dot_rejects_short_or_nongeometric_grid():
    ts = np.geomspace(50.0, 100.0, 10)
    xs = np.array([xi_1x1(t).stacked for t in ts])
    with pytest.raises(InvalidInput, match="geometric"):
        xi_dot_log_grid(np.linspace(50.0, 100.0, 10), xs)
    with pytest.raises(InvalidInput, match="5 grid points"):
        xi_dot_log_grid(ts[:4], xs[:4])


def test_xi_dot_accepts_a_fine_geometric_grid():
    # a grid 1e-6 wide at t = 1e3 steps log t by 1.7e-8, so its steps differ
    # by more than 1e-8 of a step through the rounding of log t alone
    ts = t_grid(SweepConfig(t_min=1e3, t_max=1e3 * (1 + 1e-6), n_points=60))
    xs = np.array([xi_1x1(t).stacked for t in ts])
    assert xi_dot_log_grid(ts, xs).shape == (58, 2)
    # a point moved by 1e-6 relative still fails, on this grid and the shipped one
    for grid in (ts, t_grid(SweepConfig())):
        moved = grid.copy()
        moved[30] *= 1 + 1e-6
        with pytest.raises(InvalidInput, match="geometric"):
            xi_dot_log_grid(moved, xs)


def test_xi_dot_interior_rows_are_the_five_point_stencil():
    # the sliced stencils take each interior row in the pointwise order
    rng = np.random.default_rng(11)
    ts = np.geomspace(2.0, 3e3, 13)
    n = len(ts)
    xs = rng.standard_normal((n, 7))
    est = xi_dot_log_grid(ts, xs)
    h = float(np.diff(np.log(ts)).mean())
    for k in range(2, n - 2):
        row = (xs[k - 2] - 8.0 * xs[k - 1] + 8.0 * xs[k + 1] - xs[k + 2]) / (12.0 * h)
        assert (est[k - 1] == row / ts[k]).all(), k
    first = (-2.0 * xs[0] - 3.0 * xs[1] + 6.0 * xs[2] - xs[3]) / (6.0 * h)
    last = (2.0 * xs[n - 1] + 3.0 * xs[n - 2] - 6.0 * xs[n - 3] + xs[n - 4]) / (6.0 * h)
    assert (est[0] == first / ts[1]).all()
    assert (est[-1] == last / ts[n - 2]).all()


def test_sweep_differentiates_its_trajectory_once(monkeypatch):
    calls = []
    differentiate = sweep.xi_dot_log_grid

    def counting(ts, xs):
        calls.append(xs.shape)
        return differentiate(ts, xs)

    monkeypatch.setattr(sweep, "xi_dot_log_grid", counting)
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence="kl"))
    run_sweep(p, SweepConfig(n_points=60))
    assert calls == [(60, p.n_x + p.n_y)]


def test_sweep_computes_every_residual_in_one_call(monkeypatch):
    calls = []
    residual = sweep.ode_residual

    def counting(xi, xi_dot, t, problem, **held):
        calls.append(np.shape(xi_dot))
        return residual(xi, xi_dot, t, problem, **held)

    monkeypatch.setattr(sweep, "ode_residual", counting)
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence="kl"))
    run_sweep(p, SweepConfig(n_points=60))
    assert calls == [(58, p.n_x + p.n_y)]


@pytest.mark.parametrize("kind,seed,div", SHIPPED)
def test_sweep_diagnostics_equal_the_pointwise_helpers(kind, seed, div):
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    ex = solve_exact(p)
    res = run_sweep(p, SweepConfig(), exact=ex)
    pts = res.points
    xs = np.array([pt.xi.stacked for pt in pts])
    xi_dots = xi_dot_log_grid([pt.t for pt in pts], xs)
    off = np.ones((p.n_x, p.n_y), dtype=bool)
    off[tuple(np.array(ex.I0).T)] = False
    stack = pts[0].gamma.base
    assert stack.shape == (len(pts), p.n_x, p.n_y)
    for k, pt in enumerate(pts):
        assert pt.gamma.base is stack, k  # a row of the plan stack
        assert np.array_equal(pt.d, compute_d(pt.xi.stacked, ex.xi_star.stacked, pt.t)), k
        assert pt.dual_err == np.linalg.norm(pt.xi.stacked - ex.xi_star.stacked), k
        assert pt.primal_err == np.linalg.norm(pt.gamma - ex.gamma_star), k
        assert pt.log_gamma_off_max == plan_exponent(pt.xi.stacked, pt.t, p)[off].max()
        if 0 < k < len(pts) - 1:
            assert pt.ode_residual == ode_residual(pt.xi.stacked, xi_dots[k - 1], pt.t, p), k
        else:
            assert np.isnan(pt.ode_residual)
        assert pt.entropy_val == discrete_entropy(pt.gamma), k
        # summed with the zero entries in place, the entropy differs from the
        # sum over the positive entries alone by rounding only
        g = pt.gamma[pt.gamma > 0]
        terms = g * (np.log(g) - 1.0)
        assert abs(pt.entropy_val - terms.sum()) <= 4 * np.spacing(np.abs(terms).sum()), k


def test_shipped_sweep_raises_no_runtime_warning():
    # its late plans hold flushed zeros, where an unmasked log would warn
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence="kl"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_sweep(p, SweepConfig())
    assert (res.points[-1].gamma == 0.0).any()


def test_e0_1x1():
    p = make_1x1(c=1.0)
    ex = solve_exact(p)
    dim, rel = e0_diagnostics(ex, (1, 1))
    assert dim == 1
    assert rel <= 1e-10


def test_e0_full_support_dimension():
    # balanced full-support instance: dim E0 = n_x + n_y - 1
    from uotlab.core import Problem

    p = Problem(
        [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
        [[1.0, 1.0], [1.0, 1.0]], cost_kind="explicit",
    )
    ex = solve_exact(p)
    dim, rel = e0_diagnostics(ex, (2, 2))
    assert dim == 3
    assert rel <= 1e-8


def test_e0_orthogonal_perturbation_detected():
    p = make_1x1(c=1.0)
    ex = solve_exact(p)
    # perturb m* orthogonally to E0 = span{(1, 1)}
    orth = np.array([1.0, -1.0]) / np.sqrt(2.0)
    m = ex.m_star + 0.01 * orth
    perturbed = dataclasses.replace(ex, m_star=m)
    _, rel = e0_diagnostics(perturbed, (1, 1))
    assert rel * np.linalg.norm(m) == pytest.approx(0.01, abs=1e-12)


def test_fit_rate_synthetic_power_laws():
    ts = np.geomspace(1.0, 1e4, 40)
    fit1 = fit_rate(ts, 3.0 / ts)
    assert fit1.slope == pytest.approx(-1.0, abs=1e-12)
    fit2 = fit_rate(ts, 5.0 / np.sqrt(ts))
    assert fit2.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit2.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_excludes_floor_and_needs_points():
    ts = np.geomspace(1.0, 100.0, 20)
    with pytest.raises(InvalidInput):
        fit_rate(ts, np.full(len(ts), 1e-15))
    with pytest.raises(InvalidInput):
        fit_rate(ts[:6], 1.0 / ts[:6])


@pytest.mark.parametrize(
    "t_min,t_max",
    [(1.0, np.inf), (np.nan, 10.0), (1.0, np.nan), (10.0, 1.0), (0.0, 1.0)],
)
def test_sweep_config_rejects_bad_range(t_min, t_max):
    with pytest.raises(InvalidInput):
        SweepConfig(t_min=t_min, t_max=t_max)


@pytest.mark.parametrize("n_points", [60.5, "60"])
def test_sweep_config_rejects_non_integer_points(n_points):
    with pytest.raises(InvalidInput):
        SweepConfig(n_points=n_points)


@pytest.mark.parametrize("field", ["t_min", "t_max"])
@pytest.mark.parametrize("value", ["1", None, True], ids=["str", "None", "bool"])
def test_sweep_config_rejects_non_real_range(field, value):
    # t_min = 0.5 puts True (1.0) inside the range on either field
    with pytest.raises(InvalidInput, match=field):
        SweepConfig(**{"t_min": 0.5, field: value})


def test_fit_linear_decay():
    ts = np.linspace(1.0, 50.0, 30)
    slope = fit_linear_decay(ts, 2.0 - 0.37 * ts)
    assert slope == pytest.approx(-0.37, abs=1e-12)


def test_1x1_sweep_rates_and_d_limit():
    p = make_1x1(c=1.0)
    cfg = SweepConfig(t_min=10.0, t_max=1e4, n_points=40)
    res = run_sweep(p, cfg)
    assert -1.05 <= res.dual_fit.slope <= -0.95
    assert res.primal_fit.slope <= -0.95
    # dual_err has the exact closed form 1/(sqrt(2) (1+2t))
    for pt in res.points[::8]:
        assert pt.dual_err == pytest.approx(
            1.0 / (np.sqrt(2.0) * (1.0 + 2.0 * pt.t)), rel=1e-6
        )
    # d(t_max) is near d* and d stays bounded along the sweep
    d_last = res.points[-1].d
    assert np.linalg.norm(d_last - res.d_star) <= max(1e-4, 50.0 / cfg.t_max)
    d_norms = [np.linalg.norm(pt.d) for pt in res.points]
    assert max(d_norms) <= 100 * np.linalg.norm(d_last)


def test_entropy_inequality_along_sweep():
    rng = np.random.default_rng(89)
    p = random_problem(rng, n_x=3, n_y=3)
    res = run_sweep(p, SweepConfig(n_points=20))
    from uotlab.core import discrete_entropy

    h_star = discrete_entropy(res.exact.gamma_star)
    for pt in res.points:
        assert pt.entropy_val <= h_star + 1e-9


def test_solvers_build_no_penalty_of_their_own(monkeypatch):
    # the problem builds its DivergenceF once; the exact pipeline and the
    # sweep only read problem.penalty
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence="kl"))
    built = []
    init = DivergenceF.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(DivergenceF, "__post_init__", counting)
    run_sweep(p, SweepConfig(n_points=20), exact=solve_exact(p))
    assert len(built) == 0
