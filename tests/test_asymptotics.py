"""Rescaled deviation d(t), its limit, ODE residual, E0 and rate fitting."""

import dataclasses

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
from uotlab.core import DualPotential, InvalidInput, Marginals, Problem
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.divergence import DivergenceF, divergence_for, get_entropy
from uotlab.exact_solver import ExactSolution, ProjectionFailed, solve_exact
from uotlab.reg_solver import RegSolveConfig, solve_dual_t, trajectory_tangent
from uotlab.sweep import GRAD_TOL, SweepConfig, run_sweep, t_grid

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
    star = DualPotential([0.5], [0.5])
    d1 = compute_d(xi_1x1(1.0), star, 1.0)
    assert np.allclose(d1, [-1 / 6, -1 / 6])
    d_large = compute_d(xi_1x1(1e7), star, 1e7)
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
        xi_star=DualPotential.zeros(2, 2),
        kappa=np.array([[0.0, 1.0], [1.0, 0.0]]),
        I0=[(0, 0), (1, 1)],
        kappa_star=1.0,
        m_star=Marginals([1.0, 1.0], [2.0, 1.0]),
        gamma_star=np.eye(2),
        lam=np.eye(2),
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


# Newton iteration totals of the shipped sweeps with tangent-predicted warm
# starts, and their fitted slopes as computed with dense Newton steps from
# plain warm starts; neither the step nor the start may move the slopes
SHIPPED_SWEEP_PINS = {
    ("point-clouds", "kl"): (168, -0.9894244806743488, -1.2134520753070839),
    ("point-clouds", "quadratic"): (168, -0.9453401119750642, -1.156970529515693),
    ("gaussians-1d", "kl"): (163, -0.9699561918935524, -1.2767521776191866),
    ("gaussians-1d", "quadratic"): (165, -0.9882888702126001, -1.3298494120205395),
}


@pytest.mark.parametrize("kind,seed,div", SHIPPED)
def test_shipped_sweep_iterations_and_slopes_pinned(kind, seed, div):
    iters, dual_slope, primal_slope = SHIPPED_SWEEP_PINS[kind, div]
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    res = run_sweep(p, SweepConfig())
    assert sum(pt.iters for pt in res.points) == iters
    assert res.dual_fit.slope == pytest.approx(dual_slope, abs=1e-9)
    assert res.primal_fit.slope == pytest.approx(primal_slope, abs=1e-9)


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
        assert ode_residual(sol.xi, tangent, t, p) <= 1e-10 * forcing


def test_ode_residual_analytic_derivative():
    p = make_1x1(c=1.0)
    for t in (1.0, 10.0, 250.0):
        xi = xi_1x1(t)
        xi_dot = np.full(2, 1.0 / (1.0 + 2.0 * t) ** 2)
        assert ode_residual(xi, xi_dot, t, p) <= 1e-10


def test_ode_residual_garbage_negative_control():
    p = make_1x1(c=1.0)
    t = 100.0
    xi = xi_1x1(t)
    good = ode_residual(xi, np.full(2, 1.0 / (1.0 + 2.0 * t) ** 2), t, p)
    bad = ode_residual(xi, np.array([0.3, -0.7]), t, p)
    assert bad >= 10 * max(good, 1e-12)


def test_ode_residual_finite_difference_ratio_105():
    # solved potentials on a ratio-1.05 grid around t0 = 100; the five-point
    # stencil meets the 1e-4 bound
    p = make_1x1(c=1.0)
    r = 1.05
    ts = 100.0 * r ** np.arange(-2.0, 3.0)
    cfg = RegSolveConfig(grad_tol=1e-13)
    sols = [solve_dual_t(p, float(t), cfg) for t in ts]
    forcing = ode_inhomogeneous_norm(sols[2].xi, ts[2], p)
    xd5 = xi_dot_log_grid(ts, [s.xi for s in sols], 2)
    assert ode_residual(sols[2].xi, xd5, ts[2], p) <= 1e-4 * forcing


def test_xi_dot_high_order_stencil():
    # derivative of the closed-form trajectory on a geometric grid
    ts = np.geomspace(50.0, 50.0 * 1.05 ** 9, 10)
    xis = [xi_1x1(t) for t in ts]
    for k in range(1, 9):
        est = xi_dot_log_grid(ts, xis, k)
        true = np.full(2, 1.0 / (1.0 + 2.0 * ts[k]) ** 2)
        # the one-sided stencils at the edges are one order lower
        tol = 1e-6 if 2 <= k <= 7 else 1e-4
        assert np.max(np.abs(est - true)) <= tol * np.max(np.abs(true))
    with pytest.raises(InvalidInput):
        xi_dot_log_grid(ts, xis, 0)


def test_xi_dot_rejects_short_or_nongeometric_grid():
    ts = np.geomspace(50.0, 100.0, 10)
    xis = [xi_1x1(t) for t in ts]
    with pytest.raises(InvalidInput, match="geometric"):
        xi_dot_log_grid(np.linspace(50.0, 100.0, 10), xis, 4)
    with pytest.raises(InvalidInput, match="5 grid points"):
        xi_dot_log_grid(ts[:4], xis[:4], 1)


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
    m = ex.m_star.stacked + 0.01 * orth
    perturbed = dataclasses.replace(ex, m_star=Marginals(m[:1], m[1:]))
    _, rel = e0_diagnostics(perturbed, (1, 1))
    assert rel * np.linalg.norm(m) == pytest.approx(0.01, abs=1e-12)


def test_fit_rate_synthetic_power_laws():
    ts = np.geomspace(1.0, 1e4, 40)
    fit1 = fit_rate([(t, 3.0 / t) for t in ts])
    assert fit1.slope == pytest.approx(-1.0, abs=1e-12)
    fit2 = fit_rate([(t, 5.0 / np.sqrt(t)) for t in ts])
    assert fit2.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit2.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_excludes_floor_and_needs_points():
    ts = np.geomspace(1.0, 100.0, 20)
    with pytest.raises(InvalidInput):
        fit_rate([(t, 1e-15) for t in ts])
    with pytest.raises(InvalidInput):
        fit_rate([(t, 1.0 / t) for t in ts[:6]])


@pytest.mark.parametrize(
    "t_min,t_max",
    [(1.0, np.inf), (np.nan, 10.0), (1.0, np.nan), (10.0, 1.0), (0.0, 1.0)],
)
def test_sweep_config_rejects_bad_range(t_min, t_max):
    with pytest.raises(InvalidInput):
        SweepConfig(t_min=t_min, t_max=t_max)


def test_fit_linear_decay():
    ts = np.linspace(1.0, 50.0, 30)
    slope = fit_linear_decay([(t, 2.0 - 0.37 * t) for t in ts])
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
