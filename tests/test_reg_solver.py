"""Damped-Newton solver for the regularized dual: closed forms and oracles."""

import numpy as np
import pytest

from uotlab import core, reg_solver
from uotlab.core import DivergenceSpec, DualPotential, InvalidInput, Problem, apply_A
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.divergence import csiszar, divergence_for
from uotlab.newton import newton_minimize
from uotlab.reg_solver import (
    EXP_MAX,
    EXP_MIN,
    RegSolveConfig,
    TangentFailed,
    _dual_terms,
    clamped_exp,
    kantorovich_eval,
    kantorovich_grad,
    kantorovich_hess,
    ode_terms,
    plan_exponent,
    primal_objective,
    scaled_start,
    solve_dual_t,
    solve_primal_t,
)

from conftest import coercivity_floor, make_1x1, random_problem


def closed_form_s(t):
    # stationary point of the 1x1 KL instance with c = 1
    return t / (1.0 + 2.0 * t)


def test_eval_reference_values():
    p = make_1x1(c=1.0)
    xi0 = DualPotential.zeros(1, 1)
    assert kantorovich_eval(xi0, 1.0, p) == pytest.approx(2.0 + np.exp(-1.0))
    p0 = make_1x1(c=0.0)
    for t in (1.0, 5.0, 40.0):
        assert kantorovich_eval(xi0, t, p0) == pytest.approx(2.0 + 1.0 / t)


def test_eval_penalty_bound_at_feasible_point():
    # at a dual-feasible xi the exponential penalty is at most (n_x n_y)/t
    rng = np.random.default_rng(21)
    for kind in ("kl", "quadratic"):
        p = random_problem(rng, kind=kind)
        div = divergence_for(p)
        xi = DualPotential(
            np.full(p.n_x, -1.0), np.full(p.n_y, -1.0)
        )  # A* xi = -2 < c
        for t in (1.0, 10.0, 100.0):
            val = kantorovich_eval(xi, t, p)
            conj = float(
                np.sum(div.q * np.asarray(div.entropy.phi_conj(-xi.stacked)))
            )
            assert val - conj <= p.n_x * p.n_y / t + 1e-12


def test_grad_vanishes_at_closed_form():
    p = make_1x1(c=1.0)
    for t in (1.0, 10.0, 100.0):
        s = closed_form_s(t)
        g = kantorovich_grad(DualPotential([s], [s]), t, p)
        assert np.max(np.abs(g)) <= 1e-12


@pytest.mark.parametrize("kind", ["kl", "quadratic"])
def test_grad_hess_match_finite_differences(kind):
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = random_problem(rng, kind=kind)
        t = float(rng.uniform(0.5, 5.0))
        xi = DualPotential(
            rng.uniform(-1.0, 0.3, p.n_x), rng.uniform(-1.0, 0.3, p.n_y)
        )
        g = kantorovich_grad(xi, t, p)
        H = kantorovich_hess(xi, t, p)
        n = p.n_x + p.n_y
        h = 1e-6
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            up = DualPotential.from_stacked(xi.stacked + e, p.n_x)
            dn = DualPotential.from_stacked(xi.stacked - e, p.n_x)
            fd = (kantorovich_eval(up, t, p) - kantorovich_eval(dn, t, p)) / (2 * h)
            assert abs(g[k] - fd) <= 1e-6 * max(1.0, abs(g[k]))
            fd_row = (kantorovich_grad(up, t, p) - kantorovich_grad(dn, t, p)) / (
                2 * h
            )
            assert np.max(np.abs(H[k] - fd_row)) <= 1e-5 * max(
                1.0, np.max(np.abs(H[k]))
            )


def test_hess_positive_definite():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_problem(rng)
        xi = DualPotential(rng.uniform(-1, 1, p.n_x), rng.uniform(-1, 1, p.n_y))
        H = kantorovich_hess(xi, 2.0, p)
        assert np.min(np.linalg.eigvalsh(H)) > 0


def test_solve_matches_closed_form():
    p = make_1x1(c=1.0)
    for t in (1.0, 10.0, 100.0, 1e3, 1e4):
        sol = solve_dual_t(p, t)
        s = closed_form_s(t)
        assert sol.converged
        assert np.allclose(sol.xi.stacked, [s, s], atol=1e-11)
        assert sol.gamma[0, 0] == pytest.approx(np.exp(-s), abs=1e-11)


def test_solve_zero_cost_instance():
    p = make_1x1(c=0.0)
    for t in (1.0, 7.0, 1000.0):
        sol = solve_dual_t(p, t)
        assert np.allclose(sol.xi.stacked, 0.0, atol=1e-11)
        assert sol.gamma[0, 0] == pytest.approx(1.0, abs=1e-11)


def test_solve_matches_gradient_descent_oracle():
    # independent first-order method on the same objective
    rng = np.random.default_rng(31)
    p = random_problem(rng, n_x=2, n_y=2)
    t = 10.0
    sol = solve_dual_t(p, t)
    assert sol.grad_norm <= 1e-10
    x = np.zeros(4)
    lr = 0.05
    for _ in range(200_000):
        xi = DualPotential.from_stacked(x, 2)
        g = kantorovich_grad(xi, t, p)
        if np.max(np.abs(g)) < 1e-9:
            break
        x -= lr * g
    assert np.max(np.abs(x - sol.xi.stacked)) <= 1e-7


def test_solve_matches_bisection_oracle_1x1():
    # symmetric 1x1 reduces to a scalar root-find for s: e^{-s} = e^{t(2s-1)}
    p = make_1x1(c=1.0)
    t = 37.0

    def resid(s):
        return -np.exp(-s) + np.exp(t * (2 * s - 1.0))

    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            hi = mid
        else:
            lo = mid
    sol = solve_dual_t(p, t)
    assert sol.xi.phi[0] == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_primal_dual_consistency():
    rng = np.random.default_rng(37)
    for kind in ("kl", "quadratic"):
        p = random_problem(rng, kind=kind)
        t = 25.0
        sol = solve_dual_t(p, t)
        log_g = t * (
            sol.xi.phi[:, None] + sol.xi.psi[None, :] - p.cost
        )
        assert np.max(np.abs(np.log(sol.gamma) - log_g)) <= 1e-10


def test_dual_plan_reference_values():
    p = make_1x1(c=0.0)
    assert _dual_terms(p, 7.0).plan(np.zeros(2))[0, 0] == pytest.approx(1.0)
    p1 = make_1x1(c=1.0)
    g = _dual_terms(p1, 1.0).plan(np.array([1 / 3, 1 / 3]))
    assert g[0, 0] == pytest.approx(np.exp(-1 / 3))


def test_stationarity_marginal_identity():
    # apply_A(gamma) equals grad F*(-xi) at the solution
    from uotlab.core import apply_A
    from uotlab.divergence import F_conj_grad

    rng = np.random.default_rng(41)
    p = random_problem(rng, kind="quadratic")
    sol = solve_dual_t(p, 12.0)
    div = divergence_for(p)
    lhs = apply_A(sol.gamma)
    rhs = F_conj_grad(-sol.xi.stacked, div)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_primal_probe_optimality():
    rng = np.random.default_rng(43)
    p = random_problem(rng, n_x=2, n_y=2)
    t = 5.0
    gamma = solve_primal_t(p, t)
    base = primal_objective(gamma, p, t=t)
    for _ in range(1000):
        pert = gamma * np.exp(rng.uniform(-0.3, 0.3, gamma.shape))
        assert primal_objective(pert, p, t=t) >= base - 1e-12


def test_monotone_unregularized_objective():
    rng = np.random.default_rng(47)
    p = random_problem(rng, n_x=3, n_y=2)
    ts = np.geomspace(1.0, 1e3, 25)
    vals, init = [], None
    for t in ts:
        sol = solve_dual_t(p, float(t), init=init)
        init = sol.xi
        vals.append(primal_objective(sol.gamma, p))
    diffs = np.diff(vals)
    assert np.max(diffs) <= 1e-9


def test_coercivity_floor():
    rng = np.random.default_rng(53)
    for kind in ("kl", "quadratic"):
        p = random_problem(rng, kind=kind)
        for _ in range(50):
            xi = DualPotential(
                rng.uniform(-3, 3, p.n_x), rng.uniform(-3, 3, p.n_y)
            )
            floor = coercivity_floor(xi, p)
            for t in (1.0, 4.0, 64.0):
                assert kantorovich_eval(xi, t, p) >= floor - 1e-9


def test_input_validation():
    p = make_1x1()
    for t in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(InvalidInput):
            solve_dual_t(p, t)
    with pytest.raises(InvalidInput):
        Problem(
            [[0.0]], [[0.0]], [1.0], [1.0], [[1.0]],
            divergence=DivergenceSpec(kind="kl", mu_ref=[0.0], nu_ref=[1.0]),
            cost_kind="explicit",
        )
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidInput):
            RegSolveConfig(grad_tol=tol)


def test_primal_objective_rejects_bad_plans():
    p = random_problem(np.random.default_rng(7), n_x=2, n_y=3)
    nan_plan = np.ones((2, 3))
    nan_plan[1, 2] = np.nan
    for gamma in (np.ones(6), np.ones((3, 2)), np.ones((1, 3)), nan_plan):
        with pytest.raises(InvalidInput):
            primal_objective(gamma, p)


def test_primal_objective_checks_t():
    p = random_problem(np.random.default_rng(7), n_x=2, n_y=3)
    gamma = np.full((2, 3), 0.5)
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidInput, match="t must be positive"):
            primal_objective(gamma, p, t)
    # t=None leaves the entropy term out: cost plus marginal penalty
    penalty = csiszar(apply_A(gamma), p.penalty.q, p.penalty.entropy)
    expected = float(np.sum(p.cost * gamma)) + penalty
    assert primal_objective(gamma, p) == expected
    assert primal_objective(gamma, p, t=None) == expected


def test_warm_start_shape_checked():
    p = make_1x1(c=1.0)
    q = random_problem(np.random.default_rng(5), n_x=3, n_y=2)
    # right total length, wrong split between the clouds
    with pytest.raises(InvalidInput):
        solve_dual_t(q, 10.0, init=DualPotential(np.zeros(4), np.zeros(1)))
    with pytest.raises(InvalidInput):
        solve_dual_t(p, 10.0, init=DualPotential.zeros(2, 2))
    # a stacked start is checked the same way
    for bad in (np.zeros(3), np.zeros((1, 2)), np.array([0.0, np.nan])):
        with pytest.raises(InvalidInput, match="warm start"):
            solve_dual_t(p, 10.0, init=bad)


def test_kantorovich_calls_check_the_potential_split():
    # the value, gradient and Hessian read a potential through the same
    # check as a warm start: a wrong split raises, the stacked array agrees
    q = random_problem(np.random.default_rng(5), n_x=3, n_y=2)
    xi = DualPotential(np.full(3, 0.2), np.full(2, -0.1))
    for fn in (kantorovich_eval, kantorovich_grad, kantorovich_hess):
        with pytest.raises(InvalidInput, match="dual potential shape"):
            fn(DualPotential(np.zeros(4), np.zeros(1)), 10.0, q)
        with pytest.raises(InvalidInput, match="potential needs 5"):
            fn(np.zeros(4), 10.0, q)
        assert np.array_equal(fn(xi.stacked, 10.0, q), fn(xi, 10.0, q))


def test_stacked_warm_start_is_the_potential_start():
    q = random_problem(np.random.default_rng(5), n_x=3, n_y=2)
    start = DualPotential(np.full(3, 0.2), np.full(2, -0.1))
    x0 = start.stacked
    by_array = solve_dual_t(q, 30.0, init=x0)
    by_potential = solve_dual_t(q, 30.0, init=start)
    assert np.array_equal(by_array.xi.stacked, by_potential.xi.stacked)
    assert by_array.iters == by_potential.iters
    assert np.array_equal(x0, start.stacked)  # the start is read, not modified


def test_exp_clamped_flag_read_at_the_returned_point(monkeypatch):
    # with no Newton step the returned point is the start, whose exponent
    # t (phi + psi - c) is 799 > EXP_MAX; at 599 it is not clamped.  The
    # starts go to Newton unscaled: scaled_start would bring both down
    p = make_1x1(c=1.0)
    cfg = RegSolveConfig()
    monkeypatch.setattr(reg_solver, "MAX_NEWTON_ITERS", 0)
    high = reg_solver._newton_solve(p, 1.0, cfg, np.array([400.0, 400.0]))
    assert high.iters == 0
    assert "exp-clamped" in high.flags
    low = reg_solver._newton_solve(p, 1.0, cfg, np.array([300.0, 300.0]))
    assert "exp-clamped" not in low.flags


ENTROPIES = ["kl", "kl-normalized", "quadratic"]


def _clouds(div):
    return gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence=div))


def _max_abs(a):
    return float(np.max(np.abs(a)))


@pytest.mark.parametrize("div", ENTROPIES)
def test_scaled_start_is_one_exact_block_sweep(div):
    # from the solution at t/10: phi is the exact minimizer of K_t given the
    # starting psi, psi the exact minimizer given the new phi, and K_t falls
    p = _clouds(div)
    n_x, q_max = p.n_x, float(p.penalty.q.max())
    eps = np.finfo(float).eps
    for t in (1.0, 1e2, 1e6):
        x = solve_dual_t(p, t / 10).xi.stacked
        before = x.copy()
        y = scaled_start(p, t, x)
        assert np.array_equal(x, before)
        terms = _dual_terms(p, t)
        assert terms.value(y) <= terms.value(x), t
        half = np.concatenate([y[:n_x], x[n_x:]])
        for point, block in ((half, slice(None, n_x)), (y, slice(n_x, None))):
            # a node's gradient moves by its mass times the rounding of a plan
            # exponent, t eps max|xi|: at most 1.4e-13 at t = 1e2 here, and
            # 1.4e-9 at t = 1e6, where a converged Newton solve on this
            # instance stops at 1.6e-11 (kl) and 2.4e-11 (quadratic)
            tol = 1e-12 * max(1.0, q_max) + t * eps * _max_abs(point) * q_max
            assert _max_abs(terms.gradient(point)[block]) <= tol, t


@pytest.mark.parametrize("div", ENTROPIES)
def test_scaled_start_from_far_constant_starts(div):
    # the quadratic's root starts to the right of the root, so t e^s stays
    # bounded; a start from the current potential overflowed from psi = 5
    p = _clouds(div)
    for c in (-5.0, 0.0, 5.0):
        x = np.full(p.n_x + p.n_y, c)
        for t in (1.0, 1e2, 1e4):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                y = scaled_start(p, t, x)
            assert np.isfinite(y).all(), (c, t)
            terms = _dual_terms(p, t)
            assert terms.value(y) <= terms.value(x), (c, t)


@pytest.mark.parametrize("div", ENTROPIES)
def test_far_constant_warm_starts_converge(div):
    # unscaled, the starts -5 and +5 stopped unconverged after
    # MAX_NEWTON_ITERS for every entropy
    p = _clouds(div)
    for c in (-5.0, 0.0, 5.0):
        sol = solve_dual_t(p, 100.0, init=np.full(p.n_x + p.n_y, c))
        assert sol.converged, c


def test_plan_exponent_and_ode_terms_take_rows_of_a_grid():
    p = random_problem(np.random.default_rng(9), n_x=4, n_y=3)
    rng = np.random.default_rng(10)
    ts = np.array([1.0, 7.5, 120.0])
    xs = 0.3 * rng.standard_normal((3, p.n_x + p.n_y))
    exponents = plan_exponent(xs, ts, p)
    gamma, hess, forcing = ode_terms(xs, ts, p)
    for k, t in enumerate(ts.tolist()):
        assert np.array_equal(exponents[k], plan_exponent(xs[k], t, p))
        one = ode_terms(xs[k], t, p)
        for batched, single in zip((gamma, hess, forcing), one):
            assert np.array_equal(batched[k], single), k
    # a held plan and exponent give the same terms; the exponent is scratch
    held = ode_terms(xs, ts, p, plan=gamma.copy(), exponent=exponents)
    for batched, single in zip((gamma, hess, forcing), held):
        assert np.array_equal(batched, single)
    assert not np.array_equal(exponents, plan_exponent(xs, ts, p))


def test_nonconverged_flagged(monkeypatch):
    p = make_1x1(c=1.0)
    monkeypatch.setattr(reg_solver, "MAX_NEWTON_ITERS", 1)
    sol = solve_dual_t(p, 50.0, RegSolveConfig(grad_tol=1e-10))
    assert not sol.converged


def test_clamped_exp_flushes_below_exp_min():
    e = np.linspace(-800.0, 700.0, 30001)
    before = e.copy()
    g = clamped_exp(e)
    assert np.array_equal(e, before)
    # no subnormal: every value is an exact zero or a normal double
    assert np.all((g == 0.0) | (g >= np.finfo(float).tiny))
    kept = e >= EXP_MIN
    assert np.array_equal(g[kept], np.exp(np.minimum(e[kept], EXP_MAX)))
    assert np.all(g[~kept] == 0.0)


def _ladder_chain(div, n_x=60):
    """Solutions of the warm-started chain on the size-ladder instance of size n_x."""
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=4, n_x=n_x, n_y=n_x + 2, mass_x=float(n_x),
        mass_y=float(n_x + 2), divergence=div,
    ))
    cfg = RegSolveConfig(grad_tol=1e-12)
    sols, init = [], None
    for t in np.geomspace(1.0, 1e4, 20):
        sol = solve_dual_t(p, float(t), cfg, init=init)
        assert sol.converged
        sols.append(sol)
        init = sol.xi
    return sols


@pytest.mark.parametrize("div, total", [("kl", 99), ("quadratic", 102)])
def test_warm_chain_iterations_pinned(div, total):
    # each warm start is scaled to the new t (scaled_start) before Newton,
    # and the rise bound of the line search keeps it from overshooting the
    # plan exponents; unscaled starts took 131 (kl) and 123 (quadratic), and
    # unscaled unbounded steps 174 and 138
    assert sum(sol.iters for sol in _ladder_chain(div)) == total


@pytest.mark.parametrize("n_x, total", [(120, 99), (240, 97)])
def test_size_ladder_chain_iterations_pinned(n_x, total):
    # the other rungs of the size ladder at data seed 4 (60 is pinned above);
    # iteration counts do not depend on the machine.  Unscaled starts took
    # 124 and 139
    assert sum(sol.iters for sol in _ladder_chain("kl", n_x=n_x)) == total


def test_cold_chain_reports_the_flags_of_every_stage():
    # on this instance the ridge is needed at the t = 1e5 stage of the chain
    # to t = 1e6, not at the last one; the result still carries it, once
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=7, n_x=120, n_y=122))
    stages = []
    newton_solve = reg_solver._newton_solve

    def record(*args):
        sol = newton_solve(*args)
        stages.append(list(sol.flags))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reg_solver, "_newton_solve", record)
        sol = solve_dual_t(p, 1e6)
    assert stages[-1] == [] and ["ridge"] in stages[:-1]
    assert sol.converged and sol.flags == ["ridge"]


def test_schur_factors_of_the_240_chain_keep_subnormal_fill_in_rare(monkeypatch):
    # EXP_MIN keeps every entry of the Schur complement a normal double, but
    # Cholesky fill-in multiplies small entries along paths and can still sink
    # below the normal range, where the factorization slows down.  With
    # EXP_MIN = -300 about 5 in 10^4 factor entries of this chain were
    # subnormal; now 2 in 10^5
    factors = []

    def capture(*args, **kwargs):
        U, s, info = dposv(*args, **kwargs)
        factors.append(np.triu(U))  # the lower triangle is left as it was
        return U, s, info

    dposv = core.dposv
    monkeypatch.setattr(core, "dposv", capture)
    _ladder_chain("kl", n_x=240)
    tiny = np.finfo(float).tiny
    subnormal = sum(int(((U != 0) & (np.abs(U) < tiny)).sum()) for U in factors)
    entries = sum(int(np.count_nonzero(U)) for U in factors)
    assert subnormal < 1e-4 * entries


@pytest.mark.parametrize("div", ["kl", "quadratic"])
def test_warm_chain_plans_hold_no_subnormal(div):
    tiny = np.finfo(float).tiny
    for sol in _ladder_chain(div):
        g = sol.gamma
        assert not np.any((g > 0.0) & (g < tiny)), sol.t


@pytest.mark.parametrize("div", ["kl", "quadratic"])
def test_flush_leaves_the_warm_chain_unchanged(div, monkeypatch):
    flushed = _ladder_chain(div)
    monkeypatch.setattr(reg_solver, "EXP_MIN", -np.inf)
    exact = _ladder_chain(div)
    for a, b in zip(flushed, exact):
        assert np.array_equal(a.xi.stacked, b.xi.stacked), a.t
        assert a.iters == b.iters, a.t


@pytest.mark.parametrize("div", ["kl", "quadratic"])
def test_badly_scaled_masses_raise_named_tangent_failure(div):
    # masses of 1e-49: the plan at the first continuation stage is far below
    # the Hessian's rounding, and the tangent's Schur complement is singular
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence=div,
                                mass_x=13e-50, mass_y=15e-50))
    with pytest.raises(TangentFailed) as info:
        solve_dual_t(p, 100)
    assert isinstance(info.value, np.linalg.LinAlgError)
    assert info.value.t == 1.0 and info.value.minor == 13


@pytest.mark.parametrize("div", ENTROPIES)
def test_dual_terms_of_a_block_are_each_row_alone(div):
    # an array of t is a block of problems: value, gradient, Hessian pair and
    # rise of each row, on all rows, a subset or one row as its 1-D point
    # and index, are bitwise the row's own; the rows leave as in
    # newton_minimize, so the block keeps the bases of those that stay
    p = _clouds(div)
    ts = np.array([1.0, 10.0, 1e3])
    rng = np.random.default_rng(3)
    x = 0.1 * rng.standard_normal((3, p.n_x + p.n_y))
    step = rng.standard_normal((3, p.n_x + p.n_y))
    block = _dual_terms(p, ts)
    for rows in (np.arange(3), np.array([0, 2]), 2):
        value, gradient = block.value(x[rows], rows), block.gradient(x[rows], rows)
        G, d = block.hessian(x[rows], rows)
        rise = block.rise(step[rows], rows)
        if np.ndim(rows) == 0:
            rows, value, gradient, G, d, rise = [rows], [value], [gradient], [G], [d], [rise]
        for j, r in enumerate(rows):
            alone = _dual_terms(p, float(ts[r]))
            assert value[j] == alone.value(x[r]) and rise[j] == alone.rise(step[r])
            assert gradient[j].tobytes() == alone.gradient(x[r]).tobytes()
            G_r, d_r = alone.hessian(x[r])
            assert G[j].tobytes() == G_r.tobytes() and d[j].tobytes() == d_r.tobytes()


@pytest.mark.parametrize("div", ENTROPIES)
def test_newton_rows_are_each_row_solved_alone(div):
    # a block of six points, started from the solutions at t / 3 (unscaled,
    # so the rise bound and the line search act) and one from its own
    # solution: each row's point, plan, iterations and flags are byte for
    # byte those of the row solved alone, by the block of one row and by the
    # 1-D kernel; the converged row takes no step and keeps its start
    p = _clouds(div)
    cfg = RegSolveConfig(grad_tol=1e-12)
    ts = np.array([1.0, 3.0, 10.0, 30.0, 100.0, 1e3])
    starts = np.array([solve_dual_t(p, t / 3, cfg).xi.stacked for t in ts])
    starts[2] = solve_dual_t(p, ts[2], cfg).xi.stacked
    before = starts.copy()
    block = reg_solver._newton_rows(p, ts, cfg, starts)
    assert np.array_equal(starts, before)
    assert block[2].iters == 0 and block[2].xi.stacked.tobytes() == before[2].tobytes()
    assert sum(sol.iters for sol in block) > 10
    for r, sol in enumerate(block):
        alone = reg_solver._newton_solve(p, float(ts[r]), cfg, before[r].copy())
        assert sol.xi.stacked.tobytes() == alone.xi.stacked.tobytes(), r
        assert sol.gamma.tobytes() == alone.gamma.tobytes(), r
        assert (sol.t, sol.iters, sol.flags, sol.grad_norm, sol.converged) == (
            alone.t, alone.iters, alone.flags, alone.grad_norm, alone.converged)
        terms = _dual_terms(p, float(ts[r]))
        x, _, _, iters, flags = newton_minimize(
            terms.value, terms.gradient, terms.hessian, before[r].copy(),
            cfg.grad_tol, reg_solver.MAX_NEWTON_ITERS, rise=terms.rise,
        )
        assert x.tobytes() == sol.xi.stacked.tobytes() and (iters, flags) == (sol.iters, sol.flags)


def _checked_hessians(monkeypatch, seen):
    """Check every Hessian pair of the solves against the direct plan at its point.

    The Hessian runs at accepted points only; its G is t times the rescaled
    plan there and its D is t A gamma + grad^2 F*(-xi).  Entrywise, each
    agrees with the direct one to rtol = 1e-13 + t eps (2 max|xi| + max c),
    the rounding of a direct plan exponent t (A* xi - c) (at t = 1e6 the
    direct plans at two nearby points already differ by that much).  An entry
    of the direct plan below exp(EXP_MIN + RISE_MAX) may be 0 in the
    rescaled one, flushed at its base, so it is compared absolutely.  The
    same plan computed from its base, exp(e_b + t (x - x_b)_x + t (x -
    x_b)_y), e_b the exponent of the last direct plan at its t (at x_b) and
    entries flushed at the base kept 0, takes that rounding out.  `seen`
    collects, per row of each Hessian, its largest entry error against the
    direct plan and against the plan from its base, each relative to the
    plan's largest entry, and its t.
    """
    dual_terms = reg_solver._dual_terms
    eps, floor = np.finfo(float).eps, np.exp(EXP_MIN + reg_solver.RISE_MAX)
    exponent_of, bases = reg_solver.plan_exponent, {}

    def recorded(x, t, problem):
        # the point and exponent of the last direct plan at each t
        exponent = exponent_of(x, t, problem)
        rows = np.reshape(x, (-1, x.shape[-1]))
        for x_r, t_r, e_r in zip(rows, np.broadcast_to(t, len(rows)).tolist(),
                                 exponent.reshape(-1, *exponent.shape[-2:])):
            bases[t_r] = x_r.copy(), e_r.copy()
        return exponent

    def checked(problem, t):
        terms = dual_terms(problem, t)

        def hessian(x, rows=None):
            G, D = terms.hessian(x, rows)
            for r, x_r in enumerate(np.atleast_2d(x)):
                t_r = float(t if np.ndim(t) == 0 else np.atleast_1d(t[rows])[r])
                G_r, D_r = np.reshape(G, (-1,) + G.shape[-2:])[r], np.atleast_2d(D)[r]
                exact = t_r * clamped_exp(plan_exponent(x_r, t_r, problem))
                rtol = 1e-13 + t_r * eps * (2 * np.abs(x_r).max() + problem.cost.max())
                big = exact >= t_r * floor
                assert np.all(np.abs(G_r - exact)[big] <= rtol * exact[big]), t_r
                assert np.all(np.abs(G_r - exact)[~big] <= t_r * floor), t_r
                D_exact = apply_A(exact) + (D_r - apply_A(G_r))  # the conjugate part as is
                assert np.all(np.abs(D_r - D_exact) <= rtol * D_exact), t_r
                x_b, e_b = bases[t_r]
                shift = t_r * (x_r - x_b)
                based = np.exp(np.minimum(e_b, EXP_MAX) + shift[:problem.n_x, None]
                               + shift[None, problem.n_x:])
                based = t_r * np.where(e_b >= EXP_MIN, based, 0.0)
                seen.append((np.abs(G_r - exact).max() / exact.max(),
                             np.abs(G_r - based).max() / based.max(), t_r))
            return G, D

        return terms._replace(hessian=hessian)

    monkeypatch.setattr(reg_solver, "_dual_terms", checked)
    monkeypatch.setattr(reg_solver, "plan_exponent", recorded)


@pytest.mark.parametrize("n_x", [60, 240])
def test_rescaled_plans_match_direct_plans_along_the_size_ladder(monkeypatch, n_x):
    # every accepted point of the warm chain (t up to 1e4) is evaluated from
    # its base: its plan agrees with the plan computed there directly, and
    # with the plan computed from its base, to 1e-12 of the largest entry
    # (1.2e-13 at n_x = 60, 3.5e-14 at 240), and each returned plan is the
    # direct one, bitwise
    seen = []
    _checked_hessians(monkeypatch, seen)
    sols = _ladder_chain("kl", n_x=n_x)
    assert len(seen) == sum(sol.iters for sol in sols) > 50
    assert max(max(direct, based) for direct, based, _ in seen) <= 1e-12
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=4, n_x=n_x, n_y=n_x + 2, mass_x=float(n_x),
        mass_y=float(n_x + 2), divergence="kl",
    ))
    for sol in sols:
        direct = clamped_exp(plan_exponent(sol.xi.stacked, sol.t, p))
        assert sol.gamma.tobytes() == direct.tobytes(), sol.t


@pytest.mark.parametrize("div", ["kl", "quadratic"])
def test_rescaled_plans_match_direct_plans_in_sweep_blocks(monkeypatch, div):
    # the blocks of a shipped sweep run to t = 1e6, where the rounding of a
    # direct exponent reaches 2e-11 of the largest entry, so below t = 1e4
    # only do the plans agree with the direct ones to 1e-12 of it; at every
    # t they agree to 1e-12 with the plans computed from their bases
    from uotlab.sweep import SweepConfig, run_sweep

    seen = []
    _checked_hessians(monkeypatch, seen)
    result = run_sweep(_clouds(div), SweepConfig())
    assert all(pt.converged for pt in result.points)
    assert len(seen) > 100 and max(t for *_, t in seen) >= 1e5
    assert max(direct for direct, _, t in seen if t < 1e4) <= 1e-12
    assert max(based for _, based, _ in seen) <= 1e-12


@pytest.mark.parametrize("block", [False, True])
def test_a_plan_is_rebuilt_directly_once_its_movement_passes_rise_max(block):
    # from the solution x0 at t = 100, raise every phi by 0.9 RISE_MAX / t
    # twice: the first point moves the plan exponents by 3.6 from the base,
    # and is rescaled, so the entries flushed at x0 stay 0 although their
    # direct values at x1 are positive; the second moves them by 7.2, past
    # RISE_MAX, and its plan is the direct one, byte for byte.  A block of
    # two rows (the second at t = 10, moved alike) does the same per row
    p = _clouds("kl")
    t = 100.0
    x0 = solve_dual_t(p, t).xi.stacked
    lift = np.zeros_like(x0)
    lift[:p.n_x] = 0.9 * reg_solver.RISE_MAX / t
    ts = np.array([t, 10.0])
    if block:
        x0 = np.array([x0, solve_dual_t(p, 10.0).xi.stacked])
        lift = np.array([lift, lift * 10.0])
    terms = _dual_terms(p, ts if block else t)
    rows = np.arange(2) if block else None
    t_G = ts[:, None, None] if block else t

    def direct(x):
        return clamped_exp(plan_exponent(x, ts if block else t, p))

    flushed = direct(x0) == 0.0
    points = [x0, x0 + lift, x0 + 2 * lift]
    assert np.any(flushed & (direct(points[1]) > 0.0))
    plans = []
    for x in points:
        terms.value(x, rows)  # the first trial from the point before
        terms.gradient(x, rows)  # x accepted
        plans.append(terms.hessian(x, rows)[0])
    assert plans[0].tobytes() == (t_G * direct(points[0])).tobytes()
    assert np.all(plans[1][flushed] == 0.0)
    assert plans[1].tobytes() != (t_G * direct(points[1])).tobytes()
    assert plans[2].tobytes() == (t_G * direct(points[2])).tobytes()
    assert np.any(plans[2][flushed] > 0.0)


@pytest.mark.parametrize("block", [False, True])
def test_a_clamped_plan_is_never_rescaled(block):
    # at phi = psi = 5 and t = 100 every plan exponent is far above EXP_MAX,
    # so the direct plan is clamped there and is no scaling of the plan at a
    # nearby point: a point that moves the exponents by only 0.4 gets its
    # plan directly, byte for byte, and keeps the clamp flag; in a block of
    # two such rows (t = 100 and 120), each row alike
    p = _clouds("kl")
    t = np.array([100.0, 120.0]) if block else 100.0
    rows = np.arange(2) if block else None
    terms = _dual_terms(p, t)
    x0 = np.full((2, p.n_x + p.n_y) if block else p.n_x + p.n_y, 5.0)
    x1 = x0 - 0.002
    assert np.all(terms.clamped(x0, rows)) and np.all(terms.clamped(x1, rows))
    for x in (x0, x1):
        terms.value(x, rows)
        terms.gradient(x, rows)
    G, _ = terms.hessian(x1, rows)
    t_G = t[:, None, None] if block else t
    assert G.tobytes() == (t_G * clamped_exp(plan_exponent(x1, t, p))).tobytes()
