"""Ground-truth solver: KKT quality, crossover mechanics, limit plan."""

import math

import numpy as np
import pytest

from uotlab import exact_solver, reg_solver
from uotlab.core import (
    DivergenceSpec,
    InvalidInput,
    Problem,
    apply_A,
    component_roots,
    spanning_forest,
)
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.divergence import F_conj, divergence_for
from uotlab.exact_solver import (
    CrossoverFailed,
    DegenerateInstance,
    ProjectionFailed,
    _crossover,
    brute_force_primal,
    minimal_entropy_plan,
    solve_exact,
)
from uotlab.io import problem_from_dict, problem_to_dict
from uotlab.newton import newton_minimize
from uotlab.reg_solver import _newton_solve, primal_objective, solve_dual_t, solve_primal_t

from conftest import make_1x1, marginal_matrix, random_problem, use_unscaled_chain


def test_1x1_closed_forms_kl():
    p = make_1x1(c=1.0, kind="kl")
    ex = solve_exact(p)
    assert np.allclose(ex.xi_star.stacked, [0.5, 0.5], atol=1e-9)
    assert ex.I0 == [(0, 0)]
    assert ex.kappa[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(ex.m_star, np.exp(-0.5), atol=1e-9)
    assert ex.gamma_star[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-9)


def test_1x1_zero_cost_kl():
    p = make_1x1(c=0.0, kind="kl")
    xi = solve_exact(p).xi_star
    assert np.allclose(xi.stacked, [0.0, 0.0], atol=1e-8)


def test_1x1_zero_cost_quadratic():
    p = make_1x1(c=0.0, kind="quadratic")
    ex = solve_exact(p)
    assert np.allclose(ex.xi_star.stacked, [0.0, 0.0], atol=1e-8)
    assert np.allclose(ex.m_star, [1.0, 1.0], atol=1e-8)


def test_saturated_set_hand_instance():
    # symmetric kl data: xi* = 1/2 everywhere, slack matrix [[0, 1], [1, 0]];
    # the Kruskal tree holds one off-diagonal entry, whose flow comes out
    # e^-1 - 1 < 0, so the crossover drops it
    p = Problem(
        [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
        [[1.0, 2.0], [2.0, 1.0]], cost_kind="explicit",
    )
    ex = solve_exact(p)
    assert ex.I0 == [(0, 0), (1, 1)]
    assert np.allclose(ex.xi_star.stacked, 0.5, atol=1e-14)
    assert np.allclose(ex.kappa, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
    assert ex.kappa_star == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(ex.gamma_star, np.exp(-0.5) * np.eye(2), atol=1e-14)


def test_crossover_repairs_an_infeasible_start():
    # slack -3 at the start: the crossover enters the entry and lands on xi*
    p = make_1x1(c=1.0)
    x, lam, forest, _ = _crossover(p, np.array([2.0, 2.0]))
    assert np.allclose(x, 0.5, atol=1e-14)
    assert forest.tolist() == [[True]]
    assert lam[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-14)


def test_empty_saturated_set_degenerate():
    # the quadratic conjugate is minimized at xi = 1, strictly inside
    # xi_x + xi_y <= 10: the crossover drops the only edge (flow -4)
    p = make_1x1(c=10.0, kind="quadratic")
    with pytest.raises(DegenerateInstance):
        solve_exact(p)


def test_optimal_marginals_reference():
    # xi* = (1/2, 1/2), so m* = grad F*(-xi*) = exp(-1/2) on both sides
    m = solve_exact(make_1x1(c=1.0, kind="kl")).m_star
    assert np.allclose(m, np.exp(-0.5))


def test_minimal_entropy_plan_unique_point():
    m = np.array([np.exp(-0.5), np.exp(-0.5)])
    g = minimal_entropy_plan([(0, 0)], m, (1, 1))
    assert g[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-10)


def test_minimal_entropy_plan_product_form():
    # full support with uniform marginals: symmetry forces the product plan
    I0 = [(i, j) for i in range(2) for j in range(2)]
    m = np.ones(4)
    g = minimal_entropy_plan(I0, m, (2, 2))
    assert np.allclose(g, 0.5, atol=1e-9)


def test_minimal_entropy_plan_rejects_marginals_off_the_span():
    # on I0 = {(0, 0)} a plan has equal row and column sums; 1 and 2 are not
    m = np.array([1.0, 2.0])
    with pytest.raises(ProjectionFailed) as info:
        minimal_entropy_plan([(0, 0)], m, (1, 1))
    assert isinstance(info.value, RuntimeError)
    assert info.value.residual > 0.1


def test_minimal_entropy_plan_rejects_an_empty_saturated_set():
    with pytest.raises(InvalidInput, match="saturated set is empty"):
        minimal_entropy_plan([], np.array([1.0, 1.0]), (1, 1))


def test_minimal_entropy_plan_two_components():
    # I0 = the 2x2 diagonal: each component is one entry, so each entry
    # carries its own marginal, and the roots' term vanishes at the optimum
    m = np.array([1.0, 2.0, 1.0, 2.0])
    g = minimal_entropy_plan([(0, 0), (1, 1)], m, (2, 2))
    assert np.allclose(g, np.diag([1.0, 2.0]), atol=1e-12)


def test_minimal_entropy_plan_rejects_an_isolated_node_with_mass():
    # y1 touches no entry of I0, so no plan on I0 carries its marginal
    m = np.array([1.0, 1.0, 1.0])
    with pytest.raises(ProjectionFailed) as info:
        minimal_entropy_plan([(0, 0)], m, (1, 2))
    assert info.value.residual == pytest.approx(1.0, abs=1e-12)


def test_minimal_entropy_plan_golden_section_oracle():
    # full 2x2 support, non-uniform marginals: the feasible set is the
    # 1-parameter family gamma(theta); compare against scalar minimization
    row = np.array([1.0, 2.0])
    col = np.array([1.4, 1.6])
    I0 = [(i, j) for i in range(2) for j in range(2)]
    g = minimal_entropy_plan(I0, np.concatenate([row, col]), (2, 2))

    def entropy_of(theta):
        gamma = np.array(
            [[theta, row[0] - theta], [col[0] - theta, row[1] - col[0] + theta]]
        )
        if np.any(gamma <= 0):
            return math.inf
        return float(np.sum(gamma * (np.log(gamma) - 1.0)))

    lo, hi = 1e-9, min(row[0], col[0]) - 1e-9
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(200):
        if entropy_of(c1) < entropy_of(c2):
            b, c2 = c2, c1
            c1 = b - invphi * (b - a)
        else:
            a, c1 = c1, c2
            c2 = a + invphi * (b - a)
    theta = 0.5 * (a + b)
    assert g[0, 0] == pytest.approx(theta, abs=1e-7)
    assert np.allclose(apply_A(g), np.concatenate([row, col]), atol=1e-9)


@pytest.mark.parametrize("kind", ["kl", "quadratic"])
def test_kkt_quality_random_instances(kind):
    rng = np.random.default_rng(61)
    for _ in range(8):
        p = random_problem(rng, kind=kind)
        ex = solve_exact(p)
        div = divergence_for(p)
        # feasibility
        assert float(np.min(ex.kappa)) >= -1e-8
        # strong duality
        primal = primal_objective(ex.gamma_star, p)
        assert abs(primal + F_conj(-ex.xi_star.stacked, div)) <= 1e-8
        # complementary slackness
        assert float(np.max(np.abs(ex.gamma_star * ex.kappa))) <= 1e-10
        # the plan realizes the optimal marginals on its support
        assert np.max(
            np.abs(apply_A(ex.gamma_star) - ex.m_star)
        ) <= 1e-8


def test_crossover_drops_an_unsaturated_entry():
    # from a start far off the optimum, Kruskal's tree holds entries outside
    # I0 (they must be dropped) and misses violated ones (they must enter);
    # every start ends on xi*
    rng = np.random.default_rng(83)
    dropped = infeasible = 0
    for k in range(60):
        p = random_problem(rng, n_x=3, n_y=3, kind=("kl", "quadratic")[k % 2])
        ex = solve_exact(p)
        x0 = ex.xi_star.stacked + rng.normal(0.0, 1.0, p.n_x + p.n_y)
        kappa0 = p.cost - (x0[:3, None] + x0[None, 3:])
        order = np.column_stack(np.unravel_index(np.argsort(kappa0, axis=None), (3, 3)))
        start = {tuple(e) for e in order[spanning_forest(order, 3, 3)[0]]}
        x, lam, forest, _ = _crossover(p, x0)
        assert np.max(np.abs(x - ex.xi_star.stacked)) <= 1e-12
        assert np.all(lam[~forest] == 0.0) and np.all(lam >= 0.0)
        dropped += bool(start - set(ex.I0))
        infeasible += bool(np.min(kappa0) < 0)
    assert dropped >= 50 and infeasible >= 50


def test_crossover_ratio_test_on_a_cycle(monkeypatch):
    # from xi = (1/2, -1 | 1/2, -1) the slack order gives the tree
    # {(0,0), (0,1), (1,0)}; its face leaves (1,1) at slack -2, which closes
    # the cycle x1-y0-x0-y1.  The ratio test must push out a decreasing
    # edge, (0,1) or (1,0), never the increasing (0,0)
    p = Problem(
        [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
        [[1.0, 2.0], [2.0, 1.0]], cost_kind="explicit",
    )
    forests = []

    def recording(entries, n_x, n_y):
        forests.append({tuple(map(int, e)) for e in entries})
        return spanning_forest(entries, n_x, n_y)

    monkeypatch.setattr(exact_solver, "spanning_forest", recording)
    x, _, forest, _ = _crossover(p, np.array([0.5, -1.0, 0.5, -1.0]))
    assert forests[1] == {(0, 0), (0, 1), (1, 0)}
    assert len(forests[2]) == 3 and {(0, 0), (1, 1)} <= forests[2]
    assert np.allclose(x, 0.5, atol=1e-14)
    assert forest.tolist() == [[True, False], [False, True]]


def test_crossover_grounds_each_forest_once(monkeypatch):
    # the face point, the flows and a cycle's path of one forest share one
    # grounded pair: component_roots runs once per forest, pivots + 1 times,
    # on the hand cycle instance and on the shipped point clouds (5 pivots)
    cycle = Problem(
        [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
        [[1.0, 2.0], [2.0, 1.0]], cost_kind="explicit",
    )
    shipped = gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence="quadratic"))
    starts = [(cycle, np.array([0.5, -1.0, 0.5, -1.0])),
              (shipped, solve_dual_t(shipped, exact_solver.SEED_T).xi.stacked)]
    calls = []

    def counting(N):
        calls.append(N.shape)
        return component_roots(N)

    monkeypatch.setattr(exact_solver, "component_roots", counting)
    for p, x0 in starts:
        calls.clear()
        pivots = _crossover(p, x0)[3]
        assert pivots >= 1 and len(calls) == pivots + 1


def test_nonconverged_seed_is_flagged(monkeypatch):
    # the shipped chain converges on this scale-ladder seed; the unscaled
    # chain stops it after MAX_NEWTON_ITERS ridged steps at t = SEED_T, and
    # the crossover certifies the same reference from it all the same
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=6, divergence="kl", n_x=240, n_y=242,
    ))
    assert solve_exact(p).flags == []
    use_unscaled_chain(monkeypatch)
    ex = solve_exact(p)
    assert ex.converged and ex.pivots == 8
    assert ex.flags == ["seed-ridge", "seed-nonconverged"]
    primal = primal_objective(ex.gamma_star, p)
    assert abs(primal + F_conj(-ex.xi_star.stacked, p.penalty)) <= 1e-8 * abs(primal)


def test_crossover_pivot_cap_raises_named_error(monkeypatch):
    # the hand instance needs one pivot; a cap of 0 reports its margins
    p = Problem(
        [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
        [[1.0, 2.0], [2.0, 1.0]], cost_kind="explicit",
    )
    monkeypatch.setattr(exact_solver, "MAX_PIVOTS", 0)
    with pytest.raises(CrossoverFailed) as info:
        solve_exact(p)
    assert isinstance(info.value, RuntimeError)
    assert info.value.pivots == 0
    assert info.value.min_flow == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-12)


# crossover pivots on the four shipped combos from the seed at t = SEED_T;
# machine-independent, and they grow if the seed moves away from xi*
SHIPPED_PIVOTS = {
    ("point-clouds", 4, "kl"): 1,
    ("point-clouds", 4, "quadratic"): 5,
    ("gaussians-1d", 0, "kl"): 0,
    ("gaussians-1d", 0, "quadratic"): 0,
}


@pytest.mark.parametrize("kind,seed,div", SHIPPED_PIVOTS)
def test_shipped_crossover_pivots_pinned(kind, seed, div):
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    ex = solve_exact(p)
    assert ex.pivots == SHIPPED_PIVOTS[kind, seed, div]
    assert ex.converged and ex.flags == []


LADDER = [(seed, 13, div) for seed in range(40) for div in ("kl", "quadratic")]
LADDER += [(4, n, div) for n in (60, 120, 240) for div in ("kl", "quadratic")]
# crossover pivots of the larger rungs from the seed at t = SEED_T
LADDER_PIVOTS = {
    (60, "kl"): 3, (60, "quadratic"): 6,
    (120, "kl"): 2, (120, "quadratic"): 10,
    (240, "kl"): 2, (240, "quadratic"): 9,
}
# instances of the scale ladder (scripts/scale_ladder.py) whose unscaled
# seed chain (use_unscaled_chain) needs a ridge beyond 1e8, as the ridge cap
# scaled with the Hessian allows, and their pivots from either chain
SCALE_PIVOTS = {
    (8, 120, "kl"): 3, (8, 120, "quadratic"): 21,
    (0, 240, "kl"): 7, (5, 240, "quadratic"): 38,
}
LADDER += list(SCALE_PIVOTS)


@pytest.mark.parametrize("seed,n_x,div", LADDER)
def test_exact_reference_ladder(seed, n_x, div):
    # point clouds at the default size and three larger ones: every reference
    # converges with duality gap <= 1e-8 and complementarity <= 1e-10
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=seed, divergence=div, n_x=n_x, n_y=n_x + 2,
    ))
    ex = solve_exact(p)
    assert ex.converged and "seed-nonconverged" not in ex.flags
    if (seed, n_x, div) in SCALE_PIVOTS:
        assert ex.pivots == SCALE_PIVOTS[seed, n_x, div] and ex.flags == []
    elif n_x > 13:
        assert ex.pivots == LADDER_PIVOTS[n_x, div]
    _assert_certified(ex, p)


def _assert_certified(ex, p):
    """Duality gap <= 1e-8 and complementarity <= 1e-10."""
    gap = primal_objective(ex.gamma_star, p) + F_conj(-ex.xi_star.stacked, p.penalty)
    assert abs(gap) <= 1e-8
    assert float(np.max(np.abs(ex.gamma_star * ex.kappa))) <= 1e-10


@pytest.mark.parametrize("seed,n_x,div", SCALE_PIVOTS)
def test_unscaled_chain_needs_the_scaled_ridge_cap(seed, n_x, div, monkeypatch):
    # from the unscaled chain these seeds need a ridge beyond 1e8, which the
    # ridge cap scaled with the Hessian allows, and the crossover takes the
    # pivots it takes from the shipped chain's seed
    use_unscaled_chain(monkeypatch)
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=seed, divergence=div, n_x=n_x, n_y=n_x + 2,
    ))
    ex = solve_exact(p)
    assert ex.converged and "seed-nonconverged" not in ex.flags
    assert ex.pivots == SCALE_PIVOTS[seed, n_x, div] and "seed-ridge" in ex.flags
    _assert_certified(ex, p)


@pytest.mark.parametrize("kind,seed,div,n_x", [
    *[(kind, seed, div, None) for kind, seed, div in SHIPPED_PIVOTS],
    *[("point-clouds", 4, div, n_x) for n_x, div in LADDER_PIVOTS],
])
def test_seeded_limit_plan_equals_the_cold_one(kind, seed, div, n_x):
    # solve_exact starts the limit plan from the seed's z = SEED_T (xi_seed
    # - xi*); the plan is the one Newton finds from 0
    size = {} if n_x is None else {"n_x": n_x, "n_y": n_x + 2}
    p = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div, **size))
    ex = solve_exact(p)
    cold = minimal_entropy_plan(ex.I0, ex.m_star, (p.n_x, p.n_y))
    assert np.max(np.abs(ex.gamma_star - cold)) <= 1e-13 * np.max(cold)


def test_minimal_entropy_plan_starts_from_the_lower_value(monkeypatch):
    # Newton begins from the start only where the functional is lower there
    # than at 0; the plan is the same either way
    row, col = np.array([1.0, 2.0]), np.array([1.4, 1.6])
    I0, m = [(i, j) for i in range(2) for j in range(2)], np.concatenate([row, col])
    cold = minimal_entropy_plan(I0, m, (2, 2))
    starts = []

    def record(value, gradient, hessian, x0, *args):
        starts.append(x0[0])
        return newton_minimize(value, gradient, hessian, x0, *args)

    monkeypatch.setattr(exact_solver, "newton_minimize", record)
    near = np.log(np.array([cold[0, 0], cold[1, 0], 1.0, cold[0, 1] / cold[0, 0]]))
    far = np.full(4, 40.0)
    for start, taken in [(near, near), (far, np.zeros(4)), (None, np.zeros(4))]:
        g = minimal_entropy_plan(I0, m, (2, 2), start)
        assert np.array_equal(starts[-1], taken)
        assert np.max(np.abs(g - cold)) <= 1e-13 * np.max(cold)
    with pytest.raises(InvalidInput, match="needs 4 stacked entries"):
        minimal_entropy_plan(I0, m, (2, 2), near[:3])


def test_shipped_exact_iterations_pinned(monkeypatch):
    # Newton iterations of the four shipped exact references: the seed
    # chains (28 stages, counted through _newton_solve) and the limit plans
    # (through newton_minimize); iteration counts do not depend on the
    # machine.  Unscaled stages each solved to grad_tol took 169, and limit
    # plans started from 0 took 39
    counts = {"seed": 0, "limit": 0}

    def newton_solve(*args):
        sol = _newton_solve(*args)
        counts["seed"] += sol.iters
        return sol

    def limit(*args):
        result = newton_minimize(*args)
        counts["limit"] += int(result[3].sum())
        return result

    monkeypatch.setattr(reg_solver, "_newton_solve", newton_solve)
    monkeypatch.setattr(exact_solver, "newton_minimize", limit)
    for kind, seed, div in SHIPPED_PIVOTS:
        solve_exact(gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div)))
    assert counts == {"seed": 101, "limit": 8}


@pytest.mark.parametrize("seed", [7, 10])
def test_optimal_marginals_balance_each_component(seed):
    # every component of I0 carries the same mass on its x-side and its
    # y-side, to rounding of the marginals: a large-t solve around xi*
    # amplifies an imbalance |N^T m*| by t
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=seed, divergence="kl", n_x=120, n_y=122,
    ))
    ex = solve_exact(p)
    N = spanning_forest(ex.I0, p.n_x, p.n_y)[1]
    assert np.max(np.abs(N.T @ ex.m_star)) <= 5e-14 * np.max(np.abs(ex.m_star))


@pytest.mark.parametrize("div,scale", [
    ("kl", 1e12), ("quadratic", 1e9), ("quadratic", 1e12),
    *[(div, s) for div in ("kl", "quadratic") for s in (1e-12, 1e-9, 1e-6)],
])
def test_large_masses_scale_the_reference(div, scale, monkeypatch):
    # the exact problem is 1-homogeneous in (plan, masses), from small masses
    # to large.  The shipped chain's seed needs no ridge at any scale; from
    # the unscaled chain the seed's Hessian at the large scales needs a ridge
    # far above 1e8, which the ridge cap scaled with the Hessian allows.  At
    # 1e-12 the limit plan starts from 0, whose value is below the seed's
    # start: from the seed it would stop short of the marginals
    base = solve_exact(gen_dataset(DatasetSpec(kind="point-clouds", seed=4, divergence=div)))
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=4, divergence=div, mass_x=13 * scale, mass_y=15 * scale,
    ))
    refs = [(solve_exact(p), False)]
    if scale > 1:
        use_unscaled_chain(monkeypatch)
        refs.append((solve_exact(p), True))
    for ex, ridged in refs:
        assert ex.I0 == base.I0 and ("seed-ridge" in ex.flags) == ridged
        assert np.max(np.abs(ex.xi_star.stacked - base.xi_star.stacked)) <= 1e-12
        assert np.max(np.abs(ex.gamma_star / scale - base.gamma_star)) <= 1e-10 * np.max(base.gamma_star)


@pytest.mark.parametrize("kind,seed", [("point-clouds", 4), ("gaussians-1d", 0)])
def test_normalized_kl_matches_kl_through_the_solvers(kind, seed):
    # kl-normalized shifts phi by +1 and phi* by -1, so every minimizer is
    # the one of kl; the gap runs csiszar with the shifted phi
    doc = problem_to_dict(gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence="kl")))
    p_kl = problem_from_dict(doc)
    p_nkl = problem_from_dict({**doc, "divergence": {"kind": "kl-normalized"}})
    assert divergence_for(p_nkl).entropy.name == "kl-normalized"
    for t in (1.0, 1e2, 1e4):
        xi_kl = solve_dual_t(p_kl, t).xi.stacked
        xi_nkl = solve_dual_t(p_nkl, t).xi.stacked
        assert np.max(np.abs(xi_kl - xi_nkl)) <= 1e-12
    ex_kl, ex_nkl = solve_exact(p_kl), solve_exact(p_nkl)
    assert ex_nkl.I0 == ex_kl.I0
    assert np.max(np.abs(ex_nkl.xi_star.stacked - ex_kl.xi_star.stacked)) <= 1e-12
    assert np.max(np.abs(ex_nkl.gamma_star - ex_kl.gamma_star)) <= 1e-12
    div = divergence_for(p_nkl)
    gap = primal_objective(ex_nkl.gamma_star, p_nkl) + F_conj(-ex_nkl.xi_star.stacked, div)
    assert abs(gap) <= 1e-8


def test_kkt_multipliers_are_primal_feasible():
    rng = np.random.default_rng(67)
    p = random_problem(rng, n_x=3, n_y=3)
    ex = solve_exact(p)
    flows = _crossover(p, solve_dual_t(p, exact_solver.SEED_T).xi.stacked)[1]
    # the crossover's flows (the KKT multipliers) are themselves a primal
    # optimizer: same objective
    assert abs(
        primal_objective(flows, p) - primal_objective(ex.gamma_star, p)
    ) <= 1e-7


def test_entropy_minimality_on_optimal_face():
    rng = np.random.default_rng(71)
    from uotlab.core import discrete_entropy

    # symmetric costs make every constraint saturate, so the optimal face is
    # a segment (cyclic support) rather than the generic single tree point
    p = Problem(
        [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
        [[1.0, 1.0], [1.0, 1.0]], cost_kind="explicit",
    )
    ex = solve_exact(p)
    mask = np.zeros((p.n_x, p.n_y), dtype=bool)
    for i, j in ex.I0:
        mask[i, j] = True
    assert mask.all()
    A = marginal_matrix(p.n_x, p.n_y)[:, mask.ravel()]
    _, s, Vt = np.linalg.svd(A)
    null = Vt[np.sum(s > 1e-10):]
    assert null.size
    base = discrete_entropy(ex.gamma_star)
    for _ in range(100):
        direction = null.T @ rng.standard_normal(null.shape[0])
        pert = np.zeros((p.n_x, p.n_y))
        pert[mask] = direction
        scale = 1e-3 / max(np.max(np.abs(pert)), 1e-12)
        trial = ex.gamma_star + scale * pert
        if np.any(trial[mask] <= 0):
            continue
        assert discrete_entropy(trial) >= base - 1e-12


def test_brute_force_reference_values():
    p = make_1x1(c=1.0, kind="kl")
    g = brute_force_primal(p)
    assert g[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-6)
    assert primal_objective(g, p) == pytest.approx(-2 * np.exp(-0.5), abs=1e-9)
    p0 = make_1x1(c=0.0, kind="quadratic")
    g0 = brute_force_primal(p0)
    assert g0[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert primal_objective(g0, p0) == pytest.approx(0.0, abs=1e-10)


def test_brute_force_matches_high_t_solve():
    rng = np.random.default_rng(73)
    for kind in ("kl", "quadratic"):
        p = random_problem(rng, n_x=2, n_y=2, kind=kind)
        gamma_t = solve_primal_t(p, 1e6)
        bf = brute_force_primal(p)
        assert abs(
            primal_objective(gamma_t, p) - primal_objective(bf, p)
        ) <= 1e-6


def test_brute_force_size_guard():
    from uotlab.core import InvalidInput

    rng = np.random.default_rng(79)
    p = random_problem(rng, n_x=4, n_y=3)
    with pytest.raises(InvalidInput):
        brute_force_primal(p)
