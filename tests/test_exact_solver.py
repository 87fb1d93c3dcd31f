"""Ground-truth solver: KKT quality, saturated-set mechanics, limit plan."""

import math
import warnings

import numpy as np
import pytest

from uotlab.core import (
    DivergenceSpec,
    DualPotential,
    Marginals,
    Problem,
    apply_A,
    incidence_columns,
)
from uotlab.divergence import F_conj, divergence_for
from uotlab.exact_solver import (
    DegenerateInstance,
    _barrier_minimize,
    _polish,
    brute_force_primal,
    minimal_entropy_plan,
    optimal_marginals,
    saturated_set,
    solve_dual_exact,
    solve_exact,
)
from uotlab.reg_solver import primal_objective, solve_primal_t

from conftest import make_1x1, random_problem


def test_1x1_closed_forms_kl():
    p = make_1x1(c=1.0, kind="kl")
    ex = solve_exact(p)
    assert np.allclose(ex.xi_star.stacked, [0.5, 0.5], atol=1e-9)
    assert ex.I0 == [(0, 0)]
    assert ex.kappa[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(ex.m_star.stacked, np.exp(-0.5), atol=1e-9)
    assert ex.gamma_star[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-9)


def test_1x1_zero_cost_kl():
    p = make_1x1(c=0.0, kind="kl")
    xi = solve_dual_exact(p)
    assert np.allclose(xi.stacked, [0.0, 0.0], atol=1e-8)


def test_1x1_zero_cost_quadratic():
    p = make_1x1(c=0.0, kind="quadratic")
    ex = solve_exact(p)
    assert np.allclose(ex.xi_star.stacked, [0.0, 0.0], atol=1e-8)
    assert np.allclose(ex.m_star.stacked, [1.0, 1.0], atol=1e-8)


def test_saturated_set_hand_instance():
    # rational data: slack matrix [[0, 3/2], [1/2, 0]]
    p = Problem(
        [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
        [[1.0, 2.0], [2.0, 1.0]], cost_kind="explicit",
    )
    xi = DualPotential([0.5, 1.0], [0.5, 0.0])
    I0, kappa, kappa_star = saturated_set(xi, p)
    assert I0 == [(0, 0), (1, 1)]
    assert np.allclose(kappa, [[0.0, 1.5], [0.5, 0.0]])
    assert kappa_star == pytest.approx(0.5)


def test_saturated_set_threshold_stability():
    p = make_1x1(c=1.0)
    sat_tol = 1e-6
    base = DualPotential([0.5], [0.5])
    I0, _, _ = saturated_set(base, p, sat_tol)
    nudged = DualPotential([0.5 - sat_tol / 10], [0.5])
    I0b, _, _ = saturated_set(nudged, p, sat_tol)
    assert I0 == I0b


def test_saturated_set_infeasible_rejected():
    from uotlab.core import InvalidInput

    p = make_1x1(c=1.0)
    with pytest.raises(InvalidInput):
        saturated_set(DualPotential([2.0], [2.0]), p, 1e-6)


def test_empty_saturated_set_degenerate():
    p = make_1x1(c=1.0)
    with pytest.raises(DegenerateInstance):
        saturated_set(DualPotential([-1.0], [-1.0]), p, 1e-8)


def test_optimal_marginals_reference():
    p = make_1x1(c=1.0, kind="kl")
    div = divergence_for(p)
    m = optimal_marginals(DualPotential([0.5], [0.5]), div)
    assert np.allclose(m.stacked, np.exp(-0.5))


def test_minimal_entropy_plan_unique_point():
    m = Marginals([np.exp(-0.5)], [np.exp(-0.5)])
    g = minimal_entropy_plan([(0, 0)], m, (1, 1))
    assert g[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-10)


def test_minimal_entropy_plan_product_form():
    # full support with uniform marginals: symmetry forces the product plan
    I0 = [(i, j) for i in range(2) for j in range(2)]
    m = Marginals([1.0, 1.0], [1.0, 1.0])
    g = minimal_entropy_plan(I0, m, (2, 2))
    assert np.allclose(g, 0.5, atol=1e-9)


def test_minimal_entropy_plan_golden_section_oracle():
    # full 2x2 support, non-uniform marginals: the feasible set is the
    # 1-parameter family gamma(theta); compare against scalar minimization
    row = np.array([1.0, 2.0])
    col = np.array([1.4, 1.6])
    I0 = [(i, j) for i in range(2) for j in range(2)]
    g = minimal_entropy_plan(I0, Marginals(row, col), (2, 2))

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
    assert np.allclose(apply_A(g).stacked, np.concatenate([row, col]), atol=1e-9)


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
            np.abs(apply_A(ex.gamma_star).stacked - ex.m_star.stacked)
        ) <= 1e-8


def test_polish_drops_an_unsaturated_entry():
    # forcing one off-support constraint that keeps the saturated graph a
    # forest gives it a negative multiplier; the polish must drop it again
    rng = np.random.default_rng(83)
    recovered = 0
    for k in range(60):
        p = random_problem(rng, kind=("kl", "quadratic")[k % 2])
        ex = solve_exact(p)
        div = divergence_for(p)
        xi_bar, _, _ = _barrier_minimize(p, div)
        for i, j in np.argwhere(ex.kappa > 0):
            entries = ex.I0 + [(i, j)]
            B = incidence_columns(entries, p.n_x, p.n_y)
            if np.linalg.matrix_rank(B) < len(entries):
                continue  # the extra edge would close a cycle
            mask = np.zeros((p.n_x, p.n_y), dtype=bool)
            mask[tuple(np.transpose(entries))] = True
            xi, lam = _polish(p, div, xi_bar, mask)
            assert np.max(np.abs(xi.stacked - ex.xi_star.stacked)) <= 1e-12
            assert lam[i, j] == 0.0
            recovered += 1
    assert recovered >= 50


def test_polish_rejects_inconsistent_cycle():
    # all four entries of a 2x2 instance form a cycle, and random costs
    # violate c00 + c11 = c01 + c10, so the face is empty
    rng = np.random.default_rng(89)
    p = random_problem(rng, n_x=2, n_y=2)
    div = divergence_for(p)
    xi_bar, _, _ = _barrier_minimize(p, div)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _polish(p, div, xi_bar, np.ones((2, 2), dtype=bool)) is None


def test_kkt_multipliers_are_primal_feasible():
    rng = np.random.default_rng(67)
    p = random_problem(rng, n_x=3, n_y=3)
    ex = solve_exact(p)
    # the multiplier matrix is itself a primal optimizer: same objective
    assert abs(
        primal_objective(ex.lam, p) - primal_objective(ex.gamma_star, p)
    ) <= 1e-7


def test_entropy_minimality_on_optimal_face():
    rng = np.random.default_rng(71)
    from uotlab.core import discrete_entropy, marginal_matrix

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
