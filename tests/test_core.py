"""Marginal operator, adjoint, entropy and problem validation."""

import numpy as np
import pytest
import scipy.linalg

from uotlab.core import (
    DivergenceSpec,
    DualPotential,
    InvalidInput,
    Marginals,
    Problem,
    apply_A,
    apply_A_adjoint,
    bipartite_hessian,
    bipartite_solve,
    build_cost,
    discrete_entropy,
    incidence_columns,
    marginal_sums,
    spanning_forest,
)
from uotlab.newton import newton_minimize

from conftest import marginal_matrix


def test_apply_A_small_matrix():
    m = apply_A(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(m.row, [3.0, 7.0])
    assert np.allclose(m.col, [4.0, 6.0])


def test_apply_A_zero():
    m = apply_A(np.zeros((3, 2)))
    assert np.all(m.row == 0) and np.all(m.col == 0)


def test_apply_A_matches_dense_operator():
    rng = np.random.default_rng(1)
    g = rng.random((3, 3))
    A = marginal_matrix(3, 3)
    assert np.allclose(apply_A(g).stacked, A @ g.ravel(), atol=1e-14)


def test_marginal_sums_match_apply_A():
    g = np.random.default_rng(4).random((3, 5))
    assert np.array_equal(marginal_sums(g), apply_A(g).stacked)


@pytest.mark.parametrize(
    "n_x,n_y,ridge",
    [(3, 5, 0.0), (5, 3, 0.0), (4, 4, 0.0), (1, 6, 0.0), (6, 1, 0.0), (4, 7, 0.3)],
)
def test_bipartite_solve_matches_dense_cholesky(n_x, n_y, ridge):
    rng = np.random.default_rng(10 * n_x + n_y)
    G = rng.uniform(0.1, 2.0, (n_x, n_y))
    d = rng.uniform(0.01, 1.0, n_x + n_y)
    rhs = rng.standard_normal(n_x + n_y)
    H = bipartite_hessian(G, d) + ridge * np.eye(n_x + n_y)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), rhs)
    s = bipartite_solve(G, d[:n_x], d[n_x:], rhs, ridge)
    assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n_x,n_y", [(3, 5), (5, 3)])
def test_bipartite_solve_rejects_indefinite(n_x, n_y):
    rng = np.random.default_rng(5)
    G = rng.uniform(0.1, 2.0, (n_x, n_y))
    rhs = np.ones(n_x + n_y)
    # d = -0.1 makes (1, -1) a direction of negative curvature; -10 also
    # makes the eliminated diagonal itself negative
    for shift in (-0.1, -10.0):
        d = np.full(n_x + n_y, shift)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(bipartite_hessian(G, d))
        with pytest.raises(np.linalg.LinAlgError):
            bipartite_solve(G, d[:n_x], d[n_x:], rhs)


def test_newton_bipartite_step_and_ridge_flag():
    # on a quadratic with a transport-shaped Hessian one Newton step is exact;
    # an indefinite Hessian pair is retried with a ridge and flagged
    rng = np.random.default_rng(6)
    G = rng.uniform(0.1, 2.0, (3, 4))
    d = rng.uniform(0.1, 1.0, 7)
    H = bipartite_hessian(G, d)
    b = rng.standard_normal(7)
    x, _, grad, iters, flags = newton_minimize(
        lambda x: 0.5 * x @ H @ x - b @ x, lambda x: H @ x - b,
        lambda x: (G, d), np.zeros(7), 1e-12, 5,
    )
    assert np.allclose(x, np.linalg.solve(H, b), atol=1e-12)
    assert iters == 1 and flags == []
    *_, flags = newton_minimize(
        lambda x: 0.5 * x @ H @ x - b @ x, lambda x: H @ x - b,
        lambda x: (G, np.full(7, -0.1)), np.zeros(7), 1e-12, 1,
    )
    assert "ridge" in flags


def test_newton_nan_hessian_raises():
    # a NaN Hessian pair never factors and makes the ridge NaN; the retry
    # must end with the factorization error instead of spinning
    with pytest.raises(np.linalg.LinAlgError):
        newton_minimize(
            lambda x: float(x @ x), lambda x: 2 * x,
            lambda x: (np.full((1, 1), np.nan), np.ones(2)), np.ones(2), 1e-12, 5,
        )
    # a dense NaN Hessian factors without complaint; its NaN step must fail
    # the same way rather than stall the line search at the start point
    with pytest.raises(np.linalg.LinAlgError):
        newton_minimize(
            lambda x: float(x @ x), lambda x: 2 * x,
            lambda x: np.full((2, 2), np.nan), np.ones(2), 1e-12, 5,
        )


def test_adjoint_small():
    xi = DualPotential([1.0, 2.0], [10.0])
    assert np.allclose(apply_A_adjoint(xi), [[11.0], [12.0]])


def test_adjoint_zero():
    xi = DualPotential.zeros(2, 3)
    assert np.all(apply_A_adjoint(xi) == 0)


def test_adjointness_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_x, n_y = rng.integers(1, 6, size=2)
        gamma = rng.random((n_x, n_y))
        xi = DualPotential(rng.standard_normal(n_x), rng.standard_normal(n_y))
        lhs = float(np.sum(apply_A_adjoint(xi) * gamma))
        rhs = float(xi.stacked @ apply_A(gamma).stacked)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_mass_conservation():
    rng = np.random.default_rng(3)
    gamma = rng.random((4, 5))
    m = apply_A(gamma)
    assert np.isclose(m.row.sum(), gamma.sum())
    assert np.isclose(m.col.sum(), gamma.sum())


def test_adjoint_kernel_is_ones_minus_ones():
    # A*(1, -1) = 0, and A* is injective on the orthogonal complement
    n_x, n_y = 3, 4
    xi0 = DualPotential(np.ones(n_x), -np.ones(n_y))
    assert np.all(apply_A_adjoint(xi0) == 0)
    A = marginal_matrix(n_x, n_y)
    # singular values of A^T acting on potentials: exactly one zero
    s = np.linalg.svd(A.T, compute_uv=False)
    assert np.sum(s < 1e-12) == 1


def test_entropy_values():
    assert discrete_entropy([[1.0]]) == pytest.approx(-1.0)
    assert discrete_entropy([[np.e]]) == pytest.approx(0.0, abs=1e-15)
    assert discrete_entropy([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(-1.0)


def test_entropy_rejects_negative():
    with pytest.raises(InvalidInput):
        discrete_entropy([[-0.5]])


def test_entropy_strictly_convex_midpoint():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.uniform(0.05, 3.0, (2, 2))
        b = rng.uniform(0.05, 3.0, (2, 2))
        if np.allclose(a, b):
            continue
        mid = discrete_entropy(0.5 * (a + b))
        assert mid < 0.5 * (discrete_entropy(a) + discrete_entropy(b))


def test_build_cost_values():
    assert build_cost([[0.0]], [[2.0]])[0, 0] == pytest.approx(4.0)
    assert build_cost([[0.0]], [[2.0]], kind="euclidean")[0, 0] == pytest.approx(2.0)
    p = [[0.3, 0.4]]
    assert build_cost(p, p)[0, 0] == 0.0


def test_build_cost_matches_direct():
    rng = np.random.default_rng(5)
    px, py = rng.random((3, 2)), rng.random((3, 2))
    c = build_cost(px, py)
    for i in range(3):
        for j in range(3):
            assert c[i, j] == pytest.approx(np.sum((px[i] - py[j]) ** 2), abs=1e-12)


def test_build_cost_dimension_mismatch():
    with pytest.raises(InvalidInput):
        build_cost([[0.0, 1.0]], [[0.0]])


def test_build_cost_explicit_requires_matrix():
    with pytest.raises(InvalidInput):
        build_cost(None, None, kind="explicit")


def test_problem_validation():
    with pytest.raises(InvalidInput):
        Problem([[0.0]], [[0.0]], [1.0], [1.0], [[-1.0]], cost_kind="explicit")
    with pytest.raises(InvalidInput):
        Problem([[0.0]], [[0.0]], [-1.0], [1.0], [[1.0]], cost_kind="explicit")
    with pytest.raises(InvalidInput):
        Problem([[0.0]], [[0.0]], [1.0, 1.0], [1.0], [[1.0]], cost_kind="explicit")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_nonfinite_weights(bad):
    with pytest.raises(InvalidInput, match="weights"):
        Problem([[0.0]], [[0.0]], [bad], [1.0], [[1.0]], cost_kind="explicit")
    with pytest.raises(InvalidInput, match="weights"):
        Problem([[0.0]], [[0.0]], [1.0], [bad], [[1.0]], cost_kind="explicit")
    with pytest.raises(InvalidInput, match="reference weights"):
        Problem(
            [[0.0]], [[0.0]], [1.0], [1.0], [[1.0]],
            divergence=DivergenceSpec(kind="kl", mu_ref=[1.0], nu_ref=[bad]),
            cost_kind="explicit",
        )


@pytest.mark.parametrize(
    "mu_ref, nu_ref, name",
    [([1.0, 1.0, 1.0], [1.0], "mu_ref"),
     ([1.0, 1.0, 1.0], [1.0, 1.0], "mu_ref"),
     ([1.0, 1.0], [1.0], "nu_ref")],
)
def test_problem_rejects_reference_weights_of_wrong_length(mu_ref, nu_ref, name):
    # q concatenates the two references, so a wrong length would shift
    # them across the clouds or fail later inside F_conj
    with pytest.raises(InvalidInput, match=name):
        Problem(
            [[0.0], [1.0]], [[0.0], [1.0]], [1.0, 1.0], [1.0, 1.0],
            [[1.0, 2.0], [2.0, 1.0]],
            divergence=DivergenceSpec(kind="kl", mu_ref=mu_ref, nu_ref=nu_ref),
            cost_kind="explicit",
        )


def test_dual_potential_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        DualPotential([np.inf], [0.0])


def test_stacked_round_trip():
    xi = DualPotential([1.0, 2.0], [3.0])
    back = DualPotential.from_stacked(xi.stacked, 2)
    assert np.all(back.phi == xi.phi) and np.all(back.psi == xi.psi)
    assert np.allclose(Marginals([1.0], [2.0, 3.0]).stacked, [1.0, 2.0, 3.0])


def test_spanning_forest_null_basis_matches_svd():
    # random masks with cycles, isolated nodes and empty rows: the signed
    # component indicators must span the SVD null space of B^T, and Kruskal
    # must keep a maximal forest (each dropped entry closes a cycle)
    rng = np.random.default_rng(97)
    seen = {"cycle": 0, "isolated": 0, "empty row": 0}
    for n_x, n_y, density in [(1, 1, 1.0), (3, 4, 0.3), (5, 5, 0.5), (6, 3, 0.9),
                              (8, 9, 0.15), (4, 7, 0.0), (2, 6, 0.6)]:
        for _ in range(10):
            mask = rng.random((n_x, n_y)) < density
            mask[rng.integers(n_x)] = False
            entries = rng.permutation(np.argwhere(mask))
            kept, N = spanning_forest(entries, n_x, n_y)
            B = incidence_columns(entries, n_x, n_y)
            U, s, _ = np.linalg.svd(B, full_matrices=True)
            rank = int(np.sum(s > 1e-10))
            null = U[:, rank:]
            assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)
            assert np.max(np.abs(N @ N.T - null @ null.T), initial=0.0) <= 1e-12
            assert np.linalg.matrix_rank(B[:, kept]) == len(kept) == rank
            seen["cycle"] += len(kept) < len(entries)
            seen["isolated"] += bool(np.any(np.all(B == 0, axis=1)))
            seen["empty row"] += bool(np.any(~mask.any(axis=1)))
    assert min(seen.values()) >= 10, seen
