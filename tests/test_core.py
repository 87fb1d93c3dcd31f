"""Marginal operator, adjoint, entropy and problem validation."""

import numpy as np
import pytest
import scipy.linalg

from uotlab import core
from uotlab.core import (
    DivergenceSpec,
    DualPotential,
    InvalidInput,
    Problem,
    apply_A,
    apply_A_adjoint,
    bipartite_hessian,
    bipartite_solve,
    build_cost,
    cholesky_solve,
    component_roots,
    discrete_entropy,
    spanning_forest,
)
from uotlab.newton import RISE_MAX, newton_minimize

from conftest import marginal_matrix


def test_apply_A_small_matrix():
    m = apply_A(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(m[:2], [3.0, 7.0])
    assert np.allclose(m[2:], [4.0, 6.0])


def test_apply_A_zero():
    m = apply_A(np.zeros((3, 2)))
    assert m.shape == (5,) and np.all(m == 0)


def test_apply_A_matches_dense_operator():
    rng = np.random.default_rng(1)
    g = rng.random((3, 3))
    A = marginal_matrix(3, 3)
    assert np.allclose(apply_A(g), A @ g.ravel(), atol=1e-14)


@pytest.mark.parametrize(
    "n_x,n_y,ridge",
    [(3, 5, 0.0), (5, 3, 0.0), (4, 4, 0.0), (1, 6, 0.0), (6, 1, 0.0), (4, 7, 0.3)],
)
def test_bipartite_solve_matches_dense_cholesky(n_x, n_y, ridge):
    # the pair (G, D) with D = apply_A(G) + d is the transport Hessian
    # A diag(G) A* + diag(d), assembled here from the dense marginal operator
    rng = np.random.default_rng(10 * n_x + n_y)
    G = rng.uniform(0.1, 2.0, (n_x, n_y))
    d = rng.uniform(0.01, 1.0, n_x + n_y)
    D = apply_A(G) + d
    rhs = rng.standard_normal(n_x + n_y)
    A = marginal_matrix(n_x, n_y)
    dense = A @ np.diag(G.ravel()) @ A.T + np.diag(d)
    assert np.allclose(bipartite_hessian(G, D), dense, rtol=1e-15, atol=0)
    H = bipartite_hessian(G, D) + ridge * np.eye(n_x + n_y)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(H), rhs)
    s = bipartite_solve(G, D, rhs, ridge)
    assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n_x,n_y", [(3, 5), (5, 3)])
def test_bipartite_solve_rejects_indefinite(n_x, n_y):
    rng = np.random.default_rng(5)
    G = rng.uniform(0.1, 2.0, (n_x, n_y))
    rhs = np.ones(n_x + n_y)
    # d = -0.1 makes (1, -1) a direction of negative curvature; -10 also
    # makes the eliminated diagonal itself negative
    for shift in (-0.1, -10.0):
        D = apply_A(G) + shift
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(bipartite_hessian(G, D))
        with pytest.raises(np.linalg.LinAlgError):
            bipartite_solve(G, D, rhs)


@pytest.mark.parametrize("n", [1, 13, 240])
def test_cholesky_solve_bitwise_equals_scipy(n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    S = M @ M.T + n * np.eye(n)
    rhs = rng.standard_normal(n)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), rhs)
    assert cholesky_solve(S.copy(), rhs).tobytes() == ref.tobytes()


def test_cholesky_solve_makes_one_lapack_call(monkeypatch):
    calls = []
    dposv = core.dposv

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return dposv(*args, **kwargs)

    monkeypatch.setattr(core, "dposv", counting)
    rng = np.random.default_rng(3)
    G = rng.uniform(0.1, 1.0, (5, 4))
    bipartite_solve(G, apply_A(G) + 1.0, rng.standard_normal(9))
    assert calls == [(4, 4)]


@pytest.mark.parametrize("n_x,n_y", [(13, 15), (15, 13), (240, 242), (242, 240)])
def test_schur_complement_reaches_lapack_fortran_ordered(monkeypatch, n_x, n_y):
    # scipy copies a C-ordered array into Fortran order before calling
    # LAPACK; the complement is exactly symmetric, so its transpose view is
    # the same matrix already in Fortran order, and the solution is bitwise
    # the one of the C-ordered complement
    seen = []
    dposv = core.dposv

    def capture(S, rhs, **kwargs):
        seen.append((S.flags.f_contiguous, S.copy(), rhs.copy()))
        return dposv(S, rhs, **kwargs)

    monkeypatch.setattr(core, "dposv", capture)
    rng = np.random.default_rng(n_x)
    G = rng.uniform(0.1, 2.0, (n_x, n_y))
    D = apply_A(G) + rng.uniform(0.01, 1.0, n_x + n_y)
    s = bipartite_solve(G, D, rng.standard_normal(n_x + n_y))
    [(fortran, S, rhs)] = seen
    assert fortran
    assert S.shape == (min(n_x, n_y),) * 2 and np.array_equal(S, S.T)
    s_c = dposv(np.ascontiguousarray(S), rhs, lower=0, overwrite_a=1)[1]
    kept = slice(n_x, None) if n_x > n_y else slice(None, n_x)
    assert s[kept].tobytes() == s_c.tobytes()


@pytest.mark.parametrize("flip", [False, True])
def test_gram_matrix_is_exactly_symmetric(flip):
    # bipartite_solve hands S.T to LAPACK as S: numpy forms W^T W with one
    # symmetric rank-k update and mirrors it, for W C-ordered (G) or
    # Fortran-ordered (a transposed G) alike
    rng = np.random.default_rng(8)
    for n_x, n_y in ((1, 1), (3, 4), (13, 15), (240, 242)):
        G = rng.uniform(0.1, 2.0, (n_x, n_y))
        G = G.T if flip else G
        W = G / np.sqrt(rng.uniform(1.0, 2.0, G.shape[0]))[:, None]
        S = W.T @ W
        assert np.array_equal(S, S.T), (n_x, n_y)


def test_cholesky_solve_rejects_indefinite_and_nan_pivots():
    # -1 is an eigenvalue; the second leading minor is 1 - 4 = -3
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        cholesky_solve(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.ones(3))
    S = np.eye(3)
    S[1, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        cholesky_solve(S, np.ones(3))


def test_newton_bipartite_step_and_ridge_flag():
    # on a quadratic with a transport-shaped Hessian one Newton step is exact;
    # an indefinite Hessian pair is retried with a ridge and flagged, and the
    # ridge leaves the caller's diagonal unchanged
    rng = np.random.default_rng(6)
    G = rng.uniform(0.1, 2.0, (3, 4))
    D = apply_A(G) + rng.uniform(0.1, 1.0, 7)
    H = bipartite_hessian(G, D)
    b = rng.standard_normal(7)
    x, _, grad, iters, flags = newton_minimize(
        lambda x, _: 0.5 * x @ H @ x - b @ x, lambda x, _: H @ x - b,
        lambda x, _: (G, D), np.zeros((1, 7)), 1e-12, 5,
    )
    assert np.allclose(x[0], np.linalg.solve(H, b), atol=1e-12)
    assert iters.tolist() == [1] and flags == [[]]
    indefinite = apply_A(G) - 0.1
    before = indefinite.copy()
    *_, flags = newton_minimize(
        lambda x, _: 0.5 * x @ H @ x - b @ x, lambda x, _: H @ x - b,
        lambda x, _: (G, indefinite), np.zeros((1, 7)), 1e-12, 1,
    )
    assert "ridge" in flags[0]
    assert np.array_equal(indefinite, before)


def test_newton_ridge_cap_scales_with_the_hessian():
    # a pair Hessian of mean diagonal ~1e22, indefinite by 1e12 along the
    # transport null direction: the first ridge, 1e-12 times the mean
    # diagonal, is far above 1e8, and the retry must still run up to 1e13
    rng = np.random.default_rng(6)
    G = 1e22 * rng.uniform(0.1, 0.5, (3, 4))
    D = apply_A(G) - 1e12
    assert 1e21 < D.mean() < 1e23
    with pytest.raises(core.NotPositiveDefinite):
        bipartite_solve(G, D, np.ones(7))
    H = bipartite_hessian(G, D)
    b = 1e10 * rng.standard_normal(7)
    x, val, _, iters, flags = newton_minimize(
        lambda x, _: 0.5 * x @ H @ x - b @ x, lambda x, _: H @ x - b,
        lambda x, _: (G, D), np.zeros((1, 7)), 1e-12, 1,
    )
    assert iters.tolist() == [1] and flags == [["ridge"]] and val[0] < 0.0


def test_newton_rise_bound_limits_each_step():
    # e^(x0 + x1) - c (x0 + x1) + |x - a|^2 / 2 with a = (log c / 2, log c / 2),
    # whose Hessian is the pair ([[e^(x0 + x1)]], e^(x0 + x1) + (1, 1)) and whose minimizer
    # is a, from x0 = a - 10: the full Newton step raises the one exponent
    # x0 + x1 by about 26, far past its target log c; with the rise bound no
    # accepted step raises it by more than RISE_MAX, and the solve still
    # converges
    c = 3.0
    a = np.full(2, 0.5 * np.log(c))

    def run(rise):
        accepted = []  # the Hessian is evaluated at accepted iterates only

        def hessian(x, _):
            accepted.append(x.sum())
            return np.exp(x.sum()).reshape(1, 1), np.exp(x.sum()) + np.ones(2)

        x, _, grad, _, flags = newton_minimize(
            lambda x, _: float(np.exp(x.sum()) - c * x.sum() + 0.5 * (x - a) @ (x - a)),
            lambda x, _: np.exp(x.sum()) - c + (x - a), hessian,
            (a - 10.0)[None], 1e-12, 100, rise=rise,
        )
        assert flags == [[]] and np.max(np.abs(grad)) <= 1e-12
        assert np.allclose(x[0], a, rtol=0, atol=1e-14)
        return np.diff(accepted + [x.sum()])

    rises = run(lambda step, _: step.sum())  # the rise of the exponent x0 + x1
    assert rises.max() <= RISE_MAX * (1 + 1e-15)
    # without the bound the first accepted step raises x0 + x1 by more than 10
    assert run(None).max() > 10.0


def test_newton_nan_hessian_raises():
    # a NaN Hessian pair never factors and makes the ridge NaN; the retry
    # must end with the factorization error instead of spinning
    with pytest.raises(core.NotPositiveDefinite, match="^row 0: ") as one:
        newton_minimize(
            lambda x, _: float(x @ x), lambda x, _: 2 * x,
            lambda x, _: (np.full((1, 1), np.nan), np.full(2, np.nan)), np.ones((1, 2)), 1e-12, 5,
        )
    assert one.value.row == 0
    # in a block the error names the failing row, also when the rows before
    # it start converged and it runs on alone
    rng = np.random.default_rng(6)
    G = rng.uniform(0.1, 2.0, (3, 3, 4))
    D = apply_A(G) + rng.uniform(0.1, 1.0, (3, 7))
    b = rng.standard_normal((3, 7))
    *_, alone, H = _quadratic_rows(G, D, b)
    nan_pair = np.full((3, 4), np.nan), np.full(7, np.nan)
    rows = [alone[0], alone[1], (*alone[2][:2], lambda x, _: nan_pair)]
    x0 = np.zeros((3, 7))
    for converged in (False, True):
        if converged:
            x0[:2] = [np.linalg.solve(H[r], b[r]) for r in range(2)]
        with pytest.raises(core.NotPositiveDefinite) as block:
            newton_minimize(*_block_of(rows), x0, 1e-9, 5)
        assert block.value.row == 2


@pytest.mark.parametrize("n_x,n_y", [(3, 5), (5, 3), (13, 15), (15, 13)])
def test_stacked_bipartite_solve_is_each_row_solved_alone(n_x, n_y):
    # a leading row axis stacks independent systems; each row's solution is
    # bitwise the one of its system alone, with a ridge per row or none
    rng = np.random.default_rng(10 * n_x + n_y)
    G = rng.uniform(0.1, 2.0, (4, n_x, n_y))
    D = apply_A(G) + rng.uniform(0.01, 1.0, (4, n_x + n_y))
    before = D.copy()
    rhs = rng.standard_normal((4, n_x + n_y))
    for ridge in (np.zeros(4), np.array([0.0, 0.3, 0.0, 1e-3])):
        s = bipartite_solve(G, D, rhs, ridge)
        assert s.shape == rhs.shape
        for r in range(4):
            alone = bipartite_solve(G[r], D[r], rhs[r], float(ridge[r]))
            assert s[r].tobytes() == alone.tobytes(), (ridge, r)
    alone = np.array([bipartite_solve(G[r], D[r], rhs[r]) for r in range(4)])
    assert bipartite_solve(G, D, rhs).tobytes() == alone.tobytes()
    assert np.array_equal(D, before)  # the ridge is not added in place


@pytest.mark.parametrize("shift", [-0.1, -10.0])
def test_stacked_bipartite_solve_names_the_row_that_fails(shift):
    # row 1 is indefinite: at -0.1 its Schur complement fails to factor, at
    # -10 its eliminated diagonal is already negative (minor None); the
    # stacked error names the row and the minor of that row's own solve
    rng = np.random.default_rng(5)
    G = rng.uniform(0.1, 2.0, (3, 3, 5))
    d = rng.uniform(0.1, 1.0, (3, 8))
    d[1] = shift
    D = apply_A(G) + d
    rhs = np.ones((3, 8))
    with pytest.raises(core.NotPositiveDefinite) as alone:
        bipartite_solve(G[1], D[1], rhs[1])
    with pytest.raises(core.NotPositiveDefinite, match="row 1: ") as stacked:
        bipartite_solve(G, D, rhs)
    assert alone.value.row is None and stacked.value.row == 1
    assert stacked.value.minor == alone.value.minor
    assert (alone.value.minor is None) == (shift == -10.0)


def _quadratic(G, D, b, offset=0.0, domain=None):
    """A block of one row: 0.5 x^T H x - b^T x + offset, H = bipartite_hessian(G, D).

    The value is +inf at every point but `domain`, when that is given.
    """
    H = bipartite_hessian(G, D)

    def value(x, _):
        if domain is not None and not np.array_equal(x, domain):
            return np.inf
        return 0.5 * x @ H @ x - b @ x + offset

    return value, lambda x, _: H @ x - b, lambda x, _: (G, D)


def _quadratic_rows(G, D, b):
    """Block functions of the quadratics _quadratic(G[r], D[r], b[r]).

    Also returns the functions of each row as a block of one row, and the
    Hessians.
    """
    alone = [_quadratic(*row) for row in zip(G, D, b)]
    return (*_block_of(alone), alone, [bipartite_hessian(g, dd) for g, dd in zip(G, D)])


def test_newton_block_rows_are_each_row_minimized_alone():
    # row 0 an ordinary quadratic, row 1 indefinite (it takes the ridge, and
    # only it is flagged), row 2 starting at its minimizer (converged: no
    # step, its start kept byte for byte); every returned quantity of a row is
    # bitwise that of the row minimized alone from the same start
    rng = np.random.default_rng(6)
    G = rng.uniform(0.1, 2.0, (3, 3, 4))
    d = rng.uniform(0.1, 1.0, (3, 7))
    d[1] = -0.1
    b = rng.standard_normal((3, 7))
    value, gradient, hessian, alone, H = _quadratic_rows(G, apply_A(G) + d, b)
    x0 = np.zeros((3, 7))
    x0[2] = np.linalg.solve(H[2], b[2])
    start = x0.copy()
    for max_iters in (1, 3):
        x, val, grad, iters, flags = newton_minimize(
            value, gradient, hessian, x0, 1e-9, max_iters,
        )
        assert np.array_equal(x0, start)  # the start is read, not modified
        assert flags == [[], ["ridge"], []] and iters[2] == 0
        assert x[2].tobytes() == start[2].tobytes()
        for r in range(3):
            xr, vr, gr, ir, fr = newton_minimize(*alone[r], start[r : r + 1], 1e-9, max_iters)
            assert x[r].tobytes() == xr[0].tobytes() and grad[r].tobytes() == gr[0].tobytes()
            assert (val[r], iters[r], flags[r]) == (vr[0], ir[0], fr[0]), r


def _block_of(alone):
    """Block functions of several rows, each row evaluated by alone[r].

    alone[r] is (value, gradient, hessian) of row r as a block of one row,
    called with its 1-D point and the index 0.
    """

    def stacked(k, pair=False):
        def f(x, rows):
            out = [alone[r][k](xr, 0) for xr, r in zip(x, rows)]
            return tuple(map(np.array, zip(*out))) if pair else np.array(out)

        return f

    return stacked(0), stacked(1), stacked(2, pair=True)


def test_newton_block_rows_stall_and_stop_at_the_rounding_floor_alone():
    # with grad_tol = 0 no row converges: row 0 is an ordinary quadratic,
    # which ends at its rounding floor; row 1 is finite only at its start,
    # where it is 0, so every trial is rejected and it stalls at iteration 1
    # with its start kept byte for byte; row 2 is offset by 1e20,
    # so each predicted decrease is below its rounding floor and it takes
    # full steps until one no longer lowers its gradient, then stops without
    # a flag.  Every returned quantity of a row is bitwise that of the row
    # minimized alone
    rng = np.random.default_rng(7)
    G = rng.uniform(0.1, 2.0, (3, 3, 4))
    D = apply_A(G) + rng.uniform(0.1, 1.0, (3, 7))
    b = rng.standard_normal((3, 7))
    x0 = rng.standard_normal((3, 7))
    start = x0.copy()
    at_start = _quadratic(G[1], D[1], b[1])[0](start[1], 0)
    alone = [
        _quadratic(G[0], D[0], b[0]),
        _quadratic(G[1], D[1], b[1], -at_start, start[1]),
        _quadratic(G[2], D[2], b[2], 1e20),
    ]
    for max_iters in (1, 5, 50):
        x, val, grad, iters, flags = newton_minimize(*_block_of(alone), x0, 0.0, max_iters)
        assert np.array_equal(x0, start)
        assert flags == [[], ["linesearch-stalled"], []] and iters[1] == 1
        assert x[1].tobytes() == start[1].tobytes()
        for r in range(3):
            xr, vr, gr, ir, fr = newton_minimize(*alone[r], start[r : r + 1], 0.0, max_iters)
            assert x[r].tobytes() == xr[0].tobytes() and grad[r].tobytes() == gr[0].tobytes()
            assert (val[r], iters[r], flags[r]) == (vr[0], ir[0], fr[0]), (max_iters, r)
    # the unbounded runs end on their own, before the cap and with a nonzero
    # gradient: rows 0 and 2 at the rounding-floor stop
    assert iters.tolist() == [3, 1, 6] and np.abs(grad[[0, 2]]).max(axis=1).min() > 0.0


def test_newton_keeps_a_solve_in_its_shape_from_start_to_end():
    # row 0 starts at its minimizer (gradient exactly 0), row 1 is finite
    # only at its start and stalls at iteration 1, and row 2, offset by 1e20,
    # runs on alone to its rounding floor.  The block hands every function a
    # stack and an index array on every call, also while only row 2 runs; a
    # block of one row gets its 1-D point and the index 0 on every call.
    # Each row's result is bitwise that of its own block of one row
    rng = np.random.default_rng(7)
    G = rng.uniform(0.1, 2.0, (3, 3, 4))
    D = apply_A(G) + rng.uniform(0.1, 1.0, (3, 7))
    b = rng.standard_normal((3, 7))
    b[0] = 0.0
    x0 = rng.standard_normal((3, 7))
    x0[0] = 0.0
    at_start = _quadratic(G[1], D[1], b[1])[0](x0[1], 0)
    alone = [
        _quadratic(G[0], D[0], b[0]),
        _quadratic(G[1], D[1], b[1], -at_start, x0[1]),
        _quadratic(G[2], D[2], b[2], 1e20),
    ]
    calls = []

    def recorded(*functions):
        def record(f):
            def g(x, rows):
                calls.append((x.ndim, rows))
                return f(x, rows)

            return g

        return [record(f) for f in functions]

    def rise(step, _):
        return np.max(step, axis=-1)

    *block, block_rise = recorded(*_block_of(alone), rise)
    x, val, grad, iters, flags = newton_minimize(*block, x0, 0.0, 50, rise=block_rise)
    assert iters[:2].tolist() == [0, 1] and iters[2] > 2
    assert flags == [[], ["linesearch-stalled"], []]
    assert all(ndim == 2 and rows.dtype.kind == "i" for ndim, rows in calls)
    assert sum(rows.tolist() == [2] for _, rows in calls) > 2
    for r in range(3):
        calls.clear()
        *functions, row_rise = recorded(*alone[r], rise)
        xr, vr, gr, ir, fr = newton_minimize(*functions, x0[r : r + 1], 0.0, 50, rise=row_rise)
        assert calls and all(ndim == 1 and type(rows) is int and rows == 0 for ndim, rows in calls)
        assert x[r].tobytes() == xr[0].tobytes() and grad[r].tobytes() == gr[0].tobytes()
        assert (val[r], iters[r], flags[r]) == (vr[0], ir[0], fr[0]), r


def test_newton_stalls_before_a_trial_rounds_back_to_its_start():
    # a value finite only at the start (35.1 there): every trial that moves
    # is rejected, and a trial that rounds back to the start would pass
    # Armijo, since 1e-4 alpha slope is then below half an ulp of 35.1.  The
    # row stops backtracking once alpha |slope| falls to the rounding floor
    # ROUNDING_FLOOR (1 + |value|), at iteration 1, flagged, with its start
    # byte for byte; before, it ran all 50 iterations in place, unflagged,
    # in 2851 value calls
    start = np.array([0.3, -0.7])
    calls = []

    def value(x, _):
        calls.append(x)
        return 35.1 if np.array_equal(x, start) else np.inf

    x, val, grad, iters, flags = newton_minimize(
        value, lambda x, _: np.array([1.0, -2.0]),
        lambda x, _: (np.zeros((1, 1)), np.ones(2)), start[None].copy(), 1e-12, 50,
    )
    assert (iters.tolist(), flags, val.tolist()) == ([1], [["linesearch-stalled"]], [35.1])
    assert x[0].tobytes() == start.tobytes() and len(calls) <= 60
    # the last trial is still a real move, not the start rounded back
    assert not np.array_equal(calls[-1], start)


def test_adjoint_small():
    xi = DualPotential([1.0, 2.0], [10.0])
    assert np.allclose(apply_A_adjoint(xi.stacked, 2), [[11.0], [12.0]])


def test_adjoint_zero():
    xi = DualPotential(np.zeros(2), np.zeros(3))
    assert np.all(apply_A_adjoint(xi.stacked, 2) == 0)


def test_adjointness_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_x, n_y = rng.integers(1, 6, size=2)
        gamma = rng.random((n_x, n_y))
        xi = DualPotential(rng.standard_normal(n_x), rng.standard_normal(n_y))
        lhs = float(np.sum(apply_A_adjoint(xi.stacked, n_x) * gamma))
        rhs = float(xi.stacked @ apply_A(gamma))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_mass_conservation():
    rng = np.random.default_rng(3)
    gamma = rng.random((4, 5))
    m = apply_A(gamma)
    assert np.isclose(m[:4].sum(), gamma.sum())
    assert np.isclose(m[4:].sum(), gamma.sum())


def test_adjoint_kernel_is_ones_minus_ones():
    # A*(1, -1) = 0, and A* is injective on the orthogonal complement
    n_x, n_y = 3, 4
    xi0 = DualPotential(np.ones(n_x), -np.ones(n_y))
    assert np.all(apply_A_adjoint(xi0.stacked, n_x) == 0)
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
    with pytest.raises(InvalidInput, match="nonnegative"):
        discrete_entropy([[[1.0]], [[-0.5]]])  # a stack of two plans


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entropy_rejects_nonfinite(bad):
    # a NaN entry used to be dropped by the gamma > 0 mask, and inf summed
    with pytest.raises(InvalidInput, match="finite"):
        discrete_entropy([[bad, 1.0]])
    with pytest.raises(InvalidInput, match="finite"):
        discrete_entropy([[[1.0]], [[bad]]])  # a stack of two plans


def test_marginal_operators_and_entropy_take_a_stack_row_by_row():
    rng = np.random.default_rng(6)
    n_x, n_y = 13, 15
    xs = rng.standard_normal((6, n_x + n_y))
    G = rng.uniform(0.0, 2.0, (6, n_x, n_y))
    G[G < 0.6] = 0.0
    marginals, adjoint, entropy = apply_A(G), apply_A_adjoint(xs, n_x), discrete_entropy(G)
    assert marginals.shape == xs.shape and adjoint.shape == G.shape
    assert entropy.shape == (6,)
    for k in range(6):
        assert np.array_equal(marginals[k], apply_A(G[k])), k
        assert np.array_equal(adjoint[k], apply_A_adjoint(xs[k], n_x)), k
        assert entropy[k] == discrete_entropy(G[k]), k
    out = np.empty_like(G)
    assert apply_A_adjoint(xs, n_x, out=out) is out
    assert np.array_equal(out, adjoint)


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


@pytest.mark.parametrize(
    "mu, nu",
    [([[1.0]], [[1.0]]), ([[1.0, 2.0]], [1.0]), (1.0, [1.0])],
    ids=["column-weights", "row-of-weights", "scalar-weight"],
)
def test_problem_rejects_weights_that_are_not_vectors(mu, nu):
    # these died with numpy's ValueError: column weights built a (2, 1) q
    # that failed at the first solve, the others failed in a concatenate
    n_x, n_y = np.size(mu), np.size(nu)
    with pytest.raises(InvalidInput, match="1-dimensional"):
        Problem(np.zeros((n_x, 1)), np.zeros((n_y, 1)), mu, nu,
                np.ones((n_x, n_y)), cost_kind="explicit")


def test_problem_rejects_an_unknown_divergence_at_construction():
    # a zero reference weight is rejected here too (test_input_validation)
    with pytest.raises(InvalidInput, match="unknown divergence kind"):
        Problem([[0.0]], [[0.0]], [1.0], [1.0], [[1.0]],
                divergence=DivergenceSpec(kind="total-variation"),
                cost_kind="explicit")


def test_problem_penalty_is_not_an_argument():
    p = Problem([[0.0]], [[0.0]], [1.0], [2.0], [[1.0]], cost_kind="explicit")
    assert p.penalty.entropy.name == "kl"
    assert np.array_equal(p.penalty.q, [1.0, 2.0])
    with pytest.raises(TypeError):
        Problem([[0.0]], [[0.0]], [1.0], [2.0], [[1.0]], penalty=p.penalty)


def test_dual_potential_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        DualPotential([np.inf], [0.0])


def test_stacked_round_trip():
    xi = DualPotential([1.0, 2.0], [3.0])
    back = DualPotential.from_stacked(xi.stacked, 2)
    assert np.all(back.phi == xi.phi) and np.all(back.psi == xi.psi)


def _random_masks():
    # random masks with cycles, isolated nodes and empty rows, each with its
    # entries in random order and their incidence columns e_i + e_{n_x + j}
    rng = np.random.default_rng(97)
    for n_x, n_y, density in [(1, 1, 1.0), (3, 4, 0.3), (5, 5, 0.5), (6, 3, 0.9),
                              (8, 9, 0.15), (4, 7, 0.0), (2, 6, 0.6)]:
        for _ in range(10):
            mask = rng.random((n_x, n_y)) < density
            mask[rng.integers(n_x)] = False
            entries = rng.permutation(np.argwhere(mask))
            B = np.zeros((n_x + n_y, len(entries)))
            B[entries[:, 0], np.arange(len(entries))] = 1.0
            B[n_x + entries[:, 1], np.arange(len(entries))] = 1.0
            yield n_x, n_y, mask, entries, B


def test_spanning_forest_null_basis_matches_svd():
    # the signed component indicators must span the SVD null space of B^T,
    # and Kruskal must keep a maximal forest (each dropped entry closes a cycle)
    seen = {"cycle": 0, "isolated": 0, "empty row": 0}
    for n_x, n_y, mask, entries, B in _random_masks():
        kept, N = spanning_forest(entries, n_x, n_y)
        U, s, _ = np.linalg.svd(B, full_matrices=True)
        rank = int(np.sum(s > 1e-10))
        null = U[:, rank:]
        assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)
        assert np.max(np.abs(N @ N.T - null @ null.T), initial=0.0) <= 1e-12
        assert np.linalg.matrix_rank(B[:, kept]) == len(kept) == rank
        seen["cycle"] += len(kept) < len(entries)
        seen["isolated"] += bool(np.any(np.all(B == 0, axis=1)))
        seen["empty row"] += bool(np.any(~mask.any(axis=1)))
        # the entries as an index array (the crossover's order) or as a
        # list of int pairs (a saturated set) give the same forest
        kept_list, N_list = spanning_forest([tuple(map(int, e)) for e in entries], n_x, n_y)
        assert kept_list == kept and N_list.tobytes() == N.tobytes()
    assert min(seen.values()) >= 10, seen


def test_grounded_solve_matches_laplacian_and_least_squares():
    # grounded at the pair (G, apply_A(G) + component_roots(N)): for rhs orthogonal to the
    # null basis, the solution solves the singular transport Hessian and is 0
    # at each component's first node; on a forest its edge values A* y are
    # the least-squares flows B lam = rhs
    rng = np.random.default_rng(98)
    forests = 0
    for n_x, n_y, mask, entries, B in _random_masks():
        G = mask * 1.0
        kept, N = spanning_forest(entries, n_x, n_y)
        rhs = rng.standard_normal(n_x + n_y)
        rhs -= N @ (N.T @ rhs)
        y = bipartite_solve(G, apply_A(G) + component_roots(N), rhs)
        residual = bipartite_hessian(G, apply_A(G)) @ y - rhs
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)
        assert np.max(np.abs(y[component_roots(N) == 1])) <= 1e-12
        if len(kept) == len(entries):
            forests += 1
            lam = np.linalg.lstsq(B, rhs, rcond=None)[0]
            flows = apply_A_adjoint(y, n_x)[tuple(entries.T)]
            assert np.max(np.abs(flows - lam), initial=0.0) <= 1e-12
    assert forests >= 10
