"""Damped-Newton solver for the regularized dual problem at a fixed t.

The regularized dual objective is

    K_t(xi) = F*(-xi) + sum_{x,y} (1/t) exp(t (phi_x + psi_y - c_{x,y})),

a smooth strictly convex function of the stacked potential.  Its minimizer
gives the primal plan through gamma = exp(t (A* xi - c)).

A cold start at large t climbs a continuation chain in t, and each stage
starts from the one before along the trajectory: at a solved point the
tangent d xi/dt solves the trajectory ODE (`trajectory_tangent`), and the
expansion xi(t) = xi* + d/t carries it to the next stage's t.

A warm start from outside, such as the solution at another t, carries plan
exponents scaled for that t, so the masses of its plan miss the marginals by
factors.  `scaled_start` repairs them in O(n_x n_y) before Newton: one exact
block-coordinate sweep, phi then psi, each set to the minimizer of K_t with
the other side fixed (the scaling step of unbalanced Sinkhorn; Chizat, Peyre,
Schmitzer & Vialard 2018).

As t grows, the plan entries off the saturated set decay like exp(-t kappa).
Entries with an exponent below EXP_MIN are flushed to exact zeros: they are
far below every tolerance, and computed they would sink into the subnormal
range, where arithmetic is 10-100x slower.

Each Newton step raises the plan exponent t (A* xi - c) by at most
t (max step_x + max step_y); newton_minimize shortens the step so that this
rise stays below its RISE_MAX, which keeps a warm start from overshooting.

A point x differs from a base point x_b, where the plan gamma_b was computed
directly, by a shift of the potentials, so its plan is diag(u) gamma_b
diag(v) with (u, v) = exp(t (x - x_b)): the diagonal-scaling form of the
Gibbs kernel (Chizat, Peyre, Schmitzer & Vialard 2018).  Newton's trial
points therefore need no plan-sized pass beyond one matrix-vector product
for their value, and a plan is built, by two scalings, only at an accepted
point, for its Hessian.  The scalings are absorbed into a new direct base
before they drift (the stabilization of Schmitzer 2019): at the first point,
whenever the exponents would move by more than RISE_MAX from the base, and
where the direct plan is clamped.  So an entry flushed at the base stays
below exp(EXP_MIN + RISE_MAX), no exp sees an argument above RISE_MAX, and
the returned plan, computed directly once more, is the one a direct
evaluation gives.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DualPotential,
    InvalidInput,
    apply_A,
    apply_A_adjoint,
    bipartite_hessian,
    bipartite_solve,
    check_positive_finite,
    discrete_entropy,
)
from .divergence import F_conj, F_conj_derivatives, F_conj_hess_diag, csiszar
from .newton import RISE_MAX, last_point_cache, newton_minimize

# exponent clamp keeping exp() representable; hit only on wild line-search
# trial points, never at accepted iterates of a warm-started sweep
EXP_MAX = 690.0
# exponents below this give exact zeros.  What must stay normal is the
# Cholesky factor of the Schur complement, not only W^T W: its fill-in
# multiplies small entries along paths of the plan's support.  With kept
# entries of at least exp(-100) ~ 3.7e-44, about 2 in 10^5 factor entries
# on the size ladder are subnormal (5 in 10^4 at exp(-300), where the
# factorization ran 1.5x slower); a dropped entry is more than 20 orders
# below the gradient tolerance even at masses of 1e-9
EXP_MIN = -100.0
# cold starts at large t go through the continuation chain
# t = CONTINUATION_FROM * CONTINUATION_RATIO**k below the target t
CONTINUATION_FROM = 1.0
CONTINUATION_RATIO = 10.0
MAX_NEWTON_ITERS = 200


class TangentFailed(np.linalg.LinAlgError):
    """The Hessian at a solved point failed to factor in trajectory_tangent.

    `t` is the solved point's t.  `minor` is the order of the first leading
    minor of the Schur complement that is not positive, or None when the
    eliminated diagonal already is not.
    """

    def __init__(self, t, minor):
        where = "eliminated diagonal" if minor is None else f"leading minor {minor}"
        super().__init__(f"trajectory tangent at t={t:g}: {where} is not positive")
        self.t, self.minor = t, minor


@dataclass
class RegSolveConfig:
    grad_tol: float = 1e-10

    def __post_init__(self):
        check_positive_finite(self.grad_tol, "grad_tol")


@dataclass
class RegSolution:
    t: float
    xi: DualPotential
    gamma: np.ndarray
    iters: int
    grad_norm: float
    converged: bool
    flags: list = field(default_factory=list)


def plan_exponent(x, t, problem):
    """Exponent t (A* xi - c) of the plan at a stacked potential.

    Rows of stacked potentials, with t an array of one value per row (a
    grid), give one exponent matrix per row.
    """
    exponent = apply_A_adjoint(x, problem.n_x)
    exponent -= problem.cost
    exponent *= t[..., None, None] if isinstance(t, np.ndarray) else t
    return exponent


def clamped_exp(exponent):
    """exp of a plan exponent, clamped at EXP_MAX so it stays representable.

    Exponents below EXP_MIN give exact zeros.  The input is not modified.
    """
    # exp runs only on [EXP_MIN, EXP_MAX] and the flush is a multiply by the
    # mask: numpy's exp is slow on inputs that underflow or are -inf, and a
    # masked assignment branches per entry
    e = np.maximum(exponent, EXP_MIN)
    np.minimum(e, EXP_MAX, out=e)
    np.exp(e, out=e)
    e *= exponent >= EXP_MIN
    return e


class _DualTerms(NamedTuple):
    plan: Callable
    value: Callable
    gradient: Callable
    hessian: Callable
    rise: Callable
    clamped: Callable


def _dual_terms(problem, t):
    """Plan, value, gradient and Hessian of K_t, as functions of the stacked xi.

    The penalty F is problem.penalty.  A point's plan differs from the plan
    gamma_b at a base point x_b by diag(u) gamma_b diag(v), (u, v) = exp(t (x
    - x_b)) stacked, so a point needs no plan-sized pass beyond
    matrix-vector products with gamma_b: its value the total mass u^T
    (gamma_b v), its gradient the marginals u * (gamma_b v) and v * (gamma_b^T
    u); only its Hessian builds the scaled plan.  The base plan is computed
    directly (plan_exponent, clamped_exp) at the first point, at every point
    whose exponent movement t (max|x_x - x_b,x| + max|x_y - x_b,y|) from the
    base exceeds RISE_MAX, and at every point after a clamped one (a clamped
    plan is no scaling of its neighbours'); such a point is the new base,
    with u = v = 1 exactly, and its Hessian takes the base plan as it is.
    `plan` is the direct plan, for the returned solution.

    The conjugate derivatives at a point, like its scalings, are computed
    once and reused by the others at the same array.  The Hessian comes as
    the pair (t gamma, t A gamma + grad^2 F*(-xi)), the weight and the full
    diagonal of core.bipartite_hessian.  `rise` maps a step to the largest
    increase it causes in a plan exponent, in O(n) and with no pass over the
    plan.  `clamped` tells whether some plan exponent at a point exceeds
    EXP_MAX, from the exponent the plan was computed from.

    An array of t is a block of problems, one per value, in newton_minimize's
    block form: each function takes (x, rows), x stacking the block's rows
    `rows` (increasing indices), or one row's 1-D point with its index, and
    gives one result per row, bitwise the one of that row alone.  The rows
    of a call are those of the last call or some of them, as in
    newton_minimize, where rows only leave: the base is kept for the rows of
    the last call and subset when rows leave.
    """
    check_positive_finite(t, "t")
    div, n_x = problem.penalty, problem.n_x
    top = np.maximum.reduce
    block = np.ndim(t) == 1
    sides = np.array([0, n_x])  # where each side of a stacked vector starts

    def t_of(rows):
        # rows are increasing indices into the block, or one index
        if block and not (isinstance(rows, np.ndarray) and len(rows) == len(t)):
            return t[rows]
        return t

    def evaluate(x, rows=None):
        exponent = plan_exponent(x, t_of(rows), problem)
        return exponent, clamped_exp(exponent)

    point = last_point_cache(evaluate)
    # the gradient and the Hessian run at accepted points only
    conj = last_point_cache(lambda x, rows=None: F_conj_derivatives(-x, div))
    # the base's rows, points and direct plans; at the last point,
    # [x, exp(t (x - x_b)), gamma_b v as a column, A gamma or None]; and the
    # last point that is the base of all its rows, where u = v = 1
    base_rows = base_x = base_plan = last = unit = None

    def held(rows):
        """Whether there is a base; it is subset to rows when rows left."""
        nonlocal base_rows, base_x, base_plan
        if base_x is None:
            return False
        if rows is not base_rows:  # keep the rows that stay, a lone one as its 1-D point
            at = np.searchsorted(base_rows, rows)
            base_rows, base_x, base_plan = rows, base_x[at], base_plan[at]
        return True

    def moved(delta):
        """The rows whose exponent movement t (x - x_b) exceeds RISE_MAX (NaN too).

        A 1-D point gives a bool, a stack the list of its positions.
        """
        move = np.maximum.reduceat(np.abs(delta), sides, axis=-1).tolist()
        if delta.ndim == 1:
            return not move[0] + move[1] <= RISE_MAX
        return [i for i, (a, b) in enumerate(move) if not a + b <= RISE_MAX]

    def direct(x, rows):
        """The direct plans at x, and the base points that they give.

        A plan clamped at EXP_MAX is no scaling of the plan at its point, so
        its base point is NaN: every later point then rebases it.  A block's
        base is rebased row by row, in place, so it owns its arrays; a lone
        row's base is the point and the cached plan, which nothing writes.
        """
        if x.ndim == 1:
            exponent, gamma = point(x, rows)
            return gamma, np.full_like(x, np.nan) if top(exponent, axis=None) > EXP_MAX else x
        exponent, gamma = evaluate(x, rows)
        wild = top(exponent, axis=(-2, -1)) > EXP_MAX
        return gamma, np.where(wild[:, None], np.nan, x) if wild.any() else x.copy()

    def scalings(x, rows):
        """[x, exp(t (x - x_b)), gamma_b v, None] at x, rebasing where needed."""
        nonlocal base_rows, base_x, base_plan, last, unit
        if last is not None and x is last[0]:
            return last
        if not held(rows):  # x becomes the base, with scalings of exactly 1
            base_rows, unit = rows, x
            base_plan, base_x = direct(x, rows)
            scaling = np.ones_like(x)
        else:
            scale = t_of(rows)
            delta = x - base_x
            delta *= scale[:, None] if isinstance(scale, np.ndarray) else scale
            fresh = moved(delta)
            if not fresh:
                scaling = np.exp(delta, out=delta)
            elif x.ndim == 1 or len(fresh) == len(x):
                unit = x
                base_plan, base_x = direct(x, rows)
                scaling = np.ones_like(x)
            else:
                base_plan[fresh], base_x[fresh] = direct(x[fresh], rows[fresh])
                delta[fresh] = 0.0  # x - x_b, exactly
                scaling = np.exp(delta, out=delta)
        last = [x, scaling, base_plan @ scaling[..., n_x:, None], None]
        return last

    def marginals(at):
        """A gamma at the point of scalings `at`: u * (gamma_b v) over v * (gamma_b^T u)."""
        if at[3] is None:
            scaling, row_sums = at[1], at[2]
            col_sums = scaling[..., None, :n_x] @ base_plan
            at[3] = scaling * np.concatenate([row_sums[..., 0], col_sums[..., 0, :]], axis=-1)
        return at[3]

    def plan(x, rows=None):
        return point(x, rows)[1]

    def value(x, rows=None):
        _, scaling, row_sums, _ = scalings(x, rows)
        mass = (scaling[..., None, :n_x] @ row_sums)[..., 0, 0]
        return F_conj(-x, div) + mass / t_of(rows)

    def gradient(x, rows=None):
        return marginals(scalings(x, rows)) - conj(x, rows)[0]

    def hessian(x, rows=None):
        at = scalings(x, rows)
        scale = t_of(rows)
        if isinstance(scale, np.ndarray):
            scale = scale[:, None]
        if unit is x:  # the base of all its rows: its plan is the base plan
            G = base_plan * (scale[..., None] if np.ndim(scale) else scale)
        else:
            G = base_plan * (scale * at[1][..., :n_x])[..., None]
            G *= at[1][..., None, n_x:]
        return G, scale * marginals(at) + conj(x, rows)[1]

    def rise(step, rows=None):
        top_x, top_y = np.maximum.reduceat(step, sides, axis=-1).T
        return t_of(rows) * (top_x + top_y)

    def clamped(x, rows=None):
        return top(point(x, rows)[0], axis=(-2, -1)) > EXP_MAX

    return _DualTerms(plan, value, gradient, hessian, rise, clamped)


def kantorovich_eval(xi, t, problem):
    """Value of the regularized dual objective K_t at xi."""
    return _dual_terms(problem, t).value(_stacked_start(problem, xi))


def kantorovich_grad(xi, t, problem):
    """Gradient of K_t as a stacked vector: -grad F*(-xi) + A gamma."""
    return _dual_terms(problem, t).gradient(_stacked_start(problem, xi))


def kantorovich_hess(xi, t, problem):
    """Hessian of K_t: diag(grad^2 F*(-xi)) + t A diag(gamma) A*."""
    return bipartite_hessian(*_dual_terms(problem, t).hessian(_stacked_start(problem, xi)))


def _newton_solve(problem, t, config, x0):
    """The Newton solve of K_t from the stacked start x0, as a RegSolution."""
    return _newton_rows(problem, t, config, x0)[0]


def _newton_rows(problem, t, config, x0):
    """Newton solves of K_t, one RegSolution per row of the stacked start x0.

    A 2-D x0 is a block, row r starting at t[r], run by one newton_minimize
    loop; each row's RegSolution is bitwise the one of its row solved alone.
    A 1-D x0 is one solve at the scalar t.
    """
    # the kernel works on the stacked potentials x0, and each trial point's
    # plan is computed once, by the value
    terms = _dual_terms(problem, t)
    x, _, grad, iters, flags = newton_minimize(
        terms.value,
        terms.gradient,
        terms.hessian,
        x0,
        config.grad_tol,
        MAX_NEWTON_ITERS,
        rise=terms.rise,
    )
    if x.ndim == 1:
        return [_solution(problem, config, t, x, terms.plan(x), grad, iters, flags, terms.clamped(x))]
    rows = np.arange(len(x))
    gamma, clamped = terms.plan(x, rows), terms.clamped(x, rows)
    return [
        _solution(problem, config, t_r, x[r], gamma[r], grad[r], int(iters[r]), flags[r], clamped[r])
        for r, t_r in enumerate(t.tolist())
    ]


def _solution(problem, config, t, x, gamma, grad, iters, flags, clamped):
    gnorm = float(np.maximum.reduce(np.abs(grad), axis=None))
    return RegSolution(
        t=t,
        xi=DualPotential.from_stacked(x, problem.n_x),
        gamma=gamma,
        iters=iters,
        grad_norm=gnorm,
        converged=gnorm <= config.grad_tol,
        flags=flags + (["exp-clamped"] if clamped else []),
    )


def _log_sum_exp(a, axis):
    """log sum exp of a along axis, computed in a, which it overwrites."""
    top = np.maximum.reduce(a, axis=axis, keepdims=True)
    a -= top
    # no exp runs on an input below EXP_MIN, as in clamped_exp; a clamped
    # entry adds exp(EXP_MIN) ~ 4e-44 in place of 0 to a sum of at least 1
    # (the top entry), far below its rounding
    np.maximum(a, EXP_MIN, out=a)
    np.exp(a, out=a)
    lse = np.log(np.add.reduce(a, axis=axis))
    lse += top.reshape(lse.shape)
    return lse


def scaled_start(problem, t, x):
    """The stacked start x after one exact block-coordinate sweep on K_t.

    phi is set to the minimizer of K_t over phi with psi fixed, then psi to
    the minimizer over psi with the new phi, so K_t never rises.  Each half
    is one log-sum-exp per node, lse_i = log sum_j exp(t (psi_j - c_ij)) for
    phi, and then the entropy's scaling_root of t phi_i + lse_i =
    log(q_i phi*'(-phi_i)); after the sweep the psi half of the gradient
    vanishes.  x is read, not modified; the log-sum-exps of both sides share
    one plan-sized buffer.
    """
    check_positive_finite(t, "t")
    n_x, div, cost = problem.n_x, problem.penalty, problem.cost
    root, q = div.entropy.scaling_root, div.q
    out = np.empty_like(x)
    buf = np.subtract(x[n_x:], cost)
    buf *= t
    out[:n_x] = root(t, _log_sum_exp(buf, 1), q[:n_x])
    np.subtract(out[:n_x, None], cost, out=buf)
    buf *= t
    out[n_x:] = root(t, _log_sum_exp(buf, 0), q[n_x:])
    return out


def solve_dual_t(problem, t, config=None, init=None):
    """Minimize K_t by damped Newton with Armijo backtracking.

    `init` is a warm start: a DualPotential, or its stacked array (phi then
    psi), which the solve reads and does not modify.  Newton starts from
    scaled_start of it, which rescales the start to this t: a potential
    solved at another t puts masses on the plan that miss the marginals by
    factors.  A start made for this t, such as run_sweep's extrapolated rows,
    goes to _newton_solve as it is.  Cold starts at zeros,
    with a geometric continuation chain in t when t is large (keeps exponents
    moderate, matching the bounded rescaled-deviation regime).  Each stage of
    the chain starts from the tangent prediction of the one before, and the
    result carries the flags of every stage, each once.
    """
    check_positive_finite(t, "t")
    config = config or RegSolveConfig()
    if init is not None:
        x0 = scaled_start(problem, t, _stacked_start(problem, init))
        return _newton_solve(problem, t, config, x0)
    x = np.zeros(problem.n_x + problem.n_y)
    t_cur = CONTINUATION_FROM
    flags = []
    while t_cur < t:
        sol = _newton_solve(problem, t_cur, config, x)
        flags += sol.flags
        t_cur *= CONTINUATION_RATIO
        # xi(t) = xi* + d/t matched to the value and tangent at s = sol.t
        # predicts xi(t) = xi(s) + (1 - s/t) s xi_dot(s)
        s, t_next = sol.t, min(t_cur, t)
        x = sol.xi.stacked + (1.0 - s / t_next) * s * trajectory_tangent(problem, sol)
    sol = _newton_solve(problem, t, config, x)
    sol.flags = list(dict.fromkeys(flags + sol.flags))
    return sol


def _stacked_start(problem, xi):
    """A potential from outside, checked, as the stacked array the kernel reads.

    xi is a DualPotential, each side the size of its cloud, or its stacked
    array; every warm start and kantorovich_* point comes through here.
    """
    if isinstance(xi, DualPotential):
        if xi.phi.shape != (problem.n_x,) or xi.psi.shape != (problem.n_y,):
            raise InvalidInput("dual potential shape does not match the problem")
        return xi.stacked
    x, n = np.asarray(xi, dtype=float), problem.n_x + problem.n_y
    if x.shape != (n,) or not np.isfinite(x).all():
        raise InvalidInput(f"a warm start or potential needs {n} finite stacked entries")
    return x


def ode_terms(x, t, problem, plan=None, exponent=None):
    """Plan gamma, grad^2 F*(-xi) and forcing A(gamma log gamma) at a stacked xi.

    Differentiating the stationarity condition of K_t in t gives the
    trajectory ODE
        A(gamma A* xi_dot) + grad^2 F*(-xi) xi_dot / t + A(gamma log gamma) / t^2 = 0,
    whose coefficients these are.  Rows of stacked potentials, with t an
    array of one value per row, give one set of terms per row.  A caller that
    already holds the plan at x, or its exponent plan_exponent(x, t,
    problem), passes them and they are not recomputed; `exponent` is then
    used as scratch and overwritten.
    """
    if exponent is None:
        exponent = plan_exponent(x, t, problem)
    gamma = clamped_exp(exponent) if plan is None else plan
    exponent *= gamma
    return gamma, F_conj_hess_diag(-x, problem.penalty), apply_A(exponent)


def trajectory_tangent(problem, sol):
    """Stacked d xi/dt at a solved point, from the trajectory ODE.

    The ODE (see ode_terms) reads H xi_dot = -A(gamma log gamma) / t, with H
    the Hessian of K_t at the solution and F the problem's penalty; one
    Schur-complement solve on its pair (G, apply_A(G) + grad^2 F*(-xi)), G =
    t gamma, with the solved plan sol.gamma as gamma.  Raises TangentFailed when that Hessian
    is not numerically positive definite.
    """
    gamma, d, forcing = ode_terms(sol.xi.stacked, sol.t, problem, plan=sol.gamma)
    G = sol.t * gamma
    try:
        return bipartite_solve(G, apply_A(G) + d, -forcing / sol.t)
    except np.linalg.LinAlgError as exc:
        raise TangentFailed(sol.t, getattr(exc, "minor", None)) from exc


def solve_primal_t(problem, t):
    """Solve the dual at t and return the recovered primal plan."""
    return solve_dual_t(problem, t).gamma


def primal_objective(gamma, problem, t=None):
    """Transport cost plus marginal penalty, plus the entropy term when t is given."""
    if t is not None:
        check_positive_finite(t, "t")
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != problem.cost.shape:
        raise InvalidInput(
            f"plan shape {gamma.shape} does not match the cost's {problem.cost.shape}"
        )
    if not np.all(np.isfinite(gamma)):
        raise InvalidInput("plan entries must be finite")
    div = problem.penalty
    p = apply_A(gamma)
    val = float(np.sum(problem.cost * gamma)) + csiszar(p, div.q, div.entropy)
    if t is not None:
        val += discrete_entropy(gamma) / t
    return val

