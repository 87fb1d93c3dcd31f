"""Ground-truth solver for the unregularized dual and the limit plan.

The constrained dual  min F*(-xi)  s.t.  A* xi <= c  is solved by a
log-barrier interior-point method followed by an active-set polish that
minimizes over the face of the saturated constraints to machine precision.
Both run on the shared Newton kernel.  From the optimizer we read
off the saturated set, the slack matrix, the common optimal marginals
m* = grad F*(-xi*), and finally the minimal-entropy optimal plan
gamma* = exp(A* z) on the saturated set, where z minimizes the reduced
functional sum_{I0} exp((A* z)_xy) - <m*|z> over the saturated span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    DualPotential,
    InvalidInput,
    Marginals,
    apply_A,
    apply_A_adjoint,
    incidence_columns,
    marginal_sums,
    span_bases,
)
from .divergence import (
    F_conj,
    F_conj_grad,
    F_conj_hess_diag,
    F_value,
    divergence_for,
)
from .newton import last_point_cache, newton_minimize
from .reg_solver import clamped_exp

# barrier weight 1/tau; tau grows by the factor until n_x n_y / tau < gap
BARRIER_T0 = 1.0
BARRIER_FACTOR = 10.0
BARRIER_GAP = 1e-10
# centering stops at INNER_TOL * max(1, tau); also caps the polish's Newton steps
INNER_TOL = 1e-11
MAX_INNER_ITERS = 100
# slack violation a polished point may have
FEAS_TOL = 1e-8
# face residual and reduced gradient the polish must reach, relative to max(1, |c_I0|)
POLISH_TOL = 1e-13
# marginal residual accepted in the limit plan, relative to the larger mass
PROJ_RESIDUAL_TOL = 1e-10


class DegenerateInstance(RuntimeError):
    """No saturated constraint at the dual optimum."""


@dataclass
class ExactSolution:
    xi_star: DualPotential
    kappa: np.ndarray
    I0: list
    kappa_star: float
    m_star: Marginals
    gamma_star: np.ndarray
    lam: np.ndarray  # KKT multipliers (a primal optimizer, support in I0)
    converged: bool
    flags: list = field(default_factory=list)


def _sat_tol(problem, sat_tol=None):
    if sat_tol is not None:
        return sat_tol
    return max(1e-7, 1e-6 * float(np.max(problem.cost, initial=0.0)))


def _slack(xi, problem):
    return problem.cost - apply_A_adjoint(xi)


def _barrier_minimize(problem, div):
    """Central-path interior point for min F*(-xi) s.t. A* xi <= c."""
    n_x, n_y = problem.n_x, problem.n_y
    # strictly feasible start: A* xi = -2 < c since c >= 0
    x = -np.ones(n_x + n_y)
    tau = BARRIER_T0
    n_cons = n_x * n_y
    flags = []

    # the slacks at a trial point are computed once, by the value, and
    # reused by the gradient and the Hessian
    slack = last_point_cache(lambda x: problem.cost - (x[:n_x, None] + x[None, n_x:]))

    # +inf off the feasible set makes the line search reject such trial
    # points, which keeps every iterate strictly feasible
    def value(x):
        kappa = slack(x)
        if not np.all(kappa > 0):
            return math.inf
        return F_conj(-x, div) - float(np.sum(np.log(kappa))) / tau

    def gradient(x):
        return -F_conj_grad(-x, div) + marginal_sums(1.0 / slack(x)) / tau

    def hessian(x):
        inv_k = 1.0 / slack(x)
        return inv_k * inv_k / tau, F_conj_hess_diag(-x, div)

    while True:
        x, _, _, _, stage_flags = newton_minimize(
            value, gradient, hessian, x,
            INNER_TOL * max(1.0, tau), MAX_INNER_ITERS,
        )
        flags += ["barrier-" + f for f in stage_flags]
        if n_cons / tau < BARRIER_GAP:
            break
        tau *= BARRIER_FACTOR
    lam = 1.0 / (tau * slack(x))
    return DualPotential.from_stacked(x, n_x), lam, flags


def _polish(problem, div, xi, I0_mask):
    """Minimize F*(-xi) on the face (A* xi)_{I0} = c_{I0} from the barrier point.

    The barrier point is projected onto the face by least squares; the kernel
    then minimizes over the face's free directions, and the multipliers come
    from B lam = grad F*(-xi).  Drops constraints whose multipliers come out
    negative and retries, so a slightly over-greedy saturation threshold
    self-corrects.
    """
    n_x = problem.n_x
    x0 = xi.stacked
    mask = I0_mask.copy()
    for _ in range(mask.sum() + 1):
        idx = np.argwhere(mask)
        if len(idx) == 0:
            return None
        B = incidence_columns(idx, n_x, problem.n_y)
        _, N = span_bases(B)
        c_act = problem.cost[mask]
        tol = POLISH_TOL * max(1.0, np.max(np.abs(c_act)))
        x_p = x0 + scipy.linalg.lstsq(B.T, c_act - B.T @ x0, check_finite=False)[0]
        # a cycle whose costs do not add up has no point on the face; stop
        # before Newton steps far off the face overflow exp
        if np.max(np.abs(B.T @ x_p - c_act)) > tol:
            return None

        def at(u):
            return -(x_p + N @ u)

        u, _, grad, _, _ = newton_minimize(
            lambda u: F_conj(at(u), div),
            lambda u: -N.T @ F_conj_grad(at(u), div),
            lambda u: N.T @ (F_conj_hess_diag(at(u), div)[:, None] * N),
            np.zeros(N.shape[1]), tol, MAX_INNER_ITERS,
        )
        if np.max(np.abs(grad), initial=0.0) > tol:
            return None
        x = x_p + N @ u
        lam, *_ = scipy.linalg.lstsq(B, F_conj_grad(-x, div), check_finite=False)
        if not np.any(lam < -1e-12):
            lam_full = np.zeros((n_x, problem.n_y))
            lam_full[mask] = np.maximum(lam, 0.0)
            xi_new = DualPotential.from_stacked(x, n_x)
            if np.min(_slack(xi_new, problem)) < -FEAS_TOL:
                return None
            return xi_new, lam_full
        mask[tuple(idx[np.argmin(lam)])] = False
    return None


def solve_dual_exact(problem):
    """Minimizer of F*(-xi) over the polyhedron A* xi <= c."""
    xi, _, _ = _solve_dual_kkt(problem)
    return xi


def _solve_dual_kkt(problem):
    """Dual minimizer together with KKT multipliers and diagnostic flags."""
    div = divergence_for(problem)
    xi, lam, flags = _barrier_minimize(problem, div)
    polished = _polish(problem, div, xi, _slack(xi, problem) <= _sat_tol(problem))
    if polished is not None:
        xi, lam_full = polished
    else:
        flags.append("polish-failed")
        lam_full = lam
    return xi, lam_full, flags


def saturated_set(xi_star, problem, sat_tol=None):
    """Slack matrix, saturated index set and the minimal off-set slack."""
    sat_tol = _sat_tol(problem, sat_tol)
    kappa = _slack(xi_star, problem)
    if np.min(kappa) < -10 * sat_tol:
        raise InvalidInput("xi_star is infeasible beyond tolerance")
    mask = kappa <= sat_tol
    I0 = [(int(i), int(j)) for i, j in np.argwhere(mask)]
    if not I0:
        raise DegenerateInstance("no saturated constraint at the dual optimum")
    off = kappa[~mask]
    kappa_star = float(off.min()) if off.size else math.inf
    return I0, kappa, kappa_star


def optimal_marginals(xi_star, div):
    """Common marginal vector of every primal optimizer: grad F*(-xi*)."""
    n = xi_star.phi.size
    m = F_conj_grad(-xi_star.stacked, div)
    return Marginals(m[:n], m[n:])


def minimal_entropy_plan(I0, m_star, shape):
    """Entropy-minimal plan with marginals m_star supported on I0.

    The plan is exp(A* z) on I0, where z minimizes the strictly convex
    reduced functional sum_{I0} exp((A* z)_xy) - <m*|z> over the span of
    the saturated incidence columns.
    """
    n_x, n_y = shape
    B = incidence_columns(I0, n_x, n_y)
    basis, _ = span_bases(B)
    Bb = B.T @ basis  # saturated coordinates of the basis vectors
    m = np.maximum(np.concatenate([m_star.row, m_star.col]), 0.0)
    mb = basis.T @ m

    def expo(w):
        return clamped_exp(Bb @ w)

    w, *_ = newton_minimize(
        lambda w: float(np.sum(expo(w)) - mb @ w),
        lambda w: Bb.T @ expo(w) - mb,
        lambda w: Bb.T @ (expo(w)[:, None] * Bb),
        np.zeros(basis.shape[1]),
        1e-13 * max(1.0, float(np.max(np.abs(mb)))),
        200,
    )
    gamma = np.zeros(shape)
    rows, cols = np.asarray(I0, dtype=int).T
    gamma[rows, cols] = expo(w)
    scale = max(m[:n_x].sum(), m[n_x:].sum(), 1.0)
    if np.max(np.abs(apply_A(gamma).stacked - m)) > PROJ_RESIDUAL_TOL * scale:
        raise RuntimeError("minimal-entropy projection did not converge")
    return gamma


def solve_exact(problem):
    """Full exact pipeline: dual optimizer, saturated set, marginals, limit plan."""
    div = divergence_for(problem)
    xi_star, lam, flags = _solve_dual_kkt(problem)
    I0, kappa, kappa_star = saturated_set(xi_star, problem)
    m_star = optimal_marginals(xi_star, div)
    gamma_star = minimal_entropy_plan(I0, m_star, (problem.n_x, problem.n_y))
    converged = "polish-failed" not in flags and "barrier-linesearch-stalled" not in flags
    return ExactSolution(
        xi_star=xi_star,
        kappa=kappa,
        I0=I0,
        kappa_star=kappa_star,
        m_star=m_star,
        gamma_star=gamma_star,
        lam=lam,
        converged=converged,
        flags=flags,
    )


def brute_force_primal(problem, n_restarts=20, seed=0):
    """Oracle-grade direct minimization of <c|gamma> + F(A gamma) over gamma >= 0.

    Bound-constrained quasi-Newton from many random starts plus a polishing
    pass; best-found semantics, intended for instances with at most 9 cells.
    """
    n_x, n_y = problem.n_x, problem.n_y
    import scipy.optimize  # only the oracle needs it; keeps `import uotlab` light

    if n_x * n_y > 9:
        raise InvalidInput("brute-force oracle is limited to 9 plan entries")
    div = divergence_for(problem)
    c = problem.cost.ravel()
    q = problem.q
    ent = div.entropy

    def objective(g):
        gamma = g.reshape(n_x, n_y)
        p = apply_A(gamma).stacked
        return float(c @ g) + F_value(p, div)

    def grad(g):
        gamma = g.reshape(n_x, n_y)
        p = apply_A(gamma).stacked
        ratio = np.maximum(p, 1e-300) / q
        if ent.name.startswith("kl"):
            dF = np.log(ratio)
        elif ent.name == "quadratic":
            dF = ratio - 1.0
        else:
            h = 1e-7
            dF = np.array(
                [
                    (F_value(p + h * e, div) - F_value(p - h * e, div)) / (2 * h)
                    for e in np.eye(p.size)
                ]
            )
        mat = dF[:n_x, None] + dF[None, n_x:]
        return c + mat.ravel()

    rng = np.random.default_rng(seed)
    total = max(problem.mu.sum() + problem.nu.sum(), 1.0)
    best_g, best_val = None, math.inf
    starts = [np.full(n_x * n_y, total / (2 * n_x * n_y))]
    starts += [rng.uniform(1e-3, total, n_x * n_y) for _ in range(n_restarts)]
    bounds = [(0.0, None)] * (n_x * n_y)
    for g0 in starts:
        res = scipy.optimize.minimize(
            objective,
            g0,
            jac=grad,
            bounds=bounds,
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
        )
        if res.fun < best_val:
            best_val, best_g = res.fun, res.x
    # polishing pass from the incumbent
    res = scipy.optimize.minimize(
        objective,
        best_g,
        jac=grad,
        bounds=bounds,
        method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-14},
    )
    if res.fun < best_val:
        best_val, best_g = res.fun, res.x
    return best_g.reshape(n_x, n_y)
