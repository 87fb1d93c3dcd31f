"""Ground-truth solver for the unregularized dual and the limit plan.

The constrained dual  min F*(-xi)  s.t.  A* xi <= c  is solved by a
spanning-forest crossover that ends on the exact optimal face.  It starts
from the regularized optimum xi(t) at t = SEED_T, which lies within O(1/t)
of xi*, and its face solves run on the shared Newton kernel.  From the
optimizer we read off the saturated set, the slack matrix, the common
optimal marginals m* = grad F*(-xi*), and finally the minimal-entropy
optimal plan gamma* = exp(A* z) on the saturated set, where z minimizes the
reduced functional sum_{I0} exp((A* z)_xy) - <m*|z>.
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
    incidence_columns,
    spanning_forest,
)
from .divergence import (
    F_conj,
    F_conj_grad,
    F_conj_hess_diag,
    csiszar,
    divergence_for,
)
from .newton import newton_minimize
from .reg_solver import clamped_exp, solve_dual_t

# the crossover starts from the regularized optimum at this t
SEED_T = 1e6
# Newton steps allowed per face solve
MAX_INNER_ITERS = 100
# reduced gradient a face solve must reach, relative to max(1, |c|)
FACE_TOL = 1e-13
# a forest edge whose flow is below -FLOW_TOL leaves; an entry whose slack is
# below -SLACK_TOL enters, and one within SLACK_TOL of zero is saturated
FLOW_TOL = 1e-13
SLACK_TOL = 1e-12
MAX_PIVOTS = 1000
# marginal residual accepted in the limit plan, relative to the larger mass
PROJ_RESIDUAL_TOL = 1e-10


class DegenerateInstance(RuntimeError):
    """No saturated constraint at the dual optimum."""


class CrossoverFailed(RuntimeError):
    """The crossover reached MAX_PIVOTS pivots without an optimal forest."""

    def __init__(self, pivots, min_slack, min_flow):
        super().__init__(f"crossover stopped after {pivots} pivots: "
                         f"min slack {min_slack:.3e}, min flow {min_flow:.3e}")
        self.pivots, self.min_slack, self.min_flow = pivots, min_slack, min_flow


class ProjectionFailed(RuntimeError):
    """The limit plan misses the optimal marginals, e.g. ones outside the span of I0."""

    def __init__(self, residual):
        super().__init__(f"minimal-entropy plan misses the marginals by {residual:.3e}")
        self.residual = residual


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
    pivots: int = 0  # crossover pivots from the seed's Kruskal forest
    flags: list = field(default_factory=list)


def _slack(problem, x):
    return problem.cost - (x[:problem.n_x, None] + x[None, problem.n_x:])


def _crossover(problem, div, x):
    """Spanning-forest crossover from a point near xi* to an optimal forest.

    Starts from Kruskal's forest in ascending slack.  Each pivot minimizes
    F*(-xi) on the forest's face, solves B lam = grad F*(-xi) for the flows,
    and drops the edge of most negative flow or, failing that, enters the
    entry of most negative slack; if that closes a cycle, the decreasing cycle
    edge of least flow leaves (the network-simplex ratio test).  Returns the
    point, the flows, the forest and the number of pivots once neither rule
    applies.  Any start works; one near xi* needs few pivots.
    """
    n_x, n_y = problem.n_x, problem.n_y
    c = problem.cost
    # at the regularized optimum, ascending slack is descending plan entry
    # exp(-t kappa): the entries of largest regularized flow come first
    order = np.argsort(_slack(problem, x), axis=None)
    order = np.column_stack(np.unravel_index(order, c.shape))
    forest = np.zeros(c.shape, dtype=bool)
    forest[tuple(order[spanning_forest(order, n_x, n_y)[0]].T)] = True
    tol = FACE_TOL * max(1.0, float(np.max(c)))
    for pivots in range(MAX_PIVOTS + 1):
        edges = np.argwhere(forest)
        B = incidence_columns(edges, n_x, n_y)
        _, N = spanning_forest(edges, n_x, n_y)  # the face's free directions
        # least-squares projection onto the face, then the kernel along it
        x = x + scipy.linalg.lstsq(B.T, c[forest] - B.T @ x, check_finite=False)[0]
        u, *_ = newton_minimize(
            lambda u: F_conj(-(x + N @ u), div),
            lambda u: -N.T @ F_conj_grad(-(x + N @ u), div),
            lambda u: N.T @ (F_conj_hess_diag(-(x + N @ u), div)[:, None] * N),
            np.zeros(N.shape[1]), tol, MAX_INNER_ITERS,
        )
        x = x + N @ u
        lam = scipy.linalg.lstsq(B, F_conj_grad(-x, div), check_finite=False)[0]
        off = np.where(forest, math.inf, _slack(problem, x))
        i, j = enter = np.unravel_index(np.argmin(off), c.shape)
        min_flow = float(np.min(lam, initial=math.inf))
        if min_flow >= -FLOW_TOL and off[enter] >= -SLACK_TOL:
            flows = np.zeros(c.shape)
            flows[forest] = np.maximum(lam, 0.0)
            return x, flows, forest, pivots
        if pivots == MAX_PIVOTS:
            raise CrossoverFailed(pivots, float(off[enter]), min_flow)
        if min_flow < -FLOW_TOL:
            forest[tuple(edges[np.argmin(lam)])] = False
            continue
        if N[i] @ N[n_x + j] < 0:  # both ends in one component: a cycle
            # the entering column is a signed sum of the cycle's forest
            # columns; pushing flow onto it decreases those of sign +1
            b_enter = incidence_columns([enter], n_x, n_y)[:, 0]
            path = scipy.linalg.lstsq(B, b_enter, check_finite=False)[0]
            forest[tuple(edges[np.argmin(np.where(path > 0.5, lam, math.inf))])] = False
        forest[enter] = True


def optimal_marginals(xi_star, div):
    """Common marginal vector of every primal optimizer: grad F*(-xi*)."""
    n = xi_star.phi.size
    m = F_conj_grad(-xi_star.stacked, div)
    return Marginals(m[:n], m[n:])


def minimal_entropy_plan(I0, m_star, shape):
    """Entropy-minimal plan with marginals m_star supported on I0.

    The plan is exp(A* z) on I0, where z minimizes the strictly convex
    reduced functional sum_{I0} exp((A* z)_xy) - <m*|z> with z pinned to 0
    at one node of every connected component of I0.  Raises
    ProjectionFailed when m_star is not the marginal of such a plan.
    """
    n_x, n_y = shape
    pinned = np.argmax(spanning_forest(I0, n_x, n_y)[1] != 0, axis=0)
    free = np.setdiff1d(np.arange(n_x + n_y), pinned)
    Bf = incidence_columns(I0, n_x, n_y)[free].T  # (A* z)_{I0} of the free nodes
    m = np.maximum(np.concatenate([m_star.row, m_star.col]), 0.0)
    mf = m[free]

    def expo(w):
        return clamped_exp(Bf @ w)

    w, *_ = newton_minimize(
        lambda w: float(np.sum(expo(w)) - mf @ w),
        lambda w: Bf.T @ expo(w) - mf,
        lambda w: Bf.T @ (expo(w)[:, None] * Bf),
        np.zeros(free.size),
        1e-13 * max(1.0, float(np.max(mf, initial=0.0))),
        200,
    )
    gamma = np.zeros(shape)
    rows, cols = np.asarray(I0, dtype=int).T
    gamma[rows, cols] = expo(w)
    residual = float(np.max(np.abs(apply_A(gamma).stacked - m)))
    if residual > PROJ_RESIDUAL_TOL * max(m[:n_x].sum(), m[n_x:].sum(), 1.0):
        raise ProjectionFailed(residual)
    return gamma


def solve_exact(problem):
    """Full exact pipeline: dual optimizer, saturated set, marginals, limit plan.

    The crossover starts from the regularized optimum at t = SEED_T, whose
    flags are kept with the prefix "seed-".  The saturated set I0 is the
    crossover's optimal forest plus the entries whose slack is within
    SLACK_TOL of zero.  A crossover that finds no optimal forest raises
    CrossoverFailed, so every returned solution is converged.
    """
    div = divergence_for(problem)
    seed = solve_dual_t(problem, SEED_T)
    x, lam, forest, pivots = _crossover(problem, div, seed.xi.stacked)
    xi_star = DualPotential.from_stacked(x, problem.n_x)
    kappa = _slack(problem, x)
    mask = forest | (kappa <= SLACK_TOL)
    I0 = [(int(i), int(j)) for i, j in np.argwhere(mask)]
    if not I0:
        raise DegenerateInstance("no saturated constraint at the dual optimum")
    m_star = optimal_marginals(xi_star, div)
    return ExactSolution(
        xi_star=xi_star,
        kappa=kappa,
        I0=I0,
        kappa_star=float(np.min(kappa[~mask], initial=math.inf)),
        m_star=m_star,
        gamma_star=minimal_entropy_plan(I0, m_star, kappa.shape),
        lam=lam,
        converged=True,
        pivots=pivots,
        flags=["seed-" + f for f in seed.flags],
    )


def brute_force_primal(problem):
    """Oracle-grade direct minimization of <c|gamma> + F(A gamma) over gamma >= 0.

    Bound-constrained quasi-Newton from a uniform start and 20 seeded random
    starts, plus a polishing pass; best-found semantics, intended for
    instances with at most 9 cells.
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
        return float(c @ g) + csiszar(p, div.q, div.entropy)

    def grad(g):
        gamma = g.reshape(n_x, n_y)
        p = apply_A(gamma).stacked
        ratio = np.maximum(p, 1e-300) / q
        if ent.name.startswith("kl"):
            dF = np.log(ratio)
        else:  # quadratic
            dF = ratio - 1.0
        mat = dF[:n_x, None] + dF[None, n_x:]
        return c + mat.ravel()

    rng = np.random.default_rng(0)
    total = max(problem.mu.sum() + problem.nu.sum(), 1.0)
    best_g, best_val = None, math.inf
    starts = [np.full(n_x * n_y, total / (2 * n_x * n_y))]
    starts += [rng.uniform(1e-3, total, n_x * n_y) for _ in range(20)]
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
