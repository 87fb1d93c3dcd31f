"""Ground-truth solver for the unregularized dual and the limit plan.

The constrained dual  min F*(-xi)  s.t.  A* xi <= c  is solved by a
spanning-forest crossover that ends on the exact optimal face.  It starts
from the regularized optimum xi(t) at t = SEED_T, which lies within O(1/t)
of xi*, and minimizes on each forest's face in closed form.  From the
optimizer we read off the saturated set, the slack matrix, the common
optimal marginals m* = grad F*(-xi*), and finally the minimal-entropy
optimal plan gamma* = exp(A* z) on the saturated set, where z minimizes
sum_{I0} exp((A* z)_xy) - <m*|z> with one node of every component grounded.
The seed's plan on I0 is exp(A* z) at z = SEED_T (xi(SEED_T) - xi*), within
O(1/SEED_T) of gamma*, so that z is the limit plan's start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DualPotential,
    InvalidInput,
    apply_A,
    apply_A_adjoint,
    bipartite_solve,
    component_roots,
    spanning_forest,
)
from .divergence import F_conj_derivatives, F_conj_grad, csiszar
from .newton import last_point_cache, newton_minimize
from .reg_solver import clamped_exp, solve_dual_t

# the crossover starts from the regularized optimum at this t
SEED_T = 1e6
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
    m_star: np.ndarray  # optimal marginals, row sums stacked over column sums
    gamma_star: np.ndarray
    converged: bool
    pivots: int = 0  # crossover pivots from the seed's Kruskal forest
    flags: list = field(default_factory=list)


def _crossover(problem, x):
    """Spanning-forest crossover from a point near xi* to an optimal forest.

    Starts from Kruskal's forest in ascending slack.  Each pivot minimizes
    F*(-xi) on the forest's face, solves A lam = grad F*(-xi) on the forest
    for the flows, and drops the edge of most negative flow or, failing that,
    enters the entry of most negative slack; if that closes a cycle, the
    decreasing cycle edge of least flow leaves (the network-simplex ratio
    test).  Returns the point, the flows, the forest and the number of pivots
    once neither rule applies.  Any start works; one near xi* needs few
    pivots.  The face point, flows and cycle path of a forest are
    bipartite_solve calls on its one grounded pair (G, apply_A(G) + roots),
    roots = component_roots(N).
    The columns of N share no node, so on the face F*(-xi) splits into one
    scalar problem per component (+v on its x-potentials, -v on its
    y-potentials), solved by the entropy's closed-form `balance`.  A kl
    component always has both sides: a leaf edge carries its leaf's positive
    marginal, so it is never dropped.
    """
    n_x, n_y = problem.n_x, problem.n_y
    c, div = problem.cost, problem.penalty
    # at the regularized optimum, ascending slack is descending plan entry
    # exp(-t kappa): the entries of largest regularized flow come first
    order = np.argsort(c - apply_A_adjoint(x, n_x), axis=None)
    order = np.column_stack(np.unravel_index(order, c.shape))
    forest = np.zeros(c.shape, dtype=bool)
    forest[tuple(order[spanning_forest(order, n_x, n_y)[0]].T)] = True
    for pivots in range(MAX_PIVOTS + 1):
        edges, G = np.argwhere(forest), forest * 1.0
        _, N = spanning_forest(edges, n_x, n_y)  # the face's free directions
        D = apply_A(G) + component_roots(N)
        # a point on the face, then each component balanced along it
        x = x + bipartite_solve(G, D, apply_A(G * (c - apply_A_adjoint(x, n_x))))
        S = np.sign(N)  # +1 on a component's x-nodes, -1 on its y-nodes
        g, h = F_conj_derivatives(-x, div)
        v = div.entropy.balance(g[:n_x] @ S[:n_x], -(g[n_x:] @ S[n_x:]), h @ np.abs(S))
        x = x + S @ v
        lam = apply_A_adjoint(bipartite_solve(G, D, F_conj_grad(-x, div)), n_x)[forest]
        off = np.where(forest, math.inf, c - apply_A_adjoint(x, n_x))
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
            b_enter = np.bincount([i, n_x + j], minlength=n_x + n_y) * 1.0
            path = apply_A_adjoint(bipartite_solve(G, D, b_enter), n_x)[forest]
            forest[tuple(edges[np.argmin(np.where(path > 0.5, lam, math.inf))])] = False
        forest[enter] = True


def minimal_entropy_plan(I0, m_star, shape, start=None):
    """Entropy-minimal plan with stacked marginals m_star supported on I0.

    The plan is exp(A* z) on I0, where z minimizes the strictly convex
    functional sum_{I0} exp((A* z)_xy) - <m*|z> + (1/2) sum_roots z^2, with
    one root node in every connected component of I0 (core.component_roots).
    The root term is 0 at the minimizer exactly when m* is balanced on each
    component; ProjectionFailed is raised when m_star is not the marginal of
    such a plan, and InvalidInput when I0 is empty or `start` is not one
    stacked vector of n_x + n_y entries.

    `start` is an optional stacked z to begin from, such as solve_exact's
    SEED_T (xi_seed - xi*), whose plan on I0 is the seed's.  Newton begins
    from whichever of `start` and 0 has the lower functional value: from a
    start far above the minimizer (the seed's at masses of 1e-12) Newton
    stops short of the marginals, and ProjectionFailed is raised.
    """
    if len(I0) == 0:
        raise InvalidInput("saturated set is empty")
    n_x, n_y = shape
    root = component_roots(spanning_forest(I0, n_x, n_y)[1])
    rows, cols = np.asarray(I0, dtype=int).T
    m = np.maximum(m_star, 0.0)

    @last_point_cache
    def plan(z):
        gamma = np.zeros(shape)
        gamma[rows, cols] = clamped_exp(z[rows] + z[n_x + cols])
        return gamma

    # the gradient's marginals of the plan are the Hessian's diagonal too;
    # the solve is a block of one row, whose functions take its 1-D point
    marginals = last_point_cache(lambda z: apply_A(plan(z)))

    def value(z, _=None):
        return float(plan(z).sum() - m @ z + 0.5 * root @ z**2)

    z0 = np.zeros(n_x + n_y)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != z0.shape:
            raise InvalidInput(f"a limit-plan start needs {z0.size} stacked entries")
        if value(start) < value(z0):
            z0 = start
    z, *_ = newton_minimize(
        value,
        lambda z, _: marginals(z) - m + root * z,
        lambda z, _: (plan(z), marginals(z) + root),
        z0[None],
        1e-13 * float(np.max(m)),
        200,
    )
    gamma = plan(z[0])
    residual = float(np.max(np.abs(apply_A(gamma) - m)))
    if residual > PROJ_RESIDUAL_TOL * max(m[:n_x].sum(), m[n_x:].sum()):
        raise ProjectionFailed(residual)
    return gamma


def solve_exact(problem):
    """Full exact pipeline: dual optimizer, saturated set, marginals, limit plan.

    The crossover starts from the regularized optimum at t = SEED_T, whose
    flags are kept with the prefix "seed-", plus "seed-nonconverged" when the
    seed stops short of its tolerance.  The saturated set I0 is the
    crossover's optimal forest plus the entries whose slack is within
    SLACK_TOL of zero.  A crossover that finds no optimal forest raises
    CrossoverFailed, so every returned solution is converged.
    """
    seed = solve_dual_t(problem, SEED_T)
    x, _, forest, pivots = _crossover(problem, seed.xi.stacked)
    xi_star = DualPotential.from_stacked(x, problem.n_x)
    kappa = problem.cost - apply_A_adjoint(x, problem.n_x)
    mask = forest | (kappa <= SLACK_TOL)
    I0 = [(int(i), int(j)) for i, j in np.argwhere(mask)]
    if not I0:
        raise DegenerateInstance("no saturated constraint at the dual optimum")
    m_star = F_conj_grad(-x, problem.penalty)  # common to every primal optimizer
    flags = seed.flags + ([] if seed.converged else ["nonconverged"])
    # the seed's plan on I0 is exp(A* z) at z = SEED_T (xi_seed - xi*)
    start = SEED_T * (seed.xi.stacked - x)
    return ExactSolution(
        xi_star=xi_star,
        kappa=kappa,
        I0=I0,
        kappa_star=float(np.min(kappa[~mask], initial=math.inf)),
        m_star=m_star,
        gamma_star=minimal_entropy_plan(I0, m_star, kappa.shape, start),
        converged=True,
        pivots=pivots,
        flags=["seed-" + f for f in flags],
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
    c = problem.cost.ravel()
    q, ent = problem.penalty.q, problem.penalty.entropy

    def objective(g):
        gamma = g.reshape(n_x, n_y)
        p = apply_A(gamma)
        return float(c @ g) + csiszar(p, q, ent)

    def grad(g):
        gamma = g.reshape(n_x, n_y)
        p = apply_A(gamma)
        ratio = np.maximum(p, 1e-300) / q
        if ent.name.startswith("kl"):
            dF = np.log(ratio)
        else:  # quadratic
            dF = ratio - 1.0
        return c + apply_A_adjoint(dF, n_x).ravel()

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
