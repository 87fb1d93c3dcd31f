"""Domain types for discrete unbalanced transport: problems, potentials, marginals.

Measures live on finite point sets and are identified with their weight
vectors.  A transport plan ("coupling") is a plain nonnegative ndarray of
shape (n_x, n_y).  All values are immutable after construction and every
operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


class InvalidInput(ValueError):
    """Raised when an input violates a documented precondition."""


COST_KINDS = ("sqeuclidean", "euclidean", "explicit")


def build_cost(points_x, points_y, kind="sqeuclidean", matrix=None):
    """Pairwise ground cost between two point clouds.

    kind "sqeuclidean" gives ||x-y||^2, "euclidean" gives ||x-y||, and
    "explicit" passes `matrix` through unchanged (after validation).
    """
    if kind == "explicit":
        if matrix is None:
            raise InvalidInput("explicit cost requires a matrix")
        c = np.asarray(matrix, dtype=float)
        if c.ndim != 2:
            raise InvalidInput("explicit cost matrix must be 2-dimensional")
        return c
    px = np.atleast_2d(np.asarray(points_x, dtype=float))
    py = np.atleast_2d(np.asarray(points_y, dtype=float))
    if px.shape[1] != py.shape[1]:
        raise InvalidInput(
            f"point dimensions disagree: {px.shape[1]} vs {py.shape[1]}"
        )
    diff = px[:, None, :] - py[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    if kind == "sqeuclidean":
        return sq
    if kind == "euclidean":
        return np.sqrt(sq)
    raise InvalidInput(f"unknown cost kind: {kind!r}")


@dataclass(frozen=True)
class DualPotential:
    """Dual variable (phi on the source points, psi on the target points)."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))
        if not (np.all(np.isfinite(self.phi)) and np.all(np.isfinite(self.psi))):
            raise InvalidInput("dual potential entries must be finite")

    @property
    def stacked(self):
        """Concatenation over the disjoint union of source and target points."""
        return np.concatenate([self.phi, self.psi])

    @staticmethod
    def from_stacked(vec, n_x):
        vec = np.asarray(vec, dtype=float)
        return DualPotential(vec[:n_x], vec[n_x:])

    @staticmethod
    def zeros(n_x, n_y):
        return DualPotential(np.zeros(n_x), np.zeros(n_y))


@dataclass(frozen=True)
class Marginals:
    """Row/column sums of a plan, as a pair of mass vectors."""

    row: np.ndarray
    col: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row", np.asarray(self.row, dtype=float))
        object.__setattr__(self, "col", np.asarray(self.col, dtype=float))

    @property
    def stacked(self):
        return np.concatenate([self.row, self.col])


def apply_A(gamma):
    """Marginal operator: plan -> (row sums, column sums)."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise InvalidInput("plan must be a 2-dimensional array")
    if not np.all(np.isfinite(gamma)):
        raise InvalidInput("plan entries must be finite")
    return Marginals(gamma.sum(axis=1), gamma.sum(axis=0))


def marginal_sums(gamma):
    """Stacked row and column sums of a plan, without apply_A's input checks."""
    return np.concatenate([gamma.sum(axis=1), gamma.sum(axis=0)])


def apply_A_adjoint(xi):
    """Adjoint of the marginal operator: (phi, psi) -> matrix phi_x + psi_y."""
    return xi.phi[:, None] + xi.psi[None, :]


def discrete_entropy(gamma):
    """Sum of gamma * (log gamma - 1) with the 0 log 0 = 0 convention."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise InvalidInput("entropy requires a nonnegative plan")
    pos = gamma > 0
    g = gamma[pos]
    return float(np.sum(g * (np.log(g) - 1.0)))


@dataclass(frozen=True)
class DivergenceSpec:
    """Marginal-penalty descriptor: entropy kind plus optional reference weights.

    When the reference weights are omitted they default to the problem's own
    (mu, nu), which is the standard choice for the marginal penalization.
    """

    kind: str = "kl"
    mu_ref: np.ndarray | None = None
    nu_ref: np.ndarray | None = None


@dataclass(frozen=True)
class Problem:
    """A full discrete unbalanced transport instance.

    Weight vectors mu/nu sit on the point clouds, `cost` is the ground cost
    matrix and `divergence` selects the marginal penalty.
    """

    points_x: np.ndarray
    points_y: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    cost: np.ndarray
    divergence: DivergenceSpec = field(default_factory=DivergenceSpec)
    cost_kind: str = "sqeuclidean"

    def __post_init__(self):
        object.__setattr__(
            self, "points_x", np.atleast_2d(np.asarray(self.points_x, dtype=float))
        )
        object.__setattr__(
            self, "points_y", np.atleast_2d(np.asarray(self.points_y, dtype=float))
        )
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=float))
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))
        n_x, n_y = self.mu.size, self.nu.size
        if self.points_x.shape[0] != n_x or self.points_y.shape[0] != n_y:
            raise InvalidInput("weight vectors must match the point clouds")
        if self.cost.shape != (n_x, n_y):
            raise InvalidInput(
                f"cost shape {self.cost.shape} does not match ({n_x}, {n_y})"
            )
        if not np.all(np.isfinite(self.cost)) or np.any(self.cost < 0):
            raise InvalidInput("cost entries must be finite and nonnegative")
        weights = np.concatenate([self.mu, self.nu])
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise InvalidInput("weights must be finite and nonnegative")
        for name, ref, n in (
            ("mu_ref", self.divergence.mu_ref, n_x),
            ("nu_ref", self.divergence.nu_ref, n_y),
        ):
            if ref is not None and np.shape(ref) != (n,):
                raise InvalidInput(
                    f"divergence {name} has shape {np.shape(ref)}, expected ({n},)"
                )
        if not np.all(np.isfinite(self.q)):
            raise InvalidInput("reference weights must be finite")

    @property
    def n_x(self):
        return self.mu.size

    @property
    def n_y(self):
        return self.nu.size

    @property
    def q(self):
        """Reference weights on the disjoint union of both clouds."""
        mu_ref = self.mu if self.divergence.mu_ref is None else self.divergence.mu_ref
        nu_ref = self.nu if self.divergence.nu_ref is None else self.divergence.nu_ref
        return np.concatenate([np.asarray(mu_ref, float), np.asarray(nu_ref, float)])

    def check_shapes(self, xi):
        if xi.phi.size != self.n_x or xi.psi.size != self.n_y:
            raise InvalidInput("dual potential shape does not match the problem")


def incidence_columns(entries, n_x, n_y):
    """Columns of the marginal operator for the plan entries (i, j) given.

    Column k is e_i + e_{n_x + j} on the disjoint union of both clouds.
    """
    idx = np.asarray(entries, dtype=int).reshape(-1, 2)
    cols = np.arange(idx.shape[0])
    B = np.zeros((n_x + n_y, idx.shape[0]))
    B[idx[:, 0], cols] = 1.0
    B[n_x + idx[:, 1], cols] = 1.0
    return B


def spanning_forest(entries, n_x, n_y):
    """Kruskal's forest of the bipartite graph whose edges are plan entries.

    An entry (i, j) is kept unless it closes a cycle with those before it.
    Returns the kept positions and an orthonormal basis N of the null space
    of incidence_columns(entries, n_x, n_y)^T: one column per connected
    component, +1 on its x-nodes and -1 on its y-nodes, normalized.
    """
    n = n_x + n_y
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]  # path halving
        return a

    kept = []
    for k, (i, j) in enumerate(entries):
        if len(kept) == n - 1:
            break  # a spanning tree: every later entry closes a cycle
        a, b = find(int(i)), find(n_x + int(j))
        if a != b:
            root[a] = b
            kept.append(k)
    labels = [find(a) for a in range(n)]
    _, comp, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    sign = np.where(np.arange(n) < n_x, 1.0, -1.0)
    N = np.zeros((n, sizes.size))
    N[np.arange(n), comp] = sign / np.sqrt(sizes[comp])
    return kept, N


def bipartite_hessian(G, diag):
    """Dense A diag(G) A* + diag(diag) for a plan-shaped weight G.

    This is the transport-shaped Hessian [[diag(G 1), G], [G^T, diag(G^T 1)]]
    plus a diagonal; `bipartite_solve` solves with it without assembling it.
    """
    n_x, n_y = G.shape
    H = np.zeros((n_x + n_y, n_x + n_y))
    H[:n_x, n_x:] = G
    H[n_x:, :n_x] = G.T
    H[np.diag_indices_from(H)] = marginal_sums(G) + diag
    return H


def bipartite_solve(G, d_x, d_y, rhs, ridge=0.0):
    """Solve (bipartite_hessian(G, [d_x, d_y]) + ridge I) s = rhs.

    Both diagonal blocks are diagonal, so the larger side is eliminated and
    only the min(n_x, n_y) Schur complement diag(b) - W^T W, W = G / sqrt(a),
    is Cholesky-factored (a, b: diagonals of the eliminated and kept sides).
    Raises numpy.linalg.LinAlgError when the matrix is not positive definite.
    """
    n_x, n_y = G.shape
    a = d_x + G.sum(axis=1) + ridge
    b = d_y + G.sum(axis=0) + ridge
    r_a, r_b = rhs[:n_x], rhs[n_x:]
    flip = n_x < n_y
    if flip:
        G, a, b, r_a, r_b = G.T, b, a, r_b, r_a
    if not np.all(a > 0):
        raise np.linalg.LinAlgError("eliminated diagonal is not positive")
    W = G / np.sqrt(a)[:, None]
    S = -(W.T @ W)
    S[np.diag_indices_from(S)] += b
    cf = scipy.linalg.cho_factor(S, check_finite=False)
    s_b = scipy.linalg.cho_solve(cf, r_b - G.T @ (r_a / a), check_finite=False)
    s_a = (r_a - G @ s_b) / a
    return np.concatenate([s_b, s_a] if flip else [s_a, s_b])

