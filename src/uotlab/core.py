"""Domain types for discrete unbalanced transport: problems, potentials, the
marginal operator A and its adjoint.

Measures live on finite point sets and are identified with their weight
vectors.  A transport plan ("coupling") is a plain nonnegative ndarray of
shape (n_x, n_y).  All values are immutable after construction and every
operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


_SMALLEST_SUBNORMAL = np.nextafter(0.0, 1.0)


class InvalidInput(ValueError):
    """Raised when an input violates a documented precondition."""


def check_positive_finite(value, name):
    """Raise InvalidInput unless 0 < value < inf; NaN fails too.

    An array passes when every entry does.
    """
    if isinstance(value, np.ndarray):
        ok = bool(((0 < value) & (value < math.inf)).all())
    else:
        ok = 0 < value < math.inf
    if not ok:
        raise InvalidInput(f"{name} must be positive and finite")


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A Cholesky factorization met a leading minor that is not positive.

    `minor` is the order of the first such leading minor, as LAPACK reports
    it, or None when bipartite_solve's eliminated diagonal already is not
    positive.  `row` is the failed system's row in a stacked bipartite_solve,
    None for a single system.
    """

    def __init__(self, minor, row=None):
        if minor is None:
            what = "eliminated diagonal is not positive"
        else:
            what = f"{minor}-th leading minor of the array is not positive definite"
        super().__init__(what if row is None else f"row {row}: {what}")
        self.minor, self.row = minor, row


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
    if kind not in ("sqeuclidean", "euclidean"):
        raise InvalidInput(f"unknown cost kind: {kind!r}")
    px = np.atleast_2d(np.asarray(points_x, dtype=float))
    py = np.atleast_2d(np.asarray(points_y, dtype=float))
    if px.shape[1] != py.shape[1]:
        raise InvalidInput(
            f"point dimensions disagree: {px.shape[1]} vs {py.shape[1]}"
        )
    diff = px[:, None, :] - py[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    return sq if kind == "sqeuclidean" else np.sqrt(sq)


@dataclass(frozen=True)
class DualPotential:
    """Dual variable (phi on the source points, psi on the target points)."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float))
        if not (np.isfinite(self.phi).all() and np.isfinite(self.psi).all()):
            raise InvalidInput("dual potential entries must be finite")

    @property
    def stacked(self):
        """Concatenation over the disjoint union of source and target points."""
        return np.concatenate([self.phi, self.psi])

    @staticmethod
    def from_stacked(vec, n_x):
        vec = np.asarray(vec, dtype=float)
        return DualPotential(vec[:n_x], vec[n_x:])


def apply_A(gamma):
    """Marginal operator A: a plan's row sums stacked over its column sums.

    A stack of plans (leading grid axes) gives one stacked vector per plan.
    No input checks; primal_objective checks a plan that comes from outside.
    """
    add = np.add.reduce
    return np.concatenate([add(gamma, axis=-1), add(gamma, axis=-2)], axis=-1)


def apply_A_adjoint(x, n_x, out=None):
    """Adjoint A* of the marginal operator: stacked (phi, psi) -> matrix phi_x + psi_y.

    Rows of stacked potentials (leading grid axes) give one matrix per row.
    `out`, when given, receives the result, as in numpy's ufuncs.
    """
    return np.add(x[..., :n_x, None], x[..., None, n_x:], out=out)


def discrete_entropy(gamma):
    """Sum of gamma * (log gamma - 1) with the 0 log 0 = 0 convention.

    A stack of plans (leading grid axes) gives one value per plan, as an array.
    """
    gamma = np.asarray(gamma, dtype=float)
    # min and max propagate NaN, and neither makes a temporary
    lo, hi = gamma.min(initial=0.0), gamma.max(initial=0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInput("entropy requires finite plan entries")
    if lo < 0:
        raise InvalidInput("entropy requires a nonnegative plan")
    # a zero entry takes the log of the smallest subnormal, which it then
    # multiplies to 0; a positive entry is at least that, so max keeps it
    terms = np.maximum(gamma, _SMALLEST_SUBNORMAL)
    np.log(terms, out=terms)
    terms -= 1.0
    terms *= gamma
    if gamma.ndim <= 2:
        return float(terms.sum())
    return terms.sum(axis=(-2, -1))


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
    matrix and `divergence` selects the marginal penalty.  The constructor
    checks the inputs and builds that penalty once, as `penalty` (a
    divergence.DivergenceF), which every solver reads.
    """

    points_x: np.ndarray
    points_y: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    cost: np.ndarray
    divergence: DivergenceSpec = field(default_factory=DivergenceSpec)
    cost_kind: str = "sqeuclidean"
    penalty: object = field(init=False, repr=False, compare=False)

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
        if self.mu.ndim != 1 or self.nu.ndim != 1:
            raise InvalidInput("weight vectors must be 1-dimensional")
        n_x, n_y = self.mu.size, self.nu.size
        if n_x == 0 or n_y == 0:
            raise InvalidInput("each point cloud needs at least one point")
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
        from .divergence import divergence_for  # divergence imports this module
        object.__setattr__(self, "penalty", divergence_for(self))

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


def spanning_forest(entries, n_x, n_y):
    """Kruskal's forest of the bipartite graph whose edges are plan entries.

    An entry (i, j) is kept unless it closes a cycle with those before it.
    Returns the kept positions and an orthonormal basis N of the stacked
    potentials z with z_i + z_{n_x + j} = 0 on every entry: one column per
    connected component, +1 on its x-nodes and -1 on its y-nodes, normalized.
    """
    n = n_x + n_y
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = a = root[root[a]]  # path halving
        return a

    kept = []
    # Python ints: unpacking a numpy row and converting its entries costs
    # more than the union-find step itself
    for k, (i, j) in enumerate(np.asarray(entries).tolist()):
        if len(kept) == n - 1:
            break  # a spanning tree: every later entry closes a cycle
        a, b = find(i), find(n_x + j)
        if a != b:
            root[a] = b
            kept.append(k)
    labels = [find(a) for a in range(n)]
    _, comp, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    sign = np.where(np.arange(n) < n_x, 1.0, -1.0)
    N = np.zeros((n, sizes.size))
    N[np.arange(n), comp] = sign / np.sqrt(sizes[comp])
    return kept, N


def bipartite_hessian(G, D):
    """Dense [[diag D_x, G], [G^T, diag D_y]] for a plan-shaped G and a stacked D.

    For the transport Hessian A diag(G) A* + diag(d), D is its full diagonal
    apply_A(G) + d; `bipartite_solve` solves with it without assembling it.
    """
    n_x, n_y = G.shape
    H = np.zeros((n_x + n_y, n_x + n_y))
    H[:n_x, n_x:] = G
    H[n_x:, :n_x] = G.T
    H.flat[::n_x + n_y + 1] = D
    return H


def _bind_dposv(*args, **kwargs):
    """Stand-in for LAPACK dposv until the first factorization.

    Imports scipy's dposv, binds it to the module name `dposv` unless that
    name has been set to something else meanwhile, and calls it.  Keeping
    scipy out of `import uotlab` leaves commands that never factor (gen,
    plot, --help) with numpy alone.
    """
    global dposv
    from scipy.linalg.lapack import dposv as lapack_dposv

    if dposv is _bind_dposv:
        dposv = lapack_dposv
    return lapack_dposv(*args, **kwargs)


dposv = _bind_dposv


def cholesky_solve(S, rhs):
    """Solve S s = rhs for symmetric positive definite S by LAPACK Cholesky.

    Only the upper triangle of S is read, and S itself may be overwritten,
    so pass a temporary.  Pass S Fortran-contiguous (for a symmetric C-ordered
    S, its transpose view S.T): scipy copies any other layout into Fortran
    order before LAPACK sees it, and at n = 240 that copy costs as much as
    the factorization.  One LAPACK dposv call factors and solves; scipy's
    dposv is imported and bound to the module name `dposv` at the first
    call, so later calls only look up that name.  A stack of matrices and
    right-hand sides (a leading row axis) is solved row by row, one dposv
    call each.
    Raises NotPositiveDefinite, a numpy.linalg.LinAlgError, at the first
    pivot that is not positive or is NaN; for a stack it names the row.
    Nothing else is checked for finiteness: a NaN or inf in rhs reaches the
    solution.
    """
    if S.ndim == 3:
        s = np.empty_like(rhs)
        for row in range(len(S)):
            try:
                s[row] = cholesky_solve(S[row], rhs[row])
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(exc.minor, row) from None
        return s
    U, s, info = dposv(S, rhs, lower=0, overwrite_a=1)
    if info == 0 and math.isnan(U[-1, -1]):
        # reference LAPACK stops at a NaN pivot, OpenBLAS passes it through;
        # a NaN pivot makes every later pivot NaN, the last one included
        info = 1 + int(np.argmax(np.isnan(U.diagonal())))
    if info > 0:
        raise NotPositiveDefinite(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dposv")
    return s


def bipartite_solve(G, D, rhs, ridge=0.0):
    """Solve (bipartite_hessian(G, D) + ridge I) s = rhs; D is stacked like rhs.

    D is the full diagonal: for the transport Hessian A diag(G) A* + diag(d)
    it is apply_A(G) + d, which the caller builds (a Newton loop usually
    holds the plan's marginals already), so G itself is never reduced here.
    Both diagonal blocks are diagonal, so the larger side is eliminated and
    only the min(n_x, n_y) Schur complement diag(b) - W^T W, W = G / sqrt(a),
    is Cholesky-factored (a, b: the parts of D on the eliminated and kept
    sides).  Raises NotPositiveDefinite, a numpy.linalg.LinAlgError, when the
    matrix is not positive definite.  D is read, not modified.

    A leading row axis on G, D and rhs (and on ridge, when it is an array)
    stacks independent systems, one per row, and each row's solution is
    bitwise that of its system solved alone: the Gram products, the
    matrix-vector products and the factorization (one LAPACK call per row)
    are the ones a single system makes.  The error of a row that fails names
    it, as `row`.

    numpy forms W^T W with one symmetric rank-k update and mirrors it, so
    the complement is exactly symmetric and its transpose view S.T is the
    same matrix, Fortran-contiguous, which LAPACK takes without a copy.
    """
    n_x, n_y = G.shape[-2:]
    a, b = D[..., :n_x], D[..., n_x:]
    if isinstance(ridge, np.ndarray) or ridge:
        ridge = np.asarray(ridge)[..., None]
        a, b = a + ridge, b + ridge
    r_a, r_b = rhs[..., :n_x], rhs[..., n_x:]
    flip = n_x < n_y
    if flip:
        G, a, b, r_a, r_b = G.swapaxes(-1, -2), b, a, r_b, r_a
    if not np.minimum.reduce(a, axis=None) > 0:  # NaN fails too
        row = None if G.ndim == 2 else int(np.argmin(np.minimum.reduce(a, axis=-1) > 0))
        raise NotPositiveDefinite(None, row)
    W = G / np.sqrt(a)[..., None]
    S = W.swapaxes(-1, -2) @ W
    np.negative(S, out=S)
    S.reshape(S.shape[:-2] + (-1,))[..., :: b.shape[-1] + 1] += b
    # matrix times column: one BLAS gemv per row, as for a single vector
    r = r_b - (G.swapaxes(-1, -2) @ (r_a / a)[..., None])[..., 0]
    s_b = cholesky_solve(S.swapaxes(-1, -2), r)
    s_a = (r_a - (G @ s_b[..., None])[..., 0]) / a
    return np.concatenate([s_b, s_a] if flip else [s_a, s_b], axis=-1)


def component_roots(N):
    """0/1 indicator of each component's root, the first node of its column of N.

    N is spanning_forest's null basis on the support of G.  A unit diagonal
    at one root per component makes the pair (G, apply_A(G) + roots)
    definite, and for rhs orthogonal to N, bipartite_solve on that pair is 0
    at the roots and solves the singular bipartite_hessian(G, apply_A(G))
    (the network-simplex grounding).
    """
    root = np.zeros(N.shape[0])
    root[np.argmax(N != 0, axis=0)] = 1.0
    return root
