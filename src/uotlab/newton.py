"""Damped Newton minimization shared by every smooth solve in the lab.

One loop serves the regularized dual, the face solves of the exact
reference's crossover and the reduced limit-plan functional: Cholesky steps
with a ridge retry, Armijo backtracking, and an exit at the objective's
rounding floor.  Transport-shaped Hessians take a Schur-complement step
(`core.bipartite_solve`) instead of a dense factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import bipartite_solve

# Armijo sufficient-decrease fraction and step shrink factor of the line search
ARMIJO_SLOPE = 1e-4
BACKTRACK = 0.5


def last_point_cache(fn):
    """fn with its result for the most recent argument kept.

    The kernel evaluates the value, gradient and Hessian at the same array
    object, so an array-valued quantity computed by the value at a trial
    point (the plan) is reused by the gradient and the Hessian once that
    point is accepted.
    """
    last_x = last_out = None

    def cached(x):
        nonlocal last_x, last_out
        if x is not last_x:
            last_x, last_out = x, fn(x)
        return last_out

    return cached


def _solve(H, rhs, lam):
    """Solve (H + lam I) s = rhs by Cholesky; see newton_minimize for H."""
    if isinstance(H, tuple):
        G, d = H
        n_x = G.shape[0]
        return bipartite_solve(G, d[:n_x], d[n_x:], rhs, lam)
    Hr = H if lam == 0 else H + lam * np.eye(H.shape[0])
    cf = scipy.linalg.cho_factor(Hr, check_finite=False)
    step = scipy.linalg.cho_solve(cf, rhs, check_finite=False)
    if not np.all(np.isfinite(step)):
        # unchecked factorization passes NaN through; fail as the pair branch does
        raise np.linalg.LinAlgError("Newton step is not finite")
    return step


def _mean_diagonal(H):
    if isinstance(H, tuple):
        G, d = H
        return (2 * G.sum() + d.sum()) / d.size
    return np.trace(H) / H.shape[0]


def newton_minimize(value, gradient, hessian, x0, grad_tol, max_iters):
    """Minimize a smooth strictly convex function from x0.

    Returns (x, value, gradient, iterations, flags).  `value` may return
    +inf off the function's domain; the line search rejects such trial
    points like any other failed Armijo test.  Stops when max|gradient| <=
    grad_tol, after max_iters steps, at numerical stationarity, or when
    backtracking stalls (flag "linesearch-stalled").  `hessian` returns a
    dense matrix, or a pair (G, d) standing for the transport-shaped
    `core.bipartite_hessian(G, d)`.  A Hessian that fails to factor is
    retried with a growing ridge (flag "ridge").
    """
    x = x0
    flags = []
    val = value(x)
    grad = gradient(x)
    iters = 0
    for iters in range(1, max_iters + 1):
        gnorm = float(np.max(np.abs(grad), initial=0.0))
        if gnorm <= grad_tol:
            iters -= 1
            break
        H = hessian(x)
        lam = 0.0
        while True:
            try:
                step = -_solve(H, grad, lam)
                break
            except np.linalg.LinAlgError:
                # a NaN Hessian gives a NaN ridge, which also ends the retry
                lam = 10 * lam if lam else 1e-12 * max(_mean_diagonal(H), 1.0)
                if "ridge" not in flags:
                    flags.append("ridge")
                if not lam <= 1e8:
                    raise
        slope = float(grad @ step)
        if -slope <= 16 * np.finfo(float).eps * (1.0 + abs(val)):
            # predicted decrease is below the objective's rounding floor, so
            # Armijo can't certify progress; take full Newton steps while they
            # still reduce the gradient, then stop at numerical stationarity
            trial = x + step
            tgrad = gradient(trial)
            if float(np.max(np.abs(tgrad))) < gnorm:
                x, grad = trial, tgrad
                val = value(x)
                continue
            break
        alpha = 1.0
        for _ in range(60):
            trial = x + alpha * step
            tval = value(trial)
            if np.isfinite(tval) and tval <= val + ARMIJO_SLOPE * alpha * slope:
                break
            alpha *= BACKTRACK
        else:
            flags.append("linesearch-stalled")
            break
        x, val = trial, tval
        grad = gradient(x)
    return x, val, grad, iters, flags
