"""Damped Newton minimization shared by every smooth solve in the lab.

One loop serves the regularized dual and the limit-plan functional of the
exact reference: Newton steps with a ridge retry, Armijo backtracking, and
an exit at the objective's rounding floor.  Both have transport-shaped
Hessians, pairs (G, d) that `core.bipartite_solve` takes whole for a Schur
step.

For a sum of exponentials the full Newton step can raise some exponents far
past their targets, and each later step then lowers them by about one.  A
caller that can bound the rise of its exponents along a step passes that
bound, and the line search starts from a step that raises none of them by
more than RISE_MAX (the damping of generalized self-concordant objectives,
Sun & Tran-Dinh 2019).
"""

from __future__ import annotations

import math

import numpy as np

from .core import bipartite_solve

# Armijo sufficient-decrease fraction and step shrink factor of the line search
ARMIJO_SLOPE = 1e-4
BACKTRACK = 0.5
# relative rounding floor of an objective value: a predicted decrease below
# ROUNDING_FLOOR * (1 + |value|) is too small for an Armijo test to certify
ROUNDING_FLOOR = 16 * np.finfo(float).eps
# largest rise of an exponent that one step of a bounded line search allows;
# the size-ladder iteration counts are flat between 3 and 5
RISE_MAX = 4.0


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


def newton_minimize(value, gradient, hessian, x0, grad_tol, max_iters, rise=None):
    """Minimize a smooth strictly convex function from x0.

    Returns (x, value, gradient, iterations, flags).  `value` may return
    +inf off the function's domain; the line search rejects such trial
    points like any other failed Armijo test.  Stops when max|gradient| <=
    grad_tol, after max_iters steps, at numerical stationarity, or when
    backtracking stalls (flag "linesearch-stalled").  `hessian` returns a
    pair (G, d) standing for the transport-shaped `core.bipartite_hessian(G,
    d)`, and each step is one `core.bipartite_solve` on it.  A Hessian that
    is not positive definite is retried with a growing ridge (flag "ridge"),
    up to 1e8 times its mean diagonal (or 1e8, when that is below 1).

    `rise`, when given, maps a Newton step to the largest increase the full
    step causes in any exponent of the objective; the Armijo search then
    starts from alpha = min(1, RISE_MAX / rise(step)) instead of 1, so no
    step raises an exponent by more than RISE_MAX.
    """
    top = np.maximum.reduce
    x = x0
    flags = []
    val = value(x)
    grad = gradient(x)
    iters = 0
    for iters in range(1, max_iters + 1):
        gnorm = float(top(np.abs(grad), axis=None, initial=0.0))
        if gnorm <= grad_tol:
            iters -= 1
            break
        G, d = hessian(x)
        lam = 0.0
        while True:
            try:
                step = -bipartite_solve(G, d, grad, lam)
                break
            except np.linalg.LinAlgError:
                # the ridge runs from 1e-12 to 1e8 times the Hessian's scale;
                # a NaN Hessian gives a NaN ridge, which also ends the retry
                if lam:
                    lam *= 10
                else:
                    scale = max((2 * G.sum() + d.sum()) / d.size, 1.0)
                    lam = 1e-12 * scale
                if "ridge" not in flags:
                    flags.append("ridge")
                if not lam <= 1e8 * scale:
                    raise
        slope = float(grad @ step)
        if -slope <= ROUNDING_FLOOR * (1.0 + abs(val)):
            # predicted decrease is below the objective's rounding floor, so
            # Armijo can't certify progress; take full Newton steps while they
            # still reduce the gradient, then stop at numerical stationarity
            trial = x + step
            tgrad = gradient(trial)
            if float(top(np.abs(tgrad), axis=None)) < gnorm:
                x, grad = trial, tgrad
                val = value(x)
                continue
            break
        alpha = 1.0
        if rise is not None:
            r = rise(step)
            if r > RISE_MAX:  # a NaN rise leaves alpha = 1
                alpha = RISE_MAX / r
        for _ in range(60):
            trial = x + alpha * step
            tval = value(trial)
            if math.isfinite(tval) and tval <= val + ARMIJO_SLOPE * alpha * slope:
                break
            alpha *= BACKTRACK
        else:
            flags.append("linesearch-stalled")
            break
        x, val = trial, tval
        grad = gradient(x)
    return x, val, grad, iters, flags
