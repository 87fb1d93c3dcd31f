"""Damped Newton minimization shared by every smooth solve in the lab.

One loop serves the regularized dual, the barrier centering steps and the
reduced limit-plan functional: Cholesky steps with a ridge retry, Armijo
backtracking, and an exit at the objective's rounding floor.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def newton_minimize(
    value, gradient, hessian, x0, grad_tol, max_iters,
    armijo_slope=1e-4, backtrack=0.5, ridge=0.0,
):
    """Minimize a smooth strictly convex function from x0.

    Returns (x, value, gradient, iterations, flags).  `value` may return
    +inf off the function's domain; the line search rejects such trial
    points like any other failed Armijo test.  Stops when max|gradient| <=
    grad_tol, after max_iters steps, at numerical stationarity, or when
    backtracking stalls (flag "linesearch-stalled").  A Hessian that fails
    to factor is retried with a growing ridge (flag "ridge").
    """
    x = x0
    flags = []
    val = value(x)
    grad = gradient(x)
    iters = 0
    for iters in range(1, max_iters + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm <= grad_tol:
            iters -= 1
            break
        H = hessian(x)
        lam = ridge
        while True:
            try:
                Hr = H if lam == 0 else H + lam * np.eye(H.shape[0])
                cf = scipy.linalg.cho_factor(Hr, check_finite=False)
                step = -scipy.linalg.cho_solve(cf, grad, check_finite=False)
                break
            except np.linalg.LinAlgError:
                base = 1e-12 * max(np.trace(H) / H.shape[0], 1.0)
                lam = max(10 * lam, base)
                if "ridge" not in flags:
                    flags.append("ridge")
                if lam > 1e8:
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
            if np.isfinite(tval) and tval <= val + armijo_slope * alpha * slope:
                break
            alpha *= backtrack
        else:
            flags.append("linesearch-stalled")
            break
        x, val = trial, tval
        grad = gradient(x)
    return x, val, grad, iters, flags
