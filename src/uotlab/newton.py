"""Damped Newton minimization shared by every smooth solve in the lab.

One loop serves the regularized dual and the limit-plan functional of the
exact reference: Newton steps with a ridge retry, Armijo backtracking, and
an exit at the objective's rounding floor.  Both have transport-shaped
Hessians, pairs (G, D) of the plan-shaped weight G and the full diagonal D,
which `core.bipartite_solve` takes whole for a Schur step.  The value runs
at the start and at the trial points of the line search, the gradient and
the Hessian at accepted points only, so a caller can evaluate a trial
relative to the point it comes from: the regularized dual rescales the plan
of a base point instead of recomputing it, and recomputes it directly once
the plan exponents would move by more than RISE_MAX from that base.

The loop runs over a leading row axis: a block of independent problems,
such as consecutive points of a sweep, each row with its own state (step
length, ridge, exit, iteration count and flags).  Every loop takes one
Newton iteration of each row still running, with one stacked call of each
function and one stacked Schur solve, so the per-call overhead, which
dominates at small sizes, is paid once per loop instead of once per row.
The line search evaluates every running row on each backtrack, each at its
own step length; a row keeps the length it was accepted at (a row at its
rounding floor the full step), so the last trial holds every accepted row
at its accepted point, and the gradient is taken there once per iteration.
A solve's shape is fixed when it starts: a block of one row runs as its 1-D
point, a block of more rows as a stack to its end.

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

from .core import NotPositiveDefinite, bipartite_solve

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
    point is accepted.  Further arguments (the rows of a block) go with the
    array and are not compared.
    """
    last_x = last_out = None

    def cached(x, *rows):
        nonlocal last_x, last_out
        if x is not last_x:
            last_x, last_out = x, fn(x, *rows)
        return last_out

    return cached


def _floats(a, single):
    """A row's number, or a block's numbers, as a list of Python floats."""
    return [float(a)] if single else a.tolist()


def _take(keep, *items):
    """Each array or list of per-row items at the list of positions keep."""
    return [a[keep] if isinstance(a, np.ndarray) else [a[i] for i in keep] for a in items]


def newton_minimize(value, gradient, hessian, x0, grad_tol, max_iters, rise=None):
    """Minimize a smooth strictly convex function from each row of the 2-D x0.

    Each function is called as f(x, rows) on the rows still running, x
    stacking them and `rows` holding their indices into the block, and gives
    one value, gradient, Hessian pair or rise per row of x.  A block of one
    row gets its 1-D point and the index 0 on every call, so that it costs
    what a single problem costs; a block of more rows gets a stack on every
    call, also once one row runs.  x0 is read, not modified.

    Returns (x, value, gradient, iterations, flags), each with a leading row
    axis, the flags one list per row.  A row stops on its own: when
    max|gradient| <= grad_tol, after max_iters steps, at numerical
    stationarity, or when backtracking stalls (flag "linesearch-stalled": 60
    halvings, or a predicted decrease alpha |slope| at the value's rounding
    floor, where a trial that rounds back to the current point would pass
    Armijo).  Its result is bitwise that of its own block of one row when its
    functions are: every reduction here is per row.  `value` may return +inf
    off the function's domain; the line search rejects such trial points like
    any other failed Armijo test.

    `hessian` returns a pair (G, D) standing for the transport-shaped
    `core.bipartite_hessian(G, D)`, D its full diagonal, and each step is one
    `core.bipartite_solve` on it.  A Hessian that is not positive definite is
    retried with a growing ridge (flag "ridge"), up to 1e8 times its mean
    diagonal mean(D) (or 1e8, when that is below 1); past that
    NotPositiveDefinite is raised with the row's index.

    `rise`, when given, maps a Newton step to the largest increase the full
    step causes in any exponent of the objective; the Armijo search then
    starts from alpha = min(1, RISE_MAX / rise(step)) instead of 1, so no
    step raises an exponent by more than RISE_MAX.
    """
    top = np.maximum.reduce
    n_rows = len(x0)
    single = n_rows == 1
    # each row's result, filled as it stops: its point and gradient as rows
    # of the running arrays, its value and its iteration count
    x, grad = [None] * n_rows, [None] * n_rows
    val, iters = [0.0] * n_rows, [0] * n_rows
    flags = [[] for _ in range(n_rows)]
    # the running rows and, at each one's current point, its value and
    # gradient.  The functions cache by array identity, so a point's value,
    # gradient and Hessian are computed at one array, and the arrays are
    # replaced, never written.  Per-row numbers are Python floats: on a few
    # rows they cost less than numpy calls
    rows, xa = (0, x0[0]) if single else (np.arange(n_rows), x0)
    va = _floats(value(xa, rows), single)
    ga = gradient(xa, rows)

    def finish(stop, count):
        """Write out the running rows at the positions `stop`; keep the others.

        Returns the list of kept positions, or None when no row runs on.
        """
        nonlocal rows, xa, va, ga
        for i in stop:
            r, x_r, g_r = (rows, xa, ga) if single else (rows[i], xa[i], ga[i])
            x[r], grad[r], val[r], iters[r] = x_r, g_r, va[i], count
        keep = [i for i in range(len(va)) if i not in stop]
        if not keep:
            return None
        rows, xa, va, ga = _take(keep, rows, xa, va, ga)
        return keep

    for it in range(1, max_iters + 1):
        gnorm = _floats(top(np.abs(ga), axis=-1, initial=0.0), single)
        converged = [i for i, g in enumerate(gnorm) if g <= grad_tol]
        if len(converged) == len(va):
            finish(converged, it - 1)
            break
        # the Hessians at the arrays just evaluated, then those of the rows
        # that go on
        Ga, da = hessian(xa, rows)
        if converged:
            Ga, da, gnorm = _take(finish(converged, it - 1), Ga, da, gnorm)
        ridge = None  # each row's ridge, once one needs it
        while True:
            try:
                step = -bipartite_solve(
                    Ga, da, ga,
                    0.0 if ridge is None else ridge[0] if single else np.array(ridge),
                )
                break
            except NotPositiveDefinite as exc:
                # the ridge runs from 1e-12 to 1e8 times the Hessian's scale;
                # a NaN Hessian gives a NaN ridge, which also ends the retry
                i = exc.row or 0
                if ridge is None:
                    ridge, scale = [0.0] * len(va), [1.0] * len(va)
                if ridge[i]:
                    ridge[i] *= 10
                else:
                    D_i = da if single else da[i]
                    scale[i] = max(float(D_i.sum()) / D_i.size, 1.0)
                    ridge[i] = 1e-12 * scale[i]
                row = rows if single else rows[i]
                if "ridge" not in flags[row]:
                    flags[row].append("ridge")
                if not ridge[i] <= 1e8 * scale[i]:
                    raise NotPositiveDefinite(exc.minor, int(row)) from exc
        if single:
            slope = [float(ga @ step)]
        else:
            slope = (ga[:, None, :] @ step[:, :, None])[:, 0, 0].tolist()
        rises = None if rise is None else _floats(rise(step, rows), single)
        # a row whose predicted decrease is below its value's rounding floor
        # can't have its progress certified by Armijo; it takes the full
        # Newton step while that still reduces the gradient, and stops at
        # numerical stationarity otherwise.  floor[i] holds such a row's
        # gradient norm, None for the others
        floor, alpha, pending = [None] * len(va), [1.0] * len(va), []
        for i, s in enumerate(slope):
            if -s <= ROUNDING_FLOOR * (1.0 + abs(va[i])):
                floor[i] = gnorm[i]
            else:
                pending.append(i)
                if rises is not None and rises[i] > RISE_MAX:  # a NaN rise leaves 1
                    alpha[i] = RISE_MAX / rises[i]
        # each backtrack evaluates every running row at its own step length,
        # which stays where the row passed Armijo, so the last trial holds
        # every accepted row at its accepted point and value.  A row stalls
        # once its predicted decrease falls to its value's rounding floor:
        # below it a trial that rounds back to the current point passes
        # Armijo without progress
        stalled = []
        for _ in range(60):
            scaled = step
            if min(alpha) < 1.0:
                scaled = (alpha[0] if single else np.array(alpha)[:, None]) * step
            trial = xa + scaled
            tval = _floats(value(trial, rows), single)
            pending = [i for i in pending if not (math.isfinite(tval[i])
                       and tval[i] <= va[i] + ARMIJO_SLOPE * alpha[i] * slope[i])]
            if not pending:
                break
            for i in pending:
                alpha[i] *= BACKTRACK
                if -alpha[i] * slope[i] <= ROUNDING_FLOOR * (1.0 + abs(va[i])):
                    stalled.append(i)
            if stalled:
                pending = [i for i in pending if i not in stalled]
                if not pending:
                    break
        else:
            stalled += pending
        if stalled:
            # the stalled rows stop where they are before the gradient is
            # taken at the accepted rows
            for i in stalled:
                flags[rows if single else rows[i]].append("linesearch-stalled")
            keep = finish(stalled, it)
            if keep is None:
                break
            trial, tval, floor = _take(keep, trial, tval, floor)
        tgrad = gradient(trial, rows)
        if floor.count(None) < len(floor):
            # a floor row keeps its full step only if that lowers its gradient
            tnorm = _floats(top(np.abs(tgrad), axis=-1), single)
            stop = [i for i, g in enumerate(floor) if g is not None and not tnorm[i] < g]
            if stop:
                keep = finish(stop, it)
                if keep is None:
                    break
                trial, tval, tgrad = _take(keep, trial, tval, tgrad)
        xa, va, ga = trial, tval, tgrad
    else:
        finish(list(range(len(va))), max_iters)
    return np.array(x), np.array(val), np.array(grad), np.array(iters), flags
