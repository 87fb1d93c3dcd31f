#!/usr/bin/env python3
"""Exact references on the scale ladder: point clouds at n_x = 120 and 240.

Solves 48 instances (seeds 0-11, n_y = n_x + 2, default masses, kl and
quadratic) with solve_exact and prints, per instance, the crossover's pivots,
the seed's flags, the relative duality gap, the complementarity and the
relative component imbalance max |N^T m*| / max |m*| (N: the null basis of
I0's spanning forest, one column per component), then a summary line with
the failures, the instances whose seed did not converge (flag
seed-nonconverged: its Newton steps were spent without reaching the
tolerance, and the crossover certified the reference anyway) and those whose
seed needed the Newton ridge (flag seed-ridge).  Exits nonzero when any solve
raises, when a relative gap exceeds GAP_RTOL, when complementarity exceeds
COMPLEMENTARITY_TOL or when the imbalance exceeds IMBALANCE_RTOL.  About 8 s
with one BLAS thread.

    PYTHONPATH=src python scripts/scale_ladder.py
"""

import os
import sys
import time

# one BLAS thread, set before numpy loads BLAS: on a small machine several
# threads make the n_x = 240 factorizations several times slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from uotlab.core import spanning_forest  # noqa: E402
from uotlab.datasets import DatasetSpec, gen_dataset  # noqa: E402
from uotlab.divergence import F_conj  # noqa: E402
from uotlab.exact_solver import solve_exact  # noqa: E402
from uotlab.reg_solver import primal_objective  # noqa: E402

SIZES = (120, 240)
SEEDS = range(12)
DIVERGENCES = ("kl", "quadratic")
# duality gap relative to max(1, |primal value|), max |gamma* kappa|, and
# the component imbalance relative to the marginals: a large-t solve around
# xi* amplifies an imbalance by t
GAP_RTOL = 1e-8
COMPLEMENTARITY_TOL = 1e-10
IMBALANCE_RTOL = 5e-14


def check(n_x, seed, div):
    """One ladder instance: (pivots, flags, relative gap, complementarity, imbalance)."""
    p = gen_dataset(DatasetSpec(
        kind="point-clouds", seed=seed, divergence=div, n_x=n_x, n_y=n_x + 2,
    ))
    ex = solve_exact(p)
    primal = primal_objective(ex.gamma_star, p)
    gap = abs(primal + F_conj(-ex.xi_star.stacked, p.penalty)) / max(1.0, abs(primal))
    comp = float(np.max(np.abs(ex.gamma_star * ex.kappa)))
    N = spanning_forest(ex.I0, p.n_x, p.n_y)[1]
    imbalance = np.max(np.abs(N.T @ ex.m_star)) / np.max(np.abs(ex.m_star))
    return ex.pivots, ex.flags, gap, comp, imbalance


def main():
    failures = nonconverged = ridged = 0
    start = time.perf_counter()
    print("n_x  seed divergence pivots rel_gap   complement imbalance flags")
    for n_x in SIZES:
        for seed in SEEDS:
            for div in DIVERGENCES:
                label = f"{n_x:<4d} {seed:<4d} {div:<10s}"
                try:
                    pivots, flags, gap, comp, imbalance = check(n_x, seed, div)
                except Exception as exc:  # every failure is reported, not only the first
                    failures += 1
                    print(f"{label} FAIL {type(exc).__name__}: {exc}")
                    continue
                bad = (gap > GAP_RTOL or comp > COMPLEMENTARITY_TOL
                       or imbalance > IMBALANCE_RTOL)
                failures += bad
                nonconverged += "seed-nonconverged" in flags
                ridged += "seed-ridge" in flags
                print(f"{label} {pivots:<6d} {gap:.2e}  {comp:.2e}   {imbalance:.2e}  "
                      f"{'|'.join(flags) or '-'}{'  FAIL' if bad else ''}")
    total = len(SIZES) * len(SEEDS) * len(DIVERGENCES)
    print(f"{failures}/{total} failed, {nonconverged}/{total} seeds not converged, "
          f"{ridged}/{total} seeds ridged, in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
