#!/usr/bin/env python3
"""Trajectory ODE residual study on a fine geometric grid (ratio 1.05).

For each dataset x divergence combination, solves the dual along a dense
grid, estimates the time derivative of the potentials by high-order
differencing in log t, and reports the residual of the trajectory ODE
relative to the size of its inhomogeneous forcing term.
"""

import sys

import numpy as np

from uotlab.asymptotics import ode_inhomogeneous_norm
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.sweep import SweepConfig, run_sweep

# the grid starts at T_MIN and steps t by RATIO until it reaches T_MAX
T_MIN = 8.0
T_MAX = 1e3
RATIO = 1.05


def main():
    n = int(np.ceil(np.log(T_MAX / T_MIN) / np.log(RATIO))) + 1
    cfg = SweepConfig(t_min=T_MIN, t_max=T_MIN * RATIO ** (n - 1), n_points=n)
    for kind, seed in (("point-clouds", 4), ("gaussians-1d", 0)):
        for div in ("kl", "quadratic"):
            problem = gen_dataset(
                DatasetSpec(kind=kind, seed=seed, divergence=div)
            )
            result = run_sweep(problem, cfg)
            ratios = []
            for k, pt in enumerate(result.points):
                if k == 0 or k == len(result.points) - 1 or pt.t < 10:
                    continue
                forcing = ode_inhomogeneous_norm(pt.xi, pt.t, problem)
                ratios.append(pt.ode_residual / forcing)
            print(
                f"{kind}/{div}: {len(ratios)} interior points, "
                f"residual/forcing max {max(ratios):.3e} "
                f"median {np.median(ratios):.3e}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
