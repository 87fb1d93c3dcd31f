"""Seeded generators for the two benchmark dataset families.

Point clouds: uniform weights in the unit square, the last N_OUTLIERS target
points displaced by OUTLIER_SHIFT, total masses 13 and 15 by default.
Gaussians: two discretized Gaussian densities (means GAUSS_MEAN_X and
GAUSS_MEAN_Y, width GAUSS_STD) on a regular grid of GAUSS_GRID_SIZE points in
[0, 1], masses GAUSS_MASS_X and GAUSS_MASS_Y, with no random draw; a spec
that sets its seed, sizes or masses is refused.  Both use the
squared-Euclidean cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DivergenceSpec, InvalidInput, Problem, build_cost

DATASET_KINDS = ("point-clouds", "gaussians-1d")
N_OUTLIERS = 2
# kept moderate so dual gradients at the outlier columns (order e^{-cost})
# stay well above solver tolerances
OUTLIER_SHIFT = 2.0
GAUSS_GRID_SIZE = 12
GAUSS_MEAN_X = 0.3
GAUSS_MEAN_Y = 0.7
GAUSS_STD = 0.2
GAUSS_MASS_X = 11.0
GAUSS_MASS_Y = 10.0


@dataclass
class DatasetSpec:
    kind: str = "point-clouds"
    seed: int = 0
    divergence: str = "kl"
    # point clouds only, like seed; gen_dataset refuses them for gaussians-1d
    n_x: int = 13
    n_y: int = 15
    mass_x: float = 13.0
    mass_y: float = 15.0


def gen_dataset(spec):
    """Deterministic Problem instance for a DatasetSpec."""
    if spec.kind == "point-clouds":
        return _point_clouds(spec)
    if spec.kind == "gaussians-1d":
        return _gaussians_1d(spec)
    raise InvalidInput(f"unknown dataset kind: {spec.kind!r}")


def _point_clouds(spec):
    if spec.n_x < 1 or spec.n_y < 1:
        raise InvalidInput("point clouds need n_x, n_y >= 1")
    if spec.mass_x <= 0 or spec.mass_y <= 0:
        raise InvalidInput("total masses must be positive")
    rng = np.random.default_rng(spec.seed)
    px = rng.random((spec.n_x, 2))
    py = rng.random((spec.n_y, 2))
    py[-N_OUTLIERS:] += OUTLIER_SHIFT
    mu = np.full(spec.n_x, spec.mass_x / spec.n_x)
    nu = np.full(spec.n_y, spec.mass_y / spec.n_y)
    return Problem(
        px, py, mu, nu, build_cost(px, py),
        divergence=DivergenceSpec(kind=spec.divergence),
    )


def _gaussians_1d(spec):
    default = DatasetSpec()
    for name in ("seed", "n_x", "n_y", "mass_x", "mass_y"):
        if getattr(spec, name) != getattr(default, name):
            raise InvalidInput(
                f"gaussians-1d takes no {name} (got {getattr(spec, name)!r}): "
                "its grid, masses and densities are fixed"
            )
    grid = np.linspace(0.0, 1.0, GAUSS_GRID_SIZE)[:, None]
    dens_x = np.exp(-0.5 * ((grid[:, 0] - GAUSS_MEAN_X) / GAUSS_STD) ** 2)
    dens_y = np.exp(-0.5 * ((grid[:, 0] - GAUSS_MEAN_Y) / GAUSS_STD) ** 2)
    mu = dens_x * (GAUSS_MASS_X / dens_x.sum())
    nu = dens_y * (GAUSS_MASS_Y / dens_y.sum())
    return Problem(
        grid, grid, mu, nu, build_cost(grid, grid),
        divergence=DivergenceSpec(kind=spec.divergence),
    )
