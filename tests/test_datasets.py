"""Benchmark dataset generators: masses, determinism, geometry."""

import numpy as np
import pytest

from uotlab.core import InvalidInput
from uotlab.datasets import N_OUTLIERS, OUTLIER_SHIFT, DatasetSpec, gen_dataset


def test_point_cloud_masses_exact():
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=0))
    assert p.mu.sum() == pytest.approx(13.0, abs=1e-12)
    assert p.nu.sum() == pytest.approx(15.0, abs=1e-12)
    assert p.n_x == 13 and p.n_y == 15


def test_gaussian_masses_exact():
    p = gen_dataset(DatasetSpec(kind="gaussians-1d", seed=0))
    assert p.mu.sum() == pytest.approx(11.0, abs=1e-12)
    assert p.nu.sum() == pytest.approx(10.0, abs=1e-12)


def test_determinism():
    for kind, seed in (("point-clouds", 5), ("gaussians-1d", 0)):
        a = gen_dataset(DatasetSpec(kind=kind, seed=seed))
        b = gen_dataset(DatasetSpec(kind=kind, seed=seed))
        assert np.array_equal(a.points_x, b.points_x)
        assert np.array_equal(a.points_y, b.points_y)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.cost, b.cost)


def test_different_seeds_differ():
    a = gen_dataset(DatasetSpec(kind="point-clouds", seed=0))
    b = gen_dataset(DatasetSpec(kind="point-clouds", seed=1))
    assert not np.array_equal(a.points_x, b.points_x)


def test_outliers_are_displaced():
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=2))
    bulk = p.points_y[:-N_OUTLIERS]
    outl = p.points_y[-N_OUTLIERS:]
    assert np.all(bulk <= 1.0)
    assert np.all(outl >= OUTLIER_SHIFT)


def test_gaussian_grid_regular():
    p = gen_dataset(DatasetSpec(kind="gaussians-1d"))
    grid = p.points_x[:, 0]
    assert np.allclose(np.diff(grid), grid[1] - grid[0])
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.array_equal(p.points_x, p.points_y)


def test_invalid_specs():
    with pytest.raises(InvalidInput):
        gen_dataset(DatasetSpec(kind="moons"))
    with pytest.raises(InvalidInput):
        gen_dataset(DatasetSpec(kind="point-clouds", mass_x=-1.0))


@pytest.mark.parametrize("field,value", [
    ("seed", 4), ("n_x", 60), ("n_y", 62), ("mass_x", 1.0), ("mass_y", 2.0),
])
def test_gaussians_reject_point_cloud_fields(field, value):
    with pytest.raises(InvalidInput, match=f"takes no {field} "):
        gen_dataset(DatasetSpec(kind="gaussians-1d", **{field: value}))
