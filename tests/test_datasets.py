"""Benchmark dataset generators: masses, determinism, geometry."""

import numpy as np
import pytest

from uotlab.core import InvalidInput, Problem
from uotlab.datasets import N_OUTLIERS, OUTLIER_SHIFT, DatasetSpec, gen_dataset


def test_point_cloud_masses_exact():
    p = gen_dataset(DatasetSpec(kind="point-clouds", seed=0))
    assert p.mu.sum() == pytest.approx(13.0, abs=1e-12)
    assert p.nu.sum() == pytest.approx(15.0, abs=1e-12)
    assert p.n_x == 13 and p.n_y == 15


@pytest.mark.parametrize("make", [
    lambda: gen_dataset(DatasetSpec(n_x=0)),
    lambda: gen_dataset(DatasetSpec(n_y=0)),
    lambda: gen_dataset(DatasetSpec(n_x=-3)),
    lambda: Problem(np.zeros((0, 2)), [[0.0, 0.0]], [], [1.0], np.zeros((0, 1))),
    lambda: Problem([[0.0, 0.0]], np.zeros((0, 2)), [1.0], [], np.zeros((1, 0))),
], ids=["n_x=0", "n_y=0", "n_x=-3", "empty source", "empty target"])
def test_empty_or_negative_clouds_rejected(make):
    # these died with ZeroDivisionError, numpy's negative dimensions, or
    # inside LAPACK once a solver ran on the empty cloud
    with pytest.raises(InvalidInput):
        make()


def test_unknown_divergence_rejected_when_generated():
    with pytest.raises(InvalidInput, match="unknown divergence kind"):
        gen_dataset(DatasetSpec(divergence="bogus"))


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
