"""Property-based invariants over random plans, potentials and entropies."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uotlab.core import (
    DualPotential,
    apply_A,
    apply_A_adjoint,
    discrete_entropy,
)
from uotlab.divergence import get_entropy

from conftest import marginal_matrix

finite = st.floats(-50.0, 50.0, allow_nan=False)
positive = st.floats(0.0, 50.0, allow_nan=False)
shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


@st.composite
def plan_and_potential(draw):
    n_x, n_y = draw(shapes)
    gamma = draw(arrays(float, (n_x, n_y), elements=positive))
    phi = draw(arrays(float, n_x, elements=finite))
    psi = draw(arrays(float, n_y, elements=finite))
    return gamma, DualPotential(phi, psi)


@given(plan_and_potential())
@settings(max_examples=200)
def test_adjointness(data):
    gamma, xi = data
    lhs = float(np.sum(apply_A_adjoint(xi.stacked, gamma.shape[0]) * gamma))
    rhs = float(xi.stacked @ apply_A(gamma))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@given(plan_and_potential())
def test_marginals_match_dense_operator(data):
    gamma, _ = data
    A = marginal_matrix(*gamma.shape)
    assert np.allclose(apply_A(gamma), A @ gamma.ravel(), atol=1e-9)


@given(shapes)
def test_ones_minus_ones_spans_adjoint_kernel(shape):
    n_x, n_y = shape
    xi = DualPotential(np.ones(n_x), -np.ones(n_y))
    assert np.all(apply_A_adjoint(xi.stacked, n_x) == 0)
    s = np.linalg.svd(marginal_matrix(n_x, n_y).T, compute_uv=False)
    rank = int(np.sum(s > 1e-10))
    assert (n_x + n_y) - rank == 1


@given(
    arrays(float, (2, 2), elements=st.floats(0.01, 20.0)),
    arrays(float, (2, 2), elements=st.floats(0.01, 20.0)),
)
def test_entropy_midpoint_convexity(a, b):
    mid = discrete_entropy(0.5 * (a + b))
    avg = 0.5 * (discrete_entropy(a) + discrete_entropy(b))
    assert mid <= avg + 1e-10
    if np.max(np.abs(a - b)) > 1e-3:
        assert mid < avg


@given(
    st.sampled_from(["kl", "quadratic", "kl-normalized"]),
    st.floats(0.01, 30.0),
    st.floats(-3.0, 3.0),
)
def test_fenchel_young_inequality(kind, x, y):
    ent = get_entropy(kind)
    lhs = float(ent.phi(np.array(x))) + float(ent.phi_conj(np.array(y)))
    assert lhs >= x * y - 1e-9


@given(st.sampled_from(["kl", "quadratic", "kl-normalized"]), st.floats(-5.0, 5.0))
def test_fenchel_young_equality_at_subgradient(kind, y):
    # equality holds at x = phi*'(y)
    ent = get_entropy(kind)
    x = float(ent.phi_conj_d1(np.array(y)))
    lhs = float(ent.phi(np.array(x))) + float(ent.phi_conj(np.array(y)))
    assert abs(lhs - x * y) <= 1e-9 * max(1.0, abs(x * y))


@given(plan_and_potential())
def test_mass_conservation(data):
    gamma, _ = data
    m = apply_A(gamma)
    total = gamma.sum()
    n_x = gamma.shape[0]
    assert np.isclose(m[:n_x].sum(), total, atol=1e-9)
    assert np.isclose(m[n_x:].sum(), total, atol=1e-9)
