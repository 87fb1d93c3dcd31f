"""Entropy functions, conjugates and the separable penalty machinery."""

import math

import numpy as np
import pytest

from uotlab.core import InvalidInput
from uotlab.divergence import (
    DivergenceF,
    F_conj,
    F_conj_derivatives,
    F_conj_grad,
    F_conj_hess_diag,
    csiszar,
    get_entropy,
)

KL = get_entropy("kl")
QUAD = get_entropy("quadratic")
KLN = get_entropy("kl-normalized")


def test_csiszar_reference_values():
    assert csiszar([2.0, 3.0], [2.0, 3.0], QUAD) == pytest.approx(0.0)
    # this KL variant has phi(1) = -1, so D(q|q) = -sum(q)
    assert csiszar([1.0, 1.0], [1.0, 1.0], KL) == pytest.approx(-2.0)
    assert csiszar([2.0], [1.0], KL) == pytest.approx(2 * (math.log(2) - 1))
    assert csiszar([1.0], [1.0], KLN) == pytest.approx(0.0)


def test_csiszar_recession_part():
    # mass where q vanishes is priced at the recession constant (+inf here)
    assert csiszar([1.0, 0.5], [1.0, 0.0], KL) == math.inf
    assert csiszar([1.0, 0.0], [1.0, 0.0], KL) == pytest.approx(-1.0)


def test_csiszar_input_validation():
    with pytest.raises(InvalidInput):
        csiszar([1.0], [1.0, 2.0], KL)
    with pytest.raises(InvalidInput):
        csiszar([-1.0], [1.0], KL)


@pytest.mark.parametrize("ent", [KL, QUAD, KLN])
def test_conjugate_matches_brute_force_sup(ent):
    # phi*(y) = sup_x (x y - phi(x)) over a fine grid; negative x priced at
    # +inf by the half-line entropies, so one grid serves every kind
    xs = np.linspace(-10.0, 60.0, 700_000)
    phis = np.asarray(ent.phi(xs))
    for y in np.linspace(-3.0, 3.0, 25):
        brute = np.max(xs * y - phis)
        closed = float(ent.phi_conj(np.array(y)))
        assert abs(closed - brute) <= 1e-4 * max(1.0, abs(closed))


@pytest.mark.parametrize("ent", [KL, QUAD, KLN])
def test_fenchel_young(ent):
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.05, 5.0, 50)
    ys = rng.uniform(-3.0, 3.0, 50)
    for x, y in zip(xs, ys):
        assert ent.phi(np.array(x)) + ent.phi_conj(np.array(y)) >= x * y - 1e-10


@pytest.mark.parametrize("ent", [KL, QUAD, KLN])
def test_second_derivative_positive(ent):
    ys = np.linspace(-5.0, 5.0, 101)
    assert np.all(np.asarray(ent.phi_conj_d2(ys)) > 0)


def test_recession_constants():
    # superlinear: the ratio phi(x)/x keeps growing with x
    for ent in (KL, QUAD):
        r_small = float(ent.phi(np.array(1e2))) / 1e2
        r_big = float(ent.phi(np.array(1e8))) / 1e8
        assert r_big > 3 * max(r_small, 1.0)


def test_F_conj_reference_values():
    div = DivergenceF(KL, np.array([1.0, 1.0]))
    assert F_conj(np.zeros(2), div) == pytest.approx(2.0)
    div_q = DivergenceF(QUAD, np.array([1.0]))
    assert F_conj(np.array([1.0]), div_q) == pytest.approx(1.5)
    div2 = DivergenceF(KL, np.array([2.0]))
    assert F_conj(np.array([math.log(3.0)]), div2) == pytest.approx(6.0)


def test_F_conj_grad_hess_reference_values():
    div = DivergenceF(KL, np.array([1.0, 1.0]))
    assert np.allclose(F_conj_grad(np.zeros(2), div), [1.0, 1.0])
    assert np.allclose(F_conj_hess_diag(np.zeros(2), div), [1.0, 1.0])
    div_q = DivergenceF(QUAD, np.array([1.0]))
    y = np.array([0.7])
    assert F_conj_grad(y, div_q)[0] == pytest.approx(1.7)
    assert F_conj_hess_diag(y, div_q)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["kl", "quadratic"])
def test_F_conj_derivatives_match_finite_differences(kind):
    rng = np.random.default_rng(11)
    ent = get_entropy(kind)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        q = rng.uniform(0.2, 3.0, n)
        div = DivergenceF(ent, q)
        arg = rng.uniform(-2.0, 2.0, n)
        g = F_conj_grad(arg, div)
        hd = F_conj_hess_diag(arg, div)
        # wider step for the second difference: its eps/h^2 rounding noise
        # dominates below h ~ 1e-4
        h, h2 = 1e-6, 1e-4
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            fd_g = (F_conj(arg + h * e, div) - F_conj(arg - h * e, div)) / (2 * h)
            fd_h = (
                F_conj(arg + h2 * e, div)
                - 2 * F_conj(arg, div)
                + F_conj(arg - h2 * e, div)
            ) / (h2 * h2)
            assert abs(g[k] - fd_g) <= 1e-6 * max(1.0, abs(g[k]))
            assert abs(hd[k] - fd_h) <= 1e-6 * max(1.0, abs(hd[k]))


@pytest.mark.parametrize("ent", [KL, QUAD, KLN])
def test_scaling_root_agrees_with_bisection(ent):
    # h(x) = t x + lse - log(q phi*'(-x)) increases in x, with slope at
    # least t; the quadratic's root lies below 1, where phi*'(-x) = 1 - x > 0
    rng = np.random.default_rng(61)
    eps = np.finfo(float).eps
    for t in (1.0, 1e2, 1e4, 1e6):
        lse = t * rng.uniform(-3.0, 3.0, 40) + rng.uniform(-5.0, 5.0, 40)
        q = rng.uniform(0.3, 2.0, 40)
        x = ent.scaling_root(t, lse, q)
        lo = np.full(40, -20.0)
        hi = np.full(40, 1.0 if ent is QUAD else 20.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            # a quadratic root within rounding of 1 puts mid at 1: log 0 = -inf
            with np.errstate(divide="ignore"):
                up = t * mid + lse - np.log(q * ent.phi_conj_d1(-mid)) > 0
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        # a rounding of h, eps (t |x| + |lse|), moves the root by that / t
        tol = 8 * eps * (1.0 + np.abs(x) + np.abs(lse) / t)
        assert np.all(np.abs(x - 0.5 * (lo + hi)) <= tol), t


@pytest.mark.parametrize("ent", [KL, KLN, QUAD], ids=lambda e: e.name)
def test_balance_equalizes_each_component(ent):
    # stacked nodes x0..x3, y0..y2 in the components {x0, x1, y0} and
    # {x2, x3, y1, y2}; the quadratic instead leaves x3 alone, a component
    # with nodes on one side only, whose sum must become 0 (a kl component
    # always has both sides; a one-sided one would need an infinite shift)
    n_x = 4
    comps = [[0, 1, 4], [2, 5, 6], [3]] if ent is QUAD else [[0, 1, 4], [2, 3, 5, 6]]
    S = np.zeros((7, len(comps)))
    for k, nodes in enumerate(comps):
        S[nodes, k] = np.where(np.array(nodes) < n_x, 1.0, -1.0)
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for scale in (1e-12, 1.0, 1e12):
        div = DivergenceF(ent, scale * rng.uniform(0.3, 2.0, 7))
        x = rng.uniform(-2.0, 2.0, 7)
        g, h = F_conj_derivatives(-x, div)
        x = x + S @ ent.balance(g[:n_x] @ S[:n_x], -(g[n_x:] @ S[n_x:]), h @ np.abs(S))
        g, h = F_conj_derivatives(-x, div)
        # rounding: of each term of a sum, and of its argument -x times h
        tol = 8 * eps * ((np.abs(g) + h * np.abs(x)) @ np.abs(S))
        assert np.all(np.abs(g[:n_x] @ S[:n_x] + g[n_x:] @ S[n_x:]) <= tol), scale


def test_positive_reference_required_for_superlinear():
    with pytest.raises(InvalidInput):
        DivergenceF(KL, np.array([1.0, 0.0]))


def test_unknown_kind_rejected():
    with pytest.raises(InvalidInput):
        get_entropy("total-variation")

