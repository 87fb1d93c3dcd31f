"""Entropy functions, their conjugates, and the separable marginal penalty.

The marginal penalty is a phi-divergence D_phi(p | q) with a strictly
positive reference q living on the disjoint union of the two point sets.
Everything the solvers need is the conjugate side: values, first and second
derivatives of the separable conjugate sum q_z phi*(arg_z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InvalidInput

# exp() saturation threshold; beyond this we clamp and flag instead of
# silently emitting inf
EXP_CLAMP = 700.0


class DomainError(ValueError):
    """Argument outside the interior of the conjugate's domain."""


class EntropyFunction:
    """Behavior contract for a scalar convex entropy and its conjugate.

    Subclasses provide phi, phi_conj and its two derivatives, plus the
    recession constant lim phi(x)/x at infinity.
    """

    name = "abstract"

    def phi(self, x):
        raise NotImplementedError

    def phi_conj(self, y):
        raise NotImplementedError

    def phi_conj_d1(self, y):
        raise NotImplementedError

    def phi_conj_d2(self, y):
        raise NotImplementedError

    def recession(self):
        raise NotImplementedError

    def conj_domain_interior(self):
        """Open interval (lo, hi) on which phi* is finite and C^2."""
        return (-math.inf, math.inf)


class KLEntropy(EntropyFunction):
    """x (log x - 1) on the nonnegative half-line; conjugate exp(y).

    Note phi(1) = -1, so the induced divergence of q against itself is
    -sum(q) rather than 0.  This is the form whose conjugate exp(y) appears
    in every dual formula; see NormalizedKLEntropy for the shifted variant.
    """

    name = "kl"

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, np.inf)
        out[x == 0] = 0.0
        pos = x > 0
        out[pos] = x[pos] * (np.log(x[pos]) - 1.0)
        return out if out.ndim else float(out)

    def phi_conj(self, y):
        return np.exp(y)

    def phi_conj_d1(self, y):
        return np.exp(y)

    def phi_conj_d2(self, y):
        return np.exp(y)

    def recession(self):
        return math.inf


class NormalizedKLEntropy(KLEntropy):
    """x log x - x + 1: same divergence up to an offset, with phi(1) = 0."""

    name = "kl-normalized"

    def phi(self, x):
        base = super().phi(np.asarray(x, dtype=float))
        return base + 1.0

    def phi_conj(self, y):
        return np.exp(y) - 1.0


class QuadraticEntropy(EntropyFunction):
    """(1/2)|x - 1|^2 on the whole line; conjugate (1/2) y^2 + y."""

    name = "quadratic"

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * (x - 1.0) ** 2
        return out if out.ndim else float(out)

    def phi_conj(self, y):
        y = np.asarray(y, dtype=float)
        out = 0.5 * y * y + y
        return out if out.ndim else float(out)

    def phi_conj_d1(self, y):
        y = np.asarray(y, dtype=float)
        return y + 1.0

    def phi_conj_d2(self, y):
        return np.ones_like(np.asarray(y, dtype=float))

    def recession(self):
        return math.inf


@dataclass
class CustomEntropy(EntropyFunction):
    """User-supplied entropy; must pass the finite-difference suite before use."""

    phi_fn: Callable
    conj_fn: Callable
    conj_d1_fn: Callable
    conj_d2_fn: Callable
    recession_const: float = math.inf
    domain_interior: tuple = (-math.inf, math.inf)
    name: str = "custom"

    def phi(self, x):
        return self.phi_fn(np.asarray(x, dtype=float))

    def phi_conj(self, y):
        return self.conj_fn(np.asarray(y, dtype=float))

    def phi_conj_d1(self, y):
        return self.conj_d1_fn(np.asarray(y, dtype=float))

    def phi_conj_d2(self, y):
        return self.conj_d2_fn(np.asarray(y, dtype=float))

    def recession(self):
        return self.recession_const

    def conj_domain_interior(self):
        return self.domain_interior


_ENTROPIES = {
    "kl": KLEntropy,
    "kl-normalized": NormalizedKLEntropy,
    "quadratic": QuadraticEntropy,
}


def get_entropy(kind):
    try:
        return _ENTROPIES[kind]()
    except KeyError:
        raise InvalidInput(f"unknown divergence kind: {kind!r}") from None


@dataclass(frozen=True)
class DivergenceF:
    """Separable marginal penalty D_phi(. | q) on the stacked marginal vector."""

    entropy: EntropyFunction
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if math.isinf(self.entropy.recession()) and np.any(self.q <= 0):
            raise InvalidInput(
                "superlinear entropies require strictly positive reference weights"
            )
        if np.any(self.q < 0):
            raise InvalidInput("reference weights must be nonnegative")


def divergence_for(problem):
    """Build the DivergenceF attached to a Problem instance."""
    return DivergenceF(get_entropy(problem.divergence.kind), problem.q)


def csiszar(p, q, entropy):
    """Divergence of p against q: sum q_i phi(p_i/q_i) plus the recession part."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidInput("p and q must have the same length")
    if np.any(p < 0) or np.any(q < 0):
        raise InvalidInput("csiszar divergence requires nonnegative vectors")
    pos = q > 0
    total = float(np.sum(q[pos] * np.asarray(entropy.phi(p[pos] / q[pos]))))
    zero_mass = float(p[~pos].sum())
    if zero_mass > 0:
        rec = entropy.recession()
        total += rec * zero_mass  # inf is a valid outcome here
    return total


def F_value(p, div):
    """Penalty value at a stacked marginal vector (infinite outside the domain)."""
    if isinstance(div.entropy, (KLEntropy,)) and np.any(np.asarray(p) < 0):
        return math.inf
    p = np.asarray(p, dtype=float)
    ratios = np.zeros_like(p)
    pos = div.q > 0
    ratios[pos] = p[pos] / div.q[pos]
    vals = np.asarray(div.entropy.phi(ratios))
    return float(np.sum(div.q[pos] * vals[pos]))


def _check_domain(arg, div):
    lo, hi = div.entropy.conj_domain_interior()
    arg = np.asarray(arg, dtype=float)
    if np.any(arg <= lo) or np.any(arg >= hi):
        raise DomainError("argument outside the conjugate domain interior")
    return arg


def F_conj(arg, div):
    """Separable conjugate sum q_z phi*(arg_z); overflow saturates at EXP_CLAMP."""
    arg = np.minimum(_check_domain(arg, div), EXP_CLAMP)
    return float(np.sum(div.q * np.asarray(div.entropy.phi_conj(arg))))


def F_conj_grad(arg, div):
    """Componentwise q_z phi*'(arg_z)."""
    arg = _check_domain(arg, div)
    return div.q * np.asarray(div.entropy.phi_conj_d1(arg))


def F_conj_hess_diag(arg, div):
    """Diagonal of the conjugate Hessian: q_z phi*''(arg_z), positive entries."""
    arg = _check_domain(arg, div)
    return div.q * np.asarray(div.entropy.phi_conj_d2(arg))
