"""The built-in entropies, their conjugates, and the separable marginal penalty.

The marginal penalty is a phi-divergence D_phi(p | q) with a strictly
positive reference q living on the disjoint union of the two point sets.
The entropies are the three a problem can name: `kl`, `kl-normalized` and
`quadratic`.  Each is superlinear, and each conjugate is finite and C^2 on
the whole real line, so the conjugate side takes any real argument.
Everything the solvers need is that side: values, first and second
derivatives of the separable conjugate sum q_z phi*(arg_z), and the roots of
two scalar equations per entropy: the exact block minimizer of the dual over
one node's potential, and the shift that balances one component of a
crossover face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidInput

# F_conj evaluates phi* at min(arg, EXP_CLAMP), so exp() stays finite
EXP_CLAMP = 700.0
# a Newton step of QuadraticEntropy.scaling_root below ROOT_TOL (1 + |s|) is
# at the rounding floor of its root
ROOT_TOL = 8 * np.finfo(float).eps


class KLEntropy:
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

    phi_conj_d2 = phi_conj_d1  # F_conj_derivatives computes it once

    def scaling_root(self, t, lse, q):
        """The x solving t x + lse = log(q phi*'(-x)), entry by entry.

        It minimizes q phi*(-x) + exp(t x + lse) / t, one potential's share
        of the regularized dual; phi*' = exp gives it in closed form.
        """
        return (np.log(q) - lse) / (t + 1.0)

    def balance(self, M_x, M_y, H):
        """Shift v equalizing a component's x-side and y-side sums of q phi*'(-xi).

        v on its x-potentials and -v on its y-potentials scale the sums M_x by
        e^-v and M_y by e^v; H, the component's sum of q phi*'', is not needed.
        """
        return 0.5 * np.log(M_x / M_y)


class NormalizedKLEntropy(KLEntropy):
    """x log x - x + 1: same divergence up to an offset, with phi(1) = 0."""

    name = "kl-normalized"

    def phi(self, x):
        base = super().phi(np.asarray(x, dtype=float))
        return base + 1.0

    def phi_conj(self, y):
        return np.exp(y) - 1.0


class QuadraticEntropy:
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

    def scaling_root(self, t, lse, q):
        """The x solving t x + lse = log(q phi*'(-x)), entry by entry.

        With s = log(1 - x) the equation reads s + t e^s = K, where
        K = t + lse - log q.  f(s) = s + t e^s - K is increasing and convex,
        and f >= 0 at s0 = min(K, log(max(K, t) / t)), so Newton's iteration
        from s0 falls monotonically onto the root and t e^s never exceeds
        max(K, t): no exp overflows, whatever the potentials.
        """
        # f(s) is evaluated as s + t expm1(s) + (log q - lse), and f'(s) as
        # t expm1(s) + t + 1: near s = 0, t e^s - K would cancel two terms of
        # size t and lose all but 1/t of the precision
        rest = np.log(q) - lse
        K = t - rest
        s = np.minimum(K, np.log(np.maximum(K, t) / t))
        while True:
            te = t * np.expm1(s)
            step = (s + te + rest) / (te + (t + 1.0))
            s -= step
            # in exact arithmetic every step is >= 0; near the root the
            # rounding of a step is about 2 eps (1 + |s|), so a smaller one
            # has converged
            if not (step > ROOT_TOL * (1.0 + np.abs(s))).any():
                return -np.expm1(s)

    def balance(self, M_x, M_y, H):
        """Shift v equalizing a component's x-side and y-side sums of q phi*'(-xi).

        v on its x-potentials and -v on its y-potentials move the sums M_x by
        -v q_x and M_y by +v q_y, where H = q_x + q_y is the component's sum of
        q phi*''.  A component with nodes on one side only ends at sum 0.
        """
        return (M_x - M_y) / H


_ENTROPIES = {
    "kl": KLEntropy,
    "kl-normalized": NormalizedKLEntropy,
    "quadratic": QuadraticEntropy,
}
# the kinds a problem file or the CLI can name
DIVERGENCE_KINDS = tuple(_ENTROPIES)


def get_entropy(kind):
    try:
        return _ENTROPIES[kind]()
    except (KeyError, TypeError):  # TypeError: an unhashable kind from JSON
        raise InvalidInput(f"unknown divergence kind: {kind!r}") from None


@dataclass(frozen=True)
class DivergenceF:
    """Separable marginal penalty D_phi(. | q) on the stacked marginal vector."""

    entropy: KLEntropy | QuadraticEntropy
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if np.any(self.q <= 0):
            raise InvalidInput(
                "superlinear entropies require strictly positive reference weights"
            )


def divergence_for(problem):
    """Build the DivergenceF attached to a Problem instance."""
    return DivergenceF(get_entropy(problem.divergence.kind), problem.q)


def csiszar(p, q, entropy):
    """Divergence of p against q: sum q_i phi(p_i/q_i), +inf for mass where q = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidInput("p and q must have the same length")
    if np.any(p < 0) or np.any(q < 0):
        raise InvalidInput("csiszar divergence requires nonnegative vectors")
    pos = q > 0
    if np.any(p[~pos] > 0):
        return math.inf  # every built-in entropy is superlinear
    return float(np.sum(q[pos] * np.asarray(entropy.phi(p[pos] / q[pos]))))


def F_conj(arg, div):
    """Separable conjugate sum q_z phi*(arg_z); overflow saturates at EXP_CLAMP.

    Rows of arguments (a leading axis) give one sum per row, as an array.
    """
    arg = np.minimum(arg, EXP_CLAMP)
    total = np.add.reduce(div.q * np.asarray(div.entropy.phi_conj(arg)), axis=-1)
    return float(total) if arg.ndim == 1 else total


def F_conj_grad(arg, div):
    """Componentwise q_z phi*'(arg_z)."""
    return div.q * np.asarray(div.entropy.phi_conj_d1(arg))


def F_conj_hess_diag(arg, div):
    """Diagonal of the conjugate Hessian: q_z phi*''(arg_z), positive entries."""
    return div.q * np.asarray(div.entropy.phi_conj_d2(arg))


def F_conj_derivatives(arg, div):
    """(F_conj_grad(arg, div), F_conj_hess_diag(arg, div)) at one argument.

    When the entropy's phi*'' is its phi*' (the kl kinds, both exp), one
    array is computed and serves as both.
    """
    grad = F_conj_grad(arg, div)
    entropy = div.entropy
    if entropy.phi_conj_d2 == entropy.phi_conj_d1:
        return grad, grad
    return grad, F_conj_hess_diag(arg, div)
