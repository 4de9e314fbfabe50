"""Test functions for weak-form and equicontinuity diagnostics.

Every entry carries exact derivative formulas (no numerical
differentiation) and exact sup norms where finite, so identity checks can
be asserted at rounding accuracy.
"""

from __future__ import annotations

import numpy as np


class OmegaFunction:
    """A test function with an exact derivative and the sup norms of omega, omega', omega''."""

    def __init__(self, name, value, derivative,
                 sup_value=np.inf, sup_derivative=np.inf, sup_second=np.inf):
        self.name = name
        self._value = value
        self._derivative = derivative
        self.sup_value = sup_value
        self.sup_derivative = sup_derivative
        self.sup_second = sup_second

    def __call__(self, mu):
        return self._value(np.asarray(mu, dtype=float))

    def derivative(self, mu):
        return self._derivative(np.asarray(mu, dtype=float))

    @property
    def w1inf_norm(self):
        """max(sup |omega|, sup |omega'|)."""
        return max(self.sup_value, self.sup_derivative)

    def __repr__(self):
        return f"OmegaFunction({self.name!r})"


def constant_one():
    return OmegaFunction(
        "one",
        lambda mu: np.ones_like(mu),
        lambda mu: np.zeros_like(mu),
        sup_value=1.0, sup_derivative=0.0, sup_second=0.0,
    )


def mass():
    """omega(mu) = mu (restricted to the grid; unbounded globally)."""
    return OmegaFunction(
        "mass",
        lambda mu: mu,
        lambda mu: np.ones_like(mu),
        sup_derivative=1.0, sup_second=0.0,
    )


def square():
    """omega(mu) = mu^2."""
    return OmegaFunction(
        "square",
        lambda mu: mu * mu,
        lambda mu: 2.0 * mu,
        sup_second=2.0,
    )


def truncated_linear(lam):
    """omega(mu) = min(mu, lam); derivative is the indicator of (0, lam)."""
    return OmegaFunction(
        f"trunc_linear({lam:g})",
        lambda mu: np.minimum(mu, lam),
        lambda mu: (mu < lam).astype(float),
        sup_value=float(lam), sup_derivative=1.0,
    )


def exp_decay():
    """omega(mu) = exp(-mu)."""
    return OmegaFunction(
        "exp_decay",
        lambda mu: np.exp(-mu),
        lambda mu: -np.exp(-mu),
        sup_value=1.0, sup_derivative=1.0, sup_second=1.0,
    )


def log1p():
    """omega(mu) = log(1 + mu)."""
    return OmegaFunction(
        "log1p",
        lambda mu: np.log1p(mu),
        lambda mu: 1.0 / (1.0 + mu),
        sup_derivative=1.0, sup_second=1.0,
    )


def inv1p():
    """omega(mu) = 1 / (1 + mu)."""
    return OmegaFunction(
        "inv1p",
        lambda mu: 1.0 / (1.0 + mu),
        lambda mu: -1.0 / (1.0 + mu) ** 2,
        sup_value=1.0, sup_derivative=1.0, sup_second=2.0,
    )


def bump(a, b):
    """Quartic bump supported on [a, b], normalized to peak 1.

    omega = 16 (mu-a)^2 (b-mu)^2 / (b-a)^4 on [a, b], zero outside.
    sup |omega'| = 16 / (3 sqrt(3) (b-a)), sup |omega''| = 32 / (b-a)^2.
    """
    if not (0.0 < a < b):
        raise ValueError("bump support needs 0 < a < b")
    span4 = (b - a) ** 4

    def val(mu):
        inside = (mu >= a) & (mu <= b)
        out = np.zeros_like(mu)
        m = mu[inside] if mu.ndim else mu
        v = 16.0 * (m - a) ** 2 * (b - m) ** 2 / span4
        if mu.ndim:
            out[inside] = v
            return out
        return v if inside else 0.0

    def der(mu):
        inside = (mu >= a) & (mu <= b)
        out = np.zeros_like(mu)
        m = mu[inside] if mu.ndim else mu
        v = 32.0 * (m - a) * (b - m) * (a + b - 2.0 * m) / span4
        if mu.ndim:
            out[inside] = v
            return out
        return v if inside else 0.0

    return OmegaFunction(
        f"bump({a:g},{b:g})",
        val, der,
        sup_value=1.0,
        sup_derivative=16.0 / (3.0 * np.sqrt(3.0) * (b - a)),
        sup_second=32.0 / (b - a) ** 2,
    )


def smooth_library():
    """Smooth functions with exact sup |omega''| for Taylor-bound checks."""
    return [square(), bump(2.0, 8.0), exp_decay(), log1p(), inv1p()]


def bump_library(grid):
    """Three bumps spanning the interior of the grid's log domain."""
    lo, hi = grid.edges[0], grid.edges[-1]
    q = np.exp(np.linspace(np.log(lo), np.log(hi), 6))
    return [bump(q[1], q[3]), bump(q[2], q[4]), bump(q[1], q[4])]
