"""Test functions for weak-form and equicontinuity diagnostics.

Every entry carries the exact sup norms of omega and omega' where finite,
which the equicontinuity bound reads.
"""

from __future__ import annotations

import numpy as np


class OmegaFunction:
    """A test function with the sup norms of omega and omega'."""

    def __init__(self, name, value,
                 sup_value=np.inf, sup_derivative=np.inf):
        self.name = name
        self._value = value
        self.sup_value = sup_value
        self.sup_derivative = sup_derivative

    def __call__(self, mu):
        return self._value(np.asarray(mu, dtype=float))

    @property
    def w1inf_norm(self):
        """max(sup |omega|, sup |omega'|)."""
        return max(self.sup_value, self.sup_derivative)


def constant_one():
    return OmegaFunction(
        "one",
        lambda mu: np.ones_like(mu),
        sup_value=1.0, sup_derivative=0.0,
    )


def mass():
    """omega(mu) = mu (restricted to the grid; unbounded globally)."""
    return OmegaFunction(
        "mass",
        lambda mu: mu,
        sup_derivative=1.0,
    )


def square():
    """omega(mu) = mu^2."""
    return OmegaFunction(
        "square",
        lambda mu: mu * mu,
    )


def truncated_linear(lam):
    """omega(mu) = min(mu, lam)."""
    return OmegaFunction(
        f"trunc_linear({lam:g})",
        lambda mu: np.minimum(mu, lam),
        sup_value=float(lam), sup_derivative=1.0,
    )


def bump(a, b):
    """Quartic bump supported on [a, b], normalized to peak 1.

    omega = 16 (mu-a)^2 (b-mu)^2 / (b-a)^4 on [a, b], zero outside.
    sup |omega'| = 16 / (3 sqrt(3) (b-a)).
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

    return OmegaFunction(
        f"bump({a:g},{b:g})",
        val,
        sup_value=1.0,
        sup_derivative=16.0 / (3.0 * np.sqrt(3.0) * (b - a)),
    )


def bump_library(grid):
    """Three bumps spanning the interior of the grid's log domain."""
    lo, hi = grid.edges[0], grid.edges[-1]
    q = np.exp(np.linspace(np.log(lo), np.log(hi), 6))
    return [bump(q[1], q[3]), bump(q[2], q[4]), bump(q[1], q[4])]
