"""Constructive de la Vallee-Poussin convex gauges.

A gauge is a superlinear convex function Psi with Psi(0) = 0 whose
derivative is concave and nondecreasing.  Given the tail of an integrable
quantity, the constructor picks breakpoints r_j at which the tail has
dropped below 4^(-j) of its initial value (pushed up if needed so the
breakpoint gaps never shrink, which keeps Psi' concave), sets
Psi'(r_j) = j + 1, and interpolates Psi' piecewise linearly.  So Psi grows
only as fast as the data's tail allows; the bound checks read the gauge
moment of the data itself (Gamma1, Gamma2), not an a-priori bound of it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GaugeConstructionError
from .sizedomain import write_csv

#: Tail shrink factor between successive breakpoints.
TAIL_RATIO = 4.0


class ConvexGauge:
    """Piecewise representation: breakpoints r_j, derivative values psi_j.

    Beyond the last breakpoint the derivative continues with its final
    slope, so Psi stays convex and Psi(s)/s -> infinity.
    """

    def __init__(self, breakpoints, psi_prime_values):
        r = np.asarray(breakpoints, dtype=float)
        dp = np.asarray(psi_prime_values, dtype=float)
        if r.size < 2 or r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise DomainError("breakpoints must start at 0 and strictly increase")
        if dp.shape != r.shape or np.any(np.diff(dp) < 0) or dp[0] < 0:
            raise DomainError("derivative values must be nonnegative and nondecreasing")
        slopes = np.diff(dp) / np.diff(r)
        if np.any(np.diff(slopes) > 1e-12 * max(slopes.max(initial=0.0), 1.0)):
            raise DomainError("derivative must be concave (nonincreasing slopes)")
        self.breakpoints = r
        self.psi_prime_values = dp
        self.slopes = slopes
        # Psi at the breakpoints: exact integral of the piecewise-linear psi'.
        seg = np.diff(r) * 0.5 * (dp[:-1] + dp[1:])
        self.psi_values = np.concatenate([[0.0], np.cumsum(seg)])

    def _segment(self, s):
        idx = np.searchsorted(self.breakpoints, s, side="right") - 1
        return np.clip(idx, 0, self.breakpoints.size - 2)

    def psi(self, s):
        s = np.asarray(s, dtype=float)
        i = self._segment(s)
        ds = s - self.breakpoints[i]
        out = self.psi_values[i] + self.psi_prime_values[i] * ds + 0.5 * self.slopes[i] * ds**2
        return out if out.ndim else float(out)


def write_gauge_csv(gauge: "ConvexGauge", path):
    """Export a constructed gauge as ``breakpoint,psi,psi_prime`` rows."""
    write_csv(path, ["breakpoint", "psi", "psi_prime"],
              np.column_stack([gauge.breakpoints, gauge.psi_values, gauge.psi_prime_values]))


def build_gauge_from_tail(r_samples, tail_values, max_breakpoints: int = 64) -> ConvexGauge:
    """Constructive gauge from sampled tail data.

    Parameters
    ----------
    r_samples, tail_values : arrays
        Nonincreasing tail r -> integral beyond threshold r, sampled on the
        grid.  The tail must decay: its last sample must reach the first
        4^(-1) target, otherwise no superlinear gauge is certifiable from
        the data and a :class:`GaugeConstructionError` is raised.
    """
    r = np.asarray(r_samples, dtype=float)
    tail = np.asarray(tail_values, dtype=float)
    if r.ndim != 1 or r.shape != tail.shape or r.size < 2:
        raise DomainError("need matching 1-d sample arrays")
    if np.any(np.diff(r) <= 0):
        raise DomainError("tail sample points must strictly increase")
    slack = 1e-12 * max(abs(tail[0]), 1.0)
    if np.any(np.diff(tail) > slack):
        raise GaugeConstructionError("tail is not nonincreasing on the grid")
    t0 = float(tail[0])
    if t0 <= 0.0:
        raise GaugeConstructionError("tail has no mass to control")

    breakpoints = [0.0]
    dpsi = [1.0]
    prev_r = 0.0
    prev_gap = 0.0
    for j in range(1, max_breakpoints + 1):
        target = t0 * TAIL_RATIO ** (-j)
        idx = int(np.searchsorted(-tail, -target, side="left"))
        if idx >= r.size:
            if j == 1:
                raise GaugeConstructionError(
                    "tail does not decay below tail(0)/4 on the truncated grid"
                )
            break
        r_j = max(float(r[idx]), prev_r + prev_gap)
        if r_j <= prev_r:
            r_j = prev_r + max(prev_gap, 1e-12 * max(prev_r, 1.0))
        breakpoints.append(r_j)
        dpsi.append(float(j + 1))
        prev_gap = r_j - prev_r
        prev_r = r_j
        if r_j >= r[-1]:
            break
    if len(breakpoints) < 2:
        raise GaugeConstructionError("tail too short to place any breakpoint")
    return ConvexGauge(breakpoints, dpsi)


def psi1_tail(density):
    """Mass tail r -> sum over cells above r of x zeta dx, sampled at edges."""
    grid = density.grid
    contrib = grid.centers * density.values * grid.widths
    tail = np.concatenate([np.cumsum(contrib[::-1])[::-1], [0.0]])
    return grid.edges, tail


def psi2_tail(density, sigma: float):
    """Value-variable tail of h = mu^(-sigma) zeta: r -> integral of h over {h > r}."""
    grid = density.grid
    h = grid.centers ** (-sigma) * density.values
    order = np.argsort(h)[::-1]
    hs = h[order]
    contrib = hs * grid.widths[order]
    cum = np.cumsum(contrib)
    # thresholds between distinct positive h levels: tail(r) for r in
    # [hs[i+1], hs[i]); a zero level is the threshold r = 0 already placed
    r_pts = [0.0]
    tail_pts = [float(cum[-1])]
    for i in range(hs.size - 1, 0, -1):
        if hs[i - 1] > hs[i] > 0.0:
            r_pts.append(float(hs[i]))
            tail_pts.append(float(cum[i - 1]))
    r_pts.append(float(hs[0]))
    tail_pts.append(0.0)
    return np.asarray(r_pts), np.asarray(tail_pts)
