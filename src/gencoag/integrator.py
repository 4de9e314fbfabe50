"""Positivity-safeguarded RK4 time stepping for the coagulation ODE system.

The boundary-outflux ledger is integrated alongside the density as an extra
ODE component, so any identity satisfied by the semi-discrete right-hand
side (in particular d/dt(M1) + outflux_rate = 0) is inherited by the fully
discrete trajectory to rounding accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StiffnessError
from .sizedomain import NumberDensity, Trajectory

#: Relative depth below zero that triggers step rejection; shallower
#: negatives are clipped and logged.  Below quadrature noise, above
#: accumulated machine epsilon.
CLIP_REL = 1.0e-12

#: The adaptive policy multiplies dt by GROWTH after GROWTH_STREAK
#: consecutive steps without a rejection.
GROWTH = 1.5
GROWTH_STREAK = 5


@dataclass
class DtPolicy:
    """Step-size policy.

    ``fixed`` retries the same dt each step (per-step halving still
    applies); ``adaptive`` grows dt again after a streak of clean steps, so
    a conservative initial dt recovers.
    """

    mode: str = "adaptive"
    dt: float = 0.0
    safety: float = 0.8
    max_shrink: int = 20

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise DomainError("dt policy mode must be 'fixed' or 'adaptive'")
        if not (0.0 < self.safety <= 1.0):
            raise DomainError("safety must lie in (0, 1]")
        if not (0.0 <= self.dt < np.inf):
            raise DomainError("dt must be finite and >= 0 (0 selects the heuristic)")


@dataclass
class StepStats:
    """Bookkeeping for one accepted step."""

    dt: float
    rejections: int = 0
    clipped_mass: float = 0.0
    outflux: float = 0.0


def initial_dt_heuristic(kernel, density: NumberDensity, eps: float = 1.0,
                         safety: float = 0.8) -> float:
    """Conservative starting dt from the truncated-kernel Lipschitz scale.

    dt0 = safety / (2 k n^(2+2s) (1/eps + 2) ||zeta||_L1).  Grossly
    pessimistic for smooth data; the adaptive policy grows it back.
    """
    norm = float(np.sum(np.abs(density.values) * density.grid.widths))
    lip = kernel.sup_bound * (1.0 / eps + 2.0) * max(norm, 1e-300)
    return safety / lip


def _rk4_attempt(values, rhs_op, grid, t, dt):
    # Stage inputs are clamped at zero: transient sub-rounding negatives in
    # a stage state would otherwise feed the quadratic rates, let spurious
    # boundary modes amplify, and put noise of either sign into the ledger.
    # Each stage's (dzdt, outflux_rate) pair is evaluated at the same
    # clamped state, so the exact mass-ledger closure of the right-hand
    # side survives the clamping.
    def f(v, s):
        field = rhs_op(NumberDensity._unchecked(grid, np.maximum(v, 0.0), s))
        return field.dzdt, field.outflux_rate

    k1, l1 = f(values, t)
    k2, l2 = f(values + 0.5 * dt * k1, t + 0.5 * dt)
    k3, l3 = f(values + 0.5 * dt * k2, t + 0.5 * dt)
    k4, l4 = f(values + dt * k3, t + dt)
    new = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    outflux = (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return new, outflux


def step(density: NumberDensity, rhs_op, dt: float, max_shrink: int = 20):
    """One RK4 step with reject-and-halve positivity control.

    Any resulting cell below -1e-12 * max(values) rejects the step and
    halves dt (up to ``max_shrink`` times); residual shallow negatives are
    clipped to zero with their mass logged.

    Returns
    -------
    (NumberDensity, StepStats)
    """
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    grid = density.grid
    values = density.values
    scale = float(values.max(initial=0.0))
    attempt = dt
    rejections = 0
    for _ in range(max_shrink + 1):
        new, outflux = _rk4_attempt(values, rhs_op, grid, density.time, attempt)
        floor = -CLIP_REL * max(scale, float(new.max(initial=0.0)))
        if float(new.min(initial=0.0)) < floor:
            attempt *= 0.5
            rejections += 1
            continue
        neg = new < 0.0
        clipped = 0.0
        if np.any(neg):
            clipped = float(np.sum(-new[neg] * grid.centers[neg] * grid.widths[neg]))
            new = np.where(neg, 0.0, new)
        out = NumberDensity(grid, new, density.time + attempt)
        return out, StepStats(attempt, rejections, clipped, outflux)
    raise StiffnessError(
        f"step rejected {rejections} times from dt={dt:g} at t={density.time:g}",
        time=density.time,
        dt=attempt,
        min_cell=float(new.min(initial=0.0)),
    )


def evolve(initial: NumberDensity, rhs_op, T: float, policy: DtPolicy,
           snapshot_times=None, observers=()) -> Trajectory:
    """Integrate to horizon T, landing exactly on every requested snapshot time.

    Observers are called as observer(time, density, stats) after each
    accepted step; they must not mutate the density.
    """
    if not (0.0 <= T < np.inf):
        raise DomainError("horizon T must be finite and >= 0")
    if policy.dt <= 0.0:
        raise DomainError("policy.dt must be positive (use initial_dt_heuristic)")
    traj = Trajectory()
    traj.append(initial.replace(time=initial.time), 0.0, 0.0)
    if T == 0.0:
        return traj

    if snapshot_times is None:
        stops = [initial.time + T]
    else:
        stops = sorted({float(s) for s in snapshot_times})
        if any(s <= initial.time or s > initial.time + T * (1 + 1e-12) for s in stops):
            raise DomainError("snapshot times must lie in (t0, t0 + T]")
        if not stops or abs(stops[-1] - (initial.time + T)) > 1e-12 * max(T, 1.0):
            stops.append(initial.time + T)

    state = initial
    outflux_total = 0.0
    clipped_total = 0.0
    dt_cur = policy.dt
    streak = 0
    for target in stops:
        while state.time < target * (1.0 - 1e-15) and target - state.time > 1e-15 * max(target, 1.0):
            dt_try = min(dt_cur, target - state.time)
            state, stats = step(state, rhs_op, dt_try, policy.max_shrink)
            outflux_total += stats.outflux
            clipped_total += stats.clipped_mass
            for obs in observers:
                obs(state.time, state, stats)
            if policy.mode == "adaptive":
                if stats.rejections:
                    dt_cur = stats.dt
                    streak = 0
                else:
                    streak += 1
                    if streak >= GROWTH_STREAK:
                        dt_cur *= GROWTH
                        streak = 0
        # land exactly on the requested time
        state = state.replace(time=target)
        traj.append(state, outflux_total, clipped_total)
    return traj
