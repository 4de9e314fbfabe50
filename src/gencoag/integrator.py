"""Error-controlled, positivity-safeguarded Dormand-Prince 5(4) time
stepping for the coagulation ODE system.

The propagator is the fifth-order solution of the Dormand-Prince pair
(Dormand & Prince 1980; Hairer-Norsett-Wanner, Solving ODEs I,
Sec. II.4-II.5), and every step is under error control.  Of its seven
stages, k7 = f(y_{n+1}), evaluated at the accepted (clipped) state, is the
next step's k1 ("first same as last"), so an accepted step costs six
right-hand-side evaluations.  The embedded fourth-order solution differs
from the propagated one by ``dt sum_i e_i k_i``, the local error estimate
that sets the next step.  The first step is estimated from the data.

The boundary-outflux ledger is integrated alongside the density as an extra
ODE component, with the state's own weights, so any identity satisfied by
the semi-discrete right-hand side (in particular d/dt(M1) + outflux = 0) is
inherited by the fully discrete trajectory to rounding accuracy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, StiffnessError
from .sizedomain import NumberDensity, Trajectory

#: Relative depth below zero that triggers step rejection; shallower
#: negatives are clipped and logged.  Below quadrature noise, above
#: accumulated machine epsilon.
CLIP_REL = 1.0e-12

#: Relative tolerance of the error control: the local error estimate,
#: in the weighted L1 norm with weight (1 + mu) dmu, is kept below RTOL
#: times the larger norm of the old and the new state.
RTOL = 4.0e-8

#: Bounds of the factor by which one step may change the next.
FAC_MIN = 0.2
FAC_MAX = 5.0

#: Safety factor of the step-size update: the next step is
#: SAFETY * err^(-1/5) times the last, clamped to [FAC_MIN, FAC_MAX].
SAFETY = 0.8

#: Rejections (error or positivity) allowed in one step before it fails
#: with a StiffnessError.
MAX_SHRINK = 20

#: The Dormand-Prince 5(4) tableau.  Stage s (0-based) is f at t + C[s] dt
#: and at values + dt * sum_j A[s][j] k_j; the seventh stage is f at the
#: accepted state, at t + dt.
C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
A = ((),
     (1 / 5,),
     (3 / 40, 9 / 40),
     (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))

#: Fifth-order weights of the propagated solution on k1..k6 (k7's is zero);
#: the outflux ledger is integrated with the same weights.
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)

#: b - b_hat on k1..k7, b_hat the weights of the embedded fourth-order
#: solution: dt sum_i E[i] k_i is the local error estimate.
E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


class StepStats(NamedTuple):
    """Bookkeeping for one accepted step.

    ``error`` is the step's error estimate relative to the tolerance; an
    accepted step has ``error <= 1``.
    """

    dt: float
    rejections: int
    clipped_mass: float
    outflux: float
    error: float


def _stages(rhs_op, grid):
    # Stage inputs are clamped at zero: transient sub-rounding negatives in
    # a stage state would otherwise feed the quadratic rates, let spurious
    # boundary modes amplify, and put noise of either sign into the ledger.
    # rhs_op returns the stage's (dzdt, outflux) pair, both evaluated at
    # the same clamped state, so the exact mass-ledger closure of the
    # right-hand side survives the clamping.
    def f(v, s):
        return rhs_op(NumberDensity._unchecked(grid, np.maximum(v, 0.0), s))

    return f


def _combine(weights, terms):
    """sum_i weights[i] * terms[i], as a sum of scalar-times-array terms."""
    return sum(w * k for w, k in zip(weights, terms))


def _dp_attempt(f, values, t, first, dt):
    """Stages k1..k6 from ``values`` at ``t`` with k1 = ``first``.

    Returns (fifth-order state, outflux over the step, [k1, ..., k6]).
    """
    ks, ls = [first[0]], [first[1]]
    for c, row in zip(C[1:], A[1:]):
        k, l = f(values + dt * _combine(row, ks), t + c * dt)
        ks.append(k)
        ls.append(l)
    return values + dt * _combine(B, ks), dt * _combine(B, ls), ks


def _factor(err):
    """Step-size factor SAFETY * err^(-1/5), clamped to [FAC_MIN, FAC_MAX].

    The exponent is one over (order of the error estimate + 1).
    """
    return min(FAC_MAX, max(FAC_MIN, SAFETY * max(err, 1e-300) ** -0.2))


def _advance(f, grid, values, t, first, dt, norm):
    """One accepted step from ``values`` at time ``t``, whose stage k1 is ``first``.

    Rejects and halves on positivity, and rejects and shrinks on the
    order-4 error estimate in ``norm``; both count against ``MAX_SHRINK``.
    Returns (new values, StepStats, k7), k7 being f at the new state.  The new
    values are checked finite and >= 0 in place, not copied, and read-only.
    """
    scale = float(values.max(initial=0.0))
    attempt = dt
    rejections = 0
    for _ in range(MAX_SHRINK + 1):
        tried = attempt
        new, outflux, ks = _dp_attempt(f, values, t, first, attempt)
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
        last = f(new, t + attempt)
        size = RTOL * max(norm(values), norm(new), 1e-300)
        err = norm(attempt * _combine(E, [*ks, last[0]])) / size
        if err > 1.0:
            attempt *= _factor(err)
            rejections += 1
            continue
        # a NaN state passes every test above: its error estimate is NaN too
        if not np.all(new < np.inf):
            raise DomainError("number density values must be finite and >= 0")
        new.setflags(write=False)
        return new, StepStats(attempt, rejections, clipped, outflux, err), last
    raise StiffnessError(
        f"step rejected {rejections} times from dt={dt:g} at t={t:g}",
        time=t,
        dt=tried,
    )


def _weighted_l1(grid):
    """v -> sum_i (1 + x_i) |v_i| dx_i, the norm of the error control."""
    w = (1.0 + grid.centers) * grid.widths
    return lambda v: float(w @ np.abs(v))


def _starting_step(f, values, t, first, norm):
    """Hairer-Norsett-Wanner starting step for an order-4 error estimate.

    Solving ODEs I, Sec. II.4, in the scaled norm ||v|| / (RTOL ||y0||);
    costs one Euler-probe evaluation besides k1.
    """
    size = RTOL * max(norm(values), 1e-300)
    d0 = norm(values) / size
    d1 = norm(first[0]) / size
    h0 = 1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1
    probe, _ = f(values + h0 * first[0], t + h0)
    d2 = norm(probe - first[0]) / size / h0
    top = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if top <= 1e-15 else (0.01 / top) ** 0.2
    return min(100.0 * h0, h1)


def evolve(initial: NumberDensity, rhs_op, stops, observers=()) -> Trajectory:
    """Integrate from ``initial``, landing exactly on each of ``stops`` and ending at the last.

    ``stops`` must be non-empty, finite and strictly increasing, the first
    after ``initial.time``.  Each row after the initial data is the state at
    its stop, checked finite and >= 0 when its step was accepted.  Observers
    are called as observer(time, values, stats) after each accepted step,
    with the state's read-only values.  The run is under
    ``np.errstate(invalid="raise", over="raise")``: a NaN or an overflow
    raises StiffnessError with the time and dt of the step it hit.
    """
    stops = [float(s) for s in stops]
    # a NaN fails every comparison, so each clause also refuses one
    if not (stops and stops[0] > initial.time and stops[-1] < np.inf
            and all(a < b for a, b in zip(stops, stops[1:]))):
        raise DomainError("stops must be finite and strictly increasing, the first after "
                          f"t0 = {initial.time:g}")
    grid = initial.grid
    # one row for the initial data and one per stop, each row with its time and ledgers
    block = np.empty((len(stops) + 1, grid.size))
    block[0] = initial.values
    outflux, clipped = [0.0], [0.0]

    f = _stages(rhs_op, grid)
    norm = _weighted_l1(grid)
    t, values = initial.time, initial.values
    outflux_total = 0.0
    clipped_total = 0.0
    dt_try = 0.0
    try:
        with np.errstate(invalid="raise", over="raise"):
            first = f(values, t)
            dt_cur = _starting_step(f, values, t, first, norm)
            for row, target in enumerate(stops, start=1):
                while target - t > 1e-15 * max(target, 1.0):
                    dt_try = min(dt_cur, target - t)
                    values, stats, first = _advance(f, grid, values, t, first, dt_try, norm)
                    t += stats.dt
                    outflux_total += stats.outflux
                    clipped_total += stats.clipped_mass
                    for obs in observers:
                        obs(t, values, stats)
                    proposal = stats.dt * _factor(stats.error)
                    # a step shortened to land on a stop does not shrink the next one
                    shortened = dt_try < dt_cur and not stats.rejections
                    dt_cur = max(proposal, dt_cur) if shortened else proposal
                # land exactly on the requested time
                t = target
                block[row] = values
                outflux.append(outflux_total)
                clipped.append(clipped_total)
    except FloatingPointError as exc:
        raise StiffnessError(
            f"floating-point fault ({exc}) in the step from t={t:g} with dt={dt_try:g}",
            time=t,
            dt=dt_try,
        ) from exc
    return Trajectory(grid, [initial.time, *stops], block, outflux, clipped)
