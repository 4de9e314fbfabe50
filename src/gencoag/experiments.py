"""Convergence studies and analytic validation across the model family.

The eps sweep probes the interpolation limit at desk scale: generalized
runs at decreasing eps are compared against the transport (OHS) limit, the
eps = 0 member of the same pair scheme on the same grid, in the weighted L1
metric with weight mu^(-sigma) + mu, the natural topology for singular
kernels.

Every run a command solves goes through :func:`checked_run`, which judges
it by the verdicts of :func:`~gencoag.diagnostics.bound_verdicts`, after
:func:`check_initial` refused what the initial data decide.  Every study
reads one :class:`MemberTable`, which solves each distinct run once on
the config's one grid: runs that compute the same eps
(:func:`~gencoag.operators.computed_eps`) are one run.  ``sweep`` runs
its eps-study on one table; every check of ``validate`` reads the table of
:func:`validate_members`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import diagnostics
from .errors import BoundViolation, ConfigError, DomainError, GencoagError
from .gauges import build_gauge_from_tail, psi1_tail, psi2_tail
from .integrator import evolve
from .kernels import Kernel, certificate_bounds
from .operators import computed_eps, make_rhs
from .sizedomain import (
    ExponentialProfile,
    NumberDensity,
    SizeGrid,
    Trajectory,
    make_grid,
    sample_initial,
    write_csv,
)

# times at which the closed forms of ``validate`` are checked
CLOSED_FORM_TIMES = (0.5, 1.0, 2.0)
# the pass thresholds of ``validate``: weighted-L1 error of the SCE closed
# form and error of the M0 Riccati law (the ledger's is in diagnostics)
SCE_TOLERANCE = 2e-2
M0_TOLERANCE = 1e-3
# the rows of the M0 law check of ``validate``: (label, model, eps)
M0_ROWS = (
    ("sce", "sce", None),
    ("ohs", "ohs", None),
    ("generalized_eps1", "generalized", 1.0),
    ("generalized_eps0.25", "generalized", 0.25),
    ("generalized_eps0.01", "generalized", 0.01),
)
# flux-identity thresholds of the mass report, as fractions of n
MASS_LAMBDA_FRACTIONS = (0.125, 0.25, 0.5, 1.0)


class SweepConfig(NamedTuple):
    """Sweep members: generalized runs at each eps of ``eps_list`` on the grid of
    ``n``.  A member below sqrt(r) - 1 of the grid is the OHS run (eps = 0).
    ``cli.KEYS`` owns the default of each field."""

    kernel: Kernel
    eps_list: tuple
    n: float
    cells_per_decade: int
    profile: object
    horizon: float


class DistanceTable:
    """Rows (eps, n, time, distance) plus failed member markers."""

    def __init__(self):
        self.rows = []
        self.failed = []

    def fail(self, eps, n, exc: GencoagError):
        """Mark member (eps, n) failed by ``exc``: {type, message, time, dt}, the time and dt
        of the step a StiffnessError hit, else None."""
        self.failed.append({"eps": eps, "n": n, "error": {
            "type": type(exc).__name__, "message": str(exc),
            "time": getattr(exc, "time", None), "dt": getattr(exc, "dt", None)}})

    def at_time(self, t):
        """eps -> distance at the snapshot at t."""
        return {eps: d for eps, _, tt, d in self.rows if abs(tt - t) < 1e-9 * max(t, 1.0)}

    def write_csv(self, path):
        write_csv(path, ["eps", "n", "time", "distance"], self.rows)


def run_model(model: str, kernel: Kernel, grid: SizeGrid, initial: NumberDensity,
              horizon: float, snapshot_times=None, eps: float | None = None,
              observers=()) -> Trajectory:
    """Evolve one model on one grid to ``initial.time + horizon``, stopping at each of
    ``snapshot_times`` (increasing, the last at that end; only the end by default).  The
    grid is the truncated domain."""
    end = initial.time + horizon
    stops = (end,) if snapshot_times is None else tuple(snapshot_times)
    if stops[-1:] != (end,):  # also refuses no snapshot times
        raise DomainError(f"snapshot times must end at t0 + horizon = {end:g}")
    rhs = make_rhs(model, kernel, eps)
    return evolve(initial, rhs, stops, observers)


def transport_distance(a: NumberDensity, b: NumberDensity, sigma: float) -> float:
    """Weighted L1 distance with weight mu^(-s) + mu."""
    if a.grid is not b.grid and not np.array_equal(a.grid.centers, b.grid.centers):
        raise ConfigError("distance requires a common grid")
    return float(_weighted_l1(a.grid.centers, a.grid.widths, a.values - b.values, sigma))


def _weighted_l1(centers, widths, diff, sigma: float) -> np.ndarray:
    """sum_i (x_i^(-s) + x_i) |diff_i| dx_i, per row of ``diff``."""
    w = centers ** (-sigma) + centers
    return np.sum(w * np.abs(diff) * widths, axis=-1)


def check_initial(kernel: Kernel, initial: NumberDensity, horizon: float, gauges):
    """Before any solve, raise BoundViolation if the kernel's certificate fails (as in
    check-kernel) or a verdict fails on the one-snapshot run of ``initial`` to ``horizon``,
    where only a bound that is not finite can fail."""
    failed = [bound.line for bound in certificate_bounds(kernel) if not bound.passed]
    if not failed:
        start = Trajectory(initial.grid, [initial.time], initial.values[None], [0.0], [0.0])
        failed = [v.line for v in diagnostics.bound_verdicts(start, kernel, horizon, gauges)[1]
                  if not v.passed]
    if failed:
        raise BoundViolation("\n".join(failed))


def checked_run(model: str, eps: float | None, kernel: Kernel, initial: NumberDensity,
                stops, gauges) -> tuple:
    """(traj, moments, verdicts, failure) of ``model`` at ``eps`` from ``initial``, stopping at
    each of ``stops`` (increasing) and ending at the last, judged by
    :func:`~gencoag.diagnostics.bound_verdicts` with T the last stop and ``gauges``, (Psi1, Psi2)
    of ``initial``.  ``failure`` is None, the GencoagError of a failed solve (``traj`` None), or
    the BoundViolation of the failed verdicts.  Any other error of the solve still raises."""
    try:
        if model == "generalized":
            traj = _eps_member(kernel, initial.grid, initial, stops, eps)
        else:
            traj = run_model(model, kernel, initial.grid, initial, stops[-1], stops)
    except GencoagError as exc:
        return None, None, [], exc
    moments, verdicts = diagnostics.bound_verdicts(traj, kernel, stops[-1], gauges)
    failed = [v.line for v in verdicts if not v.passed]
    return traj, moments, verdicts, BoundViolation("\n".join(failed)) if failed else None


class MemberTable:
    """The distinct runs of one config, each solved once, on its first read.

    Every run starts from ``initial`` on ``grid``, the config's one grid,
    both built here with their gauge pair, so a grid
    :class:`~gencoag.sizedomain.SizeGrid` or :func:`check_initial` refuses
    is refused before any solve.  Runs whose model and eps compute the same
    eps (:func:`~gencoag.operators.computed_eps`) are one run.  Each run
    stops at every one of ``stops`` (increasing; the horizon by default)
    and ends at the last.
    """

    def __init__(self, config: SweepConfig, stops=None):
        self.config = config
        self.stops = tuple(stops or (config.horizon,))
        self.grid = make_grid(config.n, config.cells_per_decade)
        self.initial = sample_initial(config.profile, self.grid)
        self._gauges = (build_gauge_from_tail(*psi1_tail(self.initial)),
                        build_gauge_from_tail(*psi2_tail(self.initial, config.kernel.sigma)))
        check_initial(config.kernel, self.initial, self.stops[-1], self._gauges)
        self._runs = {}

    def run(self, model: str, eps: float | None) -> tuple:
        """(traj, verdicts, failure) of ``model`` at ``eps``, by :func:`checked_run`.

        ``traj`` is None, and ``verdicts`` empty, if the solve failed.  A run
        that fails a verdict keeps it, and its failure is a BoundViolation
        whose message names each failed verdict with its attained value and
        its bound.
        """
        key = computed_eps(model, eps, self.grid.ratio())
        if key not in self._runs:
            self._runs[key] = checked_run(model, eps, self.config.kernel, self.initial,
                                          self.stops, self._gauges)
        traj, _, verdicts, failure = self._runs[key]
        return traj, verdicts, failure


def _eps_member(kernel: Kernel, grid: SizeGrid, initial: NumberDensity, stops, eps) -> Trajectory:
    """The generalized run at ``eps``: a name of its own, so a profile tells it from the rest."""
    return run_model("generalized", kernel, grid, initial, stops[-1], stops, eps=eps)


def run_eps_sweep(members: MemberTable) -> DistanceTable:
    """Distance of each generalized run to the OHS (eps = 0) run, per snapshot.

    A member that computes eps = 0 is the OHS run: it reads that run, its
    verdicts and its failure, at distance 0.  A failed solve of
    the OHS run raises: no member can be measured.
    """
    config, grid = members.config, members.grid
    table = DistanceTable()
    ref, _, failure = members.run("ohs", None)
    if ref is None:
        raise failure
    for eps in sorted(config.eps_list, reverse=True):
        member, _, failure = members.run("generalized", eps)
        if failure is not None:
            table.fail(eps, config.n, failure)
            continue
        # both runs stop at the table's stops, and evolve lands on each stop exactly
        dists = _weighted_l1(grid.centers, grid.widths, member.values - ref.values,
                             config.kernel.sigma)
        table.rows += [(eps, config.n, t, d) for t, d in zip(member.times.tolist(), dists.tolist())]
    return table


def sce_constant_kernel_solution(mu, t, rate: float = 1.0):
    """Closed-form Smoluchowski solution for Lambda = rate, zeta_in = exp(-mu).

    zeta(mu, t) = (2 / (2 + rate t))^2 exp(-2 mu / (2 + rate t)).
    """
    m = 2.0 / (2.0 + rate * t)
    return m * m * np.exp(-m * np.asarray(mu))


def even_stops(horizon: float, count: int, what: str) -> tuple:
    """``count`` evenly spaced stops up to ``horizon``, horizon * k / count for k = 1..count.

    Where horizon * count would overflow, horizon is scaled down by a power
    of two first and each stop scaled back; both scalings are exact, so each
    stop keeps the bits of the product formula.  A horizon whose stops do
    not strictly increase from above 0 is a ConfigError that names
    ``time.horizon`` and ``what``, the stops it is too small for.
    """
    scale = 2.0 ** math.ceil(math.log2(count)) if horizon * count == math.inf else 1.0
    stops = tuple(horizon / scale * k / count * scale for k in range(1, count + 1))
    # a subnormal horizon rounds some of horizon * k / count to one value, or the first to 0
    if not (stops[0] > 0.0 and all(a < b for a, b in zip(stops, stops[1:]))):
        raise ConfigError(f"time.horizon {horizon:g} is too small for {what}: "
                          "the snapshot times do not strictly increase from above 0")
    return stops


def _mass_snapshots(config: SweepConfig) -> tuple:
    """The mass report's eight snapshot times up to the horizon."""
    return even_stops(config.horizon, 8, "the mass report's 8 snapshots")


def require_closed_forms(config: SweepConfig):
    """Raise ConfigError unless the closed forms apply: constant kernel, exponential data."""
    if config.kernel.family != "constant" or not isinstance(config.profile, ExponentialProfile):
        raise ConfigError("analytic validation requires the constant kernel and exponential data")


def validate_members(config: SweepConfig) -> MemberTable:
    """The table every check of ``validate`` reads: runs to max(horizon, 2),
    stopping at the mass report's snapshots and at ``CLOSED_FORM_TIMES``.  A
    mass report threshold outside the grid is refused here, before any solve."""
    require_closed_forms(config)
    members = MemberTable(config, sorted({*_mass_snapshots(config), *CLOSED_FORM_TIMES}))
    for frac in MASS_LAMBDA_FRACTIONS:
        diagnostics._snap_to_edge(members.grid, frac * config.n)
    return members


def validate_sce_constant_kernel(config: SweepConfig, traj: Trajectory) -> dict:
    """time -> weighted-L1 error of the SCE run ``traj`` against the closed form.

    The run is read at ``CLOSED_FORM_TIMES``.  The comparison projects the
    exact solution onto cell averages with the same quadrature used for
    initial data, so the reported numbers measure evolution error, not
    projection error.
    """
    require_closed_forms(config)
    rate = config.kernel.rate
    grid, traj = traj.grid, traj.select(CLOSED_FORM_TIMES)
    errors = {}
    for s in traj[1:]:  # select keeps the first snapshot, t = 0
        exact = sample_initial(lambda mu: sce_constant_kernel_solution(mu, s.time, rate), grid)
        errors[s.time] = transport_distance(s, exact, config.kernel.sigma)
    return errors


def riccati_m0(t, m0: float = 1.0, rate: float = 1.0):
    """M0(t) = 2 M0(0) / (2 + rate M0(0) t) for the constant kernel Lambda = rate."""
    return 2.0 * m0 / (2.0 + rate * m0 * t)


def validate_m0_riccati(config: SweepConfig, traj: Trajectory) -> dict:
    """time -> |M0 - riccati_m0| of the run ``traj`` at ``CLOSED_FORM_TIMES``.

    Every model obeys the same total-number ODE; M0(0) is read from the
    run's first snapshot.
    """
    traj = traj.select(CLOSED_FORM_TIMES)
    m0 = traj.moments(np.ones(traj.grid.size))
    error = np.abs(m0[1:] - riccati_m0(traj.times[1:], m0[0], config.kernel.rate))
    return dict(zip(traj.times[1:].tolist(), error.tolist()))


def mass_conservation_report(config: SweepConfig, traj: Trajectory) -> dict:
    """M1 series, ledger-closure residuals, and flux-identity residuals of ``traj``.

    ``traj``, a run on the config's grid, is read at the report's snapshot
    times, and the flux identities at ``MASS_LAMBDA_FRACTIONS`` of n.
    """
    grid, traj = traj.grid, traj.select(_mass_snapshots(config))
    m1 = traj.moments(grid.centers)
    closure = traj.ledger_closure()
    scale = max(m1[0], 1e-300)
    flux = []
    for frac in MASS_LAMBDA_FRACTIONS:
        res = diagnostics.mass_flux_identity(traj, frac * config.n, config.kernel)
        flux.append({
            "lambda": res["lambda"],
            "max_residual_rel": float(np.max(res["residual"]) / scale),
        })
    return {
        "times": traj.times.tolist(),
        "M1": m1.tolist(),
        "closure_rel": closure.tolist(),
        "max_closure_rel": float(closure.max()),
        "flux_identities": flux,
    }


def eps_limit_check(distances: dict) -> dict:
    """Check nonincreasing distance to the OHS run along decreasing eps.

    ``distances`` maps eps -> distance to the eps = 0 run.  A member that is
    the OHS run (:meth:`MemberTable.run`) sits last, at distance 0.  The
    floor is the sweep minimum.
    """
    eps_sorted = sorted(distances, reverse=True)
    vals = [distances[e] for e in eps_sorted]
    ok = all(later <= earlier * (1.0 + 1e-12) for earlier, later in zip(vals, vals[1:]))
    return {"passed": ok, "floor": min(vals), "eps_order": eps_sorted, "distances": vals}
