"""Convergence studies and analytic validation across the model family.

The eps sweep probes the interpolation limit at desk scale: generalized
runs at decreasing eps are compared against the transport (OHS) limit, the
eps = 0 member of the same pair scheme on the same grid, in the weighted L1
metric with weight mu^(-sigma) + mu, the natural topology for singular
kernels.

Every study reads one :class:`MemberTable`, which solves each distinct run
once: runs on one grid that compute the same eps
(:func:`~gencoag.operators.computed_eps`) are one run.  ``sweep`` passes
one table to the eps- and n-studies, so the n-study reads the runs the
eps-study solved; every check of ``validate`` reads the table of
:func:`validate_members`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import diagnostics
from .errors import ConfigError, GencoagError
from .integrator import evolve
from .kernels import Kernel
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

DEFAULT_EPS_LIST = tuple(2.0 ** (-i) for i in range(11))
# times at which the closed forms of ``validate`` are checked
CLOSED_FORM_TIMES = (0.5, 1.0, 2.0)
# the pass thresholds of ``validate``: weighted-L1 error of the SCE closed
# form, error of the M0 Riccati law, and relative mass-ledger closure
SCE_TOLERANCE = 2e-2
M0_TOLERANCE = 1e-3
CLOSURE_TOLERANCE = 1e-8
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
    """Sweep members: generalized runs at each eps of ``eps_list`` on each n's
    grid.  A member below sqrt(r) - 1 of its grid is the OHS run (eps = 0)."""

    kernel: Kernel
    eps_list: tuple = DEFAULT_EPS_LIST
    n_list: tuple = (50.0,)
    cells_per_decade: int = 32
    profile: object = ExponentialProfile()  # stateless, so one instance serves every config
    horizon: float = 1.0

    def validate(self):
        if not (self.eps_list and self.n_list):
            raise ConfigError("eps_list and n_list must not be empty")
        if any(not (0.0 < e <= 1.0) for e in self.eps_list):
            raise ConfigError("eps values must lie in (0, 1]")
        if any(n <= 1.0 for n in self.n_list):
            raise ConfigError("n values must exceed 1")
        for name, values in (("eps_list", self.eps_list), ("n_list", self.n_list)):
            if len(set(values)) < len(values):  # a run compared with itself reads 0
                raise ConfigError(f"{name} repeats a value: {list(values)}")
        if not self.horizon > 0.0:  # at 0 every distance and closure reads 0
            raise ConfigError("horizon must be > 0")
        return self


class DistanceTable:
    """Rows (eps, n, time, distance) plus failed member markers."""

    def __init__(self):
        self.rows = []
        self.failed = []

    def at_time(self, t, n=None):
        """eps -> distance at the snapshot at t (of n's rows, if n is given)."""
        return {eps: d for eps, nn, tt, d in self.rows
                if (n is None or nn == n) and abs(tt - t) < 1e-9 * max(t, 1.0)}

    def write_csv(self, path):
        write_csv(path, ["eps", "n", "time", "distance"], self.rows)


def run_model(model: str, kernel: Kernel, grid: SizeGrid, initial: NumberDensity,
              horizon: float, snapshot_times=None, eps: float | None = None,
              observers=()) -> Trajectory:
    """Evolve one model on one grid; the grid is the truncated domain."""
    rhs = make_rhs(model, kernel, eps)
    return evolve(initial, rhs, horizon, snapshot_times, observers)


def transport_distance(a: NumberDensity, b: NumberDensity, sigma: float) -> float:
    """Weighted L1 distance with weight mu^(-s) + mu."""
    if a.grid is not b.grid and not np.array_equal(a.grid.centers, b.grid.centers):
        raise ConfigError("distance requires a common grid")
    return float(_weighted_l1(a.grid.centers, a.grid.widths, a.values - b.values, sigma))


def _weighted_l1(centers, widths, diff, sigma: float) -> np.ndarray:
    """sum_i (x_i^(-s) + x_i) |diff_i| dx_i, per row of ``diff``."""
    w = centers ** (-sigma) + centers
    return np.sum(w * np.abs(diff) * widths, axis=-1)


class MemberTable:
    """The distinct runs of one config, each solved once, on its first read.

    A member is (computed eps, n): runs on n's grid whose model and eps
    compute the same eps (:func:`~gencoag.operators.computed_eps`) are one
    run.  Each grid and its data are built once; each run stops at every one
    of ``stops`` (increasing; the horizon by default) and ends at the last.
    """

    def __init__(self, config: SweepConfig, stops=None):
        self.config = config.validate()
        self.stops = tuple(stops or (config.horizon,))
        self._grids, self._runs = {}, {}

    def grid(self, n: float) -> tuple:
        """(grid, initial data) of n."""
        if n not in self._grids:
            grid = make_grid(n, self.config.cells_per_decade)
            self._grids[n] = grid, sample_initial(self.config.profile, grid)
        return self._grids[n]

    def run(self, model: str, eps: float | None, n: float) -> tuple:
        """(traj, failure) of ``model`` at ``eps`` on n's grid.

        ``failure`` is None or {type, message, time, dt}.  ``traj`` is None if
        the solve failed; a run above the weighted-moment bound keeps it.
        """
        grid, initial = self.grid(n)
        key = (computed_eps(model, eps, grid.ratio()), n)
        if key not in self._runs:
            self._runs[key] = self._solve(model, eps, grid, initial)
        return self._runs[key]

    def _solve(self, model, eps, grid, initial):
        kernel, stops = self.config.kernel, self.stops
        try:
            if model == "generalized":
                traj = _eps_member(kernel, grid, initial, stops, eps)
            else:
                traj = run_model(model, kernel, grid, initial, stops[-1], stops)
        except GencoagError as exc:
            # stiffness or config failure: mark, keep going; a bug still raises.
            # time and dt come from a StiffnessError
            return None, {"type": type(exc).__name__, "message": str(exc),
                          "time": getattr(exc, "time", None), "dt": getattr(exc, "dt", None)}
        theta = diagnostics.theta_bound_check(traj, initial, kernel.sigma)
        if not theta.passed:
            return traj, {"type": "MomentBoundViolation", "time": None, "dt": None,
                          "message": f"moment bound violated: {theta.attained!r} > {theta.bound!r}"}
        return traj, None


def _eps_member(kernel: Kernel, grid: SizeGrid, initial: NumberDensity, stops, eps) -> Trajectory:
    """The generalized run at ``eps``: a name of its own, so a profile tells it from the rest."""
    return run_model("generalized", kernel, grid, initial, stops[-1], stops, eps=eps)


def run_eps_sweep(members: MemberTable) -> DistanceTable:
    """Distance of each generalized run to the OHS (eps = 0) run, per snapshot.

    A member that computes eps = 0 is the OHS run: it reads that run, its
    moment-bound check and its failure, at distance 0.  A failed solve of
    the OHS run raises: no member can be measured.
    """
    config = members.config
    table = DistanceTable()
    sigma = config.kernel.sigma
    for n in config.n_list:
        grid, _ = members.grid(n)
        ref, failure = members.run("ohs", None, n)
        if ref is None:
            raise GencoagError(failure["message"])
        for eps in sorted(config.eps_list, reverse=True):
            member, failure = members.run("generalized", eps, n)
            if failure is not None:
                table.failed.append({"eps": eps, "n": n, "error": failure})
                continue
            # both runs stop at the table's stops, and evolve lands on each stop exactly
            dists = _weighted_l1(grid.centers, grid.widths, member.values - ref.values, sigma)
            table.rows += [(eps, n, t, d) for t, d in zip(member.times.tolist(), dists.tolist())]
    return table


def overlap_distance(a: NumberDensity, b: NumberDensity, sigma: float) -> float:
    """Weighted L1 distance of two piecewise-constant densities on the
    overlap of their domains.

    The union of both edge sets resolves |a - b| exactly; the weight is
    sampled at segment geometric midpoints, consistent with the midpoint
    moments used everywhere else.
    """
    lo = max(a.grid.edges[0], b.grid.edges[0])
    hi = min(a.grid.edges[-1], b.grid.edges[-1])
    if hi <= lo:
        return 0.0
    edges = np.unique(np.concatenate([
        a.grid.edges[(a.grid.edges >= lo) & (a.grid.edges <= hi)],
        b.grid.edges[(b.grid.edges >= lo) & (b.grid.edges <= hi)],
        [lo, hi],
    ]))
    mid = np.sqrt(edges[:-1] * edges[1:])
    width = np.diff(edges)

    def sample(d, pts):
        idx = np.clip(np.searchsorted(d.grid.edges, pts, side="right") - 1, 0, d.grid.size - 1)
        return d.values[idx]

    return float(_weighted_l1(mid, width, sample(a, mid) - sample(b, mid), sigma))


def run_n_sweep(members: MemberTable) -> DistanceTable:
    """Cauchy-style distances between successive-n members at the first eps.

    Distances are measured at the horizon, on the overlap of the two
    domains.  For the comparison to reflect truncation (tail-mass) effects
    rather than grid misalignment, pick n = 10^(m / cells_per_decade): those
    grids share one edge lattice, free of the staircase mismatch that
    misaligned grids add at first order in the cell width.
    """
    config = members.config
    eps = config.eps_list[0]
    table = DistanceTable()
    finals = []
    for n in config.n_list:
        traj, failure = members.run("generalized", eps, n)
        if failure is not None:
            table.failed.append({"eps": eps, "n": n, "error": failure})
        finals.append(traj[-1] if failure is None else None)
    sigma = config.kernel.sigma
    for cur_n, prev, cur in zip(config.n_list[1:], finals, finals[1:]):
        if prev is None or cur is None:
            continue
        table.rows.append((eps, cur_n, config.horizon, overlap_distance(prev, cur, sigma)))
    return table


def sce_constant_kernel_solution(mu, t, rate: float = 1.0):
    """Closed-form Smoluchowski solution for Lambda = rate, zeta_in = exp(-mu).

    zeta(mu, t) = (2 / (2 + rate t))^2 exp(-2 mu / (2 + rate t)).
    """
    m = 2.0 / (2.0 + rate * t)
    return m * m * np.exp(-m * np.asarray(mu))


def _mass_snapshots(config: SweepConfig) -> tuple:
    """Snapshot times of the mass report: eight up to the horizon."""
    return tuple(config.horizon * k / 8.0 for k in range(1, 9))


def require_closed_forms(config: SweepConfig):
    """Raise ConfigError unless the closed forms apply: constant kernel, exponential data."""
    if config.kernel.family != "constant" or not isinstance(config.profile, ExponentialProfile):
        raise ConfigError("analytic validation requires the constant kernel and exponential data")


def validate_members(config: SweepConfig) -> MemberTable:
    """The table every check of ``validate`` reads: runs on the first grid
    to max(horizon, 2), stopping at the mass report's snapshots and at
    ``CLOSED_FORM_TIMES``."""
    require_closed_forms(config)
    return MemberTable(config, sorted({*_mass_snapshots(config), *CLOSED_FORM_TIMES}))


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

    ``traj``, a run on the config's first grid, is read at the report's
    snapshot times, and the flux identities at ``MASS_LAMBDA_FRACTIONS`` of n.
    """
    n = config.n_list[0]
    grid, traj = traj.grid, traj.select(_mass_snapshots(config))
    m1 = traj.moments(grid.centers)
    closure = traj.ledger_closure()
    scale = max(m1[0], 1e-300)
    flux = []
    for frac in MASS_LAMBDA_FRACTIONS:
        res = diagnostics.mass_flux_identity(traj, frac * n, config.kernel)
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
