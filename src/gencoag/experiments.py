"""Convergence studies and analytic validation across the model family.

The eps sweep probes the interpolation limit at desk scale: generalized
runs at decreasing eps are compared against a direct discretization of the
transport (OHS) limit on the same grid, in the weighted L1 metric with
weight mu^(-sigma) + mu, the natural topology for singular kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GencoagError
from .integrator import DtPolicy, evolve
from .kernels import Kernel, truncate
from .operators import make_rhs
from .sizedomain import (
    ExponentialProfile,
    NumberDensity,
    SizeGrid,
    Trajectory,
    make_grid,
    sample_initial,
    weight_values,
    weighted_norm,
    write_csv,
)

DEFAULT_EPS_LIST = tuple(2.0 ** (-i) for i in range(11))
# distance to the OHS run allowed for eps below sqrt(ratio) - 1 of the grid:
# the operators agree there, so only time-integration error remains
LIMIT_TOLERANCE = 1e-7


@dataclass
class SweepConfig:
    """Everything one sweep member needs, value-semantic and picklable."""

    kernel: Kernel
    eps_list: tuple = DEFAULT_EPS_LIST
    n_list: tuple = (50.0,)
    cells_per_decade: int = 32
    profile: object = field(default_factory=ExponentialProfile)
    horizon: float = 1.0
    policy: DtPolicy = field(default_factory=DtPolicy)
    snapshot_times: tuple | None = None
    threads: int = 1
    seed: int = 0

    def validate(self):
        if any(not (0.0 < e <= 1.0) for e in self.eps_list):
            raise ConfigError("eps values must lie in (0, 1]")
        if any(n <= 1.0 for n in self.n_list):
            raise ConfigError("n values must exceed 1")
        if self.horizon < 0.0:
            raise ConfigError("horizon must be >= 0")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        return self


@dataclass
class DistanceTable:
    """Rows (eps, n, time, distance) plus failed member markers."""

    rows: list = field(default_factory=list)
    failed: list = field(default_factory=list)

    def at_time(self, t, n=None):
        """eps -> distance at the snapshot closest to t."""
        out = {}
        for eps, nn, tt, d in self.rows:
            if n is not None and nn != n:
                continue
            if abs(tt - t) < 1e-9 * max(t, 1.0):
                out[eps] = d
        return out

    def write_csv(self, path):
        write_csv(path, ["eps", "n", "time", "distance"], self.rows)


def run_model(model: str, kernel: Kernel, grid: SizeGrid, initial: NumberDensity,
              horizon: float, policy: DtPolicy, snapshot_times=None,
              eps: float | None = None, observers=()) -> Trajectory:
    """Evolve one model on one grid with the kernel truncated to it."""
    rhs = make_rhs(model, truncate(kernel, grid.n), eps)
    return evolve(initial, rhs, horizon, policy, snapshot_times, observers)


def _failure(exc: GencoagError) -> dict:
    """Typed reason of a failed sweep member; time and dt come from a StiffnessError."""
    return {"type": type(exc).__name__, "message": str(exc),
            "time": getattr(exc, "time", None), "dt": getattr(exc, "dt", None)}


def transport_distance(a: NumberDensity, b: NumberDensity, sigma: float) -> float:
    """Weighted L1 distance with weight mu^(-s) + mu."""
    if a.grid is not b.grid and not np.array_equal(a.grid.centers, b.grid.centers):
        raise ConfigError("distance requires a common grid")
    return float(_weighted_l1(a.grid.centers, a.grid.widths, a.values - b.values, sigma))


def _weighted_l1(centers, widths, diff, sigma: float) -> np.ndarray:
    """sum_i (x_i^(-s) + x_i) |diff_i| dx_i, per row of ``diff``."""
    w = centers ** (-sigma) + centers
    return np.sum(w * np.abs(diff) * widths, axis=-1)


def _eps_member(args):
    config, n, eps = args
    grid = make_grid(n, config.cells_per_decade)
    initial = sample_initial(config.profile, grid)
    snaps = config.snapshot_times or (config.horizon,)
    try:
        traj = run_model("generalized", config.kernel, grid, initial,
                         config.horizon, config.policy, snaps, eps=eps)
    except GencoagError as exc:
        # stiffness or config failure: mark, keep sweeping; a bug still raises
        return eps, n, None, _failure(exc)
    # every member must individually respect the weighted-moment bound
    sigma = config.kernel.sigma
    theta = weighted_norm(initial, "Y_norm", sigma)
    worst = float(traj.moments(weight_values(grid.centers, "Y_norm", sigma)).max())
    if worst > theta * (1.0 + 1e-10):
        return eps, n, None, {"type": "MomentBoundViolation", "time": None, "dt": None,
                              "message": f"moment bound violated: {worst!r} > {theta!r}"}
    return eps, n, (traj.times, traj.values), None


def run_eps_sweep(config: SweepConfig) -> DistanceTable:
    """Distance of each generalized run to the direct OHS run, per snapshot."""
    config.validate()
    table = DistanceTable()
    sigma = config.kernel.sigma
    for n in config.n_list:
        grid = make_grid(n, config.cells_per_decade)
        initial = sample_initial(config.profile, grid)
        snaps = config.snapshot_times or (config.horizon,)
        ref = run_model("ohs", config.kernel, grid, initial,
                        config.horizon, config.policy, snaps)
        ref_times = np.round(ref.times, 12)
        jobs = [(config, n, eps) for eps in config.eps_list]
        if config.threads > 1 and len(jobs) > 1:
            # imported here so that commands which never pool do not load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.threads) as pool:
                results = list(pool.map(_eps_member, jobs))
        else:
            results = [_eps_member(j) for j in jobs]
        for eps, nn, member, err in sorted(results, key=lambda r: -r[0]):
            if err is not None:
                table.failed.append({"eps": eps, "n": nn, "error": err})
                continue
            times, values = member
            keys = np.round(times, 12)
            hit = np.isin(keys, ref_times)
            ref_rows = ref.values[np.searchsorted(ref_times, keys[hit])]
            dists = _weighted_l1(grid.centers, grid.widths, values[hit] - ref_rows, sigma)
            table.rows += [(eps, nn, t, d) for t, d in zip(times[hit].tolist(), dists.tolist())]
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


def lattice_n(m: int, cells_per_decade: int) -> float:
    """n = 10^(m / cells_per_decade): the n values whose geometric grids
    share a common edge lattice (every edge a power of 10^(1/cpd)).

    Successive-n comparisons on lattice-aligned grids are free of the
    piecewise-constant staircase mismatch that misaligned grids add at
    first order in the cell width.
    """
    return 10.0 ** (m / cells_per_decade)


def run_n_sweep(config: SweepConfig, model: str = "generalized",
                eps: float | None = None) -> DistanceTable:
    """Cauchy-style distances between successive-n solutions at the horizon.

    Distances are measured on the overlap of the two domains.  For the
    comparison to reflect truncation (tail-mass) effects rather than grid
    misalignment, pick n values from :func:`lattice_n`.
    """
    config.validate()
    if model == "generalized" and eps is None:
        eps = config.eps_list[0]
    table = DistanceTable()
    finals = []
    for n in config.n_list:
        grid = make_grid(n, config.cells_per_decade)
        initial = sample_initial(config.profile, grid)
        try:
            traj = run_model(model, config.kernel, grid, initial, config.horizon,
                             config.policy, (config.horizon,), eps=eps)
        except GencoagError as exc:
            table.failed.append({"eps": eps, "n": n, "error": _failure(exc)})
            finals.append(None)
            continue
        finals.append(traj[-1])
    sigma = config.kernel.sigma
    for prev_n, cur_n, prev, cur in zip(config.n_list, config.n_list[1:], finals, finals[1:]):
        if prev is None or cur is None:
            continue
        d = overlap_distance(prev, cur, sigma)
        table.rows.append((eps if eps is not None else 1.0, cur_n, config.horizon, d))
    return table


def sce_constant_kernel_solution(mu, t, rate: float = 1.0):
    """Closed-form Smoluchowski solution for Lambda = rate, zeta_in = exp(-mu).

    zeta(mu, t) = (2 / (2 + rate t))^2 exp(-2 mu / (2 + rate t)).
    """
    m = 2.0 / (2.0 + rate * t)
    return m * m * np.exp(-m * np.asarray(mu))


def validate_sce_constant_kernel(config: SweepConfig, times=(0.5, 1.0, 2.0)) -> dict:
    """Weighted-L1 error of the SCE run against the closed form.

    The comparison projects the exact solution onto cell averages with the
    same quadrature used for initial data, so the reported numbers measure
    evolution error, not projection error.
    """
    if config.kernel.family != "constant" or not isinstance(config.profile, ExponentialProfile):
        raise ConfigError("analytic validation requires the constant kernel and exponential data")
    rate = config.kernel.rate
    n = config.n_list[0]
    grid = make_grid(n, config.cells_per_decade)
    initial = sample_initial(config.profile, grid)
    traj = run_model("sce", config.kernel, grid, initial, max(times), config.policy, times)
    errors = {}
    for s in traj:
        if s.time == 0.0:
            continue
        exact = sample_initial(lambda mu: sce_constant_kernel_solution(mu, s.time, rate), grid)
        errors[s.time] = transport_distance(s, exact, config.kernel.sigma)
    return {"errors": errors, "mass_series": traj.moments(grid.centers).tolist(),
            "grid_cells": grid.size, "cells_per_decade": config.cells_per_decade}


def riccati_m0(t, m0: float = 1.0):
    """M0(t) = 2 M0(0) / (2 + M0(0) t) for the unit constant kernel."""
    return 2.0 * m0 / (2.0 + m0 * t)


def validate_m0_riccati(config: SweepConfig, model: str, eps: float | None = None,
                        times=(0.5, 1.0, 2.0)) -> dict:
    """Total-number law under Lambda = 1: every model obeys the same ODE.

    Initial data are rescaled so the discrete M0(0) is exactly one, making
    the closed form 2 / (2 + t).
    """
    if config.kernel.family != "constant" or config.kernel.rate != 1.0:
        raise ConfigError("the M0 law holds for the unit constant kernel")
    n = config.n_list[0]
    grid = make_grid(n, config.cells_per_decade)
    initial = sample_initial(config.profile, grid)
    m0 = weighted_norm(initial, "one")
    initial = initial.replace(values=initial.values / m0)
    traj = run_model(model, config.kernel, grid, initial, max(times), config.policy,
                     times, eps=eps)
    times = traj.times
    error = np.abs(traj.moments(np.ones(grid.size)) - riccati_m0(times))
    later = times != 0.0
    errors = dict(zip(times[later].tolist(), error[later].tolist()))
    return {"errors": errors, "model": model, "eps": eps, "grid_cells": grid.size}


def mass_conservation_report(config: SweepConfig, model: str,
                             eps: float | None = None,
                             lambda_fractions=(0.125, 0.25, 0.5, 1.0)) -> dict:
    """M1 series, ledger-closure residuals, and flux-identity residuals."""
    from .diagnostics import mass_flux_identity  # local import: avoid cycle

    n = config.n_list[0]
    grid = make_grid(n, config.cells_per_decade)
    initial = sample_initial(config.profile, grid)
    snaps = config.snapshot_times or tuple(
        config.horizon * k / 8.0 for k in range(1, 9)
    )
    traj = run_model(model, config.kernel, grid, initial, config.horizon,
                     config.policy, snaps, eps=eps)
    m1 = traj.moments(grid.centers)
    closure = traj.ledger_closure()
    scale = max(m1[0], 1e-300)
    trunc = truncate(config.kernel, grid.n)
    flux = []
    for frac in lambda_fractions:
        res = mass_flux_identity(traj, frac * n, trunc)
        flux.append({
            "lambda": res["lambda"],
            "max_residual_rel": float(np.max(res["residual"]) / scale),
        })
    return {
        "model": model,
        "eps": eps,
        "times": traj.times.tolist(),
        "M1": m1.tolist(),
        "closure_rel": closure.tolist(),
        "max_closure_rel": float(closure.max()),
        "flux_identities": flux,
        "trajectory": traj,
    }


def eps_limit_check(distances: dict, ratio: float) -> dict:
    """Check nonincreasing distance to the OHS run along decreasing eps, then the limit.

    ``distances`` maps eps -> distance.  Below sqrt(ratio) - 1 every pair's
    product lies before the next pivot (n = sqrt(ratio) x[-1] for the top
    cell), where the pair scheme is the OHS quadrature: there each distance
    must be at most ``LIMIT_TOLERANCE``.  The floor is the sweep minimum.
    """
    eps_sorted = sorted(distances, reverse=True)
    vals = [distances[e] for e in eps_sorted]
    coarse = [d for e, d in zip(eps_sorted, vals) if e >= np.sqrt(ratio) - 1.0]
    ok = all(later <= earlier * (1.0 + 1e-12) for earlier, later in zip(coarse, coarse[1:]))
    ok = ok and all(d <= LIMIT_TOLERANCE for d in vals[len(coarse):])
    return {"passed": ok, "floor": min(vals), "eps_order": eps_sorted, "distances": vals}
