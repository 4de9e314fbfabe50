"""Trajectory diagnostics: moments, bound checks, weak-form identities.

Every a-priori estimate the models are supposed to satisfy becomes a
numerical check here: the moment bound Theta, the superlinear-moment bound
Theta_2(T), the uniform-integrability bound Theta_1(T), the test-function
identities relating the three model weak forms, the finite-size mass-flux
identity, tail-flux decay, and time equicontinuity moduli.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from . import testfuncs
from .errors import ConfigError, DomainError
from .operators import make_rhs
from .sizedomain import Trajectory, weight_values, write_csv

THETA_SLACK = 1.0e-10
CLOSURE_TOLERANCE = 1e-13  # of |M1 + outflux + clipped - M1(0)| / M1(0), for every run


class BoundVerdict(NamedTuple):
    """A checked inequality: the bound, the attained extreme, the margin."""

    name: str
    bound: float
    attained: float
    passed: bool
    details: dict = {}  # one shared empty dict: no check adds to it

    @property
    def margin(self):
        return self.bound - self.attained

    @property
    def line(self):
        """The line a command prints for the verdict, a failure text indented on the next."""
        line = (f"{'PASS' if self.passed else 'FAIL'}  {self.name}: "
                f"attained {self.attained:.6g} vs bound {self.bound:.6g}")
        return f"{line}\n      {self.details['failure']}" if "failure" in self.details else line

    def to_dict(self):
        return {
            "name": self.name,
            "bound": _json_number(self.bound),
            "attained": self.attained,
            "margin": _json_number(self.margin),
            "passed": bool(self.passed),
            "details": {k: _json_number(v) if isinstance(v, float) else v
                        for k, v in self.details.items()},
        }


def _json_number(x):
    """``x``, or None where it is not finite: JSON has no infinity or NaN."""
    return x if np.isfinite(x) else None


_MOMENT_COLUMNS = ("t", "M_neg2sigma", "M_negsigma", "M0", "M1", "Psi1", "Psi2int")


def moment_table(traj: Trajectory, sigma: float, gauge1, gauge2):
    """Per-snapshot moment series, as a dict of arrays keyed by column name."""
    x, dx = traj.grid.centers, traj.grid.widths
    weights = [weight_values(x, w, sigma) for w in ("neg_two_sigma", "neg_sigma", "one", "mass")]
    cols = {"t": traj.times, **dict(zip(_MOMENT_COLUMNS[1:5], traj.moments(weights)))}
    cols["Psi1"] = traj.moments(gauge1.psi(x))
    scale = x ** (-sigma)  # Psi2int goes one snapshot at a time: no temporary outgrows the block
    cols["Psi2int"] = np.array([np.sum(gauge2.psi(scale * row) * dx) for row in traj.values])
    return cols


def write_moments_csv(cols, path):
    write_csv(path, _MOMENT_COLUMNS, np.column_stack([cols[n] for n in _MOMENT_COLUMNS]))


def theta_bound_check(traj: Trajectory, sigma: float) -> BoundVerdict:
    """sup_t [M_{-2s}(t) + M_1(t)] <= Theta = M_{-2s}(0) + M_1(0).

    Theta is read from the first snapshot, the initial data.  The supremum
    is taken over the evolved snapshots (t > 0) when any exist, so the
    margin measures how far the evolution stays inside the bound; a
    trajectory holding only the initial snapshot reports margin 0.
    """
    series = traj.moments(weight_values(traj.grid.centers, "Y_norm", sigma))
    theta = float(series[0])
    evolved = series[1:] if len(series) > 1 else series
    attained = float(evolved.max())
    passed = attained <= theta * (1.0 + THETA_SLACK)
    idx = int(evolved.argmax()) + (1 if len(series) > 1 else 0)
    return BoundVerdict("theta_moment_bound", theta, attained, passed,
                        {"series_max_time": float(traj.times[idx])})


def psi1_moment_check(series, gauge, k: float, T: float, theta: float) -> BoundVerdict:
    """sup_t int Psi1(mu) zeta dmu <= (Gamma1 + 6 k T Psi1(1) Theta^2) e^(6 T k Theta).

    ``series`` is the moment table's Psi1.  All constants come from the run
    itself: Gamma1 is ``series[0]``, Theta the initial weighted norm.
    """
    gamma1 = float(series[0])
    psi_at_1 = float(gauge.psi(1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (gamma1 + 6.0 * k * T * psi_at_1 * theta**2) * np.exp(6.0 * T * k * theta)
    return _gronwall_verdict("psi1_moment_bound", bound, series,
                             {"gamma1": gamma1, "theta": theta, "psi_at_1": psi_at_1}, {"k": k})


def uniform_integrability_check(series, k: float, eta: float, T: float,
                                theta: float) -> BoundVerdict:
    """sup_t int Psi2(mu^(-s) zeta) dmu <= Gamma2 exp(max(k, eta) T Theta).

    ``series`` is the moment table's Psi2int.  Two exponential rates are defensible, from
    the growth constant k and from the derivative constant eta; both are reported
    and the check uses the larger, which dominates either.
    """
    gamma2 = float(series[0])
    c = max(k, eta)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = gamma2 * np.exp(c * T * theta)
        with_k, with_eta = gamma2 * np.exp(k * T * theta), gamma2 * np.exp(eta * T * theta)
    return _gronwall_verdict("psi2_uniform_integrability", bound, series, {
        "gamma2": gamma2, "theta": theta, "constant_used": c,
        "bound_with_k": float(with_k), "bound_with_eta": float(with_eta)}, {"k": k, "eta": eta})


def _gronwall_verdict(name: str, bound, series: np.ndarray, details: dict,
                      constants: dict) -> BoundVerdict:
    """sup of ``series`` <= ``bound``; a bound that is not finite checks nothing, fails, says why."""
    bound, attained = float(bound), float(series.max())
    if np.isfinite(bound):
        return BoundVerdict(name, bound, attained, attained <= bound * (1.0 + THETA_SLACK), details)
    infinite = " and ".join(f"{c} = {v:g}" for c, v in constants.items() if not np.isfinite(v))
    failure = (f"{infinite}: the kernel lies outside the paper's class (check-kernel fails it)"
               if infinite else f"the bound is not finite ({bound!r}): its exponent overflows a double")
    return BoundVerdict(name, bound, attained, False, {**details, "failure": failure})


def moment_monotonicity_check(moments) -> BoundVerdict:
    """M_{-2s} and M_1 of the moment table must be nonincreasing snapshot to snapshot."""
    worst = 0.0
    for series in (moments["M_neg2sigma"], moments["M1"]):
        slack = THETA_SLACK * series[0]
        rises = np.diff(series)
        worst = max(worst, float(rises.max(initial=-np.inf)) - slack)
    passed = worst <= 0.0
    return BoundVerdict("moment_monotonicity", 0.0, worst, passed)


def weak_form_residual(traj: Trajectory, omega, kernel, model: str,
                       eps: float | None = None) -> np.ndarray:
    """|time-integrated weak action - moment change| per snapshot.

    The right-hand side evaluates the model's operator once on each snapshot
    and accumulates sum_i omega(x_i) Q_i dx_i by the trapezoidal rule.
    ``omega`` is a test function's samples at the cell centers, or a stack
    of samples with one test function per row; a stack gives one row of
    residuals per test function.
    """
    grid = traj.grid
    om = np.asarray(omega, dtype=float)
    stack = np.atleast_2d(om)
    if stack.shape[1:] != grid.centers.shape:
        raise ConfigError("omega must be sampled on the grid")
    rhs_op = make_rhs(model, kernel, eps)
    values = traj.values
    terms = np.empty_like(values)
    for row, s in zip(terms, traj):
        np.multiply(rhs_op(s)[0], grid.widths, out=row)
    actions = np.einsum("ki,ti->kt", terms, stack)
    np.subtract(values, values[0], out=terms)
    terms *= grid.widths
    lhs = np.einsum("ki,ti->kt", terms, stack)
    residual = np.abs(lhs - _trapezoid(traj.times, actions)).T
    return residual if om.ndim == 2 else residual[0]


def _trapezoid(times, rates) -> np.ndarray:
    """int_{t_0}^{t_k} rate ds at every snapshot k, by the trapezoidal rule.

    ``rates`` holds one row per snapshot; each column is integrated alone.
    """
    rates = np.asarray(rates, dtype=float)
    dt = np.diff(times).reshape((-1,) + (1,) * (rates.ndim - 1))
    out = np.zeros_like(rates)
    out[1:] = np.cumsum(0.5 * dt * (rates[:-1] + rates[1:]), axis=0)
    return out


def _crossing_rates(traj: Trajectory, m: int, kernel) -> np.ndarray:
    """Mass rate that collisions carry across edge m, per snapshot and small partner.

    Entry [k, j] is sum_{i >= m} Lambda(x_i, x_j) zeta_i dx_i * x_j zeta_j dx_j
    at snapshot k, for the small partner j < m.  Since x_j < x_i, the kernel
    factors give it as sum_r (sum_{i >= m} f_r[i] zeta_i dx_i) g_r[j], which
    costs O(rank * N) per snapshot and sums only nonnegative terms.  The
    small partners' factor x_j zeta_j dx_j is formed one snapshot at a
    time, so no temporary is larger than the block.
    """
    x, dx = traj.grid.centers, traj.grid.widths
    values = traj.values
    factors = kernel.factors(x)
    f = np.array([fr[m:] for fr, _ in factors])
    g = np.array([gr[:m] for _, gr in factors])
    rates = np.einsum("kr,rj->kj", np.einsum("ki,ri->kr", values[:, m:] * dx[m:], f), g)
    for row, zeta in zip(rates, values):
        row *= x[:m] * (zeta[:m] * dx[:m])
    return rates


def _snap_to_edge(grid, lam):
    if not (grid.edges[0] < lam <= grid.edges[-1]):
        raise DomainError(f"lambda={lam} outside the domain (1/n, n]")
    m = int(np.argmin(np.abs(grid.edges - lam)))
    return max(1, m)


def _edge_velocity(traj: Trajectory, m: int, kernel) -> np.ndarray:
    """Per snapshot, sum_{x_j < x[m-1]} Lambda(e_m, x_j) x_j zeta_j dx_j: the velocity at edge m.

    Lambda(e_m, x_j) = sum_r f_r(e_m) g_r(x_j) is read through the kernel factors.
    """
    grid = traj.grid
    f = [fr[0] for fr, _ in kernel.factors(grid.edges[m:m + 1])]
    g = [gr[: m - 1] for _, gr in kernel.factors(grid.centers)]
    weights = np.einsum("r,rj->j", f, g) * grid.centers[: m - 1] * grid.widths[: m - 1]
    return np.einsum("kj,j->k", traj.values[:, : m - 1], weights)


def mass_flux_identity(traj: Trajectory, lam: float, kernel) -> dict:
    """Residual of the finite-size mass balance at threshold lambda.

    Checks, per snapshot,

        int_0^lam mu zeta(t) - int_0^lam mu zeta_in
          = - int_0^t [ lam * (advective mass flux across lam)
                        + sum over (big > lam, small < lam) pairs of
                          small * Lambda * zeta * zeta ] ds.

    The advective boundary term uses the edge-sampled velocity; it is the
    finite-lambda flux that the limit lambda -> infinity removes.  lambda
    is snapped to the nearest grid edge; lambda = n reduces to the ledger
    closure (empty collision range, boundary term = recorded outflux).
    ``split`` holds the collision term per snapshot, split by the small
    partner's size: below one, and in [1, lambda); its rows are zero at n.
    """
    grid = traj.grid
    x, dx = grid.centers, grid.widths
    values = traj.values
    m = _snap_to_edge(grid, lam)
    lam_edge = float(grid.edges[m])
    terms = x[:m] * values[:, :m]
    terms *= dx[:m]
    mass = np.sum(terms, axis=-1)
    del terms  # not alive with the crossing rates below: the peak stays one block
    lhs = mass - mass[0]
    if m == grid.size:  # whole domain: the boundary term is exactly the outflux ledger
        rhs, split = -np.asarray(traj.outflux), np.zeros((len(traj), 2))
    else:
        rates = _crossing_rates(traj, m, kernel)
        c = int(np.count_nonzero(x[:m] < 1.0))  # the partners below one lead
        split = np.stack([rates[:, :c].sum(axis=1), rates[:, c:].sum(axis=1)], axis=1)
        flux = lam_edge * values[:, m - 1] * _edge_velocity(traj, m, kernel)
        rhs = -_trapezoid(traj.times, split.sum(axis=1) + flux)
    return {"lambda": lam_edge, "residual": np.abs(lhs - rhs), "lhs": lhs, "rhs": rhs,
            "split": split}


def tail_flux_decay(identities, times) -> list[dict]:
    """Time-integrated tail flux past each lambda, split by partner size.

    ``identities`` are the :func:`mass_flux_identity` results of one run
    whose snapshots lie at ``times``; each one's ``split`` is integrated.
    The split follows the small-partner decomposition: partners below size
    one (``sigma1``) versus partners in (1, lambda) (``sigma2``).  Entries
    vanish at lambda = n.
    """
    out = []
    for identity in identities:
        i1, i2 = (float(v) for v in _trapezoid(times, identity["split"])[-1])
        out.append({"lambda": identity["lambda"], "sigma1": i1, "sigma2": i2, "total": i1 + i2})
    return out


def equicontinuity_modulus(traj: Trajectory, omega, sigma: float, k: float,
                           theta: float) -> BoundVerdict:
    """Lipschitz modulus of t -> int mu^(-s) omega zeta dmu vs the a-priori rate.

    The bound is k (||omega||_W1inf + ||omega||_inf) Theta^2 with Theta the
    initial weighted norm.  The modulus is the largest slope between
    consecutive snapshots: a chord's slope is a weighted mean of the
    consecutive slopes it spans, so no pair of snapshots gives a larger one.
    """
    x = traj.grid.centers
    series = traj.moments(x ** (-sigma) * omega(x))
    slopes = np.abs(np.diff(series)) / np.diff(traj.times)
    modulus = float(np.max(slopes, initial=0.0))
    bound = k * (omega.w1inf_norm + omega.sup_value) * theta**2
    passed = modulus <= bound * (1.0 + THETA_SLACK)
    return BoundVerdict(f"equicontinuity[{omega.name}]", float(bound), modulus, passed,
                        {"theta": theta})


def bound_verdicts(traj: Trajectory, kernel, horizon: float, gauges):
    """The moment table of a run and the verdicts that decide it, the ledger closure last.

    They are the a-priori bounds the existence proof carries to its limit;
    ``gauges`` is (Psi1, Psi2) of the first snapshot, the initial data.
    Table and Theta are computed once.
    """
    sigma, k = kernel.sigma, kernel.k
    moments = moment_table(traj, sigma, *gauges)
    verdicts = [theta_bound_check(traj, sigma), moment_monotonicity_check(moments)]
    theta = verdicts[0].bound
    verdicts += [psi1_moment_check(moments["Psi1"], gauges[0], k, horizon, theta),
                 uniform_integrability_check(moments["Psi2int"], k, kernel.eta, horizon, theta)]
    verdicts += [equicontinuity_modulus(traj, om, sigma, k, theta)
                 for om in testfuncs.bump_library(traj.grid)]
    # a mass leak lowers M1, which the moment checks cannot tell from coagulation
    closure = float(traj.ledger_closure().max())
    return moments, verdicts + [BoundVerdict("ledger_closure", CLOSURE_TOLERANCE, closure,
                                             closure <= CLOSURE_TOLERANCE)]


class DiagnosticsReport(NamedTuple):
    """All diagnostics of one run, serializable to JSON."""

    model: str
    eps: float | None
    sigma: float
    moments: dict
    verdicts: list
    weak_residuals: dict = {}  # the empty defaults are shared and never mutated
    flux_identities: list = []
    tail_fluxes: list = []
    ledger: dict = {}

    def all_passed(self):
        return all(v.passed for v in self.verdicts)

    def to_dict(self):
        """The report as JSON types, except that every series is a float array."""
        return {
            "model": self.model,
            "eps": self.eps,
            "sigma": self.sigma,
            "moments": {k: np.asarray(v, dtype=float) for k, v in self.moments.items()},
            "verdicts": [v.to_dict() for v in self.verdicts],
            "weak_residuals": {k: np.asarray(v, dtype=float)
                               for k, v in self.weak_residuals.items()},
            "flux_identities": [{"lambda": f["lambda"],
                                 "residual": np.asarray(f["residual"], dtype=float)}
                                for f in self.flux_identities],
            "tail_fluxes": self.tail_fluxes,
            "ledger": self.ledger,
        }

    def write_json(self, path):
        # each series becomes a list only when the encoder reaches it
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False,
                      default=np.ndarray.tolist)
