"""Trajectory diagnostics: moments, bound checks, weak-form identities.

Every a-priori estimate the models are supposed to satisfy becomes a
numerical check here: the moment bound Theta, the superlinear-moment bound
Theta_2(T), the uniform-integrability bound Theta_1(T), the test-function
identities relating the three model weak forms, the finite-size mass-flux
identity, tail-flux decay, and time equicontinuity moduli.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .operators import make_rhs
from .sizedomain import Trajectory, weight_values, weighted_norm, write_csv

THETA_SLACK = 1.0e-10


@dataclass
class BoundVerdict:
    """A checked inequality: the bound, the attained extreme, the margin."""

    name: str
    bound: float
    attained: float
    passed: bool
    details: dict = field(default_factory=dict)

    @property
    def margin(self):
        return self.bound - self.attained

    def to_dict(self):
        return {
            "name": self.name,
            "bound": self.bound,
            "attained": self.attained,
            "margin": self.margin,
            "passed": bool(self.passed),
            "details": self.details,
        }


_MOMENT_COLUMNS = ("t", "M_neg2sigma", "M_negsigma", "M0", "M1", "Psi1", "Psi2int")


def _psi2_series(traj: Trajectory, gauge2, sigma: float) -> np.ndarray:
    """int Psi2(mu^(-s) zeta) dmu per snapshot."""
    x, dx = traj.grid.centers, traj.grid.widths
    return np.sum(gauge2.psi(x ** (-sigma) * traj.values) * dx, axis=-1)


def moment_table(traj: Trajectory, sigma: float, gauge1=None, gauge2=None):
    """Per-snapshot moment series, as a dict of arrays keyed by column name."""
    x = traj.grid.centers
    weights = [weight_values(x, w, sigma) for w in ("neg_two_sigma", "neg_sigma", "one", "mass")]
    cols = {"t": traj.times, **dict(zip(_MOMENT_COLUMNS[1:5], traj.moments(weights)))}
    missing = np.full(len(traj), np.nan)
    cols["Psi1"] = missing if gauge1 is None else traj.moments(gauge1.psi(x))
    cols["Psi2int"] = missing if gauge2 is None else _psi2_series(traj, gauge2, sigma)
    return cols


def write_moments_csv(cols, path):
    write_csv(path, _MOMENT_COLUMNS, np.column_stack([cols[n] for n in _MOMENT_COLUMNS]))


def theta_bound_check(traj: Trajectory, zeta_in, sigma: float) -> BoundVerdict:
    """sup_t [M_{-2s}(t) + M_1(t)] <= Theta = M_{-2s}(0) + M_1(0).

    The supremum is taken over the evolved snapshots (t > 0) when any
    exist, so the margin measures how far the evolution stays inside the
    bound; a trajectory holding only the initial snapshot reports margin 0.
    """
    theta = weighted_norm(zeta_in, "Y_norm", sigma)
    series = traj.moments(weight_values(traj.grid.centers, "Y_norm", sigma))
    evolved = series[1:] if len(series) > 1 else series
    attained = float(evolved.max())
    passed = attained <= theta * (1.0 + THETA_SLACK)
    idx = int(evolved.argmax()) + (1 if len(series) > 1 else 0)
    return BoundVerdict("theta_moment_bound", theta, attained, passed,
                        {"series_max_time": float(traj.times[idx])})


def psi1_moment_check(traj: Trajectory, gauge, k: float, T: float,
                      sigma: float = 0.0) -> BoundVerdict:
    """sup_t int Psi1(mu) zeta dmu <= (Gamma1 + 6 k T Psi1(1) Theta^2) e^(6 T k Theta).

    All constants come from the run itself: Gamma1 is the initial gauge
    moment, Theta the initial weighted norm.
    """
    series = traj.moments(gauge.psi(traj.grid.centers))
    gamma1 = float(series[0])
    theta = weighted_norm(traj[0], "Y_norm", sigma)
    psi_at_1 = float(gauge.psi(1.0))
    bound = (gamma1 + 6.0 * k * T * psi_at_1 * theta**2) * np.exp(6.0 * T * k * theta)
    attained = float(series.max())
    passed = attained <= bound * (1.0 + THETA_SLACK)
    return BoundVerdict("psi1_moment_bound", float(bound), attained, passed,
                        {"gamma1": gamma1, "theta": theta, "psi_at_1": psi_at_1})


def uniform_integrability_check(traj: Trajectory, gauge2, k: float, eta: float,
                                T: float, sigma: float) -> BoundVerdict:
    """sup_t int Psi2(mu^(-s) zeta) dmu <= Gamma2 exp(max(k, eta) T Theta).

    Two exponential rates are defensible for this bound, one built from
    the growth constant k and one from the derivative constant eta; both
    are reported and the check uses the larger, which dominates either.
    """
    series = _psi2_series(traj, gauge2, sigma)
    gamma2 = float(series[0])
    theta = weighted_norm(traj[0], "Y_norm", sigma)
    c = max(k, eta)
    bound = gamma2 * np.exp(c * T * theta)
    attained = float(series.max())
    passed = attained <= bound * (1.0 + THETA_SLACK)
    return BoundVerdict(
        "psi2_uniform_integrability", float(bound), attained, passed,
        {
            "gamma2": gamma2,
            "theta": theta,
            "constant_used": c,
            "bound_with_k": float(gamma2 * np.exp(k * T * theta)),
            "bound_with_eta": float(gamma2 * np.exp(eta * T * theta)),
        },
    )


def moment_monotonicity_check(traj: Trajectory, sigma: float) -> BoundVerdict:
    """M_{-2s} and M_1 must be nonincreasing snapshot to snapshot."""
    x = traj.grid.centers
    worst = 0.0
    for series in traj.moments([weight_values(x, "neg_two_sigma", sigma), x]):
        slack = THETA_SLACK * series[0]
        rises = np.diff(series)
        worst = max(worst, float(rises.max(initial=-np.inf)) - slack)
    passed = worst <= 0.0
    return BoundVerdict("moment_monotonicity", 0.0, worst, passed)


def test_identity(omega, variant: str, nu: float, tau: float, eps: float | None = None) -> float:
    """Evaluate one of the weak-form test-function identities exactly.

    Variants: ``omega_1`` = tau omega'(nu) - omega(tau);
    ``omega_tilde`` = omega(nu+tau) - omega(nu) - omega(tau);
    ``omega_eps``   = (omega(nu + eps tau) - omega(nu))/eps - omega(tau);
    ``omega_2_eps`` = eps * omega_eps (the averaged-probability form).
    """
    if nu <= 0.0 or tau <= 0.0:
        raise DomainError("nu and tau must be positive")
    if variant in ("omega_1", "omega_eps", "omega_2_eps") and not (tau < nu):
        raise DomainError("these variants require tau in (0, nu)")
    if variant == "omega_1":
        return float(tau * omega.derivative(nu) - omega(tau))
    if variant == "omega_tilde":
        return float(omega(nu + tau) - omega(nu) - omega(tau))
    if variant in ("omega_eps", "omega_2_eps"):
        if eps is None:
            raise DomainError(f"{variant} requires eps")
        w_eps = (omega(nu + eps * tau) - omega(nu)) / eps - omega(tau)
        return float(eps * w_eps) if variant == "omega_2_eps" else float(w_eps)
    raise DomainError(f"unknown identity variant {variant!r}")


def weak_form_residual(traj: Trajectory, omega, kernel, model: str,
                       eps: float | None = None) -> np.ndarray:
    """|time-integrated weak action - moment change| per snapshot.

    The right-hand side evaluates the model's operator once on each snapshot
    and accumulates sum_i omega(x_i) Q_i dx_i by the trapezoidal rule.
    ``omega`` is a callable, its samples at the cell centers, or a stack of
    samples with one test function per row; a stack gives one row of
    residuals per test function.
    """
    grid = traj.grid
    om = omega(grid.centers) if callable(omega) else np.asarray(omega, dtype=float)
    stack = np.atleast_2d(om)
    if stack.shape[1:] != grid.centers.shape:
        raise ConfigError("omega must be sampled on the grid")
    rhs_op = make_rhs(model, kernel, eps)
    actions = np.array([rhs_op(s).dzdt * grid.widths for s in traj]) @ stack.T
    values = traj.values
    lhs = ((values - values[0]) * grid.widths) @ stack.T
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
    at snapshot k, for the small partner j < m.
    """
    x = traj.grid.centers
    zd = traj.values * traj.grid.widths
    K = np.asarray(kernel.eval(x[m:][:, None], x[:m][None, :]))
    # einsum, not @: at these shapes a two-thread OpenBLAS product took 16 ms, einsum 1 ms
    return np.einsum("ki,ij->kj", zd[:, m:], K) * (x[:m] * zd[:, :m])


def _snap_to_edge(grid, lam):
    if not (grid.edges[0] < lam <= grid.edges[-1]):
        raise DomainError(f"lambda={lam} outside the domain (1/n, n]")
    m = int(np.argmin(np.abs(grid.edges - lam)))
    return max(1, m)


def _edge_velocity_weights(grid, m: int, kernel) -> np.ndarray:
    """Weights c with c @ zeta[:m-1] = ohs_velocities(zeta)[m-1], the velocity at edge m.

    Only the partners with center strictly below x[m-1] enter, so one kernel
    row of length m - 1 replaces the N x N edge-kernel table.
    """
    x = grid.centers[: m - 1]
    return np.asarray(kernel.eval(grid.edges[m], x)) * x * grid.widths[: m - 1]


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
    """
    grid = traj.grid
    x, dx = grid.centers, grid.widths
    values = traj.values
    m = _snap_to_edge(grid, lam)
    lam_edge = float(grid.edges[m])
    mass = np.sum(x[:m] * values[:, :m] * dx[:m], axis=-1)
    lhs = mass - mass[0]
    if m == grid.size:
        # whole domain: the boundary term is exactly the outflux ledger
        rhs = -np.asarray(traj.outflux)
        resid = np.abs(lhs - rhs)
        return {"lambda": lam_edge, "residual": resid, "lhs": lhs, "rhs": rhs}

    v_weights = _edge_velocity_weights(grid, m, kernel)
    flux = lam_edge * values[:, m - 1] * (values[:, : m - 1] @ v_weights)
    rates = _crossing_rates(traj, m, kernel).sum(axis=1) + flux
    rhs = -_trapezoid(traj.times, rates)
    return {"lambda": lam_edge, "residual": np.abs(lhs - rhs), "lhs": lhs, "rhs": rhs}


def tail_flux_decay(traj: Trajectory, lambdas, kernel) -> list[dict]:
    """Time-integrated tail flux past each lambda, split by partner size.

    The split follows the small-partner decomposition: partners below size
    one (``sigma1``) versus partners in (1, lambda) (``sigma2``).  Entries
    decrease as lambda grows and vanish for lambda >= n.
    """
    grid = traj.grid
    out = []
    for lam in lambdas:
        if lam >= grid.edges[-1]:
            out.append({"lambda": float(lam), "sigma1": 0.0, "sigma2": 0.0, "total": 0.0})
            continue
        m = _snap_to_edge(grid, lam)
        rates = _crossing_rates(traj, m, kernel)
        small1 = grid.centers[:m] < 1.0
        split = np.stack([rates[:, small1].sum(axis=1), rates[:, ~small1].sum(axis=1)], axis=1)
        i1, i2 = (float(v) for v in _trapezoid(traj.times, split)[-1])
        out.append({"lambda": float(lam), "sigma1": i1, "sigma2": i2, "total": i1 + i2})
    return out


def equicontinuity_modulus(traj: Trajectory, omega, sigma: float, k: float) -> BoundVerdict:
    """Lipschitz modulus of t -> int mu^(-s) omega zeta dmu vs the a-priori rate.

    The bound is k (||omega||_W1inf + ||omega||_inf) Theta^2 with Theta from
    the initial snapshot; the modulus is maximized over all snapshot pairs.
    """
    x = traj.grid.centers
    series = traj.moments(x ** (-sigma) * omega(x))
    times = traj.times
    i, j = np.triu_indices(len(times), 1)
    modulus = float(np.max(np.abs(series[j] - series[i]) / (times[j] - times[i]), initial=0.0))
    theta = weighted_norm(traj[0], "Y_norm", sigma)
    bound = k * (omega.w1inf_norm + omega.sup_value) * theta**2
    passed = modulus <= bound * (1.0 + THETA_SLACK)
    return BoundVerdict(f"equicontinuity[{omega.name}]", float(bound), modulus, passed,
                        {"theta": theta})


@dataclass
class DiagnosticsReport:
    """All diagnostics of one run, serializable to JSON."""

    model: str
    eps: float | None
    sigma: float
    moments: dict
    verdicts: list
    weak_residuals: dict = field(default_factory=dict)
    flux_identities: list = field(default_factory=list)
    tail_fluxes: list = field(default_factory=list)
    ledger: dict = field(default_factory=dict)

    def all_passed(self):
        return all(v.passed for v in self.verdicts)

    def to_dict(self):
        return {
            "model": self.model,
            "eps": self.eps,
            "sigma": self.sigma,
            "moments": {k: np.asarray(v, dtype=float).tolist() for k, v in self.moments.items()},
            "verdicts": [v.to_dict() for v in self.verdicts],
            "weak_residuals": {
                k: np.asarray(v, dtype=float).tolist() for k, v in self.weak_residuals.items()
            },
            "flux_identities": [
                {
                    "lambda": f["lambda"],
                    "residual": np.asarray(f["residual"], dtype=float).tolist(),
                }
                for f in self.flux_identities
            ],
            "tail_fluxes": self.tail_fluxes,
            "ledger": self.ledger,
        }

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
