"""Coagulation kernels: evaluation, truncation, and certification.

A kernel is a symmetric nonnegative rate Lambda(mu, nu) together with the
growth metadata (k, sigma, eta) that controls its small-size singularity:

    Lambda(mu, nu) <= k (mu nu)^(-sigma)      on (0,1)^2
    Lambda(mu, nu) <= k  mu nu^(-sigma)       on [1,inf) x (0,1)
    Lambda(mu, nu) <= k (mu + nu)             on [1,inf)^2

and the one-sided derivative control

    d/dmu Lambda(mu, nu) >= -eta mu^(-sigma-1) nu^(-sigma).

``certify_growth`` and ``certify_derivative`` check these claims by
randomized scanning; ``truncate`` masks the kernel to the box [1/n, n]^2.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

# Default sampling window for certification scans.  Growth violations of
# polynomial bounds show up well below the cap; the floor keeps log-uniform
# sampling away from underflow.
SAMPLE_FLOOR = 1.0e-6
SAMPLE_CAP = 1.0e6

#: Ratio slack for growth certification (pass iff ratio <= 1 + this).
GROWTH_TOL = 1.0e-12


def _check_positive_args(mu, nu):
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.any(mu <= 0.0) or np.any(nu <= 0.0):
        raise DomainError("kernel arguments must be positive")
    return mu, nu


class Kernel:
    """Symmetric nonnegative coagulation rate with growth metadata.

    Parameters
    ----------
    k : float
        Growth constant of the three-regime bound.
    sigma : float
        Singularity exponent near zero size.  Values >= 0.5 put standard
        exponential-type initial data outside the weighted L1 space and
        require ``allow_large_sigma=True``.
    eta : float
        Constant in the one-sided derivative bound.
    """

    family = "user"

    def __init__(self, k, sigma=0.0, eta=0.0, allow_large_sigma=False):
        if not (0.0 < k < np.inf):
            raise DomainError("growth constant k must be positive and finite")
        if not (0.0 <= sigma < np.inf):
            raise DomainError("singularity exponent sigma must be finite and >= 0")
        if not (0.0 <= eta < np.inf):
            raise DomainError("derivative constant eta must be finite and >= 0")
        if sigma >= 0.5 and not allow_large_sigma:
            raise DomainError(
                "sigma >= 0.5 requires allow_large_sigma=True "
                "(mu^(-2*sigma) weight is no longer integrable against "
                "the stock initial profiles)"
            )
        self.k = float(k)
        self.sigma = float(sigma)
        self.eta = float(eta)

    def _rate(self, lo, hi):
        """Rate on canonically ordered arguments lo <= hi (elementwise)."""
        raise NotImplementedError

    def eval(self, mu, nu):
        """Evaluate Lambda(mu, nu).

        Arguments are canonicalized to (min, max) before dispatch, so the
        symmetry Lambda(mu, nu) == Lambda(nu, mu) holds exactly in floating
        point.
        """
        mu, nu = _check_positive_args(mu, nu)
        lo = np.minimum(mu, nu)
        hi = np.maximum(mu, nu)
        out = self._rate(lo, hi)
        if out.ndim == 0:
            return float(out)
        return out

    def factors(self, x):
        """Separable factors of the kernel on the lower triangle of ``x``.

        Returns a list of ``(f, g)`` arrays sampled at ``x`` with
        Lambda(x_m, x_j) = sum_r f_r[m] g_r[j] whenever x_j <= x_m, or None
        when the kernel has no explicit factorization.  Every factor is
        nonnegative.  A subclass that overrides ``_rate`` must override this
        method as well; the base class and tabulated kernels return None.
        """
        return None


class ConstantKernel(Kernel):
    """Lambda = rate (default 1)."""

    family = "constant"

    def __init__(self, rate=1.0, k=None, sigma=0.0, eta=0.0, **kw):
        if not (0.0 <= rate < np.inf):
            raise DomainError("constant kernel rate must be finite and >= 0")
        super().__init__(k if k is not None else max(rate, 1.0), sigma, eta, **kw)
        self.rate = float(rate)

    def _rate(self, lo, hi):
        return np.broadcast_to(np.float64(self.rate), np.broadcast(lo, hi).shape).copy()

    def factors(self, x):
        x = np.asarray(x, dtype=float)
        return [(np.full_like(x, self.rate), np.ones_like(x))]


class SingularProductKernel(Kernel):
    """Lambda = k (mu nu)^(-sigma); attains its small-size bound identically."""

    family = "singular_product"

    def __init__(self, k=1.0, sigma=0.2, eta=None, **kw):
        # d/dmu k(mu nu)^(-sigma) = -sigma k mu^(-sigma-1) nu^(-sigma),
        # so eta = sigma*k is exactly sharp.
        super().__init__(k, sigma, sigma * k if eta is None else eta, **kw)

    def _rate(self, lo, hi):
        return self.k * (lo * hi) ** (-self.sigma)

    def factors(self, x):
        power = np.asarray(x, dtype=float) ** (-self.sigma)
        return [(self.k * power, power)]


class AdditiveKernel(Kernel):
    """Lambda = mu + nu; needs k >= 2 for the (0,1)^2 regime."""

    family = "additive"

    def __init__(self, k=2.0, sigma=0.0, eta=0.0, **kw):
        super().__init__(k, sigma, eta, **kw)

    def _rate(self, lo, hi):
        return np.asarray(lo + hi, dtype=float)

    def factors(self, x):
        x = np.asarray(x, dtype=float)
        return [(x, np.ones_like(x)), (np.ones_like(x), x)]


class TabulatedKernel(Kernel):
    """User kernel given on a log-spaced node grid, bilinear in log size.

    The table must be square on a common node vector; evaluation
    canonicalizes arguments first, so only symmetric content matters.
    Points outside the node range are clamped to the boundary.
    """

    family = "user_tabulated"

    def __init__(self, nodes, table, k=1.0, sigma=0.0, eta=0.0, **kw):
        super().__init__(k, sigma, eta, **kw)
        nodes = np.asarray(nodes, dtype=float)
        table = np.asarray(table, dtype=float)
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(table))):
            raise ConfigError("tabulated kernel nodes and values must be finite")
        if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
            raise ConfigError("tabulated kernel needs >= 2 strictly increasing nodes")
        if np.any(nodes <= 0):
            raise ConfigError("tabulated kernel nodes must be positive")
        if table.shape != (nodes.size, nodes.size):
            raise ConfigError("tabulated kernel table must be square on the nodes")
        if np.any(table < 0):
            raise ConfigError("tabulated kernel values must be >= 0")
        self.nodes = nodes
        self.log_nodes = np.log(nodes)
        self.table = 0.5 * (table + table.T)  # symmetrize once

    @classmethod
    def from_csv(cls, path, **kw):
        """Load from CSV with header ``mu,nu,lambda`` on a full node grid."""
        mus, nus, vals = [], [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != [
                "mu",
                "nu",
                "lambda",
            ]:
                raise ConfigError(f"{path}: expected header 'mu,nu,lambda'")
            for row in reader:
                mus.append(float(row["mu"]))
                nus.append(float(row["nu"]))
                vals.append(float(row["lambda"]))
        nodes = np.unique(np.asarray(mus))
        nodes_nu = np.unique(np.asarray(nus))
        if nodes.size * nodes_nu.size != len(vals) or not np.array_equal(nodes, nodes_nu):
            raise ConfigError(f"{path}: rows must cover a full square mu x nu grid")
        table = np.full((nodes.size, nodes.size), np.nan)
        imu = np.searchsorted(nodes, mus)
        inu = np.searchsorted(nodes, nus)
        table[imu, inu] = vals
        if np.any(np.isnan(table)):
            raise ConfigError(f"{path}: duplicate or missing grid entries")
        return cls(nodes, table, **kw)

    def _rate(self, lo, hi):
        lo = np.clip(lo, self.nodes[0], self.nodes[-1])
        hi = np.clip(hi, self.nodes[0], self.nodes[-1])
        llo, lhi = np.log(lo), np.log(hi)
        ia = np.clip(np.searchsorted(self.log_nodes, llo) - 1, 0, self.nodes.size - 2)
        ib = np.clip(np.searchsorted(self.log_nodes, lhi) - 1, 0, self.nodes.size - 2)
        ta = (llo - self.log_nodes[ia]) / (self.log_nodes[ia + 1] - self.log_nodes[ia])
        tb = (lhi - self.log_nodes[ib]) / (self.log_nodes[ib + 1] - self.log_nodes[ib])
        ta = np.clip(ta, 0.0, 1.0)
        tb = np.clip(tb, 0.0, 1.0)
        t = self.table
        return (
            t[ia, ib] * (1 - ta) * (1 - tb)
            + t[ia + 1, ib] * ta * (1 - tb)
            + t[ia, ib + 1] * (1 - ta) * tb
            + t[ia + 1, ib + 1] * ta * tb
        )


class TruncatedKernel:
    """Kernel masked to the closed box [1/n, n]^2.

    The mask is boundary-inclusive so that edge-based flux evaluations at
    the top of the computational domain remain nonzero; this differs from
    the open-box definition only on a null set.  The sup bound
    2 k n^(2+2*sigma) holds on the closure and is asserted in debug runs.
    """

    def __init__(self, base: Kernel, n: float):
        if n <= 1.0:
            raise DomainError("truncation parameter n must exceed 1")
        self.base = base
        self.n = float(n)

    @property
    def k(self):
        return self.base.k

    @property
    def sigma(self):
        return self.base.sigma

    @property
    def eta(self):
        return self.base.eta

    @property
    def sup_bound(self):
        """2 k n^(2 + 2 sigma), the a-priori sup of the masked kernel."""
        return 2.0 * self.base.k * self.n ** (2.0 + 2.0 * self.base.sigma)

    def _inside(self, mu):
        return (mu >= 1.0 / self.n) & (mu <= self.n)

    def eval(self, mu, nu):
        mu, nu = _check_positive_args(mu, nu)
        inside = self._inside(mu) & self._inside(nu)
        vals = np.asarray(self.base.eval(mu, nu), dtype=float)
        out = np.where(inside, vals, 0.0)
        assert np.all(out <= self.sup_bound * (1.0 + 1e-12)), "kernel exceeds 2 k n^(2+2s)"
        if out.ndim == 0:
            return float(out)
        return out

    def factors(self, x):
        """Factors of the base kernel times the box indicator (None if it has none).

        The box mask is itself separable, so the product is exact.  The sup
        bound holds because sum_r max f_r * max g_r bounds the kernel.
        """
        x, _ = _check_positive_args(x, x)
        base = self.base.factors(x)
        if base is None:
            return None
        inside = self._inside(x)
        out = [(np.where(inside, f, 0.0), np.where(inside, g, 0.0)) for f, g in base]
        bound = sum(f.max(initial=0.0) * g.max(initial=0.0) for f, g in out)
        assert bound <= self.sup_bound * (1.0 + 1e-12), "kernel exceeds 2 k n^(2+2s)"
        return out


def truncate(kernel: Kernel, n: float) -> TruncatedKernel:
    """Mask ``kernel`` outside [1/n, n]^2."""
    return TruncatedKernel(kernel, n)


@dataclass
class RegimeResult:
    """Worst case of one certification regime."""

    name: str
    worst_ratio: float
    witness: tuple
    violations: int


@dataclass
class CertReport:
    """Outcome of a randomized kernel certification scan."""

    passed: bool
    kind: str
    regimes: list = field(default_factory=list)
    tolerance: float = GROWTH_TOL

    def worst(self):
        return max(self.regimes, key=lambda r: r.worst_ratio)


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def certify_growth(kernel: Kernel, sample_count: int = 4000, seed: int = 0,
                   cap: float = SAMPLE_CAP) -> CertReport:
    """Scan the three growth regimes and report the worst Lambda/bound ratio.

    Passes iff every sampled ratio is <= 1 + 1e-12.  The report carries a
    witness point for each regime, so failures are reproducible.
    """
    if sample_count < 1:
        raise DomainError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    k, s = kernel.k, kernel.sigma
    regimes = []
    passed = True

    def scan(name, mu, nu, bound):
        nonlocal passed
        vals = np.asarray(kernel.eval(mu, nu))
        ratio = vals / bound
        i = int(np.argmax(ratio))
        nviol = int(np.count_nonzero(ratio > 1.0 + GROWTH_TOL))
        if nviol:
            passed = False
        regimes.append(
            RegimeResult(name, float(ratio[i]), (float(mu[i]), float(nu[i])), nviol)
        )

    mu = _log_uniform(rng, SAMPLE_FLOOR, 1.0, sample_count)
    nu = _log_uniform(rng, SAMPLE_FLOOR, 1.0, sample_count)
    scan("small_small", mu, nu, k * (mu * nu) ** (-s))

    mu = _log_uniform(rng, 1.0, cap, sample_count)
    nu = _log_uniform(rng, SAMPLE_FLOOR, 1.0, sample_count)
    scan("large_small", mu, nu, k * mu * nu ** (-s))

    mu = _log_uniform(rng, 1.0, cap, sample_count)
    nu = _log_uniform(rng, 1.0, cap, sample_count)
    scan("large_large", mu, nu, k * (mu + nu))

    return CertReport(passed=passed, kind="growth", regimes=regimes)


def certify_derivative(kernel: Kernel, sample_count: int = 2000, fd_step: float = 1e-4,
                       seed: int = 0, cap: float = SAMPLE_CAP) -> CertReport:
    """Check d/dmu Lambda >= -eta mu^(-sigma-1) nu^(-sigma) by central differences.

    The step is relative (h = fd_step * mu).  The tolerance per sample is a
    Richardson estimate of the O(h^2) truncation error (comparing the h and
    h/2 stencils bounds the error of the finer one by |D_h - D_{h/2}| * 4/3)
    plus the rounding floor eps_machine * |Lambda| / h of the stencil.
    """
    if fd_step <= 0.0:
        raise DomainError("fd_step must be positive")
    if sample_count < 1:
        raise DomainError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    mu = _log_uniform(rng, SAMPLE_FLOOR, cap, sample_count)
    nu = _log_uniform(rng, SAMPLE_FLOOR, cap, sample_count)
    # Keep samples off the diagonal: canonicalized evaluation can have a
    # symmetry kink at mu == nu that central differences straddle.
    mask = np.abs(np.log(mu) - np.log(nu)) > 4.0 * fd_step
    mu, nu = mu[mask], nu[mask]

    def stencil(h):
        up = np.asarray(kernel.eval(mu + h, nu))
        dn = np.asarray(kernel.eval(mu - h, nu))
        return (up - dn) / (2.0 * h), np.abs(up) + np.abs(dn)

    h = fd_step * mu
    d_h, _ = stencil(h)
    d_h2, fmag = stencil(0.5 * h)
    tol = (
        (4.0 / 3.0) * np.abs(d_h - d_h2)
        + np.finfo(float).eps * fmag / h
        + 1e-12 * (np.abs(d_h2) + 1.0)
    )

    bound = -kernel.eta * mu ** (-kernel.sigma - 1.0) * nu ** (-kernel.sigma)
    margin = d_h2 - bound + tol + 1e-12 * np.abs(bound)
    i = int(np.argmin(margin))
    nviol = int(np.count_nonzero(margin < 0.0))
    report = CertReport(passed=nviol == 0, kind="derivative")
    report.regimes.append(
        RegimeResult("derivative", float(-margin[i]), (float(mu[i]), float(nu[i])), nviol)
    )
    return report


_FAMILIES = {
    "constant": ConstantKernel,
    "singular_product": SingularProductKernel,
    "additive": AdditiveKernel,
}


def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from a config mapping (``family`` plus parameters)."""
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    if family == "user_tabulated":
        path = cfg.pop("path", None)
        if path is None:
            raise ConfigError("user_tabulated kernel needs 'path' to a CSV table")
        return TabulatedKernel.from_csv(path, **cfg)
    if family not in _FAMILIES:
        raise ConfigError(f"unknown kernel family {family!r}")
    try:
        return _FAMILIES[family](**cfg)
    except TypeError as exc:
        raise ConfigError(f"bad kernel parameters for family {family!r}: {exc}") from exc
