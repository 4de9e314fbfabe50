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

from typing import NamedTuple

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
        Lambda(x_m, x_j) = sum_r f_r[m] g_r[j] whenever x_j <= x_m.  Every
        factor is nonnegative.  The operators run on these factors alone, so
        every kernel the package builds has them; a subclass that overrides
        ``_rate`` must override this method as well, and the base class
        raises :class:`ConfigError`.
        """
        raise ConfigError(
            f"kernel {type(self).__name__} has no separable factors; "
            "override Kernel.factors to use it"
        )


class PowerSumKernel(Kernel):
    """Lambda = sum over terms (c, a, b) of c lo^a hi^b, lo = min and hi = max.

    Each term gives one separable factor pair (c x^b, x^a) on the lower
    triangle.  Coefficients must be finite and >= 0, exponents finite.
    """

    family = "power_sum"

    def __init__(self, terms, k=1.0, sigma=0.0, eta=0.0, **kw):
        super().__init__(k, sigma, eta, **kw)
        terms = tuple((float(c), float(a), float(b)) for c, a, b in terms)
        if not terms or not all(0.0 <= c < np.inf and np.isfinite(a) and np.isfinite(b)
                                for c, a, b in terms):
            raise DomainError(
                "power-sum kernel needs terms (c, a, b) with finite c >= 0 "
                "and finite exponents"
            )
        self.terms = terms

    def _rate(self, lo, hi):
        return sum(c * lo**a * hi**b for c, a, b in self.terms)

    def factors(self, x):
        x = np.asarray(x, dtype=float)
        return [(c * x**b, x**a) for c, a, b in self.terms]


class ConstantKernel(PowerSumKernel):
    """Lambda = rate (default 1)."""

    family = "constant"

    def __init__(self, rate=1.0, k=None, sigma=0.0, eta=0.0, **kw):
        if not (0.0 <= rate < np.inf):
            raise DomainError("constant kernel rate must be finite and >= 0")
        super().__init__([(rate, 0.0, 0.0)], k if k is not None else max(rate, 1.0),
                         sigma, eta, **kw)
        self.rate = float(rate)


class SingularProductKernel(PowerSumKernel):
    """Lambda = k (mu nu)^(-sigma); attains its small-size bound identically."""

    family = "singular_product"

    def __init__(self, k=1.0, sigma=0.2, eta=None, **kw):
        # d/dmu k(mu nu)^(-sigma) = -sigma k mu^(-sigma-1) nu^(-sigma),
        # so eta = sigma*k is exactly sharp.
        super().__init__([(k, -sigma, -sigma)], k, sigma,
                         sigma * k if eta is None else eta, **kw)


class AdditiveKernel(PowerSumKernel):
    """Lambda = mu + nu; needs k >= 2 for the (0,1)^2 regime."""

    family = "additive"

    def __init__(self, k=2.0, sigma=0.0, eta=0.0, **kw):
        super().__init__([(1.0, 0.0, 1.0), (1.0, 1.0, 0.0)], k, sigma, eta, **kw)


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
        import csv  # only this family reads a CSV, so no other run loads the module

        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if [c.strip() for c in next(reader, [])] != ["mu", "nu", "lambda"]:
                raise ConfigError(f"{path}: expected header 'mu,nu,lambda'")
            for row in reader:
                if row:
                    rows.append(_table_row(row, f"{path} line {reader.line_num}"))
        mus, nus, vals = np.reshape(rows, (-1, 3)).T
        nodes = np.unique(mus)
        nodes_nu = np.unique(nus)
        if nodes.size * nodes_nu.size != len(vals) or not np.array_equal(nodes, nodes_nu):
            raise ConfigError(f"{path}: rows must cover a full square mu x nu grid")
        table = np.full((nodes.size, nodes.size), np.nan)
        imu = np.searchsorted(nodes, mus)
        inu = np.searchsorted(nodes, nus)
        table[imu, inu] = vals
        if np.any(np.isnan(table)):
            raise ConfigError(f"{path}: duplicate or missing grid entries")
        return cls(nodes, table, **kw)

    def _bracket(self, x):
        """Node interval i and fraction t of log x in it, x clamped to the node range."""
        lx = np.log(np.clip(x, self.nodes[0], self.nodes[-1]))
        i = np.clip(np.searchsorted(self.log_nodes, lx) - 1, 0, self.nodes.size - 2)
        t = (lx - self.log_nodes[i]) / (self.log_nodes[i + 1] - self.log_nodes[i])
        return i, np.clip(t, 0.0, 1.0)

    def _rate(self, lo, hi):
        ia, ta = self._bracket(lo)
        ib, tb = self._bracket(hi)
        t = self.table
        return (
            t[ia, ib] * (1 - ta) * (1 - tb)
            + t[ia + 1, ib] * ta * (1 - tb)
            + t[ia, ib + 1] * (1 - ta) * tb
            + t[ia + 1, ib + 1] * ta * tb
        )

    def factors(self, x):
        """One factor per node: g_a = phi_a(x) and f_a = (phi(x) T)_a.

        phi_a are the hat functions of the bilinear interpolation in log
        size, so Lambda(x_m, x_j) = sum_a phi_a(x_j) (T phi(x_m))_a.  Each
        g_a is nonzero on at most the two node intervals next to node a.
        """
        x = np.asarray(x, dtype=float)
        i, t = self._bracket(x)
        hats = np.zeros((self.nodes.size, x.size))
        cells = np.arange(x.size)
        hats[i, cells] = 1.0 - t
        hats[i + 1, cells] = t
        return list(zip(np.einsum("ab,bx->ax", self.table, hats), hats))


def _table_row(row, where):
    """One ``mu,nu,lambda`` row as three finite floats; anything else is a ConfigError."""
    try:
        values = [float(cell) for cell in row]
    except ValueError:
        values = []
    if len(values) != 3 or not np.all(np.isfinite(values)):
        raise ConfigError(f"{where}: expected three finite numbers, got {','.join(row)!r}")
    return values


class TruncatedKernel:
    """Kernel masked to the closed box [1/n, n]^2.

    The mask is boundary-inclusive so that edge-based flux evaluations at
    the top of the computational domain remain nonzero; this differs from
    the open-box definition only on a null set.  The sup bound
    2 k n^(2+2*sigma) holds on the closure; every evaluation checks it.
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

    def _check_sup(self, peak):
        if not peak <= self.sup_bound * (1.0 + 1e-12):
            raise DomainError(
                f"kernel reaches {peak:.6g} on [1/n, n]^2, above 2 k n^(2+2 sigma) = "
                f"{self.sup_bound:.6g}: its k = {self.k:g} understates it"
            )

    def _inside(self, mu):
        return (mu >= 1.0 / self.n) & (mu <= self.n)

    def eval(self, mu, nu):
        mu, nu = _check_positive_args(mu, nu)
        inside = self._inside(mu) & self._inside(nu)
        vals = np.asarray(self.base.eval(mu, nu), dtype=float)
        out = np.where(inside, vals, 0.0)
        self._check_sup(np.max(out, initial=0.0))
        if out.ndim == 0:
            return float(out)
        return out

    def factors(self, x):
        """Factors of the base kernel times the box indicator.

        The box mask is itself separable, so the product is exact.  The sup
        bound holds because, for nonnegative factors, both
        sum_r max f_r * max g_r and max f * max_j sum_r g_r[j] bound the
        kernel; the smaller of the two is checked.
        """
        x, _ = _check_positive_args(x, x)
        inside = self._inside(x)
        out = [(np.where(inside, f, 0.0), np.where(inside, g, 0.0))
               for f, g in self.base.factors(x)]
        f = np.array([fr for fr, _ in out])
        g = np.array([gr for _, gr in out])
        bound = min(np.sum(f.max(axis=1, initial=0.0) * g.max(axis=1, initial=0.0)),
                    f.max(initial=0.0) * g.sum(axis=0).max(initial=0.0))
        self._check_sup(bound)
        return out


def truncate(kernel: Kernel, n: float) -> TruncatedKernel:
    """Mask ``kernel`` outside [1/n, n]^2."""
    return TruncatedKernel(kernel, n)


class RegimeResult(NamedTuple):
    """Worst case of one certification regime."""

    name: str
    worst_ratio: float
    witness: tuple
    violations: int


class CertReport(NamedTuple):
    """Outcome of a randomized kernel certification scan."""

    passed: bool
    kind: str
    regimes: list = []  # one shared empty list: every scan passes its own
    tolerance: float = GROWTH_TOL


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def certify_growth(kernel: Kernel, sample_count: int = 4000, seed: int = 0,
                   cap: float = SAMPLE_CAP) -> CertReport:
    """Scan the three growth regimes and report the worst Lambda/bound ratio.

    Passes iff every sampled ratio, the regime corners' included, is
    <= 1 + 1e-12.  The report carries a witness point for each regime, so
    failures are reproducible.
    """
    if sample_count < 1:
        raise DomainError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    k, s = kernel.k, kernel.sigma
    regimes = []
    # suprema sit on regime boundaries, where random samples rarely land:
    # each regime (name, mu range, nu range, bound) also scans its corners
    for name, mu_range, nu_range, bound in (
        ("small_small", (SAMPLE_FLOOR, 1.0), (SAMPLE_FLOOR, 1.0),
         lambda mu, nu: k * (mu * nu) ** (-s)),
        ("large_small", (1.0, cap), (SAMPLE_FLOOR, 1.0), lambda mu, nu: k * mu * nu ** (-s)),
        ("large_large", (1.0, cap), (1.0, cap), lambda mu, nu: k * (mu + nu)),
    ):
        mu = _log_uniform(rng, *mu_range, sample_count)
        nu = _log_uniform(rng, *nu_range, sample_count)
        corner_mu, corner_nu = np.meshgrid(mu_range, nu_range)
        mu, nu = np.append(mu, corner_mu), np.append(nu, corner_nu)
        ratio = np.asarray(kernel.eval(mu, nu)) / bound(mu, nu)
        i = int(np.argmax(ratio))
        nviol = int(np.count_nonzero(ratio > 1.0 + GROWTH_TOL))
        regimes.append(RegimeResult(name, float(ratio[i]), (float(mu[i]), float(nu[i])), nviol))
    return CertReport(passed=all(r.violations == 0 for r in regimes), kind="growth",
                      regimes=regimes)


def certify_derivative(kernel: Kernel, sample_count: int = 2000, fd_step: float = 1e-4,
                       seed: int = 0, cap: float = SAMPLE_CAP) -> CertReport:
    """Check d/dmu Lambda >= -eta mu^(-sigma-1) nu^(-sigma) by central differences.

    The step is relative (h = fd_step * mu).  The tolerance per sample is a
    Richardson estimate of the O(h^2) truncation error (comparing the h and
    h/2 stencils bounds the error of the finer one by |D_h - D_{h/2}| * 4/3)
    plus the rounding floor eps_machine * |Lambda| / h of the stencil.
    """
    if not (0.0 < fd_step < np.inf):
        raise DomainError(f"fd_step must be positive and finite, got {fd_step!r}")
    if sample_count < 1:
        raise DomainError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    mu = _log_uniform(rng, SAMPLE_FLOOR, cap, sample_count)
    nu = _log_uniform(rng, SAMPLE_FLOOR, cap, sample_count)
    # Keep samples off the diagonal: canonicalized evaluation can have a
    # symmetry kink at mu == nu that central differences straddle.
    mask = np.abs(np.log(mu) - np.log(nu)) > 4.0 * fd_step
    if not mask.any():
        raise DomainError(f"fd_step={fd_step!r} keeps no sample off the diagonal")
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
    regimes = [RegimeResult("derivative", float(-margin[i]), (float(mu[i]), float(nu[i])), nviol)]
    return CertReport(passed=nviol == 0, kind="derivative", regimes=regimes)


_FAMILIES = {
    "constant": ConstantKernel,
    "singular_product": SingularProductKernel,
    "additive": AdditiveKernel,
}


def config_number(value, key):
    """``value`` as a finite float >= 0; NaN, inf, a negative, a boolean or a
    non-number is a ConfigError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value < np.inf:
        return float(value)
    raise ConfigError(f"{key} must be a finite number >= 0, got {value!r}")


def kernel_from_config(cfg: dict) -> Kernel:
    """Build a kernel from a config mapping (``family`` plus parameters)."""
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    for key in ("rate", "k", "sigma", "eta"):
        if key in cfg:
            cfg[key] = config_number(cfg[key], key)
    if not isinstance(cfg.get("allow_large_sigma", False), bool):  # "no" is a truthy string
        raise ConfigError(f"allow_large_sigma must be true or false, got {cfg['allow_large_sigma']!r}")
    if family == "user_tabulated":
        if cfg.get("path") is None:
            raise ConfigError("user_tabulated kernel needs 'path' to a CSV table")
        build = TabulatedKernel.from_csv
    elif family in _FAMILIES:
        build = _FAMILIES[family]
    else:
        raise ConfigError(f"unknown kernel family {family!r}")
    try:
        return build(**cfg)
    except TypeError as exc:
        raise ConfigError(f"bad kernel parameters for family {family!r}: {exc}") from exc
