"""Coagulation kernels: evaluation, separable factors, and the bound constants.

A kernel is a symmetric nonnegative rate Lambda(mu, nu).  The paper's class
is fixed by (k, sigma, eta): the growth bounds

    Lambda(mu, nu) <= k (mu nu)^(-sigma)      on (0,1)^2            (small_small)
    Lambda(mu, nu) <= k  mu nu^(-sigma)       on [1,inf) x (0,1)    (large_small)
    Lambda(mu, nu) <= k (mu + nu)             on [1,inf)^2          (large_large)

and, off the diagonal, d/dmu Lambda(mu, nu) >= -eta mu^(-sigma-1) nu^(-sigma).
sigma is a parameter; ``Kernel.certificate`` proves the smallest k and eta
the closed form allows at it, and an infinite one puts the kernel outside
the class.

The truncated domain (1/n, n) of the paper is the size grid's, not the
kernel's: a grid on [1/n, n] reads the kernel only inside [1/n, n]^2, so no
kernel carries a box mask.  ``truncate`` returns its kernel unchanged and is
kept only for the benchmark probe.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError

#: Where every power-sum supremum is attained or its ray starts: each regime's apex.
_AT_ONE = (1.0, 1.0)


def _positive(x):
    """``x`` as a float array; a size <= 0 is a DomainError."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("kernel arguments must be positive")
    return x


class RegimeBound(NamedTuple):
    """A regime's supremum of Lambda over its bound at k = 1, or of -dLambda/dmu
    mu^(sigma+1) nu^sigma on a side of the diagonal, attained at ``point`` (mu, nu) or,
    with ``ray`` set, approached or diverging along that direction in log size from it.
    """

    name: str
    supremum: float
    point: tuple
    ray: tuple | None = None


class Certificate(NamedTuple):
    """A kernel's growth regimes and derivative sides: k and eta are their largest suprema."""

    growth: tuple
    derivative: tuple


class Kernel:
    """Symmetric nonnegative coagulation rate with a small-size singularity.

    Parameters
    ----------
    sigma : float
        Singularity exponent near zero size.  Values >= 0.5 put standard
        exponential-type initial data outside the weighted L1 space and
        require ``allow_large_sigma=True``.

    ``k`` and ``eta`` are proven by ``certificate`` on first read, from a
    subclass's ``_suprema``; the base class raises :class:`ConfigError`.
    """

    family = "user"

    def __init__(self, sigma=0.0, allow_large_sigma=False):
        if not (0.0 <= sigma < np.inf):
            raise DomainError("singularity exponent sigma must be finite and >= 0")
        if sigma >= 0.5 and not allow_large_sigma:
            raise DomainError(
                "sigma >= 0.5 requires allow_large_sigma=True "
                "(mu^(-2*sigma) weight is no longer integrable against "
                "the stock initial profiles)"
            )
        self.sigma = float(sigma)

    @cached_property
    def certificate(self):
        """The :class:`Certificate` of this kernel at its sigma."""
        return Certificate(*self._suprema())

    @property
    def k(self):
        return max(r.supremum for r in self.certificate.growth)

    @property
    def eta(self):
        return max(r.supremum for r in self.certificate.derivative)

    def _suprema(self):
        """The :class:`RegimeBound` of each growth regime, and of each side of the diagonal."""
        raise ConfigError(
            f"kernel {type(self).__name__} has no certificate of its bound constants; "
            "override Kernel._suprema to use it"
        )

    def _rate(self, lo, hi):
        """Rate on canonically ordered arguments lo <= hi (elementwise)."""
        raise NotImplementedError

    def eval(self, mu, nu):
        """Evaluate Lambda(mu, nu).

        Arguments are canonicalized to (min, max) before dispatch, so the
        symmetry Lambda(mu, nu) == Lambda(nu, mu) holds exactly in floating
        point.
        """
        mu, nu = _positive(mu), _positive(nu)
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


def _cone(c, alpha, beta, rays):
    """sup of c mu^alpha nu^beta on a cone in log size spanned by ``rays`` from (1, 1):
    c, at the apex, unless the monomial grows along a ray."""
    if c <= 0.0:
        return 0.0, _AT_ONE, None
    for ray in rays:
        if alpha * ray[0] + beta * ray[1] > 0.0:
            return float("inf"), _AT_ONE, ray
    return c, _AT_ONE, None


def _large_large(c, a, b):
    # c mu^b nu^a / (mu + nu) on 1 <= nu <= mu.  With z = nu/mu it is
    # c mu^(a+b-1) z^a / (1 + z), at most c z^(1-b) / (1 + z) over mu >= 1/z,
    # reached at nu = 1; z^p / (1 + z) peaks at z = p / (1 - p) below p = 1/2
    for ray, grows in (((1.0, 0.0), b > 1.0), ((1.0, 1.0), a + b > 1.0)):
        if grows:
            return float("inf"), _AT_ONE, ray
    p = 1.0 - b
    if p == 0.0:
        return c, _AT_ONE, (1.0, 0.0)  # approached as mu -> inf at nu = 1
    if p < 0.5:
        return c * p**p * (1.0 - p) ** (1.0 - p), ((1.0 - p) / p, 1.0), None
    return 0.5 * c, _AT_ONE, None


def _term_sum(name, parts):
    """The sum of the terms' suprema, at the largest: exact if all share their point."""
    _, point, ray = max(parts, key=lambda part: part[0], default=(0.0, _AT_ONE, None))
    return RegimeBound(name, sum((part[0] for part in parts), 0.0), point, ray)


class PowerSumKernel(Kernel):
    """Lambda = sum over terms (c, a, b) of c lo^a hi^b, lo = min and hi = max.

    Each term gives one separable factor pair (c x^b, x^a) on the lower
    triangle.  Coefficients must be finite and >= 0, exponents finite.  Over
    a growth bound, and as a scaled slope, a term is a monomial on a cone in
    log size except in large_large, whose bound reduces it to one variable.
    """

    family = "power_sum"

    def __init__(self, terms, sigma=0.0, **kw):
        super().__init__(sigma, **kw)
        terms = tuple((float(c), float(a), float(b)) for c, a, b in terms)
        if not terms or not all(0.0 <= c < np.inf and np.isfinite(a) and np.isfinite(b)
                                for c, a, b in terms):
            raise DomainError(
                "power-sum kernel needs terms (c, a, b) with finite c >= 0 "
                "and finite exponents"
            )
        self.terms = terms

    def _suprema(self):
        s, down, diagonal = self.sigma, (0.0, -1.0), ((1.0, 1.0), (-1.0, -1.0))
        bounds = {  # mu is hi in the growth regimes, lo in mu_below_nu
            "small_small": lambda c, a, b: _cone(c, b + s, a + s, (down, (-1.0, -1.0))),
            "large_small": lambda c, a, b: _cone(c, b - 1.0, a + s, ((1.0, 0.0), down)),
            "large_large": _large_large,
            "mu_below_nu": lambda c, a, b: _cone(-c * a, a + s, b + s, (*diagonal, (-1.0, 0.0))),
            "mu_above_nu": lambda c, a, b: _cone(-c * b, b + s, a + s, (*diagonal, (1.0, 0.0))),
        }
        found = [_term_sum(name, [bound(*term) for term in self.terms if term[0] > 0.0])
                 for name, bound in bounds.items()]
        return tuple(found[:3]), tuple(found[3:])

    def _rate(self, lo, hi):
        return sum(c * lo**a * hi**b for c, a, b in self.terms)

    def factors(self, x):
        x = _positive(x)
        return [(c * x**b, x**a) for c, a, b in self.terms]


class ConstantKernel(PowerSumKernel):
    """Lambda = rate (default 1); k = rate and eta = 0 at every sigma."""

    family = "constant"

    def __init__(self, rate=1.0, sigma=0.0, **kw):
        if not (0.0 <= rate < np.inf):
            raise DomainError("constant kernel rate must be finite and >= 0")
        super().__init__([(rate, 0.0, 0.0)], sigma, **kw)
        self.rate = float(rate)


class SingularProductKernel(PowerSumKernel):
    """Lambda = k (mu nu)^(-sigma), with k its coefficient.

    It attains its small-size bound identically, and its mu-slope
    -sigma k mu^(-sigma-1) nu^(-sigma) the derivative bound: the certified
    constants are k and eta = sigma k.
    """

    family = "singular_product"

    def __init__(self, k=1.0, sigma=0.2, **kw):
        super().__init__([(k, -sigma, -sigma)], sigma, **kw)


class AdditiveKernel(PowerSumKernel):
    """Lambda = mu + nu; k = 2, attained at mu = nu = 1, and eta = 0."""

    family = "additive"

    def __init__(self, sigma=0.0, **kw):
        super().__init__([(1.0, 0.0, 1.0), (1.0, 1.0, 0.0)], sigma, **kw)


class TabulatedKernel(Kernel):
    """User kernel given on a log-spaced node grid, bilinear in log size.

    The table must be square on a common node vector; evaluation
    canonicalizes arguments first, so only symmetric content matters.
    Points outside the node range are clamped to the boundary.
    """

    family = "user_tabulated"

    def __init__(self, nodes, table, sigma=0.0, **kw):
        super().__init__(sigma, **kw)
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

    def _suprema(self):
        """Per cell, the largest corner value over the bound's infimum on the cell.

        Cuts at the nodes and at 1 split each axis into cells (0, c_0], [c_(p-1), c_p]
        and [c_M, inf), on which the surface is bilinear in log size, or constant
        beyond the nodes.  Its log-mu slope is linear in log nu on a cell, so the
        negative part peaks at a nu-corner, and (mu nu)^s at the upper corner.
        """
        s, cuts = self.sigma, np.union1d(self.nodes, 1.0)
        values = self.eval(cuts[:, None], cuts[None, :])
        lower, upper = np.append(0.0, cuts), np.append(cuts, np.inf)
        small, large = upper <= 1.0, lower >= 1.0
        ss, ls, ll = (np.logical_and.outer(r, c) for r, c in ((small, small), (large, small), (large, large)))
        low, up, top = np.maximum(lower, 1.0), np.minimum(upper, 1.0), np.minimum(upper, cuts[-1])
        corners = np.pad(values, 1, mode="edge")
        peak = np.maximum.reduce([corners[:-1, :-1], corners[1:, :-1], corners[:-1, 1:], corners[1:, 1:]])
        slope = np.pad(np.diff(values, axis=0) / np.diff(np.log(cuts))[:, None], ((1, 1), (0, 0)))
        fall = np.pad(np.maximum(0.0, -slope), ((0, 0), (1, 1)), mode="edge")
        fall = np.maximum(fall[:, :-1], fall[:, 1:])
        scaled = np.multiply(fall, np.multiply.outer(upper**s, upper**s), out=np.zeros_like(fall),
                             where=fall > 0.0)  # 0 * inf is no fall, not nan
        return (
            (_worst_cell("small_small", peak * np.multiply.outer(up**s, up**s), ss, up, up),
             _worst_cell("large_small", peak * np.multiply.outer(1.0 / low, up**s), ls, low, up),
             _worst_cell("large_large", peak / np.add.outer(low, low), ll, low, low)),
            (_worst_cell("mu_below_nu", scaled, np.less.outer(lower, upper), top, top),
             _worst_cell("mu_above_nu", scaled, np.greater.outer(upper, lower), top, top)),
        )

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
        x = _positive(x)
        i, t = self._bracket(x)
        hats = np.zeros((self.nodes.size, x.size))
        cells = np.arange(x.size)
        hats[i, cells] = 1.0 - t
        hats[i + 1, cells] = t
        return list(zip(np.einsum("ab,bx->ax", self.table, hats), hats))


def _worst_cell(name, ratio, cells, mu, nu):
    """The largest ``ratio`` on ``cells``, at its (mu, nu) corner.

    An infinite one comes from a cell unbounded in nu, and diverges as nu grows.
    """
    ratio = np.where(cells, ratio, -np.inf)
    p, q = np.unravel_index(np.argmax(ratio), ratio.shape)
    ray = (0.0, 1.0) if ratio[p, q] == np.inf else None
    return RegimeBound(name, float(ratio[p, q]), (float(mu[p]), float(nu[q])), ray)


def _table_row(row, where):
    """One ``mu,nu,lambda`` row as three finite floats; anything else is a ConfigError."""
    try:
        values = [float(cell) for cell in row]
    except ValueError:
        values = []
    if len(values) != 3 or not np.all(np.isfinite(values)):
        raise ConfigError(f"{where}: expected three finite numbers, got {','.join(row)!r}")
    return values


def truncate(kernel: Kernel, n: float) -> Kernel:
    """``kernel`` itself, once n > 1: the grid on [1/n, n] is the truncation.

    Every kernel value a scheme or diagnostic reads lies in [1/n, n]^2 of its
    grid, so a box mask would change none of them.  The function stays only
    because the benchmark probe (``perfbench/probe.py``) calls it.
    """
    if n <= 1.0:
        raise DomainError("truncation parameter n must exceed 1")
    return kernel


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
    """Build a kernel from a config mapping (``family`` plus parameters).

    ``k`` is singular_product's coefficient; any other family proves its k, which
    older configs set, so it is accepted at that value only.  No family takes eta.
    """
    cfg = dict(cfg)
    family = cfg.pop("family", None)
    if "eta" in cfg:
        raise ConfigError("kernel.eta is not a setting: every kernel proves its own eta "
                          "(check-kernel reports it)")
    for key in ("rate", "k", "sigma"):
        if key in cfg:
            cfg[key] = config_number(cfg[key], key)
    if not isinstance(cfg.get("allow_large_sigma", False), bool):  # "no" is a truthy string
        raise ConfigError(f"allow_large_sigma must be true or false, got {cfg['allow_large_sigma']!r}")
    pinned = cfg.pop("k", None) if family != "singular_product" else None
    if family == "user_tabulated":
        if cfg.get("path") is None:
            raise ConfigError("user_tabulated kernel needs 'path' to a CSV table")
        build = TabulatedKernel.from_csv
    elif family in _FAMILIES:
        build = _FAMILIES[family]
    else:
        raise ConfigError(f"unknown kernel family {family!r}")
    try:
        kernel = build(**cfg)
    except TypeError as exc:
        raise ConfigError(f"bad kernel parameters for family {family!r}: {exc}") from exc
    if pinned is not None and pinned != kernel.k:
        raise ConfigError(f"kernel.k must be {kernel.k!r}, got {pinned!r}: "
                          f"family {family} proves its own k")
    return kernel
