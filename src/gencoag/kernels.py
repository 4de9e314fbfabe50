"""Coagulation kernels: evaluation, separable factors, and the bound constants.

A kernel is a symmetric nonnegative rate Lambda(mu, nu), always a power sum
``Kernel(terms)``, of which the stock families are presets.  The paper's
class is fixed by (k, sigma, eta): the growth bounds

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

import sys
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


class CertificateBound(NamedTuple):
    """One bound of a kernel's certificate: its constant is the worst regime's supremum."""

    kind: str
    name: str
    regimes: tuple
    constant: float
    passed: bool
    line: str


def certificate_bounds(kernel):
    """The growth (k) and derivative (eta) bounds of ``kernel``, each passed when finite,
    with the line check-kernel prints for it."""
    for (kind, regimes), name in zip(kernel.certificate._asdict().items(), ("k", "eta")):
        worst = max(regimes, key=lambda r: r.supremum)
        passed = worst.supremum < np.inf
        where = f"{worst.name} at {worst.point}" + (f" along {worst.ray} in log size" if worst.ray else "")
        line = f"{'PASS' if passed else 'FAIL'}  {kind} bound: {name} = {worst.supremum:g}, {where}"
        yield CertificateBound(kind, name, regimes, worst.supremum, passed, line)


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


class Kernel:
    """Lambda = sum over terms (c, a, b) of c lo^a hi^b, lo = min and hi = max.

    Each term gives one separable factor pair (c x^b, x^a) on the lower
    triangle.  Coefficients must be finite and >= 0, exponents finite, and
    the singularity exponent sigma in [0, 1/2): from 1/2 on, the
    mu^(-2 sigma) weight of Theta is not integrable against the stock
    initial profiles.  ``certificate`` proves ``k`` and ``eta`` on first
    read.  Over a growth bound, and as a scaled slope, a term is a monomial
    on a cone in log size except in large_large, whose bound reduces it to
    one variable.
    """

    family = "power_sum"

    def __init__(self, terms, sigma=0.0):
        if not (0.0 <= sigma < np.inf):
            raise DomainError("singularity exponent sigma must be finite and >= 0")
        if sigma >= 0.5:
            raise DomainError("sigma must be below 0.5 (mu^(-2*sigma) weight is no longer "
                              "integrable against the stock initial profiles)")
        self.sigma = float(sigma)
        terms = tuple((float(c), float(a), float(b)) for c, a, b in terms)
        if not terms or not all(0.0 <= c < np.inf and np.isfinite(a) and np.isfinite(b)
                                for c, a, b in terms):
            raise DomainError(
                "power-sum kernel needs terms (c, a, b) with finite c >= 0 "
                "and finite exponents"
            )
        self.terms = terms

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

    def _rate(self, lo, hi):
        """Rate on canonically ordered arguments lo <= hi (elementwise)."""
        return sum(c * lo**a * hi**b for c, a, b in self.terms)

    def factors(self, x):
        """Separable factors of the kernel on the lower triangle of ``x``.

        Returns a list of ``(f, g)`` arrays sampled at ``x`` with
        Lambda(x_m, x_j) = sum_r f_r[m] g_r[j] whenever x_j <= x_m.  Every
        factor is nonnegative.  The operators run on these factors alone.
        """
        x = _positive(x)
        return [(c * x**b, x**a) for c, a, b in self.terms]


class ConstantKernel(Kernel):
    """Lambda = rate (default 1); k = rate and eta = 0 at every sigma."""

    family = "constant"

    def __init__(self, rate=1.0, sigma=0.0):
        super().__init__([(rate, 0.0, 0.0)], sigma)
        self.rate = float(rate)


class SingularProductKernel(Kernel):
    """Lambda = k (mu nu)^(-sigma), with k its coefficient.

    It attains its small-size bound identically, and its mu-slope
    -sigma k mu^(-sigma-1) nu^(-sigma) the derivative bound: the certified
    constants are k and eta = sigma k.
    """

    family = "singular_product"

    def __init__(self, k=1.0, sigma=0.2):
        super().__init__([(k, -sigma, -sigma)], sigma)


class AdditiveKernel(Kernel):
    """Lambda = mu + nu; k = 2, attained at mu = nu = 1, and eta = 0."""

    family = "additive"

    def __init__(self, sigma=0.0):
        super().__init__([(1.0, 0.0, 1.0), (1.0, 1.0, 0.0)], sigma)


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


def config_text(value):
    """``value`` as a refusal prints it: as the config file spells it, ``true``, ``false``
    and ``null`` for Python's True, False and None, at any depth of a list or mapping."""
    if isinstance(value, list):
        return f"[{', '.join(map(config_text, value))}]"
    if isinstance(value, dict):
        return f"{{{', '.join(f'{config_text(k)}: {config_text(v)}' for k, v in value.items())}}}"
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    return repr(value)


def config_number(value, key):
    """``value`` as a finite float >= 0; NaN, inf, an integer beyond a double's range,
    a negative, a boolean or a non-number is a ConfigError that names ``key``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{key} must be a finite number >= 0, got {config_text(value)}")


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
    pinned = cfg.pop("k", None) if family != "singular_product" else None
    if not (isinstance(family, str) and family in _FAMILIES):
        raise ConfigError(f"unknown kernel family {config_text(family)}")
    build = _FAMILIES[family]
    try:
        kernel = build(**cfg)
    except TypeError as exc:
        raise ConfigError(f"bad kernel parameters for family {family!r}: {exc}") from exc
    if pinned is not None and pinned != kernel.k:
        raise ConfigError(f"kernel.k must be {kernel.k!r}, got {pinned!r}: "
                          f"family {family} proves its own k")
    return kernel
