"""Discrete right-hand sides for the three coagulation models.

All three operators act on cell-averaged densities over a geometric grid
and return a :class:`RateField` carrying d(zeta)/dt per cell plus the rate
at which mass leaves through the upper boundary (the outflux ledger rate).

The Smoluchowski equation (SCE) is the epsilon = 1 member of the
generalized (epsilon-family) model and runs on its pair scheme; the
full-square Smoluchowski quadrature lives in the tests as an independent
oracle.  The Oort-Hulst-Safronov (OHS) limit has its own transport scheme,
:class:`OhsScheme`.  A scheme lives as long as the :func:`make_rhs` callable
that built it.

Design rules of the pair scheme:

* every integral is a midpoint sum over cells, so birth/death pairings
  stay exactly dual and the linear weak-form identities hold to rounding;
* a collision product at off-grid size p is split between the two
  bracketing cell centers with the unique two-point weights that preserve
  both particle number and particle mass (linear allocation in size);
* the domain end n is one more pivot, whose share leaves through the
  boundary, as does the full mass of a product beyond n.  This realizes the
  domain indicator of the truncated weak form without losing mass, and the
  OHS flux through the last gap n - x[-1] as eps -> 0.

With these rules the semi-discrete system satisfies, exactly in floating
point: d/dt(M1) + outflux_rate = 0 and d/dt(M0) <= 0.

The pair scheme has two implementations of the same quadrature, chosen by
the kernel alone:

* :class:`LagScheme`, for kernels whose ``factors(x)`` returns separable
  factors Lambda(x_m, x_j) = sum_r f_r(x_m) g_r(x_j) on x_j <= x_m (the
  constant, singular-product and additive families).  On a geometric grid
  the product of the pair (m, m - d) is x_m (1 + eps r^-d), so its deposit
  offset and two-point weight depend on the lag d only.  Births become a
  few direct convolutions, one pair per group of lags sharing an offset;
  deaths become prefix and suffix sums.  Products landing at the top of the
  grid are deposited, or sent to the outflux, from the exact product, as
  in the dense scheme.  Memory is O(N * largest offset), not O(N^2).
* :class:`PairScheme`, the dense form over all N(N+1)/2 pairs, for kernels
  whose ``factors`` returns None (tabulated and user kernels).

The two agree cellwise to rounding of the deposit weights.

:class:`OhsScheme` needs, per cell, partial sums of the kernel over the
partners below and above it.  With separable factors these are prefix and
suffix sums of the factors times the density, O(N) in memory and work;
kernels without factors keep the two dense N x N kernel triangles.  Of the
schemes, only these dense fallbacks are O(N^2) in memory, and each refuses,
with a :class:`ConfigError` before allocating, a table larger than physical
memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import TruncatedKernel
from .sizedomain import NumberDensity, SizeGrid


@dataclass
class RateField:
    """d(zeta)/dt per cell plus the boundary mass-outflux rate."""

    grid: SizeGrid
    dzdt: np.ndarray
    outflux_rate: float


@dataclass(frozen=True)
class EpsParams:
    """Interpolation parameter of the generalized model and the domain cutoff."""

    eps: float
    n: float

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise DomainError("eps must lie in (0, 1]")
        if self.n <= 1.0:
            raise DomainError("n must exceed 1")


def _check_setup(density: NumberDensity, kernel: TruncatedKernel):
    if abs(density.grid.n - kernel.n) > 1e-12 * kernel.n:
        raise ConfigError(
            f"grid n={density.grid.n} does not match kernel truncation n={kernel.n}"
        )


def _check_table_bytes(nbytes, what):
    """Raise ConfigError before a dense table larger than physical memory is built."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise ConfigError(
            f"{what} would take {nbytes / 2**30:.1f} GiB, more than the "
            f"{physical / 2**30:.1f} GiB of physical memory; use fewer cells"
        )


def _deposit_targets(pivots, p):
    """Bracketing pivot index, linear weight, and overflow mask for births at p.

    Weight w goes to pivot a, (1-w) to pivot a+1, with w*x_a + (1-w)*x_{a+1}
    = p, so number and mass of the deposit are both exact.  Products above
    the last pivot overflow (mass routed to the boundary ledger).
    """
    overflow = p > pivots[-1]
    a = np.searchsorted(pivots, p, side="right") - 1
    a = np.clip(a, 0, pivots.size - 2)
    w = (pivots[a + 1] - p) / (pivots[a + 1] - pivots[a])
    w = np.where(overflow, 0.0, np.clip(w, 0.0, 1.0))
    return a, w, overflow


class _PairSet:
    """Ordered pairs (big m >= small j) with their exact collision products.

    Holds the per-pair event rate factor and the two-point deposit of the
    product p = x_m + eps * x_j on the pivots (the centers and n), or its
    overflow into the boundary ledger.
    """

    def __init__(self, grid, K, m_idx, j_idx, eps):
        self.m_idx = m_idx
        self.j_idx = j_idx
        self.diag = m_idx == j_idx
        # events per unit zd_m zd_j; the diagonal carries the double integral once
        self.rate = np.where(self.diag, 0.5, 1.0) * K / eps
        x = grid.centers
        p = x[m_idx] + eps * x[j_idx]
        self.n = grid.n
        a, w, over = _deposit_targets(np.append(x, grid.n), p)
        self.over = over
        self.a = a[~over]
        self.w = w[~over]
        self.p_over = p[over]

    def events(self, zd):
        return self.rate * zd[self.m_idx] * zd[self.j_idx]

    def deposit(self, events, size):
        """Births per cell from the in-domain products, and the mass outflux rate."""
        ev = events[~self.over]
        births = np.bincount(self.a, weights=ev * self.w, minlength=size + 1)
        births += np.bincount(self.a + 1, weights=ev * (1.0 - self.w), minlength=size + 1)
        outflux = self.n * births[size] + np.sum(events[self.over] * self.p_over)
        return births[:size], float(outflux)


class PairScheme:
    """Pairwise event quadrature of the generalized (epsilon-family) operator.

    Collisions of an ordered size pair (big x_m, small x_j) happen at event
    rate Lambda(x_m, x_j) zeta_m zeta_j dx_m dx_j / eps (halved on the
    diagonal, which carries the symmetric double integral once).  Each
    event removes the big particle, removes the small one and rebirths it
    with weight (1 - eps), and creates one product at x_m + eps * x_j.

    This dense form stores all N(N+1)/2 pairs; it serves kernels without
    separable factors.
    """

    def __init__(self, grid: SizeGrid, kernel: TruncatedKernel, eps: float):
        if not (0.0 < eps <= 1.0):
            raise DomainError("eps must lie in (0, 1]")
        self.grid = grid
        self.eps = float(eps)
        # per pair: seven 8-byte arrays (two indices, kernel, rate, product,
        # pivot, weight) and two 1-byte masks (diagonal, overflow)
        _check_table_bytes((7 * 8 + 2) * grid.size * (grid.size + 1) // 2,
                           "the dense pair table")
        x = grid.centers
        m_idx, j_idx = np.tril_indices(grid.size)
        K = np.asarray(kernel.eval(x[m_idx], x[j_idx]))
        self.pairs = _PairSet(grid, K, m_idx, j_idx, self.eps)

    def rhs(self, values: np.ndarray):
        grid = self.grid
        pairs = self.pairs
        events = pairs.events(values * grid.widths)
        outgo_big = np.where(pairs.diag, (1.0 + self.eps) * events, events)
        outgo_small = np.where(pairs.diag, 0.0, self.eps * events)
        outgo = np.bincount(pairs.m_idx, weights=outgo_big, minlength=grid.size)
        outgo += np.bincount(pairs.j_idx, weights=outgo_small, minlength=grid.size)
        births, outflux = pairs.deposit(events, grid.size)
        return (births - outgo) / grid.widths, outflux


class LagScheme:
    """The generalized operator of :class:`PairScheme` without its pair table.

    Needs separable kernel factors, Lambda(x_m, x_j) = sum_r f_r[m] g_r[j]
    for j <= m, and uses the geometric grid's lag structure: the product of
    the pair (m, m - d) sits at x_m (1 + eps r^-d), so its deposit offset
    o_d = a - m and two-point weight w_d depend on the lag d only.  With
    u_r = f_r zd and v_r = g_r zd,

    * births into cells m + o and m + o + 1 are u_r[m] times a direct
      convolution of v_r with the weights of the lags in offset group o,
      so they stay sums of nonnegative terms;
    * deaths are u_r (prefix(v_r) - v_r / 2) / eps + v_r (suffix(u_r) - u_r / 2);
    * pairs whose product lands at or above the second-to-last cell form a
      band of at most N (max o_d + 2) pairs that is deposited from the exact
      product x_m + eps x_j, as in the dense scheme, and carries the whole
      outflux.
    """

    def __init__(self, grid: SizeGrid, factors, eps: float):
        if not (0.0 < eps <= 1.0):
            raise DomainError("eps must lie in (0, 1]")
        self.grid = grid
        self.eps = float(eps)
        x = grid.centers
        size = grid.size
        self.f = np.array([f for f, _ in factors])
        self.g = np.array([g for _, g in factors])

        # Lag d: product at x_m * q_d, bracketed by the center ratios y.
        # q_d decreases with d, so each offset covers one run of lags.
        lags = np.arange(size)
        y = x / x[0]
        q = 1.0 + self.eps * (x[0] / x)
        offset = np.searchsorted(y, q, side="right") - 1
        rate = np.where(lags == 0, 0.5, 1.0) / self.eps

        # Convolution groups: lags [lo, hi) share offset o; pairs with
        # m < top = size - 2 - o deposit strictly below the band.
        self.groups = []
        for o, lo, length in zip(*np.unique(offset, return_index=True, return_counts=True)):
            hi, top = lo + length, size - 2 - o
            if lo >= top:
                continue
            w = np.clip((y[o + 1] - q[lo:hi]) / (y[o + 1] - y[o]), 0.0, 1.0)
            self.groups.append((int(o), int(lo), int(top), w * rate[lo:hi],
                                (1.0 - w) * rate[lo:hi]))

        # Band: for each lag, the pairs with m + o_d >= size - 2.
        start = np.maximum(lags, size - 2 - offset)
        count = size - start
        within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        m_idx = np.repeat(start, count) + within
        j_idx = m_idx - np.repeat(lags, count)
        K = np.einsum("rp,rp->p", self.f[:, m_idx], self.g[:, j_idx])
        self.band = _PairSet(grid, K, m_idx, j_idx, self.eps)

    def rhs(self, values: np.ndarray):
        grid = self.grid
        zd = values * grid.widths
        u = self.f * zd
        v = self.g * zd
        births, outflux = self.band.deposit(self.band.events(zd), grid.size)
        for o, lo, top, h_lo, h_hi in self.groups:
            span = top - lo
            for ur, vr in zip(u, v):
                big = ur[lo:top]
                births[lo + o:top + o] += big * np.convolve(vr[:span], h_lo)[:span]
                births[lo + o + 1:top + o + 1] += big * np.convolve(vr[:span], h_hi)[:span]
        prefix = np.cumsum(v, axis=1)
        suffix = np.cumsum(u[:, ::-1], axis=1)[:, ::-1]
        outgo = np.sum(u * (prefix - 0.5 * v) / self.eps + v * (suffix - 0.5 * u), axis=0)
        return (births - outgo) / grid.widths, outflux


class OhsScheme:
    """Upwind transport plus death for the Oort-Hulst-Safronov model.

    The advective flux at the right edge of cell b is zeta_b times a
    mass-matched velocity: the mass-eaten rate of cell b from partners at
    or below it, normalized by the pivot gap.  This makes the telescoped
    transport mass gain cancel the death mass loss pairwise, so the ledger
    identity d/dt(M1) + outflux_rate = 0 holds exactly.  As in the pair
    scheme, the self-pair (i, i) has weight 1/2 in both rates, so that
    d/dt(M0) = -1/2 zd^T K zd minus the boundary number flux.

    Both rates are partial sums over the kernel's triangles, and the kernel
    alone chooses how they are formed.  With separable factors
    Lambda(x_i, x_j) = sum_r f_r[i] g_r[j] for j <= i, the mass-eaten rate
    is sum_r f_r prefix(g_r x zd) and, Lambda being symmetric, the death
    rate is sum_r g_r suffix(f_r zd), each less half its diagonal term
    K_ii = sum_r f_r[i] g_r[i]: O(N) work and memory.  Kernels without
    factors keep the two N x N triangles, diagonals halved, and take two
    dense matrix-vector products.
    """

    def __init__(self, grid: SizeGrid, kernel: TruncatedKernel):
        self.grid = grid
        x = grid.centers
        factors = kernel.factors(x)
        if factors is None:
            # the full kernel and both triangles are alive while this is built
            _check_table_bytes(3 * 8 * grid.size**2, "the dense OHS kernel triangles")
            K = np.asarray(kernel.eval(x[:, None], x[None, :]))
            self.triangles = (np.tril(K), np.triu(K))
            for triangle in self.triangles:
                np.fill_diagonal(triangle, 0.5 * np.diag(K))
        else:
            self.triangles = None
            self.f = np.array([f for f, _ in factors])
            self.g = np.array([g for _, g in factors])
            self.half_diag = 0.5 * np.sum(self.f * self.g, axis=0)
        gaps = np.empty(grid.size)
        gaps[:-1] = x[1:] - x[:-1]
        gaps[-1] = grid.n - x[-1]
        self.gap_scale = grid.widths / gaps

    def rhs(self, values: np.ndarray):
        grid = self.grid
        x = grid.centers
        zd = values * grid.widths
        # eaten_i = sum_{j<i} K_ij x_j zd_j + K_ii x_i zd_i / 2 (per unit zd
        # of the eater), partners_i = sum_{j>i} K_ij zd_j + K_ii zd_i / 2
        if self.triangles is None:
            self_pair = self.half_diag * zd
            eaten = np.sum(self.f * np.cumsum(self.g * (x * zd), axis=1), axis=0) - x * self_pair
            suffix = np.cumsum((self.f * zd)[:, ::-1], axis=1)[:, ::-1]
            partners = np.sum(self.g * suffix, axis=0) - self_pair
        else:
            lower, upper = self.triangles
            eaten, partners = lower @ (x * zd), upper @ zd
        flux = values * eaten * self.gap_scale   # number flux through right edges
        transport = np.empty(grid.size)
        transport[0] = -flux[0]
        transport[1:] = flux[:-1] - flux[1:]
        transport /= grid.widths
        death = values * partners
        outflux = float(x[-1] * flux[-1] + zd[-1] * eaten[-1])
        return transport - death, outflux


def _pair_scheme(grid, kernel, eps):
    factors = kernel.factors(grid.centers)
    if factors is None:
        return PairScheme(grid, kernel, eps)
    return LagScheme(grid, factors, eps)


def generalized_rhs(density: NumberDensity, kernel: TruncatedKernel,
                    params: EpsParams) -> RateField:
    """Rate of the generalized coagulation operator at parameter eps."""
    if abs(params.n - kernel.n) > 1e-12 * kernel.n:
        raise ConfigError("params.n does not match the kernel truncation")
    return make_rhs("generalized", kernel, params.eps)(density)


def sce_rhs(density: NumberDensity, kernel: TruncatedKernel) -> RateField:
    """Rate of the classical Smoluchowski operator (the eps = 1 pair scheme)."""
    return make_rhs("sce", kernel)(density)


def ohs_rhs(density: NumberDensity, kernel: TruncatedKernel) -> RateField:
    """Rate of the Oort-Hulst-Safronov operator (transport + death)."""
    return make_rhs("ohs", kernel)(density)


def weak_action(rhs: RateField, omega) -> float:
    """Instantaneous weak-form pairing  sum_i omega(x_i) Q_i dx_i."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != rhs.grid.centers.shape:
        raise ConfigError("omega must be sampled at the grid cell centers")
    return float(np.sum(omega * rhs.dzdt * rhs.grid.widths))


def make_rhs(model: str, kernel: TruncatedKernel, eps: float | None = None):
    """Bind a model to a density -> RateField callable that owns its scheme.

    ``"sce"`` is the eps = 1 pair scheme.  The scheme is built on the first
    density the callable receives and reused while later densities share
    its grid.
    """
    if model not in ("sce", "ohs", "generalized"):
        raise ConfigError(f"unknown model {model!r}")
    if model == "sce":
        eps = 1.0
    if model != "ohs":
        if eps is None:
            raise ConfigError("generalized model requires eps")
        EpsParams(eps=eps, n=kernel.n)  # raises DomainError for eps outside (0, 1]
    scheme = None

    def rhs(density: NumberDensity) -> RateField:
        nonlocal scheme
        if scheme is None or scheme.grid is not density.grid:
            _check_setup(density, kernel)
            grid = density.grid
            scheme = OhsScheme(grid, kernel) if model == "ohs" else _pair_scheme(grid, kernel, eps)
        dzdt, outflux = scheme.rhs(density.values)
        return RateField(density.grid, dzdt, outflux)

    return rhs
