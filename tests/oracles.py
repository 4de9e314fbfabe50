"""Independent reference implementations that the tests compare against."""

import numpy as np

from gencoag import ConvexGauge, DomainError, Kernel, NumberDensity, SizeGrid, testfuncs
from gencoag.sizedomain import weight_values


def weighted_norm(density: NumberDensity, weight: str, sigma: float = 0.0) -> float:
    """Midpoint moment  sum_i w(x_i) |zeta_i| dx_i  of one density, ``weight`` a stock weight."""
    w = weight_values(density.grid.centers, weight, sigma)
    return float(np.sum(w * np.abs(density.values) * density.grid.widths))


def cell_of(grid: SizeGrid, mu: float) -> int:
    """Index of the cell of ``grid`` that contains size ``mu`` in [1/n, n], n in the last."""
    return min(int(np.searchsorted(grid.edges, mu, side="right")) - 1, grid.size - 1)


def point_mass(grid: SizeGrid, mu0: float, mass: float = 1.0) -> NumberDensity:
    """Mass ``mass`` placed entirely in the cell c that contains ``mu0``: the cell average
    mass / (x_c dx_c) there and 0 elsewhere, so its midpoint mass moment is ``mass``."""
    c = cell_of(grid, mu0)
    values = np.zeros(grid.size)
    values[c] = mass / (grid.centers[c] * grid.widths[c])
    return NumberDensity(grid, values)


def deposit_targets(pivots, p):
    """Bracketing pivot index, linear weight, and overflow mask for births at p.

    Weight w goes to pivot a, (1-w) to pivot a+1, with w*x_a + (1-w)*x_{a+1}
    = p, so number and mass of the deposit are both exact.  Products above
    the last pivot overflow (mass routed to the boundary ledger).
    """
    overflow = p > pivots[-1]
    a = np.clip(np.searchsorted(pivots, p, side="right") - 1, 0, pivots.size - 2)
    w = (pivots[a + 1] - p) / (pivots[a + 1] - pivots[a])
    return a, np.where(overflow, 0.0, np.clip(w, 0.0, 1.0)), overflow


class SmoluchowskiScheme:
    """Classical Smoluchowski quadrature over the full ordered-pair square.

    Births carry the 1/2 symmetry factor of the convolution integral; the
    death term is the plain collision sum.  It reads the kernel through
    ``eval``, where the package's pair scheme reads its factors, and splits
    deposits with this module's :func:`deposit_targets`, so the epsilon = 1
    equivalence cross-checks two implementations, not one code path.
    """

    def __init__(self, grid: SizeGrid, kernel: Kernel):
        self.grid = grid
        x = grid.centers
        self.K = np.asarray(kernel.eval(x[:, None], x[None, :]))
        p = (x[:, None] + x[None, :]).ravel()
        self.p = p
        # the domain end n is a virtual last pivot: its share leaves the domain
        self.a, self.w, self.over = deposit_targets(np.append(x, grid.n), p)
        self.valid = ~self.over

    def rhs(self, values: np.ndarray):
        grid = self.grid
        zd = values * grid.widths
        pair = 0.5 * (self.K * np.outer(zd, zd)).ravel()

        ev = pair[self.valid]
        wv = self.w[self.valid]
        av = self.a[self.valid]
        births = np.bincount(av, weights=ev * wv, minlength=grid.size + 1)
        births += np.bincount(av + 1, weights=ev * (1.0 - wv), minlength=grid.size + 1)

        death = zd * (self.K @ zd)
        outflux = float(grid.n * births[-1] + np.sum(pair[self.over] * self.p[self.over]))
        return (births[:-1] - death) / grid.widths, outflux


class PairScheme:
    """Dense pairwise event quadrature of the generalized operator, eps in [0, 1].

    The quadrature of :class:`gencoag.operators.LagScheme` over all
    N(N+1)/2 ordered pairs (big m >= small j), with the kernel from ``eval``
    instead of its factors, and each pair's target from the pivots (the
    centers and n) instead of its lag.  Per unit zd_m zd_j the small partner
    dies at ``kill`` (Lambda, halved on the diagonal), and the big one
    leaves cell m at ``rate`` for the pivots a, share w, and a + 1, share
    1 - w.  A pair whose product p = x_m + eps x_j lands in the big
    partner's own bracket moves it to the next pivot, a = m and w = 0, at
    kill x_j / gap_m; any other pair deposits p at kill / eps, or, for
    p > n, sends its mass into the boundary ledger.
    """

    def __init__(self, grid: SizeGrid, kernel: Kernel, eps: float):
        self.grid = grid
        x = grid.centers
        self.m_idx, self.j_idx = np.tril_indices(grid.size)
        pivots = np.append(x, grid.n)
        p = x[self.m_idx] + eps * x[self.j_idx]
        self.a, self.w, self.over = deposit_targets(pivots, p)
        move = (self.a == self.m_idx) & ~self.over
        K = np.asarray(kernel.eval(x[self.m_idx], x[self.j_idx]))
        self.kill = np.where(self.m_idx == self.j_idx, 0.5, 1.0) * K
        self.rate = np.empty_like(self.kill)
        gap = np.diff(pivots)[self.m_idx[move]]
        self.rate[move] = self.kill[move] * x[self.j_idx[move]] / gap
        self.rate[~move] = self.kill[~move] / eps
        self.w[move] = 0.0
        self.p = p

    def rhs(self, values: np.ndarray):
        grid = self.grid
        size = grid.size
        zd = values * grid.widths
        big = self.rate * zd[self.m_idx] * zd[self.j_idx]
        ev, a, w = big[~self.over], self.a[~self.over], self.w[~self.over]
        births = np.bincount(a, weights=ev * w, minlength=size + 1)
        births += np.bincount(a + 1, weights=ev * (1.0 - w), minlength=size + 1)
        outflux = grid.n * births[size] + np.sum(big[self.over] * self.p[self.over])
        outgo = np.bincount(self.m_idx, weights=big, minlength=size) + pair_deaths(self, zd)
        return (births[:size] - outgo) / grid.widths, float(outflux)


def unique_lag_groups(grid: SizeGrid, eps: float):
    """:class:`LagScheme`'s lag groups and offset-0 moves, from ``np.unique`` over the offsets.

    The scheme finds the same runs of lags without sorting; this sorts the
    offsets and takes each distinct one's first lag and lag count.
    """
    x = grid.centers
    size = grid.size
    lags = np.arange(size)
    y = x / x[0]
    q = 1.0 + eps * (x[0] / x)
    offset = np.searchsorted(y, q, side="right") - 1
    groups, moves = [], (0, 0)
    for o, lo, length in zip(*np.unique(offset, return_index=True, return_counts=True)):
        hi, top = lo + length, size - 1 - o
        if lo >= top:
            continue
        if o == 0:
            moves = (int(lo), int(top))
            continue
        rate = np.where(lags[lo:hi] == 0, 0.5, 1.0) / eps
        w = np.clip((y[o + 1] - q[lo:hi]) / (y[o + 1] - y[o]), 0.0, 1.0)
        groups.append((int(o), int(lo), int(top), w * rate, (1.0 - w) * rate))
    return groups, moves


def pair_deaths(pairs, zd):
    """Small-partner deaths per cell of a :class:`PairScheme`."""
    kill = pairs.kill * zd[pairs.m_idx] * zd[pairs.j_idx]
    return np.bincount(pairs.j_idx, weights=kill, minlength=zd.size)


def smoluchowski_rhs(density, kernel):
    """(dzdt, outflux) of the full-square Smoluchowski quadrature on ``density``."""
    return SmoluchowskiScheme(density.grid, kernel).rhs(density.values)


def dense_ohs(grid, kernel, values):
    """OHS rate from the two dense kernel triangles, plus the gross rate per cell.

    Upwind transport through each cell's right edge at the mass-matched
    velocity (the mass eaten from partners at or below the cell, over the
    pivot gap, the last gap being n - x[-1]) plus death by larger partners.
    Both triangles carry their diagonal at weight 1/2.  The gross rate of a
    cell is the number flux through both of its edges plus its deaths
    (number per unit time).
    """
    x, dx = grid.centers, grid.widths
    zd = values * dx
    K = np.asarray(kernel.eval(x[:, None], x[None, :]))
    half = 0.5 * np.diag(np.diag(K))
    eaten = (np.tril(K) - half) @ (x * zd)
    gaps = np.append(np.diff(x), grid.n - x[-1])
    flux = values * eaten * dx / gaps
    inflow = np.concatenate(([0.0], flux[:-1]))
    death = zd * ((np.triu(K) - half) @ zd)
    outflux = x[-1] * flux[-1] + zd[-1] * eaten[-1]
    return (inflow - flux - death) / dx, outflux, inflow + flux + death


def ohs_velocities(density: NumberDensity, kernel: Kernel) -> np.ndarray:
    """Edge-sampled OHS transport velocities, one per right cell edge.

    v_i = sum over partners with center strictly below x_i of
    x_j Lambda(edge_{i+1}, x_j) zeta_j dx_j; nonnegative by construction.
    The scheme's mass-matched velocity differs from it at first order.
    """
    grid = density.grid
    x = grid.centers
    KE = np.asarray(kernel.eval(grid.edges[1:][:, None], x[None, :]))
    mask = x[None, :] < x[:, None]
    return (KE * mask) @ (x * density.values * grid.widths)


def ohs_velocity(density: NumberDensity, kernel: Kernel, i: int) -> float:
    """Edge-sampled OHS transport velocity at the right edge of cell i."""
    return float(ohs_velocities(density, kernel)[i])


def block_crossing_rates(traj, m, kernel):
    """Crossing rates at edge m from the (N - m) x m kernel block.

    Entry [k, j] is sum_{i >= m} Lambda(x_i, x_j) zeta_i dx_i * x_j zeta_j dx_j
    at snapshot k, for the small partner j < m.
    """
    x = traj.grid.centers
    zd = traj.values * traj.grid.widths
    K = np.asarray(kernel.eval(x[m:][:, None], x[:m][None, :]))
    return np.einsum("ki,ij->kj", zd[:, m:], K) * (x[:m] * zd[:, :m])


#: Each growth regime of the kernel class: the mu and nu ranges a scan
#: samples, and the regime's bound at k = 1.
GROWTH_REGIMES = {
    "small_small": ((1e-6, 1.0), (1e-6, 1.0), lambda mu, nu, s: (mu * nu) ** -s),
    "large_small": ((1.0, 1e6), (1e-6, 1.0), lambda mu, nu, s: mu * nu**-s),
    "large_large": ((1.0, 1e6), (1.0, 1e6), lambda mu, nu, s: mu + nu),
}


def sup_bound(kernel: Kernel, n: float) -> float:
    """2 k n^(2 + 2 sigma), an a-priori sup of ``kernel`` on [1/n, n]^2, a grid's box.

    Each regime bound at the certified k is at most 2 k n^(1 + sigma) on
    the box, so this one holds with room to spare.
    """
    return 2.0 * kernel.k * n ** (2.0 + 2.0 * kernel.sigma)


def log_uniform_with_corners(rng, mu_range, nu_range, size):
    """``size`` log-uniform (mu, nu) pairs in the box, then its four corners.

    Suprema sit on regime boundaries, where random samples rarely land.
    """
    mu = np.exp(rng.uniform(np.log(mu_range[0]), np.log(mu_range[1]), size))
    nu = np.exp(rng.uniform(np.log(nu_range[0]), np.log(nu_range[1]), size))
    corner_mu, corner_nu = np.meshgrid(mu_range, nu_range)
    return np.append(mu, corner_mu), np.append(nu, corner_nu)


def growth_ratios(kernel, name, rng, size=4000):
    """Lambda over the bound of growth regime ``name`` at k = 1, on a scan of the regime."""
    mu_range, nu_range, bound = GROWTH_REGIMES[name]
    mu, nu = log_uniform_with_corners(rng, mu_range, nu_range, size)
    return kernel.eval(mu, nu) / bound(mu, nu, kernel.sigma)


def scaled_falls(kernel, rng, size=4000, step=1e-5):
    """-dLambda/dmu mu^(s+1) nu^s by central differences, and each one's rounding noise.

    The points are log-uniform on [1e-6, 1e6]^2, kept off the diagonal,
    where the canonical evaluation has a kink that a stencil would straddle.
    The step is relative, h = step * mu.
    """
    mu, nu = log_uniform_with_corners(rng, (1e-6, 1e6), (1e-6, 1e6), size)
    off = np.abs(np.log(mu / nu)) > 4.0 * step
    mu, nu = mu[off], nu[off]
    h = step * mu
    up, dn = kernel.eval(mu + h, nu), kernel.eval(mu - h, nu)
    weight = mu * (mu * nu) ** kernel.sigma
    return -(up - dn) / (2.0 * h) * weight, np.finfo(float).eps * (up + dn) / h * weight


def psi_prime(gauge: ConvexGauge, s) -> np.ndarray:
    """Psi' of ``gauge``: linear on each segment, from its breakpoints, values and slopes."""
    s = np.asarray(s, dtype=float)
    r = gauge.breakpoints
    i = np.clip(np.searchsorted(r, s, side="right") - 1, 0, r.size - 2)
    return gauge.psi_prime_values[i] + gauge.slopes[i] * (s - r[i])


def square_gauge() -> ConvexGauge:
    """Psi(s) = s^2: one segment of Psi' = 2 s, continued beyond its end."""
    return ConvexGauge([0.0, 1.0], [0.0, 2.0])


def check_inequalities(gauge, samples: int = 10000, seed: int = 0,
                       z_range=(1e-4, 1e4)):
    """Randomized verification of the three convexity inequalities.

    Checks, on log-uniform pairs (z1, z2):
      (a)  Psi(z) <= z Psi'(z) <= 2 Psi(z)
      (b)  z1 Psi'(z2) <= Psi(z1) + Psi(z2)
      (c)  0 <= Psi(z1+z2) - Psi(z1) - Psi(z2)
             <= 2 (z1 Psi(z2) + z2 Psi(z1)) / (z1 + z2)

    Violations beyond 1e-10 of the local scale are reported.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    z1 = np.exp(rng.uniform(np.log(z_range[0]), np.log(z_range[1]), samples))
    z2 = np.exp(rng.uniform(np.log(z_range[0]), np.log(z_range[1]), samples))
    p1, p2 = gauge.psi(z1), gauge.psi(z2)
    d1, d2 = psi_prime(gauge, z1), psi_prime(gauge, z2)
    psum = gauge.psi(z1 + z2)

    def tol(scale):
        return 1e-10 * np.maximum(scale, 1.0)

    checks = {
        "psi_le_s_dpsi": p1 - z1 * d1,
        "s_dpsi_le_2psi": z1 * d1 - 2.0 * p1,
        "cross_young": z1 * d2 - (p1 + p2),
        "superadditive": -(psum - p1 - p2),
        "doubling_upper": (psum - p1 - p2) - 2.0 * (z1 * p2 + z2 * p1) / (z1 + z2),
    }
    worst = {}
    violations = 0
    for name, excess in checks.items():
        scale = np.abs(p1) + np.abs(p2) + np.abs(z1 * d1) + np.abs(z1 * d2)
        bad = excess > tol(scale)
        violations += int(np.count_nonzero(bad))
        worst[name] = float(np.max(excess / np.maximum(scale, 1.0)))
    return {"passed": violations == 0, "violations": violations, "worst_excess": worst}


class SmoothOmega:
    """A test function with its exact derivative and sup |omega''|."""

    def __init__(self, value, derivative, sup_second):
        self._value = value
        self._derivative = derivative
        self.sup_second = sup_second

    def __call__(self, mu):
        return self._value(np.asarray(mu, dtype=float))

    def derivative(self, mu):
        return self._derivative(np.asarray(mu, dtype=float))


def smooth_one():
    return SmoothOmega(testfuncs.constant_one(), np.zeros_like, 0.0)


def smooth_square():
    return SmoothOmega(testfuncs.square(), lambda mu: 2.0 * mu, 2.0)


def smooth_bump(a, b):
    """testfuncs.bump(a, b); sup |omega''| = 32 / (b-a)^2."""
    span4 = (b - a) ** 4

    def der(mu):
        inside = (mu >= a) & (mu <= b)
        return np.where(inside, 32.0 * (mu - a) * (b - mu) * (a + b - 2.0 * mu) / span4, 0.0)

    return SmoothOmega(testfuncs.bump(a, b), der, 32.0 / (b - a) ** 2)


def smooth_library():
    """Smooth functions with exact sup |omega''| for Taylor-bound checks:
    mu^2, a bump, exp(-mu), log(1 + mu) and 1 / (1 + mu)."""
    return [
        smooth_square(),
        smooth_bump(2.0, 8.0),
        SmoothOmega(lambda mu: np.exp(-mu), lambda mu: -np.exp(-mu), 1.0),
        SmoothOmega(np.log1p, lambda mu: 1.0 / (1.0 + mu), 1.0),
        SmoothOmega(lambda mu: 1.0 / (1.0 + mu), lambda mu: -1.0 / (1.0 + mu) ** 2, 2.0),
    ]


def omega_identity(omega, variant: str, nu: float, tau: float, eps: float | None = None) -> float:
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
