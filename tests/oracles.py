"""Independent reference implementations that the tests compare against."""

import numpy as np

from gencoag import NumberDensity, SizeGrid, TruncatedKernel
from gencoag.operators import _PairSet, _deposit_targets


class SmoluchowskiScheme:
    """Classical Smoluchowski quadrature over the full ordered-pair square.

    Births carry the 1/2 symmetry factor of the convolution integral; the
    death term is the plain collision sum.  Kept independent of the pair
    schemes so the epsilon = 1 equivalence is a genuine cross-check of two
    implementations, not one code path.
    """

    def __init__(self, grid: SizeGrid, kernel: TruncatedKernel):
        self.grid = grid
        x = grid.centers
        self.K = np.asarray(kernel.eval(x[:, None], x[None, :]))
        p = (x[:, None] + x[None, :]).ravel()
        self.p = p
        # the domain end n is a virtual last pivot: its share leaves the domain
        self.a, self.w, self.over = _deposit_targets(np.append(x, grid.n), p)
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
    N(N+1)/2 ordered pairs, with the kernel from ``eval`` instead of its
    factors.  Each pair's bookkeeping is the band's :class:`_PairSet`; the
    small partners' deaths, which the lag scheme takes from suffix sums, are
    :func:`pair_deaths`.
    """

    def __init__(self, grid: SizeGrid, kernel: TruncatedKernel, eps: float):
        self.grid = grid
        x = grid.centers
        m_idx, j_idx = np.tril_indices(grid.size)
        K = np.asarray(kernel.eval(x[m_idx], x[j_idx]))
        self.pairs = _PairSet(grid, K, m_idx, j_idx, eps)

    def rhs(self, values: np.ndarray):
        zd = values * self.grid.widths
        births, losses, outflux = self.pairs.transfer(zd)
        outgo = losses + pair_deaths(self.pairs, zd)
        return (births - outgo) / self.grid.widths, outflux


def pair_deaths(pairs, zd):
    """Small-partner deaths per cell of a :class:`_PairSet`."""
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


def ohs_velocities(density: NumberDensity, kernel: TruncatedKernel) -> np.ndarray:
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


def ohs_velocity(density: NumberDensity, kernel: TruncatedKernel, i: int) -> float:
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
