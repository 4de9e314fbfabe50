"""Discrete right-hand sides for the three coagulation models.

All three operators act on cell-averaged densities over a geometric grid
and return the pair (dzdt, outflux): d(zeta)/dt per cell and the rate at
which mass leaves through the upper boundary (the outflux ledger rate).

The three models are members of one family: the generalized operator at
parameter eps in [0, 1], whose eps = 1 member is the Smoluchowski equation
(SCE) and whose eps = 0 member is the Oort-Hulst-Safronov (OHS) limit.  One
pair quadrature serves the whole range; the full-square Smoluchowski
quadrature and a dense OHS rate live in the tests as independent oracles.
A scheme lives as long as the :func:`make_rhs` callable that built it.

Design rules of the pair scheme:

* every integral is a midpoint sum over cells, so birth/death pairings
  stay exactly dual and the linear weak-form identities hold to rounding;
* a collision product at off-grid size p is split between the two
  bracketing cell centers with the unique two-point weights that preserve
  both particle number and particle mass (linear allocation in size);
* the domain end n is one more pivot, whose share leaves through the
  boundary, as does the full mass of a product beyond n.  This realizes the
  domain indicator of the truncated weak form without losing mass, and the
  kernel is read at the centers only, inside [1/n, n]^2, so it needs no mask;
* a pair whose product lands in the big partner's own bracket
  [x_m, next pivot) is "offset 0".  Its event would remove the big
  particle at rate Lambda / eps and put back all of it but the share
  eps x_j / gap_m; the scheme forms that net move directly, of the big
  particle to the next pivot at rate Lambda x_j / gap_m, which has no eps
  in it.  Only the other pairs carry the factor 1 / eps, and for them
  eps x_j >= gap_m, so no rate exceeds Lambda x_j / gap_m at any eps.

With these rules the semi-discrete system satisfies, exactly in floating
point: d/dt(M1) + outflux = 0 and d/dt(M0) <= 0, and ledger closure
stays at rounding uniformly in eps.  Below sqrt(r) - 1 (r the grid ratio;
the top cell's gap n - x[-1] is (sqrt(r) - 1) x[-1]) every pair is offset
0, every member runs the arithmetic of eps = 0 bit for bit, and the scheme
is the OHS quadrature: upwind transport with a mass-matched velocity, the
flux through the last gap leaving at n, plus the death of the small
partner.

The quadrature runs on separable kernel factors,
Lambda(x_m, x_j) = sum_r f_r(x_m) g_r(x_j) on x_j <= x_m, which every kernel
supplies through ``factors(x)``.  On a geometric grid the product of the
pair (m, m - d) is x_m (1 + eps r^-d), so its deposit offset and two-point
weight depend on the lag d only (:class:`LagScheme`).  Births become a few
direct convolutions, one pair per group of lags sharing a nonzero offset;
the offset-0 moves and the deaths become prefix and suffix sums.  Products
landing at the top of the grid form a band that is handled pair by pair.
Memory is O(N * (largest offset + rank)); a scheme whose band and per-cell
arrays would outgrow physical memory is refused with a :class:`ConfigError`
before the band is allocated.  The dense pair table over all N(N+1)/2
pairs lives in the tests as an oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import Kernel
from .sizedomain import NumberDensity, SizeGrid, _check_table_bytes


def _scheme_bytes(pairs, rank, cells):
    """Bytes that building a :class:`LagScheme` and one ``rhs`` call hold at peak, at most.

    Per band pair the build makes four index arrays, the ``rank`` gathers
    each of f and g, the kernel, and _PairSet's seven 8-byte arrays and
    three masks; the band arrays of ``rhs`` fit in what the build frees.
    Per cell the build keeps f, g and the gaps and makes about a dozen lag
    arrays, and ``rhs`` adds about seven arrays of ``rank`` rows (u, v, x v,
    the prefix and suffix sums and their products).
    """
    return (8 * (12 + 2 * rank) + 3) * pairs + 8 * (12 + 9 * rank) * cells


def _lag_band(grid: SizeGrid, eps: float):
    """Per lag d of the :class:`LagScheme` at ``eps``: y, q_d, o_d and the band's pair count.

    The product of the pair (m, m - d) sits at x_m q_d, in the bracket
    [y[o_d], y[o_d + 1]) of the center ratios y = x / x_0: o_d is its
    deposit offset.  q_d decreases with d, so each offset covers one run of
    lags.  The band holds the pairs of lag d with m + o_d >= N - 2.
    """
    x = grid.centers
    y = x / x[0]
    q = 1.0 + eps * (x[0] / x)
    offset = np.searchsorted(y, q, side="right") - 1
    return y, q, offset, grid.size - np.maximum(np.arange(grid.size), grid.size - 2 - offset)


def scheme_bytes(grid: SizeGrid, model: str, kernel: Kernel, eps=None) -> int:
    """:func:`_scheme_bytes` of the scheme ``make_rhs(model, kernel, eps)`` builds on ``grid``."""
    pairs = int(_lag_band(grid, computed_eps(model, eps))[3].sum())
    rank = len(kernel.factors(grid.centers[:1]))  # the factor count does not depend on x
    return _scheme_bytes(pairs, rank, grid.size)


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
    """Ordered pairs (big m >= small j) and where their collisions send the partners.

    Per unit zd_m zd_j, the small partner dies at ``kill`` (Lambda, halved
    on the diagonal, which carries the symmetric double integral once), and
    the big one leaves cell m at ``rate`` for the pivots (the centers and n)
    a, share w, and a + 1, share 1 - w.  An offset-0 pair moves it to the
    next pivot, a = m and w = 0, at kill x_j / gap_m.  Any other pair
    deposits the product p = x_m + eps x_j at kill / eps, or, for p > n,
    sends its mass into the boundary ledger.
    """

    def __init__(self, grid, K, m_idx, j_idx, eps):
        self.m_idx = m_idx
        self.j_idx = j_idx
        self.n = grid.n
        x = grid.centers
        pivots = np.append(x, grid.n)
        p = x[m_idx] + eps * x[j_idx]
        a, w, over = _deposit_targets(pivots, p)
        move = (a == m_idx) & ~over
        self.kill = np.where(m_idx == j_idx, 0.5, 1.0) * K
        self.rate = np.empty_like(self.kill)
        self.rate[move] = self.kill[move] * x[j_idx[move]] / np.diff(pivots)[m_idx[move]]
        self.rate[~move] = self.kill[~move] / eps
        w[move] = 0.0
        self.over = over
        self.a = a[~over]
        self.w = w[~over]
        self.p_over = p[over]

    def transfer(self, zd):
        """Births and big-partner losses per cell, and the mass outflux rate."""
        size = zd.size
        big = self.rate * zd[self.m_idx] * zd[self.j_idx]
        ev = big[~self.over]
        births = np.bincount(self.a, weights=ev * self.w, minlength=size + 1)
        # an empty self.a (every product overflows) gives an integer count
        births = births.astype(float, copy=False)
        births += np.bincount(self.a + 1, weights=ev * (1.0 - self.w), minlength=size + 1)
        outflux = self.n * births[size] + np.sum(big[self.over] * self.p_over)
        losses = np.bincount(self.m_idx, weights=big, minlength=size)
        return births[:size], losses, float(outflux)


class LagScheme:
    """Pairwise event quadrature of the generalized operator, eps in [0, 1].

    Collisions of an ordered size pair (big x_m, small x_j) happen at event
    rate Lambda(x_m, x_j) zeta_m zeta_j dx_m dx_j / eps (halved on the
    diagonal, which carries the symmetric double integral once).  Each
    event removes the big particle, removes the small one and rebirths it
    with weight (1 - eps), and creates one product at x_m + eps * x_j.  For
    an offset-0 pair the scheme forms the net effect, which has no eps in
    it: the small partner dies and the big one moves on to the next pivot.
    At eps = 0 every pair is offset 0 and this is the OHS quadrature.

    Needs separable kernel factors, Lambda(x_m, x_j) = sum_r f_r[m] g_r[j]
    for j <= m, and uses the geometric grid's lag structure: the product of
    the pair (m, m - d) sits at x_m (1 + eps r^-d), so its deposit offset
    o_d = a - m and two-point weight w_d depend on the lag d only.  With
    u_r = f_r zd and v_r = g_r zd,

    * births into cells m + o and m + o + 1 from the lags of offset o >= 1
      are u_r[m] times a direct convolution of v_r with those lags' weights,
      taken over the cells where g_r is nonzero, and the big partners of
      these pairs die at u_r[m] times the sum of the two convolutions, so
      all stay sums of nonnegative terms;
    * the offset-0 lags d >= d0 move the big partner on to cell m + 1 at
      u_r[m] prefix(x v_r)[m - d0] / gap_m, the self-pair at half weight;
    * the small partners die at v_r (suffix(u_r) - u_r / 2);
    * pairs whose product lands at or above the second-to-last cell form a
      band of at most N (max o_d + 2) pairs that is handled pair by pair and
      carries the whole outflux.

    At eps = 0 every lag has offset 0, and the scheme is O(N) in work.
    """

    def __init__(self, grid: SizeGrid, factors, eps: float):
        self.grid = grid
        x = grid.centers
        size = grid.size
        self.f = np.array([f for f, _ in factors])
        self.g = np.array([g for _, g in factors])
        self.gaps = np.diff(x)
        # cells [s, e) outside which g_r is zero; (0, 0) for a zero factor
        self.support = [(int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
                        for nz in map(np.flatnonzero, self.g)]

        y, q, offset, count = _lag_band(grid, eps)
        _check_table_bytes(_scheme_bytes(int(count.sum()), self.f.shape[0], size),
                           "the pair scheme", "use fewer cells")
        lags = np.arange(size)
        start = size - count

        # Lags [lo, hi) share offset o; pairs with m < top = size - 2 - o
        # land strictly below the band.  The offset never increases with the
        # lag, so its runs, taken last to first, come in increasing o.  The
        # offset-0 lags, the last run, move their big partners on; (0, 0)
        # when there are none.
        self.groups = []
        self.moves = (0, 0)
        cuts = (np.flatnonzero(np.diff(offset)) + 1).tolist()
        for lo, hi in zip([0, *cuts][::-1], [*cuts, size][::-1]):
            o = int(offset[lo])
            top = size - 2 - o
            if lo >= top:
                continue
            if o == 0:
                self.moves = (lo, top)
                continue
            rate = np.where(lags[lo:hi] == 0, 0.5, 1.0) / eps
            w = np.clip((y[o + 1] - q[lo:hi]) / (y[o + 1] - y[o]), 0.0, 1.0)
            self.groups.append((o, lo, top, w * rate, (1.0 - w) * rate))

        within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        m_idx = np.repeat(start, count) + within
        j_idx = m_idx - np.repeat(lags, count)
        K = np.einsum("rp,rp->p", self.f[:, m_idx], self.g[:, j_idx])
        self.band = _PairSet(grid, K, m_idx, j_idx, eps)

    def rhs(self, values: np.ndarray):
        grid = self.grid
        zd = values * grid.widths
        u = self.f * zd
        v = self.g * zd
        births, outgo, outflux = self.band.transfer(zd)
        for o, lo, top, h_lo, h_hi in self.groups:
            span = top - lo
            for ur, vr, (s, e) in zip(u, v, self.support):
                e = min(e, span)
                if s >= e:
                    continue
                stop = min(span, e + h_lo.size - 1)
                big = ur[lo + s:lo + stop]
                low = big * np.convolve(vr[s:e], h_lo)[:stop - s]
                high = big * np.convolve(vr[s:e], h_hi)[:stop - s]
                births[lo + o + s:lo + o + stop] += low
                births[lo + o + s + 1:lo + o + stop + 1] += high
                outgo[lo + s:lo + stop] += low + high
        lo, top = self.moves
        xv = grid.centers * v
        reach = np.cumsum(xv, axis=1)[:, :top - lo]
        if lo == 0:
            reach -= 0.5 * xv[:, :top]
        moved = np.sum(u[:, lo:top] * reach, axis=0) / self.gaps[lo:top]
        births[lo + 1:top + 1] += moved
        outgo[lo:top] += moved
        suffix = np.cumsum(u[:, ::-1], axis=1)[:, ::-1]
        outgo += np.sum(v * (suffix - 0.5 * u), axis=0)
        return (births - outgo) / grid.widths, outflux


def computed_eps(model: str, eps: float | None, ratio: float = 1.0) -> float:
    """The eps a run of ``model`` at ``eps`` computes on a grid of edge ratio ``ratio``.

    ``"sce"`` computes 1 and ``"ohs"`` 0.  Below sqrt(ratio) - 1 every pair
    is offset 0, so a generalized run there is the eps = 0 run bit for bit.
    The default ratio 1, the continuum, leaves every eps as it is.
    """
    if model not in ("sce", "ohs", "generalized"):
        raise ConfigError(f"unknown model {model!r}")
    eps = {"sce": 1.0, "ohs": 0.0}.get(model, eps)
    if eps is None:
        raise ConfigError("generalized model requires eps")
    if not (0.0 <= eps <= 1.0):
        raise DomainError("eps must lie in [0, 1]")
    return 0.0 if eps < np.sqrt(ratio) - 1.0 else eps


def make_rhs(model: str, kernel: Kernel, eps: float | None = None):
    """Bind a model to a density -> (dzdt, outflux) callable that owns its scheme.

    ``"sce"`` is the eps = 1 and ``"ohs"`` the eps = 0 pair scheme.  The
    scheme is built once, on the first density the callable receives, and
    serves that density's grid only: a density on another grid is a
    :class:`ConfigError`, as is a kernel without separable factors.
    """
    eps = computed_eps(model, eps)
    scheme = None

    def rhs(density: NumberDensity):
        nonlocal scheme
        if scheme is None:
            scheme = LagScheme(density.grid, kernel.factors(density.grid.centers), eps)
        elif scheme.grid is not density.grid:
            raise ConfigError("this right-hand side serves the grid of its first density, "
                              f"{scheme.grid}; make one per grid")
        return scheme.rhs(density.values)

    return rhs
