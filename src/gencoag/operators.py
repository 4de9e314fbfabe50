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
landing at or above the last center form a band of at most N (max o_d + 1)
pairs, handled pair by pair: each splits its product between the top cell
and n, moves the top cell's big partner to n, or sends its product past n.
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
    each of f and g, the kernel, the product and its two terms, the three
    band arrays (rate, share, leave) and the temporaries that make them,
    and three masks; the band arrays of ``rhs`` fit in what the build frees.
    Per cell the build keeps f, g and the gaps and makes about a dozen lag
    arrays, and ``rhs`` adds about seven arrays of ``rank`` rows (u, v, x v,
    the prefix and suffix sums and their products).
    """
    return (8 * (12 + 2 * rank) + 3) * pairs + 8 * (12 + 9 * rank) * cells


def _lag_band(grid: SizeGrid, eps: float):
    """Per lag d of the :class:`LagScheme` at ``eps``: y, q_d, o_d and the band's first big cell.

    The product of the pair (m, m - d) sits at x_m q_d, in the bracket
    [y[o_d], y[o_d + 1]) of the center ratios y = x / x_0: o_d is its
    deposit offset.  q_d decreases with d, so each offset covers one run of
    lags.  The band holds the pairs whose product lands at or above the
    last center, m + o_d >= N - 1: those of lag d with m >= max(d, N - 1 - o_d).
    """
    x = grid.centers
    y = x / x[0]
    q = 1.0 + eps * (x[0] / x)
    offset = np.searchsorted(y, q, side="right") - 1
    return y, q, offset, np.maximum(np.arange(grid.size), grid.size - 1 - offset)


def scheme_bytes(grid: SizeGrid, model: str, kernel: Kernel, eps=None) -> int:
    """:func:`_scheme_bytes` of the scheme ``make_rhs(model, kernel, eps)`` builds on ``grid``."""
    pairs = int((grid.size - _lag_band(grid, computed_eps(model, eps))[3]).sum())
    rank = len(kernel.factors(grid.centers[:1]))  # the factor count does not depend on x
    return _scheme_bytes(pairs, rank, grid.size)


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
      and the big partners of these pairs die at u_r[m] times the sum of
      the two convolutions, so all stay sums of nonnegative terms;
    * the offset-0 lags d >= d0 move the big partner on to cell m + 1 at
      u_r[m] prefix(x v_r)[m - d0] / gap_m, the self-pair at half weight;
    * the small partners die at v_r (suffix(u_r) - u_r / 2);
    * pairs whose product lands at or above the last center form a band of
      at most N (max o_d + 1) pairs that is handled pair by pair and
      carries the whole outflux.  Per unit zd_m zd_j a band pair's big
      partner leaves cell m at ``rate``; ``share`` of each event lands in
      the top cell, and ``leave`` is the mass it sends out at n.  A pair of
      a smaller big partner splits its product p <= n between the top cell
      and n at Lambda / eps; a top-cell pair with p <= n moves its big
      partner to n at Lambda x_j / (n - x_{N-1}); any pair with p > n sends
      its product past n at Lambda / eps.

    At eps = 0 every lag has offset 0, the band holds the N pairs of the top
    cell, and the scheme is O(N) in work.
    """

    def __init__(self, grid: SizeGrid, factors, eps: float):
        self.grid = grid
        x = grid.centers
        size = grid.size
        self.f = np.array([f for f, _ in factors])
        self.g = np.array([g for _, g in factors])
        self.gaps = np.diff(x)

        y, q, offset, start = _lag_band(grid, eps)
        count = size - start
        _check_table_bytes(_scheme_bytes(int(count.sum()), self.f.shape[0], size),
                           "the pair scheme", "use fewer cells")
        lags = np.arange(size)

        # Lags [lo, hi) share offset o; the pairs with m < top = N - 1 - o
        # land below the last center.  top is start[lo], or lo when the whole
        # run lies in the band.  The offset never increases with the lag, so
        # its runs, taken last to first, come in increasing o.  The offset-0
        # lags, the last run, move their big partners on; (0, 0) when there
        # are none.
        self.groups = []
        self.moves = (0, 0)
        cuts = (np.flatnonzero(np.diff(offset)) + 1).tolist()
        for lo, hi in zip([0, *cuts][::-1], [*cuts, size][::-1]):
            o, top = int(offset[lo]), int(start[lo])
            if lo == top:
                continue
            if o == 0:
                self.moves = (lo, top)
                continue
            rate = np.where(lags[lo:hi] == 0, 0.5, 1.0) / eps
            w = np.clip((y[o + 1] - q[lo:hi]) / (y[o + 1] - y[o]), 0.0, 1.0)
            self.groups.append((o, lo, top, w * rate, (1.0 - w) * rate))

        within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        self.m_idx = np.repeat(start, count) + within
        self.j_idx = self.m_idx - np.repeat(lags, count)
        K = np.einsum("rp,rp->p", self.f[:, self.m_idx], self.g[:, self.j_idx])
        K *= np.where(self.m_idx == self.j_idx, 0.5, 1.0)
        p = x[self.m_idx] + eps * x[self.j_idx]
        gap = grid.n - x[-1]
        over = p > grid.n
        move = (self.m_idx == size - 1) & ~over
        self.rate = np.empty_like(K)
        self.rate[move] = K[move] * x[self.j_idx[move]] / gap
        self.rate[~move] = K[~move] / eps
        self.share = np.where(over | move, 0.0, np.clip((grid.n - p) / gap, 0.0, 1.0))
        self.leave = np.where(over, p, grid.n * (1.0 - self.share))

    def rhs(self, values: np.ndarray):
        grid = self.grid
        size = grid.size
        zd = values * grid.widths
        u = self.f * zd
        v = self.g * zd
        band = self.rate * zd[self.m_idx] * zd[self.j_idx]
        births = np.zeros(size)
        births[-1] = np.sum(band * self.share)
        outgo = np.bincount(self.m_idx, weights=band, minlength=size)
        outflux = float(np.sum(band * self.leave))
        for o, lo, top, h_lo, h_hi in self.groups:
            span = top - lo
            for ur, vr in zip(u, v):
                big = ur[lo:top]
                low = big * np.convolve(vr[:span], h_lo)[:span]
                high = big * np.convolve(vr[:span], h_hi)[:span]
                births[lo + o:top + o] += low
                births[lo + o + 1:top + o + 1] += high
                outgo[lo:top] += low + high
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
    :class:`ConfigError`.
    """
    eps = computed_eps(model, eps)
    scheme = None

    def rhs(density: NumberDensity):
        nonlocal scheme
        if scheme is None:
            scheme = LagScheme(density.grid, kernel.factors(density.grid.centers), eps)
        elif scheme.grid is not density.grid:
            raise ConfigError("this right-hand side serves the grid of its first density, "
                              f"n = {scheme.grid.n:g} with {scheme.grid.size} cells; "
                              "make one per grid")
        return scheme.rhs(density.values)

    return rhs
