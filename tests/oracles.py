"""Independent reference implementations that the tests compare against."""

import numpy as np

from gencoag import SizeGrid, TruncatedKernel
from gencoag.operators import RateField, _deposit_targets


class SmoluchowskiScheme:
    """Classical Smoluchowski quadrature over the full ordered-pair square.

    Births carry the 1/2 symmetry factor of the convolution integral; the
    death term is the plain collision sum.  Kept independent of
    :class:`PairScheme` so the epsilon = 1 equivalence is a genuine
    cross-check of two implementations, not one code path.
    """

    def __init__(self, grid: SizeGrid, kernel: TruncatedKernel):
        self.grid = grid
        x = grid.centers
        self.K = np.asarray(kernel.eval(x[:, None], x[None, :]))
        p = (x[:, None] + x[None, :]).ravel()
        self.p = p
        self.a, self.w, self.over = _deposit_targets(x, p)
        self.valid = ~self.over

    def rhs(self, values: np.ndarray):
        grid = self.grid
        zd = values * grid.widths
        pair = 0.5 * (self.K * np.outer(zd, zd)).ravel()

        ev = pair[self.valid]
        wv = self.w[self.valid]
        av = self.a[self.valid]
        births = np.bincount(av, weights=ev * wv, minlength=grid.size)
        births += np.bincount(av + 1, weights=ev * (1.0 - wv), minlength=grid.size)

        death = zd * (self.K @ zd)
        outflux = float(np.sum(pair[self.over] * self.p[self.over]))
        return (births - death) / grid.widths, outflux


def smoluchowski_rhs(density, kernel):
    """Rate of the full-square Smoluchowski quadrature on ``density``."""
    return RateField(density.grid, *SmoluchowskiScheme(density.grid, kernel).rhs(density.values))
