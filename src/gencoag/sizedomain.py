"""Geometric size grids, cell-averaged number densities, and weighted norms.

The computational domain is the truncated size axis (1/n, n), discretized
by a geometric (log-uniform) grid.  Cell centers are geometric means of the
edges and all moments are midpoint sums over cell averages, consistent with
the finite-volume representation.

Every table the package writes shares one CSV wire format (``write_csv``):
a header line, then each value as ``%.17g`` (17 significant digits, enough
to read every double back exactly; NaN, +-inf and -0 read ``nan``,
``inf``, ``-inf`` and ``-0``), comma-separated, CRLF line ends.
Snapshots are written per trajectory (``write_snapshot_csv``) and read back
one file at a time (``read_snapshot_csv``).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, InitialDataError

#: Nodes per cell for projecting initial profiles onto cell averages.
QUAD_POINTS = 16

_WEIGHTS = ("one", "mass", "neg_sigma", "neg_two_sigma", "Y_norm")


class SizeGrid:
    """Geometric partition of [1/n, n].

    Parameters
    ----------
    n : float
        Truncation parameter; the domain is (1/n, n).
    cells_per_decade : int
        Resolution; the cell count is round(2 * cells_per_decade * log10(n))
        and must be at least 2.
    """

    def __init__(self, n, cells_per_decade):
        if not (1.0 < n < np.inf):
            raise DomainError("grid parameter n must be finite and exceed 1")
        if not (float(cells_per_decade).is_integer() and cells_per_decade >= 4):
            raise DomainError(f"cells_per_decade must be an integer >= 4, got {cells_per_decade!r}")
        cells_per_decade = int(cells_per_decade)
        self.n = float(n)
        self.cells_per_decade = cells_per_decade
        count = round(2.0 * cells_per_decade * math.log10(n))
        if count < 2:
            raise DomainError(
                f"grid n={n}, cells_per_decade={cells_per_decade} has {count} cell(s); "
                "at least 2 are needed"
            )
        edges = np.exp(np.linspace(math.log(1.0 / n), math.log(n), count + 1))
        edges[0] = 1.0 / n
        edges[-1] = n
        self.edges = edges
        self.centers = np.sqrt(edges[:-1] * edges[1:])
        self.widths = np.diff(edges)
        for arr in (self.edges, self.centers, self.widths):
            arr.setflags(write=False)

    @property
    def size(self):
        return self.centers.size

    def ratio(self):
        """Common edge ratio of the geometric progression."""
        return float(self.edges[1] / self.edges[0])

    def cell_of(self, mu):
        """Index of the cell containing size mu."""
        if not (self.edges[0] <= mu <= self.edges[-1]):
            raise DomainError(f"size {mu} outside the domain ({self.edges[0]}, {self.edges[-1]})")
        return min(int(np.searchsorted(self.edges, mu, side="right")) - 1, self.size - 1)

    def __repr__(self):
        return f"SizeGrid(n={self.n}, cells_per_decade={self.cells_per_decade}, cells={self.size})"


def make_grid(n: float, cells_per_decade: int) -> SizeGrid:
    """Geometric grid spanning exactly [1/n, n]."""
    return SizeGrid(n, cells_per_decade)


class NumberDensity:
    """Cell-averaged number density at a time instant.

    ``values[i]`` is the cell average of the density over cell i; all
    values are finite and nonnegative.
    """

    def __init__(self, grid: SizeGrid, values, time=0.0):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.centers.shape:
            raise DomainError("values shape does not match the grid")
        if not np.all((values >= 0.0) & (values < np.inf)):
            raise DomainError("number density values must be finite and >= 0")
        if not (0.0 <= time < np.inf):
            raise DomainError("time must be finite and >= 0")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)
        self.time = float(time)

    @classmethod
    def _unchecked(cls, grid, values, time):
        # Internal: integrator stage states may carry transient negatives.
        obj = object.__new__(cls)
        obj.grid = grid
        obj.values = np.asarray(values, dtype=float)
        obj.time = float(time)
        return obj

    def replace(self, values=None, time=None):
        return NumberDensity(
            self.grid,
            self.values if values is None else values,
            self.time if time is None else time,
        )

    def mass(self):
        return weighted_norm(self, "mass")

    def number(self):
        return weighted_norm(self, "one")


class Trajectory:
    """Time-ordered density snapshots with cumulative boundary/clip ledgers.

    ``outflux`` holds cumulative mass carried through the upper boundary up
    to each snapshot time; ``clipped`` holds cumulative absolute mass
    adjusted by negativity clipping.  Both are nondecreasing up to time
    integration rounding: Runge-Kutta stages may see transient negative
    cells near the positivity floor, so outflux increments carry noise at
    the 1e-12 level of the mass scale.
    """

    def __init__(self):
        self.snapshots: list[NumberDensity] = []
        self.outflux: list[float] = []
        self.clipped: list[float] = []

    def append(self, snapshot: NumberDensity, outflux_total: float, clipped_total: float):
        if self.snapshots:
            if snapshot.time <= self.snapshots[-1].time:
                raise DomainError("snapshot times must be strictly increasing")
            slack = 1e-10 * max(1.0, snapshot.mass() + abs(self.outflux[-1]))
            if outflux_total < self.outflux[-1] - slack or clipped_total < self.clipped[-1] - slack:
                raise DomainError("ledgers must be nondecreasing")
        self.snapshots.append(snapshot)
        self.outflux.append(float(outflux_total))
        self.clipped.append(float(clipped_total))

    @property
    def times(self):
        return np.array([s.time for s in self.snapshots])

    @property
    def grid(self):
        return self.snapshots[0].grid

    @property
    def values(self):
        """Snapshot matrix, one row per snapshot; rebuilt from ``snapshots`` on every access."""
        return np.array([s.values for s in self.snapshots])

    def moments(self, weights):
        """Midpoint moments  sum_i w(x_i) zeta_i dx_i  of every snapshot.

        ``weights`` is one row of cell weights, giving one value per
        snapshot, or a stack of rows, giving one series per row.  Each entry
        equals ``weighted_norm`` of that snapshot bit for bit.
        """
        w = np.asarray(weights, dtype=float)
        return np.sum(w[..., None, :] * self.values * self.grid.widths, axis=-1)

    def ledger_closure(self):
        """|M1 + outflux + clipped - M1(0)| / M1(0) per snapshot."""
        m1 = self.moments(self.grid.centers)
        closure = np.abs(m1 + np.asarray(self.outflux) + np.asarray(self.clipped) - m1[0])
        return closure / max(m1[0], 1e-300)

    def __len__(self):
        return len(self.snapshots)

    def __getitem__(self, i):
        return self.snapshots[i]


class ExponentialProfile:
    """zeta_in(mu) = exp(-mu)."""

    name = "exponential"

    def __call__(self, mu):
        return np.exp(-mu)


class SingularPowerProfile:
    """zeta_in(mu) = mu^(-a) exp(-mu), admissible only when a + 2*sigma < 1."""

    name = "singular_power"

    def __init__(self, a, sigma=0.0):
        if a + 2.0 * sigma >= 1.0:
            raise InitialDataError(
                f"initial data not in Y: a + 2*sigma = {a + 2.0 * sigma} >= 1"
            )
        if a < 0.0:
            raise InitialDataError("singular power exponent a must be >= 0")
        self.a = float(a)
        self.sigma = float(sigma)

    def __call__(self, mu):
        return mu ** (-self.a) * np.exp(-mu)


class MonodisperseProfile:
    """Mass ``m`` placed entirely in the cell containing ``mu0``."""

    name = "monodisperse"

    def __init__(self, mu0, mass=1.0):
        if mu0 <= 0.0 or mass < 0.0:
            raise InitialDataError("monodisperse profile needs mu0 > 0 and mass >= 0")
        self.mu0 = float(mu0)
        self.mass = float(mass)


def sample_initial(profile, grid: SizeGrid) -> NumberDensity:
    """Project an initial profile onto cell averages.

    Callable profiles are integrated by 16-point Gauss-Legendre quadrature
    per cell; a monodisperse profile places its mass exactly in one cell
    (cell average m / (x_c * width_c)).
    """
    if isinstance(profile, MonodisperseProfile):
        values = np.zeros(grid.size)
        c = grid.cell_of(profile.mu0)
        values[c] = profile.mass / (grid.centers[c] * grid.widths[c])
        return NumberDensity(grid, values, 0.0)
    nodes, wts = leggauss(QUAD_POINTS)
    lo = grid.edges[:-1][:, None]
    hi = grid.edges[1:][:, None]
    pts = 0.5 * (hi - lo) * nodes[None, :] + 0.5 * (hi + lo)
    vals = profile(pts)
    cell_avg = 0.5 * np.sum(vals * wts[None, :], axis=1)  # mean of f over the cell
    cell_avg = np.maximum(cell_avg, 0.0)
    return NumberDensity(grid, cell_avg, 0.0)


def weight_values(centers, weight: str, sigma: float = 0.0):
    """Sample one of the stock weights at the given centers."""
    if weight == "one":
        return np.ones_like(centers)
    if weight == "mass":
        return centers
    if weight == "neg_sigma":
        return centers ** (-sigma)
    if weight == "neg_two_sigma":
        return centers ** (-2.0 * sigma)
    if weight == "Y_norm":
        return centers + centers ** (-2.0 * sigma)
    raise DomainError(f"unknown weight {weight!r}; expected one of {_WEIGHTS}")


def weighted_norm(density: NumberDensity, weight: str, sigma: float = 0.0) -> float:
    """Midpoint moment  sum_i w(x_i) |zeta_i| dx_i."""
    w = weight_values(density.grid.centers, weight, sigma)
    return float(np.sum(w * np.abs(density.values) * density.grid.widths))


def write_csv(path, names, rows):
    """Write ``rows`` under the header ``names`` in the CSV wire format.

    One ``%`` over a row template repeated once per row formats the whole
    table, which is then written at once.
    """
    table = np.reshape(rows, (-1, len(names)))
    row = ",".join(["%.17g"] * len(names)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def write_snapshot_csv(traj: Trajectory, directory) -> list[str]:
    """Write every snapshot of ``traj`` as ``directory/snapshot_NNNN.csv``; return the names.

    Each file is the ``write_csv`` table ``x_center,width,zeta``.  The grid
    columns are the same in every file, so they are formatted once into a
    template whose only open field is zeta, and each file costs one ``%``
    over its snapshot's values.
    """
    grid = traj.grid
    cells = np.column_stack([grid.centers, grid.widths]).ravel().tolist()
    template = ("%.17g,%.17g,%%.17g\r\n" * grid.size) % tuple(cells)
    names = []
    for i, values in enumerate(traj.values.tolist()):
        name = f"snapshot_{i:04d}.csv"
        with open(Path(directory) / name, "w", newline="") as fh:
            fh.write("x_center,width,zeta\r\n" + template % tuple(values))
        names.append(name)
    return names


def read_snapshot_csv(path, grid: SizeGrid | None = None, time=0.0):
    """Read a snapshot CSV; if ``grid`` is given, validate against it."""
    xs, ws, zs = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            xs.append(float(row["x_center"]))
            ws.append(float(row["width"]))
            zs.append(float(row["zeta"]))
    if grid is not None:
        if len(xs) != grid.size or not np.allclose(xs, grid.centers, rtol=1e-12):
            raise DomainError(f"{path}: snapshot does not match the grid")
        return NumberDensity(grid, np.asarray(zs), time)
    return np.asarray(xs), np.asarray(ws), np.asarray(zs)
