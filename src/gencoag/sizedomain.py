"""Geometric size grids, cell-averaged number densities, and weighted norms.

The computational domain is the truncated size axis (1/n, n), discretized
by a geometric (log-uniform) grid.  Cell centers are geometric means of the
edges and all moments are midpoint sums over cell averages, consistent with
the finite-volume representation.

Every table the package writes shares one CSV wire format (``write_csv``):
a header line, then each value as ``%.17g`` (17 significant digits, enough
to read every double back exactly; NaN, +-inf and -0 read ``nan``,
``inf``, ``-inf`` and ``-0``), comma-separated, CRLF line ends.
Snapshots are written per trajectory (``write_snapshot_csv``).
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, InitialDataError

# The 16-point Gauss-Legendre rule on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(16), which is symmetric: the
# positive nodes in increasing order, and their weights.
_GL16_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL16_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)

#: Nodes and weights of the rule that projects initial profiles onto cell averages.
QUAD_NODES = np.concatenate([-np.array(_GL16_NODES[::-1]), _GL16_NODES])
QUAD_WEIGHTS = np.concatenate([_GL16_WEIGHTS[::-1], _GL16_WEIGHTS])
QUAD_NODES.setflags(write=False)
QUAD_WEIGHTS.setflags(write=False)

#: Bytes a cell of ``sample_initial``'s quadrature holds at most: the nodes, the profile's
#: values and three temporaries (tracemalloc: 392 for exponential, 512 for singular_power data).
QUAD_BYTES_PER_CELL = 5 * 8 * QUAD_NODES.size

#: Rows that ``write_csv`` formats at once.
CSV_CHUNK_ROWS = 256

_WEIGHTS = ("one", "mass", "neg_sigma", "neg_two_sigma", "Y_norm")


def _check_table_bytes(nbytes, what, remedy):
    """Raise ConfigError before a table larger than physical memory is built."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > physical:
        raise ConfigError(
            f"{what} would take {nbytes / 2**30:.1f} GiB, more than the "
            f"{physical / 2**30:.1f} GiB of physical memory; {remedy}"
        )


class SizeGrid:
    """Geometric partition of [1/n, n].

    Parameters
    ----------
    n : float
        Truncation parameter; the domain is (1/n, n).
    cells_per_decade : int
        Resolution; the cell count is round(2 * cells_per_decade * log10(n))
        and must be at least 2.  A grid whose arrays would outgrow physical
        memory is a :class:`ConfigError`, raised before any is allocated.
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
        # at most three arrays of count + 1 doubles are alive at once
        _check_table_bytes(24 * (count + 1), f"a grid of {count} cells",
                           "use fewer cells_per_decade")
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
        # Internal: a density over ``values`` as they are, neither copied nor
        # checked.  Integrator stage states may carry transient negatives,
        # and a trajectory's rows were checked when they were appended.
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


class Trajectory:
    """Time-ordered density snapshots on one grid, with cumulative boundary/clip ledgers.

    The cells of every snapshot live in one (snapshots x cells) block:
    ``values`` is that block, read-only, and ``traj[i]`` a density over its
    row i.  Appending a row beyond ``capacity`` doubles the block.

    ``outflux`` holds cumulative mass carried through the upper boundary up
    to each snapshot time; ``clipped`` holds cumulative absolute mass
    adjusted by negativity clipping.  Both are nondecreasing up to time
    integration rounding: Runge-Kutta stages may see transient negative
    cells near the positivity floor, so outflux increments carry noise at
    the 1e-12 level of the mass scale.
    """

    def __init__(self, grid: SizeGrid, capacity: int = 8):
        self.grid = grid
        self._rows = np.empty((capacity, grid.size))
        self._view = None
        self._times: list[float] = []
        self.outflux: list[float] = []
        self.clipped: list[float] = []

    def append(self, snapshot: NumberDensity, outflux_total: float, clipped_total: float):
        if snapshot.grid is not self.grid:
            raise DomainError("a snapshot must lie on the trajectory's grid")
        count = len(self)
        if count:
            if snapshot.time <= self._times[-1]:
                raise DomainError("snapshot times must be strictly increasing")
            slack = 1e-10 * max(1.0, snapshot.mass() + abs(self.outflux[-1]))
            if outflux_total < self.outflux[-1] - slack or clipped_total < self.clipped[-1] - slack:
                raise DomainError("ledgers must be nondecreasing")
        if count == len(self._rows):
            rows = np.empty((max(2 * count, 1), self.grid.size))
            rows[:count] = self._rows
            self._rows = rows
        self._rows[count] = snapshot.values
        self._view = None
        self._times.append(float(snapshot.time))
        self.outflux.append(float(outflux_total))
        self.clipped.append(float(clipped_total))

    def replace_values(self, i, values):
        """Overwrite the cells of snapshot i; its time and ledgers stay."""
        self._rows[: len(self)][i] = NumberDensity(self.grid, values).values

    @property
    def times(self):
        return np.array(self._times)

    @property
    def values(self):
        """The snapshot block, one row per snapshot: read-only, and not a copy."""
        if self._view is None:
            self._view = self._rows[: len(self)]
            self._view.setflags(write=False)
        return self._view

    def moments(self, weights):
        """Midpoint moments  sum_i w(x_i) zeta_i dx_i  of every snapshot.

        ``weights`` is one row of cell weights, giving one value per
        snapshot, or a stack of rows, giving one series per row.  Each entry
        equals ``weighted_norm`` of that snapshot bit for bit.  The rows of
        a stack are reduced one at a time, so no temporary is larger than
        the block.
        """
        w = np.asarray(weights, dtype=float)
        if w.ndim > 1:
            return np.array([self.moments(row) for row in w])
        terms = w * self.values
        terms *= self.grid.widths
        return np.sum(terms, axis=-1)

    def ledger_closure(self):
        """|M1 + outflux + clipped - M1(0)| / M1(0) per snapshot."""
        m1 = self.moments(self.grid.centers)
        closure = np.abs(m1 + np.asarray(self.outflux) + np.asarray(self.clipped) - m1[0])
        return closure / max(m1[0], 1e-300)

    def select(self, times):
        """The first snapshot and those at ``times``, with their ledgers.

        A time matches a snapshot to 1e-12 relative; a time with no
        snapshot is a DomainError.
        """
        have = self.times
        keep = {0}
        for t in times:
            hit = np.flatnonzero(np.abs(have - t) <= 1e-12 * max(abs(t), 1.0))
            if hit.size == 0:
                raise DomainError(f"the trajectory has no snapshot at t={t!r}")
            keep.add(int(hit[0]))
        rows = sorted(keep)
        sub = Trajectory(self.grid, 0)
        sub._rows = self.values[rows]
        sub._times = [self._times[i] for i in rows]
        sub.outflux = [self.outflux[i] for i in rows]
        sub.clipped = [self.clipped[i] for i in rows]
        return sub

    def __len__(self):
        return len(self._times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return NumberDensity._unchecked(self.grid, self.values[i], self._times[i])


class ExponentialProfile:
    """zeta_in(mu) = exp(-mu)."""

    def __call__(self, mu):
        return np.exp(-mu)


class SingularPowerProfile:
    """zeta_in(mu) = mu^(-a) exp(-mu), admissible only when a + 2*sigma < 1."""

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

    def __init__(self, mu0, mass=1.0):
        if not (mu0 > 0.0 and mass > 0.0):  # zero data would pass every check vacuously
            raise InitialDataError("monodisperse profile needs mu0 > 0 and mass > 0")
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
    _check_table_bytes(QUAD_BYTES_PER_CELL * grid.size, "the quadrature of the initial data "
                       f"on {grid.size} cells", "use fewer cells_per_decade")
    lo = grid.edges[:-1][:, None]
    hi = grid.edges[1:][:, None]
    pts = 0.5 * (hi - lo) * QUAD_NODES[None, :] + 0.5 * (hi + lo)
    vals = profile(pts)
    cell_avg = 0.5 * np.sum(vals * QUAD_WEIGHTS[None, :], axis=1)  # mean of f over the cell
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

    One ``%`` over a row template repeated once per row formats up to
    ``CSV_CHUNK_ROWS`` rows, which are then written at once; so the text in
    memory does not grow with the table.
    """
    table = np.reshape(rows, (-1, len(names)))
    row = ",".join(["%.17g"] * len(names)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        for lo in range(0, len(table), CSV_CHUNK_ROWS):
            chunk = table[lo:lo + CSV_CHUNK_ROWS]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


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
    for i, values in enumerate(traj.values):
        name = f"snapshot_{i:04d}.csv"
        with open(Path(directory) / name, "w", newline="") as fh:
            fh.write("x_center,width,zeta\r\n" + template % tuple(values.tolist()))
        names.append(name)
    return names
