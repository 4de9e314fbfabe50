"""Geometric size grids and cell-averaged number densities.

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

#: The grid parameter n lies below this, so that the fourth power of a size (a bump test
#: function's (b - a)^4) is a finite double.
N_MAX = float(np.finfo(float).max) ** 0.25

#: Rows that ``write_csv`` formats at once.
CSV_CHUNK_ROWS = 256


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
        Truncation parameter; the domain is (1/n, n), and n < ``N_MAX``.
    cells_per_decade : int
        Resolution; the cell count is round(2 * cells_per_decade * log10(n))
        and must be at least 2.  A grid whose arrays would outgrow physical
        memory is a :class:`ConfigError`, raised before any is allocated.
    """

    def __init__(self, n, cells_per_decade):
        if not (1.0 < n < N_MAX):
            raise DomainError(f"grid parameter n must exceed 1 and lie below {N_MAX:.4g}, got {n!r}")
        if not (cells_per_decade >= 4 and float(cells_per_decade).is_integer()):
            raise DomainError(f"cells_per_decade must be an integer >= 4, got {cells_per_decade!r}")
        cells_per_decade = int(cells_per_decade)
        self.n = float(n)
        self.cells_per_decade = cells_per_decade
        cells = 2.0 * cells_per_decade * math.log10(n)  # inf for a cells_per_decade near 1e308
        # at most three arrays of count + 1 doubles are alive at once
        _check_table_bytes(24 * (cells + 1), f"a grid of {cells:.0f} cells",
                           "use fewer cells_per_decade")
        count = round(cells)
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
        # checked.  Integrator stages build one over their state clamped at
        # zero, and a trajectory one over a row of its block, whose cells were
        # checked as the initial density or as a state evolve accepted.
        obj = object.__new__(cls)
        obj.grid = grid
        obj.values = np.asarray(values, dtype=float)
        obj.time = float(time)
        return obj


class Trajectory:
    """Time-ordered density snapshots on one grid, with cumulative boundary/clip ledgers.

    A record checked and frozen once, when it is built.  ``values`` is the
    (snapshots x cells) block, one row per entry of ``times``: it is kept as
    given and made read-only, not copied, and ``traj[i]`` is a density over
    its row i.  The rows are not checked again: in a run of
    :func:`~gencoag.integrator.evolve`, row 0 holds the cells of the initial
    :class:`NumberDensity` and every other row a state that evolve checked
    finite and >= 0 when it accepted its step.

    ``outflux`` holds cumulative mass carried through the upper boundary up
    to each snapshot time; ``clipped`` holds cumulative absolute mass
    adjusted by negativity clipping.  Both must be nondecreasing up to time
    integration rounding: each may fall by ``1e-10 * max(1, mass +
    |previous outflux|)`` from one snapshot to the next.
    """

    def __init__(self, grid: SizeGrid, times, values, outflux, clipped):
        self.grid = grid
        self.times = np.array(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.outflux = tuple(map(float, outflux))
        self.clipped = tuple(map(float, clipped))
        count = self.times.size
        if (self.values.shape != (count, grid.size) or len(self.outflux) != count
                or len(self.clipped) != count):
            raise DomainError("a trajectory needs one row of grid cells and one entry of "
                              "each ledger per time")
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("snapshot times must be strictly increasing")
        out, clip = np.array(self.outflux), np.array(self.clipped)
        mass = np.einsum("ij,j->i", self.values[1:], grid.centers * grid.widths)
        slack = 1e-10 * np.maximum(1.0, mass + np.abs(out[:-1]))
        if np.any(out[1:] < out[:-1] - slack) or np.any(clip[1:] < clip[:-1] - slack):
            raise DomainError("ledgers must be nondecreasing")
        self.values.setflags(write=False)

    def moments(self, weights):
        """Midpoint moments  sum_i w(x_i) zeta_i dx_i  of every snapshot.

        ``weights`` is one row of cell weights, giving one value per
        snapshot, or a stack of rows, giving one series per row.  The rows of
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
        keep = {0}
        for t in times:
            hit = np.flatnonzero(np.abs(self.times - t) <= 1e-12 * max(abs(t), 1.0))
            if hit.size == 0:
                raise DomainError(f"the trajectory has no snapshot at t={t!r}")
            keep.add(int(hit[0]))
        rows = sorted(keep)
        return Trajectory(self.grid, self.times[rows], self.values[rows],
                          [self.outflux[i] for i in rows], [self.clipped[i] for i in rows])

    def __len__(self):
        return self.times.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return NumberDensity._unchecked(self.grid, self.values[i], self.times[i])


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

    def __call__(self, mu):
        return mu ** (-self.a) * np.exp(-mu)


def sample_initial(profile, grid: SizeGrid) -> NumberDensity:
    """Project an initial profile onto cell averages by 16-point Gauss-Legendre
    quadrature per cell."""
    _check_table_bytes(QUAD_BYTES_PER_CELL * grid.size, "the quadrature of the initial data "
                       f"on {grid.size} cells", "use fewer cells_per_decade")
    lo = grid.edges[:-1][:, None]
    hi = grid.edges[1:][:, None]
    pts = 0.5 * (hi - lo) * QUAD_NODES[None, :] + 0.5 * (hi + lo)
    vals = profile(pts)
    cell_avg = 0.5 * np.sum(vals * QUAD_WEIGHTS[None, :], axis=1)  # mean of f over the cell
    cell_avg = np.maximum(cell_avg, 0.0)
    return NumberDensity(grid, cell_avg, 0.0)


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
