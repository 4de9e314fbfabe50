import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gencoag import (
    DomainError,
    ExponentialProfile,
    InitialDataError,
    MonodisperseProfile,
    NumberDensity,
    SingularPowerProfile,
    Trajectory,
    make_grid,
    sample_initial,
    weighted_norm,
)
from gencoag.sizedomain import (
    _WEIGHTS,
    read_snapshot_csv,
    weight_values,
    write_csv,
    write_snapshot_csv,
)


class TestMakeGrid:
    def test_two_decades(self):
        g = make_grid(10.0, 8)
        assert g.size == 16
        assert g.ratio() == pytest.approx(10.0 ** (1.0 / 8.0), rel=1e-12)

    def test_endpoints_forced(self):
        g = make_grid(math.e, 4)
        assert g.edges[0] == 1.0 / math.e
        assert g.edges[-1] == math.e

    @pytest.mark.parametrize("n, cpd", [(1.05, 4), (1.2, 4)])
    def test_fewer_than_two_cells_rejected(self, n, cpd):
        # 0 and 1 cells; the pair operators need two centers for the grid ratio
        with pytest.raises(DomainError):
            make_grid(n, cpd)

    @pytest.mark.parametrize("cpd", [math.nan, math.inf, 8.7])
    def test_non_integral_cells_per_decade_rejected(self, cpd):
        with pytest.raises(DomainError):
            make_grid(10.0, cpd)

    def test_integral_float_cells_per_decade_accepted(self):
        assert make_grid(10.0, 8.0).size == make_grid(10.0, 8).size

    def test_two_cells_accepted(self):
        assert make_grid(1.6, 4).size == 2

    def test_four_decades(self):
        g = make_grid(100.0, 16)
        assert g.size == 64

    def test_ratio_constant(self):
        g = make_grid(50.0, 32)
        r = g.edges[1:] / g.edges[:-1]
        assert np.max(np.abs(r / r[0] - 1.0)) < 1e-12

    def test_telescoping(self):
        for n in (5.0, 30.0, 200.0):
            g = make_grid(n, 12)
            assert np.sum(g.widths) == pytest.approx(n - 1.0 / n, rel=1e-12)

    def test_centers_are_geometric_means(self):
        g = make_grid(20.0, 8)
        assert np.allclose(g.centers, np.sqrt(g.edges[:-1] * g.edges[1:]), rtol=1e-15)

    def test_invalid(self):
        with pytest.raises(DomainError):
            make_grid(1.0, 8)
        with pytest.raises(DomainError):
            make_grid(10.0, 3)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_non_finite_n_rejected(self, n):
        with pytest.raises(DomainError):
            make_grid(n, 8)


class TestSampleInitial:
    def test_exponential_mass_near_one(self):
        # Gamma(2) = 1; the domain cutoff alone costs ~(1/n)^2/2 + n e^-n,
        # so the 1e-3 window needs n >= 30.  On a smaller domain the moment
        # still matches the adaptive-quadrature oracle restricted to it.
        g = make_grid(30.0, 32)
        d = sample_initial(ExponentialProfile(), g)
        assert abs(weighted_norm(d, "mass") - 1.0) <= 1e-3
        g10 = make_grid(10.0, 32)
        d10 = sample_initial(ExponentialProfile(), g10)
        oracle, _ = quad(lambda m: m * np.exp(-m), 0.1, 10.0)
        # midpoint-rule moment error is O((log-step)^2) ~ 2e-4 at 32 cpd
        assert weighted_norm(d10, "mass") == pytest.approx(oracle, rel=5e-4)

    def test_cell_averages_vs_adaptive_quadrature(self):
        g = make_grid(10.0, 8)
        d = sample_initial(ExponentialProfile(), g)
        for i in (0, 5, 10, 15):
            exact, _ = quad(lambda m: np.exp(-m), g.edges[i], g.edges[i + 1])
            assert d.values[i] == pytest.approx(exact / g.widths[i], rel=1e-12)

    def test_singular_power_accepted(self):
        SingularPowerProfile(0.3, 0.2)  # 0.3 + 0.4 < 1

    def test_singular_power_rejected(self):
        with pytest.raises(InitialDataError, match="initial data not in Y"):
            SingularPowerProfile(0.7, 0.2)  # 0.7 + 0.4 >= 1

    def test_singular_power_quadrature(self):
        g = make_grid(10.0, 16)
        prof = SingularPowerProfile(0.3, 0.2)
        d = sample_initial(prof, g)
        exact, _ = quad(lambda m: m ** (-0.3) * np.exp(-m), g.edges[0], g.edges[1])
        assert d.values[0] == pytest.approx(exact / g.widths[0], rel=1e-10)

    def test_monodisperse_exact_mass(self):
        g = make_grid(10.0, 8)
        d = sample_initial(MonodisperseProfile(2.0, 1.0), g)
        assert weighted_norm(d, "mass") == pytest.approx(1.0, rel=1e-15)
        assert np.count_nonzero(d.values) == 1

    def test_never_negative(self):
        g = make_grid(10.0, 8)
        for prof in (ExponentialProfile(), SingularPowerProfile(0.2, 0.1)):
            assert np.all(sample_initial(prof, g).values >= 0.0)


class TestWeightedNorm:
    def test_zero_density(self):
        g = make_grid(10.0, 8)
        d = NumberDensity(g, np.zeros(g.size))
        for w in ("one", "mass", "neg_sigma", "neg_two_sigma", "Y_norm"):
            assert weighted_norm(d, w, 0.2) == 0.0

    def test_monodisperse_mass(self):
        g = make_grid(10.0, 8)
        d = sample_initial(MonodisperseProfile(2.0, 1.0), g)
        assert weighted_norm(d, "mass") == pytest.approx(1.0, rel=1e-15)

    def test_exponential_neg_two_sigma_gamma(self):
        # integral of mu^(-0.4) e^(-mu) over (0, inf) is Gamma(0.6).  The
        # singular weight makes the value strongly cutoff-dependent: the
        # missing piece below 1/n is ~(1/n)^0.6 / 0.6, so the 2e-2 window
        # needs n around 2000.
        g = make_grid(3000.0, 8)
        d = sample_initial(ExponentialProfile(), g)
        val = weighted_norm(d, "neg_two_sigma", sigma=0.2)
        assert abs(val - math.gamma(0.6)) <= 2e-2
        # on a small domain the moment matches the quadrature oracle there
        g10 = make_grid(10.0, 32)
        d10 = sample_initial(ExponentialProfile(), g10)
        oracle, _ = quad(lambda m: m ** (-0.4) * np.exp(-m), 0.1, 10.0)
        assert weighted_norm(d10, "neg_two_sigma", sigma=0.2) == pytest.approx(oracle, rel=2e-3)

    def test_unknown_weight(self):
        g = make_grid(10.0, 8)
        d = NumberDensity(g, np.zeros(g.size))
        with pytest.raises(DomainError):
            weighted_norm(d, "bogus")

    @settings(max_examples=50, deadline=None)
    @given(scale=st.floats(0.1, 10.0), add=st.floats(0.0, 5.0))
    def test_linearity_and_monotonicity(self, scale, add):
        g = make_grid(10.0, 8)
        rng = np.random.default_rng(11)
        base = rng.random(g.size)
        d1 = NumberDensity(g, base)
        d2 = NumberDensity(g, scale * base)
        assert weighted_norm(d2, "Y_norm", 0.2) == pytest.approx(
            scale * weighted_norm(d1, "Y_norm", 0.2), rel=1e-12
        )
        d3 = NumberDensity(g, base + add)
        assert weighted_norm(d3, "mass") >= weighted_norm(d1, "mass")


class TestNumberDensityValidation:
    def test_negative_rejected(self):
        g = make_grid(10.0, 8)
        with pytest.raises(DomainError):
            NumberDensity(g, np.full(g.size, -1.0))

    def test_shape_checked(self):
        g = make_grid(10.0, 8)
        with pytest.raises(DomainError):
            NumberDensity(g, np.zeros(g.size + 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        g = make_grid(10.0, 8)
        values = np.ones(g.size)
        values[3] = bad
        with pytest.raises(DomainError):
            NumberDensity(g, values)

    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, time):
        g = make_grid(10.0, 8)
        with pytest.raises(DomainError):
            NumberDensity(g, np.ones(g.size), time)


class TestSnapshotCsv:
    def test_round_trip(self, tmp_path):
        g = make_grid(10.0, 8)
        d = sample_initial(ExponentialProfile(), g)
        traj = Trajectory()
        traj.append(d, 0.0, 0.0)
        assert write_snapshot_csv(traj, tmp_path) == ["snapshot_0000.csv"]
        back = read_snapshot_csv(tmp_path / "snapshot_0000.csv", g, time=0.0)
        assert np.array_equal(back.values, d.values)  # 17 digits round-trip exactly

    def test_every_file_matches_csv_writer(self, tmp_path):
        g = make_grid(10.0, 8)
        special = [math.nan, math.inf, -math.inf, -0.0, 2.0**-1074, 1.0 / 3.0, 1e300]
        rng = np.random.default_rng(3)
        traj = Trajectory()
        for k in range(4):
            values = rng.random(g.size) * np.exp(-g.centers)
            values[k:k + len(special)] = special
            # NaN and inf are outside NumberDensity's domain; the writer must still spell them
            traj.snapshots.append(NumberDensity._unchecked(g, values, 0.1 * k))
        (tmp_path / "new").mkdir()
        names = write_snapshot_csv(traj, tmp_path / "new")
        assert names == [f"snapshot_{k:04d}.csv" for k in range(4)]
        for name, snap in zip(names, traj):
            rows = np.column_stack([g.centers, g.widths, snap.values])
            csv_writer_reference(tmp_path / "ref.csv", ["x_center", "width", "zeta"], rows)
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()
            xs, ws, zs = read_snapshot_csv(tmp_path / "new" / name)
            for back, sent in ((xs, g.centers), (ws, g.widths), (zs, snap.values)):
                assert back.tobytes() == np.asarray(sent).tobytes()  # NaN, -0 and subnormals too


def random_trajectory(grid, count=6, seed=5):
    rng = np.random.default_rng(seed)
    traj = Trajectory()
    for k in range(count):
        values = rng.random(grid.size) * np.exp(-grid.centers)
        traj.append(NumberDensity(grid, values, 0.1 * k), 1e-3 * k, 1e-5 * k)
    return traj


class TestTrajectoryMatrix:
    def test_moments_equal_weighted_norm_bitwise(self):
        g = make_grid(30.0, 16)
        traj = random_trajectory(g)
        weights = [weight_values(g.centers, w, 0.2) for w in _WEIGHTS]
        stacked = traj.moments(weights)
        assert stacked.shape == (len(_WEIGHTS), len(traj))
        for name, w, row in zip(_WEIGHTS, weights, stacked):
            expect = np.array([weighted_norm(s, name, 0.2) for s in traj])
            assert np.array_equal(traj.moments(w), expect)
            assert np.array_equal(row, expect)

    def test_values_and_ledger_follow_replaced_snapshot(self):
        g = make_grid(10.0, 8)
        traj = random_trajectory(g)

        def closure_loop():
            m1 = np.array([weighted_norm(s, "mass") for s in traj])
            return np.abs(m1 + np.asarray(traj.outflux) + np.asarray(traj.clipped) - m1[0]) / m1[0]

        before = traj.ledger_closure()
        assert np.array_equal(before, closure_loop())
        bad = traj[-1].values * 1.5
        traj.snapshots[-1] = traj[-1].replace(values=bad)
        assert np.array_equal(traj.values[-1], bad)
        after = traj.ledger_closure()
        assert np.array_equal(after, closure_loop())
        assert after[-1] > before[-1]


def csv_writer_reference(path, names, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])


class TestCsvWireFormat:
    @pytest.mark.parametrize("rows", [
        [(0.1, 1.0 / 3.0, 2.0**-1074), (math.nan, -0.0, 1e300), (math.inf, -math.inf, 7.0)],
        [],
    ])
    def test_matches_csv_writer(self, tmp_path, rows):
        names = ["a", "b", "c"]
        write_csv(tmp_path / "new.csv", names, rows)
        csv_writer_reference(tmp_path / "ref.csv", names, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
