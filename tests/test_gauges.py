import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencoag import (
    DomainError,
    ExponentialProfile,
    GaugeConstructionError,
    build_gauge_from_tail,
    make_grid,
    psi1_tail,
    psi2_tail,
    sample_initial,
)
from oracles import check_inequalities, point_mass, psi_prime, square_gauge


def exponential_tail(r_max=60.0, samples=2000):
    r = np.linspace(0.0, r_max, samples)
    return r, np.exp(-r)


class TestBuildFromTail:
    def test_exponential_breakpoints(self):
        # tail e^-r crosses 4^-j at r = j ln 4; gaps are constant so the
        # concavity push never moves a breakpoint
        r, tail = exponential_tail()
        gauge = build_gauge_from_tail(r, tail)
        bp = gauge.breakpoints
        spacing = r[1] - r[0]
        for j in range(1, min(8, bp.size)):
            # exact crossing j ln4, rounded up to the sample grid; the
            # nondecreasing-gap rule propagates the rounding linearly
            assert j * math.log(4.0) - 1e-12 <= bp[j] <= j * (math.log(4.0) + 2 * spacing)
        # derivative values are 1, 2, 3, ...
        assert np.array_equal(gauge.psi_prime_values[:4], [1.0, 2.0, 3.0, 4.0])

    def test_psi_zero_and_convexity_samples(self):
        r, tail = exponential_tail()
        gauge = build_gauge_from_tail(r, tail)
        assert gauge.psi(0.0) == 0.0
        s = np.exp(np.random.default_rng(1).uniform(-6, 6, 10**4))
        psi, dpsi = gauge.psi(s), psi_prime(gauge, s)
        assert np.all(psi <= s * dpsi * (1 + 1e-12))
        assert np.all(s * dpsi <= 2.0 * psi * (1 + 1e-12))

    def test_superlinearity_witness(self):
        r, tail = exponential_tail()
        gauge = build_gauge_from_tail(r, tail)
        rj = gauge.breakpoints[-1]
        # psi(s)/s exceeds any requested level far enough out
        for level in (2.0, 5.0, 10.0):
            s = rj * (2.0 ** np.arange(1, 40))
            ratios = gauge.psi(s) / s
            assert ratios.max() > level
        # and the stored derivative values already head to infinity
        assert gauge.psi_prime_values[-1] >= 2.0

    def test_non_decaying_tail_rejected(self):
        r = np.linspace(0.0, 10.0, 50)
        with pytest.raises(GaugeConstructionError):
            build_gauge_from_tail(r, np.full(50, 3.0))

    def test_increasing_tail_rejected(self):
        r = np.linspace(0.0, 10.0, 50)
        with pytest.raises(GaugeConstructionError):
            build_gauge_from_tail(r, np.linspace(1.0, 2.0, 50))

    def test_zero_tail_rejected(self):
        r = np.linspace(0.0, 10.0, 50)
        with pytest.raises(GaugeConstructionError):
            build_gauge_from_tail(r, np.zeros(50))

    def test_from_density_tails(self):
        grid = make_grid(30.0, 16)
        d = sample_initial(ExponentialProfile(), grid)
        g1 = build_gauge_from_tail(*psi1_tail(d))
        g2 = build_gauge_from_tail(*psi2_tail(d, 0.2))
        x = grid.centers
        gamma1 = np.sum(g1.psi(x) * d.values * grid.widths)
        gamma2 = np.sum(g2.psi(x ** (-0.2) * d.values) * grid.widths)
        assert np.isfinite(gamma1) and gamma1 > 0
        assert np.isfinite(gamma2) and gamma2 > 0

    def test_psi2_tail_with_zero_cells(self):
        # every cell but one is zero: r = 0 is placed once, not once per level
        grid = make_grid(30.0, 16)
        d = point_mass(grid, 2.0)
        r, tail = psi2_tail(d, 0.2)
        assert np.all(np.diff(r) > 0) and r[0] == 0.0
        assert tail[0] == tail[-2] > tail[-1] == 0.0
        build_gauge_from_tail(r, tail)


class TestCheckInequalities:
    def test_square_gauge(self):
        rep = check_inequalities(square_gauge(), samples=10**4, seed=2)
        assert rep["passed"] and rep["violations"] == 0

    def test_square_equalities(self):
        # s psi'(s) = 2 psi(s) exactly, and psi(2z) = 4 psi(z)
        g = square_gauge()
        z = np.array([0.3, 1.7, 42.0])
        assert np.allclose(z * psi_prime(g, z), 2.0 * g.psi(z), rtol=0)
        assert np.allclose(g.psi(2 * z) - 2 * g.psi(z), 2.0 * g.psi(z), rtol=1e-15)

    def test_constructed_gauge(self):
        r, tail = exponential_tail()
        gauge = build_gauge_from_tail(r, tail)
        rep = check_inequalities(gauge, samples=10**4, seed=3)
        assert rep["passed"], rep

    def test_sample_guard(self):
        with pytest.raises(DomainError):
            check_inequalities(square_gauge(), samples=0)

    @settings(max_examples=300, deadline=None)
    @given(z1=st.floats(1e-3, 1e3), z2=st.floats(1e-3, 1e3))
    def test_superadditivity_property(self, z1, z2):
        r, tail = exponential_tail()
        gauge = build_gauge_from_tail(r, tail)
        lhs = gauge.psi(z1 + z2) - gauge.psi(z1) - gauge.psi(z2)
        ub = 2.0 * (z1 * gauge.psi(z2) + z2 * gauge.psi(z1)) / (z1 + z2)
        scale = abs(gauge.psi(z1)) + abs(gauge.psi(z2)) + 1.0
        assert lhs >= -1e-10 * scale
        assert lhs <= ub + 1e-10 * scale


class TestExport:
    def test_gauge_csv(self, tmp_path):
        from gencoag.gauges import write_gauge_csv

        r, tail = exponential_tail()
        gauge = build_gauge_from_tail(r, tail)
        path = tmp_path / "gauge.csv"
        write_gauge_csv(gauge, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "breakpoint,psi,psi_prime"
        assert len(lines) == 1 + gauge.breakpoints.size
