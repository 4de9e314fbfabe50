import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import kernel_trio, random_density
from gencoag import (
    ConfigError,
    ConstantKernel,
    DomainError,
    DtPolicy,
    EpsParams,
    Kernel,
    MonodisperseProfile,
    NumberDensity,
    SingularProductKernel,
    TabulatedKernel,
    evolve,
    generalized_rhs,
    make_grid,
    make_rhs,
    ohs_rhs,
    ohs_velocity,
    sample_initial,
    sce_rhs,
    truncate,
    weak_action,
    weighted_norm,
)
from gencoag import operators
from gencoag.operators import LagScheme, OhsScheme, PairScheme, _pair_scheme
from oracles import smoluchowski_rhs


def brute_force_generalized(grid, kernel, eps, values):
    """Scalar-loop re-derivation of the pair-event quadrature.

    Independent of the vectorized assembly: iterates unordered pairs, does
    the removals/rebirth/deposit bookkeeping one event class at a time.
    """
    x, dx = grid.centers, grid.widths
    size = grid.size
    number = np.zeros(size)
    ledger = 0.0
    for m in range(size):
        for j in range(m + 1):
            rate = float(kernel.eval(x[m], x[j])) * values[m] * dx[m] * values[j] * dx[j]
            events = rate / eps * (0.5 if j == m else 1.0)
            if j == m:
                number[m] -= (1.0 + eps) * events
            else:
                number[m] -= events
                number[j] -= eps * events
            p = x[m] + eps * x[j]
            if p > x[-1]:
                ledger += events * p
                continue
            a = int(np.searchsorted(x, p, side="right")) - 1
            a = min(a, size - 2)
            w = (x[a + 1] - p) / (x[a + 1] - x[a])
            number[a] += events * w
            number[a + 1] += events * (1.0 - w)
    return number / dx, ledger


class TestGeneralizedRhs:
    def test_zero_density(self, grid30, const_trunc):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        f = generalized_rhs(d, const_trunc, EpsParams(0.5, 30.0))
        assert np.all(f.dzdt == 0.0) and f.outflux_rate == 0.0

    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.125, 0.01])
    def test_matches_brute_force(self, eps):
        grid = make_grid(8.0, 6)
        kernel = truncate(ConstantKernel(1.0), 8.0)
        rng = np.random.default_rng(3)
        d = random_density(grid, rng)
        f = generalized_rhs(d, kernel, EpsParams(eps, 8.0))
        expect, ledger = brute_force_generalized(grid, kernel, eps, d.values)
        scale = np.max(np.abs(expect))
        assert np.allclose(f.dzdt, expect, rtol=0, atol=1e-12 * scale)
        assert f.outflux_rate == pytest.approx(ledger, rel=1e-12, abs=1e-300)

    def test_eps_one_equals_sce(self, grid30):
        rng = np.random.default_rng(5)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            gen = generalized_rhs(d, kernel, EpsParams(1.0, 30.0))
            sce = smoluchowski_rhs(d, kernel)
            scale = max(np.max(np.abs(sce.dzdt)), 1e-300)
            assert np.max(np.abs(gen.dzdt - sce.dzdt)) <= 1e-12 * scale
            assert gen.outflux_rate == pytest.approx(sce.outflux_rate, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("eps", [1.0, 0.25, 0.01])
    def test_interior_mass_neutrality(self, grid30, eps):
        rng = np.random.default_rng(7)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            f = generalized_rhs(d, kernel, EpsParams(eps, 30.0))
            x, dx = grid30.centers, grid30.widths
            drift = np.sum(x * f.dzdt * dx) + f.outflux_rate
            scale = np.sum(x * np.abs(f.dzdt) * dx) + abs(f.outflux_rate)
            assert abs(drift) <= 1e-10 * max(scale, 1e-300)

    def test_number_moment_riccati_form(self, grid30, const_trunc, exp_density):
        # omega = 1 weak action: every event nets -eps particles at rate
        # events = R/eps, so dM0/dt = -(1/2) M0^2 for the unit kernel.
        # Discarded above-domain products add a number loss of order
        # zeta_top / eps ~ e^-30 / eps, visible at the 1e-9 level.
        for eps in (1.0, 0.5, 0.01):
            f = generalized_rhs(exp_density, const_trunc, EpsParams(eps, 30.0))
            m0 = weighted_norm(exp_density, "one")
            dm0 = np.sum(f.dzdt * grid30.widths)
            assert dm0 == pytest.approx(-0.5 * m0 * m0, rel=1e-8)

    def test_number_moment_nonpositive(self, grid30):
        rng = np.random.default_rng(9)
        for kernel in kernel_trio(30.0):
            for eps in (1.0, 0.3, 0.02):
                d = random_density(grid30, rng)
                f = generalized_rhs(d, kernel, EpsParams(eps, 30.0))
                assert np.sum(f.dzdt * grid30.widths) <= 0.0

    def test_sign_structure_quasi_positive(self, grid30, const_trunc):
        # cells with zero density can only gain: negative contributions are
        # proportional to the cell's own value
        rng = np.random.default_rng(13)
        vals = rng.random(grid30.size)
        vals[::3] = 0.0
        d = NumberDensity(grid30, vals)
        for eps in (1.0, 0.2):
            f = generalized_rhs(d, const_trunc, EpsParams(eps, 30.0))
            assert np.all(f.dzdt[vals == 0.0] >= 0.0)

    def test_grid_kernel_mismatch(self, grid30):
        kernel = truncate(ConstantKernel(1.0), 10.0)
        d = NumberDensity(grid30, np.zeros(grid30.size))
        with pytest.raises(ConfigError):
            generalized_rhs(d, kernel, EpsParams(0.5, 10.0))

    def test_lipschitz_sanity(self, grid30):
        # || Q(z1) - Q(z2) ||_L1 <= 2 k n^(2+2s) (1/eps + 2) (||z1|| + ||z2||) ||z1 - z2||
        rng = np.random.default_rng(17)
        for kernel in kernel_trio(30.0):
            for eps in (1.0, 0.25):
                d1 = random_density(grid30, rng)
                d2 = random_density(grid30, rng)
                f1 = generalized_rhs(d1, kernel, EpsParams(eps, 30.0))
                f2 = generalized_rhs(d2, kernel, EpsParams(eps, 30.0))
                dx = grid30.widths
                lhs = np.sum(np.abs(f1.dzdt - f2.dzdt) * dx)
                n1 = np.sum(np.abs(d1.values) * dx)
                n2 = np.sum(np.abs(d2.values) * dx)
                dist = np.sum(np.abs(d1.values - d2.values) * dx)
                bound = kernel.sup_bound * (1.0 / eps + 2.0) * (n1 + n2) * dist
                assert lhs <= bound


def dense_and_lag(grid, kernel, eps, values):
    """Both generalized schemes on one density, plus the gross event rate per cell.

    The gross rate of a cell is its births plus its deaths (number per unit
    time).  Births count each event that deposits into the cell whole, not
    by its two-point share: rounding of the split weights scales with the
    event, and a share can be far below its event at small eps.
    """
    dense = PairScheme(grid, kernel, eps)
    lag = LagScheme(grid, kernel.factors(grid.centers), eps)
    pairs = dense.pairs
    events = pairs.events(values * grid.widths)
    births = np.bincount(pairs.a, weights=events[~pairs.over], minlength=grid.size)
    births += np.bincount(pairs.a + 1, weights=events[~pairs.over], minlength=grid.size)
    deaths = np.bincount(pairs.m_idx, weights=events, minlength=grid.size)
    deaths += np.bincount(pairs.j_idx, weights=eps * events, minlength=grid.size)
    return dense.rhs(values), lag.rhs(values), births + deaths


class TestLagScheme:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.floats(1.5, 1000.0),
        cpd=st.integers(4, 64),
        family=st.integers(0, 2),
        eps=st.floats(2.0**-20, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_dense(self, n, cpd, family, eps, seed):
        assume(2 <= round(2.0 * cpd * np.log10(n)) <= 256)
        grid = make_grid(n, cpd)
        kernel = kernel_trio(n)[family]
        values = np.random.default_rng(seed).random(grid.size)
        (dz_dense, out_dense), (dz_lag, out_lag), gross = dense_and_lag(
            grid, kernel, eps, values)
        diff = np.abs(dz_lag - dz_dense) * grid.widths
        assert np.all(diff <= 1e-12 * gross)
        assert abs(out_lag - out_dense) <= 1e-12 * out_dense

    @pytest.mark.parametrize("family", [0, 1, 2])
    @pytest.mark.parametrize("n, cpd, eps", [
        (100.0, 128, 0.25),
        (100.0, 27, 2.0**-10),
        (2.0, 10, 1.0),   # 2 x_m is a center: the diagonal product lands on the top one
        (4.0, 10, 1.0),
        (1.6, 4, 0.5),    # two cells: every pair is in the exact band
    ])
    def test_sparse_data(self, family, n, cpd, eps):
        # a few occupied cells; a near-empty cell's own rate can be tiny, so
        # differences are measured against the largest gross rate
        grid = make_grid(n, cpd)
        kernel = kernel_trio(n)[family]
        rng = np.random.default_rng(11)
        for _ in range(5):
            values = rng.random(grid.size) * (rng.random(grid.size) < 0.2)
            (dz_dense, out_dense), (dz_lag, out_lag), gross = dense_and_lag(
                grid, kernel, eps, values)
            diff = np.abs(dz_lag - dz_dense) * grid.widths
            assert np.all(diff <= 1e-13 * max(gross.max(), 1e-300))
            assert abs(out_lag - out_dense) <= 1e-13 * out_dense

    def test_band_is_linear_in_cells(self):
        # pairs kept for the top band: at most N * (largest offset + 2)
        grid = make_grid(100.0, 128)
        eps = 0.25
        scheme = _pair_scheme(grid, truncate(SingularProductKernel(), 100.0), eps)
        assert isinstance(scheme, LagScheme)
        max_offset = np.ceil(np.log1p(eps) / np.log(grid.ratio()))
        assert scheme.band.m_idx.size <= grid.size * (max_offset + 2)

    def test_dispatch_on_factors(self, grid30):
        for kernel in kernel_trio(30.0):
            assert isinstance(_pair_scheme(grid30, kernel, 0.5), LagScheme)

    def test_kernels_without_factors_take_dense_path(self):
        class Exponential(Kernel):
            def _rate(self, lo, hi):
                return np.exp(-0.1 * (lo + hi))

        nodes = np.geomspace(0.1, 10.0, 6)
        table = 1.0 + np.add.outer(nodes, nodes)
        grid = make_grid(8.0, 6)
        rng = np.random.default_rng(21)
        for base in (Exponential(k=1.0), TabulatedKernel(nodes, table, k=25.0)):
            kernel = truncate(base, 8.0)
            d = random_density(grid, rng)
            for eps in (1.0, 0.3):
                assert isinstance(_pair_scheme(grid, kernel, eps), PairScheme)
                f = generalized_rhs(d, kernel, EpsParams(eps, 8.0))
                expect, ledger = brute_force_generalized(grid, kernel, eps, d.values)
                assert np.allclose(f.dzdt, expect, rtol=0, atol=1e-12 * np.max(np.abs(expect)))
                assert f.outflux_rate == pytest.approx(ledger, rel=1e-12, abs=1e-300)


class TestMakeRhs:
    @pytest.mark.parametrize("model, eps, builder", [
        ("sce", None, "_pair_scheme"),
        ("generalized", 0.3, "_pair_scheme"),
        ("ohs", None, "OhsScheme"),
    ])
    def test_scheme_built_once_per_callable(self, monkeypatch, const_trunc, exp_density,
                                            model, eps, builder):
        real = getattr(operators, builder)
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(operators, builder, counting)
        rhs = make_rhs(model, const_trunc, eps)
        traj = evolve(exp_density, rhs, 0.2, DtPolicy(mode="fixed", dt=0.02), [0.1, 0.2])
        assert len(traj) == 3
        assert len(calls) == 1

    def test_sce_is_the_eps_one_pair_scheme(self, grid30):
        rng = np.random.default_rng(47)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            sce = make_rhs("sce", kernel)(d)
            gen = make_rhs("generalized", kernel, 1.0)(d)
            assert np.array_equal(sce.dzdt, gen.dzdt)
            assert sce.outflux_rate == gen.outflux_rate

    def test_sce_dense_path_matches_oracle(self):
        nodes = np.geomspace(0.1, 10.0, 6)
        table = 1.0 + np.add.outer(nodes, nodes)
        grid = make_grid(8.0, 6)
        kernel = truncate(TabulatedKernel(nodes, table, k=25.0), 8.0)
        assert isinstance(_pair_scheme(grid, kernel, 1.0), PairScheme)
        rng = np.random.default_rng(53)
        for _ in range(5):
            d = random_density(grid, rng)
            f = make_rhs("sce", kernel)(d)
            ref = smoluchowski_rhs(d, kernel)
            scale = max(np.max(np.abs(ref.dzdt)), 1e-300)
            assert np.max(np.abs(f.dzdt - ref.dzdt)) <= 1e-12 * scale
            assert f.outflux_rate == pytest.approx(ref.outflux_rate, rel=1e-12, abs=1e-300)

    def test_bad_model_and_eps_rejected_before_any_density(self, const_trunc):
        with pytest.raises(ConfigError):
            make_rhs("bogus", const_trunc)
        with pytest.raises(ConfigError):
            make_rhs("generalized", const_trunc)
        with pytest.raises(DomainError):
            make_rhs("generalized", const_trunc, 1.5)


class TestSceRhs:
    def test_zero_density(self, grid30, const_trunc):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        f = sce_rhs(d, const_trunc)
        assert np.all(f.dzdt == 0.0)

    def test_monodisperse_hand_computation(self):
        # single occupied cell: death rate zeta0^2 * dx0 in that cell,
        # birth appears in the cell containing 2 mu0
        grid = make_grid(10.0, 8)
        kernel = truncate(ConstantKernel(1.0), 10.0)
        d = sample_initial(MonodisperseProfile(2.0, 1.0), grid)
        c = grid.cell_of(2.0)
        z0 = d.values[c]
        f = sce_rhs(d, kernel)
        assert f.dzdt[c] == pytest.approx(-z0 * z0 * grid.widths[c], rel=1e-12)
        target = grid.cell_of(2.0 * grid.centers[c])
        birth_cells = np.nonzero(f.dzdt > 0.0)[0]
        assert len(birth_cells) in (1, 2)
        assert target in birth_cells or target + 1 in birth_cells
        # deposited number: half the collision rate (diagonal symmetry factor)
        pair_rate = z0 * grid.widths[c] * z0 * grid.widths[c]
        born = np.sum(f.dzdt[birth_cells] * grid.widths[birth_cells])
        assert born == pytest.approx(0.5 * pair_rate, rel=1e-12)

    def test_number_moment_closed_form(self, grid30, const_trunc, exp_density):
        f = sce_rhs(exp_density, const_trunc)
        m0 = weighted_norm(exp_density, "one")
        total = np.sum(f.dzdt * grid30.widths)
        assert total == pytest.approx(-0.5 * m0 * m0, rel=1e-10)

    def test_number_moment_nonpositive(self, grid30):
        rng = np.random.default_rng(43)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            f = sce_rhs(d, kernel)
            assert np.sum(f.dzdt * grid30.widths) <= 0.0

    def test_mass_neutrality(self, grid30):
        rng = np.random.default_rng(19)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            f = sce_rhs(d, kernel)
            drift = np.sum(grid30.centers * f.dzdt * grid30.widths) + f.outflux_rate
            scale = np.sum(grid30.centers * np.abs(f.dzdt) * grid30.widths)
            assert abs(drift) <= 1e-10 * max(scale, 1e-300)


class TestOhs:
    def test_zero_density(self, grid30, const_trunc):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        f = ohs_rhs(d, const_trunc)
        assert np.all(f.dzdt == 0.0)

    def test_velocity_zero_density(self, grid30, const_trunc):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        assert ohs_velocity(d, const_trunc, 5) == 0.0

    def test_velocity_monodisperse(self):
        grid = make_grid(10.0, 8)
        kernel = truncate(ConstantKernel(1.0), 10.0)
        d = sample_initial(MonodisperseProfile(1.0, 1.0), grid)
        c = grid.cell_of(1.0)
        # edges strictly above the occupied cell see the full mass below
        assert ohs_velocity(d, kernel, c + 1) == pytest.approx(1.0, rel=1e-12)
        assert ohs_velocity(d, kernel, grid.size - 1) == pytest.approx(1.0, rel=1e-12)
        # first cell: no smaller partners
        assert ohs_velocity(d, kernel, 0) == 0.0

    def test_velocity_nonnegative(self, grid30):
        rng = np.random.default_rng(23)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            from gencoag.operators import ohs_velocities

            assert np.all(ohs_velocities(d, kernel) >= 0.0)

    def test_number_moment_double_sum(self, grid30):
        # interior number change equals -sum_{j<=i} K_ij z_i z_j dx_i dx_j
        # plus the boundary number flux
        rng = np.random.default_rng(29)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            f = ohs_rhs(d, kernel)
            x, dx = grid30.centers, grid30.widths
            zd = d.values * dx
            K = np.asarray(kernel.eval(x[:, None], x[None, :]))
            death = np.sum(np.tril(K) * np.outer(zd, zd))
            sch = OhsScheme(grid30, kernel)
            eaten = sch.K_lower @ (x * zd)
            boundary = d.values[-1] * eaten[-1] * sch.gap_scale[-1]
            total = np.sum(f.dzdt * dx)
            assert total == pytest.approx(-death - boundary, rel=1e-10)

    def test_mass_ledger_exact(self, grid30):
        rng = np.random.default_rng(31)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            f = ohs_rhs(d, kernel)
            drift = np.sum(grid30.centers * f.dzdt * grid30.widths) + f.outflux_rate
            scale = np.sum(grid30.centers * np.abs(f.dzdt) * grid30.widths)
            assert abs(drift) <= 1e-10 * max(scale, 1e-300)

    def test_sign_structure(self, grid30, const_trunc):
        rng = np.random.default_rng(37)
        vals = rng.random(grid30.size)
        vals[::4] = 0.0
        d = NumberDensity(grid30, vals)
        f = ohs_rhs(d, const_trunc)
        assert np.all(f.dzdt[vals == 0.0] >= 0.0)

    def test_number_moment_nonpositive(self, grid30):
        rng = np.random.default_rng(41)
        for kernel in kernel_trio(30.0):
            d = random_density(grid30, rng)
            f = ohs_rhs(d, kernel)
            assert np.sum(f.dzdt * grid30.widths) <= 0.0


class TestOperatorProperties:
    # hypothesis-driven forms of the structural invariants

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), eps=st.floats(0.01, 1.0))
    def test_neutrality_random_densities(self, seed, eps):
        grid = make_grid(12.0, 6)
        kernel = truncate(ConstantKernel(1.0), 12.0)
        rng = np.random.default_rng(seed)
        d = NumberDensity(grid, rng.random(grid.size) * rng.uniform(0.1, 5.0))
        f = generalized_rhs(d, kernel, EpsParams(eps, 12.0))
        x, dx = grid.centers, grid.widths
        drift = np.sum(x * f.dzdt * dx) + f.outflux_rate
        scale = np.sum(x * np.abs(f.dzdt) * dx) + abs(f.outflux_rate) + 1e-300
        assert abs(drift) <= 1e-11 * scale

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), eps=st.floats(0.01, 1.0))
    def test_number_decreases_random_densities(self, seed, eps):
        grid = make_grid(12.0, 6)
        kernel = truncate(ConstantKernel(1.0), 12.0)
        rng = np.random.default_rng(seed)
        d = NumberDensity(grid, rng.random(grid.size))
        for f in (
            generalized_rhs(d, kernel, EpsParams(eps, 12.0)),
            sce_rhs(d, kernel),
            ohs_rhs(d, kernel),
        ):
            assert np.sum(f.dzdt * grid.widths) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_eps_one_equivalence_random(self, seed):
        grid = make_grid(12.0, 6)
        kernel = truncate(ConstantKernel(1.0), 12.0)
        rng = np.random.default_rng(seed)
        d = NumberDensity(grid, rng.random(grid.size))
        gen = generalized_rhs(d, kernel, EpsParams(1.0, 12.0))
        sce = smoluchowski_rhs(d, kernel)
        scale = max(np.max(np.abs(sce.dzdt)), 1e-300)
        assert np.max(np.abs(gen.dzdt - sce.dzdt)) <= 1e-12 * scale


class TestWeakAction:
    def test_constant_omega_sce(self, grid30, const_trunc, exp_density):
        f = sce_rhs(exp_density, const_trunc)
        m0 = weighted_norm(exp_density, "one")
        assert weak_action(f, np.ones(grid30.size)) == pytest.approx(-0.5 * m0 * m0, rel=1e-10)

    def test_mass_omega_generalized(self, grid30, const_trunc, exp_density):
        # omega(mu) = mu pairs to zero exactly (up to boundary overflow,
        # which at n = 30 with exponential data is ~ e^-30)
        f = generalized_rhs(exp_density, const_trunc, EpsParams(0.5, 30.0))
        act = weak_action(f, grid30.centers)
        assert abs(act + f.outflux_rate) <= 1e-10

    def test_zero_omega(self, grid30, const_trunc, exp_density):
        f = sce_rhs(exp_density, const_trunc)
        assert weak_action(f, np.zeros(grid30.size)) == 0.0

    def test_shape_guard(self, grid30, const_trunc, exp_density):
        f = sce_rhs(exp_density, const_trunc)
        with pytest.raises(ConfigError):
            weak_action(f, np.ones(3))
