import copy
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import high_rank_kernel, kernel_trio, random_density
from gencoag import (
    AdditiveKernel,
    ConfigError,
    ConstantKernel,
    DomainError,
    Kernel,
    NumberDensity,
    SingularProductKernel,
    evolve,
    make_grid,
    make_rhs,
)
from gencoag import operators
from gencoag.operators import LagScheme, computed_eps
from oracles import (
    PairScheme,
    cell_of,
    dense_ohs,
    ohs_velocities,
    ohs_velocity,
    pair_deaths,
    point_mass,
    smoluchowski_rhs,
    sup_bound,
    unique_lag_groups,
    weighted_norm,
)


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
            if p > grid.n:
                ledger += events * p
                continue
            # the domain end n is a virtual pivot whose share leaves the domain
            pivots = np.append(x, grid.n)
            a = int(np.searchsorted(pivots, p, side="right")) - 1
            a = min(a, size - 1)
            # the shares of the exact product: the rounded p keeps too few
            # digits of a small partner's eps x_j to split it at its pivot
            exact = Fraction(x[m]) + Fraction(eps) * Fraction(x[j])
            lo, hi = Fraction(pivots[a]), Fraction(pivots[a + 1])
            w, up = float((hi - exact) / (hi - lo)), float((exact - lo) / (hi - lo))
            number[a] += events * w
            if a + 1 < size:
                number[a + 1] += events * up
            else:
                ledger += events * up * grid.n
    return number / dx, ledger


def paper_class_kernels(sigma=0.2):
    """The paper's kernel class, singular at zero and linear at infinity, as power sums."""
    third = 1.0 / 3.0
    return [
        # Brownian: (mu^1/3 + nu^1/3)(mu^-1/3 + nu^-1/3)
        Kernel([(2.0, 0.0, 0.0), (1.0, third, -third), (1.0, -third, third)], sigma=third),
        # (1 + mu + nu)(mu nu)^-sigma
        Kernel([(1.0, -sigma, -sigma), (1.0, 1.0 - sigma, -sigma),
                (1.0, -sigma, 1.0 - sigma)], sigma=sigma),
    ]


def lag_scheme(grid, kernel, eps):
    return LagScheme(grid, kernel.factors(grid.centers), eps)


def random_power_sum(rng, terms):
    """A power-sum kernel of ``terms`` random terms c lo^a hi^b, about one in five of them 0."""
    c = rng.random(terms) * (rng.random(terms) < 0.8)
    a, b = rng.uniform(-0.5, 1.0, (2, terms))
    return Kernel(list(zip(c, a, b)))


class TestGeneralizedRhs:
    def test_zero_density(self, grid30, const_kernel):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        dzdt, outflux = make_rhs("generalized", const_kernel, 0.5)(d)
        assert np.all(dzdt == 0.0) and outflux == 0.0

    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.125, 0.01])
    def test_matches_brute_force(self, eps):
        grid = make_grid(8.0, 6)
        rng = np.random.default_rng(3)
        for kernel in (ConstantKernel(1.0), *paper_class_kernels()):
            d = random_density(grid, rng)
            dzdt, outflux = make_rhs("generalized", kernel, eps)(d)
            expect, ledger = brute_force_generalized(grid, kernel, eps, d.values)
            scale = np.max(np.abs(expect))
            assert np.allclose(dzdt, expect, rtol=0, atol=1e-12 * scale)
            assert outflux == pytest.approx(ledger, rel=1e-12, abs=1e-300)

    def test_eps_one_equals_sce(self, grid30):
        rng = np.random.default_rng(5)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            gen_dz, gen_out = make_rhs("generalized", kernel, 1.0)(d)
            sce_dz, sce_out = smoluchowski_rhs(d, kernel)
            scale = max(np.max(np.abs(sce_dz)), 1e-300)
            assert np.max(np.abs(gen_dz - sce_dz)) <= 1e-12 * scale
            assert gen_out == pytest.approx(sce_out, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("eps", [1.0, 0.25, 0.01])
    def test_interior_mass_neutrality(self, grid30, eps):
        rng = np.random.default_rng(7)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            dzdt, outflux = make_rhs("generalized", kernel, eps)(d)
            x, dx = grid30.centers, grid30.widths
            drift = np.sum(x * dzdt * dx) + outflux
            scale = np.sum(x * np.abs(dzdt) * dx) + abs(outflux)
            assert abs(drift) <= 1e-10 * max(scale, 1e-300)

    def test_number_moment_riccati_form(self, grid30, const_kernel, exp_density):
        # omega = 1 weak action: every event nets -eps particles at rate
        # events = R/eps, so dM0/dt = -(1/2) M0^2 for the unit kernel.
        # Discarded above-domain products add a number loss of order
        # zeta_top / eps ~ e^-30 / eps, visible at the 1e-9 level.
        for eps in (1.0, 0.5, 0.01):
            dzdt, _ = make_rhs("generalized", const_kernel, eps)(exp_density)
            m0 = weighted_norm(exp_density, "one")
            dm0 = np.sum(dzdt * grid30.widths)
            assert dm0 == pytest.approx(-0.5 * m0 * m0, rel=1e-8)

    def test_number_moment_nonpositive(self, grid30):
        rng = np.random.default_rng(9)
        for kernel in kernel_trio():
            for eps in (1.0, 0.3, 0.02):
                d = random_density(grid30, rng)
                dzdt, _ = make_rhs("generalized", kernel, eps)(d)
                assert np.sum(dzdt * grid30.widths) <= 0.0

    def test_sign_structure_quasi_positive(self, grid30, const_kernel):
        # cells with zero density can only gain: negative contributions are
        # proportional to the cell's own value
        rng = np.random.default_rng(13)
        vals = rng.random(grid30.size)
        vals[::3] = 0.0
        d = NumberDensity(grid30, vals)
        for eps in (1.0, 0.2):
            dzdt, _ = make_rhs("generalized", const_kernel, eps)(d)
            assert np.all(dzdt[vals == 0.0] >= 0.0)

    def test_lipschitz_sanity(self, grid30):
        # || Q(z1) - Q(z2) ||_L1 <= 2 k n^(2+2s) (1/eps + 2) (||z1|| + ||z2||) ||z1 - z2||
        rng = np.random.default_rng(17)
        for kernel in kernel_trio():
            for eps in (1.0, 0.25):
                d1 = random_density(grid30, rng)
                d2 = random_density(grid30, rng)
                dz1, _ = make_rhs("generalized", kernel, eps)(d1)
                dz2, _ = make_rhs("generalized", kernel, eps)(d2)
                dx = grid30.widths
                lhs = np.sum(np.abs(dz1 - dz2) * dx)
                n1 = np.sum(np.abs(d1.values) * dx)
                n2 = np.sum(np.abs(d2.values) * dx)
                dist = np.sum(np.abs(d1.values - d2.values) * dx)
                bound = sup_bound(kernel, grid30.n) * (1.0 / eps + 2.0) * (n1 + n2) * dist
                assert lhs <= bound


def dense_and_lag(grid, kernel, eps, values):
    """Both generalized schemes on one density, plus the gross event rate per cell.

    The gross rate of a cell is its births plus its deaths (number per unit
    time).  Births count each event that deposits into the cell whole, not
    by its two-point share: rounding of the split weights scales with the
    event, and a share can be far below its event at small eps.  Pivot a + 1
    may be the virtual pivot at n, which is not a cell.
    """
    dense = PairScheme(grid, kernel, eps)
    lag = lag_scheme(grid, kernel, eps)
    zd = values * grid.widths
    big = dense.rate * zd[dense.m_idx] * zd[dense.j_idx]
    ev, a = big[~dense.over], dense.a[~dense.over]
    births = np.bincount(a, weights=ev, minlength=grid.size)
    births += np.bincount(a + 1, weights=ev, minlength=grid.size + 1)[:-1]
    deaths = np.bincount(dense.m_idx, weights=big, minlength=grid.size) + pair_deaths(dense, zd)
    return dense.rhs(values), lag.rhs(values), births + deaths


class TestLagScheme:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.floats(1.5, 1000.0),
        cpd=st.integers(4, 64),
        family=st.integers(0, 2),
        eps=st.one_of(st.just(0.0), st.floats(2.0**-20, 1.0)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_dense(self, n, cpd, family, eps, seed):
        assume(2 <= round(2.0 * cpd * np.log10(n)) <= 256)
        grid = make_grid(n, cpd)
        kernel = kernel_trio()[family]
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
        (1.6, 4, 0.5),    # two cells: the band is the top cell's pairs
        (1.5, 5, 1.0),    # two cells: every product leaves the domain
    ])
    def test_sparse_data(self, family, n, cpd, eps):
        # a few occupied cells; a near-empty cell's own rate can be tiny, so
        # differences are measured against the largest gross rate
        grid = make_grid(n, cpd)
        kernel = kernel_trio()[family]
        rng = np.random.default_rng(11)
        for _ in range(5):
            values = rng.random(grid.size) * (rng.random(grid.size) < 0.2)
            (dz_dense, out_dense), (dz_lag, out_lag), gross = dense_and_lag(
                grid, kernel, eps, values)
            diff = np.abs(dz_lag - dz_dense) * grid.widths
            assert np.all(diff <= 1e-13 * max(gross.max(), 1e-300))
            assert abs(out_lag - out_dense) <= 1e-13 * out_dense

    @pytest.mark.parametrize("family", [0, 1, 2])
    @pytest.mark.parametrize("n, cpd", [(1.6, 4), (2.0, 10), (8.0, 6), (100.0, 27),
                                        (100.0, 128)])
    def test_band_edges_match_dense(self, family, n, cpd):
        # at sqrt(r) - 1 the top cell's self-pair product meets n, and at
        # r - 1 the self-pair's offset turns 1; one step to either side of
        # each, on random data (cellwise gross rate) and sparse data (the
        # largest gross rate, as a near-empty cell's own rate can be tiny)
        grid = make_grid(n, cpd)
        kernel = kernel_trio()[family]
        rng = np.random.default_rng(97)
        r = grid.ratio()
        for edge in (np.sqrt(r) - 1.0, r - 1.0):
            for eps in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
                for sparse in (False, True):
                    values = rng.random(grid.size)
                    if sparse:
                        values *= rng.random(grid.size) < 0.2
                    (dz_dense, out_dense), (dz_lag, out_lag), gross = dense_and_lag(
                        grid, kernel, eps, values)
                    scale = gross.max() if sparse else gross
                    assert np.all(np.abs(dz_lag - dz_dense) * grid.widths <= 1e-12 * scale)
                    assert abs(out_lag - out_dense) <= 1e-12 * out_dense

    def test_band_is_linear_in_cells(self):
        # lag d keeps the pairs m >= N - 1 - o_d for the top band: at most
        # N * (largest offset + 1) pairs, and with every offset 0 (eps = 0
        # among them) the top cell's N
        for n, cpd in [(8.0, 6), (100.0, 27), (100.0, 128), (1000.0, 64)]:
            grid = make_grid(n, cpd)
            below = 0.99 * (np.sqrt(grid.ratio()) - 1.0)
            for eps in (0.0, below, 0.05, 0.25, 1.0):
                scheme = lag_scheme(grid, SingularProductKernel(), eps)
                max_offset = np.floor(np.log1p(eps) / np.log(grid.ratio()))
                assert scheme.m_idx.size <= grid.size * (max_offset + 1)
                if max_offset == 0:
                    assert scheme.m_idx.size == grid.size
                    assert np.all(scheme.m_idx == grid.size - 1)

    @pytest.mark.parametrize("n, cpd", [(1.5, 5), (1.6, 4), (8.0, 6), (100.0, 27),
                                        (100.0, 128), (1000.0, 64)])
    def test_groups_are_those_of_unique_offsets(self, n, cpd):
        # the runs of the monotone offsets, taken in increasing offset, are
        # the groups np.unique gives, and so is every right-hand side, bit for bit
        grid = make_grid(n, cpd)
        below = 0.99 * (np.sqrt(grid.ratio()) - 1.0)
        values = np.random.default_rng(83).random(grid.size)
        for eps in (0.0, below, 2.0**-10, 0.05, 0.25, 0.5, 1.0):
            groups, moves = unique_lag_groups(grid, eps)
            for kernel in kernel_trio() + [high_rank_kernel()]:
                scheme = lag_scheme(grid, kernel, eps)
                assert scheme.moves == moves
                assert [g[:3] for g in scheme.groups] == [g[:3] for g in groups]
                for got, expect in zip(scheme.groups, groups):
                    assert got[3].tobytes() == expect[3].tobytes()
                    assert got[4].tobytes() == expect[4].tobytes()
                reference = copy.copy(scheme)
                reference.groups, reference.moves = groups, moves
                dzdt, outflux = scheme.rhs(values)
                expect_dzdt, expect_out = reference.rhs(values)
                assert dzdt.tobytes() == expect_dzdt.tobytes()
                assert outflux == expect_out

    @pytest.mark.parametrize("model, eps", [("sce", None), ("ohs", None), ("generalized", 0.5),
                                            ("generalized", 2.0**-10)])
    def test_scheme_build_sorts_nothing(self, monkeypatch, model, eps):
        # the lag groups are runs of monotone offsets: a sort would only
        # fault numpy's sort code into every run
        grid = make_grid(100.0, 27)
        calls = [(make_rhs(model, kernel, eps), random_density(grid, np.random.default_rng(89)))
                     for kernel in kernel_trio() + [high_rank_kernel()]]

        def refuse(*args, **kwargs):
            raise AssertionError("the scheme build sorted")

        for name in ("unique", "sort", "argsort"):
            monkeypatch.setattr(np, name, refuse)
        for rhs, density in calls:
            dzdt, outflux = rhs(density)
            assert np.all(np.isfinite(dzdt)) and np.isfinite(outflux)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.floats(1.5, 100.0),
        cpd=st.integers(4, 32),
        terms=st.integers(4, 24),
        eps=st.one_of(st.sampled_from([0.0, 2.0**-20]),
                      st.floats(0.0, 1.0, exclude_min=True)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_power_sum_matches_dense_and_brute_force(self, n, cpd, terms, eps, seed):
        # each factor pair is its own convolution per lag group: a rank well
        # above the stock families' must sum as the dense table does
        assume(2 <= round(2.0 * cpd * np.log10(n)) <= 40)
        grid = make_grid(n, cpd)
        rng = np.random.default_rng(seed)
        kernel = random_power_sum(rng, terms)
        values = rng.random(grid.size)
        (dz_dense, out_dense), (dz_lag, out_lag), gross = dense_and_lag(
            grid, kernel, eps, values)
        assert np.all(np.abs(dz_lag - dz_dense) * grid.widths <= 1e-12 * gross)
        assert abs(out_lag - out_dense) <= 1e-12 * out_dense
        if eps >= 2.0**-6:
            # the brute force removes and re-deposits big partners at K / eps
            expect, ledger = brute_force_generalized(grid, kernel, eps, values)
            assert np.all(np.abs(dz_lag - expect) * grid.widths <= 1e-12 * gross.max())
            assert out_lag == pytest.approx(ledger, rel=1e-12, abs=1e-300)


class TestMakeRhs:
    @pytest.mark.parametrize("model, eps", [("sce", None), ("generalized", 0.3), ("ohs", None)])
    def test_scheme_built_once_per_callable(self, monkeypatch, const_kernel, exp_density,
                                            model, eps):
        real = operators.LagScheme
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(operators, "LagScheme", counting)
        rhs = make_rhs(model, const_kernel, eps)
        traj = evolve(exp_density, rhs, [0.1, 0.2])
        assert len(traj) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("model, eps", [("sce", 1.0), ("generalized", 0.3), ("ohs", 0.0)])
    def test_returns_the_schemes_pair(self, grid30, model, eps):
        d = random_density(grid30, np.random.default_rng(59))
        for kernel in kernel_trio():
            dzdt, outflux = make_rhs(model, kernel, eps)(d)
            expect, expect_out = lag_scheme(grid30, kernel, eps).rhs(d.values)
            assert np.array_equal(dzdt, expect) and outflux == expect_out

    def test_second_grid_is_config_error(self, grid30, const_kernel):
        rhs = make_rhs("generalized", const_kernel, 0.3)
        rhs(NumberDensity(grid30, np.ones(grid30.size)))
        other = make_grid(30.0, 8)
        with pytest.raises(ConfigError, match="make one per grid"):
            rhs(NumberDensity(other, np.ones(other.size)))

    def test_sce_is_the_eps_one_pair_scheme(self, grid30):
        rng = np.random.default_rng(47)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            sce_dz, sce_out = make_rhs("sce", kernel)(d)
            gen_dz, gen_out = make_rhs("generalized", kernel, 1.0)(d)
            assert np.array_equal(sce_dz, gen_dz)
            assert sce_out == gen_out

    def test_sce_dense_path_matches_oracle(self):
        grid = make_grid(8.0, 6)
        kernel = high_rank_kernel()
        rng = np.random.default_rng(53)
        for _ in range(5):
            d = random_density(grid, rng)
            dzdt, outflux = make_rhs("sce", kernel)(d)
            ref_dz, ref_out = smoluchowski_rhs(d, kernel)
            scale = max(np.max(np.abs(ref_dz)), 1e-300)
            assert np.max(np.abs(dzdt - ref_dz)) <= 1e-12 * scale
            assert outflux == pytest.approx(ref_out, rel=1e-12, abs=1e-300)

    def test_bad_model_and_eps_rejected_before_any_density(self, const_kernel):
        with pytest.raises(ConfigError):
            make_rhs("bogus", const_kernel)
        with pytest.raises(ConfigError):
            make_rhs("generalized", const_kernel)
        for eps in (1.5, -0.1, float("nan")):
            with pytest.raises(DomainError):
                make_rhs("generalized", const_kernel, eps)


class TestSceRhs:
    def test_zero_density(self, grid30, const_kernel):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        dzdt, _ = make_rhs("sce", const_kernel)(d)
        assert np.all(dzdt == 0.0)

    def test_monodisperse_hand_computation(self):
        # single occupied cell: death rate zeta0^2 * dx0 in that cell,
        # birth appears in the cell containing 2 mu0
        grid = make_grid(10.0, 8)
        kernel = ConstantKernel(1.0)
        d = point_mass(grid, 2.0)
        c = cell_of(grid, 2.0)
        z0 = d.values[c]
        dzdt, _ = make_rhs("sce", kernel)(d)
        assert dzdt[c] == pytest.approx(-z0 * z0 * grid.widths[c], rel=1e-12)
        target = cell_of(grid, 2.0 * grid.centers[c])
        birth_cells = np.nonzero(dzdt > 0.0)[0]
        assert len(birth_cells) in (1, 2)
        assert target in birth_cells or target + 1 in birth_cells
        # deposited number: half the collision rate (diagonal symmetry factor)
        pair_rate = z0 * grid.widths[c] * z0 * grid.widths[c]
        born = np.sum(dzdt[birth_cells] * grid.widths[birth_cells])
        assert born == pytest.approx(0.5 * pair_rate, rel=1e-12)

    def test_number_moment_closed_form(self, grid30, const_kernel, exp_density):
        dzdt, _ = make_rhs("sce", const_kernel)(exp_density)
        m0 = weighted_norm(exp_density, "one")
        total = np.sum(dzdt * grid30.widths)
        assert total == pytest.approx(-0.5 * m0 * m0, rel=1e-10)

    def test_number_moment_nonpositive(self, grid30):
        rng = np.random.default_rng(43)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            dzdt, _ = make_rhs("sce", kernel)(d)
            assert np.sum(dzdt * grid30.widths) <= 0.0

    def test_mass_neutrality(self, grid30):
        rng = np.random.default_rng(19)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            dzdt, outflux = make_rhs("sce", kernel)(d)
            drift = np.sum(grid30.centers * dzdt * grid30.widths) + outflux
            scale = np.sum(grid30.centers * np.abs(dzdt) * grid30.widths)
            assert abs(drift) <= 1e-10 * max(scale, 1e-300)


class TestOhs:
    def test_zero_density(self, grid30, const_kernel):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        dzdt, _ = make_rhs("ohs", const_kernel)(d)
        assert np.all(dzdt == 0.0)

    def test_velocity_zero_density(self, grid30, const_kernel):
        d = NumberDensity(grid30, np.zeros(grid30.size))
        assert ohs_velocity(d, const_kernel, 5) == 0.0

    def test_velocity_monodisperse(self):
        grid = make_grid(10.0, 8)
        kernel = ConstantKernel(1.0)
        d = point_mass(grid, 1.0)
        c = cell_of(grid, 1.0)
        # edges strictly above the occupied cell see the full mass below
        assert ohs_velocity(d, kernel, c + 1) == pytest.approx(1.0, rel=1e-12)
        assert ohs_velocity(d, kernel, grid.size - 1) == pytest.approx(1.0, rel=1e-12)
        # first cell: no smaller partners
        assert ohs_velocity(d, kernel, 0) == 0.0

    def test_velocity_nonnegative(self, grid30):
        rng = np.random.default_rng(23)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            assert np.all(ohs_velocities(d, kernel) >= 0.0)

    def test_number_moment_double_sum(self, grid30):
        # interior number change equals -sum_{j<=i} K_ij z_i z_j dx_i dx_j,
        # the diagonal at weight 1/2, plus the boundary number flux
        rng = np.random.default_rng(29)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            dzdt, _ = make_rhs("ohs", kernel)(d)
            x, dx = grid30.centers, grid30.widths
            zd = d.values * dx
            K = np.asarray(kernel.eval(x[:, None], x[None, :]))
            lower = np.tril(K) - 0.5 * np.diag(np.diag(K))
            death = np.sum(lower * np.outer(zd, zd))
            eaten = lower @ (x * zd)
            boundary = d.values[-1] * eaten[-1] * dx[-1] / (grid30.n - x[-1])
            total = np.sum(dzdt * dx)
            assert total == pytest.approx(-death - boundary, rel=1e-10)

    def test_number_law_exact(self, grid30):
        # d/dt M0 = -1/2 zd^T K zd minus the number flux through the top
        # edge, which is outflux / n: mass leaves at size n
        rng = np.random.default_rng(30)
        x, dx = grid30.centers, grid30.widths
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            dzdt, outflux = make_rhs("ohs", kernel)(d)
            zd = d.values * dx
            K = np.asarray(kernel.eval(x[:, None], x[None, :]))
            total = np.sum(dzdt * dx)
            boundary = outflux / grid30.n
            assert total == pytest.approx(-0.5 * zd @ K @ zd - boundary, rel=1e-12)
            if kernel.family == "constant":
                m0 = np.sum(zd)
                assert total == pytest.approx(-0.5 * m0 * m0 - boundary, rel=1e-12)

    def test_mass_ledger_exact(self, grid30):
        rng = np.random.default_rng(31)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            dzdt, outflux = make_rhs("ohs", kernel)(d)
            drift = np.sum(grid30.centers * dzdt * grid30.widths) + outflux
            scale = np.sum(grid30.centers * np.abs(dzdt) * grid30.widths)
            assert abs(drift) <= 1e-10 * max(scale, 1e-300)

    def test_sign_structure(self, grid30, const_kernel):
        rng = np.random.default_rng(37)
        vals = rng.random(grid30.size)
        vals[::4] = 0.0
        d = NumberDensity(grid30, vals)
        dzdt, _ = make_rhs("ohs", const_kernel)(d)
        assert np.all(dzdt[vals == 0.0] >= 0.0)

    def test_number_moment_nonpositive(self, grid30):
        rng = np.random.default_rng(41)
        for kernel in kernel_trio():
            d = random_density(grid30, rng)
            dzdt, _ = make_rhs("ohs", kernel)(d)
            assert np.sum(dzdt * grid30.widths) <= 0.0


class TestFactoredOhs:
    # OHS is the eps = 0 pair scheme; the dense triangles are the oracle
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.floats(1.5, 1000.0),
        cpd=st.integers(4, 256),
        family=st.integers(0, 2),
        occupied=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_dense(self, n, cpd, family, occupied, seed):
        assume(2 <= round(2.0 * cpd * np.log10(n)) <= 512)
        grid = make_grid(n, cpd)
        kernel = kernel_trio()[family]
        rng = np.random.default_rng(seed)
        values = rng.random(grid.size) * (rng.random(grid.size) < occupied)
        dzdt, outflux = make_rhs("ohs", kernel)(NumberDensity(grid, values))
        expect, expect_out, gross = dense_ohs(grid, kernel, values)
        assert np.all(np.abs(dzdt - expect) * grid.widths <= 1e-12 * gross)
        assert abs(outflux - expect_out) <= 1e-12 * expect_out

    def test_memory_is_linear_in_cells(self):
        grid = make_grid(100.0, 512)
        assert grid.size == 2048
        for kernel in kernel_trio():
            scheme = lag_scheme(grid, kernel, 0.0)
            assert not scheme.groups
            arrays = [a for a in vars(scheme).values() if isinstance(a, np.ndarray)]
            assert arrays and all(a.size <= 2 * grid.size for a in arrays)


class TestOhsLimit:
    # below sqrt(r) - 1 every product of a pair lands before the next pivot
    # (for the top cell, the domain end n), and the pair scheme is the OHS
    # quadrature: the big particle moves on at rate K x_j / gap, the small
    # one dies, the self-pair counts once
    def test_pair_scheme_equals_ohs(self):
        grid = make_grid(8.0, 6)
        limit = np.sqrt(grid.ratio()) - 1.0
        rng = np.random.default_rng(61)
        for kernel in kernel_trio() + [high_rank_kernel()]:
            values = rng.random(grid.size)
            expect, expect_out, gross = dense_ohs(grid, kernel, values)
            for eps in (0.0, 0.99 * limit, 2.0**-8):
                dzdt, outflux = lag_scheme(grid, kernel, eps).rhs(values)
                assert np.all(np.abs(dzdt - expect) * grid.widths <= 1e-12 * gross)
                assert outflux == pytest.approx(expect_out, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.floats(1.5, 1000.0),
        cpd=st.integers(4, 128),
        family=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_members_below_the_limit_are_eps_zero_bit_for_bit(self, n, cpd, family, seed):
        assume(2 <= round(2.0 * cpd * np.log10(n)) <= 256)
        grid = make_grid(n, cpd)
        kernel = (kernel_trio() + [high_rank_kernel()])[family]
        values = np.random.default_rng(seed).random(grid.size)
        dzdt, outflux = lag_scheme(grid, kernel, 0.0).rhs(values)
        for eps in (0.99 * (np.sqrt(grid.ratio()) - 1.0), 2.0**-10):
            assert computed_eps("generalized", eps, grid.ratio()) == 0.0
            member, member_out = lag_scheme(grid, kernel, eps).rhs(values)
            assert np.array_equal(member, dzdt)
            assert member_out == outflux


    def test_computed_eps(self):
        # the eps a run computes: runs that compute the same eps on one grid
        # are one run, which the studies solve once
        ratio = make_grid(8.0, 6).ratio()
        limit = np.sqrt(ratio) - 1.0
        assert computed_eps("sce", None, ratio) == 1.0
        assert computed_eps("ohs", None, ratio) == 0.0
        assert computed_eps("generalized", 1.0, ratio) == 1.0
        assert computed_eps("generalized", limit, ratio) == limit
        assert computed_eps("generalized", 0.99 * limit, ratio) == 0.0
        with pytest.raises(ConfigError, match="requires eps"):
            computed_eps("generalized", None, ratio)
        with pytest.raises(DomainError, match="eps must lie in"):
            computed_eps("generalized", 1.5, ratio)
        with pytest.raises(ConfigError, match="unknown model"):
            computed_eps("smoluchowski", None, ratio)


class TestEpsUniformClosure:
    # the 1/eps factor rides only on pairs whose product leaves the big
    # partner's bracket, so closure stays at rounding as eps -> 0
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.floats(1.5, 1000.0),
        cpd=st.integers(4, 64),
        family=st.integers(0, 3),
        eps=st.sampled_from([2.0**-20, 2.0**-40, 0.0]),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_ledger_closure_at_rounding(self, n, cpd, family, eps, scale, seed):
        assume(2 <= round(2.0 * cpd * np.log10(n)) <= 256)
        grid = make_grid(n, cpd)
        kernel = (kernel_trio() + [high_rank_kernel()])[family]
        d = random_density(grid, np.random.default_rng(seed), scale)
        dzdt, outflux = make_rhs("generalized", kernel, eps)(d)
        x, dx = grid.centers, grid.widths
        drift = np.sum(x * dzdt * dx) + outflux
        gross = np.sum(x * np.abs(dzdt) * dx) + outflux
        assert abs(drift) <= 1e-15 * gross


def memory_guard_kernels():
    return [ConstantKernel(1.0), high_rank_kernel()]


class TestDenseMemoryGuard:
    # ~2e5 cells: at eps = 1/2 and 1 the pair band would hold ~1e9 pairs,
    # so the scheme must refuse before allocating it
    @pytest.mark.parametrize("model, eps", [("sce", None), ("generalized", 0.5)])
    def test_oversized_dense_table_raises(self, model, eps):
        grid = make_grid(10.0, 100_000)
        assert grid.size == 200_000
        for kernel in memory_guard_kernels():
            rhs = make_rhs(model, kernel, eps)
            with pytest.raises(ConfigError, match="physical memory"):
                rhs(NumberDensity(grid, np.zeros(grid.size)))

    @pytest.mark.parametrize("cells_per_decade", [256, 1024])  # N = 1024, 4096
    @pytest.mark.parametrize("eps", [0.0, 0.25, 1.0])
    def test_estimate_bounds_build_and_one_call(self, cells_per_decade, eps):
        # at eps = 0 the band holds only N pairs and the per-cell arrays dominate
        grid = make_grid(100.0, cells_per_decade)
        values = np.random.default_rng(67).random(grid.size)
        for base in (ConstantKernel(1.0), AdditiveKernel()):
            factors = base.factors(grid.centers)
            tracemalloc.start()
            try:
                scheme = LagScheme(grid, factors, eps)
                scheme.rhs(values)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rank = scheme.f.shape[0]
            assert peak <= operators._scheme_bytes(scheme.m_idx.size, rank, grid.size)

    def test_factored_ohs_is_not_limited(self):
        # at eps = 0 the band holds the top cell's N pairs
        grid = make_grid(10.0, 100_000)
        for kernel in memory_guard_kernels():
            dzdt, outflux = make_rhs("ohs", kernel)(NumberDensity(grid, np.zeros(grid.size)))
            assert np.all(dzdt == 0.0) and outflux == 0.0


class TestOperatorProperties:
    # hypothesis-driven forms of the structural invariants

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), eps=st.floats(0.01, 1.0))
    def test_neutrality_random_densities(self, seed, eps):
        grid = make_grid(12.0, 6)
        kernel = ConstantKernel(1.0)
        rng = np.random.default_rng(seed)
        d = NumberDensity(grid, rng.random(grid.size) * rng.uniform(0.1, 5.0))
        dzdt, outflux = make_rhs("generalized", kernel, eps)(d)
        x, dx = grid.centers, grid.widths
        drift = np.sum(x * dzdt * dx) + outflux
        scale = np.sum(x * np.abs(dzdt) * dx) + abs(outflux) + 1e-300
        assert abs(drift) <= 1e-11 * scale

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), eps=st.floats(0.01, 1.0))
    def test_number_decreases_random_densities(self, seed, eps):
        grid = make_grid(12.0, 6)
        kernel = ConstantKernel(1.0)
        rng = np.random.default_rng(seed)
        d = NumberDensity(grid, rng.random(grid.size))
        for dzdt, _ in (
            make_rhs("generalized", kernel, eps)(d),
            make_rhs("sce", kernel)(d),
            make_rhs("ohs", kernel)(d),
        ):
            assert np.sum(dzdt * grid.widths) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_eps_one_equivalence_random(self, seed):
        grid = make_grid(12.0, 6)
        kernel = ConstantKernel(1.0)
        rng = np.random.default_rng(seed)
        d = NumberDensity(grid, rng.random(grid.size))
        gen_dz, _ = make_rhs("generalized", kernel, 1.0)(d)
        sce_dz, _ = smoluchowski_rhs(d, kernel)
        scale = max(np.max(np.abs(sce_dz)), 1e-300)
        assert np.max(np.abs(gen_dz - sce_dz)) <= 1e-12 * scale


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), which=st.integers(0, 2))
    def test_sce_is_generalized_eps_one_bit_for_bit(self, seed, which):
        # validate reports one M0 run for its sce and generalized_eps1 rows
        grid = make_grid(12.0, 6)
        kernel = kernel_trio()[which]
        rng = np.random.default_rng(seed)
        d = random_density(grid, rng, rng.uniform(0.1, 5.0))
        sce_dz, sce_out = make_rhs("sce", kernel)(d)
        gen_dz, gen_out = make_rhs("generalized", kernel, 1.0)(d)
        assert np.array_equal(sce_dz, gen_dz)
        assert sce_out == gen_out

