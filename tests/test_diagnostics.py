import json

import numpy as np
import pytest

from conftest import high_rank_kernel, kernel_trio
from gencoag import (
    ConstantKernel,
    ExponentialProfile,
    SingularPowerProfile,
    SingularProductKernel,
    Trajectory,
    make_grid,
    sample_initial,
)
from gencoag import testfuncs
from gencoag.diagnostics import (
    DiagnosticsReport,
    _crossing_rates,
    _edge_velocity,
    _snap_to_edge,
    equicontinuity_modulus,
    mass_flux_identity,
    moment_monotonicity_check,
    moment_table,
    tail_flux_decay,
    theta_bound_check,
    uniform_integrability_check,
    psi1_moment_check,
    weak_form_residual,
)
from gencoag.experiments import run_model
from gencoag.gauges import build_gauge_from_tail, psi1_tail, psi2_tail
from oracles import (
    block_crossing_rates,
    cell_of,
    ohs_velocities,
    omega_identity,
    point_mass,
    smooth_library,
    smooth_one,
    smooth_square,
    weighted_norm,
)


def theta_of(density, sigma):
    """Theta, the initial weighted norm that the bound checks are given."""
    return weighted_norm(density, "Y_norm", sigma)


def tail_fluxes(traj, lambdas, kernel):
    """The tail fluxes of ``traj`` past ``lambdas``, from their flux identities."""
    return tail_flux_decay([mass_flux_identity(traj, lam, kernel) for lam in lambdas], traj.times)


def psi2_series(traj, gauge2, sigma):
    """The moment table's Psi2int column."""
    return moment_table(traj, sigma, gauge2, gauge2)["Psi2int"]


@pytest.fixture(scope="module")
def const_run():
    grid = make_grid(20.0, 16)
    kernel = ConstantKernel(1.0)
    density = sample_initial(ExponentialProfile(), grid)
    traj = run_model("generalized", kernel, grid, density, 1.0, np.linspace(0.1, 1.0, 10),
                     eps=0.5)
    return grid, kernel, density, traj


class TestIdentity:
    def test_mass_omega_vanishes(self):
        # exact cancellation; dyadic inputs keep it exact in floating point
        om = testfuncs.mass()
        for eps in (1.0, 0.25, 2.0**-12):
            for nu, tau in ((1.0, 0.5), (8.0, 2.0), (128.0, 1.0)):
                assert omega_identity(om, "omega_eps", nu, tau, eps) == 0.0
        # non-dyadic inputs cancel to rounding
        assert abs(omega_identity(om, "omega_eps", 1.0, 0.5, 3e-4)) < 1e-12

    def test_constant_omega(self):
        om = smooth_one()
        assert omega_identity(om, "omega_1", 2.0, 1.0) == -1.0
        assert omega_identity(om, "omega_tilde", 2.0, 1.0) == -1.0
        assert omega_identity(om, "omega_eps", 2.0, 1.0, 0.3) == -1.0

    def test_square_closed_form(self):
        # omega = mu^2, eps = 1e-4, (nu, tau) = (2, 1):
        # omega_eps = ((2 + 1e-4)^2 - 4) / 1e-4 - 1 ~ 3.0001, omega_1 = 3
        om = smooth_square()
        w_eps = omega_identity(om, "omega_eps", 2.0, 1.0, 1e-4)
        w_1 = omega_identity(om, "omega_1", 2.0, 1.0)
        assert w_1 == 3.0
        assert w_eps == pytest.approx(3.0001, rel=1e-9)
        assert w_eps - w_1 == pytest.approx(1e-4, rel=1e-7)  # eps tau^2

    def test_square_dyadic_exact(self):
        # dyadic inputs make eps tau^2 exact in floating point
        om = smooth_square()
        for k in (2, 5, 10, 20):
            eps = 2.0 ** (-k)
            for nu, tau in ((2.0, 1.0), (4.0, 0.5), (8.0, 2.0)):
                diff = omega_identity(om, "omega_eps", nu, tau, eps) - omega_identity(
                    om, "omega_1", nu, tau
                )
                assert diff == eps * tau * tau

    def test_eps_one_is_tilde_bitwise(self):
        rng = np.random.default_rng(3)
        for om in smooth_library():
            for _ in range(200):
                nu = float(np.exp(rng.uniform(-3, 3)))
                tau = nu * float(rng.uniform(0.01, 0.99))
                assert omega_identity(om, "omega_eps", nu, tau, 1.0) == omega_identity(
                    om, "omega_tilde", nu, tau
                )

    def test_omega_2_eps_scaling(self):
        om = testfuncs.square()
        eps = 0.125
        w = omega_identity(om, "omega_eps", 3.0, 1.0, eps)
        assert omega_identity(om, "omega_2_eps", 3.0, 1.0, eps) == eps * w

    def test_taylor_bound_library(self):
        rng = np.random.default_rng(7)
        for om in smooth_library():
            for _ in range(200):
                nu = float(np.exp(rng.uniform(-2, 3)))
                tau = nu * float(rng.uniform(0.01, 0.99))
                eps = float(rng.uniform(1e-4, 1.0))
                gap = abs(
                    omega_identity(om, "omega_eps", nu, tau, eps)
                    - omega_identity(om, "omega_1", nu, tau)
                )
                assert gap <= 0.5 * eps * tau * tau * om.sup_second * (1 + 1e-9) + 1e-12

    def test_truncated_linear_cases(self):
        # piecewise values of omega_eps for omega = min(mu, lam)
        lam = 4.0
        om = testfuncs.truncated_linear(lam)
        eps = 0.25
        # below the threshold and staying below: exact cancellation
        assert omega_identity(om, "omega_eps", 3.0, 1.0, eps) == 0.0
        # crossing the threshold: (lam - nu)/eps - tau
        nu, tau = 3.9, 1.0
        assert omega_identity(om, "omega_eps", nu, tau, eps) == pytest.approx(
            (lam - nu) / eps - tau, rel=1e-12
        )
        # above the threshold: -min(tau, lam)
        assert omega_identity(om, "omega_eps", 5.0, 1.0, eps) == -1.0
        assert omega_identity(om, "omega_eps", 10.0, 5.0, eps) == -4.0  # tau > lam

    def test_domain_guards(self):
        om = testfuncs.square()
        with pytest.raises(Exception):
            omega_identity(om, "omega_1", 1.0, 2.0)  # tau >= nu
        with pytest.raises(Exception):
            omega_identity(om, "omega_eps", 1.0, 0.5)  # missing eps


class TestWeakFormResidual:
    def test_mass_omega_small(self, const_run):
        grid, kernel, density, traj = const_run
        res = weak_form_residual(traj, grid.centers, kernel, "generalized", 0.5)
        # boundary overflow at n=20 costs ~ e^-20; time quadrature ~ 1e-9
        assert np.max(res) <= 1e-6

    def test_zero_omega(self, const_run):
        grid, kernel, density, traj = const_run
        res = weak_form_residual(traj, np.zeros(grid.size), kernel, "generalized", 0.5)
        assert np.all(res == 0.0)

    def test_stacked_omegas_match_single_calls(self, const_run):
        grid, kernel, density, traj = const_run
        omegas = np.array([np.ones(grid.size), grid.centers, testfuncs.square()(grid.centers)])
        stacked = weak_form_residual(traj, omegas, kernel, "generalized", 0.5)
        assert stacked.shape == (3, len(traj))
        for om, row in zip(omegas, stacked):
            single = weak_form_residual(traj, om, kernel, "generalized", 0.5)
            scale = max(abs(np.sum(om * s.values * grid.widths)) for s in traj)
            assert np.max(np.abs(row - single)) <= 1e-13 * scale

    def test_constant_omega_dense_snapshots(self):
        grid = make_grid(20.0, 12)
        kernel = ConstantKernel(1.0)
        density = sample_initial(ExponentialProfile(), grid)
        snaps = np.arange(1, 201) * 1e-3
        traj = run_model("sce", kernel, grid, density, 0.2, snaps)
        res = weak_form_residual(traj, np.ones(grid.size), kernel, "sce")
        assert np.max(res) <= 1e-6  # trapezoid-in-time error dominates


class TestAffineTailStudy:
    def test_truncated_linear_residual_reported(self):
        # affine-growth test function realized on the finite domain: the
        # residual is reported for study across n, not gated pass/fail
        om = testfuncs.truncated_linear(6.0)
        out = {}
        for n in (10.0, 20.0):
            grid = make_grid(n, 16)
            kernel = ConstantKernel(1.0)
            density = sample_initial(ExponentialProfile(), grid)
            traj = run_model("generalized", kernel, grid, density, 0.5,
                             np.linspace(0.1, 0.5, 5), eps=0.5)
            res = weak_form_residual(traj, om(grid.centers), kernel,
                                     "generalized", 0.5)
            out[n] = float(np.max(res))
        assert all(np.isfinite(v) for v in out.values())
        assert max(out.values()) < 1e-2  # sane magnitude on both domains


class TestThetaBound:
    def test_initial_margin_zero(self, const_run):
        grid, kernel, density, traj = const_run
        single = Trajectory(grid, [0.0], density.values[None], [0.0], [0.0])
        v = theta_bound_check(single, 0.0)
        assert v.passed and v.margin == 0.0

    def test_run_passes_with_margin(self, const_run):
        grid, kernel, density, traj = const_run
        v = theta_bound_check(traj, 0.0)
        assert v.passed and v.margin > 0.0

    def test_corrupted_trajectory_fails(self, const_run):
        grid, kernel, density, traj = const_run
        bad = Trajectory(grid, [0.0, 1.0], np.stack([density.values, density.values * 1.5]),
                         [0.0] * 2, [0.0] * 2)
        v = theta_bound_check(bad, 0.0)
        assert not v.passed and v.margin < 0.0


class TestGaugeBounds:
    def test_psi1_bound(self, const_run):
        grid, kernel, density, traj = const_run
        gauge = build_gauge_from_tail(*psi1_tail(density))
        v = psi1_moment_check(traj.moments(gauge.psi(grid.centers)), gauge, 1.0, 1.0,
                              theta_of(density, 0.0))
        assert v.passed
        # Gamma1 is one summand of the bound, so t=0 passes by construction
        assert v.details["gamma1"] <= v.bound

    def test_psi2_bound(self):
        grid = make_grid(20.0, 16)
        from gencoag import SingularProductKernel

        kernel = SingularProductKernel(k=1.0, sigma=0.2)
        density = sample_initial(ExponentialProfile(), grid)
        traj = run_model("generalized", kernel, grid, density, 1.0, (0.5, 1.0), eps=0.5)
        gauge2 = build_gauge_from_tail(*psi2_tail(density, 0.2))
        v = uniform_integrability_check(psi2_series(traj, gauge2, 0.2), kernel.k, kernel.eta,
                                        1.0, theta_of(density, 0.2))
        assert v.passed
        assert v.details["gamma2"] > 0.0
        assert v.bound >= max(v.details["bound_with_k"], v.details["bound_with_eta"])

    def test_psi2_infinite_eta_is_named_not_an_overflow(self, const_run):
        # simulate refuses such a kernel before its solve; a library caller
        # still gets a failed verdict that names the constant
        grid, kernel, density, traj = const_run
        gauge2 = build_gauge_from_tail(*psi2_tail(density, 0.1))
        v = uniform_integrability_check(psi2_series(traj, gauge2, 0.1), 1.0, np.inf, 1.0,
                                        theta_of(density, 0.1))
        assert not v.passed and v.bound == np.inf
        assert v.details["failure"] == (
            "eta = inf: the kernel lies outside the paper's class (check-kernel fails it)")

    def test_psi2_sigma_zero_degenerate(self, const_run):
        grid, kernel, density, traj = const_run
        gauge2 = build_gauge_from_tail(*psi2_tail(density, 0.0))
        v = uniform_integrability_check(psi2_series(traj, gauge2, 0.0), 1.0, 0.0, 1.0,
                                        theta_of(density, 0.0))
        assert v.passed  # h reduces to zeta itself, check stays well-defined

    def test_psi1_monodisperse_initial(self):
        # atomic data: Gamma1 = Psi1(x_c) * m / x_c, one summand of the
        # bound, so the t = 0 check holds by construction
        grid = make_grid(10.0, 8)
        d = point_mass(grid, 2.0)
        gauge = build_gauge_from_tail(*psi1_tail(d))
        single = Trajectory(grid, [0.0], d.values[None], [0.0], [0.0])
        v = psi1_moment_check(single.moments(gauge.psi(grid.centers)), gauge, 1.0, 1.0,
                              theta_of(d, 0.0))
        c = cell_of(grid, 2.0)
        expect = float(gauge.psi(grid.centers[c])) / grid.centers[c]
        assert v.details["gamma1"] == pytest.approx(expect, rel=1e-12)
        assert v.passed

    def test_moment_monotonicity(self, const_run):
        grid, kernel, density, traj = const_run
        gauge = build_gauge_from_tail(*psi1_tail(density))
        assert moment_monotonicity_check(moment_table(traj, 0.0, gauge, gauge)).passed


class TestMassFluxIdentity:
    def test_initial_time_zero(self, const_run):
        grid, kernel, density, traj = const_run
        out = mass_flux_identity(traj, grid.n / 2.0, kernel)
        assert out["residual"][0] == 0.0

    def test_lambda_n_reduces_to_ledger(self, const_run):
        grid, kernel, density, traj = const_run
        out = mass_flux_identity(traj, grid.n, kernel)
        m1 = np.array([weighted_norm(s, "mass") for s in traj])
        expect = np.abs((m1 - m1[0]) + np.asarray(traj.outflux))
        assert np.allclose(out["residual"], expect, atol=1e-15)

    @pytest.mark.parametrize("lam", [0.06, 0.5, 1.0, 10.0])
    def test_hoisted_edge_velocity(self, lam):
        # the kernel factors at one edge reproduce the N x N edge-kernel velocity
        grid = make_grid(20.0, 16)
        density = sample_initial(ExponentialProfile(), grid)
        kernels = [ConstantKernel(1.0), SingularProductKernel(k=1.0, sigma=0.2),
                   high_rank_kernel()]
        for kernel in kernels:
            traj = run_model("ohs", kernel, grid, density, 0.5, (0.25, 0.5))
            m = int(np.argmin(np.abs(grid.edges - lam)))
            for got, s in zip(_edge_velocity(traj, m, kernel), traj):
                expect = ohs_velocities(s, kernel)[m - 1]
                assert abs(got - expect) <= 1e-14 * abs(expect)

    def test_ohs_first_order_refinement(self):
        # lambda inside the support: residual is transport-discretization
        # limited and shrinks roughly first order
        kernel = ConstantKernel(1.0)
        resid = {}
        for cpd in (16, 32, 64):
            grid = make_grid(8.0, cpd)
            density = sample_initial(ExponentialProfile(), grid)
            traj = run_model("ohs", kernel, grid, density, 1.0,
                             np.linspace(0.1, 1.0, 10))
            out = mass_flux_identity(traj, 4.0, kernel)
            resid[cpd] = np.max(out["residual"])
        assert resid[32] < resid[16]
        assert resid[64] < 0.75 * resid[32]
        assert resid[32] / resid[64] > 1.5  # ~2 for first order

    def test_ohs_32cpd_relative_tolerance(self):
        kernel = ConstantKernel(1.0)
        grid = make_grid(8.0, 32)
        density = sample_initial(ExponentialProfile(), grid)
        traj = run_model("ohs", kernel, grid, density, 1.0, np.linspace(0.1, 1.0, 10))
        out = mass_flux_identity(traj, 4.0, kernel)
        m1 = weighted_norm(density, "mass")
        # lambda sits well inside the support here (harder than the n/2
        # reporting point, where the density is ~e^-10); first-order
        # transport error gives a few 1e-3 at 32 cpd
        assert np.max(out["residual"]) / m1 <= 5e-3


class TestTailFlux:
    def test_beyond_domain_zero(self, const_run):
        grid, kernel, density, traj = const_run
        out = tail_flux_decay([mass_flux_identity(traj, grid.n, kernel)], traj.times)
        assert out[0]["lambda"] == grid.n and out[0]["total"] == 0.0

    def test_monotone_decrease(self, const_run):
        grid, kernel, density, traj = const_run
        lams = [2.0, 5.0, 10.0]
        out = tail_fluxes(traj, lams, kernel)
        totals = [e["total"] for e in out]
        assert totals[0] >= totals[1] >= totals[2] >= 0.0
        for e in out:
            assert e["sigma1"] >= 0.0 and e["sigma2"] >= 0.0
        # exponential data decays much faster than 1/lambda
        assert totals[2] * lams[2] < totals[0] * lams[0]

    def test_finite_propagation_monodisperse(self):
        # low-mass pulse far below lambda: nothing has reached it yet
        grid = make_grid(20.0, 16)
        kernel = ConstantKernel(1.0)
        density = point_mass(grid, 0.5, 0.05)
        traj = run_model("ohs", kernel, grid, density, 0.2, (0.1, 0.2))
        out = tail_fluxes(traj, [10.0], kernel)
        assert out[0]["total"] <= 1e-12


class TestEquicontinuity:
    def test_constant_trajectory_zero(self, const_run):
        grid, kernel, density, traj = const_run
        frozen = Trajectory(grid, [0.0, 1.0], np.stack([density.values] * 2), [0.0] * 2, [0.0] * 2)
        om = testfuncs.bump(1.0, 5.0)
        v = equicontinuity_modulus(frozen, om, 0.0, 1.0, theta_of(density, 0.0))
        assert v.attained == 0.0 and v.passed

    def test_bump_bound_on_run(self, const_run):
        grid, kernel, density, traj = const_run
        for om in testfuncs.bump_library(grid):
            v = equicontinuity_modulus(traj, om, 0.0, 1.0, theta_of(density, 0.0))
            assert v.passed, (om.name, v.attained, v.bound)

    def test_sigma_zero_matches_unweighted(self, const_run):
        grid, kernel, density, traj = const_run
        om = testfuncs.bump(1.0, 5.0)
        v0 = equicontinuity_modulus(traj, om, 0.0, 1.0, theta_of(density, 0.0))
        # direct unweighted recomputation
        w = om(grid.centers) * grid.widths
        series = np.array([float(np.sum(w * s.values)) for s in traj])
        t = traj.times
        mod = max(
            abs(series[j] - series[i]) / (t[j] - t[i])
            for i in range(len(t))
            for j in range(i + 1, len(t))
        )
        assert v0.attained == pytest.approx(mod, rel=1e-12)

    @pytest.mark.parametrize("model, eps", [("sce", None), ("generalized", 0.3), ("ohs", None)])
    def test_consecutive_slopes_give_the_all_pairs_maximum(self, model, eps):
        grid = make_grid(20.0, 16)
        kernel = SingularProductKernel(k=1.0, sigma=0.2)
        density = sample_initial(SingularPowerProfile(0.3, 0.2), grid)
        traj = run_model(model, kernel, grid, density, 1.0,
                         (0.05, 0.1, 0.3, 0.35, 0.7, 0.72, 1.0), eps=eps)
        x, t = grid.centers, traj.times
        i, j = np.triu_indices(len(t), 1)
        for om in testfuncs.bump_library(grid) + [testfuncs.truncated_linear(5.0)]:
            # the old modulus: maximum over every snapshot pair
            series = traj.moments(x ** -0.2 * om(x))
            all_pairs = np.max(np.abs(series[j] - series[i]) / (t[j] - t[i]))
            v = equicontinuity_modulus(traj, om, 0.2, 1.0, theta_of(density, 0.2))
            assert all_pairs > 0.0
            assert v.attained == pytest.approx(all_pairs, rel=1e-13, abs=0.0)


def trapezoid_loop(times, series):
    return float(np.sum(0.5 * np.diff(times) * (series[:-1] + series[1:])))


def crossing_loop(traj, m, kernel):
    """Per-snapshot crossing rate: all, small partners below 1, the rest."""
    x = traj.grid.centers
    small1 = x[:m] < 1.0
    K = np.asarray(kernel.eval(x[m:][:, None], x[:m][None, :]))
    rows = []
    for s in traj:
        zd = s.values * traj.grid.widths
        contrib = K * np.outer(zd[m:], x[:m] * zd[:m])
        rows.append((contrib.sum(), contrib[:, small1].sum(), contrib[:, ~small1].sum()))
    return np.array(rows)


class TestSnapshotMatrix:
    """The matrix forms against the per-snapshot formulas they replaced."""

    def test_moment_table_bitwise(self, const_run):
        grid, kernel, density, traj = const_run
        sigma = 0.2
        gauge1 = build_gauge_from_tail(*psi1_tail(density))
        gauge2 = build_gauge_from_tail(*psi2_tail(density, sigma))
        x, dx = grid.centers, grid.widths
        expect = {
            "t": traj.times,
            "M_neg2sigma": [weighted_norm(s, "neg_two_sigma", sigma) for s in traj],
            "M_negsigma": [weighted_norm(s, "neg_sigma", sigma) for s in traj],
            "M0": [weighted_norm(s, "one") for s in traj],
            "M1": [weighted_norm(s, "mass") for s in traj],
            "Psi1": [float(np.sum(gauge1.psi(x) * s.values * dx)) for s in traj],
            "Psi2int": [float(np.sum(gauge2.psi(x ** (-sigma) * s.values) * dx)) for s in traj],
        }
        cols = moment_table(traj, sigma, gauge1, gauge2)
        assert list(cols) == list(expect)
        for name, series in expect.items():
            assert np.array_equal(cols[name], series), name

    @pytest.mark.parametrize("lam", [0.5, 2.0, 5.0, 10.0])
    def test_crossing_rates_match_outer_loop(self, const_run, lam):
        grid, kernel, density, traj = const_run
        m = _snap_to_edge(grid, lam)
        expect = crossing_loop(traj, m, kernel)
        rates = _crossing_rates(traj, m, kernel)
        small1 = grid.centers[:m] < 1.0
        got = np.stack([rates.sum(axis=1), rates[:, small1].sum(axis=1),
                        rates[:, ~small1].sum(axis=1)], axis=1)
        scale = expect[:, 0].max()
        assert scale > 0.0
        assert np.max(np.abs(got - expect)) <= 1e-13 * scale

    def test_factored_crossing_rates_match_the_block(self):
        # the three families and a five-term power sum, at every edge
        grid = make_grid(20.0, 16)
        rng = np.random.default_rng(71)
        traj = Trajectory(grid, np.arange(4.0), rng.random((4, grid.size)), [0.0] * 4, [0.0] * 4)
        for kernel in kernel_trio() + [high_rank_kernel()]:
            for m in range(1, grid.size):
                got = _crossing_rates(traj, m, kernel)
                expect = block_crossing_rates(traj, m, kernel)
                assert np.all(np.abs(got - expect) <= 1e-13 * expect)

    def test_snapshot_at_a_time_forms_equal_the_block_forms_bitwise(self):
        # the crossing rates and the psi2 series work one snapshot at a time,
        # and the flux identity's split sums views of the block, so that no
        # temporary outgrows the block; their bits are those of the
        # expressions over whole copies
        grid = make_grid(20.0, 16)
        rng = np.random.default_rng(72)
        traj = Trajectory(grid, np.arange(40.0), rng.random((40, grid.size)), [0.0] * 40,
                          [0.0] * 40)
        x, dx, values = grid.centers, grid.widths, traj.values
        zd = values * dx
        for kernel in kernel_trio():
            for m in range(1, grid.size):
                f = np.array([fr[m:] for fr, _ in kernel.factors(x)])
                g = np.array([gr[:m] for _, gr in kernel.factors(x)])
                block = np.einsum("kr,rj->kj", np.einsum("ki,ri->kr", zd[:, m:], f), g)
                block *= x[:m] * zd[:, :m]
                assert _crossing_rates(traj, m, kernel).tobytes() == block.tobytes()
                sides = (x[:m] < 1.0, x[:m] >= 1.0)  # row-major copies of the two sides
                split = np.stack([np.ascontiguousarray(block[:, side]).sum(axis=1)
                                  for side in sides], axis=1)
                got = mass_flux_identity(traj, grid.edges[m], kernel)["split"]
                assert got.tobytes() == split.tobytes()
        gauge = build_gauge_from_tail(*psi2_tail(traj[0], 0.2))
        block = np.sum(gauge.psi(x ** -0.2 * values) * dx, axis=-1)
        assert psi2_series(traj, gauge, 0.2).tobytes() == block.tobytes()

    def test_tail_split_matches_outer_loop(self, const_run):
        grid, kernel, density, traj = const_run
        lams = [0.5, 2.0, 5.0, 10.0]
        times = traj.times
        for lam, entry in zip(lams, tail_fluxes(traj, lams, kernel)):
            m = _snap_to_edge(grid, lam)
            ref = crossing_loop(traj, m, kernel)
            tol = 1e-13 * ref[:, 0].max() * times[-1]
            assert entry["lambda"] == grid.edges[m]
            assert abs(entry["sigma1"] - trapezoid_loop(times, ref[:, 1])) <= tol
            assert abs(entry["sigma2"] - trapezoid_loop(times, ref[:, 2])) <= tol
            assert entry["total"] == entry["sigma1"] + entry["sigma2"]

    @pytest.mark.parametrize("lam", [0.5, 2.0, 5.0, 10.0])
    def test_tail_integrand_is_flux_collision_integrand(self, const_run, lam):
        # the flux identity integrates collisions plus the advective edge
        # term; taking away the edge term must leave the tail total
        grid, kernel, density, traj = const_run
        m = _snap_to_edge(grid, lam)
        edge = np.array([grid.edges[m] * s.values[m - 1] * ohs_velocities(s, kernel)[m - 1]
                         for s in traj])
        times = traj.times
        collisions = -mass_flux_identity(traj, lam, kernel)["rhs"][-1] - trapezoid_loop(times, edge)
        total = tail_fluxes(traj, [lam], kernel)[0]["total"]
        scale = (crossing_loop(traj, m, kernel)[:, 0] + edge).max() * times[-1]
        assert abs(collisions - total) <= 1e-13 * scale


class TestReport:
    def test_round_trip_and_schema(self, const_run, tmp_path):
        grid, kernel, density, traj = const_run
        gauge1 = build_gauge_from_tail(*psi1_tail(density))
        gauge2 = build_gauge_from_tail(*psi2_tail(density, 0.0))
        report = DiagnosticsReport(
            model="generalized",
            eps=0.5,
            sigma=0.0,
            moments=moment_table(traj, 0.0, gauge1, gauge2),
            verdicts=[theta_bound_check(traj, 0.0)],
            weak_residuals={"one": weak_form_residual(traj, np.ones(grid.size), kernel, "generalized", 0.5)},
            flux_identities=[mass_flux_identity(traj, grid.n / 2, kernel)],
            tail_fluxes=tail_fluxes(traj, [grid.n / 2], kernel),
            ledger={"M1_initial": 1.0, "outflux_final": 0.0, "clipped_final": 0.0,
                    "max_closure_rel": 0.0},
        )
        path = tmp_path / "report.json"
        report.write_json(path)
        payload = json.loads(path.read_text())
        import jsonschema
        from importlib.resources import files

        schema = json.loads(files("gencoag").joinpath("schemas/report.schema.json").read_text())
        jsonschema.validate(payload, schema)
