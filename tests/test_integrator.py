import dataclasses

import numpy as np
import pytest

from gencoag import (
    ConstantKernel,
    DomainError,
    DtPolicy,
    ExponentialProfile,
    NumberDensity,
    StiffnessError,
    evolve,
    initial_dt_heuristic,
    make_grid,
    make_rhs,
    sample_initial,
    step,
    truncate,
    weighted_norm,
)


@pytest.fixture
def setup():
    grid = make_grid(30.0, 16)
    kernel = truncate(ConstantKernel(1.0), 30.0)
    density = sample_initial(ExponentialProfile(), grid)
    return grid, kernel, density


class TestStep:
    def test_zero_density(self, setup):
        grid, kernel, _ = setup
        d = NumberDensity(grid, np.zeros(grid.size))
        out, stats = step(d, make_rhs("sce", kernel), 0.5)
        assert np.all(out.values == 0.0)
        assert stats.rejections == 0 and stats.clipped_mass == 0.0 and stats.outflux == 0.0

    def test_riccati_first_order(self, setup):
        # one RK4 step: M0 drop matches the Riccati slope to O(dt^2)
        grid, kernel, density = setup
        dt = 1e-3
        m0 = weighted_norm(density, "one")
        out, stats = step(density, make_rhs("sce", kernel), dt)
        drop = m0 - weighted_norm(out, "one")
        assert drop == pytest.approx(0.5 * m0 * m0 * dt, rel=1e-3)
        assert stats.dt == dt

    def test_rejection_cascade_raises(self, setup):
        grid, kernel, density = setup
        with pytest.raises(StiffnessError) as err:
            step(density, make_rhs("sce", kernel), 1e9, max_shrink=3)
        assert err.value.dt is not None

    def test_huge_dt_eventually_accepted_with_shrink_budget(self, setup):
        grid, kernel, density = setup
        out, stats = step(density, make_rhs("sce", kernel), 1e3, max_shrink=20)
        assert stats.rejections > 0
        assert stats.dt < 1e3
        assert np.all(out.values >= 0.0)

    def test_invalid_dt(self, setup):
        grid, kernel, density = setup
        with pytest.raises(DomainError):
            step(density, make_rhs("sce", kernel), 0.0)


class TestEvolve:
    def test_zero_horizon(self, setup):
        grid, kernel, density = setup
        traj = evolve(density, make_rhs("sce", kernel), 0.0, DtPolicy(dt=0.1))
        assert len(traj) == 1 and traj[0].time == 0.0

    def test_riccati_horizon_one(self, setup):
        grid, kernel, density = setup
        d = density.replace(values=density.values / weighted_norm(density, "one"))
        pol = DtPolicy(mode="adaptive", dt=1e-3)
        traj = evolve(d, make_rhs("sce", kernel), 1.0, pol, [1.0])
        m0 = weighted_norm(traj[-1], "one")
        assert abs(m0 - 2.0 / 3.0) <= 1e-3 * (2.0 / 3.0)

    def test_l1_never_increases(self, setup):
        grid, kernel, density = setup
        pol = DtPolicy(mode="adaptive", dt=1e-3)
        traj = evolve(density, make_rhs("generalized", kernel, 0.3), 1.0, pol,
                      np.linspace(0.1, 1.0, 10))
        norms = [weighted_norm(s, "one") for s in traj]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_snapshots_land_exactly(self, setup):
        grid, kernel, density = setup
        stops = [0.1, 0.25, 0.5]
        pol = DtPolicy(mode="adaptive", dt=1e-3)
        traj = evolve(density, make_rhs("sce", kernel), 0.5, pol, stops)
        assert np.array_equal(traj.times, [0.0] + stops)

    def test_mass_ledger_closure(self, setup):
        grid, kernel, density = setup
        pol = DtPolicy(mode="adaptive", dt=1e-3)
        for model, eps in (("sce", None), ("generalized", 0.25), ("ohs", None)):
            traj = evolve(density, make_rhs(model, kernel, eps), 1.0, pol, [0.5, 1.0])
            m1 = np.array([weighted_norm(s, "mass") for s in traj])
            closure = m1 + np.asarray(traj.outflux) + np.asarray(traj.clipped) - m1[0]
            assert np.max(np.abs(closure)) <= 1e-8 * m1[0]

    def test_nonnegative_snapshots(self, setup):
        grid, kernel, density = setup
        pol = DtPolicy(mode="adaptive", dt=1e-2)
        traj = evolve(density, make_rhs("generalized", kernel, 0.01), 0.5, pol, [0.5])
        for s in traj:
            assert np.all(s.values >= 0.0)

    def test_rk4_order_on_m0(self, setup):
        # fixed-dt M0 error against the Riccati closed form drops ~16x per halving
        grid, kernel, density = setup
        d = density.replace(values=density.values / weighted_norm(density, "one"))
        rhs = make_rhs("sce", kernel)

        def m0_error(dt):
            pol = DtPolicy(mode="fixed", dt=dt)
            traj = evolve(d, rhs, 0.5, pol, [0.5])
            # subtract the boundary-truncation bias shared by all dt
            return weighted_norm(traj[-1], "one") - 2.0 / (2.0 + 0.5)

        e1, e2 = m0_error(0.05), m0_error(0.025)
        # bias cancels in the difference of consecutive refinements
        e4 = m0_error(0.0125)
        r1 = abs(e1 - e2) / abs(e2 - e4)
        assert 10.0 <= r1 <= 24.0  # 4th order => ~16

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            DtPolicy(mode="bogus")
        with pytest.raises(DomainError):
            DtPolicy(safety=0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -1e-3])
    def test_policy_rejects_bad_dt(self, dt):
        with pytest.raises(DomainError):
            DtPolicy(dt=dt)

    def test_policy_fields(self):
        assert [f.name for f in dataclasses.fields(DtPolicy)] == [
            "mode", "dt", "safety", "max_shrink"]
        with pytest.raises(TypeError):
            DtPolicy(growth=2.0)

    def test_adaptive_growth_schedule(self, setup):
        # dt grows x1.5 after every 5 clean steps
        grid, kernel, density = setup
        dts = []
        evolve(density, make_rhs("sce", kernel), 0.02, DtPolicy(dt=1e-3),
               observers=[lambda t, d, stats: dts.append(stats.dt)])
        assert dts[:11] == [1e-3] * 5 + [1e-3 * 1.5] * 5 + [1e-3 * 1.5 * 1.5]

    def test_policy_zero_dt_selects_heuristic(self):
        assert DtPolicy(dt=0.0).dt == 0.0

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, setup, T):
        grid, kernel, density = setup
        with pytest.raises(DomainError):
            evolve(density, make_rhs("sce", kernel), T, DtPolicy(dt=0.1))

    def test_dt_heuristic_scale(self, setup):
        grid, kernel, density = setup
        dt0 = initial_dt_heuristic(kernel, density, eps=0.5, safety=0.8)
        norm = np.sum(density.values * grid.widths)
        expect = 0.8 / (kernel.sup_bound * 4.0 * norm)
        assert dt0 == pytest.approx(expect, rel=1e-12)
