import numpy as np
import pytest

from gencoag import (
    ConstantKernel,
    DomainError,
    ExponentialProfile,
    NumberDensity,
    StiffnessError,
    evolve,
    make_grid,
    make_rhs,
    sample_initial,
    weighted_norm,
)
from gencoag import integrator


@pytest.fixture
def setup():
    grid = make_grid(30.0, 16)
    kernel = ConstantKernel(1.0)
    density = sample_initial(ExponentialProfile(), grid)
    return grid, kernel, density


def _advance(density, rhs, dt):
    """One accepted step of the production stepper from ``density``, trial step dt."""
    f = integrator._stages(rhs, density.grid)
    first = f(density.values, density.time)
    out, stats, _ = integrator._advance(f, density, first, dt,
                                        integrator._weighted_l1(density.grid))
    return out, stats


class TestStep:
    def test_zero_density(self, setup):
        grid, kernel, _ = setup
        d = NumberDensity(grid, np.zeros(grid.size))
        out, stats = _advance(d, make_rhs("sce", kernel), 0.5)
        assert np.all(out.values == 0.0)
        assert stats.rejections == 0 and stats.clipped_mass == 0.0 and stats.outflux == 0.0

    def test_riccati_first_order(self, setup):
        # one RK4 step: M0 drop matches the Riccati slope to O(dt^2)
        grid, kernel, density = setup
        dt = 1e-3
        m0 = weighted_norm(density, "one")
        out, stats = _advance(density, make_rhs("sce", kernel), dt)
        drop = m0 - weighted_norm(out, "one")
        assert drop == pytest.approx(0.5 * m0 * m0 * dt, rel=1e-3)
        assert stats.dt == dt

    def test_rejection_cascade_raises(self, setup, monkeypatch):
        # every trial step leaves negative cells and is halved
        grid, kernel, density = setup
        monkeypatch.setattr(integrator, "MAX_SHRINK", 3)
        with pytest.raises(StiffnessError) as err:
            _advance(density, make_rhs("sce", kernel), 1e9)
        assert err.value.dt == 1e9 / 8  # the last dt tried

    def test_huge_dt_eventually_accepted_with_shrink_budget(self, setup):
        grid, kernel, density = setup
        out, stats = _advance(density, make_rhs("sce", kernel), 1e3)
        assert stats.rejections > 0
        assert stats.dt < 1e3
        assert np.all(out.values >= 0.0)


class TestEvolve:
    def test_zero_horizon(self, setup):
        grid, kernel, density = setup
        traj = evolve(density, make_rhs("sce", kernel), 0.0)
        assert len(traj) == 1 and traj[0].time == 0.0

    def test_riccati_horizon_one(self, setup):
        grid, kernel, density = setup
        d = density.replace(values=density.values / weighted_norm(density, "one"))
        traj = evolve(d, make_rhs("sce", kernel), 1.0, [1.0])
        m0 = weighted_norm(traj[-1], "one")
        assert abs(m0 - 2.0 / 3.0) <= 1e-3 * (2.0 / 3.0)

    def test_l1_never_increases(self, setup):
        grid, kernel, density = setup
        traj = evolve(density, make_rhs("generalized", kernel, 0.3), 1.0,
                      np.linspace(0.1, 1.0, 10))
        norms = [weighted_norm(s, "one") for s in traj]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_snapshots_land_exactly(self, setup):
        grid, kernel, density = setup
        stops = [0.1, 0.25, 0.5]
        traj = evolve(density, make_rhs("sce", kernel), 0.5, stops)
        assert np.array_equal(traj.times, [0.0] + stops)

    def test_mass_ledger_closure(self, setup):
        grid, kernel, density = setup
        for model, eps in (("sce", None), ("generalized", 0.25), ("ohs", None)):
            traj = evolve(density, make_rhs(model, kernel, eps), 1.0, [0.5, 1.0])
            m1 = np.array([weighted_norm(s, "mass") for s in traj])
            closure = m1 + np.asarray(traj.outflux) + np.asarray(traj.clipped) - m1[0]
            assert np.max(np.abs(closure)) <= 1e-8 * m1[0]

    def test_nonnegative_snapshots(self, setup):
        grid, kernel, density = setup
        traj = evolve(density, make_rhs("generalized", kernel, 0.01), 0.5, [0.5])
        for s in traj:
            assert np.all(s.values >= 0.0)

    def test_rk4_order_on_m0(self, setup):
        # fixed-dt M0 error against the Riccati closed form drops ~16x per
        # halving, with the production RK4 attempt taken in equal steps
        grid, kernel, density = setup
        d = density.replace(values=density.values / weighted_norm(density, "one"))
        f = integrator._stages(make_rhs("sce", kernel), grid)

        def m0_error(dt):
            y = d.values
            for i in range(round(0.5 / dt)):
                y, _, _ = integrator._rk4_attempt(f, y, i * dt, f(y, i * dt), dt)
            # subtract the boundary-truncation bias shared by all dt
            return weighted_norm(d.replace(values=y), "one") - 2.0 / (2.0 + 0.5)

        e1, e2 = m0_error(0.05), m0_error(0.025)
        # bias cancels in the difference of consecutive refinements
        e4 = m0_error(0.0125)
        r1 = abs(e1 - e2) / abs(e2 - e4)
        assert 10.0 <= r1 <= 24.0  # 4th order => ~16

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_horizon_rejected(self, setup, T):
        grid, kernel, density = setup
        with pytest.raises(DomainError):
            evolve(density, make_rhs("sce", kernel), T)


def _record(log):
    return lambda t, d, stats: log.append((t, stats))


def _factor(err):
    return min(5.0, max(0.2, 0.8 * err ** -0.25))


class TestFixedMode:
    """Each accepted step, replayed as plain RK4 at its own fixed dt."""

    def test_bit_identical_to_plain_rk4(self, setup):
        # the stages see the state clamped at zero; no cell goes negative here
        grid, kernel, density = setup
        rhs = make_rhs("generalized", kernel, 0.3)
        log = []
        traj = evolve(density, rhs, 0.25, (0.1, 0.25),
                      observers=[lambda t, d, stats: log.append((d.values, stats))])

        def f(v):
            return rhs(NumberDensity(grid, np.maximum(v, 0.0)))

        y, out = density.values, 0.0
        assert len(log) > 3
        for values, stats in log:
            h = stats.dt
            k1, l1 = f(y)
            k2, l2 = f(y + 0.5 * h * k1)
            k3, l3 = f(y + 0.5 * h * k2)
            k4, l4 = f(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out += (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
            assert np.array_equal(values, y) and stats.clipped_mass == 0.0
        assert np.array_equal(traj.values[-1], y)
        assert traj.outflux[-1] == out and traj.clipped == [0.0] * 3


class TestErrorControl:
    def test_estimate_is_fourth_order(self, setup, monkeypatch):
        # |dt/6 (k4 - k5)| is the local error of the embedded order-3
        # solution: it drops ~16x per halving of dt
        grid, kernel, density = setup
        monkeypatch.setattr(integrator, "RTOL", 1.0)  # accept every trial step
        monkeypatch.setattr(integrator, "_starting_step", lambda *args: 1.0)
        rhs = make_rhs("sce", kernel)

        def estimate(dt):
            log = []
            evolve(density, rhs, dt, observers=[_record(log)])
            assert len(log) == 1 and log[0][1].rejections == 0
            return log[0][1].error

        e = [estimate(0.2 / 2 ** i) for i in range(3)]
        assert 12.0 <= e[0] / e[1] <= 20.0 and 12.0 <= e[1] / e[2] <= 20.0

    def test_controller_sequence(self, setup):
        # each accepted step is within tolerance and sets the next one to
        # dt * min(5, max(0.2, 0.8 err^(-1/4)))
        grid, kernel, density = setup
        log = []
        evolve(density, make_rhs("generalized", kernel, 0.3), 2.0, observers=[_record(log)])
        stats = [s for _, s in log]
        assert len(stats) > 5 and all(0.0 < s.error <= 1.0 for s in stats)
        assert not any(s.rejections for s in stats)
        for prev, cur in zip(stats[:-2], stats[1:-1]):  # the last step lands on T
            assert cur.dt == pytest.approx(prev.dt * _factor(prev.error), rel=1e-14)

    def test_error_rejection_shrinks_step(self, setup, monkeypatch):
        grid, kernel, density = setup
        monkeypatch.setattr(integrator, "_starting_step", lambda *args: 0.5)
        log = []
        evolve(density, make_rhs("sce", kernel), 0.5, observers=[_record(log)])
        first = log[0][1]
        assert first.rejections >= 1 and first.dt < 0.5 and first.error <= 1.0
        monkeypatch.setattr(integrator, "MAX_SHRINK", 0)
        with pytest.raises(StiffnessError) as err:
            evolve(density, make_rhs("sce", kernel), 0.5)
        assert err.value.time == 0.0 and err.value.dt == 0.5

    def test_landing_does_not_shrink_next_step(self, setup):
        grid, kernel, density = setup
        rhs = make_rhs("sce", kernel)
        free = []
        evolve(density, rhs, 1.0, observers=[_record(free)])
        # a stop just after the third step: the fourth is cut short
        stop = free[2][0] + 0.01 * free[3][1].dt
        landed = []
        evolve(density, rhs, 1.0, [stop, 1.0], observers=[_record(landed)])
        assert [s.dt for _, s in landed[:3]] == [s.dt for _, s in free[:3]]
        short, after = landed[3][1], landed[4][1]
        assert landed[3][0] == pytest.approx(stop, rel=1e-15) and short.dt < free[3][1].dt
        assert after.dt >= free[3][1].dt

    def test_starting_step_has_no_eps(self, setup):
        # the first step is set by the data, not by 1/eps
        grid, kernel, density = setup
        first = {}
        for eps in (1.0, 2.0 ** -10):
            log = []
            evolve(density, make_rhs("generalized", kernel, eps), 0.5, observers=[_record(log)])
            first[eps] = log[0][1]
            assert first[eps].rejections == 0 and len(log) <= 30
        assert 0.5 <= first[1.0].dt / first[2.0 ** -10].dt <= 2.0


class TestFloatingPointFaults:
    @pytest.mark.parametrize("fault", ["over", "invalid"])
    def test_fault_raises_stiffness_with_state(self, setup, fault):
        # the rates blow up once t > 0.32: the step that reaches past it
        # fails, and the error carries its start time and trial dt
        density = setup[2]

        def rhs(d):
            if d.time <= 0.32:
                return -d.values, 0.0
            if fault == "over":
                return 1e300 * d.values, 0.0
            return (d.values - d.values) / (d.values - d.values), 0.0

        log = []
        with pytest.raises(StiffnessError) as err:
            evolve(density, rhs, 1.0, observers=[_record(log)])
        t, last = log[-1]
        assert err.value.time == t and err.value.dt == last.dt * _factor(last.error)
        assert t <= 0.32 < t + err.value.dt
        assert isinstance(err.value.__cause__, FloatingPointError)
