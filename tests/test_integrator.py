from pathlib import Path

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
)
from gencoag import experiments, integrator
from gencoag.cli import _sweep_config, load_config
from oracles import weighted_norm

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def setup():
    grid = make_grid(30.0, 16)
    kernel = ConstantKernel(1.0)
    density = sample_initial(ExponentialProfile(), grid)
    return grid, kernel, density


def _advance(density, rhs, dt):
    """One accepted step of the production stepper from ``density``, trial step dt."""
    grid = density.grid
    f = integrator._stages(rhs, grid)
    first = f(density.values, density.time)
    values, stats, _ = integrator._advance(f, grid, density.values, density.time, first, dt,
                                           integrator._weighted_l1(grid))
    return NumberDensity(grid, values, density.time + stats.dt), stats


class TestStep:
    def test_zero_density(self, setup):
        grid, kernel, _ = setup
        d = NumberDensity(grid, np.zeros(grid.size))
        out, stats = _advance(d, make_rhs("sce", kernel), 0.5)
        assert np.all(out.values == 0.0)
        assert stats.rejections == 0 and stats.clipped_mass == 0.0 and stats.outflux == 0.0

    def test_riccati_first_order(self, setup):
        # one Dormand-Prince step: M0 drop matches the Riccati slope to O(dt^2)
        grid, kernel, density = setup
        dt = 1e-3
        m0 = weighted_norm(density, "one")
        out, stats = _advance(density, make_rhs("sce", kernel), dt)
        drop = m0 - weighted_norm(out, "one")
        assert drop == pytest.approx(0.5 * m0 * m0 * dt, rel=1e-3)
        assert stats.dt == dt

    def test_rejection_cascade_raises(self, setup, monkeypatch):
        # every trial step leaves negative cells and is halved (at 1e9 the
        # fifth stage would overflow before the positivity test)
        grid, kernel, density = setup
        monkeypatch.setattr(integrator, "MAX_SHRINK", 3)
        with pytest.raises(StiffnessError) as err:
            _advance(density, make_rhs("sce", kernel), 1e6)
        assert err.value.dt == 1e6 / 8  # the last dt tried

    def test_huge_dt_eventually_accepted_with_shrink_budget(self, setup):
        grid, kernel, density = setup
        out, stats = _advance(density, make_rhs("sce", kernel), 1e3)
        assert stats.rejections > 0
        assert stats.dt < 1e3
        assert np.all(out.values >= 0.0)


class TestEvolve:
    @pytest.mark.parametrize("t0, stops", [
        (0.0, []),  # no stop: the run has no end
        (0.0, [0.5, 0.25]),  # unsorted
        (0.0, [0.25, 0.25, 0.5]),  # repeated
        (0.0, [np.nan]),
        (0.0, [0.25, np.nan, 0.5]),
        (0.0, [0.25, np.inf]),
        (0.0, [0.0]),  # at the initial time: a zero horizon
        (0.0, [-0.25, 0.5]),
        (0.5, [0.5, 1.0]),
        (0.5, [0.25, 1.0]),
    ])
    def test_refused_stops(self, setup, t0, stops):
        grid, kernel, density = setup
        start = NumberDensity(grid, density.values, t0)
        with pytest.raises(DomainError, match="stops must be finite and strictly increasing"):
            evolve(start, make_rhs("sce", kernel), stops)

    def test_builds_no_checked_density(self, setup, monkeypatch):
        # each accepted state is checked in place: no density is built, copied
        # and scanned per step or per stop
        grid, kernel, density = setup
        built, real = [], NumberDensity.__init__
        monkeypatch.setattr(NumberDensity, "__init__",
                            lambda self, *a, **k: built.append(a) or real(self, *a, **k))
        traj = evolve(density, make_rhs("sce", kernel), (0.25, 0.5))
        assert built == [] and np.array_equal(traj.times, [0.0, 0.25, 0.5])

    def test_nan_rates_are_refused(self, setup):
        # a NaN the rates return, rather than compute, raises no floating-point
        # fault, and its NaN error estimate passes the error test; the check of
        # the accepted state refuses it, where a run without it never ends
        density = setup[2]

        def rhs(d):
            if d.time <= 0.3:
                return -d.values, 0.0
            return np.full(d.values.shape, np.nan), 0.0

        accepted = []

        def budget(t, values, stats):
            accepted.append(t)
            if len(accepted) > 1000:
                raise RuntimeError("over 1000 accepted steps")

        with pytest.raises(DomainError, match=r"^number density values must be finite and >= 0$"):
            evolve(density, rhs, (1.0,), observers=[budget])

    def test_riccati_horizon_one(self, setup):
        grid, kernel, density = setup
        d = NumberDensity(grid, density.values / weighted_norm(density, "one"))
        traj = evolve(d, make_rhs("sce", kernel), [1.0])
        m0 = weighted_norm(traj[-1], "one")
        assert abs(m0 - 2.0 / 3.0) <= 1e-3 * (2.0 / 3.0)

    def test_l1_never_increases(self, setup):
        grid, kernel, density = setup
        traj = evolve(density, make_rhs("generalized", kernel, 0.3), np.linspace(0.1, 1.0, 10))
        norms = [weighted_norm(s, "one") for s in traj]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_snapshots_land_exactly(self, setup):
        grid, kernel, density = setup
        stops = [0.1, 0.25, 0.5]
        traj = evolve(density, make_rhs("sce", kernel), stops)
        assert np.array_equal(traj.times, [0.0] + stops)

    def test_mass_ledger_closure(self, setup):
        grid, kernel, density = setup
        for model, eps in (("sce", None), ("generalized", 0.25), ("ohs", None)):
            traj = evolve(density, make_rhs(model, kernel, eps), [0.5, 1.0])
            m1 = np.array([weighted_norm(s, "mass") for s in traj])
            closure = m1 + np.asarray(traj.outflux) + np.asarray(traj.clipped) - m1[0]
            assert np.max(np.abs(closure)) <= 1e-8 * m1[0]

    def test_nonnegative_snapshots(self, setup):
        grid, kernel, density = setup
        traj = evolve(density, make_rhs("generalized", kernel, 0.01), [0.5])
        for s in traj:
            assert np.all(s.values >= 0.0)

    def test_dp5_order_on_m0(self, setup):
        # fixed-dt M0 error against the Riccati closed form drops ~32x per
        # halving, with the production Dormand-Prince attempt taken in equal steps
        grid, kernel, density = setup
        d = NumberDensity(grid, density.values / weighted_norm(density, "one"))
        f = integrator._stages(make_rhs("sce", kernel), grid)

        def m0_error(dt):
            y = d.values
            for i in range(round(0.5 / dt)):
                y, _, _ = integrator._dp_attempt(f, y, i * dt, f(y, i * dt), dt)
            # subtract the boundary-truncation bias shared by all dt
            return weighted_norm(NumberDensity(grid, y), "one") - 2.0 / (2.0 + 0.5)

        # bias cancels in the difference of consecutive refinements
        e = [m0_error(0.1 / 2 ** i) for i in range(4)]
        r1, r2 = (e[0] - e[1]) / (e[1] - e[2]), (e[1] - e[2]) / (e[2] - e[3])
        # 5th order => ~32; measured 48.7 and 41.0, falling toward 32 as dt
        # shrinks; 4th order reads ~16 and 6th ~64
        assert 28.0 <= r2 <= r1 <= 56.0


def _record(log):
    return lambda t, values, stats: log.append((t, stats))


def _factor(err):
    return min(5.0, max(0.2, 0.8 * err ** -0.2))


class TestFixedMode:
    """Each accepted step, replayed as a plain Dormand-Prince step at its own fixed dt."""

    def test_bit_identical_to_plain_dp5(self, setup):
        # the stages see the state clamped at zero; no cell goes negative here
        grid, kernel, density = setup
        rhs = make_rhs("generalized", kernel, 0.3)
        log = []
        traj = evolve(density, rhs, (0.1, 0.25),
                      observers=[lambda t, values, stats: log.append((values, stats))])

        def f(v):
            return rhs(NumberDensity(grid, np.maximum(v, 0.0)))

        def combine(weights, terms):
            return sum(w * k for w, k in zip(weights, terms))

        y, out = density.values, 0.0
        assert len(log) > 3
        for values, stats in log:
            h = stats.dt
            ks, ls = [], []
            for row in integrator.A:  # k1 is f(y) afresh: no FSAL shortcut here
                k, l = f(y + h * combine(row, ks))
                ks.append(k)
                ls.append(l)
            y = y + h * combine(integrator.B, ks)
            out += h * combine(integrator.B, ls)
            assert np.array_equal(values, y) and stats.clipped_mass == 0.0
            assert not values.flags.writeable  # the state observers see is the stepper's own
        assert np.array_equal(traj.values[-1], y)
        assert traj.outflux[-1] == out and traj.clipped == (0.0,) * 3


class TestErrorControl:
    def test_estimate_is_fourth_order(self, setup, monkeypatch):
        # |dt sum_i e_i k_i| is the local error of the embedded order-4
        # solution: it drops ~32x per halving of dt (measured 29.6 and 30.7)
        grid, kernel, density = setup
        monkeypatch.setattr(integrator, "RTOL", 1.0)  # accept every trial step
        monkeypatch.setattr(integrator, "_starting_step", lambda *args: 1.0)
        rhs = make_rhs("sce", kernel)

        def estimate(dt):
            log = []
            evolve(density, rhs, (dt,), observers=[_record(log)])
            assert len(log) == 1 and log[0][1].rejections == 0
            return log[0][1].error

        e = [estimate(0.2 / 2 ** i) for i in range(3)]
        assert 26.0 <= e[0] / e[1] <= 36.0 and 26.0 <= e[1] / e[2] <= 36.0

    def test_time_error_follows_rtol(self, monkeypatch):
        # validate's SCE run, whose M0 error is the largest of its rows: the
        # error falls by at least 10^0.8 per decade of RTOL (measured 9.7x
        # and 12.2x), so the tolerance, not the spatial bias, sets it
        config = _sweep_config(load_config(ROOT / "configs/validate_constant.yaml", "validate"))
        errors = []
        for rtol in (4e-7, 4e-8, 4e-9):
            monkeypatch.setattr(integrator, "RTOL", rtol)
            traj = experiments.validate_members(config).run("sce", None)[0]
            errors.append(max(experiments.validate_m0_riccati(config, traj).values()))
        assert errors[0] / errors[1] >= 10 ** 0.8 and errors[1] / errors[2] >= 10 ** 0.8

    def test_controller_sequence(self, setup):
        # each accepted step is within tolerance and sets the next one to
        # dt * min(5, max(0.2, 0.8 err^(-1/5)))
        grid, kernel, density = setup
        log = []
        evolve(density, make_rhs("generalized", kernel, 0.3), (2.0,), observers=[_record(log)])
        stats = [s for _, s in log]
        assert len(stats) > 5 and all(0.0 < s.error <= 1.0 for s in stats)
        assert not any(s.rejections for s in stats)
        for prev, cur in zip(stats[:-2], stats[1:-1]):  # the last step lands on T
            assert cur.dt == pytest.approx(prev.dt * _factor(prev.error), rel=1e-14)

    def test_error_rejection_shrinks_step(self, setup, monkeypatch):
        grid, kernel, density = setup
        monkeypatch.setattr(integrator, "_starting_step", lambda *args: 0.5)
        log = []
        evolve(density, make_rhs("sce", kernel), (0.5,), observers=[_record(log)])
        first = log[0][1]
        assert first.rejections >= 1 and first.dt < 0.5 and first.error <= 1.0
        monkeypatch.setattr(integrator, "MAX_SHRINK", 0)
        with pytest.raises(StiffnessError) as err:
            evolve(density, make_rhs("sce", kernel), (0.5,))
        assert err.value.time == 0.0 and err.value.dt == 0.5

    def test_landing_does_not_shrink_next_step(self, setup):
        grid, kernel, density = setup
        rhs = make_rhs("sce", kernel)
        free = []
        evolve(density, rhs, (1.0,), observers=[_record(free)])
        # a stop just after the third step: the fourth is cut short
        stop = free[2][0] + 0.01 * free[3][1].dt
        landed = []
        evolve(density, rhs, [stop, 1.0], observers=[_record(landed)])
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
            evolve(density, make_rhs("generalized", kernel, eps), (0.5,),
                   observers=[_record(log)])
            first[eps] = log[0][1]
            assert first[eps].rejections == 0 and len(log) <= 30
        assert 0.5 <= first[1.0].dt / first[2.0 ** -10].dt <= 2.0


class TestScipyOracle:
    """The pair against scipy's RK45, which is the same Dormand-Prince 5(4) pair."""

    def test_tableau_is_rk45(self):
        from scipy.integrate._ivp.rk import RK45

        def close(a, b):
            return np.allclose(a, b, rtol=0.0, atol=1e-15)

        assert close(integrator.C, RK45.C) and close(integrator.B, RK45.B)
        assert len(integrator.A) == len(RK45.A)
        for s, row in enumerate(integrator.A):
            assert close([*row, *[0.0] * (len(RK45.A[s]) - s)], RK45.A[s])
        # scipy's E is b_hat - b, the opposite sign of integrator.E = b - b_hat
        assert close(integrator.E, -RK45.E)

    def test_riccati_run_agrees_with_rk45(self, setup):
        # one evolve run and one solve_ivp run of the same system, each at
        # RTOL, differ by less than the sum of their tolerances (measured 3.2e-9)
        from scipy.integrate import solve_ivp

        grid, kernel, density = setup
        rhs = make_rhs("sce", kernel)
        d = NumberDensity(grid, density.values / weighted_norm(density, "one"))
        traj = evolve(d, rhs, (1.0,))
        rtol = integrator.RTOL
        sol = solve_ivp(lambda t, y: rhs(NumberDensity(grid, np.maximum(y, 0.0), t))[0],
                        (0.0, 1.0), d.values, method="RK45", rtol=rtol, atol=1e-14)
        assert sol.success and sol.t[-1] == 1.0
        norm = integrator._weighted_l1(grid)
        y = sol.y[:, -1]
        assert norm(traj.values[-1] - y) <= (integrator.RTOL + rtol) * norm(y)


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
            evolve(density, rhs, (1.0,), observers=[_record(log)])
        t, last = log[-1]
        assert err.value.time == t and err.value.dt == last.dt * _factor(last.error)
        assert t <= 0.32 < t + err.value.dt
        assert isinstance(err.value.__cause__, FloatingPointError)
