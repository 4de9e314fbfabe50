import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gencoag import (
    ConfigError,
    StiffnessError,
    ConstantKernel,
    DomainError,
    ExponentialProfile,
    NumberDensity,
    SingularProductKernel,
    make_grid,
    sample_initial,
)
from conftest import grid_run, mass_report
from gencoag import experiments, operators
from gencoag.cli import _sweep_config, load_config
from gencoag.experiments import (
    CLOSED_FORM_TIMES,
    M0_ROWS,
    DistanceTable,
    MemberTable,
    eps_limit_check,
    even_stops,
    SweepConfig,
    riccati_m0,
    run_eps_sweep,
    run_model,
    sce_constant_kernel_solution,
    validate_m0_riccati,
    validate_members,
    validate_sce_constant_kernel,
)
from oracles import transport_distance


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_config(kernel=None, **kw):
    kw.setdefault("n", 20.0)
    kw.setdefault("cells_per_decade", 16)
    kw.setdefault("horizon", 0.5)
    kw.setdefault("eps_list", (1.0,))
    kw.setdefault("profile", ExponentialProfile())
    return SweepConfig(kernel=kernel or ConstantKernel(1.0), **kw)


def _top_loaded(mu):
    return np.exp(-mu / 5.0)


def _sourced(when):
    """make_rhs that adds one unit of density per unit time to every cell of
    the runs ``when(model, eps)`` picks, so their weighted moment grows past
    the initial bound; other runs are untouched."""
    real = operators.make_rhs

    def make_rhs(model, kernel, eps=None):
        rhs = real(model, kernel, eps)
        if not when(model, eps):
            return rhs

        def sourced(density):
            dzdt, outflux = rhs(density)
            return dzdt + 1.0, outflux
        return sourced
    return make_rhs


def _failing_generalized(exc):
    """make_rhs whose generalized operator raises ``exc``; other models run."""
    real = experiments.make_rhs

    def make_rhs(model, kernel, eps=None):
        if model != "generalized":
            return real(model, kernel, eps)

        def rhs(density):
            raise exc
        return rhs
    return make_rhs


class TestRunModel:
    @pytest.mark.parametrize("t0, times", [
        (0.0, ()),
        (0.0, (0.1, 0.2)),  # falls short of the horizon
        (0.0, (0.1, 0.4)),  # runs past it
        (0.25, (0.1, 0.3)),  # ends at the horizon, not at t0 + horizon
    ])
    def test_times_that_do_not_end_at_the_horizon_are_refused(self, monkeypatch, t0, times):
        grid = make_grid(20.0, 16)
        initial = NumberDensity(grid, sample_initial(ExponentialProfile(), grid).values, t0)
        calls = []
        monkeypatch.setattr(experiments, "evolve", lambda *a, **k: calls.append(a))
        with pytest.raises(DomainError, match="snapshot times must end at t0 \\+ horizon"):
            run_model("sce", ConstantKernel(1.0), grid, initial, 0.3, times)
        assert calls == []

    def test_the_run_ends_at_t0_plus_horizon(self):
        grid = make_grid(20.0, 16)
        initial = NumberDensity(grid, sample_initial(ExponentialProfile(), grid).values, 0.25)
        kernel = ConstantKernel(1.0)
        alone = run_model("sce", kernel, grid, initial, 0.5)
        assert np.array_equal(alone.times, [0.25, 0.75])
        stopped = run_model("sce", kernel, grid, initial, 0.5, (0.5, 0.75))
        assert np.array_equal(stopped.times, [0.25, 0.5, 0.75])


class TestEvenStops:
    @pytest.mark.parametrize("horizon, count", [(1.0, 1), (0.3, 3), (7.5, 8), (1e-300, 10)])
    def test_stops_are_horizon_k_over_count_bit_for_bit(self, horizon, count):
        # below overflow nothing is scaled: the stops are the product formula
        assert even_stops(horizon, count, "the stops") == tuple(
            horizon * k / count for k in range(1, count + 1))

    @pytest.mark.parametrize("horizon, count", [(1e308, 3), (1e308, 8), (sys.float_info.max, 10)])
    def test_an_overflowing_product_keeps_the_bits_of_a_scaled_horizon(self, horizon, count):
        # horizon * count overflows, so the stops are formed on horizon / 2^j;
        # a power of two scales exactly, so they are 16 times the stops of
        # horizon / 16, whose product formula does not overflow
        assert horizon * count == math.inf and horizon / 16.0 * count < math.inf
        stops = even_stops(horizon, count, "the stops")
        assert stops == tuple(16.0 * s for s in even_stops(horizon / 16.0, count, "the stops"))
        assert all(0.0 < a < b for a, b in zip(stops, stops[1:]))
        assert math.isclose(stops[-1], horizon, rel_tol=2.0 * sys.float_info.epsilon)

    @pytest.mark.parametrize("count", [2, 8])
    def test_a_subnormal_horizon_is_refused_by_name(self, count):
        # 5e-324 / count rounds to 0: the first stop would be the start
        with pytest.raises(ConfigError, match="time.horizon 4.94066e-324 is too small for "
                                              "the mass report's 8 snapshots"):
            even_stops(5.0e-324, count, "the mass report's 8 snapshots")

    def test_one_stop_at_the_least_subnormal_is_the_horizon(self):
        assert even_stops(5.0e-324, 1, "the stops") == (5.0e-324,)


class TestMemberFailures:
    def test_package_error_marks_member(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_rhs",
                            _failing_generalized(StiffnessError("stiff", time=0.0, dt=1e-3)))
        table = run_eps_sweep(MemberTable(small_config(eps_list=(1.0, 0.5))))
        assert [f["eps"] for f in table.failed] == [1.0, 0.5]
        assert all(f["error"] == {"type": "StiffnessError", "message": "stiff",
                                  "time": 0.0, "dt": 1e-3} for f in table.failed)

    def test_other_package_error_has_no_state(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_rhs", _failing_generalized(ConfigError("bad")))
        table = run_eps_sweep(MemberTable(small_config(eps_list=(0.5,))))
        assert table.failed[0]["error"] == {"type": "ConfigError", "message": "bad",
                                            "time": None, "dt": None}

    def test_floating_point_fault_is_typed(self, monkeypatch):
        # an overflow in a member's step is a StiffnessError at that step
        real = experiments.make_rhs

        def make_rhs(model, kernel, eps=None):
            rhs = real(model, kernel, eps)
            if model != "generalized":
                return rhs
            return lambda d: rhs(d) if d.time < 0.1 else rhs(NumberDensity(d.grid, d.values * 1e300, d.time))
        monkeypatch.setattr(experiments, "make_rhs", make_rhs)
        table = run_eps_sweep(MemberTable(small_config(eps_list=(0.5,))))
        error = table.failed[0]["error"]
        assert error["type"] == "StiffnessError" and "floating-point" in error["message"]
        assert 0.0 < error["time"] < 0.1 and error["dt"] > 0.0

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_rhs", _failing_generalized(TypeError("bug")))
        with pytest.raises(TypeError):
            run_eps_sweep(MemberTable(small_config(eps_list=(0.5,))))

    def test_reference_bound_violation_fails_members_at_eps_zero(self, monkeypatch):
        # on 16 cells/decade sqrt(r) - 1 = 0.075: eps = 1/16, 1/32 and 1/64
        # compute eps = 0 and read the OHS run, so with the OHS run alone
        # broken all three fail with it
        cfg = small_config(eps_list=tuple(2.0 ** (-i) for i in range(7)))
        monkeypatch.setattr(experiments, "make_rhs", _sourced(lambda model, eps: model == "ohs"))
        table = run_eps_sweep(MemberTable(cfg))
        assert [f["eps"] for f in table.failed] == [2.0**-4, 2.0**-5, 2.0**-6]
        assert all(f["error"]["type"] == "BoundViolation" for f in table.failed)
        assert {e for e, *_ in table.rows} == {1.0, 0.5, 0.25, 0.125}


def _counted(monkeypatch):
    """The (model, eps) of every run_model call from here on."""
    calls, real = [], experiments.run_model

    def run_model(model, *args, **kwargs):
        calls.append((model, kwargs.get("eps")))
        return real(model, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_model", run_model)
    return calls


class TestMemberTable:
    # on 16 cells/decade sqrt(r) - 1 = 0.075
    def test_runs_that_compute_one_eps_are_one_run(self, monkeypatch):
        members = MemberTable(small_config())
        calls = _counted(monkeypatch)
        ohs, _, failure = members.run("ohs", None)
        assert failure is None and members.run("generalized", 2.0**-5)[0] is ohs
        assert members.run("generalized", 2.0**-4)[0] is ohs
        sce = members.run("sce", None)[0]
        assert members.run("generalized", 1.0)[0] is sce
        assert calls == [("ohs", None), ("sce", None)]
        # the grid and its initial data are built once, and every run starts there
        assert sce.grid is members.grid and ohs.grid is members.grid
        assert np.array_equal(sce.values[0], members.initial.values)

    def test_failed_solve_is_typed_and_kept(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_rhs",
                            _failing_generalized(StiffnessError("stiff", time=0.0, dt=1e-3)))
        members = MemberTable(small_config())
        calls = _counted(monkeypatch)
        for _ in range(2):
            traj, verdicts, failure = members.run("generalized", 0.5)
            assert traj is None and verdicts == [] and type(failure) is StiffnessError
            assert (str(failure), failure.time, failure.dt) == ("stiff", 0.0, 1e-3)
        assert calls == [("generalized", 0.5)]

    def test_initial_data_are_checked_once_before_any_solve(self, monkeypatch):
        # the one grid's initial data are checked when the table is built,
        # not per run; generalized at eps = 1 is the SCE run, read, not solved
        events = []
        check = experiments.check_initial
        monkeypatch.setattr(experiments, "check_initial",
                            lambda *a: events.append("check") or check(*a))
        real = experiments.run_model
        monkeypatch.setattr(experiments, "run_model",
                            lambda model, *a, **k: events.append(model) or real(model, *a, **k))
        members = MemberTable(small_config(eps_list=(1.0, 0.5)))
        assert events == ["check"]
        run_eps_sweep(members)
        assert members.run("sce", None)[2] is None
        assert events == ["check", "ohs", "generalized", "generalized"]

    @pytest.mark.parametrize("n, cells_per_decade", [(10.0, 16), (30.0, 12)])
    def test_the_grid_is_the_configs(self, n, cells_per_decade):
        cfg = small_config(n=n, cells_per_decade=cells_per_decade)
        members = MemberTable(cfg)
        grid = make_grid(n, cells_per_decade)
        assert np.array_equal(members.grid.edges, grid.edges)
        assert members.grid.edges[0] == 1.0 / n and members.grid.edges[-1] == n
        assert members.initial.time == 0.0
        assert np.array_equal(members.initial.values, sample_initial(cfg.profile, grid).values)

    def test_validate_table(self, monkeypatch):
        cfg = small_config(n=30.0, cells_per_decade=12, horizon=1.0)
        members = validate_members(cfg)
        # the mass report's eight snapshots to the horizon, and the closed-form times
        assert members.stops == (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0, 2.0)
        calls = _counted(monkeypatch)
        runs = {label: members.run(model, eps) for label, model, eps in M0_ROWS}
        assert calls == [("sce", None), ("ohs", None), ("generalized", 0.25)]
        assert all(failure is None for _, _, failure in runs.values())
        # each run keeps the verdicts that judged it, the ledger closure last
        verdicts = runs["sce"][1]
        assert verdicts[-1].name == "ledger_closure" and all(v.passed for v in verdicts)
        assert runs["generalized_eps1"][0] is runs["sce"][0]
        assert runs["generalized_eps0.01"][0] is runs["ohs"][0]
        assert runs["sce"][0].times.tolist() == [0.0, *members.stops]


class TestDistanceTable:
    ROWS = [(1.0, 20.0, 0.0, 0.0), (1.0, 20.0, 0.5, 0.25),
            (0.5, 20.0, 0.0, 0.0), (0.5, 20.0, 0.5, 0.125)]

    def test_at_time_reads_the_rows_of_one_snapshot(self):
        table = DistanceTable()
        table.rows += self.ROWS
        assert table.at_time(0.5) == {1.0: 0.25, 0.5: 0.125}
        assert table.at_time(0.0) == {1.0: 0.0, 0.5: 0.0}
        # a time within rounding of a snapshot reads that snapshot
        assert table.at_time(0.5 * (1.0 + 1e-12)) == {1.0: 0.25, 0.5: 0.125}

    def test_at_time_off_every_snapshot_is_empty(self):
        # sweep forms no check from an empty read: no member was measured there
        table = DistanceTable()
        assert table.at_time(0.5) == {}
        table.rows += self.ROWS
        assert table.at_time(0.25) == {} and table.at_time(0.5 * (1.0 + 1e-6)) == {}

    def test_csv_keeps_the_n_column(self, tmp_path):
        table = DistanceTable()
        table.rows += self.ROWS
        table.write_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes().split(b"\r\n") == [
            b"eps,n,time,distance", b"1,20,0,0", b"1,20,0.5,0.25",
            b"0.5,20,0,0", b"0.5,20,0.5,0.125", b""]


class TestEpsSweep:
    def test_eps_one_row_matches_direct_sce(self):
        # same step sequence: the operator identity carries through the
        # integrator, so the end states agree to rounding
        cfg = small_config(eps_list=(1.0,))
        grid = make_grid(20.0, 16)
        initial = sample_initial(ExponentialProfile(), grid)
        sce = run_model("sce", cfg.kernel, grid, initial, 0.5, (0.5,))
        gen = run_model("generalized", cfg.kernel, grid, initial, 0.5, (0.5,), eps=1.0)
        d = transport_distance(sce[-1], gen[-1], 0.0)
        assert d <= 1e-10

    def test_distances_monotone_to_floor(self):
        cfg = small_config(eps_list=tuple(2.0 ** (-i) for i in range(7)))
        table = run_eps_sweep(MemberTable(cfg))
        assert not table.failed
        check = eps_limit_check(table.at_time(0.5))
        assert check["passed"]
        # genuine decrease before the limit, which eps = 1/16 < sqrt(r) - 1
        # reaches: the three members below it are the OHS run, at distance 0
        assert check["distances"][0] > 1e-4
        assert check["distances"][-3:] == [0.0] * 3 and check["floor"] == 0.0

    def test_sweep_eps_limit_member_is_the_ohs_run_bit_for_bit(self):
        # configs/sweep_eps.yaml: eps = 1/32, the largest member below
        # sqrt(r) - 1 = 0.037, solved on its own with the sweep's stops, is
        # the OHS run the sweep reads for it
        config = _sweep_config(load_config(CONFIGS / "sweep_eps.yaml"))
        assert config.n == 50.0 and config.cells_per_decade == 32
        assert config.kernel.family == "singular_product" and config.kernel.sigma == 0.2
        members = MemberTable(config)
        ohs = members.run("ohs", None)[0]
        assert members.run("generalized", 2.0**-5)[0] is ohs
        member = run_model("generalized", config.kernel, members.grid, members.initial,
                           members.stops[-1], members.stops, eps=2.0**-5)
        assert np.array_equal(member.times, ohs.times)
        assert np.array_equal(member.values, ohs.values)
        assert member.outflux == ohs.outflux and member.clipped == ohs.clipped

    def test_top_loaded_sweep_reaches_ohs(self):
        # much of the mass sits in the top cell, so a generalized run that
        # drains it faster than the OHS flux through the last gap shows
        grid = make_grid(10.0, 16)
        cfg = small_config(n=10.0, profile=_top_loaded,
                           eps_list=tuple(2.0 ** (-i) for i in range(11)))
        table = run_eps_sweep(MemberTable(cfg))
        assert not table.failed
        assert eps_limit_check(table.at_time(0.5))["passed"]
        # the sweep reads the OHS run for these members: solve each one here
        limit = [v for _, t, v in _below_limit_distances(cfg, grid, (0.5,)) if t == 0.5]
        assert len(limit) == 7 and max(limit) <= 1e-12

    def test_top_loaded_sweep_reaches_ohs_adaptive(self):
        # the error-controlled steps depend on the data only, so the members
        # below sqrt(r) - 1 take the OHS run's step sequence and match it at
        # every snapshot, not only at the horizon
        grid = make_grid(10.0, 16)
        cfg = small_config(n=10.0, profile=_top_loaded,
                           eps_list=tuple(2.0 ** (-i) for i in range(11)))
        table = run_eps_sweep(MemberTable(cfg))
        assert not table.failed
        limit = [(t, v) for _, t, v in _below_limit_distances(cfg, grid, (0.125, 0.25, 0.5))]
        assert len({t for t, _ in limit}) > 1
        assert len(limit) % 7 == 0 and max(v for _, v in limit) <= 1e-12

    def test_determinism_bit_identical(self):
        cfg = small_config(eps_list=(1.0, 0.5, 0.25))
        t1 = run_eps_sweep(MemberTable(cfg))
        t2 = run_eps_sweep(MemberTable(cfg))
        assert t1.rows == t2.rows

    def test_csv_round_trip(self, tmp_path):
        cfg = small_config(eps_list=(1.0, 0.5))
        table = run_eps_sweep(MemberTable(cfg))
        path = tmp_path / "distances.csv"
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,n,time,distance"
        assert len(lines) == 1 + len(table.rows)

    def test_every_row_is_on_the_configs_grid(self):
        # members in decreasing eps, each at t = 0 and at every stop, all on n
        cfg = small_config(n=10.0, eps_list=(0.5, 1.0), horizon=0.25)
        table = run_eps_sweep(MemberTable(cfg, (0.125, 0.25)))
        assert not table.failed
        assert [(eps, n, t) for eps, n, t, _ in table.rows] == [
            (1.0, 10.0, 0.0), (1.0, 10.0, 0.125), (1.0, 10.0, 0.25),
            (0.5, 10.0, 0.0), (0.5, 10.0, 0.125), (0.5, 10.0, 0.25)]
        assert [d for _, _, t, d in table.rows if t == 0.0] == [0.0, 0.0]
        assert all(d > 0.0 for _, _, t, d in table.rows if t > 0.0)


def _below_limit_distances(cfg, grid, snapshot_times):
    """(eps, time, distance to the OHS run) at every snapshot of each
    generalized run below sqrt(r) - 1, each solved on its own."""
    initial = sample_initial(cfg.profile, grid)
    ohs = run_model("ohs", cfg.kernel, grid, initial, cfg.horizon, snapshot_times)
    out = []
    for eps in cfg.eps_list:
        if eps < np.sqrt(grid.ratio()) - 1.0:
            member = run_model("generalized", cfg.kernel, grid, initial, cfg.horizon,
                               snapshot_times, eps=eps)
            assert np.array_equal(member.times, ohs.times)
            out += [(eps, a.time, transport_distance(a, b, cfg.kernel.sigma))
                    for a, b in zip(member, ohs)]
    return out


class TestAnalyticValidation:
    def test_closed_form_is_initial_at_t0(self):
        mu = np.linspace(0.1, 5, 50)
        assert np.allclose(sce_constant_kernel_solution(mu, 0.0), np.exp(-mu), rtol=1e-15)

    def test_closed_form_mass_constant(self):
        from scipy.integrate import quad

        for t in (0.5, 1.0, 2.0):
            m1, _ = quad(lambda m: m * sce_constant_kernel_solution(m, t), 0, np.inf)
            assert m1 == pytest.approx(1.0, rel=1e-9)

    def test_sce_validation_requires_constant_kernel(self):
        cfg = small_config(kernel=SingularProductKernel(k=1.0, sigma=0.2))
        traj = grid_run(cfg, "sce", cfg.horizon, (cfg.horizon,))
        with pytest.raises(ConfigError):
            validate_sce_constant_kernel(cfg, traj)

    def test_sce_validation_reads_a_given_run(self):
        cfg = small_config(n=30.0, cells_per_decade=12, horizon=2.0)
        grid = make_grid(30.0, 12)
        initial = sample_initial(cfg.profile, grid)
        traj = run_model("sce", cfg.kernel, grid, initial, 2.0, (0.25, 0.5, 1.0, 2.0))
        errors = validate_sce_constant_kernel(cfg, traj=traj)
        assert list(errors) == [0.5, 1.0, 2.0]
        assert len(traj) == 5  # the check reads 3 of the run's snapshots past t = 0
        # a run that misses a check time is refused, not read at another time
        with pytest.raises(DomainError, match="no snapshot at t=2.0"):
            validate_sce_constant_kernel(cfg, traj=traj.select((0.5, 1.0)))

    def test_riccati_validators(self):
        cfg = small_config(n=30.0, cells_per_decade=24, horizon=2.0)
        for model, eps, tol in (("sce", None, 1e-4), ("generalized", 0.25, 1e-4)):
            traj = grid_run(cfg, model, 2.0, CLOSED_FORM_TIMES, eps)
            rep = validate_m0_riccati(cfg, traj)
            assert max(rep.values()) <= tol
        # the closed form itself, at unit rate and at rate 2
        assert riccati_m0(2.0) == 0.5
        assert riccati_m0(1.0, m0=2.0, rate=2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_mass_conservation_report_zero_density(self):
        class ZeroProfile:
            def __call__(self, mu):
                return np.zeros_like(mu)

        cfg = small_config(profile=ZeroProfile())
        rep = mass_report(cfg, "sce")
        assert rep["max_closure_rel"] == 0.0
        assert all(v == 0.0 for v in rep["M1"])

    def test_mass_conservation_report_ledger_exact(self):
        cfg = small_config(kernel=SingularProductKernel(k=1.0, sigma=0.2),
                           n=20.0, horizon=1.0)
        for model, eps in (("generalized", 1.0), ("sce", None), ("ohs", None)):
            rep = mass_report(cfg, model, eps)
            assert rep["max_closure_rel"] <= 1e-8

    @pytest.mark.parametrize("n", [20.0, 30.0])
    def test_mass_report_thresholds_are_fractions_of_n(self, n):
        # the flux identities sit at the grid edges nearest n/8, n/4, n/2 and
        # n, each within half a cell in log size; the last is the top edge
        cfg = small_config(n=n, cells_per_decade=12, horizon=0.5)
        lambdas = [f["lambda"] for f in mass_report(cfg, "sce")["flux_identities"]]
        half_cell = 0.5 * math.log(make_grid(n, 12).ratio())
        assert len(lambdas) == 4 and lambdas[-1] == n
        for lam, frac in zip(lambdas, (0.125, 0.25, 0.5, 1.0)):
            assert abs(math.log(lam / (frac * n))) <= half_cell * (1.0 + 1e-12)


class TestMonotonePlateau:
    # eps_limit_check: the distances must not rise along decreasing eps,
    # up to 1e-12 relative
    def test_strictly_decreasing(self):
        d = {1.0: 4.0, 0.5: 2.0, 0.25: 1e-9}
        assert eps_limit_check(d)["passed"]

    def test_plateau_wiggle_allowed(self):
        d = {1.0: 4.0, 0.5: 1.0, 0.25: 1e-9, 0.125: 1e-9 * (1.0 + 1e-13), 0.0625: 0.0}
        assert eps_limit_check(d)["passed"]

    def test_real_rise_rejected(self):
        assert not eps_limit_check({1.0: 4.0, 0.5: 1.0, 0.25: 2.0})["passed"]
        assert not eps_limit_check({1.0: 1.0, 0.5: 1.0 + 1e-9, 0.25: 1e-9})["passed"]
        assert not eps_limit_check({1.0: 4.0, 0.5: 1e-9, 0.25: 3e-9})["passed"]

    def test_keys(self):
        check = eps_limit_check({0.5: 1.0, 1.0: 2.0, 0.25: 0.0})
        assert check == {"passed": True, "floor": 0.0, "eps_order": [1.0, 0.5, 0.25],
                         "distances": [2.0, 1.0, 0.0]}
