import numpy as np
import pytest

from gencoag import (
    ConfigError,
    StiffnessError,
    ConstantKernel,
    DtPolicy,
    ExponentialProfile,
    NumberDensity,
    SingularProductKernel,
    make_grid,
    sample_initial,
)
from gencoag import experiments
from gencoag.experiments import (
    LIMIT_TOLERANCE,
    eps_limit_check,
    lattice_n,
    SweepConfig,
    mass_conservation_report,
    overlap_distance,
    riccati_m0,
    run_eps_sweep,
    run_model,
    run_n_sweep,
    sce_constant_kernel_solution,
    transport_distance,
    validate_m0_riccati,
    validate_sce_constant_kernel,
)


def small_config(kernel=None, **kw):
    kw.setdefault("n_list", (20.0,))
    kw.setdefault("cells_per_decade", 16)
    kw.setdefault("horizon", 0.5)
    return SweepConfig(kernel=kernel or ConstantKernel(1.0), **kw)


def _top_loaded(mu):
    return np.exp(-mu / 5.0)


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


class TestMemberFailures:
    def test_package_error_marks_member(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_rhs",
                            _failing_generalized(StiffnessError("stiff", time=0.0, dt=1e-3)))
        table = run_eps_sweep(small_config(eps_list=(1.0, 0.5)))
        assert [f["eps"] for f in table.failed] == [1.0, 0.5]
        assert all(f["error"] == {"type": "StiffnessError", "message": "stiff",
                                  "time": 0.0, "dt": 1e-3} for f in table.failed)
        table = run_n_sweep(small_config(n_list=(10.0, 20.0)), eps=0.5)
        assert [f["n"] for f in table.failed] == [10.0, 20.0]
        assert table.rows == []

    def test_other_package_error_has_no_state(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_rhs", _failing_generalized(ConfigError("bad")))
        table = run_eps_sweep(small_config(eps_list=(0.5,)))
        assert table.failed[0]["error"] == {"type": "ConfigError", "message": "bad",
                                            "time": None, "dt": None}

    def test_floating_point_fault_is_typed(self, monkeypatch):
        # an overflow in a member's step is a StiffnessError at that step
        real = experiments.make_rhs

        def make_rhs(model, kernel, eps=None):
            rhs = real(model, kernel, eps)
            if model != "generalized":
                return rhs
            return lambda d: rhs(d) if d.time < 0.1 else rhs(d.replace(values=d.values * 1e300))
        monkeypatch.setattr(experiments, "make_rhs", make_rhs)
        table = run_eps_sweep(small_config(eps_list=(0.5,)))
        error = table.failed[0]["error"]
        assert error["type"] == "StiffnessError" and "floating-point" in error["message"]
        assert 0.0 < error["time"] < 0.1 and error["dt"] > 0.0

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_rhs", _failing_generalized(TypeError("bug")))
        with pytest.raises(TypeError):
            run_eps_sweep(small_config(eps_list=(0.5,)))
        with pytest.raises(TypeError):
            run_n_sweep(small_config(n_list=(10.0, 20.0)), eps=0.5)


class TestEpsSweep:
    def test_empty_eps_list(self):
        cfg = small_config(eps_list=())
        table = run_eps_sweep(cfg)
        assert table.rows == [] and table.failed == []

    def test_eps_one_row_matches_direct_sce(self):
        # same fixed step sequence: the operator identity carries through
        # the integrator, so the end states agree to rounding
        cfg = small_config(eps_list=(1.0,), policy=DtPolicy(mode="fixed", dt=2e-3))
        grid = make_grid(20.0, 16)
        initial = sample_initial(ExponentialProfile(), grid)
        sce = run_model("sce", cfg.kernel, grid, initial, 0.5, cfg.policy, (0.5,))
        gen = run_model("generalized", cfg.kernel, grid, initial, 0.5, cfg.policy,
                        (0.5,), eps=1.0)
        d = transport_distance(sce[-1], gen[-1], 0.0)
        assert d <= 1e-10

    def test_distances_monotone_to_floor(self):
        cfg = small_config(eps_list=tuple(2.0 ** (-i) for i in range(7)))
        table = run_eps_sweep(cfg)
        assert not table.failed
        ratio = make_grid(20.0, cfg.cells_per_decade).ratio()
        check = eps_limit_check(table.at_time(0.5), ratio)
        assert check["passed"]
        # genuine decrease before the limit, which eps = 1/16 < sqrt(r) - 1 reaches
        assert check["distances"][0] > 1e3 * LIMIT_TOLERANCE
        assert check["floor"] <= LIMIT_TOLERANCE

    def test_top_loaded_sweep_reaches_ohs(self):
        # much of the mass sits in the top cell, so a generalized run that
        # drains it faster than the OHS flux through the last gap shows;
        # equal fixed steps leave only rounding between the two runs
        grid = make_grid(10.0, 16)
        cfg = small_config(n_list=(10.0,), profile=_top_loaded,
                           policy=DtPolicy(mode="fixed", dt=1.0 / 64.0),
                           eps_list=tuple(2.0 ** (-i) for i in range(11)))
        table = run_eps_sweep(cfg)
        assert not table.failed
        d = table.at_time(0.5)
        assert eps_limit_check(d, grid.ratio())["passed"]
        limit = [v for e, v in d.items() if e < np.sqrt(grid.ratio()) - 1.0]
        assert len(limit) == 7 and max(limit) <= 1e-12

    def test_top_loaded_sweep_reaches_ohs_adaptive(self):
        # the error-controlled steps depend on the data only, so the members
        # below sqrt(r) - 1 take the OHS run's step sequence
        grid = make_grid(10.0, 16)
        cfg = small_config(n_list=(10.0,), profile=_top_loaded,
                           eps_list=tuple(2.0 ** (-i) for i in range(11)))
        table = run_eps_sweep(cfg)
        assert not table.failed
        d = table.at_time(0.5)
        assert eps_limit_check(d, grid.ratio())["passed"]
        limit = [v for e, v in d.items() if e < np.sqrt(grid.ratio()) - 1.0]
        assert len(limit) == 7 and max(limit) <= 1e-12

    def test_determinism_bit_identical(self):
        cfg = small_config(eps_list=(1.0, 0.5, 0.25), threads=2)
        t1 = run_eps_sweep(cfg)
        t2 = run_eps_sweep(cfg)
        assert t1.rows == t2.rows

    def test_pooled_rows_equal_serial_rows(self):
        pooled = run_eps_sweep(small_config(eps_list=(1.0, 0.5, 0.25), threads=2))
        serial = run_eps_sweep(small_config(eps_list=(1.0, 0.5, 0.25), threads=1))
        assert not pooled.failed and pooled.rows
        assert np.array(pooled.rows).tobytes() == np.array(serial.rows).tobytes()

    def test_threads_below_one_rejected(self):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            run_eps_sweep(small_config(eps_list=(1.0, 0.5), threads=0))

    def test_csv_round_trip(self, tmp_path):
        cfg = small_config(eps_list=(1.0, 0.5))
        table = run_eps_sweep(cfg)
        path = tmp_path / "distances.csv"
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,n,time,distance"
        assert len(lines) == 1 + len(table.rows)


class TestNSweep:
    def test_single_n_empty(self):
        cfg = small_config(n_list=(20.0,), eps_list=(0.5,))
        assert run_n_sweep(cfg).rows == []

    def test_doubling_decay(self):
        # exponential data: the tail mass beyond n decays like e^-n, so the
        # inter-n distance collapses as n doubles.  Lattice-aligned n values
        # keep grid staircase mismatch out of the comparison.
        cpd = 16
        ns = tuple(lattice_n(m, cpd) for m in (11, 16, 21))  # ~4.9, 10, ~20.5
        cfg = small_config(n_list=ns, eps_list=(0.5,),
                           cells_per_decade=cpd, horizon=0.25)
        table = run_n_sweep(cfg)
        dists = [r[3] for r in table.rows]
        assert len(dists) == 2
        assert dists[1] < 0.5 * dists[0]

    def test_resolution_refinement_distance(self):
        # same n, doubled resolution: the inter-solution distance reflects
        # the scheme/staircase order (roughly halves per doubling)
        dists = []
        finals = []
        for cpd in (16, 32, 64):
            grid = make_grid(10.0, cpd)
            initial = sample_initial(ExponentialProfile(), grid)
            traj = run_model("generalized", ConstantKernel(1.0), grid, initial,
                             0.5, DtPolicy(mode="adaptive", dt=1e-3), (0.5,), eps=0.5)
            finals.append(traj[-1])
        d1 = overlap_distance(finals[0], finals[1], 0.0)
        d2 = overlap_distance(finals[1], finals[2], 0.0)
        assert d2 < 0.7 * d1

    def test_overlap_distance_midpoint_convention(self):
        g1 = make_grid(10.0, 8)
        g2 = make_grid(20.0, 8)
        a = NumberDensity(g1, np.ones(g1.size))
        b = NumberDensity(g2, np.zeros(g2.size))
        d = overlap_distance(a, b, 0.0)
        # independent recomputation on the union of edges in (0.1, 10)
        edges = np.unique(np.concatenate([
            g1.edges, g2.edges[(g2.edges >= 0.1) & (g2.edges <= 10.0)]]))
        mid = np.sqrt(edges[:-1] * edges[1:])
        expect = float(np.sum((1.0 + mid) * np.diff(edges)))
        assert d == pytest.approx(expect, rel=1e-12)
        # same-grid case reduces to the weighted norm of the difference
        c = NumberDensity(g1, np.full(g1.size, 0.25))
        assert overlap_distance(a, c, 0.0) == pytest.approx(
            float(np.sum((1.0 + g1.centers) * 0.75 * g1.widths)), rel=1e-12)


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
        with pytest.raises(ConfigError):
            validate_sce_constant_kernel(cfg)

    def test_riccati_validators(self):
        cfg = small_config(n_list=(30.0,), cells_per_decade=24, horizon=2.0)
        for model, eps, tol in (("sce", None, 1e-4), ("generalized", 0.25, 1e-4)):
            rep = validate_m0_riccati(cfg, model, eps=eps)
            assert max(rep["errors"].values()) <= tol
        # the closed form itself
        assert riccati_m0(2.0) == 0.5

    def test_mass_conservation_report_zero_density(self):
        class ZeroProfile:
            def __call__(self, mu):
                return np.zeros_like(mu)

        cfg = small_config(profile=ZeroProfile())
        rep = mass_conservation_report(cfg, "sce")
        assert rep["max_closure_rel"] == 0.0
        assert all(v == 0.0 for v in rep["M1"])

    def test_mass_conservation_report_ledger_exact(self):
        cfg = small_config(kernel=SingularProductKernel(k=1.0, sigma=0.2),
                           n_list=(20.0,), horizon=1.0)
        for model, eps in (("generalized", 1.0), ("sce", None), ("ohs", None)):
            rep = mass_conservation_report(cfg, model, eps=eps)
            assert rep["max_closure_rel"] <= 1e-8


class TestMonotonePlateau:
    # eps_limit_check on a grid with sqrt(r) - 1 = 0.3: eps = 1 and 0.5
    # must decrease, eps = 0.25 and below must sit at the OHS run
    def test_strictly_decreasing(self):
        d = {1.0: 4.0, 0.5: 2.0, 0.25: 1e-9}
        assert eps_limit_check(d, 1.69)["passed"]

    def test_plateau_wiggle_allowed(self):
        d = {1.0: 4.0, 0.5: 1.0, 0.25: 1e-9, 0.125: 3e-9}
        assert eps_limit_check(d, 1.69)["passed"]

    def test_real_rise_rejected(self):
        assert not eps_limit_check({1.0: 4.0, 0.5: 1.0, 0.25: 2.0}, 1.69)["passed"]
        assert not eps_limit_check({1.0: 1.0, 0.5: 1.0 + 1e-9, 0.25: 1e-9}, 1.69)["passed"]

    def test_floor_away_from_limit_rejected(self):
        # a distance that stops falling below sqrt(r) - 1 is a mismatch of the
        # two operators, however flat
        d = {1.0: 4.0, 0.5: 1.0, 0.25: 0.0145, 0.125: 0.0145}
        check = eps_limit_check(d, 1.69)
        assert not check["passed"]
        assert check["floor"] == 0.0145
        assert eps_limit_check({0.25: 2.0 * LIMIT_TOLERANCE}, 1.69)["passed"] is False
        assert eps_limit_check({0.25: LIMIT_TOLERANCE}, 1.69)["passed"]

    def test_keys(self):
        check = eps_limit_check({0.5: 1.0, 1.0: 2.0, 0.25: 0.0}, 1.69)
        assert check == {"passed": True, "floor": 0.0, "eps_order": [1.0, 0.5, 0.25],
                         "distances": [2.0, 1.0, 0.0]}
