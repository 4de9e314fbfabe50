import json
import os
import subprocess
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest
import yaml

import gencoag
from conftest import closed_form_run, mass_report
from gencoag import ConstantKernel, cli, experiments, integrator, kernels, make_grid, operators
from gencoag.cli import _sweep_config, load_config, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
NO_STUDY = "validate runs no study: remove the [sweep] section"
COMMAND_IS = "the command must be one of simulate, sweep, check-kernel, validate,"


def schema(name):
    return json.loads(files("gencoag").joinpath(f"schemas/{name}").read_text())


def write_config(tmp_path, overrides=None, name="run.yaml"):
    cfg = {
        "run": {"model": "generalized", "eps": 0.5, "threads": 1},
        "kernel": {"family": "constant", "rate": 1.0},
        "grid": {"n": 20.0, "cells_per_decade": 12},
        "initial": {"profile": "exponential"},
        "time": {"horizon": 0.3, "snapshots": 3},
        "diagnostics": {"gauges": True, "omegas": ["one", "mass"], "lambdas": [0.5, 1.0]},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg.update(overrides or {})  # overrides replace whole sections
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def strict_json(path):
    """The JSON document at ``path``; an Infinity or NaN in it fails the test."""
    def refuse(name):
        raise AssertionError(f"{path.name} holds {name}, which JSON does not have")
    return json.loads(path.read_text(), parse_constant=refuse)


def assert_refused(tmp_path, capsys, command, section, message):
    """``command`` on the default config with ``section`` exits 1, says why, writes nothing."""
    cfg = write_config(tmp_path, section)
    assert main([command, "--config", str(cfg)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_success_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "config_echo.yaml").read_text() == cfg.read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(manifest, schema("manifest.schema.json"))
        report = json.loads((out / "report.json").read_text())
        jsonschema.validate(report, schema("report.schema.json"))
        assert len(manifest["snapshots"]) == len(manifest["times"])
        for fname in manifest["snapshots"]:
            assert (out / fname).exists()
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "t,M_neg2sigma,M_negsigma,M0,M1,Psi1,Psi2int"

    def test_initial_data_not_in_y(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "singular_product", "k": 1.0, "sigma": 0.4},
            "initial": {"profile": "singular_power", "a": 0.5},
        })
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "initial data not in Y" in capsys.readouterr().err

    def test_injected_violation_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"diagnostics": {"inject_mass_violation": True}})
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_lost_mass_fails_the_ledger_closure(self, tmp_path, capsys, monkeypatch):
        # a leak lowers M1, so the moment, gauge and equicontinuity checks
        # all pass; only the ledger M1 + outflux + clipped = M1(0) sees it
        solve = experiments.run_model

        def leaky(*args, **kwargs):
            traj = solve(*args, **kwargs)
            traj.replace_values(-1, traj[-1].values * 0.5)
            return traj

        monkeypatch.setattr(experiments, "run_model", leaky)
        assert main(["simulate", "--config", str(write_config(tmp_path))]) == 2
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in printed if line.startswith("FAIL")] == [
            "FAIL  ledger_closure: attained 0.5 vs bound 1e-08"]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        verdict = report["verdicts"][-1]
        assert verdict["name"] == "ledger_closure" and not verdict["passed"]
        assert verdict["attained"] == report["ledger"]["max_closure_rel"]
        assert verdict["bound"] == experiments.CLOSURE_TOLERANCE

    @pytest.mark.parametrize("model", ["sce", "ohs"])
    def test_eps_outside_the_generalized_model_exits_1(self, tmp_path, capsys, model):
        # the run would compute eps = 1 or 0 and report the configured value
        assert_refused(tmp_path, capsys, "simulate", {"run": {"model": model, "eps": 0.5}},
                       f"[run] eps is read only when model = generalized; model {model} "
                       "computes its own eps")

    @pytest.mark.parametrize("section", [
        {"time": {"horizon": 60.0, "snapshots": 8}},
        {"kernel": {"family": "singular_product", "k": 1000.0, "sigma": 0.2}},
    ], ids=["horizon60", "k1000"])
    def test_overflowing_gronwall_bound_fails(self, tmp_path, section):
        # exp(6 T k Theta) overflows a double; a bound of inf checks nothing,
        # so it fails and says why, and no RuntimeWarning is raised.  The
        # report stays standard JSON: the bound and margin are null
        cfg = {**yaml.safe_load((CONFIGS / "simulate_singular.yaml").read_text()), **section}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        report = strict_json(tmp_path / "out" / "report.json")
        jsonschema.validate(report, schema("report.schema.json"))
        failed = [v for v in report["verdicts"] if not v["passed"]]
        assert "psi1_moment_bound" in [v["name"] for v in failed]
        for v in failed:
            assert v["bound"] is None and v["margin"] is None
            assert "exponent overflows a double" in v["details"]["failure"]

    def test_infinite_eta_is_named_not_an_overflow(self, tmp_path, capsys, monkeypatch):
        # the table of TestCheckKernel.test_fail_exit_2: no eta exists at
        # sigma = 0.1, so the kernel lies outside the class whatever a solve
        # gives; simulate refuses it in check-kernel's words before any solve
        solves = []
        monkeypatch.setattr(experiments, "run_model", lambda *a, **k: solves.append(a))
        table = tmp_path / "kernel_table.csv"
        table.write_text("mu,nu,lambda\n0.5,0.5,1\n0.5,2,1.5\n2,0.5,1.5\n2,2,1\n")
        cfg = write_config(tmp_path, {"kernel": {"family": "user_tabulated", "path": str(table),
                                                 "sigma": 0.1}})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ("FAIL  derivative bound: eta = inf, mu_below_nu at "
                                           "(1.0, 2.0) along (0.0, 1.0) in log size\n")
        assert solves == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "validate"])
    def test_zero_initial_data_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         command):
        # zero data would pass every check vacuously, at attained 0 vs bound 0
        solves = []
        monkeypatch.setattr(experiments, "run_model", lambda *a, **k: solves.append(a))
        assert_refused(tmp_path, capsys, command,
                       {"initial": {"profile": "monodisperse", "mu0": 1.0, "mass": 0.0}},
                       "monodisperse profile needs mu0 > 0 and mass > 0")
        assert solves == []

    def test_missing_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_missing_eps_for_generalized(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"model": "generalized", "eps": None}})
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("section", [
        {"grid": {"n": float("nan"), "cells_per_decade": 12}},
        {"time": {"horizon": float("nan"), "snapshots": 3}},
        {"run": {"model": "generalized", "eps": float("nan")}},
    ])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path, section)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section", [
        ("simulate", {"grid": {"n": 20.0, "cells_per_decade": float("nan")}}),
        ("simulate", {"grid": {"n": 20.0, "cells_per_decade": 8.7}}),
        ("simulate", {"time": {"horizon": 0.3, "snapshots": float("nan")}}),
        ("simulate", {"time": {"horizon": 0.3, "snapshots": 2.5}}),
        ("simulate", {"run": {"model": "generalized", "eps": 0.5, "threads": 2.5}}),
        ("sweep", {"run": {"model": "generalized", "eps": 0.5, "threads": 1.5},
                   "sweep": {"eps_list": [1.0]}}),
    ])
    def test_non_integral_input_exits_1(self, tmp_path, capsys, command, section):
        cfg = write_config(tmp_path, section)
        assert main([command, "--config", str(cfg)]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ({"time": {"horizon": "abc"}}, "horizon must be a finite number"),
        ({"grid": {"n": "x", "cells_per_decade": 12}}, "n must be a finite number"),
        ({"run": {"model": "generalized", "eps": "abc"}}, "eps must be a finite number"),
        # YAML booleans are ints to Python, but not numbers to a config
        ({"kernel": {"family": "constant", "rate": True}}, "rate must be a finite number"),
        ({"kernel": {"family": "singular_product", "sigma": False}},
         "sigma must be a finite number"),
        ({"time": {"horizon": 0.3, "snapshots": -3}}, "snapshots must be >= 1"),
        ({"time": {"horizon": 0.3, "snapshots": 0}}, "snapshots must be >= 1"),
        ({"time": {"horizon": True, "snapshots": 3}}, "horizon must be a finite number"),
        ({"time": {"horizon": 0.3, "snapshots": True}}, "snapshots must be an integer"),
        ({"kernel": {"family": "constant", "rate": "abc"}}, "rate must be a finite number"),
        # at horizon 0 every snapshot is the initial data and every check passes
        ({"time": {"horizon": 0, "snapshots": 3}}, "horizon must be > 0"),
    ])
    def test_bad_number_exits_1(self, tmp_path, capsys, section, message):
        assert_refused(tmp_path, capsys, "simulate", section, message)

    def test_snapshot_count_checked_against_memory(self, tmp_path, capsys, monkeypatch):
        # physical memory shrunk to 2 MiB: each snapshot of the 31 cells
        # takes 16 * 31 bytes plus its objects, so 1000 fit and 2000 do not
        real = os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: 2**21 // real("SC_PAGE_SIZE") if name == "SC_PHYS_PAGES"
                            else real(name))
        solves = []
        real_run = experiments.run_model
        monkeypatch.setattr(experiments, "run_model",
                            lambda *a, **k: solves.append(a) or real_run(*a, **k))
        fits = write_config(tmp_path, {"time": {"horizon": 0.3, "snapshots": 1000}})
        assert main(["simulate", "--config", str(fits), "--out", str(tmp_path / "fits")]) == 0
        too_many = write_config(tmp_path, {"time": {"horizon": 0.3, "snapshots": 2000}})
        assert main(["simulate", "--config", str(too_many)]) == 1
        assert len(solves) == 1
        err = capsys.readouterr().err
        assert "error: 2000 snapshots of 31 cells would take" in err
        assert "physical memory; use fewer snapshots" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_initial_data_quadrature_checked_against_memory(self, tmp_path, capsys, monkeypatch,
                                                            command):
        # physical memory shrunk to 64 MiB: the grid of 260206 cells fits
        # (24 bytes a cell), but the quadrature that projects the initial
        # data onto it does not, and is refused before it is built
        real = os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: 2**26 // real("SC_PAGE_SIZE") if name == "SC_PHYS_PAGES"
                            else real(name))
        cfg = write_config(tmp_path, {"grid": {"n": 20.0, "cells_per_decade": 100000}})
        tracemalloc.start()
        try:
            assert main([command, "--config", str(cfg)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26
        err = capsys.readouterr().err
        assert "error: the quadrature of the initial data on 260206 cells would take" in err
        assert "physical memory; use fewer cells_per_decade" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, snapshots", [
        ({"n": 10.0, "cells_per_decade": 16}, 300),  # tall: 300 snapshots of 32 cells
        ({"n": 100.0, "cells_per_decade": 128}, 32),  # wide: the benchmark's 512 cells
    ])
    def test_guards_bound_the_peak_of_a_run(self, tmp_path, monkeypatch, grid, snapshots):
        # simulate on the benchmark's diagnostics-heavy config, in process
        # under tracemalloc: its peak stays within the snapshot guard's
        # estimate, which counts the snapshot block and one pair scheme
        estimates = {}
        real = operators._check_table_bytes

        def record(nbytes, what, remedy):
            estimates[what] = max(estimates.get(what, 0), nbytes)
            real(nbytes, what, remedy)

        monkeypatch.setattr(operators, "_check_table_bytes", record)
        monkeypatch.setattr(cli, "_check_table_bytes", record)
        cfg = yaml.safe_load((ROOT / "perfbench/configs/simulate_ohs_diag.yaml").read_text())
        cfg["grid"] = grid
        path = tmp_path / "run.yaml"
        # a first run in the process also pays one-time costs (lazy imports,
        # caches) that are not the run's
        cfg["time"]["snapshots"] = 1
        path.write_text(yaml.safe_dump(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "warm")]) == 0
        cfg["time"]["snapshots"] = snapshots
        path.write_text(yaml.safe_dump(cfg))
        estimates.clear()
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = make_grid(grid["n"], grid["cells_per_decade"]).size
        run = f"{snapshots} snapshots of {cells} cells"
        assert set(estimates) == {run, "the pair scheme"}
        assert estimates[run] > estimates["the pair scheme"]
        assert peak <= estimates[run]

    def test_snapshots_and_pair_scheme_checked_as_one_sum(self, tmp_path, capsys, monkeypatch):
        # the solve and the weak form hold the snapshot block and a pair
        # scheme at once: physical memory above each part but below their
        # sum refuses the run before the solve
        cfg = write_config(tmp_path, {"time": {"horizon": 0.3, "snapshots": 40}})
        grid = make_grid(20.0, 12)
        run = cli._run_bytes(40, grid.size)
        scheme = operators.scheme_bytes(grid, "generalized", ConstantKernel(1.0), 0.5)
        page = os.sysconf("SC_PAGE_SIZE")
        pages = (max(run, scheme) + run + scheme) // (2 * page)
        assert max(run, scheme) < pages * page < run + scheme
        real = os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else real(name))
        solves = []
        monkeypatch.setattr(experiments, "run_model", lambda *a, **k: solves.append(a))
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 40 snapshots of 31 cells would take")
        assert "physical memory; use fewer snapshots or cells" in err
        assert solves == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, message", [
        ({"time": {"horizn": 0.3, "snapshots": 3}}, "unknown config key time.horizn"),
        ({"time": {"horizon": 0.3, "dt_mode": "fixed"}},
         "time.dt_mode must be 'adaptive', got 'fixed'"),
        ({"time": {"horizon": 0.3, "dt": 0.01}}, "unknown config key time.dt"),
        ({"time": {"horizon": 0.3, "safety": 0.9}}, "unknown config key time.safety"),
        ({"time": {"horizon": 0.3, "max_shrink": 5}}, "unknown config key time.max_shrink"),
        ({"tim": {"horizon": 0.3}}, "unknown config section [tim]"),
        ({"time": {"horizon": 0.3, "snapshot_times": [0.1, 0.3]}},
         "unknown config key time.snapshot_times"),
        ({"diagnostics": {"gauges": False}}, "diagnostics.gauges must be True, got False"),
        ({"diagnostics": {"gauges": 1}}, "diagnostics.gauges must be True, got 1"),
    ])
    def test_unknown_key_exits_1(self, tmp_path, capsys, section, message):
        assert_refused(tmp_path, capsys, "simulate", section, message)

    @pytest.mark.parametrize("command", ["sweep", "validate", "check-kernel"])
    def test_every_command_refuses_unknown_keys(self, tmp_path, capsys, command):
        assert_refused(tmp_path, capsys, command, {"grid": {"n": 20.0, "cels_per_decade": 12}},
                       "unknown config key grid.cels_per_decade")

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml"))
                             + sorted((ROOT / "perfbench" / "configs").glob("*.yaml")),
                             ids=lambda path: f"{path.parent.parent.name}/{path.name}")
    def test_shipped_config_keys_are_accepted(self, path):
        # the benchmark runs these configs: no key change may refuse them
        assert load_config(path)

    def test_gate_self_test_config_exits_2(self, tmp_path, capsys):
        # the benchmark counts this run as caught on any nonzero exit, so
        # the bound failures it exists for are pinned here
        config = ROOT / "perfbench" / "configs" / "corrupt_mass.yaml"
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
        printed = capsys.readouterr().out
        assert "FAIL  theta_moment_bound" in printed
        assert "FAIL  moment_monotonicity" in printed
        assert "FAIL  ledger_closure" in printed

    @pytest.mark.parametrize("diagnostics", [
        {"omegas": ["one", "bump:1.0"]},
        {"omegas": ["bump:3.0:2.0"]},
        {"omegas": ["bump:.nan:2.0"]},
        {"omegas": ["bump:nan:2.0"]},
        {"omegas": ["trunc_linear:inf"]},
        {"omegas": [1.0]},
        {"omegas": "one"},
        {"lambdas": 0.5},
        {"lambdas": [0.5, 1.5]},
        {"lambdas": [1e-3]},
        {"lambdas": [float("nan")]},
        {"lambdas": [True]},
        {"inject_mass_violation": "no"},
        {"inject_mass_violation": 1},
        {"inject_mass_violation": None},
    ])
    def test_bad_diagnostics_exit_1_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                      diagnostics):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solve ran before the diagnostics settings were checked")

        monkeypatch.setattr("gencoag.experiments.run_model", no_solve)
        cfg = write_config(tmp_path, {"diagnostics": diagnostics})
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_idempotent_rerun(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "report.json").read_text()
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.json").read_text() == first

    def test_oversized_dense_problem_exits_1(self, tmp_path, capsys):
        table_path = tmp_path / "kernel_table.csv"
        table_path.write_text("mu,nu,lambda\n" + "".join(
            f"{m},{u},1.0\n" for m in (0.05, 20.0) for u in (0.05, 20.0)))
        cfg = write_config(tmp_path, {
            "run": {"model": "sce", "threads": 1},
            "kernel": {"family": "user_tabulated", "path": str(table_path),
                       "k": 1.0, "sigma": 0.0},
            "grid": {"n": 10.0, "cells_per_decade": 100_000},
        })
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "physical memory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_pair_band_exits_1(self, tmp_path, capsys):
        # ~1.5e9 band pairs at eps = 1: refused before the band is allocated
        cfg = write_config(tmp_path, {
            "run": {"model": "sce", "threads": 1},
            "grid": {"n": 10.0, "cells_per_decade": 100_000},
        })
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "physical memory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSimulateVariants:
    def test_ohs_model(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"model": "ohs", "threads": 1}})
        assert main(["simulate", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["model"] == "ohs" and report["eps"] is None

    def test_generalized_eps_zero_is_ohs(self, tmp_path):
        runs = {}
        for label, run in (("ohs", {"model": "ohs"}),
                           ("eps0", {"model": "generalized", "eps": 0})):
            out = tmp_path / label
            cfg = write_config(tmp_path, {"run": {**run, "threads": 1},
                                          "output": {"directory": str(out)}}, f"{label}.yaml")
            assert main(["simulate", "--config", str(cfg)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            runs[label] = [(out / name).read_bytes() for name in manifest["snapshots"]]
        assert runs["eps0"] == runs["ohs"]
        assert json.loads((tmp_path / "eps0" / "report.json").read_text())["eps"] == 0.0

    def test_monodisperse_profile(self, tmp_path, capsys):
        # all but one cell are zero: both gauges are still built and checked
        cfg = write_config(tmp_path, {
            "initial": {"profile": "monodisperse", "mu0": 2.0, "mass": 1.0},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "PASS  psi1_moment_bound" in printed
        assert "PASS  psi2_uniform_integrability" in printed

    def test_singular_power_profile(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "singular_product", "k": 1.0, "sigma": 0.2},
            "initial": {"profile": "singular_power", "a": 0.3},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0

    def test_tabulated_kernel_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "user_tabulated", "path": str(_unit_table(tmp_path)),
                       "k": 1.0, "sigma": 0.0},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0

    def test_tabulated_kernel_unknown_parameter_exits_1(self, tmp_path, capsys):
        assert_refused(tmp_path, capsys, "simulate", {
            "kernel": {"family": "user_tabulated", "path": str(_unit_table(tmp_path)),
                       "bogus": 1},
        }, "bad kernel parameters for family 'user_tabulated'")

    @pytest.mark.parametrize("row", ["1,1,abc", "1,1", "1,1,nan"])
    def test_tabulated_kernel_bad_row_exits_1(self, tmp_path, capsys, row):
        path = _unit_table(tmp_path)
        path.write_text(path.read_text() + row + "\n")
        assert_refused(tmp_path, capsys, "simulate", {
            "kernel": {"family": "user_tabulated", "path": str(path)},
        }, f"{path} line 258: expected three finite numbers, got {row!r}")

    def test_kernel_above_its_sup_bound_exits_1(self, tmp_path, capsys):
        # a table of 1e9 proves k = 1e9: a config that sets k = 1 understates it
        path = _unit_table(tmp_path, value=1e9)
        assert_refused(tmp_path, capsys, "simulate", {
            "kernel": {"family": "user_tabulated", "path": str(path), "k": 1.0},
        }, "kernel.k must be 1000000000.0, got 1.0: family user_tabulated proves its own k")


def _unit_table(tmp_path, value=1.0):
    """A CSV table of the constant kernel ``value`` on 16 log-spaced nodes."""
    import numpy as np

    nodes = np.geomspace(0.05, 20.0, 16)
    table_path = tmp_path / "kernel_table.csv"
    with open(table_path, "w") as fh:
        fh.write("mu,nu,lambda\n")
        for m in nodes:
            for u in nodes:
                fh.write(f"{m:.17g},{u:.17g},{value!r}\n")
    return table_path


class TestCheckKernel:
    def test_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"kernel": {"family": "singular_product", "k": 1.0, "sigma": 0.2}})
        assert main(["check-kernel", "--config", str(cfg), "--seed", "3"]) == 0
        payload = json.loads((tmp_path / "out" / "kernel_cert.json").read_text())
        jsonschema.validate(payload, schema("kernel_cert.schema.json"))
        assert payload["passed"]
        assert (payload["sigma"], payload["k"], payload["eta"]) == (0.2, 1.0, 0.2)

    def test_fail_exit_2(self, tmp_path, capsys):
        # clamped beyond its top node, this table falls in mu at every large
        # nu, where eta (mu nu)^(-sigma) -> 0: no eta exists at sigma = 0.1
        path = tmp_path / "kernel_table.csv"
        path.write_text("mu,nu,lambda\n0.5,0.5,1\n0.5,2,1.5\n2,0.5,1.5\n2,2,1\n")
        cfg = write_config(tmp_path, {"kernel": {"family": "user_tabulated", "path": str(path),
                                                 "sigma": 0.1}})
        assert main(["check-kernel", "--config", str(cfg)]) == 2
        assert "FAIL  derivative bound: eta = inf, mu_below_nu at (1.0, 2.0) along (0.0, 1.0) in log size" \
            in capsys.readouterr().out
        payload = json.loads((tmp_path / "out" / "kernel_cert.json").read_text())
        jsonschema.validate(payload, schema("kernel_cert.schema.json"))
        assert not payload["passed"] and payload["growth"]["passed"]
        assert payload["eta"] is None and payload["derivative"]["regimes"][0]["supremum"] is None

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_supremum_on_a_regime_corner_fails(self, tmp_path, capsys, seed):
        # Lambda = mu + nu proves k = 2, attained at mu = nu = 1, where random
        # samples never land: a config that sets k = 1.9 is refused
        assert_refused(tmp_path, capsys, "check-kernel", {"kernel": {"family": "additive", "k": 1.9}},
                       "kernel.k must be 2.0, got 1.9: family additive proves its own k")

    @pytest.mark.parametrize("kernel, constants", [
        ({"family": "constant", "rate": 1.0}, (1.0, 0.0)),
        ({"family": "singular_product", "k": 1.0, "sigma": 0.2}, (1.0, 0.2)),
        ({"family": "additive", "k": 2.0}, (2.0, 0.0)),
    ], ids=["constant", "singular_product", "additive"])
    def test_stock_families_pass_with_their_corners(self, tmp_path, capsys, kernel, constants):
        # the certificate reads no seed: every seed writes the same bytes
        cfg = write_config(tmp_path, {"kernel": kernel})
        runs = set()
        for seed in ([], ["--seed", "0"], ["--seed", "1"], ["--seed", "2"]):
            assert main(["check-kernel", "--config", str(cfg), *seed]) == 0
            runs.add((capsys.readouterr().out, (tmp_path / "out" / "kernel_cert.json").read_text()))
        assert len(runs) == 1
        out, text = runs.pop()
        payload = json.loads(text)
        assert (payload["k"], payload["eta"]) == constants
        assert out.startswith(f"PASS  growth bound: k = {constants[0]:g}, small_small at (1.0, 1.0)\n")
        small = payload["growth"]["regimes"][0]
        assert small == {"name": "small_small", "supremum": constants[0], "point": [1.0, 1.0],
                         "ray": None}

    @pytest.mark.parametrize("value", ["no", "true", 0, 1, None])
    def test_allow_large_sigma_must_be_a_boolean(self, tmp_path, capsys, value):
        # a YAML string such as "no" is truthy: it must not switch off the
        # sigma >= 1/2 guard
        kernel = {"family": "singular_product", "k": 1.0, "sigma": 0.6}
        assert_refused(tmp_path, capsys, "check-kernel",
                       {"kernel": {**kernel, "allow_large_sigma": value}},
                       f"allow_large_sigma must be true or false, got {value!r}")

    def test_allow_large_sigma_true_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"kernel": {"family": "singular_product", "k": 1.0,
                                                 "sigma": 0.6, "allow_large_sigma": True}})
        assert main(["check-kernel", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("fd_step", [float("nan"), float("inf"), 0, -1, 100])
    def test_bad_fd_step_exits_1(self, tmp_path, capsys, fd_step):
        # the scan is fixed: a [certify] section is refused whatever it sets
        assert_refused(tmp_path, capsys, "check-kernel",
                       {"certify": {"fd_step": fd_step, "sample_count": 200}},
                       "unknown config section [certify]")


def _force_first_step_failure(monkeypatch):
    """Every run tries a first step of 100 and may not reject it: a StiffnessError."""
    monkeypatch.setattr(integrator, "_starting_step", lambda *args: 100.0)
    monkeypatch.setattr(integrator, "MAX_SHRINK", 0)


class TestSweep:
    def test_small_eps_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep": {"eps_sweep": True, "eps_list": [1.0, 0.5, 0.25, 0.125]},
            "time": {"horizon": 0.3},
        })
        assert main(["sweep", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, schema("summary.schema.json"))
        rows = (out / "distances_eps.csv").read_text().strip().splitlines()
        assert rows[0] == "eps,n,time,distance"
        # one row per member per snapshot time (t = 0 and the horizon)
        assert len(rows) == 1 + 2 * 4

    def test_schema_pins_eps_check_keys(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {"eps_sweep": True, "eps_list": [1.0, 0.5]}})
        assert main(["sweep", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        check = summary["checks"]["eps_monotone_n20"]
        for key, bad in (("floor", None), ("floor", "0.1"), ("passed", None), ("passed", 1)):
            broken = dict(check)
            if bad is None:
                broken.pop(key)
            else:
                broken[key] = bad
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**summary, "checks": {"eps_monotone_n20": broken}},
                                    schema("summary.schema.json"))

    def test_n_sweep_path(self, tmp_path):
        # lattice-aligned n values: 10^(m/12) for m = 8, 12, 16
        cfg = write_config(tmp_path, {
            "sweep": {"eps_sweep": False, "n_sweep": True, "eps_list": [0.5],
                      "n_list": [4.641588833612779, 10.0, 21.544346900318832]},
        })
        assert main(["sweep", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        rows = (out / "distances_n.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 successive-n comparisons
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["n_cauchy"]["passed"]

    def test_failed_members_are_typed(self, tmp_path, monkeypatch):
        # a first step far too large, with no rejection allowed: every
        # member of the n sweep fails its first step
        _force_first_step_failure(monkeypatch)
        cfg = write_config(tmp_path, {
            "sweep": {"eps_sweep": False, "n_sweep": True, "eps_list": [0.5],
                      "n_list": [4.641588833612779, 10.0]},
            "time": {"horizon": 100.0},
        })
        assert main(["sweep", "--config", str(cfg)]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        jsonschema.validate(summary, schema("summary.schema.json"))
        errors = [m["error"] for m in summary["failed_members"]]
        assert len(errors) == 2
        for error in errors:
            assert error["type"] == "StiffnessError" and error["message"].startswith("step rejected")
            assert error["time"] == 0.0 and error["dt"] == 100.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**summary, "failed_members": [{"eps": 0.5, "n": 10.0,
                                                                "error": "StiffnessError()"}]},
                                schema("summary.schema.json"))

    def test_failed_reference_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        _force_first_step_failure(monkeypatch)
        cfg = write_config(tmp_path, {
            "sweep": {"eps_sweep": True, "eps_list": [1.0, 0.5]},
            "time": {"horizon": 100.0},
        })
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "error: step rejected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep", "validate", "simulate", "check-kernel"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_flag_below_one_exits_1(self, tmp_path, capsys, command, threads):
        cfg = write_config(tmp_path, {"sweep": {"eps_list": [1.0, 0.5]}})
        assert main([command, "--config", str(cfg), "--threads", threads]) == 1
        assert f"error: threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_config_threads_below_one_exits_1(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, {
            "run": {"model": "generalized", "eps": 0.5, "threads": threads},
            "sweep": {"eps_list": [1.0, 0.5]},
        })
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert f"error: threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "validate", "check-kernel"])
    @pytest.mark.parametrize("threads", [0, -3])
    def test_run_threads_below_one_exits_1(self, tmp_path, capsys, command, threads):
        cfg = write_config(tmp_path, {"run": {"model": "sce", "threads": threads}})
        assert main([command, "--config", str(cfg)]) == 1
        assert f"error: threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, message", [
        ({"time": {"horizon": "abc"}}, "horizon must be a finite number"),
        ({"grid": {"n": "x", "cells_per_decade": 12}}, "n must be a finite number"),
        ({"sweep": {"eps_list": "abc"}}, "eps_list must be a list"),
        ({"sweep": {"eps_list": [0.5, "abc"]}}, "eps_list must be a finite number"),
        ({"sweep": {"n_list": ["x"]}}, "n_list must be a finite number"),
        ({"sweep": {"eps_list": []}}, "eps_list and n_list must not be empty"),
        ({"sweep": {"n_list": []}}, "eps_list and n_list must not be empty"),
        ({"sweep": {"eps_list": [True]}}, "eps_list must be a finite number"),
        ({"time": {"horizon": 0}}, "horizon must be > 0"),
    ])
    def test_bad_number_exits_1(self, tmp_path, capsys, section, message):
        assert_refused(tmp_path, capsys, "sweep", section, message)

    @pytest.mark.parametrize("command", ["simulate", "sweep", "validate", "check-kernel"])
    @pytest.mark.parametrize("directory", [5, None, ["out"]])
    def test_non_string_output_directory_exits_1_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, directory):
        work = []
        monkeypatch.setattr(experiments, "run_model", lambda *a, **k: work.append(a))
        monkeypatch.setattr(kernels.PowerSumKernel, "_suprema", lambda self: work.append(self))
        monkeypatch.chdir(tmp_path)
        assert_refused(tmp_path, capsys, command, {"output": {"directory": directory}},
                       f"output.directory must be a string, got {directory!r}")
        assert work == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    @pytest.mark.parametrize("command, config", [("simulate", "simulate_singular.yaml"),
                                                 ("sweep", "sweep_eps.yaml")])
    def test_grid_larger_than_memory_exits_1(self, tmp_path, capsys, command, config):
        cfg = yaml.safe_load((CONFIGS / config).read_text())
        cfg["grid"]["cells_per_decade"] = 10**12
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a grid of ") and err.count("\n") == 1
        assert "physical memory; use fewer cells_per_decade" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"eps_sweep": "no"}, "eps_sweep must be true or false, got 'no'"),
        ({"eps_sweep": 1}, "eps_sweep must be true or false, got 1"),
        ({"n_sweep": "yes", "n_list": [10.0, 20.0]}, "n_sweep must be true or false, got 'yes'"),
        ({"n_sweep": None}, "n_sweep must be true or false, got None"),
        ({"eps_sweep": False}, "sweep runs no study: eps_sweep and n_sweep are both false"),
        ({"eps_sweep": False, "n_sweep": False}, "sweep runs no study"),
        ({"n_sweep": True}, "n_sweep needs at least two n_list values, got [20.0]"),
        ({"eps_sweep": False, "n_sweep": True, "n_list": [10.0]},
         "n_sweep needs at least two n_list values, got [10.0]"),
        ({"eps_list": [0.5, 0.25, 0.5]}, "eps_list repeats a value: [0.5, 0.25, 0.5]"),
        ({"n_list": [30.0, 30.0]}, "n_list repeats a value: [30.0, 30.0]"),
        ({"n_sweep": True, "n_list": [30.0, 30.0]}, "n_list repeats a value: [30.0, 30.0]"),
        ({"n_sweep": True, "n_list": [50.0, 20.0, 10.0]},
         "n_sweep needs n_list in increasing order, got [50.0, 20.0, 10.0]"),
    ])
    def test_refused_sweep_runs_no_solve(self, tmp_path, capsys, monkeypatch, sweep, message):
        calls = []
        monkeypatch.setattr(experiments, "run_model", lambda *a, **k: calls.append(a))
        assert_refused(tmp_path, capsys, "sweep", {"sweep": {"eps_list": [1.0, 0.5], **sweep}},
                       message)
        assert calls == []

    def test_each_distinct_run_solved_once(self, tmp_path, monkeypatch):
        # sweep_eps.yaml: the OHS run and the five eps at or above sqrt(r) - 1
        # = 0.037; the six below read the OHS run
        calls = []
        real = experiments.run_model

        def run_model(model, *args, **kwargs):
            calls.append((model, kwargs.get("eps")))
            return real(model, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_model", run_model)
        assert main(["sweep", "--config", str(CONFIGS / "sweep_eps.yaml"),
                     "--out", str(tmp_path), "--threads", "2"]) == 0
        assert calls == [("ohs", None)] + [("generalized", 2.0**-i) for i in range(5)]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["passed"] and len(summary["checks"]["eps_monotone_n50"]["distances"]) == 11

    def test_both_studies_share_their_runs(self, tmp_path, monkeypatch):
        # sweep_eps.yaml's kernel and grid: per n the OHS run, 0.5 and 0.25;
        # 0.01 lies below sqrt(r) - 1 = 0.037 and reads the OHS run.  The
        # n-study reads the eps-study's runs at 0.5: 9 solves with both
        # studies, not 12, and each study writes what it writes alone
        calls = []
        real = experiments.run_model
        monkeypatch.setattr(experiments, "run_model",
                            lambda model, *a, **k: calls.append(model) or real(model, *a, **k))
        base = yaml.safe_load((CONFIGS / "sweep_eps.yaml").read_text())
        lists = {"n_list": [10.0, 20.0, 50.0], "eps_list": [0.5, 0.25, 0.01]}
        solves = {}
        for name, eps_sweep, n_sweep in (("both", True, True), ("eps", True, False),
                                         ("n", False, True)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(
                {**base, "sweep": {**lists, "eps_sweep": eps_sweep, "n_sweep": n_sweep}}))
            calls.clear()
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path / name)]) == 0
            solves[name] = len(calls)
        assert solves == {"both": 9, "eps": 9, "n": 3}
        for name in ("eps", "n"):
            csv = f"distances_{name}.csv"
            assert (tmp_path / "both" / csv).read_bytes() == (tmp_path / name / csv).read_bytes()
        summary = {name: json.loads((tmp_path / name / "summary.json").read_text())
                   for name in ("both", "eps", "n")}
        assert summary["both"]["checks"] == {**summary["eps"]["checks"], **summary["n"]["checks"]}
        assert summary["both"]["passed"] and summary["both"]["failed_members"] == []

    def test_deterministic_output(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep": {"eps_sweep": True, "eps_list": [1.0, 0.5]},
            "run": {"threads": 2, "model": "generalized", "eps": 0.5},
        })
        assert main(["sweep", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "distances_eps.csv").read_text()
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "distances_eps.csv").read_text() == first


class TestValidate:
    @pytest.mark.parametrize("key", ["sce_tolerance", "m0_tolerance", "closure_tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3, "tight"])
    def test_bad_tolerance_exits_1(self, tmp_path, capsys, key, value):
        # the tolerances are fixed: a [validate] section is refused whatever it sets
        assert_refused(tmp_path, capsys, "validate", {"validate": {key: value}},
                       "unknown config section [validate]")

    @pytest.mark.parametrize("section, message", [
        ({"time": {"horizon": "abc"}}, "horizon must be a finite number"),
        ({"grid": {"n": "x", "cells_per_decade": 12}}, "n must be a finite number"),
        ({"sweep": {"eps_list": "abc"}}, NO_STUDY),
        ({"sweep": {"n_list": []}}, NO_STUDY),
        ({"time": {"horizon": True}}, "horizon must be a finite number"),
        ({"time": {"horizon": 0}}, "horizon must be > 0"),
        # validate reads the first n only: a second one would go unchecked
        ({"sweep": {"n_list": [100.0, 200.0]}}, NO_STUDY),
    ])
    def test_bad_number_exits_1(self, tmp_path, capsys, section, message):
        assert_refused(tmp_path, capsys, "validate", section, message)

    def test_refused_run_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "DIR"
        assert main(["validate", "--config", str(CONFIGS / "simulate_singular.yaml"),
                     "--out", str(out)]) == 1
        assert "error: analytic validation requires the constant kernel" in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_config_time_error(self, tmp_path):
        # default tolerance: the M0 law holds to 1.25e-8 on every model and
        # the mass ledger closes to rounding
        assert main(["validate", "--config", str(CONFIGS / "validate_constant.yaml"),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "validate.json").read_text())
        m0 = [e for m in payload["m0_riccati"]["models"].values() for e in m["errors"].values()]
        assert max(m0) <= 1.25e-8
        assert payload["mass_conservation"]["max_closure_rel"] <= 1e-15

    @pytest.fixture(scope="class")
    def shipped(self, tmp_path_factory):
        """validate on the shipped config, counting run_model calls; and its config."""
        out = tmp_path_factory.mktemp("validate")
        calls = []
        real = experiments.run_model

        def run_model(model, *args, **kwargs):
            calls.append((model, kwargs.get("eps")))
            return real(model, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "run_model", run_model)
            assert main(["validate", "--config", str(CONFIGS / "validate_constant.yaml"),
                         "--out", str(out)]) == 0
        payload = json.loads((out / "validate.json").read_text())
        config = _sweep_config(load_config(CONFIGS / "validate_constant.yaml"))
        return payload, calls, config

    def test_each_distinct_ode_solved_once(self, shipped):
        payload, calls, _ = shipped
        # one run per computed eps of the M0 rows: sce (also eps = 1), ohs
        # (also eps = 0.01, below sqrt(r) - 1 = 0.037 of 32 cells/decade), 0.25
        assert calls == [("sce", None), ("ohs", None), ("generalized", 0.25)]
        models = payload["m0_riccati"]["models"]
        assert models["generalized_eps1"] == models["sce"]
        assert models["generalized_eps0.01"] == models["ohs"]

    def test_mass_report_reads_the_shared_run(self, shipped):
        payload, _, config = shipped
        alone = {"model": "sce", "eps": None, **mass_report(config, "sce")}
        block = payload["mass_conservation"]
        assert {k: v for k, v in block.items() if k not in ("tolerance", "passed")} == alone

    def test_sce_errors_match_a_separate_run(self, shipped):
        payload, _, config = shipped
        alone = experiments.validate_sce_constant_kernel(config, closed_form_run(config))
        shared = {float(t): e for t, e in payload["sce_analytic"]["errors"].items()}
        assert shared.keys() == alone.keys()
        for t, e in alone.items():
            assert shared[t] == pytest.approx(e, rel=1e-6)

    def test_m0_rows_read_the_runs_of_the_other_checks(self, tmp_path, monkeypatch):
        # rows that compute the same eps read one run, and the sce row reads
        # the run that the closed-form check and the mass report read
        solved, reads = [], {}
        real_run = experiments.run_model
        monkeypatch.setattr(experiments, "run_model",
                            lambda *a, **k: solved.append(real_run(*a, **k)) or solved[-1])
        for name in ("validate_sce_constant_kernel", "validate_m0_riccati",
                     "mass_conservation_report"):
            def reader(config, traj, _real=getattr(experiments, name), _name=name):
                reads.setdefault(_name, []).append(traj)
                return _real(config, traj)

            monkeypatch.setattr(experiments, name, reader)
        assert main(["validate", "--config", str(CONFIGS / "validate_constant.yaml"),
                     "--out", str(tmp_path)]) == 0
        sce, ohs, quarter = solved
        assert reads["validate_sce_constant_kernel"] == [sce]
        assert reads["mass_conservation_report"] == [sce]
        assert [id(t) for t in reads["validate_m0_riccati"]] == [
            id(sce), id(ohs), id(sce), id(quarter), id(ohs)]
        models = json.loads((tmp_path / "validate.json").read_text())["m0_riccati"]["models"]
        assert models["generalized_eps1"] == models["sce"] != models["ohs"]
        assert models["generalized_eps0.01"] == models["ohs"]

    def test_failed_solve_exits_1(self, tmp_path, capsys, monkeypatch):
        _force_first_step_failure(monkeypatch)
        cfg = write_config(tmp_path, {"time": {"horizon": 2.0}})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "error: step rejected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_above_its_moment_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        # validate's runs get the weighted-moment bound check the sweeps get
        real = experiments.make_rhs

        def make_rhs(model, kernel, eps=None):
            rhs = real(model, kernel, eps)

            def sourced(density):
                dzdt, outflux = rhs(density)
                return dzdt + 1.0, outflux
            return sourced

        monkeypatch.setattr(experiments, "make_rhs", make_rhs)
        cfg = write_config(tmp_path, {"time": {"horizon": 2.0}})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "error: moment bound violated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rate_two_kernel_passes(self, tmp_path):
        # the M0 law carries the rate: 2 M0(0) / (2 + rate M0(0) t)
        cfg = write_config(tmp_path, {
            "kernel": {"family": "constant", "rate": 2.0},
            "grid": {"n": 100.0, "cells_per_decade": 32},
            "time": {"horizon": 2.0},
        })
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "validate.json").read_text())
        assert payload["passed"]
        m0 = [e for m in payload["m0_riccati"]["models"].values() for e in m["errors"].values()]
        assert max(m0) <= 1.25e-8
        assert max(payload["sce_analytic"]["errors"].values()) <= experiments.SCE_TOLERANCE

    @pytest.mark.parametrize("section", [
        {"initial": {"profile": "monodisperse", "mu0": 1.0, "mass": 1.0}},
    ], ids=["monodisperse"])
    def test_refused_config_runs_no_solve(self, tmp_path, capsys, monkeypatch, section):
        # monodisperse data fit neither closed form
        cfg = write_config(tmp_path, section)
        calls = []
        monkeypatch.setattr(experiments, "run_model", lambda *a, **k: calls.append(a))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "error: " in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_validate_fast_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "constant", "rate": 1.0},
            "grid": {"n": 30.0, "cells_per_decade": 16},
            "time": {"horizon": 2.0},
        })
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "validate.json").read_text())
        jsonschema.validate(payload, schema("validate.schema.json"))
        assert payload["passed"]
        assert [payload[check]["tolerance"] for check in
                ("sce_analytic", "m0_riccati", "mass_conservation")] == [2e-2, 1e-3, 1e-8]
        assert set(payload["m0_riccati"]["models"]) == {
            "sce", "ohs", "generalized_eps1", "generalized_eps0.25", "generalized_eps0.01",
        }


class TestCommandLine:
    """The argument parser: exit 1 on a malformed command line, 2 is kept for failed bounds."""

    @pytest.mark.parametrize("argv, message", [
        ([], f"{COMMAND_IS} got none"),
        (["simulat", "--config", "{cfg}"], f"{COMMAND_IS} got 'simulat'"),
        (["--config", "{cfg}"], f"{COMMAND_IS} got '--config'"),
        (["simulate", "--config", "{cfg}", "--verbose"], "unknown option '--verbose'"),
        (["simulate", "--config", "{cfg}", "extra"], "unknown option 'extra'"),
        (["simulate", "--conf", "{cfg}"], "unknown option '--conf'"),  # no abbreviations
        (["simulate", "--config", "{cfg}", "--config", "{cfg}"],
         "option --config is given twice"),
        (["simulate", "--config", "{cfg}", "--seed=1", "--seed", "2"],
         "option --seed is given twice"),
        (["simulate", "--config"], "option --config needs a value"),
        (["simulate", "--config", "{cfg}", "--out"], "option --out needs a value"),
        (["simulate", "--out", "--config", "{cfg}"], "option --out needs a value"),
        (["simulate", "--config", "{cfg}", "--threads", "x"],
         "--threads must be an integer, got 'x'"),
        (["simulate", "--config", "{cfg}", "--threads=1.5"],
         "--threads must be an integer, got '1.5'"),
        (["check-kernel", "--config", "{cfg}", "--seed", "x"],
         "--seed must be an integer, got 'x'"),
        (["check-kernel", "--config", "{cfg}", "--seed", "1.5"],
         "--seed must be an integer, got '1.5'"),
        (["check-kernel", "--config", "{cfg}", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["simulate"], "option --config is required"),
        (["sweep", "--out", "{out}"], "option --config is required"),
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path)
        argv = [a.format(cfg=cfg, out=tmp_path / "out") for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n{cli.USAGE}\n")
        assert not (tmp_path / "out").exists()

    def test_equals_form_runs_like_the_spaced_form(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a"),
                     "--threads", "1"]) == 0
        assert main(["simulate", f"--config={cfg}", f"--out={tmp_path / 'b'}", "--threads=1"]) == 0
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["simulate", "--config", "x", "-h"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out == cli.USAGE + "\n"

    def test_main_reads_sys_argv(self, tmp_path, monkeypatch):
        # the console script calls main() with no arguments
        cfg = write_config(tmp_path)
        monkeypatch.setattr(sys, "argv", ["gencoag", "check-kernel", "--config", str(cfg)])
        assert main() == 0
        assert (tmp_path / "out" / "kernel_cert.json").exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_config_that_is_not_text_exits_1(self, tmp_path, capsys, command):
        # PyYAML decodes the bytes itself, so undecodable text is a YAML error
        path = tmp_path / "run.yaml"
        path.write_bytes(b"run:\n  model: \xff\xfe\n")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: YAML parse error: ") and "#x00ff" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code, stream, start", [
        (["--help"], 0, "stdout", "usage: gencoag "),
        (["simulate", "--config", "{cfg}", "--threads", "x"], 1, "stderr",
         "error: --threads must be an integer, got 'x'"),
    ])
    def test_module_entry_point(self, tmp_path, argv, code, stream, start):
        # the benchmark and users run the CLI as a program, not in process
        argv = [a.format(cfg=write_config(tmp_path)) for a in argv]
        src = str(Path(gencoag.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "gencoag.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path)
        assert done.returncode == code
        assert getattr(done, stream).startswith(start)
        assert not (tmp_path / "out").exists()


def test_start_up_loads_no_pool_and_no_numpy_polynomial():
    # a fresh interpreter imports the CLI and projects initial data: no
    # command starts a process pool, and the quadrature rule is a table,
    # so concurrent.futures, multiprocessing and numpy.polynomial stay unloaded
    probe = ("import sys, gencoag.cli\n"
             "from gencoag.sizedomain import ExponentialProfile, make_grid, sample_initial\n"
             "sample_initial(ExponentialProfile(), make_grid(10.0, 8))\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('concurrent', 'multiprocessing') or m.startswith('numpy.polynomial')))")
    src = str(Path(gencoag.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_start_up_loads_no_argument_parser_dataclasses_or_csv():
    # the CLI parses its own flags, the result records are NamedTuples and
    # only the tabulated kernel's reader imports csv
    probe = ("import sys, gencoag.cli\n"
             "assert gencoag.cli.main(['--help']) == 0\n"
             "print(sorted(m for m in ('argparse', 'gettext', 'dataclasses', 'csv') "
             "if m in sys.modules))")
    src = str(Path(gencoag.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "[]"


def test_check_kernel_loads_no_random_generator(tmp_path):
    # the certificate is closed form: no command draws a random number
    probe = ("import sys, gencoag.cli\n"
             "code = gencoag.cli.main(['check-kernel', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
             "print(code, 'numpy.random' in sys.modules)")
    src = str(Path(gencoag.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", probe, str(CONFIGS / "simulate_singular.yaml"),
                           str(tmp_path)], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines()[-1] == "0 False"
