import json
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest
import yaml

from gencoag.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_missing_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_missing_eps_for_generalized(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"model": "generalized", "eps": None}})
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("section", [
        {"grid": {"n": float("nan"), "cells_per_decade": 12}},
        {"time": {"horizon": float("nan"), "snapshots": 3}},
        {"time": {"horizon": 0.3, "snapshots": 3, "dt": float("nan")}},
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
        ("simulate", {"time": {"horizon": 0.3, "snapshots": 3, "max_shrink": float("nan")}}),
        ("sweep", {"run": {"model": "generalized", "eps": 0.5, "threads": 1.5},
                   "sweep": {"eps_list": [1.0]}}),
        ("check-kernel", {"certify": {"sample_count": 2.5}}),
    ])
    def test_non_integral_input_exits_1(self, tmp_path, capsys, command, section):
        cfg = write_config(tmp_path, section)
        assert main([command, "--config", str(cfg)]) == 1
        assert "must be an integer" in capsys.readouterr().err

    def test_fixed_mode_without_dt_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"time": {"horizon": 0.3, "snapshots": 3, "dt_mode": "fixed"}})
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "error: dt_mode fixed requires a positive dt" in capsys.readouterr().err
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
            "run": {"model": "ohs", "threads": 1},
            "kernel": {"family": "user_tabulated", "path": str(table_path),
                       "k": 1.0, "sigma": 0.0},
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

    def test_monodisperse_profile(self, tmp_path):
        cfg = write_config(tmp_path, {
            "initial": {"profile": "monodisperse", "mu0": 2.0, "mass": 1.0},
            "diagnostics": {"gauges": False},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0

    def test_singular_power_profile(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "singular_product", "k": 1.0, "sigma": 0.2},
            "initial": {"profile": "singular_power", "a": 0.3},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0

    def test_tabulated_kernel_round_trip(self, tmp_path):
        import numpy as np

        nodes = np.geomspace(0.05, 20.0, 16)
        table_path = tmp_path / "kernel_table.csv"
        with open(table_path, "w") as fh:
            fh.write("mu,nu,lambda\n")
            for m in nodes:
                for u in nodes:
                    fh.write(f"{m:.17g},{u:.17g},1.0\n")
        cfg = write_config(tmp_path, {
            "kernel": {"family": "user_tabulated", "path": str(table_path),
                       "k": 1.0, "sigma": 0.0},
        })
        assert main(["simulate", "--config", str(cfg)]) == 0


class TestCheckKernel:
    def test_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"kernel": {"family": "singular_product", "k": 1.0, "sigma": 0.2}})
        assert main(["check-kernel", "--config", str(cfg), "--seed", "3"]) == 0
        payload = json.loads((tmp_path / "out" / "kernel_cert.json").read_text())
        jsonschema.validate(payload, schema("kernel_cert.schema.json"))
        assert payload["passed"]

    def test_fail_exit_2(self, tmp_path):
        # additive kernel with understated growth constant k = 1 < 2
        cfg = write_config(tmp_path, {"kernel": {"family": "additive", "k": 1.0}})
        assert main(["check-kernel", "--config", str(cfg)]) == 2


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

    def test_failed_members_are_typed(self, tmp_path):
        # a fixed dt far too large, with no halving allowed: every member of
        # the n sweep fails its first step
        cfg = write_config(tmp_path, {
            "sweep": {"eps_sweep": False, "n_sweep": True, "eps_list": [0.5],
                      "n_list": [4.641588833612779, 10.0]},
            "time": {"horizon": 100.0, "dt_mode": "fixed", "dt": 100.0, "max_shrink": 0},
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

    def test_failed_reference_leaves_no_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "sweep": {"eps_sweep": True, "eps_list": [1.0, 0.5]},
            "time": {"horizon": 100.0, "dt_mode": "fixed", "dt": 100.0, "max_shrink": 0},
        })
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "error: step rejected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        cfg = write_config(tmp_path, {"validate": {key: value}})
        assert main(["validate", "--config", str(cfg)]) == 1
        assert f"error: {key} must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "validate.json").exists()

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

    def test_validate_fast_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "kernel": {"family": "constant", "rate": 1.0},
            "grid": {"n": 30.0, "cells_per_decade": 16},
            "time": {"horizon": 2.0},
            "validate": {
                "sce_tolerance": 2.0e-2,
                "m0_tolerance": 1.0e-3,
                "closure_tolerance": 1.0e-8,
            },
        })
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "validate.json").read_text())
        jsonschema.validate(payload, schema("validate.schema.json"))
        assert payload["passed"]
        assert set(payload["m0_riccati"]["models"]) == {
            "sce", "ohs", "generalized_eps1", "generalized_eps0.25", "generalized_eps0.01",
        }
