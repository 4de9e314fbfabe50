"""Command-line front end.

Four commands, all driven by a single YAML config file that is echoed
verbatim into the output directory for reproducibility:

    gencoag simulate     --config run.yaml [--out DIR] [--threads N] [--seed S]
    gencoag sweep        --config run.yaml ...
    gencoag check-kernel --config run.yaml ...
    gencoag validate     --config run.yaml ...

Exit codes: 0 success, 1 configuration or runtime error, 2 a run completed
but an enabled bound check failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import yaml

from . import diagnostics as diag
from . import experiments as exp
from . import testfuncs
from .errors import GencoagError
from .gauges import build_gauge_from_tail, psi1_tail, psi2_tail, write_gauge_csv
from .integrator import DtPolicy
from .kernels import certify_derivative, certify_growth, kernel_from_config, truncate
from .sizedomain import (
    ExponentialProfile,
    MonodisperseProfile,
    SingularPowerProfile,
    make_grid,
    sample_initial,
    write_snapshot_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAIL = 2


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


def load_config(path):
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise GencoagError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise GencoagError(f"{path}: YAML parse error: {exc}")
    if not isinstance(cfg, dict):
        raise GencoagError(f"{path}: top level must be a mapping")
    return cfg


def _int(sec, key, default):
    """``sec[key]`` as an int; NaN, inf, 2.5 or a non-number is a GencoagError."""
    value = sec.get(key, default)
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise GencoagError(f"{key} must be an integer, got {value!r}")


def _float(sec, key, default):
    """``sec[key]`` as a finite float >= 0; NaN, inf, a negative or a non-number is a GencoagError."""
    value = sec.get(key, default)
    if isinstance(value, (int, float)) and 0.0 <= value < np.inf:
        return float(value)
    raise GencoagError(f"{key} must be a finite number >= 0, got {value!r}")


def _section(cfg, name, required=True):
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise GencoagError(f"config section [{name}] is missing")
        return {}
    if not isinstance(sec, dict):
        raise GencoagError(f"config section [{name}] must be a mapping")
    return sec


def build_profile(cfg, sigma):
    sec = _section(cfg, "initial")
    name = sec.get("profile", "exponential")
    if name == "exponential":
        return ExponentialProfile()
    if name == "singular_power":
        return SingularPowerProfile(float(sec.get("a", 0.0)), sigma)
    if name == "monodisperse":
        return MonodisperseProfile(float(sec.get("mu0", 1.0)), float(sec.get("mass", 1.0)))
    raise GencoagError(f"unknown initial profile {name!r}")


def build_policy(cfg):
    sec = _section(cfg, "time", required=False)
    return DtPolicy(
        mode=sec.get("dt_mode", "adaptive"),
        dt=_float(sec, "dt", 0.0),
        safety=_float(sec, "safety", 0.8),
        max_shrink=_int(sec, "max_shrink", 20),
    )


def _snapshot_times(cfg, horizon):
    sec = _section(cfg, "time", required=False)
    if "snapshot_times" in sec:
        return tuple(float(t) for t in sec["snapshot_times"])
    count = _int(sec, "snapshots", 8)
    return tuple(horizon * k / count for k in range(1, count + 1))


def _omega_from_name(name):
    if not isinstance(name, str):
        raise GencoagError(f"test function names must be strings, got {name!r}")
    try:
        return _omega_named(name)
    except ValueError as exc:  # a malformed bump:a:b or trunc_linear:lam
        raise GencoagError(f"test function {name!r}: {exc}")


def _finite(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"parameter {text!r} is not finite")
    return value


def _omega_named(name):
    if name == "one":
        return testfuncs.constant_one()
    if name == "mass":
        return testfuncs.mass()
    if name == "square":
        return testfuncs.square()
    if name.startswith("bump:"):
        _, a, b = name.split(":")
        return testfuncs.bump(_finite(a), _finite(b))
    if name.startswith("trunc_linear:"):
        _, lam = name.split(":")
        return testfuncs.truncated_linear(_finite(lam))
    raise GencoagError(f"unknown test function {name!r}")


def _list(sec, key, default):
    """``sec[key]`` as a list; a scalar or a mapping is a GencoagError."""
    value = sec.get(key, default)
    if isinstance(value, list):
        return value
    raise GencoagError(f"{key} must be a list, got {value!r}")


def _flux_thresholds(dsec, grid):
    """The mass-flux thresholds lambda = fraction * n; each must lie in (1/n, n]."""
    lams = []
    for frac in _list(dsec, "lambdas", [0.25, 0.5, 1.0]):
        if isinstance(frac, bool) or not isinstance(frac, (int, float)):
            raise GencoagError(f"lambdas must be numbers, got {frac!r}")
        lam = frac * grid.n
        if not (grid.edges[0] < lam <= grid.edges[-1]):
            raise GencoagError(f"lambda={lam} outside the domain (1/n, n]")
        lams.append(lam)
    return lams


def _out_dir(cfg, args):
    sec = _section(cfg, "output", required=False)
    out = Path(args.out or sec.get("directory", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def cmd_simulate(args):
    cfg = load_config(args.config)
    run = _section(cfg, "run")
    model = run.get("model")
    if model not in ("sce", "ohs", "generalized"):
        raise GencoagError(f"[run] model must be sce|ohs|generalized, got {model!r}")
    eps = run.get("eps")
    if model == "generalized" and eps is None:
        raise GencoagError("[run] eps is required when model = generalized")
    eps = float(eps) if eps is not None else None

    kernel = kernel_from_config(_section(cfg, "kernel"))
    gsec = _section(cfg, "grid")
    grid = make_grid(float(gsec.get("n", 50.0)), _int(gsec, "cells_per_decade", 32))
    profile = build_profile(cfg, kernel.sigma)
    initial = sample_initial(profile, grid)
    tsec = _section(cfg, "time")
    horizon = float(tsec.get("horizon", 1.0))
    policy = build_policy(cfg)
    snaps = _snapshot_times(cfg, horizon)
    # diagnostics settings are checked here so that a bad one fails before the solve
    dsec = _section(cfg, "diagnostics", required=False)
    names = _list(dsec, "omegas", ["one", "mass"])
    omegas = np.reshape([_omega_from_name(name)(grid.centers) for name in names],
                        (len(names), grid.size))
    lams = _flux_thresholds(dsec, grid)

    traj = exp.run_model(model, kernel, grid, initial, horizon, policy, snaps, eps=eps)
    # only a run that went through leaves an output directory
    out = _out_dir(cfg, args)
    shutil.copyfile(args.config, out / "config_echo.yaml")

    if dsec.get("inject_mass_violation", False):
        # test hook: corrupt the final snapshot so bound checks must fail
        bad = traj[-1].values * 1.5
        traj.snapshots[-1] = traj[-1].replace(values=bad)

    trunc = truncate(kernel, grid.n)
    sigma = kernel.sigma
    use_gauges = dsec.get("gauges", True)
    gauge1 = gauge2 = None
    if use_gauges and float(np.max(initial.values)) > 0.0:
        gauge1 = build_gauge_from_tail(*psi1_tail(initial))
        gauge2 = build_gauge_from_tail(*psi2_tail(initial, sigma))

    moments = diag.moment_table(traj, sigma, gauge1, gauge2)
    verdicts = [
        diag.theta_bound_check(traj, initial, sigma),
        diag.moment_monotonicity_check(traj, sigma),
    ]
    if gauge1 is not None:
        verdicts.append(diag.psi1_moment_check(traj, gauge1, kernel.k, horizon, sigma))
        verdicts.append(
            diag.uniform_integrability_check(traj, gauge2, kernel.k, kernel.eta, horizon, sigma)
        )
    for om in testfuncs.bump_library(grid):
        verdicts.append(diag.equicontinuity_modulus(traj, om, sigma, kernel.k))

    weak_residuals = dict(zip(names, diag.weak_form_residual(traj, omegas, trunc, model, eps)))

    flux = [diag.mass_flux_identity(traj, lam, trunc) for lam in lams]

    ledger = {
        "M1_initial": float(moments["M1"][0]),
        "outflux_final": traj.outflux[-1],
        "clipped_final": traj.clipped[-1],
        "max_closure_rel": float(traj.ledger_closure().max()),
    }

    report = diag.DiagnosticsReport(
        model=model, eps=eps, sigma=sigma, moments=moments, verdicts=verdicts,
        weak_residuals=weak_residuals, flux_identities=flux,
        tail_fluxes=diag.tail_flux_decay(traj, [grid.n / 4.0, grid.n / 2.0, grid.n], trunc),
        ledger=ledger,
    )

    snap_files = write_snapshot_csv(traj, out)
    manifest = {
        "model": model,
        "eps": eps,
        "n": grid.n,
        "cells_per_decade": grid.cells_per_decade,
        "times": traj.times.tolist(),
        "snapshots": snap_files,
        "outflux": list(traj.outflux),
        "clipped": list(traj.clipped),
        "config_echo": "config_echo.yaml",
    }
    _dump_json(manifest, out / "manifest.json")
    diag.write_moments_csv(moments, out / "moments.csv")
    report.write_json(out / "report.json")
    if gauge1 is not None:
        write_gauge_csv(gauge1, out / "gauge_psi1.csv")
        write_gauge_csv(gauge2, out / "gauge_psi2.csv")

    ok = report.all_passed()
    for v in verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'}  {v.name}: attained {v.attained:.6g} vs bound {v.bound:.6g}")
    return EXIT_OK if ok else EXIT_BOUND_FAIL


def _sweep_config(cfg, args):
    kernel = kernel_from_config(_section(cfg, "kernel"))
    gsec = _section(cfg, "grid")
    ssec = _section(cfg, "sweep", required=False)
    tsec = _section(cfg, "time", required=False)
    eps_list = tuple(float(e) for e in ssec.get("eps_list", exp.DEFAULT_EPS_LIST))
    n_list = tuple(float(n) for n in ssec.get("n_list", [float(gsec.get("n", 50.0))]))
    rsec = _section(cfg, "run", required=False)
    threads = args.threads if args.threads is not None else _int(rsec, "threads", 1)
    seed = args.seed if args.seed is not None else _int(rsec, "seed", 0)
    return exp.SweepConfig(
        kernel=kernel,
        eps_list=eps_list,
        n_list=n_list,
        cells_per_decade=_int(gsec, "cells_per_decade", 32),
        profile=build_profile(cfg, kernel.sigma),
        horizon=float(tsec.get("horizon", 1.0)),
        policy=build_policy(cfg),
        threads=threads,
        seed=seed,
    ).validate()


def cmd_sweep(args):
    cfg = load_config(args.config)
    config = _sweep_config(cfg, args)
    ssec = _section(cfg, "sweep", required=False)
    summary = {"checks": {}, "failed_members": []}
    tables = {}
    if ssec.get("eps_sweep", True):
        table = tables["distances_eps.csv"] = exp.run_eps_sweep(config)
        summary["failed_members"] += table.failed
        for n in config.n_list:
            d = table.at_time(config.horizon, n)
            if d:
                ratio = make_grid(n, config.cells_per_decade).ratio()
                summary["checks"][f"eps_monotone_n{n:g}"] = exp.eps_limit_check(d, ratio)
    if ssec.get("n_sweep", False) and len(config.n_list) > 1:
        table_n = tables["distances_n.csv"] = exp.run_n_sweep(config)
        summary["failed_members"] += table_n.failed
        dists = [r[3] for r in table_n.rows]
        summary["checks"]["n_cauchy"] = {
            "distances": dists,
            "passed": all(b <= a * (1 + 1e-9) for a, b in zip(dists, dists[1:])) if len(dists) > 1 else True,
        }
    summary["passed"] = all(c.get("passed", True) for c in summary["checks"].values()) and not summary["failed_members"]
    # only a sweep that went through leaves an output directory
    out = _out_dir(cfg, args)
    shutil.copyfile(args.config, out / "config_echo.yaml")
    for name, table in tables.items():
        table.write_csv(out / name)
    _dump_json(_plain(summary), out / "summary.json")
    print(("PASS" if summary["passed"] else "FAIL") + "  sweep")
    return EXIT_OK if summary["passed"] else EXIT_BOUND_FAIL


def cmd_check_kernel(args):
    cfg = load_config(args.config)
    kernel = kernel_from_config(_section(cfg, "kernel"))
    csec = _section(cfg, "certify", required=False)
    seed = args.seed if args.seed is not None else _int(csec, "seed", 0)
    samples = _int(csec, "sample_count", 4000)
    growth = certify_growth(kernel, samples, seed)
    deriv = certify_derivative(kernel, samples, float(csec.get("fd_step", 1e-4)), seed)
    out = _out_dir(cfg, args)
    payload = {
        "kernel_family": kernel.family,
        "growth": {
            "passed": growth.passed,
            "regimes": [
                {"name": r.name, "worst_ratio": r.worst_ratio,
                 "witness": list(r.witness), "violations": r.violations}
                for r in growth.regimes
            ],
        },
        "derivative": {
            "passed": deriv.passed,
            "regimes": [
                {"name": r.name, "worst_ratio": r.worst_ratio,
                 "witness": list(r.witness), "violations": r.violations}
                for r in deriv.regimes
            ],
        },
        "passed": growth.passed and deriv.passed,
    }
    _dump_json(payload, out / "kernel_cert.json")
    print(f"{'PASS' if growth.passed else 'FAIL'}  growth bound")
    print(f"{'PASS' if deriv.passed else 'FAIL'}  derivative bound")
    return EXIT_OK if payload["passed"] else EXIT_BOUND_FAIL


def cmd_validate(args):
    cfg = load_config(args.config)
    vsec = _section(cfg, "validate", required=False)
    config = _sweep_config(cfg, args)
    tol_sce = _float(vsec, "sce_tolerance", 2e-2)
    tol_m0 = _float(vsec, "m0_tolerance", 1e-3)
    tol_closure = _float(vsec, "closure_tolerance", 1e-8)
    results = {}
    ok = True

    sce = exp.validate_sce_constant_kernel(config)
    sce_pass = all(e <= tol_sce for e in sce["errors"].values())
    results["sce_analytic"] = {"errors": sce["errors"], "tolerance": tol_sce, "passed": sce_pass}
    ok &= sce_pass

    m0_results = {}
    for label, model, eps in (
        ("sce", "sce", None),
        ("ohs", "ohs", None),
        ("generalized_eps1", "generalized", 1.0),
        ("generalized_eps0.25", "generalized", 0.25),
        ("generalized_eps0.01", "generalized", 0.01),
    ):
        rep = exp.validate_m0_riccati(config, model, eps=eps)
        passed = all(e <= tol_m0 for e in rep["errors"].values())
        m0_results[label] = {"errors": rep["errors"], "passed": passed}
        ok &= passed
    results["m0_riccati"] = {
        "models": m0_results,
        "tolerance": tol_m0,
        "passed": all(r["passed"] for r in m0_results.values()),
    }

    mc = exp.mass_conservation_report(config, "sce")
    mc.pop("trajectory")
    mc_pass = mc["max_closure_rel"] <= tol_closure
    results["mass_conservation"] = {**mc, "tolerance": tol_closure, "passed": mc_pass}
    ok &= mc_pass

    results["passed"] = bool(ok)
    # only a validation that went through leaves an output directory
    out = _out_dir(cfg, args)
    shutil.copyfile(args.config, out / "config_echo.yaml")
    _dump_json(_plain(results), out / "validate.json")
    for name, r in results.items():
        if isinstance(r, dict) and "passed" in r:
            print(f"{'PASS' if r['passed'] else 'FAIL'}  {name}")
    return EXIT_OK if ok else EXIT_BOUND_FAIL


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gencoag",
        description="Sectional solver for generalized coagulation equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", cmd_simulate),
        ("sweep", cmd_sweep),
        ("check-kernel", cmd_check_kernel),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None, help="worker pool size")
        p.add_argument("--seed", type=int, default=None, help="randomized-check seed")
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GencoagError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
