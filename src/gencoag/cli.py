"""Command-line front end.

Four commands, all driven by a single YAML config file that is echoed
verbatim into the output directory for reproducibility:

    gencoag {simulate,sweep,check-kernel,validate} --config FILE
            [--out DIR] [--threads N] [--seed S]

Each option is given at most once, as ``--name value`` or ``--name=value``,
spelled out in full; ``-h`` or ``--help`` prints the usage line.  Exit
codes: 0 success, 1 a usage, configuration or runtime error, 2 a run
completed but a bound check failed.  ``--threads`` (or ``run.threads``)
must be at least 1, but every command runs in one process: none starts a
pool.  Each command refuses, before any work, a config key it does not read
(``READS``); ``check-kernel`` accepts the keys of every command.

The CLI runs on one thread.  It sets ``OPENBLAS_NUM_THREADS=1`` before it
imports numpy, whatever the environment says.  The package makes no matrix
product, and OpenBLAS splits its only BLAS calls, the 1-D dot products of
the step norm and ``np.convolve``, only from 10 000 elements, more cells
than any shipped config has; so every worker of the pool numpy's OpenBLAS
starts at load could only spin.  OpenBLAS reads that variable before
``OMP_NUM_THREADS``.  This holds because ``import gencoag`` loads no
numpy: ``python -m gencoag.cli`` and the ``gencoag`` script both import
this module first.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads; see the module docstring

import numpy as np
import yaml

from . import diagnostics as diag
from . import experiments as exp
from . import testfuncs
from .errors import ConfigError, GencoagError
from .gauges import build_gauge_from_tail, psi1_tail, psi2_tail, write_gauge_csv
from .kernels import config_number, kernel_from_config
from .operators import scheme_bytes
from .sizedomain import (
    ExponentialProfile,
    MonodisperseProfile,
    SingularPowerProfile,
    _check_table_bytes,
    make_grid,
    sample_initial,
    write_snapshot_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAIL = 2

#: command -> {section: the keys it reads}; a command refuses every other key.  [kernel]
#: is read whole (None) and checked per family by kernel_from_config.  check-kernel reads
#: [kernel], [run] and [output] but accepts every command's keys, to run on their configs.
#: No key loosens a check.  Older configs set run.seed (read by no command) and PINNED_KEYS.
_SOLVE = {"run": {"threads", "seed"}, "kernel": None, "grid": {"n", "cells_per_decade"},
          "initial": {"profile", "a", "mu0", "mass"}, "time": {"horizon", "dt_mode"},
          "output": {"directory"}}
READS = {
    "simulate": {**_SOLVE, "run": _SOLVE["run"] | {"model", "eps"},
                 "time": _SOLVE["time"] | {"snapshots"},
                 "diagnostics": {"gauges", "omegas", "lambdas", "inject_mass_violation"}},
    "sweep": {**_SOLVE, "sweep": {"eps_sweep", "n_sweep", "eps_list", "n_list"}},
    "validate": _SOLVE,
}
READS["check-kernel"] = {**READS["simulate"], "sweep": READS["sweep"]["sweep"]}

#: (section, key) -> (the one value it takes, why)
PINNED_KEYS = {
    ("time", "dt_mode"): ("adaptive", "every run is error-controlled"),
    ("diagnostics", "gauges"): (True, "every run checks the gauge bounds"),
}

#: What ``simulate`` holds at its peak besides the pair scheme, which
#: operators._scheme_bytes counts.  Per snapshot: its row of the trajectory
#: block (8 bytes a cell), up to one row of diagnostic temporaries (the
#: weak form's terms or one threshold's crossing rates, 8 bytes a cell),
#: and SNAPSHOT_OVERHEAD bytes of objects: its time and ledger
#: entries, the report's series, its file name.  Per cell, CELL_OVERHEAD
#: bytes of solver states, gauges and test functions; per run, RUN_OVERHEAD
#: bytes for the config, the verdicts and the writers.  tracemalloc on
#: simulate with 32 to 2048 cells and 1 to 3000 snapshots read about 430,
#: 20-40 and 85-100 KiB for the three.
SNAPSHOT_OVERHEAD = 512
CELL_OVERHEAD = 64
RUN_OVERHEAD = 128 * 1024


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


def load_config(path, command="check-kernel"):  # check-kernel accepts every known key
    try:
        with open(path, "rb") as fh:  # PyYAML detects the encoding; bad text is a YAMLError
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise GencoagError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise GencoagError(f"{path}: YAML parse error: {exc}")
    if not isinstance(cfg, dict):
        raise GencoagError(f"{path}: top level must be a mapping")
    _check_keys(cfg, command)
    return cfg


def _load(args):
    """The config of ``args`` and its output directory, after the checks every command makes.

    The directory is made only once a run went through.
    """
    cfg = load_config(args.config, args.command)
    _check_threads(cfg, args)
    return cfg, _out_dir(cfg, args)


def _check_keys(cfg, command):
    """Refuse a section or key that ``command`` does not read, so that a misspelled,
    removed or misplaced setting does not silently take its default."""
    union = READS["check-kernel"]
    for name in cfg:
        if name not in union:
            raise GencoagError(f"unknown config section [{name}]")
        for key in _section(cfg, name, required=False) if union[name] is not None else ():
            if key not in union[name]:
                raise GencoagError(f"unknown config key {name}.{key}")
            if key not in READS[command].get(name, ()):
                raise ConfigError(f"{command} does not read {name}.{key}")
    for (name, key), (only, why) in PINNED_KEYS.items():
        value = _section(cfg, name, required=False).get(key, only)
        if value != only or type(value) is not type(only):
            raise GencoagError(f"{name}.{key} must be {only!r}, got {value!r}: {why}")


def _int(sec, key, default):
    """``sec[key]`` as an int; NaN, inf, 2.5, a boolean or a non-number is a GencoagError."""
    value = sec.get(key, default)
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if integral and not isinstance(value, bool):
        return int(value)
    raise GencoagError(f"{key} must be an integer, got {value!r}")


def _bool(sec, key, default):
    """``sec[key]`` as a YAML boolean; a string such as "no", a number or null is a ConfigError."""
    value = sec.get(key, default)
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _float(sec, key, default):
    """``sec[key]`` as a finite float >= 0, read by :func:`config_number`."""
    return config_number(sec.get(key, default), key)


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
    reads = {"exponential": (), "singular_power": ("a",), "monodisperse": ("mu0", "mass")}
    if not isinstance(name, str) or name not in reads:
        raise GencoagError(f"unknown initial profile {name!r}")
    unread = [key for key in sec if key not in ("profile", *reads[name])]
    if unread:  # it would be echoed but not run
        raise ConfigError(f"initial profile {name} does not read initial.{unread[0]}")
    if name == "singular_power":
        return SingularPowerProfile(_float(sec, "a", 0.0), sigma)
    if name == "monodisperse":
        return MonodisperseProfile(_float(sec, "mu0", 1.0), _float(sec, "mass", 1.0))
    return ExponentialProfile()


def _run_bytes(count, cells):
    """Bytes ``simulate`` holds at its peak, scheme aside, for ``count`` snapshots of ``cells``."""
    rows = count + 1  # the trajectory also keeps the initial data
    return rows * (16 * cells + SNAPSHOT_OVERHEAD) + cells * CELL_OVERHEAD + RUN_OVERHEAD


def _snapshot_times(cfg, horizon, cells, scheme):
    count = _int(_section(cfg, "time", required=False), "snapshots", 8)
    if count < 1:
        raise GencoagError(f"snapshots must be >= 1, got {count}")
    # refuse before building the times; the solve and the weak form each
    # hold the snapshot block next to one pair scheme of ``scheme`` bytes
    _check_table_bytes(_run_bytes(count, cells) + scheme,
                       f"{count} snapshots of {cells} cells", "use fewer snapshots or cells")
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
    """The grid edges nearest the thresholds fraction * n in (1/n, n], each one once."""
    fracs = _list(dsec, "lambdas", [0.25, 0.5, 1.0])
    for frac in fracs:
        if isinstance(frac, bool) or not isinstance(frac, (int, float)):
            raise GencoagError(f"lambdas must be numbers, got {frac!r}")
    edges = [grid.edges[diag._snap_to_edge(grid, frac * grid.n)] for frac in fracs]
    if len(set(edges)) < len(edges):
        raise ConfigError(f"lambdas repeats a grid edge: {fracs} snap to {np.round(edges, 4)}")
    return edges


def _out_dir(cfg, args):
    directory = _section(cfg, "output", required=False).get("directory", "out")
    if not isinstance(directory, str):
        raise GencoagError(f"output.directory must be a string, got {directory!r}")
    return Path(args.out or directory)


def _publish(args, out):
    """Make ``out`` and echo the config into it: only a run that went through gets here."""
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(args.config, out / "config_echo.yaml")


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


def cmd_simulate(args):
    cfg, out = _load(args)
    run = _section(cfg, "run")
    model = run.get("model")
    if model not in ("sce", "ohs", "generalized"):
        raise GencoagError(f"[run] model must be sce|ohs|generalized, got {model!r}")
    eps = run.get("eps")
    if model == "generalized" and eps is None:
        raise GencoagError("[run] eps is required when model = generalized")
    if model != "generalized" and eps is not None:  # it would be reported but not run
        raise ConfigError("[run] eps is read only when model = generalized; "
                          f"model {model} computes its own eps")
    eps = config_number(eps, "eps") if eps is not None else None

    kernel = kernel_from_config(_section(cfg, "kernel"))
    gsec = _section(cfg, "grid")
    grid = make_grid(_float(gsec, "n", 50.0), _int(gsec, "cells_per_decade", 32))
    profile = build_profile(cfg, kernel.sigma)
    initial = sample_initial(profile, grid)
    tsec = _section(cfg, "time")
    horizon = _float(tsec, "horizon", 1.0)
    if not horizon > 0.0:  # at 0 every snapshot is the initial data and every check passes
        raise ConfigError("horizon must be > 0")
    snaps = _snapshot_times(cfg, horizon, grid.size, scheme_bytes(grid, model, kernel, eps))
    # diagnostics settings are checked here so that a bad one fails before the solve
    dsec = _section(cfg, "diagnostics", required=False)
    names = _list(dsec, "omegas", ["one", "mass"])
    omegas = np.reshape([_omega_from_name(name)(grid.centers) for name in names],
                        (len(names), grid.size))
    if len(set(names)) < len(names):  # the report keys the residuals by name
        raise ConfigError(f"omegas repeats a value: {names}")
    lams = _flux_thresholds(dsec, grid)
    inject = _bool(dsec, "inject_mass_violation", False)
    # a kernel outside the paper's class fails the bound checks whatever the
    # solve gives, so it is refused before the solve, as check-kernel fails it
    failed = [bound for bound in _certificate_bounds(kernel) if not bound.passed]
    for bound in failed:
        print(bound.line)
    if failed:
        return EXIT_BOUND_FAIL

    traj = exp.run_model(model, kernel, grid, initial, horizon, snaps, eps=eps)
    _publish(args, out)

    if inject:
        # test hook: corrupt the final snapshot so bound checks must fail
        traj.replace_values(-1, traj[-1].values * 1.5)

    gauges = (build_gauge_from_tail(*psi1_tail(initial)),
              build_gauge_from_tail(*psi2_tail(initial, kernel.sigma)))
    moments, verdicts = diag.bound_verdicts(traj, initial, kernel, horizon, gauges)

    weak_residuals = dict(zip(names, diag.weak_form_residual(traj, omegas, kernel, model, eps)))

    flux = [diag.mass_flux_identity(traj, lam, kernel) for lam in lams]

    ledger = {
        "M1_initial": float(moments["M1"][0]),
        "outflux_final": traj.outflux[-1],
        "clipped_final": traj.clipped[-1],
        "max_closure_rel": verdicts[-1].attained,  # the ledger_closure verdict
    }

    report = diag.DiagnosticsReport(
        model=model, eps=eps, sigma=kernel.sigma, moments=moments, verdicts=verdicts,
        weak_residuals=weak_residuals, flux_identities=flux,
        tail_fluxes=diag.tail_flux_decay(traj, [grid.n / 4.0, grid.n / 2.0, grid.n], kernel),
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
    write_gauge_csv(gauges[0], out / "gauge_psi1.csv")
    write_gauge_csv(gauges[1], out / "gauge_psi2.csv")

    ok = report.all_passed()
    for v in verdicts:
        print(f"{'PASS' if v.passed else 'FAIL'}  {v.name}: attained {v.attained:.6g} vs bound {v.bound:.6g}")
    return EXIT_OK if ok else EXIT_BOUND_FAIL


def _check_threads(cfg, args):
    """Refuse a thread count below 1, from --threads or run.threads; no command starts a pool."""
    rsec = _section(cfg, "run", required=False)
    threads = args.threads if args.threads is not None else _int(rsec, "threads", 1)
    if threads < 1:
        raise GencoagError(f"threads must be >= 1, got {threads}")


def _sweep_config(cfg):
    kernel = kernel_from_config(_section(cfg, "kernel"))
    gsec = _section(cfg, "grid")
    ssec = _section(cfg, "sweep", required=False)
    tsec = _section(cfg, "time", required=False)
    eps_list = _list(ssec, "eps_list", list(exp.DEFAULT_EPS_LIST))
    n_list = _list(ssec, "n_list", [_float(gsec, "n", 50.0)])
    return exp.SweepConfig(
        kernel=kernel,
        eps_list=tuple(config_number(e, "eps_list") for e in eps_list),
        n_list=tuple(config_number(n, "n_list") for n in n_list),
        cells_per_decade=_int(gsec, "cells_per_decade", 32),
        profile=build_profile(cfg, kernel.sigma),
        horizon=_float(tsec, "horizon", 1.0),
    ).validate()


def cmd_sweep(args):
    cfg, out = _load(args)
    config = _sweep_config(cfg)
    ssec = _section(cfg, "sweep", required=False)
    eps_sweep, n_sweep = _bool(ssec, "eps_sweep", True), _bool(ssec, "n_sweep", False)
    if not (eps_sweep or n_sweep):
        raise ConfigError("sweep runs no study: eps_sweep and n_sweep are both false")
    if n_sweep and len(config.n_list) < 2:
        raise ConfigError(f"n_sweep needs at least two n_list values, got {list(config.n_list)}")
    if n_sweep and list(config.n_list) != sorted(config.n_list):  # n_cauchy compares neighbours
        raise ConfigError(f"n_sweep needs n_list in increasing order, got {list(config.n_list)}")
    summary = {"checks": {}, "failed_members": []}
    tables = {}
    members = exp.MemberTable(config)  # both studies read one table
    if eps_sweep:
        table = tables["distances_eps.csv"] = exp.run_eps_sweep(members)
        summary["failed_members"] += table.failed
        for n in config.n_list:
            d = table.at_time(config.horizon, n)
            if d:
                summary["checks"][f"eps_monotone_n{n:g}"] = exp.eps_limit_check(d)
    if n_sweep:
        table_n = tables["distances_n.csv"] = exp.run_n_sweep(members)
        summary["failed_members"] += table_n.failed
        dists = [r[3] for r in table_n.rows]
        summary["checks"]["n_cauchy"] = {"distances": dists, "passed": all(
            b <= a * (1 + 1e-9) for a, b in zip(dists, dists[1:]))}
    summary["passed"] = all(c.get("passed", True) for c in summary["checks"].values()) and not summary["failed_members"]
    _publish(args, out)
    for name, table in tables.items():
        table.write_csv(out / name)
    _dump_json(_plain(summary), out / "summary.json")
    print(("PASS" if summary["passed"] else "FAIL") + "  sweep")
    return EXIT_OK if summary["passed"] else EXIT_BOUND_FAIL


class _Bound(NamedTuple):
    """One bound of a kernel's certificate: its constant is the worst regime's supremum."""

    kind: str
    name: str
    regimes: tuple
    constant: float
    passed: bool
    line: str


def _certificate_bounds(kernel):
    """The growth (k) and derivative (eta) bounds of ``kernel``, each passed when finite,
    with the line check-kernel prints for it."""
    for (kind, regimes), name in zip(kernel.certificate._asdict().items(), ("k", "eta")):
        worst = max(regimes, key=lambda r: r.supremum)
        passed = worst.supremum < np.inf
        where = f"{worst.name} at {worst.point}" + (f" along {worst.ray} in log size" if worst.ray else "")
        line = f"{'PASS' if passed else 'FAIL'}  {kind} bound: {name} = {worst.supremum:g}, {where}"
        yield _Bound(kind, name, regimes, worst.supremum, passed, line)


def cmd_check_kernel(args):
    cfg, out = _load(args)
    kernel = kernel_from_config(_section(cfg, "kernel"))
    payload = {"kernel_family": kernel.family, "sigma": kernel.sigma}
    for bound in _certificate_bounds(kernel):
        payload[bound.name] = bound.constant if bound.passed else None  # JSON has no infinity
        payload[bound.kind] = {"passed": bound.passed, "regimes": [
            {**r._asdict(), "supremum": r.supremum if r.supremum < np.inf else None}
            for r in bound.regimes]}
        print(bound.line)
    payload["passed"] = payload["growth"]["passed"] and payload["derivative"]["passed"]
    _publish(args, out)
    _dump_json(payload, out / "kernel_cert.json")
    return EXIT_OK if payload["passed"] else EXIT_BOUND_FAIL


def cmd_validate(args):
    cfg, out = _load(args)
    config = _sweep_config(cfg)
    members = exp.validate_members(config)
    sce_run = _solved(members, "sce", None)  # the closed-form check and mass report read it

    def verdict(errors, tolerance):
        return {"errors": errors, "passed": all(e <= tolerance for e in errors.values())}

    sce = verdict(exp.validate_sce_constant_kernel(config, sce_run), exp.SCE_TOLERANCE)
    m0 = {label: verdict(exp.validate_m0_riccati(config, _solved(members, model, eps)),
                         exp.M0_TOLERANCE) for label, model, eps in exp.M0_ROWS}
    mc = exp.mass_conservation_report(config, sce_run)
    results = {
        "sce_analytic": {**sce, "tolerance": exp.SCE_TOLERANCE},
        "m0_riccati": {"models": m0, "tolerance": exp.M0_TOLERANCE,
                       "passed": all(r["passed"] for r in m0.values())},
        "mass_conservation": {"model": "sce", "eps": None, **mc,
                              "tolerance": diag.CLOSURE_TOLERANCE,
                              "passed": mc["max_closure_rel"] <= diag.CLOSURE_TOLERANCE},
    }
    ok = all(r["passed"] for r in results.values())
    _publish(args, out)
    _dump_json(_plain({**results, "passed": ok}), out / "validate.json")
    for name, r in results.items():
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {name}")
    return EXIT_OK if ok else EXIT_BOUND_FAIL


def _solved(members, model, eps):
    """The run of ``model`` at ``eps`` on the first grid; a failed run is an error."""
    traj, failure = members.run(model, eps, members.config.n_list[0])
    if failure is not None:
        raise GencoagError(failure["message"])
    return traj


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


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "check-kernel": cmd_check_kernel,
    "validate": cmd_validate,
}

#: Each option and the type of its value.
OPTIONS = {"--config": str, "--out": str, "--threads": int, "--seed": int}

USAGE = ("usage: gencoag {simulate,sweep,check-kernel,validate} --config FILE "
         "[--out DIR] [--threads N] [--seed S]")


def _parse_args(argv):
    """The command and options of ``argv``; a malformed command line is a GencoagError."""
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "none"
        raise GencoagError(f"the command must be one of {', '.join(COMMANDS)}, got {got}")
    args = SimpleNamespace(command=argv[0], config=None, out=None, threads=None, seed=0)
    given = set()
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in OPTIONS:
            raise GencoagError(f"unknown option {arg!r}")
        if name in given:
            raise GencoagError(f"option {name} is given twice")
        given.add(name)
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise GencoagError(f"option {name} needs a value")
        try:
            setattr(args, name[2:], OPTIONS[name](value))
        except ValueError:
            raise GencoagError(f"{name} must be an integer, got {value!r}") from None
    if args.config is None:
        raise GencoagError("option --config is required")
    if args.seed < 0:  # no command reads the seed; its checks stay until the flag goes
        raise GencoagError(f"--seed must be >= 0, got {args.seed}")
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return EXIT_OK
    try:
        args = _parse_args(argv)
    except GencoagError as exc:
        return _fail(f"{exc}\n{USAGE}")
    try:
        return COMMANDS[args.command](args)
    except (GencoagError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
