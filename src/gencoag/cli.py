"""Command-line front end.

Four commands, all driven by a single YAML config file that is echoed
verbatim into the output directory for reproducibility:

    gencoag {simulate,sweep,check-kernel,validate} --config FILE
            [--out DIR] [--threads N] [--seed S]

Each option is given at most once, as ``--name value`` or ``--name=value``,
spelled out in full; ``-h`` or ``--help`` prints the usage line.  Exit
codes: 0 success, 1 a usage, configuration or runtime error, 2 a run
completed but a bound check failed.

One table, ``KEYS``, decides every config key: the kind and range of its
value, its default and the commands that read it.  Before any work, each
command refuses a key it does not read (``check-kernel`` accepts every
command's keys) and parses each key it reads through :func:`read`.
``--threads`` and ``--seed`` are checked as ``run.threads`` and ``run.seed``;
no command reads either further: each runs in one process, and none draws
a random number.

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
from .errors import BoundViolation, ConfigError, GencoagError
from .gauges import build_gauge_from_tail, psi1_tail, psi2_tail, write_gauge_csv
from .kernels import certificate_bounds, config_number, kernel_from_config
from .operators import scheme_bytes
from .sizedomain import (
    ExponentialProfile,
    SingularPowerProfile,
    Trajectory,
    _check_table_bytes,
    make_grid,
    sample_initial,
    write_snapshot_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAIL = 2

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


class Key(NamedTuple):
    """One config key.  ``parse(value, key)`` returns what a command reads of ``value`` or
    raises a ConfigError that names ``key``, the key within its section; a config that does
    not set it gets ``default``, parsed the same way.  ``readers`` are the commands reading it."""

    parse: object
    default: object
    readers: tuple


def _integer(low=None):
    """An integral number from ``low``, if any, to a double's largest; 2.5, NaN, inf or a boolean is refused."""
    def parse(value, name):
        if isinstance(value, bool) or not isinstance(value, int) and not (
                isinstance(value, float) and value.is_integer()):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
        if value > sys.float_info.max:
            raise ConfigError(f"{name} must be at most {sys.float_info.max:g}, got {value}")
        return int(value)
    return parse


def _positive(value, name):
    """A finite number > 0."""
    number = config_number(value, name)
    if number > 0.0:
        return number
    raise ConfigError(f"{name} must be > 0")


def _fraction(value, name):
    """A finite number in (0, 1]."""
    number = config_number(value, name)
    if 0.0 < number <= 1.0:
        return number
    raise ConfigError(f"{name} values must lie in (0, 1], got {number!r}")


def _kind(accepts, what, why=""):
    """A kind that takes a value ``accepts`` passes as it is and refuses any other."""
    def parse(value, name):
        if accepts(value):
            return value
        raise ConfigError(f"{name} must be {what}, got {value!r}{why}")
    return parse


def _one_of(*choices):
    return _kind(lambda v: isinstance(v, str) and v in choices, f"one of {', '.join(choices)}")


def _only(section, value, readers, why):
    """The Key of a ``section`` key that takes one value, its default: no setting loosens a check."""
    accepts = _kind(lambda v: v == value and type(v) is type(value), repr(value), f": {why}")
    return Key(lambda got, key: accepts(got, f"{section}.{key}"), value, readers)


def _list_of(item):
    """A list whose every item ``item`` parses."""
    def parse(value, name):
        if not isinstance(value, (list, tuple)):  # YAML gives lists; a default may be a tuple
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [item(v, name) for v in value]
    return parse


def _distinct(item, empty=False):
    """A list of ``item``s without a repeat, since a run compared with itself reads 0 and the
    report keys results by value; an empty one is refused unless ``empty``."""
    items = _list_of(item)

    def parse(value, name):
        values = items(value, name)
        if not (values or empty):
            raise ConfigError(f"{name} must not be empty")
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} repeats a value: {values}")
        return values
    return parse


def _optional(kind):
    """``kind``, or None: the command decides what a key without a value means."""
    return lambda value, name: None if value is None else kind(value, name)


_boolean = _kind(lambda v: isinstance(v, bool), "true or false")  # "no" is a string
_string = _kind(lambda v: isinstance(v, str), "a string")

SOLVE = ("simulate", "sweep", "validate")
EVERY = (*SOLVE, "check-kernel")

#: initial.profile -> the other [initial] keys it reads
PROFILE_KEYS = {"exponential": (), "singular_power": ("a",)}

#: section.key (or a section read whole) -> its Key.  A default of None
#: means the command decides what the key's absence means.
KEYS = {
    "run.threads": Key(_integer(1), 1, EVERY),
    "run.seed": Key(_integer(0), 0, EVERY),
    "run.model": Key(_one_of("sce", "ohs", "generalized"), None, ("simulate",)),
    "run.eps": Key(_optional(config_number), None, ("simulate",)),
    # read whole, and checked per family by kernel_from_config
    "kernel": Key(_kind(lambda v: isinstance(v, dict), "a family and its parameters"), None, EVERY),
    "grid.n": Key(config_number, 50.0, SOLVE),
    "grid.cells_per_decade": Key(_integer(), 32, SOLVE),  # its range: sizedomain.SizeGrid
    "initial.profile": Key(_one_of(*PROFILE_KEYS), "exponential", SOLVE),
    "initial.a": Key(config_number, 0.0, SOLVE),
    # at horizon 0 every snapshot is the initial data and every check passes
    "time.horizon": Key(_positive, 1.0, SOLVE),
    "time.dt_mode": _only("time", "adaptive", SOLVE, "every run is error-controlled"),
    "time.snapshots": Key(_integer(1), 8, ("simulate",)),
    "diagnostics.gauges": _only("diagnostics", True, ("simulate",),
                                "every run checks the gauge bounds"),
    "diagnostics.omegas": Key(_distinct(_string, empty=True), ["one", "mass"], ("simulate",)),
    "diagnostics.lambdas": Key(_list_of(config_number), [0.25, 0.5, 1.0], ("simulate",)),
    "diagnostics.inject_mass_violation": Key(_boolean, False, ("simulate",)),
    "sweep.eps_sweep": _only("sweep", True, ("sweep",), "the eps-study is the one study of sweep"),
    "sweep.eps_list": Key(_distinct(_fraction), tuple(2.0 ** -i for i in range(11)), ("sweep",)),
    "output.directory": Key(_string, "out", EVERY),  # --out overrides it
}


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


def load_config(path, command="check-kernel"):  # check-kernel accepts every known key
    try:
        with open(path, "rb") as fh:  # PyYAML detects the encoding; bad text is a YAMLError
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise GencoagError(f"config file not found: {path}")
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date or an integer Python refuses
        raise GencoagError(f"{path}: YAML parse error: {exc}")
    if not isinstance(cfg, dict):
        raise GencoagError(f"{path}: top level must be a mapping")
    _check_keys(cfg, command)
    return cfg


def _load(args):
    """The config of ``args``, the value of every key its command reads, and its output
    directory, which is made only once a run went through."""
    cfg = load_config(args.config, args.command)
    values = {name: read(cfg, name) for name, key in KEYS.items() if args.command in key.readers}
    return cfg, values, Path(args.out or values["output.directory"])


def _check_keys(cfg, command):
    """Refuse a section or key that ``command`` does not read, so that a misspelled,
    removed or misplaced setting does not silently take its default."""
    def shown(name):  # a name with a line break is quoted, to keep the error on one line
        return name if str(name).isprintable() else repr(name)

    for section, sec in cfg.items():
        if not any(name.partition(".")[0] == section for name in KEYS):
            raise GencoagError(f"unknown config section [{shown(section)}]")
        if sec is not None and not isinstance(sec, dict):
            raise GencoagError(f"config section [{section}] must be a mapping")
        for key in () if section in KEYS else sec or ():
            name = f"{section}.{key}"
            if name not in KEYS:
                raise GencoagError(f"unknown config key {shown(name)}")
            if command not in (*KEYS[name].readers, "check-kernel"):
                raise ConfigError(f"{command} does not read {name}")
            if section == "initial" and command != "check-kernel":  # read per profile
                profile = read(cfg, "initial.profile")
                if key not in ("profile", *PROFILE_KEYS[profile]):  # it would be echoed, not run
                    raise ConfigError(f"initial profile {profile} does not read {name}")


def read(cfg, name):
    """Config key ``name`` of a config load_config checked, parsed by its KEYS entry: the
    config's value, or the default when the config does not set it.  A name without a dot
    is a section read whole."""
    section, _, key = name.partition(".")
    value = (cfg.get(section) or {}).get(key, KEYS[name].default) if key else cfg.get(section)
    return KEYS[name].parse(value, key or section)


def build_profile(cfg, sigma):
    name = read(cfg, "initial.profile")
    if name == "singular_power":
        return SingularPowerProfile(read(cfg, "initial.a"), sigma)
    return ExponentialProfile()


def _run_bytes(count, cells):
    """Bytes ``simulate`` holds at its peak, scheme aside, for ``count`` snapshots of ``cells``."""
    rows = count + 1  # the trajectory also keeps the initial data
    return rows * (16 * cells + SNAPSHOT_OVERHEAD) + cells * CELL_OVERHEAD + RUN_OVERHEAD


def _snapshot_times(count, horizon, cells, scheme):
    # refuse before building the times; the solve and the weak form each
    # hold the snapshot block next to one pair scheme of ``scheme`` bytes
    _check_table_bytes(_run_bytes(count, cells) + scheme,
                       f"{count} snapshots of {cells} cells", "use fewer snapshots or cells")
    return exp.even_stops(horizon, count, f"time.snapshots {count}")


#: omegas name -> the test function it makes and the count of its parameters (bump:a:b)
OMEGAS = {"one": (testfuncs.constant_one, 0), "mass": (testfuncs.mass, 0),
          "square": (testfuncs.square, 0), "bump": (testfuncs.bump, 2),
          "trunc_linear": (testfuncs.truncated_linear, 1)}


def _omega_from_name(name):
    """The test function of an omegas name: one, mass, square, bump:a:b or trunc_linear:lam."""
    kind, *params = name.split(":")
    make, count = OMEGAS.get(kind, (None, None))
    if len(params) != count:
        raise GencoagError(f"unknown test function {name!r}")
    try:
        values = [float(p) for p in params]
        if not np.all(np.isfinite(values)):
            raise ValueError("a parameter is not finite")
        return make(*values)
    except (ValueError, OverflowError) as exc:  # not a number, or not a support bump takes
        raise GencoagError(f"test function {name!r}: {exc}")


def _flux_thresholds(fracs, grid):
    """The grid edges nearest the thresholds fraction * n in (1/n, n], each one once."""
    edges = [grid.edges[diag._snap_to_edge(grid, frac * grid.n)] for frac in fracs]
    if len(set(edges)) < len(edges):
        raise ConfigError(f"lambdas repeats a grid edge: {fracs} snap to {np.round(edges, 4)}")
    return edges


def _publish(args, out):
    """Make ``out`` and echo the config into it: only a run that went through gets here."""
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(args.config, out / "config_echo.yaml")


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


def cmd_simulate(args):
    cfg, values, out = _load(args)
    model, eps = values["run.model"], values["run.eps"]
    if model != "generalized" and eps is not None:  # it would be reported but not run
        raise ConfigError("[run] eps is read only when model = generalized; "
                          f"model {model} computes its own eps")

    kernel = kernel_from_config(values["kernel"])
    grid = make_grid(values["grid.n"], values["grid.cells_per_decade"])
    initial = sample_initial(build_profile(cfg, kernel.sigma), grid)
    # scheme_bytes refuses a generalized run without eps
    snaps = _snapshot_times(values["time.snapshots"], values["time.horizon"], grid.size,
                            scheme_bytes(grid, model, kernel, eps))
    # diagnostics settings are checked here so that a bad one fails before the solve
    names = values["diagnostics.omegas"]
    omegas = np.reshape([_omega_from_name(name)(grid.centers) for name in names],
                        (len(names), grid.size))
    lams = _flux_thresholds(values["diagnostics.lambdas"], grid)
    gauges = (build_gauge_from_tail(*psi1_tail(initial)),
              build_gauge_from_tail(*psi2_tail(initial, kernel.sigma)))
    exp.check_initial(kernel, initial, snaps[-1], gauges)
    traj, moments, verdicts, failure = exp.checked_run(model, eps, kernel, initial, snaps, gauges)
    if traj is None:
        raise failure
    _publish(args, out)

    if values["diagnostics.inject_mass_violation"]:
        # test hook: a copy of the run with its final snapshot corrupted is judged and
        # written, so bound checks must fail
        corrupted = traj.values.copy()
        corrupted[-1] *= 1.5
        traj = Trajectory(grid, traj.times, corrupted, traj.outflux, traj.clipped)
        moments, verdicts = diag.bound_verdicts(traj, kernel, snaps[-1], gauges)

    weak_residuals = dict(zip(names, diag.weak_form_residual(traj, omegas, kernel, model, eps)))

    flux = [diag.mass_flux_identity(traj, lam, kernel) for lam in lams]

    ledger = {"M1_initial": float(moments["M1"][0]), "outflux_final": traj.outflux[-1],
              "clipped_final": traj.clipped[-1],
              "max_closure_rel": verdicts[-1].attained}  # the ledger_closure verdict

    report = diag.DiagnosticsReport(
        model=model, eps=eps, sigma=kernel.sigma, moments=moments, verdicts=verdicts,
        weak_residuals=weak_residuals, flux_identities=flux,
        tail_fluxes=diag.tail_flux_decay(flux, traj.times),
        ledger=ledger,
    )

    snap_files = write_snapshot_csv(traj, out)
    manifest = {"model": model, "eps": eps, "n": grid.n, "cells_per_decade": grid.cells_per_decade,
                "times": traj.times.tolist(), "snapshots": snap_files,
                "outflux": list(traj.outflux), "clipped": list(traj.clipped),
                "config_echo": "config_echo.yaml"}
    _dump_json(manifest, out / "manifest.json")
    diag.write_moments_csv(moments, out / "moments.csv")
    report.write_json(out / "report.json")
    write_gauge_csv(gauges[0], out / "gauge_psi1.csv")
    write_gauge_csv(gauges[1], out / "gauge_psi2.csv")

    for v in verdicts:
        print(v.line)
    return EXIT_OK if report.all_passed() else EXIT_BOUND_FAIL


def _sweep_config(cfg):
    """The studies of ``cfg``.  A validate config sets no [sweep] key (its key
    check refuses them), so it gets their defaults."""
    kernel = kernel_from_config(read(cfg, "kernel"))
    return exp.SweepConfig(
        kernel=kernel,
        eps_list=tuple(read(cfg, "sweep.eps_list")),
        n=read(cfg, "grid.n"),
        cells_per_decade=read(cfg, "grid.cells_per_decade"),
        profile=build_profile(cfg, kernel.sigma),
        horizon=read(cfg, "time.horizon"),
    )


def cmd_sweep(args):
    cfg, _, out = _load(args)
    config = _sweep_config(cfg)
    table = exp.run_eps_sweep(exp.MemberTable(config))
    summary = {"checks": {}, "failed_members": table.failed}
    d = table.at_time(config.horizon)
    if d:
        summary["checks"][f"eps_monotone_n{config.n:g}"] = exp.eps_limit_check(d)
    summary["passed"] = all(c["passed"] for c in summary["checks"].values()) and not table.failed
    _publish(args, out)
    table.write_csv(out / "distances_eps.csv")
    _dump_json(summary, out / "summary.json")
    print(("PASS" if summary["passed"] else "FAIL") + "  sweep")
    return EXIT_OK if summary["passed"] else EXIT_BOUND_FAIL


def cmd_check_kernel(args):
    _, values, out = _load(args)
    kernel = kernel_from_config(values["kernel"])
    payload = {"kernel_family": kernel.family, "sigma": kernel.sigma}
    for bound in certificate_bounds(kernel):
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
    cfg, _, out = _load(args)
    config = _sweep_config(cfg)
    members = exp.validate_members(config)
    # the closed-form check and the mass report read the SCE run
    sce_run, sce_verdicts = _solved(members, "sce", None)

    def verdict(errors, tolerance):
        return {"errors": errors, "passed": all(e <= tolerance for e in errors.values())}

    sce = verdict(exp.validate_sce_constant_kernel(config, sce_run), exp.SCE_TOLERANCE)
    m0 = {label: verdict(exp.validate_m0_riccati(config, _solved(members, model, eps)[0]),
                         exp.M0_TOLERANCE) for label, model, eps in exp.M0_ROWS}
    mc = exp.mass_conservation_report(config, sce_run)
    ledger = sce_verdicts[-1]  # the ledger_closure verdict, over every stop of the run
    results = {
        "sce_analytic": {**sce, "tolerance": exp.SCE_TOLERANCE},
        "m0_riccati": {"models": m0, "tolerance": exp.M0_TOLERANCE,
                       "passed": all(r["passed"] for r in m0.values())},
        "mass_conservation": {"model": "sce", "eps": None, **mc,
                              "tolerance": ledger.bound, "passed": ledger.passed},
    }
    ok = all(r["passed"] for r in results.values())
    _publish(args, out)
    _dump_json({**results, "passed": ok}, out / "validate.json")
    for name, r in results.items():
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {name}")
    return EXIT_OK if ok else EXIT_BOUND_FAIL


def _solved(members, model, eps):
    """(traj, verdicts) of the run of ``model`` at ``eps``; a failed solve or verdict raises."""
    traj, verdicts, failure = members.run(model, eps)
    if failure is not None:
        raise failure
    return traj, verdicts


COMMANDS = {"simulate": cmd_simulate, "sweep": cmd_sweep, "check-kernel": cmd_check_kernel,
            "validate": cmd_validate}

#: Each option and the type of its value.
OPTIONS = {"--config": str, "--out": str, "--threads": int, "--seed": int}

USAGE = ("usage: gencoag {simulate,sweep,check-kernel,validate} --config FILE "
         "[--out DIR] [--threads N] [--seed S]")


def _parse_args(argv):
    """The command and options of ``argv``; a malformed command line is a GencoagError."""
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "none"
        raise GencoagError(f"the command must be one of {', '.join(COMMANDS)}, got {got}")
    args = SimpleNamespace(command=argv[0], config=None, out=None)
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
        if OPTIONS[name] is int:  # --threads and --seed are checked as run.threads and run.seed
            KEYS[f"run.{name[2:]}"].parse(getattr(args, name[2:]), name)
    if args.config is None:
        raise GencoagError("option --config is required")
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
    except BoundViolation as exc:  # raised before any file is written: its FAIL lines, exit 2
        print(exc)
        return EXIT_BOUND_FAIL
    except (GencoagError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
