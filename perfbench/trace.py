"""Traced pass of one workload: its CLI command, run in this process.

    python3 perfbench/trace.py <workload> <seed>

The command runs untraced, then traced, then untraced again; the tracing
overhead is the traced wall time minus the mean of the untraced ones. For
the traced run, wrappers installed from here around the public functions
the CLI and ``experiments`` call record spans (name, start, end, parent,
run id), and an observer passed through the ``observers`` hook of
``run_model`` records every accepted step. A wrapped name that is gone, or
a layer whose spans never appear, stops the pass with an error rather
than reporting 0 for a layer that was not measured. Pool workers are out
of reach of the wrappers, so the sweep is traced with one thread; a
second pass with the workload's threads times only the sweep and its
reference run, which gives the pool's efficiency.

Prints one JSON object: the workload's per-layer metrics, the number of
gated runs and the failures. Spans go to .perfbench_out/trace/.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import shutil
import sys
import time

from gencoag import cli, diagnostics, experiments

import gate
from workloads import OUT, WORKLOADS

# (owner, attribute, span name): the owner is where the caller looks the name up
WRAPPED = [
    (experiments, "run_eps_sweep", "experiments.run_eps_sweep"),
    (experiments, "run_model", "experiments.run_model"),
    (experiments, "evolve", "integrator.evolve"),
    (experiments, "_eps_member", "experiments.member"),
    (experiments, "validate_sce_constant_kernel", "experiments.validate_sce"),
    (experiments, "validate_m0_riccati", "experiments.validate_m0"),
    (experiments, "mass_conservation_report", "experiments.mass_conservation"),
    (diagnostics, "moment_table", "diagnostics.moment_table"),
    (diagnostics, "theta_bound_check", "diagnostics.bound_checks"),
    (diagnostics, "moment_monotonicity_check", "diagnostics.bound_checks"),
    (diagnostics, "psi1_moment_check", "diagnostics.bound_checks"),
    (diagnostics, "uniform_integrability_check", "diagnostics.bound_checks"),
    (diagnostics, "equicontinuity_modulus", "diagnostics.equicontinuity"),
    (diagnostics, "weak_form_residual", "diagnostics.weak_form"),
    (diagnostics, "mass_flux_identity", "diagnostics.flux_identity"),
    (diagnostics, "tail_flux_decay", "diagnostics.tail_flux"),
    (cli, "build_gauge_from_tail", "gauges.build"),
    (cli, "write_snapshot_csv", "output.snapshot"),
    (cli, "write_gauge_csv", "output.gauge"),
    (cli, "_dump_json", "output.json"),
    (diagnostics, "write_moments_csv", "output.moments"),
    (diagnostics.DiagnosticsReport, "write_json", "output.report"),
    (experiments.DistanceTable, "write_csv", "output.distances"),
    (experiments, "make_rhs", "operators.make_rhs"),
    (diagnostics, "make_rhs", "operators.make_rhs"),
]
DIAGNOSTICS = ("moment_table", "bound_checks", "equicontinuity", "weak_form",
               "flux_identity", "tail_flux")


class Tracer:
    """Spans and accepted steps of one run, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index]
        self.steps = []  # (dt, rejections, lands on a snapshot) per accepted step
        self.runs = []  # model, eps, cells and steps of each run_model call
        self._open = []
        self._stops = ()  # snapshot times of the run_model call in progress

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.spans.append([name, time.perf_counter(), None,
                               self._open[-1] if self._open else None])
            self._open.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[self._open.pop()][2] = time.perf_counter()

        return traced

    def observe(self, time_, density, stats):
        # evolve shortens the step that lands on a snapshot time; flag it so
        # that dt_min reflects the steps the stepper chose
        lands = any(abs(time_ - stop) <= 1e-12 * max(abs(stop), 1.0) for stop in self._stops)
        self.steps.append((stats.dt, stats.rejections, lands))

    def wrap_make_rhs(self, make_rhs, name):
        """Also wrap the right-hand side callable that ``make_rhs`` returns."""
        def traced_make_rhs(*args, **kwargs):
            return self.wrap(make_rhs(*args, **kwargs), "operators.rhs")

        return self.wrap(traced_make_rhs, name)

    def wrap_run_model(self, run_model, name):
        """Also pass the step observer through ``observers``, and count steps per run."""
        signature = inspect.signature(run_model)

        def observed_run_model(*args, **kwargs):
            kwargs["observers"] = (*kwargs.get("observers", ()), self.observe)
            call = signature.bind(*args, **kwargs).arguments
            t0 = call["initial"].time
            self._stops = (*(call.get("snapshot_times") or ()), t0 + call["horizon"])
            first = len(self.steps)
            try:
                traj = run_model(*args, **kwargs)
            finally:
                self._stops = ()
            steps = self.steps[first:]
            self.runs.append({"model": call["model"], "eps": call.get("eps"),
                              "cells": call["grid"].size, "steps": len(steps),
                              "rejections": sum(r for _, r, _ in steps)})
            return traj

        return self.wrap(observed_run_model, name)


@contextlib.contextmanager
def installed(tracer, only=None):
    """Wrap the listed names (or those whose span name is in ``only``)."""
    saved = []
    try:
        for owner, attr, name in WRAPPED:
            if only is not None and name not in only:
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                raise AttributeError(f"cannot trace {name}: {owner.__name__}.{attr} is gone; "
                                     "update WRAPPED in perfbench/trace.py")
            saved.append((owner, attr, fn))
            if attr == "make_rhs":
                setattr(owner, attr, tracer.wrap_make_rhs(fn, name))
            elif attr == "run_model":
                setattr(owner, attr, tracer.wrap_run_model(fn, name))
            else:
                setattr(owner, attr, tracer.wrap(fn, name))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def cli_pass(w, seed, threads=None):
    """Run the workload's command in process; return wall time, gate reasons, output dir."""
    out_dir = OUT / "trace" / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stdout = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(w.cli_args(out_dir, seed, threads))
    except Exception as exc:  # reported as a failed run, like a crash of the CLI
        code = repr(exc)
    wall = time.perf_counter() - t
    return wall, gate.check(w.command, code, stdout.getvalue(), out_dir), out_dir


class Spans:
    """Totals over one tracer's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [end - start for _, start, end, _ in spans]
        self.covered = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent is not None:
                self.covered[parent] += self.dur[i]

    def pick(self, name, parent=None):
        """Indices of the spans of ``name`` (under ``parent``); there must be some."""
        found = [i for i, s in enumerate(self.spans) if s[0] == name
                 and (parent is None or (s[3] is not None and self.spans[s[3]][0] == parent))]
        if not found:
            where = f" under {parent}" if parent else ""
            raise LookupError(f"no {name} span{where}: the command no longer calls a "
                              "wrapped name; update WRAPPED in perfbench/trace.py")
        return found

    def total(self, name, parent=None):
        return sum(self.dur[i] for i in self.pick(name, parent))

    def self_time(self, name):
        return sum(self.dur[i] - self.covered[i] for i in self.pick(name))


def bytes_in(out_dir, pattern="*"):
    return sum(p.stat().st_size for p in out_dir.glob(pattern))


def metrics_of(w, tracer, out_dir):
    s = Spans(tracer.spans)
    # landing steps are cut short to hit a snapshot time: not the stepper's choice
    dts = [dt for dt, _, lands in tracer.steps if not lands]
    if not dts:
        raise LookupError("the step observer saw no steps: run_model no longer passes "
                          "observers to evolve")
    # each command calls only some of the output writers, but at least one
    outputs = [i for i, span in enumerate(s.spans) if span[0].startswith("output.")]
    if not outputs:
        raise LookupError("no output.* span: the command no longer calls a wrapped writer")
    m = {
        "integrator.steps": len(tracer.steps),
        "integrator.rejections": sum(r for _, r, _ in tracer.steps),
        "integrator.rhs_evals": len(s.pick("operators.rhs", parent="integrator.evolve")),
        "integrator.dt_min": min(dts),
        "integrator.dt_max": max(dts),
        "integrator.evolve_s": s.total("integrator.evolve"),
        "integrator.self_s": s.self_time("integrator.evolve"),
        "operators.solve_rhs_s": s.total("operators.rhs", parent="integrator.evolve"),
        "cli.output_s": sum(s.dur[i] for i in outputs),
        "cli.output_bytes": bytes_in(out_dir),
    }
    if w.command == "simulate":
        for name in DIAGNOSTICS:
            m[f"diagnostics.{name}_s"] = s.total(f"diagnostics.{name}")
        m["diagnostics.total_s"] = sum(m[f"diagnostics.{n}_s"] for n in DIAGNOSTICS)
        m["gauges.build_s"] = s.total("gauges.build")
        m["sizedomain.snapshot_write_s"] = s.total("output.snapshot")
        m["sizedomain.snapshot_bytes"] = bytes_in(out_dir, "snapshot_*.csv")
    elif w.command == "validate":
        m["experiments.validate_sce_s"] = s.total("experiments.validate_sce")
        m["experiments.validate_m0_s"] = s.total("experiments.validate_m0")
        m["experiments.mass_conservation_s"] = s.total("experiments.mass_conservation")
    elif w.command == "sweep":
        members = [s.dur[i] for i in s.pick("experiments.member")]
        m["experiments.member_s.max"] = max(members, default=0.0)
        m["experiments.member_s.sum"] = sum(members)
        m["experiments.reference_s"] = s.total("experiments.run_model",
                                               parent="experiments.run_eps_sweep")
    return m


def main(name, seed):
    w = WORKLOADS[name]
    # wrappers in this process do not reach pool workers: trace the sweep serially
    threads = 1 if w.threads else None
    before, reasons, _ = cli_pass(w, seed, threads)
    failures = [reasons]
    with installed(Tracer("traced")) as tracer:
        traced_wall, reasons, out_dir = cli_pass(w, seed, threads)
    failures.append(reasons)
    metrics = metrics_of(w, tracer, out_dir)
    after, reasons, _ = cli_pass(w, seed, threads)
    failures.append(reasons)
    metrics["trace.overhead_s"] = traced_wall - (before + after) / 2
    runs = [tracer]
    if w.threads:
        with installed(Tracer("pool"), only={"experiments.run_eps_sweep",
                                             "experiments.run_model"}) as pool:
            _, reasons, _ = cli_pass(w, seed)
        failures.append(reasons)
        s = Spans(pool.spans)
        pool_wall = s.total("experiments.run_eps_sweep") - s.total(
            "experiments.run_model", parent="experiments.run_eps_sweep")
        metrics["experiments.pool_efficiency"] = (
            metrics["experiments.member_s.sum"] / (w.threads * pool_wall) if pool_wall > 0 else 0.0)
        runs.append(pool)
    with open(OUT / "trace" / f"{name}.spans.json", "w") as fh:
        json.dump([{"name": n, "start": a, "end": b, "parent": p, "run": t.run_id}
                   for t in runs for n, a, b, p in t.spans], fh)
    print(json.dumps({"metrics": metrics, "runs": tracer.runs, "attempted": len(failures),
                      "failures": [r for r in failures if r]}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
