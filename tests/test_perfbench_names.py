"""The benchmark calls package names; each call must still work.

``perfbench/trace.py`` replaces the functions listed in its ``WRAPPED``
table while it times a command, and stops the traced pass when one is
gone or when a span it reads no longer nests under the caller it
expects. ``perfbench/probe.py setup`` builds each workload's first
right-hand side. Running both here makes a rename, a changed call
signature or a moved call fail the test suite too. So does a change to
the config keys a command reads that refuses a config the benchmark runs.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from gencoag import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(monkeypatch, name):
    """Import ``perfbench/<name>.py`` by path: perfbench is not a package."""
    # the perfbench scripts import their siblings (gate, workloads) by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    trace = load_perfbench(monkeypatch, "trace")
    assert trace.WRAPPED
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in trace.WRAPPED
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_setup_probe_runs(monkeypatch):
    # the setup probe builds each workload's first right-hand side through
    # make_rhs(model, truncate(kernel, n), eps)(density)
    probe = load_perfbench(monkeypatch, "probe")
    for name in probe.WORKLOADS:
        setup_s = probe.setup(name)["setup_s"]
        assert 0.0 < setup_s < math.inf


@pytest.mark.parametrize("name", ["simulate_fine", "simulate_ohs_diag", "sweep_eps",
                                  "validate_constant"])
def test_traced_pass_reads_its_spans(monkeypatch, tmp_path, name):
    # the traced pass of trace.main: metrics_of picks spans by name and
    # parent, so for instance the sweep's reference run_model must stay
    # directly under run_eps_sweep
    trace = load_perfbench(monkeypatch, "trace")
    monkeypatch.setattr(trace, "OUT", tmp_path)
    w = trace.WORKLOADS[name]
    with trace.installed(trace.Tracer("test")) as tracer:
        _, reasons, out_dir = trace.cli_pass(w, 0, 1 if w.threads else None)
    assert reasons == []
    metrics = trace.metrics_of(w, tracer, out_dir)
    assert metrics["integrator.steps"] > 0 and metrics["integrator.rhs_evals"] > 0
    assert metrics["cli.output_bytes"] > 0
    if w.command == "simulate":
        assert metrics["diagnostics.total_s"] > 0.0 and metrics["gauges.build_s"] > 0.0
        assert metrics["sizedomain.snapshot_bytes"] > 0
    elif w.command == "sweep":
        assert metrics["experiments.reference_s"] > 0.0
        assert 0.0 < metrics["experiments.member_s.max"] <= metrics["experiments.member_s.sum"]
    else:
        assert metrics["experiments.validate_m0_s"] > 0.0


def test_every_benchmark_config_passes_its_commands_key_check(monkeypatch):
    # each command refuses the keys it does not read: a config the benchmark
    # runs that sets one would exit 1 instead of timing the command
    probe = load_perfbench(monkeypatch, "probe")  # it imports workloads.py by plain name
    runs = [(w.command, ROOT / w.config) for w in probe.WORKLOADS.values()]
    runs += [("simulate", PERFBENCH / "configs" / "corrupt_mass.yaml"),
             ("simulate", ROOT / "configs" / "simulate_singular.yaml"),
             ("check-kernel", ROOT / "configs" / "simulate_singular.yaml")]
    assert {command for command, _ in runs} == set(cli.COMMANDS)
    for command, path in runs:
        assert cli.load_config(path, command)
