"""The benchmark calls package names; each call must still work.

``perfbench/trace.py`` replaces the functions listed in its ``WRAPPED``
table while it times a command, and stops the traced pass when one is
gone. ``perfbench/probe.py setup`` builds each workload's first
right-hand side. Running both here makes a rename or a changed call
signature fail the test suite too.
"""

import importlib.util
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
