"""The benchmark's traced pass wraps package names; each must still exist.

``perfbench/trace.py`` replaces the functions listed in its ``WRAPPED``
table while it times a command, and stops the traced pass when one is
gone. Reading the table here makes a rename fail the test suite too.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    # trace.py imports its siblings gate and workloads by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.WRAPPED
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in trace.WRAPPED
               if not callable(getattr(owner, attr, None))]
    assert missing == []
