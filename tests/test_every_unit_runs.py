"""Every function defined in ``src/gencoag`` is one a shipped run calls.

A fresh interpreter imports the CLI under a call-only ``sys.settrace`` and
runs, in that interpreter, every command of ``RUNS``: each shipped and
benchmark config once, plus ``check-kernel``.  Each function is keyed by its
module and ``co_qualname``.  A function no run calls is either deleted or
given a run; the few that stay uncalled are ``EXEMPT``, each with its reason.
Production code that exists only for the tests belongs in ``tests/``.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import gencoag

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(gencoag.__file__).resolve().parent

#: (command, config, exit code): every YAML file under configs/ and perfbench/configs/,
#: and check-kernel; only corrupt_mass, whose last snapshot is corrupted, fails a verdict
RUNS = [
    ("simulate", "configs/simulate_singular.yaml", 0),
    ("simulate", "configs/simulate_outflux.yaml", 0),
    ("simulate", "perfbench/configs/simulate_fine.yaml", 0),
    ("simulate", "perfbench/configs/simulate_ohs_diag.yaml", 0),
    ("simulate", "perfbench/configs/corrupt_mass.yaml", 2),
    ("validate", "configs/validate_constant.yaml", 0),
    ("sweep", "configs/sweep_eps.yaml", 0),
    ("check-kernel", "configs/simulate_singular.yaml", 0),
]

_PROBE_USE = "only the benchmark probe, perfbench/probe.py, calls it, to time kernel evaluation"
_ABSTRACT = "the base class raises here for a subclass that lacks it; every shipped kernel has it"
_REFUSAL = "reached only when a command refuses its input, which no shipped config does"

#: (module, qualname) -> why no run calls it
EXEMPT = {
    ("kernels", "truncate"): _PROBE_USE,
    ("kernels", "Kernel.eval"): _PROBE_USE,
    ("kernels", "Kernel._rate"): _PROBE_USE,
    ("kernels", "PowerSumKernel._rate"): _PROBE_USE,
    ("kernels", "Kernel._suprema"): _ABSTRACT,
    ("kernels", "Kernel.factors"): _ABSTRACT,
    ("cli", "_fail"): _REFUSAL,
    ("cli", "_check_keys.<locals>.shown"): _REFUSAL,
    ("errors", "StiffnessError.__init__"): _REFUSAL,
    ("experiments", "DistanceTable.fail"): _REFUSAL,
}

#: traces calls from the first import of the CLI on, so that import-time calls count
PROBE = """
import contextlib, io, json, sys
src, root, out, runs = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
called, codes = set(), []

def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(src):
        called.add((code.co_filename, code.co_qualname))

sys.settrace(trace)
import gencoag.cli
for i, (command, config, _) in enumerate(runs):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(gencoag.cli.main([command, "--config", f"{root}/{config}",
                                       "--out", f"{out}/{i}"]))
sys.settrace(None)
print(json.dumps([codes, sorted(called)]))
"""


def _functions(code):
    """The qualnames of the functions compiled into ``code``, at any depth."""
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            # a class body is not CO_OPTIMIZED; a lambda or comprehension is no identifier
            if const.co_flags & inspect.CO_OPTIMIZED and const.co_name.isidentifier():
                yield const.co_qualname
            yield from _functions(const)


def defined():
    """(module, qualname) of every function in the package's source."""
    return {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
            for name in _functions(compile(path.read_text(), str(path), "exec"))}


def called(tmp_path):
    """(module, qualname) of every package function the runs of ``RUNS`` call; each run must
    exit with its code, so that none stops before the work it stands for."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE), str(ROOT), str(tmp_path), json.dumps(RUNS)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    codes, names = json.loads(done.stdout)
    assert codes == [code for _, _, code in RUNS], done.stderr
    return {(Path(file).stem, name) for file, name in names}


def test_the_runs_are_every_shipped_config():
    shipped = {str(p.relative_to(ROOT)) for d in ("configs", "perfbench/configs")
               for p in (ROOT / d).glob("*.yaml")}
    assert {config for _, config, _ in RUNS} == shipped


def test_every_function_is_called_by_a_run(tmp_path):
    functions, reached = defined(), called(tmp_path)
    assert sorted(EXEMPT.keys() - functions) == [], "an exemption names no defined function"
    assert sorted(EXEMPT.keys() & reached) == [], "an exempt function is called: drop its exemption"
    assert sorted(functions - reached - EXEMPT.keys()) == [], "no run calls these: delete or run them"
