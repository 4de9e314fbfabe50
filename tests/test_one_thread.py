"""A CLI process holds one thread, and importing the package loads no numpy.

numpy's OpenBLAS starts a pool of worker threads when it loads, one fewer
than the CPUs it sees, unless ``OPENBLAS_NUM_THREADS`` says otherwise.  No
command makes a BLAS call that OpenBLAS would split, so ``gencoag.cli``
sets that variable to 1 before it imports numpy.  That works only if
``import gencoag`` has not loaded numpy already: the package resolves its
names lazily.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gencoag

SRC = str(Path(gencoag.__file__).resolve().parent.parent)

#: Every name the package exports, and the submodule that defines it.
EXPORTS = {
    "errors": ["ConfigError", "DomainError", "GaugeConstructionError", "GencoagError",
               "InitialDataError", "StiffnessError"],
    "kernels": ["AdditiveKernel", "Certificate", "ConstantKernel", "Kernel", "PowerSumKernel",
                "SingularProductKernel", "kernel_from_config", "truncate"],
    "sizedomain": ["ExponentialProfile", "NumberDensity", "SingularPowerProfile", "SizeGrid",
                   "Trajectory", "make_grid", "sample_initial"],
    "operators": ["make_rhs"],
    "integrator": ["StepStats", "evolve"],
    "gauges": ["ConvexGauge", "build_gauge_from_tail", "psi1_tail", "psi2_tail"],
}


def fresh(code, **env):
    """The last line ``code`` prints in a new interpreter that imports the package from src."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": SRC, **env})
    return done.stdout.splitlines()[-1]


def test_importing_the_package_loads_no_numpy():
    assert fresh("import sys, gencoag\nprint('numpy' in sys.modules, gencoag.__version__)") \
        == "False 0.1.0"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and at least 2 CPUs for OpenBLAS to start a pool")
def test_the_cli_holds_one_thread_whatever_the_environment_asks():
    code = ("import os, sys, gencoag.cli\n"
            "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
    assert fresh(code, OPENBLAS_NUM_THREADS="2") == "True 1"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_every_export_resolves_to_its_submodule(module, name):
    found = {}
    exec(f"from gencoag import {name}", found)
    assert found[name] is getattr(importlib.import_module(f"gencoag.{module}"), name)
    assert getattr(gencoag, name) is found[name]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gencoag.no_such_name
    with pytest.raises(ImportError):
        exec("from gencoag import no_such_name", {})
