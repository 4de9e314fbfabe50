"""The benchmark's workloads: which CLI command runs on which config, and why.

Every path is relative to the checkout root, which is the parent of this
directory. The package is imported from ``src/`` of that checkout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    why: str
    # passed to the CLI as --threads; None runs one process
    threads: int | None = None
    # (model, eps) of the first scheme the command builds; None: the config's [run]
    first_model: tuple | None = None

    @property
    def blas_threads(self):
        """OpenBLAS threads per process: 1 where a pool already fills the cores."""
        return 1 if self.threads else nproc()

    def cli_args(self, out_dir, seed, threads=None):
        args = [self.command, "--config", str(ROOT / self.config),
                "--out", str(out_dir), "--seed", str(seed)]
        threads = threads or self.threads
        if threads:
            args += ["--threads", str(threads)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload(
        "simulate_fine", "simulate", "perfbench/configs/simulate_fine.yaml",
        "generalized pair operator at N=512: operator and stepper gains show here",
    ),
    Workload(
        "simulate_ohs_diag", "simulate", "perfbench/configs/simulate_ohs_diag.yaml",
        "same command, but diagnostics, kernel evaluation and file output dominate",
    ),
    Workload(
        "validate_constant", "validate", "configs/validate_constant.yaml",
        "memory-bound OHS path at N=2048 and the SCE scheme; owns the closed-form errors",
        first_model=("sce", None),
    ),
    Workload(
        "sweep_eps", "sweep", "configs/sweep_eps.yaml",
        "small N: per-step overhead, pool start-up and import dominate",
        threads=2, first_model=("ohs", None),
    ),
)}


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(blas_threads):
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["OMP_NUM_THREADS"] = str(blas_threads)
    return env
