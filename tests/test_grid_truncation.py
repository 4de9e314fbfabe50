"""The size grid is the truncation: no command reads the kernel off its grid's box.

The paper works on the truncated domain (1/n, n).  The package has no
kernel mask for it: a grid on [1/n, n] reads the kernel only on [1/n, n]^2.
This pins that invariant.  While each command runs in process, every
argument of ``Kernel.eval`` and ``PowerSumKernel.factors`` is recorded,
and must lie in [1/n, n] of the command's one grid.  The power-sum
certificates evaluate nothing, so they record nothing.
"""

import numpy as np
import pytest
import yaml

from gencoag import kernels
from gencoag.cli import main

N = 20.0  # the grid's n
FAMILIES = {
    "constant": {"family": "constant", "rate": 1.0},
    "singular_product": {"family": "singular_product", "k": 1.0, "sigma": 0.2},
    "additive": {"family": "additive"},
}
CASES = [("simulate", f) for f in FAMILIES] + [("sweep", f) for f in FAMILIES] + [
    ("validate", "constant")]  # validate's closed forms need the constant kernel


def config(tmp_path, command, family):
    cfg = {
        "kernel": FAMILIES[family],
        "grid": {"n": N, "cells_per_decade": 12},
        "initial": {"profile": "exponential"},
        "time": {"horizon": 0.3},
        "output": {"directory": str(tmp_path / "out")},
    }
    if command == "simulate":  # only simulate reads a model, eps and snapshots
        cfg["run"] = {"model": "generalized", "eps": 0.5}
        cfg["time"]["snapshots"] = 3
    if command == "sweep":
        cfg["sweep"] = {"eps_list": [0.5, 0.125]}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.mark.parametrize("command, family", CASES)
def test_every_kernel_read_lies_in_its_grids_box(tmp_path, monkeypatch, command, family):
    # every command solves and checks on one grid, of the config's n
    reads = []  # (smallest argument, largest argument) per call

    def record(*args):
        reads.extend((np.min(a), np.max(a)) for a in args)

    evaluate, factors = kernels.Kernel.eval, kernels.PowerSumKernel.factors

    def recorded_eval(self, mu, nu):
        record(mu, nu)
        return evaluate(self, mu, nu)

    def recorded_factors(self, x):
        record(x)
        return factors(self, x)

    monkeypatch.setattr(kernels.Kernel, "eval", recorded_eval)
    monkeypatch.setattr(kernels.PowerSumKernel, "factors", recorded_factors)
    assert main([command, "--config", str(config(tmp_path, command, family))]) == 0
    assert reads
    assert [(lo, hi) for lo, hi in reads if not 1.0 / N <= lo <= hi <= N] == []
