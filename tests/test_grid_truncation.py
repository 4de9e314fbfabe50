"""The size grid is the truncation: no command reads the kernel off its grid's box.

The paper works on the truncated domain (1/n, n).  The package has no
kernel mask for it: a grid on [1/n, n] reads the kernel only on [1/n, n]^2.
This pins that invariant.  While each command runs in process, every
argument of ``Kernel.eval`` and ``PowerSumKernel.factors`` is recorded with
the n of the grid being solved or checked, and must lie in [1/n, n].  The
power-sum certificates evaluate nothing, so they record nothing.
"""

import numpy as np
import pytest
import yaml

from gencoag import experiments, kernels
from gencoag.cli import main

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
        "grid": {"n": 20.0, "cells_per_decade": 12},
        "initial": {"profile": "exponential"},
        "time": {"horizon": 0.3, "snapshots": 3},
        "output": {"directory": str(tmp_path / "out")},
    }
    if command == "simulate":
        cfg["run"] = {"model": "generalized", "eps": 0.5}
    if command == "sweep":  # two grids, so each read must fall in its own grid's box
        cfg["sweep"] = {"eps_sweep": True, "n_sweep": True, "eps_list": [0.5, 0.125],
                        "n_list": [10.0, 20.0]}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.mark.parametrize("command, family", CASES)
def test_every_kernel_read_lies_in_its_grids_box(tmp_path, monkeypatch, command, family):
    # a sweep reads the kernel only inside its solves; simulate and validate
    # have one grid, of the config's n, which their diagnostics read too
    current = [None if command == "sweep" else 20.0]
    reads = []  # (n, smallest argument, largest argument) per call

    def record(*args):
        reads.extend((current[0], np.min(a), np.max(a)) for a in args)

    evaluate, factors = kernels.Kernel.eval, kernels.PowerSumKernel.factors
    solve = experiments.run_model

    def recorded_eval(self, mu, nu):
        record(mu, nu)
        return evaluate(self, mu, nu)

    def recorded_factors(self, x):
        record(x)
        return factors(self, x)

    def solve_on(model, kernel, grid, *args, **kwargs):
        outer, current[0] = current[0], grid.n
        try:
            return solve(model, kernel, grid, *args, **kwargs)
        finally:
            current[0] = outer

    monkeypatch.setattr(kernels.Kernel, "eval", recorded_eval)
    monkeypatch.setattr(kernels.PowerSumKernel, "factors", recorded_factors)
    monkeypatch.setattr(experiments, "run_model", solve_on)
    assert main([command, "--config", str(config(tmp_path, command, family))]) == 0
    assert reads
    if command == "sweep":
        assert {n for n, _, _ in reads} == {10.0, 20.0}
    outside = [(n, lo, hi) for n, lo, hi in reads if n is None or not 1.0 / n <= lo <= hi <= n]
    assert outside == []
