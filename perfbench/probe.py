"""Measurements made in a fresh interpreter, one per process.

    python3 perfbench/probe.py setup <workload>
    python3 perfbench/probe.py import
    python3 perfbench/probe.py operator <model> <cells>
    python3 perfbench/probe.py layers

Each prints one JSON object. ``setup`` times importing ``gencoag.cli``,
loading the workload's config and building the grid, truncated kernel,
initial projection and first right-hand side of its first model.
``operator`` builds one scheme on a grid of the given cell count and times
its right-hand side; it runs alone in its process so that the resident-set
growth it reports is the scheme's own.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from workloads import ROOT, WORKLOADS, nproc  # noqa: E402

# cells -> (n, cells_per_decade); 109 is the sweep's grid, the rest refine n=100
GRIDS = {109: (50.0, 32), 512: (100.0, 128), 1536: (100.0, 384), 3072: (100.0, 768)}
KERNEL = {"family": "singular_product", "k": 1.0, "sigma": 0.2}
MODEL_EPS = {"generalized": 0.25, "sce": None, "ohs": None}


def repeat(fn, min_calls=3, budget_s=0.3):
    """Median seconds per call of ``fn`` over a time budget."""
    times = []
    while len(times) < min_calls or (sum(times) < budget_s and len(times) < 1000):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096 / 2**20


def environment():
    import numpy as np

    import gencoag

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gencoag": gencoag.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup(workload):
    from gencoag import cli, kernels, operators, sizedomain

    w = WORKLOADS[workload]
    cfg = cli.load_config(ROOT / w.config)
    model, eps = w.first_model or (cfg["run"]["model"], cfg["run"].get("eps"))
    kernel = kernels.kernel_from_config(cfg["kernel"])
    grid = sizedomain.make_grid(float(cfg["grid"]["n"]), int(cfg["grid"]["cells_per_decade"]))
    initial = sizedomain.sample_initial(cli.build_profile(cfg, kernel.sigma), grid)
    trunc = kernels.truncate(kernel, grid.n)
    operators.make_rhs(model, trunc, eps)(initial)
    return {"setup_s": time.perf_counter() - T0, "env": environment()}


def import_cli():
    import gencoag.cli  # noqa: F401

    return {"import_s": time.perf_counter() - T0}


def operator(model, cells):
    from gencoag import kernels, operators, sizedomain

    grid = sizedomain.make_grid(*GRIDS[cells])
    trunc = kernels.truncate(kernels.kernel_from_config(KERNEL), grid.n)
    initial = sizedomain.sample_initial(sizedomain.ExponentialProfile(), grid)
    before = rss_mb()
    t = time.perf_counter()
    rhs = operators.make_rhs(model, trunc, MODEL_EPS[model])
    rhs(initial)
    first = time.perf_counter() - t
    scheme_mb = rss_mb() - before
    rhs_s = repeat(lambda: rhs(initial), budget_s=0.5)
    return {"build_s": max(first - rhs_s, 0.0), "rhs_s": rhs_s, "scheme_mb": scheme_mb,
            "cells": grid.size}


def layers():
    import numpy as np

    from gencoag import kernels, sizedomain

    grid = sizedomain.make_grid(*GRIDS[512])
    x = grid.centers
    out = {}
    for cfg in ({"family": "constant", "rate": 1.0}, KERNEL, {"family": "additive", "k": 2.0}):
        trunc = kernels.truncate(kernels.kernel_from_config(cfg), grid.n)
        sec = repeat(lambda: np.asarray(trunc.eval(x[:, None], x[None, :])))
        out[f"kernels.eval_ns_per_pair.{cfg['family']}"] = sec / x.size**2 * 1e9
    profile = sizedomain.ExponentialProfile()
    out["sizedomain.sample_initial_s"] = repeat(lambda: sizedomain.sample_initial(profile, grid))
    return out


if __name__ == "__main__":
    what, args = sys.argv[1], sys.argv[2:]
    if what == "setup":
        result = setup(args[0])
    elif what == "import":
        result = import_cli()
    elif what == "operator":
        result = operator(args[0], int(args[1]))
    elif what == "layers":
        result = layers()
    else:
        sys.exit(f"unknown probe {what!r}")
    print(json.dumps(result))
