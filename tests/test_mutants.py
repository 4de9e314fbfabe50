"""The mutant matrix: which planted faults the commands' own verdicts catch.

Each mutant is a set of exact string replacements in one file of a copy of
the package, each matching once.  The copy runs, in a fresh interpreter, the
commands of ``RUNS``: ``simulate`` on three configs, ``validate`` and
``sweep`` on theirs, then ``simulate`` on the one config whose mass leaves
through n; the exit codes (0 passed, 2 a verdict failed) must be the row of
``MUTANTS``, survivors included.  A change that makes a command catch a
mutant flips its entry here, so no new survivor appears unnoticed.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gencoag

ROOT = Path(__file__).resolve().parent.parent

#: (command, config) in the order of each row's exit codes
RUNS = [
    ("simulate", "configs/simulate_singular.yaml"),
    ("simulate", "perfbench/configs/simulate_fine.yaml"),
    ("simulate", "perfbench/configs/simulate_ohs_diag.yaml"),
    ("validate", "configs/validate_constant.yaml"),
    ("sweep", "configs/sweep_eps.yaml"),
    # the one run that sends real mass through n and reads a kernel of rank 2
    ("simulate", "configs/simulate_outflux.yaml"),
]

#: name -> (file, ((old, new), ...), exit codes in the order of RUNS)
MUTANTS = {
    # every kernel rate x1.05: the mass ledger stays exact
    "kernel_rate_x1.05": ("operators.py", (
        ("self.f = np.array(", "self.f = 1.05 * np.array("),), (0, 0, 0, 2, 0, 0)),
    # the self-pair weight 1/2 -> 1/4 in all four places, so the ledger stays exact
    "diagonal_weight_quarter": ("operators.py", (
        ("lags[lo:hi] == 0, 0.5, 1.0)", "lags[lo:hi] == 0, 0.25, 1.0)"),
        ("self.j_idx, 0.5, 1.0)", "self.j_idx, 0.25, 1.0)"),
        ("reach -= 0.5 * xv", "reach -= 0.75 * xv"),
        ("suffix - 0.5 * u", "suffix - 0.75 * u")), (0, 0, 0, 2, 0, 0)),
    # the kernel tilted by x_j^-0.05: the ledger stays exact
    "kernel_tilt_small_partner": ("operators.py", (
        ("self.g = np.array([g for _, g in factors])",
         "self.g = np.array([g for _, g in factors]) * x ** -0.05"),), (0, 0, 0, 2, 0, 0)),
    # the state's Dormand-Prince weights -> 1/4 on k1 and 3/4 on k6: a first-order
    # stepper, caught only where mass leaves, since the outflux ledger keeps the weights b
    "dp_weights_first_order": ("integrator.py", (
        ("values + dt * _combine(B, ks)", "values + dt * (0.25 * ks[0] + 0.75 * ks[5])"),),
        (0, 0, 0, 0, 0, 2)),
    # the same weights on the state and on the outflux ledger: the ledger stays
    # consistent with the state, and no run catches the first-order stepper
    "dp_weights_first_order_with_ledger": ("integrator.py", (
        ("values + dt * _combine(B, ks)", "values + dt * (0.25 * ks[0] + 0.75 * ks[5])"),
        ("dt * _combine(B, ls)", "dt * (0.25 * ls[0] + 0.75 * ls[5])")),
        (0, 0, 0, 0, 0, 0)),
    # the two-point deposit shares swapped: mass is deposited at the wrong size
    "deposit_shares_swapped": ("operators.py", (
        ("w * rate, (1.0 - w) * rate)", "(1.0 - w) * rate, w * rate)"),), (2, 2, 0, 2, 2, 2)),
    # the offset-0 move at half its rate: the big partner's mass is lost
    "offset0_move_halved": ("operators.py", (
        ("/ self.gaps[lo:top]", "/ (2.0 * self.gaps[lo:top])"),), (2, 2, 2, 2, 2, 2)),
    # the band's share of each event into the top cell dropped: that mass is lost,
    # by 1.02e-13 of M1 on simulate_singular, just above the closure tolerance 1e-13
    "band_top_share_dropped": ("operators.py", (
        ("births[-1] = np.sum(band * self.share)", "births[-1] = 0.0"),), (2, 0, 0, 0, 0, 2)),
    # a product past n leaves at n, not at its size p: the ledger books too little
    "band_past_n_leaves_at_n": ("operators.py", (
        ("np.where(over, p, grid.n", "np.where(over, grid.n, grid.n"),), (0, 0, 0, 0, 0, 2)),
    # the offset-0 move with the cross terms sum_r u_r * sum_s reach_s of a rank >= 2 kernel
    "offset0_move_rank_cross_terms": ("operators.py", (
        ("np.sum(u[:, lo:top] * reach, axis=0)",
         "np.sum(u[:, lo:top], axis=0) * np.sum(reach, axis=0)"),), (0, 0, 0, 0, 0, 2)),
}

#: runs each command of RUNS in this interpreter and prints their exit codes
PROBE = """
import contextlib, io, sys
import gencoag.cli
root, src, out = sys.argv[1:4]
assert gencoag.cli.__file__.startswith(src), gencoag.cli.__file__
codes = []
for i, (command, config) in enumerate(%r):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(gencoag.cli.main([command, "--config", f"{root}/{config}",
                                       "--out", f"{out}/{i}"]))
print(*codes)
"""


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_exit_codes(name, tmp_path):
    file, edits, expect = MUTANTS[name]
    src = tmp_path / "src"
    shutil.copytree(Path(gencoag.__file__).resolve().parent, src / "gencoag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "gencoag" / file
    text = path.read_text()
    for old, new in edits:
        assert text.count(old) == 1, f"{name}: {old!r} matches {text.count(old)} times"
        text = text.replace(old, new)
    path.write_text(text)
    done = subprocess.run([sys.executable, "-c", PROBE % (RUNS,), str(ROOT), str(src),
                           str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert tuple(int(c) for c in done.stdout.split()) == expect
