"""Step budgets of the shipped and benchmark configs.

Each command runs in process with one thread; an observer passed through
the ``observers`` hook of ``run_model`` counts the accepted steps of every
run, and a wrapper around ``make_rhs`` counts right-hand-side evaluations.
The observer also keeps every accepted state, and each snapshot the run
returns must be the state it landed on, bit for bit.
The budgets leave headroom over the measured counts, so a controller that
takes many more steps fails here before it shows in timings.
"""

from pathlib import Path

import pytest

from gencoag import experiments
from gencoag.cli import main

ROOT = Path(__file__).resolve().parent.parent

# (command, config, accepted-step budget); measured: 15, 33, 14, 55, 66
BUDGETS = {
    "simulate_fine": ("simulate", "perfbench/configs/simulate_fine.yaml", 21),
    "simulate_ohs_diag": ("simulate", "perfbench/configs/simulate_ohs_diag.yaml", 45),
    "simulate_singular": ("simulate", "configs/simulate_singular.yaml", 20),
    "validate_constant": ("validate", "configs/validate_constant.yaml", 77),
    "sweep_eps": ("sweep", "configs/sweep_eps.yaml", 92),
}


def assert_rows_are_the_landing_states(traj, initial, states):
    """Row 0 of the snapshot block is the initial data, and row k the state of
    the last accepted step at or before snapshot time k, bit for bit."""
    assert traj.values[0].tobytes() == initial.values.tobytes()
    for t, row in zip(traj.times[1:], traj.values[1:]):
        landed = [v for s, v in states if s <= t * (1.0 + 1e-12)][-1]
        assert row.tobytes() == landed.tobytes()


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_step_budget(name, tmp_path, monkeypatch):
    command, config, budget = BUDGETS[name]
    runs, evals = [], [0]
    real_run_model, real_make_rhs = experiments.run_model, experiments.make_rhs

    def make_rhs(*args, **kwargs):
        rhs = real_make_rhs(*args, **kwargs)

        def counted(density):
            evals[0] += 1
            return rhs(density)
        return counted

    def run_model(*args, observers=(), **kwargs):
        steps, states = [], []

        def observe(t, values, stats):
            steps.append(stats)
            states.append((t, values))

        traj = real_run_model(*args, observers=(*observers, observe), **kwargs)
        runs.append(steps)
        assert_rows_are_the_landing_states(traj, args[3], states)
        return traj

    monkeypatch.setattr(experiments, "make_rhs", make_rhs)
    monkeypatch.setattr(experiments, "run_model", run_model)
    assert main([command, "--config", str(ROOT / config), "--out", str(tmp_path),
                 "--threads", "1"]) == 0
    accepted = sum(len(steps) for steps in runs)
    rejections = sum(s.rejections for steps in runs for s in steps)
    assert accepted <= budget, f"{name}: {accepted} steps > {budget}"
    # six evaluations per step (k7 is the next k1), plus k1 and the
    # starting-step probe per run, plus at most six per rejection
    assert evals[0] <= 6 * accepted + 2 * len(runs) + 6 * rejections
