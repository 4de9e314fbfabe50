"""Acceptance suite: one test per shipped guarantee, with its tolerance.

Each test prints a single PASS line on success (run pytest with -s to see
them); a failure prints the attained numbers via the assertion message.
"""

import time

import numpy as np
import pytest

from conftest import closed_form_run, grid_run, kernel_trio, mass_report
from gencoag import (
    AdditiveKernel,
    ConstantKernel,
    ExponentialProfile,
    NumberDensity,
    SingularProductKernel,
    SingularPowerProfile,
    build_gauge_from_tail,
    make_grid,
    make_rhs,
    psi1_tail,
    psi2_tail,
    sample_initial,
)
from gencoag.diagnostics import bound_verdicts
from gencoag.experiments import (
    MemberTable,
    SweepConfig,
    eps_limit_check,
    run_eps_sweep,
    run_model,
    validate_m0_riccati,
    validate_sce_constant_kernel,
)
from oracles import (
    check_inequalities,
    omega_identity,
    smooth_library,
    smooth_square,
    smoluchowski_rhs,
    square_gauge,
    weighted_norm,
)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


# --- shared example-run matrix: 3 kernels x 2 profiles x 3 models ---------

MATRIX_N = 20.0
MATRIX_CPD = 16
MATRIX_T = 0.5


class StepLog:
    """Observer recording the L1 norm after every accepted step."""

    def __init__(self, grid):
        self.widths = grid.widths
        self.l1 = []

    def __call__(self, t, values, stats):
        self.l1.append(float(np.sum(values * self.widths)))


@pytest.fixture(scope="module")
def example_matrix():
    kernels = [
        ConstantKernel(1.0),
        SingularProductKernel(k=1.0, sigma=0.2),
        AdditiveKernel(),
    ]
    runs = []
    grid = make_grid(MATRIX_N, MATRIX_CPD)
    for kernel in kernels:
        profiles = [ExponentialProfile(), SingularPowerProfile(0.3, kernel.sigma)]
        for profile in profiles:
            initial = sample_initial(profile, grid)
            for model, eps in (("sce", None), ("ohs", None), ("generalized", 0.5)):
                log = StepLog(grid)
                traj = run_model(
                    model, kernel, grid, initial, MATRIX_T,
                    np.linspace(0.1, MATRIX_T, 5), eps=eps, observers=(log,),
                )
                runs.append({
                    "kernel": kernel,
                    "profile": type(profile).__name__,
                    "model": model,
                    "eps": eps,
                    "grid": grid,
                    "initial": initial,
                    "traj": traj,
                    "step_l1": log.l1,
                })
    return runs


@pytest.fixture(scope="module")
def matrix_verdicts(example_matrix):
    """(label, verdicts) per matrix run: the suite that decides a simulate run."""
    out = []
    for run in example_matrix:
        kernel, initial = run["kernel"], run["initial"]
        gauges = (build_gauge_from_tail(*psi1_tail(initial)),
                  build_gauge_from_tail(*psi2_tail(initial, kernel.sigma)))
        _, verdicts = bound_verdicts(run["traj"], kernel, MATRIX_T, gauges)
        out.append((f"{kernel.family}/{run['profile']}/{run['model']}", verdicts))
    return out


def test_criterion_1_operator_identity_at_eps_one():
    t0 = time.time()
    grid = make_grid(10.0, 32)
    assert grid.size == 64
    rng = np.random.default_rng(2024)
    worst = 0.0
    for kernel in kernel_trio():
        for _ in range(10):
            d = NumberDensity(grid, rng.random(grid.size))
            gen_dz, _ = make_rhs("generalized", kernel, 1.0)(d)
            sce_dz, _ = smoluchowski_rhs(d, kernel)
            scale = max(np.max(np.abs(sce_dz)), 1e-300)
            worst = max(worst, float(np.max(np.abs(gen_dz - sce_dz)) / scale))
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"eps=1 vs Smoluchowski cellwise rel dev {worst:.3e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_2_test_identity_limits():
    rng = np.random.default_rng(7)
    # (a) eps = 1 reduces to the binary-merge form, bitwise
    exact_tilde = True
    for om in smooth_library():
        for _ in range(200):
            nu = float(np.exp(rng.uniform(-3, 3)))
            tau = nu * float(rng.uniform(0.01, 0.99))
            if omega_identity(om, "omega_eps", nu, tau, 1.0) != omega_identity(
                om, "omega_tilde", nu, tau
            ):
                exact_tilde = False
    # (b) |omega_eps - omega_1| = eps tau^2 exactly for omega = mu^2
    square = smooth_square()
    exact_sq = True
    for k in range(1, 21):
        eps = 2.0 ** (-k)
        for nu, tau in ((2.0, 1.0), (4.0, 0.5), (16.0, 2.0), (8.0, 0.25)):
            gap = omega_identity(square, "omega_eps", nu, tau, eps) - omega_identity(
                square, "omega_1", nu, tau
            )
            if gap != eps * tau * tau:
                exact_sq = False
    # (c) Taylor bound for the smooth library at 1e3 sample points
    taylor_ok = True
    worst_ratio = 0.0
    for om in smooth_library():
        nu = np.exp(rng.uniform(-2, 3, 1000))
        tau = nu * rng.uniform(0.01, 0.99, 1000)
        eps = rng.uniform(1e-4, 1.0, 1000)
        for n_, t_, e_ in zip(nu, tau, eps):
            gap = abs(
                omega_identity(om, "omega_eps", float(n_), float(t_), float(e_))
                - omega_identity(om, "omega_1", float(n_), float(t_))
            )
            bound = 0.5 * float(e_) * float(t_) ** 2 * om.sup_second
            worst_ratio = max(worst_ratio, gap / bound if bound else 0.0)
            if gap > bound * (1 + 1e-9) + 1e-12:
                taylor_ok = False
    report(2, exact_tilde and exact_sq and taylor_ok,
           f"tilde bitwise={exact_tilde}, eps*tau^2 exact={exact_sq}, "
           f"Taylor worst gap/bound {worst_ratio:.3f}")


def test_criterion_3_sce_constant_kernel_analytic():
    t0 = time.time()
    base = SweepConfig(kernel=ConstantKernel(1.0), eps_list=(), n=100.0,
                       cells_per_decade=32, profile=ExponentialProfile(), horizon=2.0)
    err32 = validate_sce_constant_kernel(base, closed_form_run(base))[1.0]
    fine = base._replace(cells_per_decade=64)
    err64 = validate_sce_constant_kernel(fine, closed_form_run(fine))[1.0]
    elapsed = time.time() - t0
    report(3, err32 <= 2e-2 and err64 <= 0.5 * err32 and elapsed < 60.0,
           f"weighted-L1 error at t=1: {err32:.3e} (tol 2e-2), refined {err64:.3e} "
           f"(<= half), {elapsed:.1f}s")


def test_criterion_4_m0_riccati_all_models():
    t0 = time.time()
    coarse = SweepConfig(kernel=ConstantKernel(1.0), eps_list=(), n=30.0,
                         cells_per_decade=32, profile=ExponentialProfile(), horizon=2.0)
    worst = {}
    for label, model, eps in (
        ("sce", "sce", None),
        ("ohs", "ohs", None),
        ("gen_eps1", "generalized", 1.0),
        ("gen_eps0.25", "generalized", 0.25),
        ("gen_eps0.01", "generalized", 0.01),
    ):
        traj = grid_run(coarse, model, 2.0, (0.5, 1.0, 2.0), eps)
        worst[label] = max(validate_m0_riccati(coarse, traj).values())
    elapsed = time.time() - t0
    ok = all(v <= 1e-3 for v in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(4, ok, f"|M0 - 2 M0(0)/(2 + M0(0) t)| at t in (0.5, 1, 2): {detail} (tol 1e-3), "
           f"{elapsed:.1f}s")


def test_criterion_5_mass_conservation_ledgers():
    kernel = SingularProductKernel(k=1.0, sigma=0.2)
    closures = {}
    flux_rel = None
    for cpd in (32, 64):
        cfg = SweepConfig(kernel=kernel, eps_list=(), n=20.0, cells_per_decade=cpd,
                          profile=ExponentialProfile(), horizon=1.0)
        for model, eps in (("generalized", 0.5), ("sce", None), ("ohs", None)):
            rep = mass_report(cfg, model, eps)
            closures[f"{model}/{cpd}"] = rep["max_closure_rel"]
            if (model, cpd) == ("ohs", 32):
                flux_rel = [f for f in rep["flux_identities"]
                            if abs(f["lambda"] - 10.0) < 1.0][0]["max_residual_rel"]
    ok = all(c <= 1e-8 for c in closures.values()) and flux_rel <= 1e-3
    detail = ", ".join(f"{k} {v:.2e}" for k, v in closures.items())
    report(5, ok, f"closure rel: {detail} (tol 1e-8); "
                  f"flux identity at n/2 {flux_rel:.2e} (tol 1e-3)")


def test_criterion_6_moment_bounds_matrix(matrix_verdicts):
    violations = [f"{label}: {v.name} {v.attained:.3e} vs {v.bound:.3e}"
                  for label, verdicts in matrix_verdicts for v in verdicts
                  if not v.name.startswith("equicontinuity") and not v.passed]
    names = [v.name for v in matrix_verdicts[0][1] if not v.name.startswith("equicontinuity")]
    report(6, not violations,
           f"{', '.join(names)} over {len(matrix_verdicts)} runs, "
           f"violations: {violations or 'none'}")


def test_criterion_7_positivity_and_norm_decay(example_matrix):
    bad = []
    for run in example_matrix:
        label = f"{run['kernel'].family}/{run['profile']}/{run['model']}"
        m1_0 = weighted_norm(run["initial"], "mass")
        for s in run["traj"]:
            if np.any(s.values < 0.0):
                bad.append(f"{label}: negative cell at t={s.time}")
                break
        if run["traj"].clipped[-1] > 1e-9 * m1_0:
            bad.append(f"{label}: clipped {run['traj'].clipped[-1]:.2e}")
        l1 = [weighted_norm(run["initial"], "one")] + run["step_l1"]
        slack = 1e-12 * l1[0]
        rises = [b - a for a, b in zip(l1, l1[1:]) if b - a > slack]
        if rises:
            bad.append(f"{label}: L1 rose by {max(rises):.2e}")
    report(7, not bad, f"positivity/clip/L1-decay over every step, issues: {bad or 'none'}")


def test_criterion_8_eps_sweep_to_transport_limit():
    t0 = time.time()
    results = {}
    for kernel in (ConstantKernel(1.0), SingularProductKernel(k=1.0, sigma=0.2)):
        cfg = SweepConfig(
            kernel=kernel, eps_list=tuple(2.0 ** -i for i in range(11)), n=50.0,
            cells_per_decade=32, profile=ExponentialProfile(), horizon=1.0,
        )
        table = run_eps_sweep(MemberTable(cfg))
        check = eps_limit_check(table.at_time(1.0))
        results[kernel.family] = {
            "passed": check["passed"] and not table.failed,
            "floor": check["floor"],
            "head": check["distances"][0],
        }
    elapsed = time.time() - t0
    ok = all(r["passed"] for r in results.values()) and elapsed < 600.0
    detail = ", ".join(
        f"{k}: {v['head']:.2e} -> floor {v['floor']:.2e}" for k, v in results.items()
    )
    report(8, ok, f"distance to direct transport run nonincreasing in eps, 0 below "
           f"sqrt(r) - 1 ({detail}), {elapsed:.0f}s")


def test_criterion_9_gauge_inequalities():
    grid = make_grid(30.0, 16)
    d = sample_initial(ExponentialProfile(), grid)
    gauges = {
        "psi1_constructed": build_gauge_from_tail(*psi1_tail(d)),
        "psi2_constructed": build_gauge_from_tail(*psi2_tail(d, 0.2)),
        "square": square_gauge(),
    }
    total_violations = 0
    for name, gauge in gauges.items():
        rep = check_inequalities(gauge, samples=10**4, seed=11)
        total_violations += rep["violations"]
    report(9, total_violations == 0,
           f"3 gauges x 10^4 randomized convexity checks, {total_violations} violations")


def test_criterion_10_equicontinuity_matrix(matrix_verdicts):
    failures = []
    worst_frac = 0.0
    for label, verdicts in matrix_verdicts:
        for v in verdicts:
            if v.name.startswith("equicontinuity"):
                worst_frac = max(worst_frac, v.attained / v.bound if v.bound else 0.0)
                if not v.passed:
                    failures.append(f"{label}/{v.name}")
    report(10, not failures,
           f"modulus <= k(|w|_W1inf + |w|_inf) Theta^2 for all bumps x runs, "
           f"worst attained/bound {worst_frac:.3f}, failures: {failures or 'none'}")
