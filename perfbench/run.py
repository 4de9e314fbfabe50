"""Benchmark of the gencoag CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--log FILE]

With ``--trace 0`` the workload's CLI command runs again and again, each
time in a fresh interpreter, for ``--seconds``; the end-to-end metrics are
medians over those runs. With ``--trace 1`` the layer probes and the traced
pass of every workload (``trace.py``) give the per-layer metrics. Every CLI
run goes through the correctness gate (``gate.py``). The last line printed
is the result as JSON; ``--log`` also appends the full record (samples and
environment) to a JSON-lines file that ``compare.py`` reads. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
from workloads import OUT, ROOT, SRC, WORKLOADS, Workload, child_env, nproc

HERE = Path(__file__).resolve().parent
# every run must end within 180 s; stop starting work well before that
DEADLINE_S = 165.0
SETUP_PROBES = 12
MIN_REPS = 3
CORRUPT = Workload("corrupt_mass", "simulate", "perfbench/configs/corrupt_mass.yaml",
                   "gate self-test: must be counted as failed")
# accuracy metric -> the workload whose output carries it
ACCURACY_OWNER = {"sce_l1_error": "validate_constant", "m0_max_error": "validate_constant",
                  "eps_floor_distance": "sweep_eps"}
OPERATOR_TABLE = [(model, cells) for model in ("generalized", "sce", "ohs")
                  for cells in (109, 512, 1536, 3072) if (model, cells) != ("sce", 3072)]


class Run:
    """Outcome of one child process: times, memory, exit code and output."""

    def __init__(self, argv, env, log_dir, deadline):
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                    start_new_session=True)
            killer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                     os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: take the child's process group down too
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - t
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        try:  # pool workers left behind by a crashed run
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        # usage covers the process and every descendant it waited for
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()


def python_run(script, args, env, log_dir, deadline):
    return Run([sys.executable, str(HERE / script), *args], env, log_dir, deadline)


def probe(args, env, deadline):
    run = python_run("probe.py", args, env, OUT / "probe", deadline)
    if run.returncode != 0:
        raise RuntimeError(f"probe {' '.join(args)} failed:\n{run.stderr}")
    return json.loads(run.stdout.splitlines()[-1])


def cli_run(w, seed, deadline):
    """One gated CLI run of ``w`` in a fresh interpreter."""
    out_dir = OUT / "runs" / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = Run([sys.executable, "-m", "gencoag.cli", *w.cli_args(out_dir, seed)],
              child_env(w.blas_threads), OUT / "logs" / w.name, deadline)
    run.reasons = gate.check(w.command, run.returncode, run.stdout, out_dir)
    run.accuracy = accuracy(out_dir)
    return run


def accuracy(out_dir):
    """The closed-form and limit errors a run's output carries."""
    found = {}
    path = out_dir / "validate.json"
    if path.exists():
        doc = json.loads(path.read_text())
        found["sce_l1_error"] = max(doc["sce_analytic"]["errors"].values())
        found["m0_max_error"] = max(e for m in doc["m0_riccati"]["models"].values()
                                    for e in m["errors"].values())
    path = out_dir / "summary.json"
    if path.exists():
        floors = [c["floor"] for name, c in json.loads(path.read_text())["checks"].items()
                  if name.startswith("eps_monotone")]
        if floors:
            found["eps_floor_distance"] = max(floors)
    return found


def owner_accuracy(owner, seed, deadline):
    """Accuracy metrics of the owning workload's command, and the run made for them.

    They are deterministic, so one gated run per source tree is enough; the
    result is kept under .perfbench_out, keyed by a hash of the package
    sources and the owner's config. The owner itself measures them on
    every timed run.
    """
    digest = hashlib.sha256()
    for path in sorted((SRC / "gencoag").rglob("*")) + [ROOT / owner.config]:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    cache = OUT / f"accuracy-{owner.name}-{digest.hexdigest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text()), None
    run = cli_run(owner, seed, deadline)
    if not run.reasons:
        cache.write_text(json.dumps(run.accuracy))
    return run.accuracy, run


def end_to_end(w, seed, seconds, deadline):
    env = child_env(w.blas_threads)
    # the first probe warms the file cache and, where allowed, writes bytecode; not counted
    environment = {**probe(["setup", w.name], env, deadline)["env"],
                   "OPENBLAS_NUM_THREADS": w.blas_threads, "cli_threads": w.threads or 1}
    corrupt = cli_run(CORRUPT, seed, deadline)

    # setup probes are spread evenly over the timed runs, so that they see
    # the same host load as the runs do
    setup, runs, timed = [], [], 0.0
    while len(runs) < MIN_REPS or timed < seconds:
        while len(setup) < max(1, math.ceil(SETUP_PROBES * min(timed / seconds, 1.0))):
            setup.append(probe(["setup", w.name], env, deadline)["setup_s"])
        runs.append(cli_run(w, seed, deadline))
        timed += runs[-1].wall_s
        if time.monotonic() + runs[-1].wall_s > deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe(["setup", w.name], env, deadline)["setup_s"])
    samples = {"setup_s": setup, "wall_s": [r.wall_s for r in runs]}
    samples["cpu_s"] = [r.cpu_s for r in runs]
    samples["peak_rss_mb"] = [r.peak_rss_mb for r in runs]
    notes = {"environment": environment, "timed_runs": len(runs),
             "gate_selftest_reasons": corrupt.reasons}

    owned, aux_runs = {}, []
    for metric, owner in ACCURACY_OWNER.items():
        if owner == w.name:
            samples[metric] = [r.accuracy.get(metric, float("nan")) for r in runs]
            continue
        if owner not in owned:
            owned[owner], aux = owner_accuracy(WORKLOADS[owner], seed, deadline)
            aux_runs += [aux] if aux else []
        samples[metric] = [owned[owner].get(metric, float("nan"))]

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    runs += aux_runs
    failures = [(i, r.reasons) for i, r in enumerate(runs) if r.reasons]
    return metrics, samples, len(runs), failures, notes, bool(corrupt.reasons)


def traced(seed, deadline):
    """Layer probes plus the traced pass of every workload."""
    samples = {}
    env = child_env(nproc())
    samples["cli.import_s"] = [probe(["import"], env, deadline)["import_s"]
                               for _ in range(SETUP_PROBES + 1)][1:]
    for name, value in probe(["layers"], env, deadline).items():
        samples[name] = [value]
    for model, cells in OPERATOR_TABLE:
        result = probe(["operator", model, str(cells)], env, deadline)
        for key in ("build_s", "rhs_s", "scheme_mb"):
            samples[f"operators.{key}.{model}.N{cells}"] = [result[key]]
    attempted, failures, notes = 0, [], {}
    for w in WORKLOADS.values():
        run = python_run("trace.py", [w.name, str(seed)], child_env(w.blas_threads),
                         OUT / "logs" / f"trace_{w.name}", deadline)
        if run.returncode != 0:
            raise RuntimeError(f"traced pass of {w.name} failed:\n{run.stderr}")
        result = json.loads(run.stdout.splitlines()[-1])
        attempted += result["attempted"]
        failures += [(w.name, r) for r in result["failures"]]
        for name, value in result["metrics"].items():
            samples[f"{w.name}.{name}"] = [value]
        notes[f"runs.{w.name}"] = result["runs"]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, samples, attempted, failures, notes, True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in (SRC / "gencoag" / "cli.py", ROOT / WORKLOADS[args.workload].config)
               if not p.exists()]
    if missing:
        print(f"error: not a gencoag checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.trace:
        metrics, samples, attempted, failures, notes, gate_ok = traced(args.seed, deadline)
    else:
        metrics, samples, attempted, failures, notes, gate_ok = end_to_end(
            w, args.seed, args.seconds, deadline)

    for name, values in samples.items():
        print(f"{name:48s} median {metrics[name]:.6g}  min {min(values):.6g}  "
              f"max {max(values):.6g}  n {len(values)}")
    for where, reasons in failures:
        print(f"FAILED run {where}: {'; '.join(reasons)}", file=sys.stderr)
    if not gate_ok:
        print("FAILED gate self-test: the corrupted config was not caught", file=sys.stderr)
    print(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for key, value in notes.items():
        print(f"{key}: {value}")

    result = {
        "correct": not failures and gate_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    if args.log:
        record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "samples": samples, **notes, **result}
        with open(args.log, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def unit_of(name):
    """Unit of a metric, read from the parts of its name."""
    for part in name.split("."):
        if part.endswith("_s") or part.startswith("dt_"):
            return "s"
        if part.endswith("_mb"):
            return "MiB"
        if part.endswith("_bytes"):
            return "bytes"
        if part.endswith("ns_per_pair"):
            return "ns"
        if part.endswith(("error", "distance", "efficiency")):
            return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
