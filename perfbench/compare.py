"""Compare two sets of benchmark runs, or check the spread of one.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the records ``run.py --log`` appends, one run per line.
For every workload and metric it prints the median and quartiles of each
set, the spread (quartile distance over median) and, given two sets, the
relative change of the median, signed so that positive is worse. The bound
of an end-to-end metric comes from BENCHMARK.json: a spread above it marks
the metric ``unresolved``, a change above it ``REGRESSION``. Per-layer
metrics have no bound and are only listed. Exits 1 when a bound is broken.
The change is signed against the first file: to check that two sets of the
same code agree, run it both ways round.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from workloads import ROOT


def load(path):
    """(workload, metric) -> values, and workload -> runs not correct, of one file."""
    values = defaultdict(list)
    incorrect = defaultdict(int)
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            incorrect[record["workload"]] += not record["correct"]
            for name, m in record["metrics"].items():
                values[record["workload"], name].append(m["value"])
    return values, incorrect


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def main(paths):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load(p) for p in paths]
    base = sets[0][0]
    broken = False
    for workload in sorted({w for w, _ in base}):
        incorrect = [s[1][workload] for s in sets]
        print(f"== {workload}  (runs not correct: {', '.join(map(str, incorrect))})")
        broken |= any(incorrect)
        for name in [n for w, n in base if w == workload]:
            spec = bounds.get(name)
            cols, verdict = [], ""
            for values, _ in sets:
                if (workload, name) not in values:
                    cols.append("missing")
                    verdict, broken = "missing", True
                    continue
                median, q1, q3, spread = stats(values[workload, name])
                cols.append(f"{median:11.5g} [{q1:.5g}, {q3:.5g}] "
                            f"n={len(values[workload, name])} spread {spread:6.2%}")
                if spec and spread > spec["bound"]:
                    verdict, broken = "unresolved", True
            if len(sets) == 2 and (workload, name) in sets[1][0]:
                a = stats(base[workload, name])[0]
                b = stats(sets[1][0][workload, name])[0]
                worse = (b - a) / abs(a) if a else 0.0
                if spec and spec["better"] == "higher":
                    worse = -worse
                cols.append(f"change {worse:+7.2%}")
                if spec and worse > spec["bound"]:
                    verdict, broken = "REGRESSION", True
            bound = f"bound {spec['bound']:.0%}" if spec else ""
            print(f"  {name:48s} {' | '.join(cols)}  {bound} {verdict}")
    return 1 if broken else 0


if __name__ == "__main__":
    if not 1 <= len(sys.argv) - 1 <= 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
