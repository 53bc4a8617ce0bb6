"""Stability proof of the benchmark: spreads over seeds, and exact counters.

    python3 perfbench/stability.py

For every workload in BENCHMARK.json, run.py runs with --trace 0 once per
seed 1-10, and that set of ten runs is made twice. For every end-to-end
metric the report gives each set's median over the seeds and its spread:
the distance between the first and third quartiles of
``statistics.quantiles(values, n=4)``, as a share of the median. It also
compares the second set's median with the first's. Then run.py runs with
--trace 1 twice on each of seeds 1 and 2, and the deterministic counters
(DETERMINISTIC) must repeat exactly; timings are only held to their bounds.

The report goes to standard output and to .perfbench_work/stability.json.
Exit status 1 when a spread exceeds its metric's bound, when a second-set
median is worse than the first by more than the bound, when a counter
differs, or when a run fails its checks.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# traced counters that depend only on the code and the seed, never on timing
DETERMINISTIC = ("hier.fits", "hier.sweeps", "scores.cache_hits",
                 "search.moves_evaluated", "search.iterations",
                 "data.family_counts_calls")
SEEDS = range(1, 11)
SETS = 2
COUNTER_SEEDS = SEEDS[:2]


def run(workload, seed, seconds, trace):
    """Metric values of one run.py run; raises if it fails its checks."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}, "
                           f"{lines[-2] if len(lines) > 1 else 'no result'}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    report, ok = {}, True

    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
                for _ in range(SETS)]
        entry = report[workload] = {"values": sets, "metrics": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [[values[name] for values in runs] for runs in sets]
            medians = [statistics.median(column) for column in columns]
            spreads = [spread(column) for column in columns]
            shift = worse_by(medians[0], medians[-1], metric["better"])
            passed = max(spreads) <= bound and shift <= bound
            ok = ok and passed
            entry["metrics"][name] = {"medians": medians, "spreads": spreads,
                                      "second_worse_by": shift, "bound": bound,
                                      "ok": passed}
            print(f"{workload:<13} {name:<12} median {' '.join(f'{m:.4g}' for m in medians):<16} "
                  f"spread {' '.join(f'{s:.3f}' for s in spreads):<12} "
                  f"bound {bound:<5} {'ok' if passed else 'FAIL'}", flush=True)

        repeats = {}
        for seed in COUNTER_SEEDS:
            pair = [run(workload, seed, spec["run_seconds"], 1) for _ in range(2)]
            counters = [{name: values[name] for name in DETERMINISTIC} for values in pair]
            same = counters[0] == counters[1]
            ok = ok and same
            repeats[seed] = {"counters": counters, "same": same,
                             "overhead_ratio": [values["trace.overhead_ratio"] for values in pair]}
            print(f"{workload:<13} seed {seed} counters {'repeat' if same else 'DIFFER'}: "
                  f"{counters[0]}", flush=True)
        entry["counters"] = repeats

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_work", "stability.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("stable" if ok else "NOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
