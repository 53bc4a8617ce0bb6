"""Benchmark of hierbn through its command line (``hierbn.cli.main``).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Workloads, each a closed loop of one client at ``--jobs 1``:

  grid_slice    ``hierbn bench`` on one-replicate plans of full_grid cells with
                scores bdeu and bhd, the same plans for every seed; one op
                simulates a replicate, runs both climbs, evaluates them and
                writes the rows. The bhd fits do nearly all of the work.
  search_wide   ``hierbn learn --score bdeu`` on 40-node replicates; one op is
                one learn. Search and DAG bookkeeping do most of the work and
                the score cache answers most requests.
  ingest_score  ``hierbn score`` of the true graph on a 200k-row CSV, bdeu and
                bhd in turn; one op is one command. CSV ingest dominates and
                every score request misses the cache.

With ``--trace 0`` a run sets its inputs up nine times, each in a fresh
process (``setup_s`` is the median time from process start until the inputs
are written), runs the timed loop for ``--seconds`` in another fresh process,
checks every output, and prints ``setup_s``, ``ops_per_s`` and
``peak_rss_mb``. With ``--trace 1`` it sets up once, runs a fixed number of
ops untraced and then the same ops traced (see tracing.py), checks both, and
prints the per-layer metrics and ``trace.overhead_ratio`` (untraced over
traced ops per second). The counters of a traced run depend only on the code
and the seed.

The last line of standard output is the result object; the line before it
records the seed, the inputs, the git SHA, the Python, numpy and scipy
versions, the core count, the failed-op ratio and, for grid_slice, the mean
SHD of each score. Working files go to .perfbench_work/ in the checkout.

``--workload all`` runs every workload in a fresh process, then checks that
``hierbn bench`` writes the same records at ``--jobs 1`` and ``--jobs 2``,
and prints every metric with its unit.

Exit status: 0 when every check passes, 1 when one fails, 2 when the
package source (src/hierbn) is missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("grid_slice", "search_wide", "ingest_score")
SETUPS = 9
RUN_LIMIT_S = 170     # a run must end within 180 s
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}


class Deadline:
    """Time left of the run, handed to each child process as its timeout."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(1.0, self.end - time.monotonic())


def _child(args, deadline):
    # the child's standard output would mix with the result lines
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), *args],
                   check=True, timeout=deadline.left(), stdout=sys.stderr)


def set_up(workload, seed, inputs, deadline):
    """Write the inputs in a fresh process; seconds from its start until ready."""
    shutil.rmtree(inputs, ignore_errors=True)
    started = time.monotonic()
    _child(["setup", workload, str(seed), inputs], deadline)
    with open(os.path.join(inputs, "ready")) as fh:
        return float(fh.read()) - started


def run_loop(workload, inputs, out, seconds, n_ops, traced, deadline):
    _child(["measure", workload, inputs, out, repr(float(seconds)), str(n_ops),
            "1" if traced else "0"], deadline)
    with open(os.path.join(out, "measure.json")) as fh:
        return json.load(fh)


def _rate(outcome):
    return (outcome["ops"] - outcome["failed"]) / outcome["elapsed_s"]


def check(workload, seed, inputs, records):
    """Problems found in the outputs, and extra facts to record."""
    import checks
    records = [r for r in records if r is not None]
    if workload == "grid_slice":
        problems, shds = checks.check_grid(records)
        return problems, {f"shd_mean.{kind}": statistics.fmean(values)
                          for kind, values in sorted(shds.items())}
    if workload == "search_wide":
        return checks.check_search(seed, records), {}
    return checks.check_ingest(inputs, records), {}


def provenance(workload, seed):
    import numpy
    import scipy
    import workloads
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "inputs": workloads.describe(workload)}


def run_workload(workload, seed, seconds, traced):
    deadline = Deadline(RUN_LIMIT_S)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads
    work = os.path.join(WORK, workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    setups = [set_up(workload, seed, inputs, deadline) for _ in range(1 if traced else SETUPS)]
    if traced:
        n_ops = workloads.TRACE_OPS[workload]
        plain = run_loop(workload, inputs, os.path.join(work, "untraced"), 0, n_ops, False,
                         deadline)
        outcome = run_loop(workload, inputs, os.path.join(work, "traced"), 0, n_ops, True,
                           deadline)
        overhead = _rate(plain) / _rate(outcome)
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in outcome["layers"].items()}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        runs = [plain, outcome]
    else:
        outcome = run_loop(workload, inputs, os.path.join(work, "timed"), seconds, 0, False,
                           deadline)
        overhead = None
        metrics = {"setup_s": statistics.median(setups),
                   "ops_per_s": _rate(outcome),
                   "peak_rss_mb": outcome["peak_rss_mb"]}
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
        runs = [outcome]
    attempted = sum(run["ops"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    records = [record for run in runs for record in run["records"]]
    checked = time.monotonic()
    problems, extra = check(workload, seed, inputs, records)
    extra["check_s"] = time.monotonic() - checked

    info = provenance(workload, seed)
    info.update(extra, trace=traced, setup_s_samples=setups, ops=outcome["ops"],
                elapsed_s=outcome["elapsed_s"],
                failed_ratio=failed / attempted, trace_overhead=overhead, problems=problems)
    correct = not problems and failed == 0
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed, seconds):
    """Every workload in a fresh process, then the --jobs contract check."""
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S + 30)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{workload}: no result (exit {proc.returncode})")
            ok = False
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("failed_ratio", info["failed_ratio"], "ratio"))
        rows += [(name, info[name], "arcs") for name in sorted(info) if name.startswith("shd_mean.")]
        for name, value, unit in rows:
            print(f"  {name:<14} {value:>12.6g} {unit}")
        for problem in info["problems"]:
            print(f"  problem: {problem}")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    problems = checks.check_jobs_independence(seed, os.path.join(WORK, "jobs"))
    print(f"bench --jobs 1 and --jobs 2: {'same records' if not problems else problems[0]}")
    return 0 if ok and not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="hierbn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hierbn", "cli.py")):
        print("perfbench: src/hierbn not found; run from a checkout of the package",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, args.trace == 1)


if __name__ == "__main__":
    sys.exit(main())
