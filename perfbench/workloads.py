"""The benchmark's workloads: their inputs and their timed closed loop.

run.py starts this file as a child process for every phase, so each phase
runs in a fresh interpreter:

    python3 perfbench/workloads.py setup <workload> <seed> <dir>
    python3 perfbench/workloads.py measure <workload> <dir> <out> <seconds> <ops> <trace>

``setup`` writes the workload's inputs into <dir> from the seed (the
grid_slice plan is the same for every seed), then the monotonic clock
reading at which they were ready, so the parent can time set-up from the
moment it started the process. ``measure`` runs one
client in a closed loop through ``hierbn.cli.main``: for <seconds> seconds,
or for exactly <ops> operations when <ops> is not 0 (the traced run, whose
counters must not depend on timing). With <trace> 1 the hierbn modules are
wrapped by tracing.py first. The operations' outputs and the loop's
outcome, <out>/measure.json, go to <out> for the parent to check and report.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hierbn import bench, cli  # noqa: E402
from hierbn.graph import dag_to_json  # noqa: E402
from hierbn.simgen import GenConfig, derive_rng, generate  # noqa: E402

# full_grid cells with K2 families (4 to 16 cells each). Replicates of the
# K5 cells and the N10 cells take 3-30 s and vary 3x between seeds at
# today's fit speed, so a run would hold too few of them to be steady.
# The plan is fixed: one replicate can take ten times another, and plans
# drawn from the run's seed spread ops_per_s across seeds beyond its bound.
GRID_CELLS = (
    {"n_nodes": 5, "n_groups": 2, "card": 2, "rows_per_group": 100, "arc_ratio": 1.0},
    {"n_nodes": 5, "n_groups": 10, "card": 2, "rows_per_group": 1000, "arc_ratio": 1.5},
    {"n_nodes": 5, "n_groups": 5, "card": 2, "rows_per_group": 200, "arc_ratio": 1.2},
)
GRID_REPLICATES = 16          # per cell; the loop cycles through the pool
GRID_PLAN_SEED = 0
SEARCH_GEN = {"n_nodes": 40, "card": 2, "arc_ratio": 1.2, "n_groups": 2,
              "rows_per_group": 500}
SEARCH_REPLICATES = 8
INGEST_GEN = {"n_nodes": 10, "card": 2, "arc_ratio": 1.0, "n_groups": 10,
              "rows_per_group": 20000}

# operations of the traced run, and of the untraced run it is compared with
TRACE_OPS = {"grid_slice": 6, "search_wide": 2, "ingest_score": 4}


def describe(workload):
    """The workload's inputs, as recorded with every result."""
    if workload == "grid_slice":
        return {"cells": list(GRID_CELLS), "replicates_per_cell": GRID_REPLICATES,
                "plan_seed": GRID_PLAN_SEED, "scores": ["bdeu", "bhd"], "jobs": 1}
    if workload == "search_wide":
        return {"cell": SEARCH_GEN, "replicates": SEARCH_REPLICATES, "score": "bdeu",
                "rows": SEARCH_GEN["n_groups"] * SEARCH_GEN["rows_per_group"]}
    return {"cell": INGEST_GEN, "scores": ["bdeu", "bhd"],
            "rows": INGEST_GEN["n_groups"] * INGEST_GEN["rows_per_group"],
            "groups": INGEST_GEN["n_groups"]}


def _derive_seed(seed, *path):
    return int(derive_rng(seed, *path).integers(2 ** 63))


def _first_complete(draw):
    """The first of ``draw(0)``, ``draw(1)``, ... whose dataset shows every
    level of every variable; load_csv rejects a variable seen at one level,
    which some draws of these cells produce."""
    for attempt in range(100):
        truth, dataset = draw(attempt)
        rows = np.concatenate(dataset.group_rows)
        if all(np.unique(rows[:, i]).size == v.card for i, v in enumerate(dataset.variables)):
            return truth, dataset
    raise RuntimeError("no draw shows every level of every variable")


def setup(workload, seed, directory):
    """Write every input of ``workload`` for ``seed`` into ``directory``.

    CSVs go through the writer of ``hierbn simulate``; the command itself
    is not used because it cannot redraw a replicate (_first_complete)."""
    os.makedirs(directory, exist_ok=True)
    if workload == "grid_slice":
        plans = os.path.join(directory, "plans")
        os.makedirs(plans)
        for rep in range(GRID_REPLICATES):
            for c, cell in enumerate(GRID_CELLS):
                index = rep * len(GRID_CELLS) + c
                plan = bench.ExperimentPlan(
                    cells=(GenConfig(**cell),), scores=("bdeu", "bhd"), n_structures=1,
                    n_param_sets=1, n_data_sets=1,
                    root_seed=_derive_seed(GRID_PLAN_SEED, index))
                with open(os.path.join(plans, f"plan{index:03d}.json"), "w") as fh:
                    fh.write(bench.plan_to_json(plan))
    elif workload == "search_wide":
        for k in range(SEARCH_REPLICATES):
            _, dataset = _first_complete(
                lambda attempt: generate(GenConfig(**SEARCH_GEN, seed=_derive_seed(seed, k, attempt))))
            cli._write_replicate_csv(os.path.join(directory, f"rep{k}.csv"), dataset)
    elif workload == "ingest_score":
        truth, dataset = _first_complete(
            lambda attempt: generate(GenConfig(**INGEST_GEN, seed=_derive_seed(seed, attempt))))
        cli._write_replicate_csv(os.path.join(directory, "data.csv"), dataset)
        names = [v.name for v in dataset.variables]
        with open(os.path.join(directory, "graph.json"), "w") as fh:
            fh.write(dag_to_json(truth.master, names))
        with open(os.path.join(directory, "replicate.json"), "w") as fh:
            json.dump({"seed": truth.config.seed}, fh)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def run_cli(argv):
    """``cli.main(argv)`` with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _grid_op(directory, out_dir):
    plans_dir = os.path.join(directory, "plans")
    plans = sorted(os.path.join(plans_dir, name) for name in os.listdir(plans_dir))
    learned = []
    climb = bench.run_hill_climb

    # the results CSV does not hold the learned DAGs; keep them for the checks
    def capture(dataset, score_config, *args, **kwargs):
        result = climb(dataset, score_config, *args, **kwargs)
        learned.append([score_config.kind, sorted(result.dag.arcs)])
        return result

    bench.run_hill_climb = capture

    def op(k):
        plan = plans[k % len(plans)]
        op_dir = os.path.join(out_dir, f"op{k:04d}")
        os.makedirs(op_dir)
        out = os.path.join(op_dir, "results.csv")
        learned.clear()
        rc, _ = run_cli(["bench", "--plan", plan, "--out", out, "--jobs", "1"])
        ok = rc == 0 and not os.path.exists(out + ".errors.log")
        return ok, {"plan": plan, "out": out, "learned": list(learned)}

    return op


def _search_op(directory, out_dir):
    csvs = [os.path.join(directory, f"rep{k}.csv") for k in range(SEARCH_REPLICATES)]

    def op(k):
        data = csvs[k % len(csvs)]
        graph = os.path.join(out_dir, f"op{k:04d}.json")
        rc, _ = run_cli(["learn", "--data", data, "--group", "group", "--score", "bdeu",
                        "--out", graph])
        return rc == 0, {"data": data, "graph": graph}

    return op


def _ingest_op(directory, out_dir):
    data = os.path.join(directory, "data.csv")
    graph = os.path.join(directory, "graph.json")

    def op(k):
        kind = ("bdeu", "bhd")[k % 2]
        rc, out = run_cli(["score", "--data", data, "--group", "group", "--score", kind,
                          "--graph", graph])
        return rc == 0, {"score": kind, "output": out}

    return op


OPS = {"grid_slice": _grid_op, "search_wide": _search_op, "ingest_score": _ingest_op}


def measure(workload, directory, out_dir, seconds, n_ops, traced):
    """Closed loop of one client on the inputs in ``directory``."""
    tracer = None
    if traced:
        import tracing
        tracer = tracing.install()   # before the op captures bench.run_hill_climb
    op = OPS[workload](directory, out_dir)
    records, failed = [], 0
    clock = time.perf_counter
    started = clock()
    k = 0
    while k < n_ops if n_ops else (k == 0 or clock() - started < seconds):
        try:
            ok, record = op(k)
        except Exception:  # noqa: BLE001 - a failed op is counted, the loop goes on
            traceback.print_exc()
            ok, record = False, None
        failed += not ok
        records.append(record if ok else None)
        k += 1
    elapsed = clock() - started
    outcome = {
        "ops": k, "failed": failed, "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if tracer is not None:
        outcome["layers"] = tracer.layer_metrics()
        tracer.save(os.path.join(out_dir, "spans.npz"))
    return outcome


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        seed, directory = int(argv[2]), argv[3]
        setup(workload, seed, directory)
        with open(os.path.join(directory, "ready"), "w") as fh:
            fh.write(repr(time.monotonic()))
        return 0
    directory, out_dir = argv[2], argv[3]
    seconds, n_ops, traced = float(argv[4]), int(argv[5]), argv[6] == "1"
    os.makedirs(out_dir)
    outcome = measure(workload, directory, out_dir, seconds, n_ops, traced)
    with open(os.path.join(out_dir, "measure.json"), "w") as fh:
        json.dump(outcome, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
