"""Output checks of the benchmark, run outside the timed phase.

Each check returns a list of problems; an empty list means the outputs are
correct. All comparisons of scores are exact: the package promises
bit-for-bit reproducible log-scores.
"""

import json
import os
import shutil
from collections import defaultdict
from dataclasses import replace

import workloads
from hierbn.bench import ExperimentPlan, plan_from_json, plan_to_json
from hierbn.graph import Dag, dag_from_json, shd
from hierbn.metrics import read_records
from hierbn.scores import ScoreConfig, local_log_score, total_log_score
from hierbn.simgen import GenConfig, generate

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _strip(records):
    # wall time is the one column that legitimately differs between runs
    return [(r.config_id, r.seed, r.score, r.shd, r.tp, r.fp, r.fn, r.logscore)
            for r in records]


def check_grid(records):
    """Every record's logscore is a cold rescore of its learned DAG, and its
    SHD is the distance of that DAG to the truth. Returns (problems, shd
    values per score)."""
    problems, shds, seen = [], defaultdict(list), {}
    for record in records:
        rows = read_records(record["out"])
        learned = dict((kind, arcs) for kind, arcs in record["learned"])
        for r in rows:
            shds[r.score].append(r.shd)
        outcome = (_strip(rows), learned)
        if record["plan"] in seen:
            if seen[record["plan"]] != outcome:
                problems.append(f"{record['out']}: differs from an earlier run of the same plan")
            continue
        seen[record["plan"]] = outcome
        with open(record["plan"]) as fh:
            plan = plan_from_json(fh.read())
        if sorted(r.score for r in rows) != sorted(plan.scores) or set(learned) != set(plan.scores):
            problems.append(f"{record['out']}: expected one record per score")
            continue
        truth, dataset = generate(replace(plan.cells[0], seed=rows[0].seed))
        for r in rows:
            dag = Dag(r.n_nodes, frozenset(tuple(arc) for arc in learned[r.score]))
            config = ScoreConfig(r.score, vb_tol=plan.vb_tol, vb_max_iters=plan.vb_max_iters)
            cold = total_log_score(dag, dataset, config)
            if cold != r.logscore:
                problems.append(f"{record['out']} {r.score}: logscore {r.logscore!r} "
                                f"but a cold rescore gives {cold!r}")
            if shd(dag, truth.master) != r.shd:
                problems.append(f"{record['out']} {r.score}: wrong shd {r.shd}")
    return problems, shds


def check_search(seed, records):
    """``hierbn score`` reproduces every learned logscore, and with the
    reference seed the first replicate learns the stored reference DAG and
    logscore (``--workload all`` runs that seed by default)."""
    problems, learned = [], {}
    for record in records:
        with open(record["graph"]) as fh:
            doc = json.load(fh)
        if record["data"] in learned:
            if learned[record["data"]] != doc:
                problems.append(f"{record['graph']}: differs from an earlier learn of the same data")
            continue
        learned[record["data"]] = doc
        rc, out = workloads.run_cli(["score", "--data", record["data"], "--group", "group",
                                    "--score", "bdeu", "--graph", record["graph"]])
        if rc != 0 or json.loads(out)["logscore"] != doc["logscore"]:
            problems.append(f"{record['graph']}: hierbn score does not reproduce the logscore")

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    if seed == reference["seed"]:
        first = next((doc for data, doc in learned.items()
                      if os.path.basename(data) == reference["data"]), None)
        if first is None:
            problems.append("the reference replicate was not learned")
        elif first["arcs"] != reference["arcs"] or first["logscore"] != reference["logscore"]:
            problems.append("the reference replicate learned another DAG or logscore "
                            f"({first['logscore']!r} against {reference['logscore']!r})")
    return problems


def check_ingest(directory, records):
    """Per-node scores read back from the CSV equal ``local_log_score`` on
    the generated dataset held in memory, and the total is their sum."""
    with open(os.path.join(directory, "replicate.json")) as fh:
        replicate = json.load(fh)
    truth, dataset = generate(GenConfig(**workloads.INGEST_GEN, seed=replicate["seed"]))
    with open(os.path.join(directory, "graph.json")) as fh:
        graph, _ = dag_from_json(fh.read())
    names = [v.name for v in dataset.variables]
    problems = [] if graph == truth.master else ["graph.json is not the generator's truth"]
    expected = {}
    for kind in ("bdeu", "bhd"):
        config = ScoreConfig(kind)
        per_node = {names[node]: local_log_score(dataset, node, truth.master.parents(node), config)
                    for node in range(dataset.n_variables)}
        expected[kind] = (per_node, total_log_score(truth.master, dataset, config))
    for k, record in enumerate(records):
        doc = json.loads(record["output"])
        per_node, total = expected[record["score"]]
        if doc["per_node"] != per_node or doc["logscore"] != total:
            problems.append(f"op {k} ({record['score']}): scores differ from the in-memory dataset")
    return problems


def check_jobs_independence(seed, directory):
    """``hierbn bench`` writes the same sorted records at --jobs 1 and 2."""
    plan = ExperimentPlan(cells=tuple(GenConfig(**cell) for cell in workloads.GRID_CELLS),
                          scores=("bdeu", "bhd"), n_structures=1, n_param_sets=1,
                          n_data_sets=2, root_seed=seed)
    # bench appends to an existing errors log, so start from an empty directory
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    plan_path = os.path.join(directory, "plan.json")
    with open(plan_path, "w") as fh:
        fh.write(plan_to_json(plan))
    outcomes = []
    for jobs in (1, 2):
        out = os.path.join(directory, f"jobs{jobs}.csv")
        rc, _ = workloads.run_cli(["bench", "--plan", plan_path, "--out", out, "--jobs", str(jobs)])
        if rc != 0 or os.path.exists(out + ".errors.log"):
            return [f"hierbn bench --jobs {jobs} failed"]
        outcomes.append(_strip(read_records(out)))
    return [] if outcomes[0] == outcomes[1] else ["records differ between --jobs 1 and --jobs 2"]
