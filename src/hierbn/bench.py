"""Batch experiment runner: expand a declarative plan into replicate jobs,
learn with every requested score, and collect metric records into a CSV.

A job is one simulated replicate; it produces one record per (score, iss)
pair. Jobs are independent and deterministic given the plan's root seed, so
the record set is the same for any parallelism degree or completion order;
the output file is kept canonically sorted to make that visible.
"""

import itertools
import json
import os
import time
import traceback
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import check_count
from .metrics import RunRecord, evaluate, read_records, record_sort_key, write_records
from .scores import ScoreConfig
from .search import run_hill_climb
from .simgen import GenConfig, generate


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid cells, scoring methods, and replication counts of one batch.

    ``cells`` holds GenConfig values whose seed field is ignored; every
    replicate derives its own seed from ``root_seed`` and its position in
    the (cell, structure, parameter set, sampling) tree.
    """

    cells: tuple
    scores: tuple = ("bdeu", "bhd")
    iss: tuple = (ScoreConfig.iss,)
    n_structures: int = 3
    n_param_sets: int = 10
    n_data_sets: int = 10
    root_seed: int = 0
    vb_tol: float = ScoreConfig.vb_tol
    vb_max_iters: int = ScoreConfig.vb_max_iters

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "scores", tuple(self.scores))
        iss = tuple(self.iss)
        if not self.cells:
            raise ValueError("plan needs at least one cell")
        if not self.scores or not iss:
            raise ValueError("plan needs at least one score and one iss value")
        for name in ("n_structures", "n_param_sets", "n_data_sets"):
            check_count(name, getattr(self, name), 1)
        check_count("root_seed", self.root_seed, 0)
        # one config per (score, iss) pair, scores outer; a setting no job
        # could use fails here, before any job runs
        object.__setattr__(self, "score_configs", tuple(
            ScoreConfig(kind=kind, iss=value, vb_tol=self.vb_tol, vb_max_iters=self.vb_max_iters)
            for kind in self.scores for value in iss))
        object.__setattr__(self, "iss", tuple(map(float, iss)))
        for name, values in (("score", self.scores), ("iss", self.iss)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"plan repeats {name} {repeated[0]!r}")


@dataclass(frozen=True)
class Job:
    """One replicate to simulate and learn with every requested score."""

    job_id: str
    config: GenConfig
    score_configs: tuple


def cell_id(cell):
    return (f"{cell.scenario}-{cell.regime}-N{cell.n_nodes}-F{cell.n_groups}"
            f"-K{cell.card}-c{cell.arc_ratio:g}-n{cell.rows_per_group}"
            f"-P{cell.n_perturbed}-R{cell.n_removed}")


def _replicate_seed(root_seed, cell_index, structure, param_set, data_set):
    ss = np.random.SeedSequence(int(root_seed),
                                spawn_key=(cell_index, structure, param_set, data_set))
    return int(ss.generate_state(1, np.uint64)[0])


def expand(plan):
    """Deterministic job list: cells crossed with the replication tree.

    Job ids are stable across re-expansion of the same plan, so resumed
    batches recognize finished work.
    """
    jobs = []
    for cell_index, cell in enumerate(plan.cells):
        cid = cell_id(cell)
        for structure in range(plan.n_structures):
            for param_set in range(plan.n_param_sets):
                for data_set in range(plan.n_data_sets):
                    seed = _replicate_seed(plan.root_seed, cell_index,
                                           structure, param_set, data_set)
                    config = replace(cell, seed=seed)
                    jobs.append(Job(f"{cid}#s{structure}p{param_set}d{data_set}",
                                    config, plan.score_configs))
    return jobs


def run_job(job):
    """Simulate one replicate and learn it with every (score, iss) pair."""
    truth, dataset = generate(job.config)
    cell = {"config_id": cell_id(job.config), **asdict(job.config)}
    records = []
    for score_config in job.score_configs:
        started = time.perf_counter()
        result = run_hill_climb(dataset, score_config)
        elapsed = time.perf_counter() - started
        shd_, tp, fp, fn = evaluate(result.dag, truth.master)
        records.append(RunRecord(
            **cell, score=score_config.kind, iss=score_config.iss, shd=shd_, tp=tp, fp=fp,
            fn=fn, logscore=result.score, wall_time_s=elapsed))
    return records


def _completed_jobs(plan, existing):
    """Replicate keys whose full record set is already on disk: one record
    for each of the plan's (score, iss) pairs."""
    wanted = sorted((c.kind, c.iss) for c in plan.score_configs)
    by_key = {}
    for record in existing:
        by_key.setdefault((record.config_id, record.seed), []).append(record)
    done, kept = set(), []
    for key, group in by_key.items():
        if sorted((r.score, r.iss) for r in group) == wanted:
            done.add(key)
            kept.extend(group)
    return done, kept


def run(plan, out_path, jobs=1, resume=False):
    """Execute the plan, appending records to ``out_path`` as jobs finish.

    With ``resume``, replicates whose records are already complete in the
    file are skipped and their rows kept; partial rows from an interrupted
    run are discarded and recomputed. A failing job is logged to
    ``out_path``.errors.log with its id and traceback, and the batch keeps
    going; a run without ``resume`` first deletes the log of earlier runs.
    On completion the file is rewritten in canonical sort order.
    """
    all_jobs = expand(plan)
    kept = []
    if resume and os.path.exists(out_path):
        done, kept = _completed_jobs(plan, read_records(out_path))
        pending = [j for j in all_jobs
                   if (cell_id(j.config), j.config.seed) not in done]
    else:
        pending = list(all_jobs)
    # start the file over with only complete rows; new rows append after
    write_records(out_path, kept, append=False)

    errors_path = out_path + ".errors.log"
    if not resume and os.path.exists(errors_path):
        os.remove(errors_path)
    new_records = []

    def collect(job, result):
        try:
            rows = result()
        except Exception as exc:  # noqa: BLE001 - batch must not abort
            with open(errors_path, "a") as fh:
                fh.write(f"{job.job_id}: {exc!r}\n{traceback.format_exc()}\n")
            return
        new_records.extend(rows)
        write_records(out_path, rows, append=True)

    # the pool starts every worker at its first submit, so it gets no more
    # workers than there are jobs
    workers = min(jobs, len(pending))
    if workers <= 1:
        for job in pending:
            collect(job, lambda: run_job(job))
    else:
        # imported here: a process that runs jobs in line loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(run_job, job): job for job in pending}
            for future in as_completed(futures):
                collect(futures[future], future.result)

    final = sorted(kept + new_records, key=record_sort_key)
    tmp_path = out_path + ".tmp"
    write_records(tmp_path, final, append=False)
    os.replace(tmp_path, out_path)
    return final


def _json_list(value):
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON list, got {json.dumps(value)}")
    return tuple(value)


# plan JSON key -> (ExperimentPlan field, parser); a key left out of a plan
# file takes the field's default, and a value without a parser is checked by
# ExperimentPlan itself
_PLAN_FIELDS = {
    "root_seed": ("root_seed", None),
    "scores": ("scores", _json_list),
    "iss": ("iss", _json_list),
    "structures": ("n_structures", None),
    "param_sets": ("n_param_sets", None),
    "data_sets": ("n_data_sets", None),
    "vb_tol": ("vb_tol", None),
    "vb_max_iters": ("vb_max_iters", None),
}


def plan_to_json(plan):
    doc = {"schema": 1}
    doc.update((key, getattr(plan, name)) for key, (name, _) in _PLAN_FIELDS.items())
    doc["cells"] = [{f.name: getattr(c, f.name) for f in fields(c) if f.name != "seed"}
                    for c in plan.cells]
    return json.dumps(doc, indent=2)


def plan_from_json(text):
    """Parse a plan file; any malformed content raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a plan must be a JSON object")
    unknown = set(doc) - set(_PLAN_FIELDS) - {"schema", "cells"}
    if unknown:
        raise ValueError(f"unknown plan fields: {sorted(unknown)}")
    if "cells" not in doc:
        raise ValueError('a plan needs a "cells" list')
    try:
        cells = tuple(GenConfig(**cell) for cell in _json_list(doc["cells"]))
        settings = {name: parse(doc[key]) if parse else doc[key]
                    for key, (name, parse) in _PLAN_FIELDS.items() if key in doc}
    except TypeError as exc:
        raise ValueError(f"bad plan: {exc}") from exc
    return ExperimentPlan(cells=cells, **settings)


def full_grid(regime, scenario="a", scores=("bdeu", "bhd"), root_seed=0,
              n_perturbed=0, n_removed=0):
    """The complete scenario grid at standard replication counts."""
    cells = tuple(
        GenConfig(n_nodes=n, card=card, arc_ratio=c, n_groups=f,
                  rows_per_group=rows, regime=regime, scenario=scenario,
                  n_perturbed=n_perturbed, n_removed=n_removed)
        for n, f, card, rows, c in itertools.product(
            (5, 10), (2, 5, 10), (2, 5), (10, 100, 200, 500, 1000), (1.0, 1.2, 1.5)))
    return ExperimentPlan(cells=cells, scores=tuple(scores), root_seed=root_seed)


def desk_plan(regime="hier", scenario="a", scores=("bdeu", "bhd"), root_seed=0,
              n_perturbed=0, n_removed=0):
    """Laptop-sized slice of the grid for quick end-to-end checks."""
    cells = tuple(
        GenConfig(n_nodes=5, card=2, arc_ratio=1.0, n_groups=f,
                  rows_per_group=rows, regime=regime, scenario=scenario,
                  n_perturbed=n_perturbed, n_removed=n_removed)
        for f, rows in itertools.product((2, 5), (100, 500)))
    return ExperimentPlan(cells=cells, scores=tuple(scores), n_structures=2,
                          n_param_sets=3, n_data_sets=3, root_seed=root_seed)
