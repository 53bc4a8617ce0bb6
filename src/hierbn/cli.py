"""Command-line entry points: learn, score, simulate, bench.

Exit codes: 0 on success, 1 for usage errors, 2 for data errors, 3 for
runtime failures. Diagnostics go to stderr; results go to stdout or the
requested output files.
"""

import argparse
import csv
import io
import itertools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench as bench_mod
from .data import DataError, check_count, load_csv
from .graph import Dag, dag_from_dot, dag_from_json, dag_to_dot, dag_to_json
from .scores import SCORE_KINDS, ScoreConfig, fold_total, local_log_scores
from .search import SearchConfig, run_hill_climb
from .simgen import GenConfig, derive_rng, generate


class _UsageError(Exception):
    """Command-line contract violation detected after parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage by default; the contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="hierbn",
                     description="Structure learning for discrete data observed in groups")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_score_flags(p):
        p.add_argument("--data", required=True, help="CSV file of complete categorical data")
        p.add_argument("--group", default=None,
                       help="column holding the group label (required for bhd)")
        p.add_argument("--score", default="bdeu", choices=SCORE_KINDS)
        p.add_argument("--iss", type=float, default=ScoreConfig.iss,
                       help="imaginary sample size")
        p.add_argument("--vb-tol", type=float, default=ScoreConfig.vb_tol,
                       help="bhd: a parent configuration's centre fit, fixed-point "
                            "steps from the pooled frequencies, has converged when the "
                            "largest component of its log posterior's gradient is at most "
                            "this times max(1, |log posterior at the start|) (or when a "
                            "step leaves the centre unchanged in floating point)")
        p.add_argument("--vb-max-iters", type=int, default=ScoreConfig.vb_max_iters,
                       help="bhd: fixed-point step cap of each centre fit; a fit that "
                            "reaches it unconverged warns")
        p.add_argument("--s0", type=float, default=None,
                       help="total mass of the flat hyperprior (default: one per cell)")

    learn = sub.add_parser("learn", help="greedy structure search on a dataset")
    add_score_flags(learn)
    learn.add_argument("--max-parents", type=int, default=None)
    learn.add_argument("--max-iters", type=int, default=SearchConfig.max_iterations,
                       help="search step cap")
    learn.add_argument("--out", default=None, help="write the graph JSON here instead of stdout")
    learn.add_argument("--dot", default=None, help="also write the graph in DOT form")

    score = sub.add_parser("score", help="score an existing graph on a dataset")
    add_score_flags(score)
    score.add_argument("--graph", required=True, help="graph file (.json or .dot)")

    simulate = sub.add_parser("simulate", help="write synthetic replicates and their truth")
    simulate.add_argument("--config", required=True, help="generator configuration (JSON)")
    simulate.add_argument("--out-dir", required=True)
    simulate.add_argument("--seed", type=int, default=None, help="override the config seed")

    bench = sub.add_parser("bench", help="run an experiment plan into a results CSV")
    bench.add_argument("--plan", required=True, help="experiment plan (JSON)")
    bench.add_argument("--out", required=True, help="results CSV path")
    bench.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    bench.add_argument("--resume", action="store_true",
                       help="keep complete replicates already in the output file")
    bench.add_argument("--seed", type=int, default=None, help="override the plan root seed")

    return parser


def _score_config(args):
    try:
        return ScoreConfig(kind=args.score, iss=args.iss, vb_tol=args.vb_tol,
                           vb_max_iters=args.vb_max_iters, s0=args.s0)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load_dataset(args):
    if args.score == "bhd" and args.group is None:
        raise _UsageError("--score bhd requires --group")
    return load_csv(args.data, args.group)


def _cmd_learn(args):
    try:
        search_config = SearchConfig(max_parents=args.max_parents,
                                     max_iterations=args.max_iters)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    config = _score_config(args)
    data = _load_dataset(args)
    result = run_hill_climb(data, config, search_config)
    names = [v.name for v in data.variables]
    doc = json.loads(dag_to_json(result.dag, names))
    doc["score"] = args.score
    doc["iss"] = args.iss
    doc["logscore"] = result.score
    text = json.dumps(doc, indent=2)
    if args.dot:
        # before anything is written: a name DOT cannot hold is a data error
        try:
            dot = dag_to_dot(result.dag, names)
        except ValueError as exc:
            raise DataError(f"cannot write --dot: {exc}") from exc
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    return 0


def _read_graph(path, data):
    try:
        with open(path) as fh:
            text = fh.read()
        if path.endswith(".dot"):
            dag, names = dag_from_dot(text)
        else:
            dag, names = dag_from_json(text)
    except ValueError as exc:
        raise DataError(f"cannot parse graph file {path}: {exc}") from exc
    position = {v.name: i for i, v in enumerate(data.variables)}
    if sorted(names) != sorted(position):
        raise DataError("graph nodes do not match the dataset's variables")
    # the arcs in the dataset's variable order
    return Dag(len(names), frozenset((position[names[u]], position[names[v]])
                                     for u, v in dag.arcs))


def _cmd_score(args):
    config = _score_config(args)
    data = _load_dataset(args)
    dag = _read_graph(args.graph, data)
    locals_ = local_log_scores(data, [(node, dag.parents(node))
                                      for node in range(data.n_variables)], config)
    per_node = dict(zip((v.name for v in data.variables), locals_))
    print(json.dumps({"schema": 1, "score": args.score, "iss": args.iss,
                      "logscore": fold_total(locals_), "per_node": per_node}, indent=2))
    return 0


def _csv_texts(columns):
    # each column's texts as csv.writer writes each beside another field,
    # an object array a column: one writer writes a (text, "") row per
    # text, and writerow returns the row's length
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    ends = list(itertools.accumulate(writer.writerow((text, ""))
                                     for column in columns for text in column))
    value = buffer.getvalue()
    # less the empty field and the line end
    texts = iter([value[start:end - 3] for start, end in zip([0] + ends, ends)])
    return [np.array(list(itertools.islice(texts, len(column))), dtype=object)
            for column in columns]


def _write_replicate_csv(path, dataset):
    # the bytes csv.writer writes row by row. The group column and the
    # variables are read as chunks of consecutive columns. A chunk's every
    # combination of texts is joined once, the last chunk's ending the
    # line, so a line joins its chunks' texts with commas, or is one text
    # when one chunk covers every column. A column joins the chunk before
    # it while their combinations number at most an eighth of the rows,
    # less 50: joining it costs some 100 ns a combination and a few
    # microseconds of numpy calls, and saves some 25 ns a row.
    rows = np.concatenate([np.empty((0, dataset.n_variables), dtype=np.int64),
                           *dataset.group_rows])
    columns = [np.repeat(np.arange(dataset.n_groups), [len(b) for b in dataset.group_rows]),
               *rows.T]
    texts = _csv_texts([dataset.groups, *(v.levels for v in dataset.variables)])
    texts[-1] += "\r\n"
    bound = len(rows) / 8 - 50
    chunks, start = [], 0
    while start < len(texts):
        table, code, stop = texts[start], columns[start], start + 1
        while stop < len(texts) and len(table) * len(texts[stop]) <= bound:
            table = np.add.outer(table + ",", texts[stop]).ravel()
            code = code * len(texts[stop]) + columns[stop]
            stop += 1
        chunks.append(table[code].tolist())
        start = stop
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["group"] + [v.name for v in dataset.variables])
        fh.writelines(chunks[0] if len(chunks) == 1 else map(",".join, zip(*chunks)))


def _check_seed_flag(args):
    if args.seed is not None and args.seed < 0:
        raise _UsageError("--seed must be at least 0")


def _cmd_simulate(args):
    _check_seed_flag(args)
    with open(args.config) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"cannot parse {args.config}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{args.config}: a generator configuration must be a JSON object")
    reps = {key: doc.pop(key, 1) for key in ("structures", "param_sets", "data_sets")}
    if args.seed is not None:
        doc["seed"] = args.seed
    try:
        for key, value in reps.items():
            check_count(key, value, 1)
        base = GenConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad generator configuration: {exc}") from exc
    os.makedirs(args.out_dir, exist_ok=True)
    truth_doc = {"schema": 1, "replicates": {}}
    for s in range(reps["structures"]):
        for p in range(reps["param_sets"]):
            for d in range(reps["data_sets"]):
                seed = int(derive_rng(base.seed, s, p, d).integers(2 ** 63))
                config = GenConfig(**{**doc, "seed": seed})
                truth, dataset = generate(config)
                rep_id = f"s{s}p{p}d{d}"
                _write_replicate_csv(os.path.join(args.out_dir, f"rep_{rep_id}.csv"), dataset)
                names = [v.name for v in dataset.variables]
                truth_doc["replicates"][rep_id] = {
                    "seed": seed,
                    "regime": config.regime,
                    "scenario": config.scenario,
                    "master": json.loads(dag_to_json(truth.master, names)),
                    "group_dags": {label: json.loads(dag_to_json(g, names))
                                   for label, g in zip(dataset.groups, truth.group_dags)},
                }
    with open(os.path.join(args.out_dir, "truth.json"), "w") as fh:
        json.dump(truth_doc, fh, indent=2)
    return 0


def _cmd_bench(args):
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    _check_seed_flag(args)
    with open(args.plan) as fh:
        try:
            plan = bench_mod.plan_from_json(fh.read())
        except ValueError as exc:
            raise DataError(f"cannot parse plan {args.plan}: {exc}") from exc
    if args.seed is not None:
        plan = replace(plan, root_seed=args.seed)
    records = bench_mod.run(plan, args.out, jobs=args.jobs, resume=args.resume)
    print(json.dumps({"schema": 1, "records": len(records), "out": args.out}))
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "score": _cmd_score,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"hierbn: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"hierbn: data error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - contract: runtime failures exit 3
        print(f"hierbn: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
