"""The names the benchmark reads still resolve on the package.

``perfbench/tracing.py`` patches functions by name, ``perfbench/workloads.py``
and ``perfbench/checks.py`` import names from hierbn and read plan fields,
and the grid_slice workload captures learned DAGs by patching
``bench.run_hill_climb``. A refactor that breaks one of these would break
the benchmark run without failing any other test. ``tracing.install()`` is
never called. The search_wide reference learn is checked here too, so that
a climb that slips by one bit fails the suite and not only the benchmark.
So is the package's own export list, which scripts import from.
"""

import hashlib
import importlib.util
import inspect
import json
import os
import sys
from dataclasses import replace

import numpy as np

import hierbn
from hierbn import bench, cli
from hierbn.scores import ScoreConfig
from hierbn.simgen import GenConfig, generate

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_as(monkeypatch, name):
    """Execute ``perfbench/<name>.py`` as module ``name`` for this test only."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_exported_names_resolve():
    assert all(hasattr(hierbn, name) for name in hierbn.__all__)
    assert len(set(hierbn.__all__)) == len(hierbn.__all__)
    namespace = {}
    exec("from hierbn import *", namespace)
    assert set(hierbn.__all__) <= set(namespace)


def test_traced_names_resolve():
    tracing = load_tracing()
    for module, attr in tracing.SPANS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for name, owner, attr in tracing.COUNTED:
        assert callable(getattr(owner, attr, None)), name
    cache = tracing.scores.LocalScoreCache
    assert list(inspect.signature(cache.get_or_compute).parameters) == ["self", "key", "compute"]


def test_workloads_and_checks_import(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads.py prepends src/
    workloads = load_as(monkeypatch, "workloads")
    checks = load_as(monkeypatch, "checks")  # imports ``workloads`` by name
    # the plan check_jobs_independence builds, read back as check_grid reads it
    plan = checks.ExperimentPlan(cells=tuple(GenConfig(**cell) for cell in workloads.GRID_CELLS),
                                 scores=("bdeu", "bhd"), n_structures=1, n_param_sets=1,
                                 n_data_sets=2, root_seed=1)
    read = checks.plan_from_json(checks.plan_to_json(plan))
    assert read.scores == ("bdeu", "bhd")
    assert len(read.cells) == len(workloads.GRID_CELLS)
    assert (read.vb_tol, read.vb_max_iters) == (ScoreConfig.vb_tol, ScoreConfig.vb_max_iters)


def test_run_job_climbs_through_bench_globals(monkeypatch):
    climb, calls = bench.run_hill_climb, []

    def spy(dataset, score_config, *args, **kwargs):
        calls.append(score_config)
        return climb(dataset, score_config, *args, **kwargs)

    monkeypatch.setattr(bench, "run_hill_climb", spy)
    plan = bench.ExperimentPlan(cells=(GenConfig(n_nodes=3, rows_per_group=20),),
                                scores=("bdeu",), iss=(1.0, 10.0), n_structures=1,
                                n_param_sets=1, n_data_sets=1)
    (job,) = bench.expand(plan)
    records = bench.run_job(job)
    assert calls == list(plan.score_configs) == [ScoreConfig("bdeu", iss=1.0),
                                                  ScoreConfig("bdeu", iss=10.0)]
    assert [r.score for r in records] == ["bdeu", "bdeu"]


def test_search_wide_reference_learn(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads.py prepends src/
    workloads = load_as(monkeypatch, "workloads")
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)
    workloads.setup("search_wide", reference["seed"], str(tmp_path))
    out = tmp_path / "learned.json"
    assert cli.main(["learn", "--data", str(tmp_path / reference["data"]), "--group", "group",
                     "--score", "bdeu", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["arcs"] == reference["arcs"]
    assert doc["logscore"] == reference["logscore"]


def test_generated_rows_feed_the_setup_writers(monkeypatch):
    # workloads._first_complete concatenates a generated dataset's group_rows
    # and cli._write_replicate_csv writes them: a tuple of (rows, N) arrays
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads.py prepends src/
    workloads = load_as(monkeypatch, "workloads")
    cell = GenConfig(n_nodes=4, card=3, n_groups=3, rows_per_group=30)
    _, dataset = workloads._first_complete(
        lambda attempt: generate(replace(cell, seed=attempt)))
    assert isinstance(dataset.group_rows, tuple) and len(dataset.group_rows) == 3
    for rows in dataset.group_rows:
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.shape == (30, 4)
    assert np.concatenate(dataset.group_rows).shape == (90, 4)


# the replicate CSV that ``hierbn simulate`` writes for this configuration
SIMULATE_CONFIG = {"n_nodes": 5, "card": 3, "arc_ratio": 1.2, "n_groups": 3,
                   "rows_per_group": 40, "seed": 11}
SIMULATE_CSV_SHA256 = "3e1e1557c5b15963eb104e369d19f70e2063b808f74be7a60a56c179b6935643"


def test_simulate_writes_pinned_bytes(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps(SIMULATE_CONFIG))
    assert cli.main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    data = (tmp_path / "rep_s0p0d0.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SIMULATE_CSV_SHA256
