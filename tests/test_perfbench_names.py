"""The names the benchmark reads still resolve on the package.

``perfbench/tracing.py`` patches functions by name, ``perfbench/workloads.py``
and ``perfbench/checks.py`` import names from hierbn and read plan fields,
and the grid_slice workload captures learned DAGs by patching
``bench.run_hill_climb``. A refactor that breaks one of these would break
the benchmark run without failing any other test. ``tracing.install()`` is
never called. The search_wide reference learn is checked here too, so that
a climb that slips by one bit fails the suite and not only the benchmark.
"""

import importlib.util
import inspect
import json
import os
import sys

from hierbn import bench, cli
from hierbn.scores import ScoreConfig
from hierbn.simgen import GenConfig

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
