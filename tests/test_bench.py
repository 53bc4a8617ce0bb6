"""Experiment orchestration: expansion, execution, resume, parallel runs."""

import concurrent.futures
import json
import os
from concurrent.futures import Future
from dataclasses import replace

import pytest

from hierbn import bench
from hierbn.bench import (ExperimentPlan, Job, cell_id, desk_plan, expand,
                          full_grid, plan_from_json, plan_to_json, run,
                          run_job)
from hierbn.metrics import paired_difference, read_records, record_sort_key, write_records
from hierbn.simgen import GenConfig


def tiny_plan(root_seed=5, scores=("bdeu", "bic")):
    # bdeu/bic keep the unit suite fast; the hierarchical score runs in the
    # acceptance suite
    cell = GenConfig(n_nodes=3, card=2, arc_ratio=1.0, n_groups=2,
                     rows_per_group=30, regime="hier")
    return ExperimentPlan(cells=(cell,), scores=scores, n_structures=2,
                          n_param_sets=2, n_data_sets=1, root_seed=root_seed)


def strip_all(records):
    # wall time is the one legitimately non-reproducible column
    return [(r.config_id, r.seed, r.score, r.shd, r.tp, r.fp, r.fn, r.logscore)
            for r in records]


class TestExpand:
    def test_full_paper_grid_size(self):
        plan = full_grid("hier")
        jobs = expand(plan)
        assert len(jobs) == 54000

    def test_single_replicate_plan(self):
        cell = GenConfig(n_nodes=3, n_groups=2, rows_per_group=10)
        plan = ExperimentPlan(cells=(cell,), scores=("bdeu",), n_structures=1,
                              n_param_sets=1, n_data_sets=1)
        assert len(expand(plan)) == 1

    def test_job_ids_unique_and_stable(self):
        plan = tiny_plan()
        jobs1 = expand(plan)
        jobs2 = expand(plan)
        ids1 = [j.job_id for j in jobs1]
        assert len(set(ids1)) == len(ids1)
        assert ids1 == [j.job_id for j in jobs2]

    def test_seeds_differ_across_replicates(self):
        seeds = [j.config.seed for j in expand(tiny_plan())]
        assert len(set(seeds)) == len(seeds)

    def test_cell_id_encodes_parameters(self):
        cell = GenConfig(n_nodes=5, card=2, arc_ratio=1.0, n_groups=5,
                         rows_per_group=500, regime="hier")
        assert cell_id(cell) == "a-hier-N5-F5-K2-c1-n500-P0-R0"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(cells=(), scores=("bdeu",))
        cell = GenConfig(n_nodes=3)
        with pytest.raises(ValueError):
            ExperimentPlan(cells=(cell,), scores=())
        with pytest.raises(ValueError, match="n_structures must be at least 1"):
            ExperimentPlan(cells=(cell,), scores=("bdeu",), n_structures=0)
        with pytest.raises(ValueError, match="root_seed must be at least 0"):
            ExperimentPlan(cells=(cell,), scores=("bdeu",), root_seed=-1)


class TestRunJob:
    def test_one_record_per_score_and_iss(self):
        plan = tiny_plan()
        job = expand(plan)[0]
        records = run_job(job)
        assert len(records) == 2
        assert {r.score for r in records} == {"bdeu", "bic"}
        assert all(r.config_id == cell_id(job.config) and r.seed == job.config.seed
                   for r in records)
        assert all(r.wall_time_s >= 0 for r in records)

    def test_deterministic_apart_from_wall_time(self):
        job = expand(tiny_plan())[3]
        a = run_job(job)
        b = run_job(job)
        strip = lambda r: (r.config_id, r.seed, r.score, r.shd, r.tp, r.fp,
                           r.fn, r.logscore)
        assert [strip(r) for r in a] == [strip(r) for r in b]


class TestIssRecorded:
    """A plan with several iss values writes rows that say which one made
    them, so the rows of one score at one iss align by replicate."""

    @pytest.fixture(scope="class")
    def plan(self):
        cell = GenConfig(n_nodes=3, card=2, arc_ratio=1.0, n_groups=2,
                         rows_per_group=30, regime="hier")
        return ExperimentPlan(cells=(cell,), scores=("bdeu", "bhd"), iss=(1.0, 10.0),
                              n_structures=2, n_param_sets=1, n_data_sets=1, root_seed=3)

    @pytest.fixture(scope="class")
    def records(self, plan, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("iss") / "res.csv")
        return out, run(plan, out)

    def test_rows_carry_their_iss(self, records):
        out, rows = records
        assert read_records(out) == rows and len(rows) == 8
        assert [(r.score, r.iss) for r in rows] == 2 * [
            ("bdeu", 1.0), ("bdeu", 10.0), ("bhd", 1.0), ("bhd", 10.0)]
        assert rows == sorted(rows, key=lambda r: (r.config_id, r.seed, r.score, r.iss))

    def test_paired_difference_at_one_iss(self, records):
        _, rows = records
        pick = lambda score, iss: [r for r in rows if r.score == score and r.iss == iss]
        for iss in (1.0, 10.0):
            diff = paired_difference(pick("bdeu", iss), pick("bhd", iss), "shd")
            assert len(diff.differences) == 2
        with pytest.raises(ValueError, match=r"first records mix iss values \[1\.0, 10\.0\]"):
            paired_difference([r for r in rows if r.score == "bdeu"], pick("bhd", 1.0))
        with pytest.raises(ValueError, match=r"second records mix iss values \[1\.0, 10\.0\]"):
            paired_difference(pick("bdeu", 1.0), [r for r in rows if r.score == "bhd"])

    def test_resume_keeps_only_rows_of_the_plans_iss(self, plan, records, tmp_path,
                                                     monkeypatch):
        _, rows = records
        seed0 = rows[0].seed
        # the first replicate lacks its bhd row at iss 10; the second is
        # complete
        partial = str(tmp_path / "partial.csv")
        dropped = (seed0, "bhd", 10.0)
        write_records(partial, [r for r in rows if (r.seed, r.score, r.iss) != dropped])
        kept, completed_jobs = [], bench._completed_jobs

        def spy(plan, existing):
            done, rows_kept = completed_jobs(plan, existing)
            kept.append(rows_kept)
            return done, rows_kept

        monkeypatch.setattr(bench, "_completed_jobs", spy)
        assert strip_all(run(plan, partial, resume=True)) == strip_all(rows)
        # a plan at other iss values keeps none of the rows
        run(replace(plan, iss=(1.0, 2.0)), partial, resume=True)
        assert [r.seed for r in kept[0]] == [r.seed for r in rows if r.seed != seed0]
        assert kept[1] == []
        assert sorted({r.iss for r in read_records(partial)}) == [1.0, 2.0]


class TestRun:
    def test_writes_expected_row_count(self, tmp_path):
        out = str(tmp_path / "res.csv")
        plan = tiny_plan()
        run(plan, out)
        records = read_records(out)
        assert len(records) == len(expand(plan)) * 2
        assert records == sorted(records, key=record_sort_key)

    def test_resume_skips_completed(self, tmp_path):
        out = str(tmp_path / "res.csv")
        plan = tiny_plan()
        run(plan, out)
        before = os.path.getmtime(out)
        first = read_records(out)
        run(plan, out, resume=True)
        assert read_records(out) == first

    def test_interrupted_run_resumes_to_same_csv(self, tmp_path):
        plan = tiny_plan()
        full = str(tmp_path / "full.csv")
        run(plan, full)
        # simulate a crash after two complete jobs
        jobs = expand(plan)
        partial = str(tmp_path / "partial.csv")
        done = [rec for job in jobs[:2] for rec in run_job(job)]
        write_records(partial, done)
        run(plan, partial, resume=True)
        assert strip_all(read_records(partial)) == strip_all(read_records(full))

    def test_partial_replicate_group_discarded_on_resume(self, tmp_path):
        plan = tiny_plan()
        full = str(tmp_path / "full.csv")
        run(plan, full)
        # keep only one score's record of the first replicate: that group is
        # incomplete and must be redone, not half-trusted
        records = read_records(full)
        jobs = expand(plan)
        key0 = (cell_id(jobs[0].config), jobs[0].config.seed)
        broken = [r for r in records
                  if (r.config_id, r.seed) != key0 or r.score == "bdeu"]
        assert len(broken) == len(records) - 1
        partial = str(tmp_path / "partial.csv")
        write_records(partial, broken)
        run(plan, partial, resume=True)
        assert strip_all(read_records(partial)) == strip_all(records)

    def test_fresh_run_deletes_errors_log_resume_keeps_it(self, tmp_path, monkeypatch):
        plan = tiny_plan()
        out = str(tmp_path / "res.csv")
        log = tmp_path / "res.csv.errors.log"
        failing = expand(plan)[0].job_id

        def run_job_failing_one(job):
            if job.job_id == failing:
                raise RuntimeError("synthetic failure")
            return run_job(job)

        monkeypatch.setattr(bench, "run_job", run_job_failing_one)
        run(plan, out)
        assert log.read_text().startswith(failing + ": RuntimeError")
        run(plan, out, resume=True)
        assert log.read_text().count(failing + ": ") == 2
        monkeypatch.setattr(bench, "run_job", run_job)
        run(plan, out, resume=True)
        assert log.exists()
        run(plan, out)
        assert not log.exists()

    @pytest.mark.parametrize("jobs, pending, workers", [(5000, 1, []), (5000, 4, [4]),
                                                        (3, 4, [3]), (2, 0, [])])
    def test_pool_gets_no_more_workers_than_jobs(self, tmp_path, monkeypatch, jobs, pending,
                                                 workers):
        # a stand-in pool that runs each job in this process, so no large
        # worker count ever starts a process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                future = Future()
                future.set_result(fn(job))
                return future

        # bench.run imports the pool class from concurrent.futures when it
        # starts more than one worker
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        plan = tiny_plan(root_seed=11)
        out = str(tmp_path / "res.csv")
        # resume over the records of all but ``pending`` jobs
        all_jobs = expand(plan)
        write_records(out, [r for job in all_jobs[pending:] for r in run_job(job)])
        records = run(plan, out, jobs=jobs, resume=True)
        assert started == workers
        assert len(records) == 2 * len(all_jobs)
        serial = str(tmp_path / "serial.csv")
        run(plan, serial, jobs=1)
        assert strip_all(read_records(out)) == strip_all(read_records(serial))

    def test_parallel_matches_serial(self, tmp_path):
        plan = tiny_plan(root_seed=11)
        serial = str(tmp_path / "serial.csv")
        parallel = str(tmp_path / "parallel.csv")
        run(plan, serial, jobs=1)
        run(plan, parallel, jobs=4)
        rows_serial = [r for r in read_records(serial)]
        rows_parallel = [r for r in read_records(parallel)]
        strip = lambda r: (r.config_id, r.seed, r.score, r.shd, r.tp, r.fp,
                           r.fn, r.logscore)
        assert [strip(r) for r in rows_serial] == [strip(r) for r in rows_parallel]


class TestPlanJson:
    def test_round_trip(self):
        plan = desk_plan()
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_desk_plan_shape(self):
        plan = desk_plan()
        assert len(plan.cells) == 4
        assert {c.rows_per_group for c in plan.cells} == {100, 500}
        assert {c.n_groups for c in plan.cells} == {2, 5}
        assert plan.n_structures == 2
        assert plan.n_param_sets == 3
        assert plan.n_data_sets == 3

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            plan_from_json('{"schema": 1, "cells": [], "bogus": true}')

    @pytest.mark.parametrize("text", [
        '{"scores": ["bdeu"]}',
        '{"cells": [], "iss": 1.0}',
        '{"cells": [], "scores": "bdeu"}',
        '{"cells": [], "structures": null}',
        '{"cells": {"n_nodes": 3}}',
        '{"cells": [3]}',
        '[]',
    ])
    def test_malformed_plans_rejected(self, text):
        with pytest.raises(ValueError):
            plan_from_json(text)

    @pytest.mark.parametrize("settings, message", [
        ({"scores": ["bdx"]}, "unknown score kind"),
        # the ids these two cases have always had, from when the message
        # spelled out "imaginary sample size"
        pytest.param({"iss": [1.0, -1]}, "iss must be positive and finite",
                     id="settings1-imaginary sample size"),
        ({"vb_tol": 0}, "vb_tol"),
        ({"vb_max_iters": 0}, "vb_max_iters"),
        pytest.param({"iss": [float("inf")]}, "iss must be positive and finite",
                     id="settings4-imaginary sample size"),
        ({"vb_tol": float("inf")}, "vb_tol must be positive and finite"),
        ({"iss": [True]}, "iss must be a number, got True"),
        ({"iss": [1.0, "2"]}, "iss must be a number, got '2'"),
        ({"vb_tol": True}, "vb_tol must be a number, got True"),
        ({"vb_tol": "1e-3"}, "vb_tol must be a number, got '1e-3'"),
        ({"iss": [10 ** 400]}, "iss must be positive and finite"),
        ({"vb_tol": 10 ** 400}, "vb_tol must be positive and finite"),
    ])
    def test_bad_score_settings_rejected(self, settings, message):
        doc = {"cells": [{"n_nodes": 3}], "scores": ["bdeu"], **settings}
        with pytest.raises(ValueError, match=message):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, field", [
        ("root_seed", "root_seed"), ("structures", "n_structures"),
        ("param_sets", "n_param_sets"), ("data_sets", "n_data_sets"),
        ("vb_max_iters", "vb_max_iters")])
    @pytest.mark.parametrize("value", [1.9, 2.0, True, "3"])
    def test_counts_and_seed_must_be_integers(self, key, field, value):
        doc = {"cells": [{"n_nodes": 3}], "scores": ["bdeu"], key: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            plan_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentPlan(cells=(GenConfig(n_nodes=3),), scores=("bdeu",), **{field: value})

    @pytest.mark.parametrize("field", ["n_nodes", "card", "n_groups", "rows_per_group"])
    def test_fractional_cell_size_rejected(self, field):
        doc = {"cells": [{"n_nodes": 3, field: 10.5}], "scores": ["bdeu"]}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize("settings, message", [
        ({"scores": ["bdeu", "bhd", "bdeu"]}, "repeats score 'bdeu'"),
        ({"iss": [1.0, 4.0, 1]}, "repeats iss 1.0"),
    ])
    def test_repeated_settings_rejected(self, settings, message):
        doc = {"cells": [{"n_nodes": 3}], **settings}
        with pytest.raises(ValueError, match=message):
            plan_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(cells=(GenConfig(n_nodes=3),), **settings)
