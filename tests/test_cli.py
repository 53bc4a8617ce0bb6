"""Command-line interface: exit codes, output shapes, round trips."""

import csv
import json
import locale
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hierbn.cli as cli
from hierbn.cli import main
from hierbn.data import GroupedDataset, VariableMeta, load_csv
from hierbn.metrics import CSV_COLUMNS, read_records
from hierbn.scores import ScoreConfig, fold_total, local_log_scores
from hierbn.simgen import GenConfig, generate
from oracles import write_replicate_csv_oracle


# level texts and group labels that csv quotes (a comma, a quote, a line
# break, a carriage return) or writes bare (empty, spaces)
QUOTING_LEVELS = ("a,b", 'say "hi"', "two\nlines", "", " pad ", "cr\r", "plain")
QUOTING_GROUPS = ("g,1", 'q"', "", "multi\nline")


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(17)
    lines = ["site,a,b,c"]
    for i in range(80):
        a = rng.integers(0, 2)
        b = (a + rng.integers(0, 2)) % 2
        lines.append(f"s{i % 2},v{a},v{b},v{rng.integers(0, 2)}")
    lines += ["s0,v0,v0,v0", "s0,v1,v1,v1"]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["learn", "--data", "x.csv", "--bogus"]) == 1

    def test_bhd_without_group_is_usage_error(self, data_csv, capsys):
        assert main(["learn", "--data", data_csv, "--score", "bhd"]) == 1
        err = capsys.readouterr().err
        assert "--group" in err

    def test_missing_data_file_is_data_error(self, capsys):
        assert main(["learn", "--data", "/nonexistent.csv"]) == 2

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("g,a,b\ns1,,v0\ns1,v1,v0\n")
        assert main(["learn", "--data", str(path), "--group", "g"]) == 2

    def test_quote_open_at_end_of_file_is_data_error(self, tmp_path, capsys):
        # csv's lenient reader would end the file's last cell at EOF as a third level "p\n"
        path = tmp_path / "open.csv"
        path.write_text('g,a,b\n1,x,p\n2,y,q\n1,x,"p\n')
        assert main(["learn", "--data", str(path), "--group", "g"]) == 2
        assert "left open" in capsys.readouterr().err

    def test_csv_field_past_limit_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("g,a\ns1," + "x" * (csv.field_size_limit() + 1) + "\ns1,y\n")
        assert main(["learn", "--data", str(path), "--group", "g"]) == 2
        assert "field larger than field limit" in capsys.readouterr().err

    def test_corrupt_graph_file_is_data_error(self, data_csv, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text("{not json")
        assert main(["score", "--data", data_csv, "--group", "site",
                     "--graph", str(graph)]) == 2

    @pytest.mark.parametrize("text", ["[]", '{"nodes": "ab", "arcs": []}',
                                      '{"nodes": ["a", "b"], "arcs": [["a", "b", "c"]]}',
                                      '{"nodes": ["A", 1], "arcs": []}',
                                      '{"nodes": [["A"], "B"], "arcs": []}',
                                      '{"nodes": ["a", "a", "b", "c"], "arcs": []}',
                                      '{"nodes": ["a", "b", "c"], "arcs": [[["a"], "b"]]}'])
    def test_malformed_graph_document_is_data_error(self, data_csv, tmp_path, capsys, text):
        graph = tmp_path / "g.json"
        graph.write_text(text)
        assert main(["score", "--data", data_csv, "--group", "site",
                     "--graph", str(graph)]) == 2
        assert "cannot parse graph file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['"a";\n"a";\n"b";\n"c";', '"a" -- "b";', "a -- b;"])
    def test_malformed_dot_graph_is_data_error(self, data_csv, tmp_path, capsys, text):
        graph = tmp_path / "g.dot"
        graph.write_text(f"digraph g {{\n{text}\n}}\n")
        assert main(["score", "--data", data_csv, "--group", "site",
                     "--graph", str(graph)]) == 2
        assert "cannot parse graph file" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"nodes": ["a\x81"], "arcs": []}', None],
                             ids=["undecodable", "directory"])
    def test_unreadable_graph_file_is_data_error(self, data_csv, tmp_path, capsys, content):
        # 0x81 is no character in UTF-8, ASCII or cp1252
        graph = tmp_path / "g.json"
        if content is None:
            graph.mkdir()
        else:
            graph.write_bytes(content)
        assert main(["score", "--data", data_csv, "--group", "site",
                     "--graph", str(graph)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hierbn: data error:") and str(graph) in err

    def test_corrupt_plan_is_data_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"cells": [], "whatever": 1}')
        assert main(["bench", "--plan", str(plan), "--out",
                     str(tmp_path / "out.csv")]) == 2

    @pytest.mark.parametrize("text", ['{"scores": ["bdeu"]}', '{"cells": [], "iss": 1.0}'])
    def test_malformed_plan_is_data_error(self, tmp_path, capsys, text):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        assert main(["bench", "--plan", str(plan), "--out",
                     str(tmp_path / "out.csv")]) == 2

    @pytest.mark.parametrize("settings", [
        {"cells": [{"n_nodes": 3, "rows_per_group": 10.5}]},
        {"structures": 1.9}, {"data_sets": True}, {"root_seed": "3"},
        {"vb_max_iters": 20.5}, {"scores": ["bdeu", "bdeu"]}, {"iss": [2, 2.0]},
        {"root_seed": -1}])
    def test_fractional_count_or_repeated_setting_in_plan_is_data_error(
            self, tmp_path, capsys, settings):
        doc = {"cells": [{"n_nodes": 3, "rows_per_group": 10}], "scores": ["bdeu"],
               "structures": 1, "param_sets": 1, "data_sets": 1, **settings}
        plan, out = tmp_path / "plan.json", tmp_path / "out.csv"
        plan.write_text(json.dumps(doc))
        assert main(["bench", "--plan", str(plan), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("hierbn: data error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "simulate"])
    @pytest.mark.parametrize("value", [True, "1.0"])
    def test_arc_ratio_that_is_not_a_number_is_data_error(self, tmp_path, capsys, command,
                                                          value):
        cell = {"n_nodes": 3, "rows_per_group": 10, "arc_ratio": value}
        path, out = tmp_path / "doc.json", tmp_path / "out"
        if command == "bench":
            path.write_text(json.dumps({"cells": [cell], "scores": ["bdeu"]}))
            argv = ["bench", "--plan", str(path), "--out", str(out)]
        else:
            path.write_text(json.dumps(cell))
            argv = ["simulate", "--config", str(path), "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hierbn: data error:") and "arc_ratio must be a number" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "simulate"])
    @pytest.mark.parametrize("value", ["1e400", "NaN", "-1.0"])
    def test_arc_ratio_not_finite_or_negative_is_data_error(self, tmp_path, capsys, command,
                                                            value):
        cell = f'{{"n_nodes": 3, "rows_per_group": 10, "arc_ratio": {value}}}'
        path, out = tmp_path / "doc.json", tmp_path / "out"
        if command == "bench":
            path.write_text(f'{{"cells": [{cell}], "scores": ["bdeu"]}}')
            argv = ["bench", "--plan", str(path), "--out", str(out)]
        else:
            path.write_text(cell)
            argv = ["simulate", "--config", str(path), "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hierbn: data error:")
        assert "arc_ratio must be finite and at least 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "simulate"])
    def test_more_arcs_removed_than_placed_is_data_error(self, tmp_path, capsys, command):
        # round(0.34 * 3) = 1 arc is placed, so none is left for a second removal
        cell = {"n_nodes": 3, "arc_ratio": 0.34, "scenario": "b", "n_perturbed": 1,
                "n_removed": 2, "rows_per_group": 5}
        path, out = tmp_path / "doc.json", tmp_path / "out"
        if command == "bench":
            path.write_text(json.dumps({"cells": [cell], "scores": ["bdeu"]}))
            argv = ["bench", "--plan", str(path), "--out", str(out)]
        else:
            path.write_text(json.dumps(cell))
            argv = ["simulate", "--config", str(path), "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hierbn: data error:") and "1 <= n_removed <= 1" in err
        assert not out.exists()

    def test_undecodable_csv_is_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
        path = tmp_path / "bad.csv"
        path.write_bytes(b"g,a,b\ns1,v0,v1\ns1,v\xff,v0\ns2,v0,v0\n")
        assert main(["learn", "--data", str(path), "--group", "g"]) == 2
        assert "line 3 cannot be decoded as utf-8" in capsys.readouterr().err

    def test_directory_as_data_is_data_error(self, tmp_path, capsys):
        assert main(["learn", "--data", str(tmp_path), "--group", "g"]) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_repeated_column_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("g,a,a\ns1,v0,v1\ns1,v1,v0\ns2,v0,v0\n")
        assert main(["learn", "--data", str(path), "--group", "g"]) == 2

    def test_zero_jobs_is_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "cells": [{"n_nodes": 3, "n_groups": 2, "rows_per_group": 10}],
            "scores": ["bdeu"], "structures": 1, "param_sets": 1, "data_sets": 1}))
        assert main(["bench", "--plan", str(plan), "--out",
                     str(tmp_path / "out.csv"), "--jobs", "0"]) == 1

    def test_zero_jobs_is_usage_error_before_the_plan_is_read(self, tmp_path, capsys):
        assert main(["bench", "--plan", str(tmp_path / "absent.json"), "--out",
                     str(tmp_path / "out.csv"), "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "simulate"])
    def test_negative_seed_is_usage_error_before_any_file_is_read(self, tmp_path, capsys,
                                                                  command):
        absent = str(tmp_path / "absent.json")
        argv = {"bench": ["bench", "--plan", absent, "--out", str(tmp_path / "out.csv"),
                          "--seed", "-5"],
                "simulate": ["simulate", "--config", absent, "--out-dir",
                             str(tmp_path / "out"), "--seed", "-2"]}[command]
        assert main(argv) == 1
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--max-parents", "-1"), ("--max-iters", "0")])
    def test_bad_search_limit_is_usage_error(self, data_csv, capsys, flag, value):
        assert main(["learn", "--data", data_csv, "--group", "site", flag, value]) == 1
        assert capsys.readouterr().err.startswith("hierbn: error:")

    @pytest.mark.parametrize("command", ["learn", "score"])
    @pytest.mark.parametrize("score", ["bdeu", "bhd"])
    @pytest.mark.parametrize("flag, value", [("--iss", "0"), ("--s0", "0"),
                                             ("--vb-tol", "0"), ("--vb-max-iters", "0"),
                                             ("--iss", "inf"), ("--s0", "inf"),
                                             ("--vb-tol", "inf")])
    def test_bad_score_setting_is_usage_error(self, tmp_path, capsys, command, score,
                                              flag, value):
        # the data file does not exist: a usage error shows the setting was
        # rejected before the data were read
        argv = [command, "--data", str(tmp_path / "absent.csv"), "--group", "site",
                "--score", score, flag, value]
        if command == "score":
            argv += ["--graph", str(tmp_path / "absent.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("hierbn: error:")

    @pytest.mark.parametrize("settings", [{"scores": ["bdx"]}, {"iss": [-1]},
                                          {"vb_tol": 0}, {"iss": [float("inf")]},
                                          {"vb_tol": float("inf")}, {"iss": [True]},
                                          {"iss": [1.0, "2"]}, {"vb_tol": True},
                                          {"vb_tol": "1e-3"}, {"vb_tol": 10 ** 400},
                                          {"iss": [10 ** 400]}])
    def test_bad_plan_score_setting_is_data_error(self, tmp_path, capsys, settings):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "cells": [{"n_nodes": 3, "n_groups": 2, "rows_per_group": 10}],
            "scores": ["bdeu"], "structures": 1, "param_sets": 1, "data_sets": 1,
            **settings}))
        out = tmp_path / "out.csv"
        assert main(["bench", "--plan", str(plan), "--out", str(out), "--jobs", "1"]) == 2
        assert not out.exists() and not (tmp_path / "out.csv.errors.log").exists()

    def test_oversize_count_table_is_data_error(self, tmp_path, capsys):
        names = [f"v{i}" for i in range(63)]
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(",".join(row) for row in
                                  (names, ["a"] * 63, ["b"] * 63)) + "\n")
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"schema": 1, "nodes": names,
                                     "arcs": [[p, "v62"] for p in names[:62]]}))
        assert main(["score", "--data", str(path), "--graph", str(graph)]) == 2
        assert "'v62' given 62 parents" in capsys.readouterr().err

    def test_internal_failure_is_runtime_error(self, data_csv, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr(cli, "run_hill_climb", boom)
        assert main(["learn", "--data", data_csv, "--group", "site"]) == 3


class TestLearnAndScore:
    def test_learn_prints_graph_json(self, data_csv, capsys):
        assert main(["learn", "--data", data_csv, "--group", "site",
                     "--score", "bhd"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["nodes"] == ["a", "b", "c"]
        assert doc["score"] == "bhd"
        assert isinstance(doc["logscore"], float)
        assert all(isinstance(arc, list) and len(arc) == 2 for arc in doc["arcs"])

    def test_learn_score_round_trip_exact(self, data_csv, tmp_path, capsys):
        graph = str(tmp_path / "g.json")
        for kind in ("bdeu", "bic", "bhd"):
            assert main(["learn", "--data", data_csv, "--group", "site",
                         "--score", kind, "--out", graph]) == 0
            learned = json.loads(open(graph).read())
            assert main(["score", "--data", data_csv, "--group", "site",
                         "--score", kind, "--graph", graph]) == 0
            scored = json.loads(capsys.readouterr().out)
            assert scored["logscore"] == learned["logscore"]
            assert fold_total(scored["per_node"].values()) == scored["logscore"]

    def test_learn_writes_dot(self, data_csv, tmp_path, capsys):
        dot = str(tmp_path / "g.dot")
        assert main(["learn", "--data", data_csv, "--group", "site",
                     "--dot", dot]) == 0
        text = open(dot).read()
        assert text.startswith("digraph")
        # the DOT file is accepted back by score
        assert main(["score", "--data", data_csv, "--group", "site",
                     "--graph", dot]) == 0

    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    def test_dot_round_trip_of_names_holding_arrows_exact(self, tmp_path, capsys, kind):
        rng = np.random.default_rng(29)
        lines = ["site,x->y,a--b,c"]
        for i in range(120):
            a = rng.integers(0, 2)
            lines.append(f"s{i % 3},v{a},v{(a + (rng.random() < 0.1)) % 2},"
                         f"v{rng.integers(0, 2)}")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        graph, dot = str(tmp_path / "g.json"), str(tmp_path / "g.dot")
        assert main(["learn", "--data", str(data), "--group", "site", "--score", kind,
                     "--out", graph, "--dot", dot]) == 0
        learned = json.loads(open(graph).read())
        assert learned["arcs"]
        assert main(["score", "--data", str(data), "--group", "site", "--score", kind,
                     "--graph", dot]) == 0
        assert json.loads(capsys.readouterr().out)["logscore"] == learned["logscore"]

    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    def test_dot_round_trip_of_names_holding_quotes_exact(self, tmp_path, capsys, kind):
        # the header's "a""b" is the variable a"b, and c\d holds a backslash
        rng = np.random.default_rng(31)
        lines = ['site,"a""b",c\\d,e']
        for i in range(120):
            a = rng.integers(0, 2)
            lines.append(f"s{i % 3},v{a},v{(a + (rng.random() < 0.1)) % 2},"
                         f"v{rng.integers(0, 2)}")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        graph, dot = str(tmp_path / "g.json"), str(tmp_path / "g.dot")
        assert main(["learn", "--data", str(data), "--group", "site", "--score", kind,
                     "--out", graph, "--dot", dot]) == 0
        learned = json.loads(open(graph).read())
        assert learned["arcs"] and 'a"b' in learned["nodes"] and "c\\d" in learned["nodes"]
        assert main(["score", "--data", str(data), "--group", "site", "--score", kind,
                     "--graph", dot]) == 0
        assert json.loads(capsys.readouterr().out)["logscore"] == learned["logscore"]

    def test_byte_order_mark_before_the_group_column(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xef\xbb\xbfsite,a,b\ns1,x,y\ns1,y,x\ns2,x,x\ns2,y,y\n")
        assert main(["learn", "--data", str(data), "--group", "site"]) == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == ["a", "b"]

    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    def test_dot_round_trip_of_a_file_with_a_byte_order_mark(self, tmp_path, monkeypatch, capsys,
                                                              kind):
        # the mark stands before the variable a, not before the group column
        monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
        rng = np.random.default_rng(41)
        lines = ["a,site,b,c"]
        for i in range(120):
            a = rng.integers(0, 2)
            lines.append(f"v{a},s{i % 3},v{(a + (rng.random() < 0.1)) % 2},"
                         f"v{rng.integers(0, 2)}")
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xef\xbb\xbf" + ("\n".join(lines) + "\n").encode())
        graph, dot = str(tmp_path / "g.json"), str(tmp_path / "g.dot")
        assert main(["learn", "--data", str(data), "--group", "site", "--score", kind,
                     "--out", graph, "--dot", dot]) == 0
        learned = json.loads(open(graph).read())
        assert learned["nodes"] == ["a", "b", "c"] and learned["arcs"]
        assert '"\ufeff' not in open(dot, encoding="utf-8").read()
        assert main(["score", "--data", str(data), "--group", "site", "--score", kind,
                     "--graph", dot]) == 0
        assert json.loads(capsys.readouterr().out)["logscore"] == learned["logscore"]

    @pytest.mark.parametrize("header", ['"a\nb"', '"a\rb"'], ids=["newline", "return"])
    def test_dot_of_a_name_holding_a_line_break_is_data_error(self, tmp_path, capsys, header):
        rng = np.random.default_rng(37)
        lines = [f"site,{header},c"] + [f"s{i % 2},v{rng.integers(0, 2)},v{rng.integers(0, 2)}"
                                        for i in range(40)]
        data = tmp_path / "data.csv"
        data.write_bytes(("\n".join(lines) + "\n").encode())
        out, dot = tmp_path / "g.json", tmp_path / "g.dot"
        assert main(["learn", "--data", str(data), "--group", "site",
                     "--out", str(out), "--dot", str(dot)]) == 2
        assert "line break" in capsys.readouterr().err
        # refused before anything is written
        assert not out.exists() and not dot.exists()

    def test_score_rejects_mismatched_nodes(self, data_csv, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(
            {"schema": 1, "nodes": ["x", "y"], "arcs": []}))
        assert main(["score", "--data", data_csv, "--group", "site",
                     "--graph", str(graph)]) == 2

    def test_classic_scores_pool_grouped_data_silently(self, data_csv, capsys):
        assert main(["learn", "--data", data_csv, "--group", "site",
                     "--score", "bdeu"]) == 0
        assert json.loads(capsys.readouterr().out)["score"] == "bdeu"

    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    def test_loaded_csv_counted_without_its_rows(self, data_csv, tmp_path, monkeypatch, capsys,
                                                 kind):
        # the file repeats its lines, so a loaded dataset holds its distinct
        # lines once; counting over the expanded rows would build
        # group_rows, which raises here
        lines = open(data_csv).read().splitlines()[1:]
        assert len(load_csv(data_csv, "site").rows) <= len(set(lines)) < len(lines)

        def expand(self):
            raise AssertionError("group_rows built")

        monkeypatch.setattr(GroupedDataset.__dict__["group_rows"], "func", expand)
        graph = str(tmp_path / "g.json")
        assert main(["learn", "--data", data_csv, "--group", "site", "--score", kind,
                     "--out", graph]) == 0
        assert main(["score", "--data", data_csv, "--group", "site", "--score", kind,
                     "--graph", graph]) == 0
        assert json.loads(capsys.readouterr().out)["logscore"] == \
            json.loads(open(graph).read())["logscore"]
        with pytest.raises(AssertionError, match="group_rows built"):
            load_csv(data_csv, "site").group_rows

    def test_plain_csv_without_group(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        lines = ["a,b"] + [f"v{rng.integers(0, 2)},v{rng.integers(0, 2)}"
                           for _ in range(30)] + ["v0,v1", "v1,v0"]
        path = tmp_path / "plain.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["learn", "--data", str(path)]) == 0


class TestSimulate:
    def config(self, tmp_path, **overrides):
        doc = {"n_nodes": 3, "card": 2, "arc_ratio": 1.0, "n_groups": 2,
               "rows_per_group": 12, "regime": "hier", "scenario": "a",
               "seed": 9, "structures": 2, "param_sets": 1, "data_sets": 2}
        doc.update(overrides)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_writes_replicates_and_truth(self, tmp_path, capsys):
        out_dir = str(tmp_path / "sims")
        assert main(["simulate", "--config", self.config(tmp_path),
                     "--out-dir", out_dir]) == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["rep_s0p0d0.csv", "rep_s0p0d1.csv",
                         "rep_s1p0d0.csv", "rep_s1p0d1.csv", "truth.json"]
        truth = json.loads(open(os.path.join(out_dir, "truth.json")).read())
        assert truth["schema"] == 1
        assert set(truth["replicates"]) == {"s0p0d0", "s0p0d1", "s1p0d0", "s1p0d1"}
        rep = truth["replicates"]["s0p0d0"]
        assert rep["master"]["nodes"] == ["X01", "X02", "X03"]
        # each replicate CSV loads back as a grouped dataset
        data = load_csv(os.path.join(out_dir, "rep_s0p0d0.csv"), "group")
        assert data.n_groups == 2
        assert data.n_rows == 24

    def test_simulate_process_loads_scipy_only_to_score(self, tmp_path):
        # a fresh process, as this one imported scipy with the test oracles:
        # importing hierbn and simulating load no scipy module and no
        # multiprocessing module, the first score loads scipy, and the
        # scores equal this process's bit for bit
        config, out_dir = self.config(tmp_path), str(tmp_path / "sims")
        rep = os.path.join(out_dir, "rep_s0p0d0.csv")
        script = "\n".join([
            "import json, sys",
            "import hierbn",
            "def scipy_modules():",
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "imported = scipy_modules()",
            "from hierbn.cli import main",
            "from hierbn.scores import ScoreConfig, local_log_scores",
            f"assert main(['simulate', '--config', {config!r}, '--out-dir', {out_dir!r}]) == 0",
            "simulated = scipy_modules()",
            "pooled = sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')",
            f"data = hierbn.load_csv({rep!r}, 'group')",
            "scores = [local_log_scores(data, [(1, (0, 2))], ScoreConfig(kind))[0].hex()",
            "          for kind in ('bdeu', 'bic', 'bhd')]",
            "print(json.dumps([imported, simulated, pooled, 'scipy.special' in sys.modules,",
            "                  scores]))",
        ])
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported, simulated, pooled, scored, scores = json.loads(proc.stdout.splitlines()[-1])
        assert imported == [] and simulated == [] and pooled == [] and scored
        data = load_csv(rep, "group")
        assert scores == [local_log_scores(data, [(1, (0, 2))], ScoreConfig(kind))[0].hex()
                          for kind in ("bdeu", "bic", "bhd")]

    def test_seed_override_changes_data(self, tmp_path, capsys):
        cfg = self.config(tmp_path, structures=1, data_sets=1)
        d1, d2, d3 = (str(tmp_path / n) for n in ("s1", "s2", "s3"))
        assert main(["simulate", "--config", cfg, "--out-dir", d1]) == 0
        assert main(["simulate", "--config", cfg, "--out-dir", d2]) == 0
        assert main(["simulate", "--config", cfg, "--out-dir", d3,
                     "--seed", "123"]) == 0
        rep = "rep_s0p0d0.csv"
        base = open(os.path.join(d1, rep)).read()
        assert open(os.path.join(d2, rep)).read() == base
        assert open(os.path.join(d3, rep)).read() != base

    def test_replicate_bytes_match_row_by_row_writer(self, tmp_path, capsys):
        config_path = self.config(tmp_path, n_nodes=5, card=3)
        out_dir = str(tmp_path / "sims")
        assert main(["simulate", "--config", config_path, "--out-dir", out_dir]) == 0
        doc = json.loads(open(config_path).read())
        for key in ("structures", "param_sets", "data_sets"):
            del doc[key]
        truth = json.loads(open(os.path.join(out_dir, "truth.json")).read())
        for rep_id, rep in truth["replicates"].items():
            _, dataset = generate(GenConfig(**{**doc, "seed": rep["seed"]}))
            reference = str(tmp_path / f"ref_{rep_id}.csv")
            write_replicate_csv_oracle(reference, dataset)
            written = open(os.path.join(out_dir, f"rep_{rep_id}.csv"), "rb").read()
            assert written == open(reference, "rb").read()

    @pytest.mark.parametrize("n_variables", [1, 3])
    def test_replicate_bytes_quote_as_the_row_by_row_writer(self, tmp_path, n_variables):
        levels = QUOTING_LEVELS
        variables = [VariableMeta(f"x{i}", levels[i:] + levels[:i]) for i in range(n_variables)]
        rng = np.random.default_rng(n_variables)
        dataset = GroupedDataset(variables, QUOTING_GROUPS,
                                 [rng.integers(0, len(levels), (n, n_variables))
                                  for n in (5, 0, 3, 4)])
        written, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
        cli._write_replicate_csv(written, dataset)
        write_replicate_csv_oracle(reference, dataset)
        assert written.read_bytes() == reference.read_bytes()

    def test_bad_config_key_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"n_nodes": 3, "rows": 10}))
        assert main(["simulate", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2


    @pytest.mark.parametrize("text", ["[1, 2]", '{"n_nodes": 3, "structures": "abc"}',
                                      '{"n_nodes": 3, "structures": 0}',
                                      '{"n_nodes": 3, "data_sets": -2}',
                                      '{"n_nodes": 3, "seed": -1}'])
    def test_bad_config_document_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "gen.json"
        path.write_text(text)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("hierbn: data error:")
        assert not out_dir.exists()

    def test_directory_as_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "gen.json"
        config.mkdir()
        assert main(["simulate", "--config", str(config),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hierbn: data error:") and str(config) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc", [{"n_nodes": 3, "rows_per_group": 10.5},
                                     {"n_nodes": 5.5}, {"n_nodes": 3, "n_groups": True},
                                     {"n_nodes": 3, "seed": 1.5},
                                     {"n_nodes": 3, "structures": 1.9},
                                     {"n_nodes": 3, "structures": "3"},
                                     {"n_nodes": 3, "param_sets": True}])
    def test_fractional_or_boolean_count_is_data_error(self, tmp_path, capsys, doc):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("hierbn: data error:")
        assert not out_dir.exists()


@st.composite
def replicate_datasets(draw):
    """Variables of 2, 3 or 5 levels, 1-16 of them, whose level texts and
    group labels are drawn (repeats allowed) from texts csv quotes or writes
    bare; groups of 0 to 700 rows, so the writer's columns fall in one
    chunk, in several, or one to a chunk."""
    texts = st.sampled_from(QUOTING_LEVELS + QUOTING_GROUPS + ("v0", "v1"))
    cards = draw(st.lists(st.sampled_from((2, 3, 5)), min_size=1, max_size=16))
    variables = [VariableMeta(f"x{i}", tuple(draw(st.lists(texts, min_size=c, max_size=c))))
                 for i, c in enumerate(cards)]
    sizes = draw(st.lists(st.sampled_from((0, 1, 2, 9, 150, 700)), min_size=1, max_size=4))
    groups = draw(st.lists(texts, min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    return GroupedDataset(variables, groups, [rng.integers(0, cards, (n, len(cards)))
                                              for n in sizes])


class TestReplicateCsvProperty:
    @settings(max_examples=120, deadline=None, database=None)
    @given(replicate_datasets())
    # groups of 0, 1 and 700 rows, whose every column falls in one chunk
    @example(GroupedDataset([VariableMeta("x", ("v0", "v1")), VariableMeta("y", QUOTING_LEVELS[:2])],
                            QUOTING_GROUPS[:3], [np.zeros((0, 2), int), np.ones((1, 2), int),
                                                 np.tile([[0, 1], [1, 0]], (350, 1))]))
    # 13 variables of 2, 3 and 5 levels in several chunks
    @example(GroupedDataset([VariableMeta(f"x{i}", QUOTING_LEVELS[i % 3:][:(2, 3, 5)[i % 3]])
                             for i in range(13)], ["a", "b"],
                            [np.random.default_rng(f).integers(0, (2, 3, 5) * 4 + (2,), (700, 13))
                             for f in range(2)]))
    def test_bytes_equal_the_row_by_row_writer(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            written, reference = os.path.join(tmp, "written.csv"), os.path.join(tmp, "ref.csv")
            cli._write_replicate_csv(written, dataset)
            write_replicate_csv_oracle(reference, dataset)
            with open(written, "rb") as fh, open(reference, "rb") as ref:
                assert fh.read() == ref.read()


class TestBench:
    def plan(self, tmp_path, **overrides):
        doc = {"cells": [{"n_nodes": 3, "card": 2, "n_groups": 2,
                          "rows_per_group": 25, "regime": "hier"}],
               "scores": ["bdeu", "bic"], "structures": 1, "param_sets": 2,
               "data_sets": 1, "root_seed": 7}
        doc.update(overrides)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_runs_plan_and_reports_count(self, tmp_path, capsys):
        out = str(tmp_path / "results.csv")
        assert main(["bench", "--plan", self.plan(tmp_path), "--out", out,
                     "--jobs", "1"]) == 0
        stdout = json.loads(capsys.readouterr().out)
        assert stdout == {"schema": 1, "records": 4, "out": out}
        assert len(read_records(out)) == 4

    def test_resume_leaves_complete_file_unchanged(self, tmp_path, capsys):
        out = str(tmp_path / "results.csv")
        plan = self.plan(tmp_path)
        assert main(["bench", "--plan", plan, "--out", out, "--jobs", "1"]) == 0
        first = open(out).read()
        assert main(["bench", "--plan", plan, "--out", out, "--jobs", "1",
                     "--resume"]) == 0
        assert open(out).read() == first

    def test_resume_over_empty_file_runs_every_replicate(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        out.write_text("")
        assert main(["bench", "--plan", self.plan(tmp_path), "--out", str(out), "--jobs", "1",
                     "--resume"]) == 0
        assert len(read_records(str(out))) == 4

    def test_resume_recomputes_row_cut_off_mid_write(self, tmp_path, capsys):
        out = str(tmp_path / "results.csv")
        plan = self.plan(tmp_path)
        assert main(["bench", "--plan", plan, "--out", out, "--jobs", "1"]) == 0
        full = read_records(out)
        with open(out, "rb+") as fh:
            fh.truncate(len(fh.read()) - 20)
        assert len(read_records(out)) == 3
        assert main(["bench", "--plan", plan, "--out", out, "--jobs", "1", "--resume"]) == 0
        strip = [(r.config_id, r.seed, r.score, r.shd, r.logscore) for r in full]
        assert [(r.config_id, r.seed, r.score, r.shd, r.logscore)
                for r in read_records(out)] == strip

    def test_resume_over_foreign_header_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        out.write_text("a,b\n1,2\n")
        assert main(["bench", "--plan", self.plan(tmp_path), "--out", str(out), "--jobs", "1",
                     "--resume"]) == 2
        assert "results.csv: line 1: unexpected results header" in capsys.readouterr().err
        assert out.read_text() == "a,b\n1,2\n"

    def test_resume_over_a_file_without_the_iss_column_is_data_error(self, tmp_path, capsys):
        # the results files written before rows recorded their iss
        out = tmp_path / "results.csv"
        plan = self.plan(tmp_path)
        assert main(["bench", "--plan", plan, "--out", str(out), "--jobs", "1"]) == 0
        column = CSV_COLUMNS.index("iss")
        rows = [row[:column] + row[column + 1:] for row in csv.reader(open(out, newline=""))]
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        before = out.read_text()
        assert main(["bench", "--plan", plan, "--out", str(out), "--jobs", "1",
                     "--resume"]) == 2
        assert "results.csv: line 1: unexpected results header" in capsys.readouterr().err
        assert out.read_text() == before

    @pytest.mark.parametrize("case", ["undecodable results", "directory as out",
                                      "directory as plan"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, case):
        plan, out = self.plan(tmp_path), tmp_path / "results.csv"
        argv = ["--jobs", "1"]
        if case == "undecodable results":
            # 0x81 is no character in UTF-8, ASCII or cp1252
            out.write_bytes(",".join(CSV_COLUMNS).encode() + b"\nc\x81\n")
            argv.append("--resume")
            named = out
        elif case == "directory as out":
            out.mkdir()
            named = out
        else:
            plan = named = tmp_path / "plans"
            plan.mkdir()
        assert main(["bench", "--plan", str(plan), "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hierbn: data error:") and str(named) in err
        if case == "undecodable results":
            assert out.read_bytes().endswith(b"\nc\x81\n")

    def test_seed_override(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        plan = self.plan(tmp_path)
        assert main(["bench", "--plan", plan, "--out", out1, "--jobs", "1"]) == 0
        assert main(["bench", "--plan", plan, "--out", out2, "--jobs", "1",
                     "--seed", "99"]) == 0
        seeds1 = {r.seed for r in read_records(out1)}
        seeds2 = {r.seed for r in read_records(out2)}
        assert seeds1 != seeds2


class TestConsoleScript:
    def test_help_runs(self):
        # the checkout's package, whether or not it is installed
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "hierbn.cli", "--help"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        for sub in ("learn", "score", "simulate", "bench"):
            assert sub in proc.stdout
