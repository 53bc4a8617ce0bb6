"""Replicate records, structure recovery metrics, paired aggregation."""

import numpy as np
import pytest

from hierbn import graph, metrics
from hierbn.data import DataError
from hierbn.graph import Dag, to_cpdag
from hierbn.metrics import (CSV_COLUMNS, PairedDifference, RunRecord, evaluate,
                            paired_difference, read_records, record_sort_key,
                            write_records)

from oracles import random_dag_uniform_pairs


def record(config_id="cell-1", seed=7, score="bdeu", shd=3, tp=2, fp=1, fn=2,
           logscore=-123.456, wall=0.5, iss=1.0):
    return RunRecord(config_id, "a", "hier", 5, 5, 2, 1.0, 500, 0, 0, seed,
                     score, iss, shd, tp, fp, fn, logscore, wall)


class TestEvaluate:
    def test_exact_recovery(self):
        truth = Dag(4, frozenset({(0, 1), (1, 2), (0, 3)}))
        shd_, tp, fp, fn = evaluate(truth, truth)
        assert (shd_, fp, fn) == (0, 0, 0)
        assert tp == to_cpdag(truth).edge_count

    def test_empty_estimate(self):
        truth = Dag(4, frozenset({(0, 1), (1, 2), (0, 3)}))
        edge_count = to_cpdag(truth).edge_count
        assert evaluate(Dag(4), truth) == (edge_count, 0, 0, edge_count)

    def test_each_graph_goes_to_its_cpdag_once(self, monkeypatch):
        calls = []

        def spy(dag):
            calls.append(dag)
            return to_cpdag(dag)

        monkeypatch.setattr(graph, "to_cpdag", spy)
        monkeypatch.setattr(metrics, "to_cpdag", spy)
        learned, truth = Dag(3, frozenset({(0, 1)})), Dag(3, frozenset({(1, 2)}))
        assert evaluate(learned, truth) == (2, 0, 1, 1)
        assert calls == [learned, truth]

    def test_shd_bounded_by_confusion_and_orientation(self):
        # every differing pair is a missing edge, an extra edge, or an
        # orientation disagreement, so shd never exceeds their total
        rng = np.random.default_rng(3)
        for _ in range(200):
            est = random_dag_uniform_pairs(4, rng)
            truth = random_dag_uniform_pairs(4, rng)
            shd_, tp, fp, fn = evaluate(est, truth)
            cp_est, cp_truth = to_cpdag(est), to_cpdag(truth)
            orient = 0
            for u in range(4):
                for v in range(u + 1, 4):
                    a, b = cp_est.pair_status(u, v), cp_truth.pair_status(u, v)
                    if a != b and a != "none" and b != "none":
                        orient += 1
            assert shd_ <= fp + fn + orient
            assert tp + fn == cp_truth.edge_count


class TestRecordCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "r.csv")
        records = [record(seed=s, logscore=-1.0 / (s + 1), wall=0.1 * s)
                   for s in range(5)]
        write_records(path, records)
        back = read_records(path)
        assert back == records

    def test_header_written_once_on_append(self, tmp_path):
        path = str(tmp_path / "r.csv")
        write_records(path, [record(seed=0)])
        write_records(path, [record(seed=1)], append=True)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("nope,columns\n1,2\n")
        with pytest.raises(DataError, match=r"r\.csv: line 1: unexpected results header"):
            read_records(str(path))

    def test_row_of_wrong_length_rejected(self, tmp_path):
        row = ",".join(record().to_row())
        for bad in (row + ",1", row.rsplit(",", 1)[0]):
            path = tmp_path / "r.csv"
            path.write_text(",".join(CSV_COLUMNS) + "\n" + bad + "\n")
            with pytest.raises(DataError, match=r"r\.csv: line 2: expected 19 cells"):
                read_records(str(path))

    def test_empty_file_holds_no_records(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        assert read_records(str(path)) == []

    @pytest.mark.parametrize("cut", [1, 2, 9])
    def test_partial_last_row_dropped(self, tmp_path, cut):
        # a row cut off mid-write, before or within its \r\n terminator
        path = str(tmp_path / "r.csv")
        records = [record(seed=s) for s in range(3)]
        write_records(path, records)
        with open(path, "rb+") as fh:
            fh.truncate(len(fh.read()) - cut)
        assert read_records(path) == records[:2]

    def test_partial_header_holds_no_records(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_COLUMNS)[:20])
        assert read_records(str(path)) == []

    def test_malformed_complete_row_is_data_error_naming_file_and_line(self, tmp_path):
        row = record().to_row()
        path = tmp_path / "r.csv"
        for bad, message in ((row[:6], "expected 19 cells in a result row, got 6"),
                             (row[:3] + ["five"] + row[4:], "invalid literal for int")):
            # a complete row between complete rows, not the cut-off last one
            path.write_text("\n".join(map(",".join, [CSV_COLUMNS, row, bad, row])) + "\n")
            with pytest.raises(DataError, match=rf"r\.csv: line 3: {message}"):
                read_records(str(path))

    def test_float_fields_preserved_exactly(self, tmp_path):
        path = str(tmp_path / "r.csv")
        rec = record(logscore=-0.1 + 0.7, wall=1e-17)
        write_records(path, [rec])
        back = read_records(path)[0]
        assert back.logscore == rec.logscore
        assert back.wall_time_s == rec.wall_time_s

    def test_sort_key_orders_by_replicate_then_score(self):
        rows = [record(seed=1, score="bhd"), record(seed=0, score="bhd"),
                record(seed=0, score="bdeu")]
        ordered = sorted(rows, key=record_sort_key)
        assert [(r.seed, r.score) for r in ordered] == [
            (0, "bdeu"), (0, "bhd"), (1, "bhd")]


    def test_sort_key_orders_a_score_by_iss_not_by_logscore(self):
        rows = [record(score="bhd", iss=10.0, logscore=-2.0), record(score="bhd", iss=1.0),
                record(score="bdeu", iss=10.0)]
        ordered = sorted(rows, key=record_sort_key)
        assert [(r.score, r.iss) for r in ordered] == [
            ("bdeu", 10.0), ("bhd", 1.0), ("bhd", 10.0)]


class TestPairedDifference:
    def make_pairs(self, diffs, config_id="cell-1"):
        a = [record(config_id=config_id, seed=s, score="bdeu", shd=5 + d)
             for s, d in enumerate(diffs)]
        b = [record(config_id=config_id, seed=s, score="bhd", shd=5)
             for s in range(len(diffs))]
        return a, b

    def test_identical_sets_give_zeros(self):
        a, b = self.make_pairs([0, 0, 0])
        out = paired_difference(a, b, "shd")
        assert all(d == 0 for _, _, d in out.differences)
        assert out.by_config["cell-1"][0] == 0

    def test_antisymmetry(self):
        a, b = self.make_pairs([2, -1, 0, 3])
        fwd = paired_difference(a, b, "shd")
        rev = paired_difference(b, a, "shd")
        for (_, s1, d1), (_, s2, d2) in zip(fwd.differences, rev.differences):
            assert s1 == s2 and d1 == -d2

    def test_median_and_quartiles_match_numpy(self):
        diffs = [4, -2, 1, 0, 3, 3, -1]
        a, b = self.make_pairs(diffs)
        out = paired_difference(a, b, "shd")
        median, q1, q3 = out.by_config["cell-1"]
        assert median == np.median(diffs)
        assert q1 == np.percentile(diffs, 25)
        assert q3 == np.percentile(diffs, 75)

    def test_alignment_is_by_replicate_not_position(self):
        a, b = self.make_pairs([1, 2, 3])
        out = paired_difference(a, list(reversed(b)), "shd")
        assert [d for _, _, d in out.differences] == [1, 2, 3]

    def test_misaligned_records_rejected(self):
        a, b = self.make_pairs([1, 2])
        with pytest.raises(ValueError):
            paired_difference(a, b[:1], "shd")
        with pytest.raises(ValueError):
            paired_difference(a, b + [record(seed=0, score="bhd")], "shd")

    def test_other_metrics_selectable(self):
        a = [record(seed=0, score="bdeu", fp=4)]
        b = [record(seed=0, score="bhd", fp=1)]
        out = paired_difference(a, b, "fp")
        assert out.metric == "fp"
        assert out.differences[0][2] == 3

    def test_permutation_invariant_aggregation(self):
        rng = np.random.default_rng(9)
        diffs = rng.integers(-3, 4, size=11).tolist()
        a, b = self.make_pairs(diffs)
        out1 = paired_difference(a, b, "shd")
        perm = rng.permutation(len(a)).tolist()
        out2 = paired_difference([a[i] for i in perm], [b[i] for i in perm], "shd")
        assert out1.by_config == out2.by_config
