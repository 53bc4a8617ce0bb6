"""Greedy structure search: move enumeration and the ascent contract."""

import numpy as np
import pytest

from hierbn.data import load_csv
from hierbn.graph import Dag, is_acyclic
from hierbn.scores import LocalScoreCache, ScoreConfig, total_log_score
from hierbn.search import SearchConfig, apply_move, neighbourhood, run_hill_climb


def dataset_from_rows(tmp_path, rows, header, name="d.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return load_csv(str(path), header.split(",")[0])


def independent_pair(tmp_path, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    rows = [f"g0,v{rng.integers(0, 2)},v{rng.integers(0, 2)}" for _ in range(n)]
    rows += ["g0,v0,v1", "g0,v1,v0"]
    return dataset_from_rows(tmp_path, rows, "g,x,y")


def deterministic_copy(tmp_path, n=1000, seed=1):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        v = rng.integers(0, 2)
        rows.append(f"g0,v{v},v{v}")
    rows += ["g0,v0,v0", "g0,v1,v1"]
    return dataset_from_rows(tmp_path, rows, "g,x,y")


class TestNeighbourhood:
    def test_empty_three_node_dag(self):
        moves = neighbourhood(Dag(3), None)
        kinds = [m[0] for m in moves]
        assert kinds.count("add") == 6
        assert kinds.count("delete") == 0
        assert kinds.count("reverse") == 0

    def test_chain_counts(self):
        # C->A is blocked by the cycle through the chain, so one addition
        moves = neighbourhood(Dag(3, frozenset({(0, 1), (1, 2)})), None)
        kinds = [m[0] for m in moves]
        assert kinds.count("add") == 1
        assert ("add", 0, 2) in moves
        assert kinds.count("delete") == 2
        assert kinds.count("reverse") == 2

    def test_all_moves_keep_acyclicity(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            arcs = set()
            order = rng.permutation(5)
            for u, v in [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4)]:
                if rng.random() < 0.6:
                    arcs.add((int(order[u]), int(order[v])))
            dag = Dag(5, frozenset(arcs))
            for move in neighbourhood(dag, None):
                out = apply_move(dag, move)
                assert is_acyclic(out.node_count, out.arcs)

    def test_max_parents_cap(self):
        dag = Dag(3, frozenset({(0, 2)}))
        capped = neighbourhood(dag, 1)
        assert ("add", 1, 2) not in capped
        assert ("add", 1, 0) in capped
        # a reversal may not push the arc's former tail over the cap either
        dag2 = Dag(3, frozenset({(0, 1), (2, 0)}))
        assert ("reverse", 0, 1) not in neighbourhood(dag2, 1)
        assert ("reverse", 2, 0) in neighbourhood(dag2, 1)

    def test_deterministic_order(self):
        dag = Dag(4, frozenset({(0, 1), (2, 3)}))
        assert neighbourhood(dag, None) == sorted(neighbourhood(dag, None))


class TestHillClimb:
    def test_independent_variables_give_empty_graph(self, tmp_path):
        data = independent_pair(tmp_path)
        for kind in ("bdeu", "bic"):
            result = run_hill_climb(data, ScoreConfig(kind))
            assert result.dag.arcs == frozenset()
            assert result.score == total_log_score(result.dag, data, ScoreConfig(kind))

    def test_dependent_variables_get_one_edge(self, tmp_path):
        data = deterministic_copy(tmp_path)
        for kind in ("bdeu", "bic"):
            assert len(run_hill_climb(data, ScoreConfig(kind)).dag.arcs) == 1

    def test_final_score_matches_cold_recomputation(self, tmp_path):
        data = deterministic_copy(tmp_path)
        config = ScoreConfig("bdeu")
        result = run_hill_climb(data, config)
        assert result.score == total_log_score(result.dag, data, config)

    def test_local_optimum_and_increasing_trace(self, tmp_path):
        rng = np.random.default_rng(5)
        for trial in range(6):
            rows = []
            for i in range(120):
                a = rng.integers(0, 2)
                b = (a + rng.integers(0, 2)) % 2
                c = rng.integers(0, 2)
                rows.append(f"g{i % 2},v{a},v{b},v{c}")
            rows += ["g0,v0,v0,v0", "g0,v1,v1,v1"]
            data = dataset_from_rows(tmp_path, rows, "g,a,b,c", name=f"t{trial}.csv")
            config = ScoreConfig("bdeu")
            result = run_hill_climb(data, config)
            assert all(later > earlier for earlier, later
                       in zip(result.trace, result.trace[1:]))
            cache = LocalScoreCache()
            base = total_log_score(result.dag, data, config, cache)
            for move in neighbourhood(result.dag, None):
                trial_dag = apply_move(result.dag, move)
                assert total_log_score(trial_dag, data, config, cache) <= base

    def test_deterministic(self, tmp_path):
        data = deterministic_copy(tmp_path)
        a = run_hill_climb(data, ScoreConfig("bdeu"))
        b = run_hill_climb(data, ScoreConfig("bdeu"))
        assert a.dag == b.dag
        assert a.score == b.score
        assert a.trace == b.trace

    def test_start_graph_respected(self, tmp_path):
        data = independent_pair(tmp_path)
        start = Dag(2, frozenset({(0, 1)}))
        result = run_hill_climb(data, ScoreConfig("bdeu"), start=start)
        # independent data: the arc is dropped again
        assert result.dag.arcs == frozenset()

    def test_iteration_budget_validated_and_honoured(self, tmp_path):
        with pytest.raises(ValueError):
            SearchConfig(max_iterations=0)
        data = deterministic_copy(tmp_path)
        result = run_hill_climb(data, ScoreConfig("bdeu"),
                                SearchConfig(max_iterations=1))
        assert len(result.trace) <= 2

    def test_trace_starts_at_empty_graph_score(self, tmp_path):
        data = deterministic_copy(tmp_path)
        config = ScoreConfig("bdeu")
        result = run_hill_climb(data, config)
        assert result.trace[0] == pytest.approx(
            total_log_score(Dag(2), data, config), abs=1e-12)
        assert result.trace[-1] == result.score
