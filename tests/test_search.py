"""Greedy structure search: move enumeration and the ascent contract."""

import itertools
import warnings
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from hierbn import data as data_module
from hierbn import graph as graph_module
from hierbn import scores, search
from hierbn.data import load_csv
from hierbn.graph import Dag, is_acyclic
from hierbn.scores import LocalScoreCache, ScoreConfig, total_log_score
from hierbn.search import SearchConfig, apply_move, neighbourhood, run_hill_climb
from hierbn.simgen import GenConfig, generate

from oracles import all_dags, exact_optimum, random_dag_uniform_pairs


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


def brute_force_moves(dag, max_parents):
    """Every single-arc edit whose result networkx accepts as acyclic and
    that pushes no node's parent count above ``max_parents``."""
    n = dag.node_count
    moves = set()
    for u, v in itertools.permutations(range(n), 2):
        if (u, v) in dag.arcs:
            edits = [("delete", dag.arcs - {(u, v)}),
                     ("reverse", (dag.arcs - {(u, v)}) | {(v, u)})]
        elif (v, u) in dag.arcs:
            edits = []  # a second arc between the pair is no single-arc edit
        else:
            edits = [("add", dag.arcs | {(u, v)})]
        for kind, arcs in edits:
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(arcs)
            if not nx.is_directed_acyclic_graph(graph):
                continue
            grown = [w for w in range(n) if graph.in_degree(w) > len(dag.parents(w))]
            if max_parents is None or all(graph.in_degree(w) <= max_parents for w in grown):
                moves.add((kind, u, v))
    return moves


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

    @pytest.mark.parametrize("max_parents", [-1, True, 0.5, "1", np.float64(1)])
    def test_max_parents_checked_as_the_search_config_checks_it(self, max_parents):
        with pytest.raises(ValueError, match="max_parents"):
            neighbourhood(Dag(3, frozenset({(0, 2)})), max_parents)
        with pytest.raises(ValueError, match="max_parents"):
            SearchConfig(max_parents=max_parents)

    def test_deterministic_order(self):
        dag = Dag(4, frozenset({(0, 1), (2, 3)}))
        assert neighbourhood(dag, None) == sorted(neighbourhood(dag, None))

    @pytest.mark.parametrize("max_parents", [None, 0, 1, 2])
    def test_matches_brute_force_enumeration(self, max_parents):
        rng = np.random.default_rng(11)
        for trial in range(120):
            dag = random_dag_uniform_pairs(1 + trial % 7, rng, p=rng.uniform(0.1, 0.9))
            moves = neighbourhood(dag, max_parents)
            assert moves == sorted(moves)
            assert len(set(moves)) == len(moves)
            assert set(moves) == brute_force_moves(dag, max_parents)


class TestClimbMatrices:
    """The climb keeps its graph as an arc matrix and a reachability matrix,
    updated move by move; after every move they must describe the same DAG
    as one built from scratch."""

    @pytest.mark.parametrize("max_parents", [0, 1, None])
    def test_random_move_sequences(self, max_parents):
        rng = np.random.default_rng(23 if max_parents is None else max_parents)
        kinds = {"add": 0, "delete": 0, "reverse": 0}
        for trial in range(30):
            n = int(rng.integers(2, 9))
            start = random_dag_uniform_pairs(n, rng, p=rng.uniform(0.0, 0.6))
            arcs = graph_module._arc_matrix(start)
            below = graph_module._reachability(arcs)
            dag = start
            for _ in range(25):
                masks = search._legal_masks(arcs, below, max_parents)
                moves = [(kind, u, v) for kind, mask in zip(search.MOVE_KINDS, masks)
                         for u, v in np.argwhere(mask).tolist()]
                assert moves == neighbourhood(dag, max_parents)
                if not moves:
                    break
                move = moves[rng.integers(len(moves))]
                kinds[move[0]] += 1
                search._apply_to_matrices(arcs, below, move)
                dag = apply_move(dag, move)
                graph = nx.DiGraph(sorted(dag.arcs))
                graph.add_nodes_from(range(n))
                for v in range(n):
                    assert set(np.flatnonzero(below[v]).tolist()) == nx.descendants(graph, v)
                assert set(zip(*np.nonzero(arcs))) == dag.arcs
        # every kind of move the cap allows was exercised: with no parent
        # allowed, only deletions are legal
        assert kinds["delete"]
        assert all(kinds.values()) if max_parents != 0 else kinds["add"] == kinds["reverse"] == 0

    def test_climb_builds_no_dag_per_step(self, tmp_path, monkeypatch):
        data = deterministic_copy(tmp_path)
        built = []
        original = search.Dag

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(search, "Dag", counting)
        result = run_hill_climb(data, ScoreConfig("bdeu"), start=original(2))
        assert len(result.trace) == 2 and len(built) == 1

    def test_one_scoring_request_a_step(self, monkeypatch):
        # the start's locals come with the first step's toggles, and each
        # later step asks once for its cleared columns, diagonal included
        _, data = generate(GenConfig(n_nodes=6, arc_ratio=1.5, rows_per_group=150, seed=0))
        requests = []
        original = search._local_log_scores

        def spy(data, families, config, cache):
            requests.append(families)
            return original(data, families, config, cache)

        monkeypatch.setattr(search, "_local_log_scores", spy)
        for cap in (1000, 2):
            requests.clear()
            result = run_hill_climb(data, ScoreConfig("bdeu"), SearchConfig(max_iterations=cap))
            assert len(result.trace) > 2 and len(requests) == len(result.trace)
            pairs = itertools.product(range(6), repeat=2)
            assert sorted(requests[0]) == sorted((v, (u,) if u != v else ()) for v, u in pairs)

    def test_climb_checks_no_index_the_public_entries_check_once(self, monkeypatch):
        # the climb builds its families valid and sorted, so only the
        # public entries check theirs
        _, data = generate(GenConfig(n_nodes=6, arc_ratio=1.5, rows_per_group=150, seed=0))
        checked = []
        original = data_module.check_indices

        def spy(families, n_variables):
            checked.append(n_variables)
            return original(families, n_variables)

        monkeypatch.setattr(data_module, "check_indices", spy)
        monkeypatch.setattr(scores, "check_indices", spy)
        config = ScoreConfig("bdeu")
        result = run_hill_climb(data, config, start=Dag(6, frozenset({(5, 0)})))
        assert len(result.trace) > 2 and not checked
        scores.local_log_scores(data, [(0, (1, 2)), (3, ())], config)
        assert len(checked) == 1
        total_log_score(result.dag, data, config)
        assert len(checked) == 2
        data_module.family_counts(data, 0, (2, 3))
        assert len(checked) == 3


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

    @pytest.mark.parametrize("field, value", [
        ("max_parents", 0.5), ("max_parents", 1.0), ("max_parents", True),
        ("max_parents", "2"), ("max_iterations", 2.5), ("max_iterations", True),
        ("max_iterations", float("inf"))])
    def test_non_integer_caps_rejected(self, field, value):
        # a fractional cap would be compared as a number (0.5 allows one
        # parent) and True would act as 1, so neither may pass for a count
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})

    def test_numpy_integer_caps_accepted(self, tmp_path):
        config = SearchConfig(max_parents=np.int64(0), max_iterations=np.int32(3))
        result = run_hill_climb(deterministic_copy(tmp_path), ScoreConfig("bdeu"), config)
        assert result.dag.arcs == frozenset()

    def test_trace_starts_at_empty_graph_score(self, tmp_path):
        data = deterministic_copy(tmp_path)
        config = ScoreConfig("bdeu")
        result = run_hill_climb(data, config)
        assert result.trace[0] == pytest.approx(
            total_log_score(Dag(2), data, config), abs=1e-12)
        assert result.trace[-1] == result.score


def replay_climb(data, config, max_parents=None, start=None, cap=None):
    """The greedy rule with cold scoring: from the start graph, apply the
    first move in neighbourhood order whose folded total is strictly the
    highest, until none improves or ``cap`` moves are applied."""
    dag = start if start is not None else Dag(data.n_variables)
    totals = [total_log_score(dag, data, config)]
    while cap is None or len(totals) <= cap:
        best, best_total = None, totals[-1]
        for move in neighbourhood(dag, max_parents):
            candidate = total_log_score(apply_move(dag, move), data, config)
            if candidate > best_total:
                best, best_total = move, candidate
        if best is None:
            break
        dag = apply_move(dag, best)
        totals.append(best_total)
    return dag, totals


class TestGreedyReplay:
    @pytest.mark.parametrize("kind, gen, max_parents, with_start", [
        ("bdeu", dict(n_nodes=6, arc_ratio=1.5, rows_per_group=150, seed=0), None, False),
        ("bdeu", dict(n_nodes=5, card=3, rows_per_group=60, seed=8), None, False),
        ("bic", dict(n_nodes=6, arc_ratio=1.5, rows_per_group=200, seed=4), None, False),
        ("bhd", dict(n_nodes=3, n_groups=3, rows_per_group=40, seed=5), None, False),
        ("bdeu", dict(n_nodes=6, arc_ratio=2.0, rows_per_group=200, seed=6), 1, False),
        ("bdeu", dict(n_nodes=6, arc_ratio=1.5, rows_per_group=150, seed=1), None, True),
        ("bdeu", dict(n_nodes=12, arc_ratio=1.5, rows_per_group=150, seed=3), 2, False),
        ("bic", dict(n_nodes=7, arc_ratio=1.5, rows_per_group=200, seed=9), None, "random"),
    ])
    def test_climb_matches_cold_replay(self, kind, gen, max_parents, with_start):
        truth, data = generate(GenConfig(**gen))
        config = ScoreConfig(kind)
        if with_start == "random":
            start = random_dag_uniform_pairs(data.n_variables, np.random.default_rng(gen["seed"]))
        else:  # the reversed true graph starts the climb far from the optimum
            start = (Dag(data.n_variables, frozenset((v, u) for u, v in truth.master.arcs))
                     if with_start else None)
        result = run_hill_climb(data, config, SearchConfig(max_parents=max_parents),
                                start=start)
        dag, totals = replay_climb(data, config, max_parents, start)
        assert len(totals) > 2
        assert list(result.trace) == totals
        assert result.dag == dag
        assert result.score == totals[-1]
        # a climb capped at every move count stops where the replay does
        for cap in range(1, len(totals)):
            capped = run_hill_climb(data, config, SearchConfig(max_parents, cap), start=start)
            dag, prefix = replay_climb(data, config, max_parents, start, cap)
            assert prefix == totals[:cap + 1]
            assert list(capped.trace) == prefix
            assert capped.dag == dag
            assert capped.score == totals[cap]

    def test_screen_keeps_near_ties_exact(self, monkeypatch):
        """Locals of mixed magnitude, where a move's score change and its
        folded total disagree. Node order folds 1e16, then the locals of
        nodes 1 and 2 (which -7.5e15 brings back to 2.5e15), then node 3: a
        change of node 0 or 1 rounds to a multiple of 2, one of node 3 to a
        multiple of 0.5. So adding 0->1 (+3.9) and 1->0 (+4 after rounding)
        both gain exactly 4, and the first must win; +0.9 on node 1 gains
        nothing where +0.6 on node 3 gains 0.5."""
        base = (1e16, 0.0, -7.5e15, 0.0)
        weight = {(0, 1): 3.9, (1, 0): 4.2, (1, 2): 2.6, (2, 1): 0.9, (1, 3): 0.6,
                  (0, 3): 1.7}

        def stub(data, child, parents, config, cache=None):
            value = base[child]
            for p in sorted(parents):
                value += weight.get((p, child), -0.25)
            return value

        def stub_batch(data, families, config, cache=None):
            return [stub(data, child, parents, config) for child, parents in families]

        # every local, one family or a batch, goes through local_log_scores or
        # the climb's unchecked core under it
        monkeypatch.setattr(search, "_local_log_scores", stub_batch)
        monkeypatch.setattr(scores, "local_log_scores", stub_batch)
        data, config = SimpleNamespace(n_variables=4), ScoreConfig("bdeu")
        empty = Dag(4)
        total = total_log_score(empty, data, config)
        moves = neighbourhood(empty)
        delta = {m: sum(stub(data, w, apply_move(empty, m).parents(w), config)
                        - stub(data, w, (), config) for w in m[1:]) for m in moves}
        folded = {m: total_log_score(apply_move(empty, m), data, config) for m in moves}
        # score changes that rank moves against their folded totals
        assert any(delta[a] > delta[b] and folded[a] < folded[b] for a in moves for b in moves)
        # an exact tie for the best total, whose winner has not the largest change
        best = max(folded.values())
        tied = [m for m in moves if folded[m] == best]
        assert len(tied) > 1 and max(delta[m] for m in tied) > delta[tied[0]]
        # a positive change that folds to no gain, which must not be applied
        assert any(delta[m] > 0 and folded[m] == total for m in moves)

        result = run_hill_climb(data, config)
        dag, totals = replay_climb(data, config)
        assert len(totals) > 2
        assert list(result.trace) == totals
        assert result.dag == dag
        assert result.score == totals[-1]

    def test_non_finite_locals_fold_exactly(self, monkeypatch):
        """Families scoring +inf, -inf or NaN: node 2 with parent 1 alone
        scores NaN, any family with an arc against the order 0, 1, 2 scores
        -inf, and node 2 with parents {0, 1} scores +inf. Once the total is
        +inf, reversing 0->1 leaves node 0 at -inf and folds to NaN. No NaN
        or -inf total is chosen, and no move beats +inf."""
        base = (-10.0, -12.0, -20.0)
        weight = {(0, 1): 3.0, (0, 2): 1.0, (1, 2): np.nan,
                  (1, 0): -np.inf, (2, 0): -np.inf, (2, 1): -np.inf}

        def stub(data, child, parents, config, cache=None):
            parents = tuple(sorted(parents))
            if (child, parents) == (2, (0, 1)):
                return np.inf
            value = base[child]
            for p in parents:
                value += weight[p, child]
            return value

        def stub_batch(data, families, config, cache=None):
            return [stub(data, child, parents, config) for child, parents in families]

        monkeypatch.setattr(search, "_local_log_scores", stub_batch)
        monkeypatch.setattr(scores, "local_log_scores", stub_batch)
        data, config = SimpleNamespace(n_variables=3), ScoreConfig("bdeu")
        dag, totals = replay_climb(data, config)
        assert totals == [-42.0, -39.0, -38.0, np.inf]
        assert dag.arcs == {(0, 1), (0, 2), (1, 2)}
        # the start has a NaN local among its neighbours, the end an inf + -inf
        for step in (Dag(3), dag):
            folded = [total_log_score(apply_move(step, move), data, config)
                      for move in neighbourhood(step)]
            assert np.isnan(folded).any() and -np.inf in folded

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # float addition warns of nothing
            result = run_hill_climb(data, config)
        assert list(result.trace) == totals
        assert result.dag == dag
        assert result.score == totals[-1]


def small_replicates():
    """Fixed N4 and N5 replicates of K2 and K3 cells, iid and hierarchical."""
    cells = [dict(n_nodes=4, card=2, n_groups=3, rows_per_group=40, regime="hier", seed=1),
             dict(n_nodes=4, card=3, n_groups=2, rows_per_group=60, regime="iid", seed=2),
             dict(n_nodes=5, card=2, n_groups=5, rows_per_group=30, regime="hier", seed=3),
             dict(n_nodes=5, card=2, n_groups=2, rows_per_group=200, arc_ratio=1.5, seed=4),
             dict(n_nodes=5, card=3, n_groups=3, rows_per_group=25, regime="hier", seed=5),
             dict(n_nodes=5, card=2, n_groups=10, rows_per_group=10, regime="hier", seed=6)]
    return [generate(GenConfig(**cell))[1] for cell in cells]


class TestExactOptimum:
    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    def test_matches_brute_force_over_every_four_node_dag(self, kind):
        config = ScoreConfig(kind)
        dags = all_dags(4)
        for seed in range(2):
            _, data = generate(GenConfig(n_nodes=4, card=2, n_groups=3, rows_per_group=30,
                                         regime="hier", seed=seed))
            cache = LocalScoreCache()
            best = max(total_log_score(dag, data, config, cache) for dag in dags)
            dag, score = exact_optimum(data, config)
            assert score == pytest.approx(best, rel=1e-12, abs=1e-9)
            assert score == total_log_score(dag, data, config, cache)

    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    def test_no_climb_scores_above_the_optimum(self, kind):
        config = ScoreConfig(kind)
        reached = 0
        for data in small_replicates():
            _, optimum = exact_optimum(data, config)
            result = run_hill_climb(data, config, cache=LocalScoreCache())
            assert result.score <= optimum + 1e-9 * abs(optimum)
            reached += result.score >= optimum - 1e-9 * abs(optimum)
        assert reached > 0
