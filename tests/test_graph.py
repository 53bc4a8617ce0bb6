"""DAG mechanics, equivalence-class representatives, and structural distance."""

import itertools

import networkx as nx
import numpy as np
import pytest

from hierbn.graph import (Cpdag, CycleError, Dag, arc_confusion, dag_from_dot,
                          dag_from_json, dag_to_dot, dag_to_json, is_acyclic,
                          shd, to_cpdag)

from oracles import (cpdag_oracle, equivalence_classes, random_dag_uniform_pairs,
                     shd_oracle)


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag(3, frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Dag(2, frozenset({(0, 0)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dag(2, frozenset({(0, 5)}))

    @pytest.mark.parametrize("node_count, arcs", [
        (3, [(0.9, 1)]), (3, [("1", "2")]), (3, [(True, 2)]), (3, [(0, np.float64(1))]),
        (True, []), (-1, []), (2.0, []), ("2", [])],
        ids=["float-end", "str-ends", "bool-end", "numpy-float-end", "bool-count",
             "negative-count", "float-count", "str-count"])
    def test_index_that_is_not_an_integer_is_value_error(self, node_count, arcs):
        # the messages tell these from a cycle, which is a ValueError too
        with pytest.raises(ValueError, match="node_count|arc ends"):
            Dag(node_count, frozenset(arcs))

    def test_numpy_integer_indices_read_as_ints(self):
        dag = Dag(np.int64(3), frozenset({(np.int64(0), np.int32(2))}))
        assert dag.arcs == frozenset({(0, 2)})
        assert all(type(end) is int for arc in dag.arcs for end in arc)

    def test_immutability(self):
        dag = Dag(3, frozenset({(0, 1)}))
        grown = dag.with_arc(1, 2)
        assert dag.arcs == frozenset({(0, 1)})
        assert grown.arcs == frozenset({(0, 1), (1, 2)})

    def test_parents_children(self):
        dag = Dag(4, frozenset({(0, 2), (1, 2), (2, 3)}))
        assert dag.parents(2) == (0, 1)
        assert dag.children(2) == (3,)
        assert dag.parents(0) == ()

    def test_reverse(self):
        dag = Dag(3, frozenset({(0, 1), (1, 2)}))
        assert dag.with_reversed(1, 2).arcs == frozenset({(0, 1), (2, 1)})
        with pytest.raises(CycleError):
            Dag(3, frozenset({(0, 1), (0, 2), (2, 1)})).with_reversed(0, 1)

    def test_has_path(self):
        dag = Dag(4, frozenset({(0, 1), (1, 2)}))
        assert dag.has_path(0, 2)
        assert not dag.has_path(2, 0)
        assert not dag.has_path(0, 3)

    @pytest.mark.parametrize("call", [
        lambda d: d.parents(-1), lambda d: d.parents(3), lambda d: d.parents(1.0),
        lambda d: d.children(-3), lambda d: d.children(True), lambda d: d.children("0"),
        lambda d: d.has_path(-3, 2), lambda d: d.has_path(0, 5), lambda d: d.has_path(True, 2),
        lambda d: d.has_path(0, -1), lambda d: d.has_path(0, np.float64(2)),
        lambda d: d.has_path(np.int64(-1), 2)],
        ids=["parents-negative", "parents-past-end", "parents-float", "children-negative",
             "children-bool", "children-str", "path-negative-source", "path-past-end",
             "path-bool-source", "path-negative-target", "path-numpy-float",
             "path-numpy-negative"])
    def test_node_outside_the_graph_is_value_error(self, call):
        with pytest.raises(ValueError, match="node index"):
            call(Dag(3, frozenset({(0, 2)})))

    def test_numpy_integer_nodes_read_as_ints(self):
        dag = Dag(3, frozenset({(0, 2)}))
        assert dag.parents(np.int64(2)) == (0,)
        assert dag.children(np.int32(0)) == (2,)
        assert dag.has_path(np.int64(0), np.uint8(2)) and not dag.has_path(np.int64(2), 0)

    def test_topological_order(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dag = random_dag_uniform_pairs(6, rng)
            order = dag.topological_order()
            position = {node: i for i, node in enumerate(order)}
            assert sorted(order) == list(range(6))
            assert all(position[u] < position[v] for u, v in dag.arcs)

    def test_is_acyclic_matches_construction(self):
        rng = np.random.default_rng(3)
        accepted = 0
        for _ in range(200):
            arcs = {(int(rng.integers(0, 4)), int(rng.integers(0, 4))) for _ in range(4)}
            arcs = {(u, v) for u, v in arcs if u != v}
            ok = is_acyclic(4, arcs)
            try:
                Dag(4, frozenset(arcs))
                built = True
            except CycleError:
                built = False
            assert ok == built
            accepted += built
        assert 0 < accepted < 200


def oracle_dags():
    """Seeded random DAGs of 1-12 nodes along a random order, the empty and
    the complete order among them."""
    rng = np.random.default_rng(41)
    for n in range(1, 13):
        for p in (0.0, 0.2, 0.4, 0.4, 0.7, 1.0):
            dag = random_dag_uniform_pairs(n, rng, p)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(dag.arcs)
            yield dag, graph


class TestDagStructureMatchesNetworkx:
    def test_topological_order_is_lexicographic(self):
        for dag, graph in oracle_dags():
            assert dag.topological_order() == tuple(nx.lexicographical_topological_sort(graph))

    def test_has_path(self):
        for dag, graph in oracle_dags():
            for u, v in itertools.product(range(dag.node_count), repeat=2):
                assert dag.has_path(u, v) == nx.has_path(graph, u, v), (dag, u, v)

    def test_parents_and_children(self):
        for dag, graph in oracle_dags():
            for v in range(dag.node_count):
                assert dag.parents(v) == tuple(sorted(graph.predecessors(v)))
                assert dag.children(v) == tuple(sorted(graph.successors(v)))


class TestCpdag:
    def test_chain_is_fully_undirected(self):
        cp = to_cpdag(Dag(3, frozenset({(0, 1), (1, 2)})))
        assert cp.directed == frozenset()
        assert cp.undirected == frozenset({(0, 1), (1, 2)})

    def test_collider_stays_directed(self):
        cp = to_cpdag(Dag(3, frozenset({(0, 2), (1, 2)})))
        assert cp.directed == frozenset({(0, 2), (1, 2)})
        assert cp.undirected == frozenset()

    def test_exhaustive_against_class_enumeration(self):
        # oracle: a pair is compelled iff every class member orients it the
        # same way; classes enumerated over all DAGs of the size
        for n in (2, 3, 4):
            classes = equivalence_classes(n)
            for members in classes.values():
                for dag in members:
                    cp = to_cpdag(dag)
                    want_directed, want_undirected = cpdag_oracle(dag, classes)
                    assert cp.directed == want_directed
                    assert cp.undirected == want_undirected

    def test_class_members_share_representative(self):
        classes = equivalence_classes(4)
        for members in classes.values():
            reps = {(to_cpdag(d).directed, to_cpdag(d).undirected) for d in members}
            assert len(reps) == 1

    def test_random_larger_graphs_idempotent_statuses(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dag = random_dag_uniform_pairs(6, rng)
            cp = to_cpdag(dag)
            # reversing any undirected edge keeps us inside the class
            for u, v in dag.arcs:
                if cp.pair_status(u, v) != "und":
                    continue
                try:
                    other = dag.with_reversed(u, v)
                except CycleError:
                    continue
                cp2 = to_cpdag(other)
                if (cp2.directed, cp2.undirected) != (cp.directed, cp.undirected):
                    # only legal if the reversal changed the class signature
                    assert to_cpdag(other) != cp

    def test_disjoint_sets_enforced(self):
        with pytest.raises(ValueError):
            Cpdag(2, frozenset({(0, 1)}), frozenset({(0, 1)}))


class TestShd:
    def test_identical_graphs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dag = random_dag_uniform_pairs(5, rng)
            assert shd(dag, dag) == 0

    def test_single_edge_vs_empty(self):
        assert shd(Dag(3, frozenset({(0, 1)})), Dag(3)) == 1

    def test_collider_vs_single_arc(self):
        # truth 0->2<-1 against estimate 0->2: the estimate's class leaves
        # 0-2 undirected, so both the missing edge and the orientation differ
        estimate = Dag(3, frozenset({(0, 2)}))
        truth = Dag(3, frozenset({(0, 2), (1, 2)}))
        value = shd(estimate, truth)
        assert value == shd_oracle(to_cpdag(estimate), to_cpdag(truth))
        assert value == 2

    def test_matches_edit_oracle_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            a = random_dag_uniform_pairs(4, rng)
            b = random_dag_uniform_pairs(4, rng)
            assert shd(a, b) == shd_oracle(to_cpdag(a), to_cpdag(b))

    def test_metric_properties(self):
        rng = np.random.default_rng(13)
        graphs = [random_dag_uniform_pairs(5, rng) for _ in range(12)]
        for a, b in itertools.combinations(graphs, 2):
            assert shd(a, b) == shd(b, a)
            assert shd(a, b) >= 0
        for a, b, c in itertools.combinations(graphs, 3):
            assert shd(a, c) <= shd(a, b) + shd(b, c)

    def test_class_invariance(self):
        # members of one equivalence class are at distance zero
        classes = equivalence_classes(4)
        for members in classes.values():
            first = members[0]
            for other in members[1:]:
                assert shd(first, other) == 0


class TestArcConfusion:
    def test_skeleton_counts(self):
        estimate = Dag(3, frozenset({(0, 2)}))
        truth = Dag(3, frozenset({(0, 2), (1, 2)}))
        assert arc_confusion(estimate, truth) == (1, 0, 1)

    def test_graphs_of_different_sizes_rejected(self):
        with pytest.raises(ValueError, match="node set"):
            arc_confusion(Dag(3, frozenset({(0, 2)})), Dag(4, frozenset({(0, 2)})))

    def test_tp_plus_fn_is_truth_size(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            est = random_dag_uniform_pairs(5, rng)
            truth = random_dag_uniform_pairs(5, rng)
            tp, fp, fn = arc_confusion(est, truth)
            assert tp + fn == to_cpdag(truth).edge_count
            assert tp + fp == to_cpdag(est).edge_count


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dag = random_dag_uniform_pairs(5, rng)
            names = [f"n{i}" for i in range(5)]
            back, names_back = dag_from_json(dag_to_json(dag, names))
            assert back == dag
            assert names_back == names

    @pytest.mark.parametrize("text", ["[]", '"g"', '{"arcs": []}', '{"nodes": "ab", "arcs": []}',
                                      '{"nodes": ["a", "b"], "arcs": {"a": "b"}}',
                                      '{"nodes": ["a", "b"], "arcs": [["a"]]}',
                                      '{"nodes": ["a", "b"], "arcs": ["ab"]}',
                                      '{"nodes": ["A", 1], "arcs": []}',
                                      '{"nodes": [["A"], "B"], "arcs": []}',
                                      '{"nodes": ["a", "a"], "arcs": []}',
                                      '{"nodes": ["A", "B"], "arcs": [[["A"], "B"]]}',
                                      '{"nodes": ["A", "B"], "arcs": [["A", "C"]]}'])
    def test_json_of_the_wrong_shape_is_value_error(self, text):
        with pytest.raises(ValueError):
            dag_from_json(text)

    @pytest.mark.parametrize("write", [dag_to_json, dag_to_dot], ids=["json", "dot"])
    @pytest.mark.parametrize("names", [["a", "b"], ["a", "b", "a"], ["a", "b", "c", "d"],
                                       ["a", "b", 3]],
                             ids=["too-few", "repeated", "too-many", "not-a-string"])
    def test_names_a_reader_would_refuse_are_not_written(self, write, names):
        with pytest.raises(ValueError, match="node names"):
            write(Dag(3, frozenset({(0, 2)})), names)

    def test_dot_round_trip(self):
        dag = Dag(3, frozenset({(0, 1), (0, 2)}))
        back, names = dag_from_dot(dag_to_dot(dag, ["a", "b", "c"]))
        assert names == ["a", "b", "c"]
        assert back == dag

    @pytest.mark.parametrize("names", [["x->y", "a--b", "c"], ["-> c", "--", "a -- b -> c"]])
    def test_dot_round_trip_of_names_holding_arrows(self, names):
        dag = Dag(3, frozenset({(0, 1), (2, 1)}))
        back, names_back = dag_from_dot(dag_to_dot(dag, names))
        assert names_back == names
        assert back == dag

    @pytest.mark.parametrize("names", [['a"b', "a\\b", "c"], ['"', "\\", '\\"x\\\\"'],
                                       ['say "a -> b"', "c:\\dir\\", "a--\\"]],
                             ids=["quote-backslash", "bare-escapes", "mixed"])
    def test_dot_round_trip_of_names_holding_quotes_and_backslashes(self, names):
        dag = Dag(3, frozenset({(0, 1), (2, 1)}))
        text = dag_to_dot(dag, names)
        assert len(text.splitlines()) == 7
        back, names_back = dag_from_dot(text)
        assert names_back == names
        assert back == dag

    def test_dot_name_escapes_as_dot_writes_them(self):
        text = dag_to_dot(Dag(2, frozenset({(0, 1)})), ['a"b', "a\\b"])
        assert text == 'digraph g {\n  "a\\"b";\n  "a\\\\b";\n  "a\\"b" -> "a\\\\b";\n}\n'

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "\r\n"])
    def test_dot_name_holding_a_line_break_is_value_error(self, name):
        with pytest.raises(ValueError, match="line break"):
            dag_to_dot(Dag(2), ["x", name])

    @pytest.mark.parametrize("text, names", [
        ("a -> b;\nb -> c;", ["a", "b", "c"]),
        ('digraph g {\n  "x->y" -> b;\n  b->c\n}\n', ["x->y", "b", "c"])])
    def test_dot_arcs_alone_name_the_nodes_in_order(self, text, names):
        dag, names_back = dag_from_dot(text)
        assert names_back == names
        assert dag == Dag(3, frozenset({(0, 1), (1, 2)}))

    @pytest.mark.parametrize("text", ['"a";\n"a";', '"a";\n"b";\n"a" -> "c";',
                                      '"a" -- "b";', "a -- b;", '"a" "b";',
                                      '"a" -> "b" -> "c";'])
    def test_dot_of_the_wrong_shape_is_value_error(self, text):
        with pytest.raises(ValueError):
            dag_from_dot(text)
