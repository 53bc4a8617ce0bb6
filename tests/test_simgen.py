"""Synthetic ground truth: structures, parameter regimes, ancestral sampling."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from hierbn.graph import is_acyclic
from hierbn.simgen import (GenConfig, derive_rng, generate, perturb_structures,
                           random_dag, sample_data, sample_params)

from oracles import sample_data_oracle


class TestGenConfig:
    def test_scenario_a_forbids_perturbation(self):
        with pytest.raises(ValueError):
            GenConfig(n_nodes=5, scenario="a", n_perturbed=1, n_removed=1)

    def test_scenario_b_requires_perturbation(self):
        with pytest.raises(ValueError):
            GenConfig(n_nodes=5, scenario="b", n_perturbed=0, n_removed=1)
        with pytest.raises(ValueError):
            GenConfig(n_nodes=5, scenario="b", n_perturbed=3, n_removed=1,
                      n_groups=2)

    @pytest.mark.parametrize("n_nodes, arc_ratio", [(3, 0.34), (5, 1.0), (6, 1.5)])
    def test_scenario_b_removes_at_most_every_placed_arc(self, n_nodes, arc_ratio):
        # random_dag places round(arc_ratio * n_nodes) arcs: the one perturbed
        # group may lose them all, and no more
        n_arcs = round(arc_ratio * n_nodes)
        cell = dict(n_nodes=n_nodes, arc_ratio=arc_ratio, scenario="b", n_perturbed=1,
                    rows_per_group=5)
        truth, _ = generate(GenConfig(**cell, n_removed=n_arcs))
        assert [dag.arc_count for dag in truth.group_dags] in ([0, n_arcs], [n_arcs, 0])
        with pytest.raises(ValueError, match=f"1 <= n_removed <= {n_arcs}"):
            GenConfig(**cell, n_removed=n_arcs + 1)

    @pytest.mark.parametrize("field", ["n_nodes", "card", "n_groups", "rows_per_group",
                                       "n_perturbed", "n_removed", "seed"])
    @pytest.mark.parametrize("value", [5.0, 5.5, True, "5"])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GenConfig(**{"n_nodes": 5, field: value})

    @pytest.mark.parametrize("field, least", [("n_nodes", 2), ("card", 2), ("n_groups", 1),
                                              ("rows_per_group", 1), ("n_perturbed", 0),
                                              ("n_removed", 0), ("seed", 0)])
    def test_counts_and_seed_below_their_least_value_rejected(self, field, least):
        with pytest.raises(ValueError, match=f"{field} must be at least {least}"):
            GenConfig(**{"n_nodes": 5, field: least - 1})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("nan"), -1.0,
                                       -0.01])
    def test_arc_ratio_not_finite_or_negative_rejected(self, value):
        with pytest.raises(ValueError, match="arc_ratio must be finite and at least 0"):
            GenConfig(n_nodes=5, arc_ratio=value)

    def test_numpy_integers_accepted_numpy_floats_refused(self):
        config = GenConfig(n_nodes=np.int64(5), card=np.int32(3), n_groups=np.uint8(2),
                           rows_per_group=np.int64(20), seed=np.uint64(2 ** 63))
        assert generate(config)[1].n_rows == 40
        with pytest.raises(ValueError, match="rows_per_group must be an integer"):
            GenConfig(n_nodes=5, rows_per_group=np.float64(20))

    def test_unknown_regime_or_scenario(self):
        with pytest.raises(ValueError):
            GenConfig(n_nodes=5, regime="mixed")
        with pytest.raises(ValueError):
            GenConfig(n_nodes=5, scenario="c")


class TestRandomDag:
    def test_arc_counts_follow_ratio(self):
        rng = np.random.default_rng(0)
        assert random_dag(5, 1.0, rng).arc_count == 5
        assert random_dag(5, 1.2, rng).arc_count == 6
        assert random_dag(5, 1.5, rng).arc_count == 8
        assert random_dag(10, 1.0, rng).arc_count == 10

    def test_always_acyclic(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            dag = random_dag(6, 1.5, rng)
            assert is_acyclic(dag.node_count, dag.arcs)

    def test_infeasible_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_dag(3, 3.0, rng)  # 9 arcs > 3 possible

    def test_structures_vary_across_draws(self):
        rng = np.random.default_rng(1)
        assert len({random_dag(6, 1.0, rng).arcs for _ in range(20)}) > 1


class TestPerturbStructures:
    def master(self):
        rng = np.random.default_rng(10)
        return random_dag(6, 1.0, rng)

    def test_no_perturbation_keeps_master(self):
        rng = np.random.default_rng(2)
        dags = perturb_structures(self.master(), 4, 0, 0, rng)
        assert all(d == self.master() for d in dags)

    def test_one_group_loses_one_arc(self):
        master = self.master()
        rng = np.random.default_rng(3)
        dags = perturb_structures(master, 5, 1, 1, rng)
        changed = [d for d in dags if d != master]
        assert len(changed) == 1
        assert changed[0].arc_count == master.arc_count - 1
        assert changed[0].arcs < master.arcs

    def test_removed_arcs_subset_of_master(self):
        master = self.master()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            for dag in perturb_structures(master, 5, 2, 2, rng):
                assert dag.arcs <= master.arcs

    def test_infeasible_removal_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            perturb_structures(self.master(), 3, 1, 99, rng)


class TestSampleParams:
    def test_id_regime_shares_one_table(self):
        rng = np.random.default_rng(5)
        dag = random_dag(4, 1.0, rng)
        params = sample_params(dag, 2, "id", 4, np.random.default_rng(6))
        for node in range(4):
            first = params[0][node]
            for f in range(1, 4):
                assert np.array_equal(params[f][node], first)

    def test_conditionals_normalized(self):
        rng = np.random.default_rng(7)
        dag = random_dag(5, 1.2, rng)
        for regime in ("hier", "iid", "id"):
            params = sample_params(dag, 3, regime, 3, np.random.default_rng(8))
            for group in params:
                for table in group:
                    assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)
                    assert np.all(table > 0)

    def test_hier_groups_disperse_less_than_iid(self):
        # shared-centre draws concentrate the groups; independent draws do
        # not. Monte-Carlo estimate of across-group variance of one cell.
        dag = random_dag(2, 0.5, np.random.default_rng(9))
        assert dag.arc_count == 1

        def dispersion(regime, seed):
            out = []
            rng = np.random.default_rng(seed)
            for _ in range(3000):
                params = sample_params(dag, 2, regime, 4, rng)
                child = max(v for arc in dag.arcs for v in arc[1:])
                cell = np.array([params[f][child][0, 0] for f in range(4)])
                out.append(cell.var())
            return float(np.mean(out))

        assert dispersion("hier", 11) < 0.7 * dispersion("iid", 11)

    def test_hier_groups_exchangeable(self):
        # any group index has the same marginal law; compare means
        dag = random_dag(3, 1.0, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        sums = np.zeros(3)
        for _ in range(2000):
            params = sample_params(dag, 2, "hier", 3, rng)
            for f in range(3):
                sums[f] += params[f][0][0, 0]
        means = sums / 2000
        assert np.abs(means - means.mean()).max() < 0.02


class TestSampleData:
    def make_truth(self, seed=0, regime="hier", n_groups=3):
        config = GenConfig(n_nodes=4, card=2, arc_ratio=1.0, n_groups=n_groups,
                           rows_per_group=50, regime=regime, seed=seed)
        truth, _ = generate(config)
        return truth

    def test_row_counts(self):
        truth = self.make_truth()
        data = sample_data(truth, 37, np.random.default_rng(1))
        assert data.n_groups == 3
        assert all(rows.shape[0] == 37 for rows in data.group_rows)

    def test_law_of_large_numbers_on_roots(self):
        truth = self.make_truth(seed=5)
        data = sample_data(truth, 100000, np.random.default_rng(2))
        roots = [v for v in range(4) if not truth.master.parents(v)]
        assert roots
        for f in range(3):
            rows = data.group_rows[f]
            for v in roots:
                freq = np.bincount(rows[:, v], minlength=2) / rows.shape[0]
                want = truth.group_params[f][v][0]
                assert np.abs(freq - want).max() < 0.01

    @pytest.mark.parametrize("regime", ["hier", "iid", "id"])
    @pytest.mark.parametrize("scenario", ["a", "b"])
    def test_rows_equal_the_reference_sampler(self, regime, scenario):
        # scenario b perturbs 2 of the 3 groups' structures, removing 2 arcs
        extra = {"n_perturbed": 2, "n_removed": 2} if scenario == "b" else {}
        for card, seed in itertools.product((2, 3, 5), range(3)):
            config = GenConfig(n_nodes=6, card=card, arc_ratio=1.5, n_groups=3,
                               rows_per_group=200, regime=regime, scenario=scenario, seed=seed,
                               **extra)
            truth, data = generate(config)
            if scenario == "b":
                assert any(dag != truth.master for dag in truth.group_dags)
            reference = sample_data_oracle(truth, 200, derive_rng(seed, 3))
            assert data.variables == reference.variables and data.groups == reference.groups
            for rows, expected in zip(data.group_rows, reference.group_rows, strict=True):
                np.testing.assert_array_equal(rows, expected)

    @pytest.mark.parametrize("card", [2, 3, 5])
    def test_rows_past_every_cumulative_take_the_last_level(self, card):
        # tables whose rows sum to 0.5: about half the uniforms exceed every
        # cumulative probability of their row, and the level is clipped to K-1
        config = GenConfig(n_nodes=6, card=card, arc_ratio=1.5, n_groups=2, rows_per_group=400,
                           regime="iid", seed=card)
        truth, _ = generate(config)
        halved = replace(truth, group_params=tuple(tuple(0.5 * table for table in tables)
                                                   for tables in truth.group_params))
        data = sample_data(halved, 400, derive_rng(card, 3))
        reference = sample_data_oracle(halved, 400, derive_rng(card, 3))
        for rows, expected in zip(data.group_rows, reference.group_rows, strict=True):
            np.testing.assert_array_equal(rows, expected)
            assert (rows == card - 1).mean() > 0.5
            assert rows.max() == card - 1

    def test_groups_and_levels_named(self):
        truth = self.make_truth()
        data = sample_data(truth, 10, np.random.default_rng(3))
        assert data.groups == ("g01", "g02", "g03")
        assert all(v.name.startswith("X") for v in data.variables)


class TestGenerate:
    def test_bit_identical_for_same_seed(self):
        config = GenConfig(n_nodes=5, card=2, n_groups=3, rows_per_group=40,
                           regime="hier", seed=99)
        t1, d1 = generate(config)
        t2, d2 = generate(config)
        assert t1.master == t2.master
        assert t1.group_dags == t2.group_dags
        for a, b in zip(d1.group_rows, d2.group_rows):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        base = dict(n_nodes=5, card=2, n_groups=3, rows_per_group=40, regime="hier")
        _, d1 = generate(GenConfig(seed=1, **base))
        _, d2 = generate(GenConfig(seed=2, **base))
        assert any(not np.array_equal(a, b)
                   for a, b in zip(d1.group_rows, d2.group_rows))

    def test_scenario_a_group_dags_equal_master(self):
        config = GenConfig(n_nodes=5, n_groups=4, rows_per_group=20, seed=3)
        truth, _ = generate(config)
        assert all(d == truth.master for d in truth.group_dags)

    def test_scenario_b_counts_perturbed_groups(self):
        config = GenConfig(n_nodes=5, n_groups=4, rows_per_group=20, seed=4,
                           scenario="b", n_perturbed=2, n_removed=1)
        truth, _ = generate(config)
        changed = [d for d in truth.group_dags if d != truth.master]
        assert len(changed) == 2
        assert all(d.arc_count == truth.master.arc_count - 1 for d in changed)

    def test_seed_tree_isolates_stages(self):
        # same structure seed path: scenario change must not disturb the
        # master DAG draw
        a = GenConfig(n_nodes=5, n_groups=4, rows_per_group=20, seed=7)
        b = GenConfig(n_nodes=5, n_groups=4, rows_per_group=20, seed=7,
                      scenario="b", n_perturbed=1, n_removed=1)
        ta, _ = generate(a)
        tb, _ = generate(b)
        assert ta.master == tb.master

    def test_derive_rng_stable(self):
        a = derive_rng(42, 1, 2).integers(0, 1 << 30, size=4)
        b = derive_rng(42, 1, 2).integers(0, 1 << 30, size=4)
        c = derive_rng(42, 1, 3).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
