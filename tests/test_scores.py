"""Classic local scores: hand-checked values, oracle agreement, invariances."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hierbn import hier
from hierbn import scores as scores_mod
from hierbn.data import (FamilyCounts, GroupedDataset, VariableMeta, _count_tables,
                         family_counts, load_csv)
from hierbn.graph import Dag
from hierbn.hier import HierPrior
from hierbn.scores import (LocalScoreCache, ScoreConfig, bd_local_log_score,
                           bd_local_log_scores, bdeu_local_log_score, bic_local_log_score,
                           bic_local_log_scores, classic_posterior_mean, fold_total, local_log_score,
                           local_log_scores, total_log_score)
from hierbn.search import run_hill_climb
from hierbn.simgen import GenConfig, generate

from oracles import (all_dags, bd_local_float_oracle, bd_local_oracle, bdeu_local_oracle,
                     class_signature, family_counts_oracle, fixed_point_fit_oracle)
from test_data import MIXED_SETS, mixed_dataset


def random_csv(tmp_path, rng, n_vars=3, n_groups=2, rows_per_group=20, card=2,
               name="r.csv"):
    header = "g," + ",".join(f"x{i}" for i in range(n_vars))
    lines = [header]
    for f in range(n_groups):
        for _ in range(rows_per_group):
            row = [f"g{f}"] + [f"v{rng.integers(0, card)}" for _ in range(n_vars)]
            lines.append(",".join(row))
    # guarantee every level appears so no variable is degenerate
    for k in range(card):
        lines.append(",".join(["g0"] + [f"v{k}"] * n_vars))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return load_csv(str(path), "g")


class TestBdLocal:
    def test_zero_counts_scores_zero(self):
        table = np.zeros((4, 3))
        alpha = np.full((4, 3), 0.7)
        assert bd_local_log_score(table, alpha) == 0.0

    def test_single_observation_hand_value(self):
        # Gamma(1)/Gamma(2) * Gamma(1.5)/Gamma(0.5) = 0.5
        value = bd_local_log_score(np.array([[1, 0]]), np.array([[0.5, 0.5]]))
        assert value == pytest.approx(math.log(0.5), abs=1e-12)

    def test_one_per_level_hand_value(self):
        # Gamma(1)/Gamma(3) * (Gamma(1.5)/Gamma(0.5))^2 = 0.125
        value = bd_local_log_score(np.array([[1, 1]]), np.array([[0.5, 0.5]]))
        assert value == pytest.approx(math.log(0.125), abs=1e-12)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            bd_local_log_score(np.ones((1, 2)), np.array([[0.5, 0.0]]))
        with pytest.raises(ValueError):
            bd_local_log_score(np.ones((1, 2)), np.array([[0.5, -1.0]]))

    def test_nan_alpha_rejected(self):
        alpha = np.array([[0.5, np.nan]])
        with pytest.raises(ValueError, match="strictly positive"):
            bd_local_log_scores(np.ones((3, 1, 2)), alpha)
        with pytest.raises(ValueError, match="strictly positive"):
            classic_posterior_mean(np.ones((1, 2)), alpha)

    def test_infinite_alpha_rejected(self):
        # an infinite pseudo-count gave a NaN score with a RuntimeWarning
        table, alpha = np.array([[3, 1], [0, 2]]), np.array([[np.inf, 1.0], [1.0, 1.0]])
        for call in (lambda: bd_local_log_score(table, alpha),
                     lambda: bd_local_log_scores(table[None], alpha),
                     lambda: bd_local_log_scores(table[None], alpha[None]),
                     lambda: classic_posterior_mean(table, alpha)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="alpha must be strictly positive and finite"):
                    call()

    def test_alpha_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bd_local_log_score(np.ones((2, 2)), np.ones((1, 2)))

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            j = int(rng.integers(1, 5))
            k = int(rng.integers(2, 5))
            table = rng.integers(0, 30, size=(j, k))
            alpha = rng.uniform(0.05, 4.0, size=(j, k))
            got = bd_local_log_score(table, alpha)
            want = float(bd_local_oracle(table.tolist(), alpha.tolist()))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_telescoping_one_observation(self):
        # adding one count in cell (j,k) changes the log-score by
        # ln((alpha_jk + n_jk) / (alpha_j + n_j)) taken before the update
        rng = np.random.default_rng(7)
        for _ in range(40):
            table = rng.integers(0, 10, size=(3, 3)).astype(float)
            alpha = rng.uniform(0.1, 2.0, size=(3, 3))
            j, k = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            before = bd_local_log_score(table, alpha)
            step = math.log((alpha[j, k] + table[j, k])
                            / (alpha[j].sum() + table[j].sum()))
            table[j, k] += 1
            after = bd_local_log_score(table, alpha)
            assert after - before == pytest.approx(step, rel=1e-10, abs=1e-10)


class TestBdeu:
    def test_single_observation(self):
        assert bdeu_local_log_score(np.array([[1, 0]]), 1.0) == pytest.approx(
            math.log(0.5), abs=1e-12)

    def test_zero_data(self):
        assert bdeu_local_log_score(np.zeros((2, 2)), 1.0) == 0.0

    def test_invalid_iss(self):
        with pytest.raises(ValueError):
            bdeu_local_log_score(np.ones((1, 2)), 0.0)
        # an infinite s gives every cell an infinite pseudo-count: a NaN score
        with pytest.raises(ValueError, match="positive and finite"):
            bdeu_local_log_score(np.ones((1, 2)), float("inf"))
        with pytest.raises(ValueError, match="iss must be a number, got True"):
            bdeu_local_log_score(np.ones((1, 2)), True)

    def test_matches_oracle(self):
        rng = np.random.default_rng(8)
        for s in (0.5, 1.0, 10.0):
            table = rng.integers(0, 25, size=(4, 3))
            got = bdeu_local_log_score(table, s)
            want = float(bdeu_local_oracle(table.tolist(), s))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_two_variable_score_equivalence(self, tmp_path):
        rng = np.random.default_rng(3)
        data = random_csv(tmp_path, rng, n_vars=2)
        config = ScoreConfig("bdeu", iss=1.0)
        fwd = total_log_score(Dag(2, frozenset({(0, 1)})), data, config)
        rev = total_log_score(Dag(2, frozenset({(1, 0)})), data, config)
        assert fwd == pytest.approx(rev, abs=1e-9)

    def test_three_node_equivalence_classes(self, tmp_path):
        # every Markov-equivalent pair must score identically
        rng = np.random.default_rng(5)
        data = random_csv(tmp_path, rng, n_vars=3, rows_per_group=40)
        config = ScoreConfig("bdeu", iss=1.0)
        by_class = {}
        for dag in all_dags(3):
            sig = class_signature(dag)
            by_class.setdefault(sig, []).append(total_log_score(dag, data, config))
        assert len(by_class) > 1
        for values in by_class.values():
            assert max(values) - min(values) <= 1e-9

    def test_group_partition_invariance(self, tmp_path):
        # pooled scores cannot depend on how rows are split into groups
        rng = np.random.default_rng(6)
        rows = [(f"v{rng.integers(0, 2)}", f"v{rng.integers(0, 3)}") for _ in range(50)]
        rows += [("v0", "v0"), ("v1", "v1"), ("v0", "v2")]
        grouped = "g,a,b\n" + "\n".join(
            f"g{i % 4},{a},{b}" for i, (a, b) in enumerate(rows)) + "\n"
        merged = "g,a,b\n" + "\n".join(f"g0,{a},{b}" for a, b in rows) + "\n"
        p1 = tmp_path / "grouped.csv"
        p2 = tmp_path / "merged.csv"
        p1.write_text(grouped)
        p2.write_text(merged)
        d1 = load_csv(str(p1), "g")
        d2 = load_csv(str(p2), "g")
        dag = Dag(2, frozenset({(0, 1)}))
        for config in (ScoreConfig("bdeu"), ScoreConfig("bic")):
            assert total_log_score(dag, d1, config) == total_log_score(dag, d2, config)


class TestBic:
    def test_zero_data(self):
        assert bic_local_log_score(np.zeros((1, 2))) == 0.0

    def test_balanced_counts_hand_value(self):
        # 10 ln(1/2) - (ln 10)/2
        value = bic_local_log_score(np.array([[5, 5]]))
        assert value == pytest.approx(-8.0827643521, abs=1e-9)

    def test_deterministic_child_penalty_only(self):
        value = bic_local_log_score(np.array([[10, 0]]))
        assert value == pytest.approx(-1.1512925465, abs=1e-9)

    def test_zero_config_rows_ignored(self):
        dense = bic_local_log_score(np.array([[5, 5], [0, 0]]))
        # extra empty parent config still costs a parameter block
        assert dense == pytest.approx(10 * math.log(0.5) - math.log(10), abs=1e-10)

    def test_penalty_scales_with_parameters(self):
        table = np.array([[4, 4, 4]])
        got = bic_local_log_score(table)
        ll = 12 * math.log(1 / 3)
        assert got == pytest.approx(ll - 0.5 * math.log(12) * 2, abs=1e-10)

    def test_stack_equals_each_table_and_the_sum_over_non_empty_cells(self):
        # each table of a stack scores its lone bits, and its likelihood is
        # the exact sum over its non-empty cells to float precision
        rng = np.random.default_rng(97)
        for i in range(60):
            b, j, k = int(rng.integers(1, 7)), int(rng.integers(1, 10)), int(rng.integers(2, 6))
            tables = rng.integers(0, int(rng.choice([3, 40, 5000])), size=(b, j, k))
            tables *= rng.random(tables.shape) < 0.6
            tables[rng.random(b) < 0.2] = 0
            got = bic_local_log_scores(tables).tolist()
            assert got == [bic_local_log_score(table) for table in tables]
            for table, value in zip(tables, got):
                n = int(table.sum())
                if n == 0:
                    assert value == 0.0
                    continue
                ll = math.fsum(c * math.log(c / sum(row)) for row in table.tolist()
                               for c in row if c)
                want = ll - 0.5 * math.log(n) * j * (k - 1)
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_stack_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="stack of count tables"):
            bic_local_log_scores(np.ones((2, 3), int))


class TestPosteriorMean:
    def test_prior_mean_without_data(self):
        mean = classic_posterior_mean(np.zeros((2, 3)), np.full((2, 3), 0.4))
        assert np.allclose(mean, 1 / 3)

    def test_hand_value(self):
        mean = classic_posterior_mean(np.array([[1, 0]]), np.array([[0.5, 0.5]]))
        assert np.allclose(mean, [[0.75, 0.25]])

    def test_rows_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = rng.integers(0, 20, size=(3, 4))
            alpha = rng.uniform(0.1, 3.0, size=(3, 4))
            mean = classic_posterior_mean(table, alpha)
            assert np.allclose(mean.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(mean > 0)


class TestTotalScore:
    def test_empty_dag_is_sum_of_orphan_locals(self, tmp_path):
        rng = np.random.default_rng(19)
        data = random_csv(tmp_path, rng)
        config = ScoreConfig("bdeu")
        want = fold_total(local_log_score(data, i, (), config) for i in range(3))
        assert total_log_score(Dag(3), data, config) == want

    def test_fold_is_left_to_right_from_zero(self):
        # a compensated sum (math.fsum, or sum() from Python 3.12) gives 1.0
        assert fold_total([1e16, 1.0, -1e16]) == 0.0
        assert fold_total([]) == 0.0
        assert fold_total(iter([0.1, 0.2, 0.3])) == (0.0 + 0.1 + 0.2) + 0.3
        # an (N, M) array folds each column as if that column were folded alone
        rng = np.random.default_rng(23)
        cols = rng.normal(size=(40, 50)) * 10.0 ** rng.integers(-3, 17, size=(40, 50))
        cols[:3, 0], cols[3:, 0] = [1e16, 1.0, -1e16], 0.0
        folded = fold_total(cols)
        alone = np.array([fold_total(col.tolist()) for col in cols.T])
        assert folded[0] == 0.0 and folded.tobytes() == alone.tobytes()
        # so does one column of N >= 9 rows, which np.add.reduce(axis=0) sums
        # pairwise: left to right each 1e-16 is lost to 1.0, summed pairwise
        # the 1e-16s are not
        col = np.array([[1.0]] + [[1e-16]] * 15)
        folded = fold_total(col)
        assert folded.tobytes() == np.array([fold_total(col[:, 0].tolist())]).tobytes()
        assert folded[0] == 1.0

    def test_decomposability(self, tmp_path):
        rng = np.random.default_rng(21)
        data = random_csv(tmp_path, rng)
        for config in (ScoreConfig("bdeu"), ScoreConfig("bic")):
            base = Dag(3, frozenset({(0, 1)}))
            grown = base.with_arc(0, 2)
            delta_total = (total_log_score(grown, data, config)
                           - total_log_score(base, data, config))
            delta_local = (local_log_score(data, 2, (0,), config)
                           - local_log_score(data, 2, (), config))
            assert delta_total == pytest.approx(delta_local, abs=1e-9)

    def test_node_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        data = random_csv(tmp_path, rng)
        with pytest.raises(ValueError):
            total_log_score(Dag(4), data, ScoreConfig("bdeu"))

    def test_cache_transparency(self, tmp_path):
        rng = np.random.default_rng(23)
        data = random_csv(tmp_path, rng)
        config = ScoreConfig("bdeu")
        dag = Dag(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        cache = LocalScoreCache()
        warm1 = total_log_score(dag, data, config, cache)
        warm2 = total_log_score(dag, data, config, cache)
        cold = total_log_score(dag, data, config)
        assert warm1 == warm2 == cold
        assert cache.hits == 3 and cache.misses == 3

    def test_cache_distinguishes_score_identity(self, tmp_path):
        rng = np.random.default_rng(29)
        data = random_csv(tmp_path, rng)
        cache = LocalScoreCache()
        dag = Dag(3, frozenset({(0, 1)}))
        a = total_log_score(dag, data, ScoreConfig("bdeu", iss=1.0), cache)
        b = total_log_score(dag, data, ScoreConfig("bdeu", iss=10.0), cache)
        c = total_log_score(dag, data, ScoreConfig("bic"), cache)
        assert len({a, b, c}) == 3
        assert cache.misses == 9

    def test_parent_order_irrelevant_to_cache_key(self, tmp_path):
        rng = np.random.default_rng(31)
        data = random_csv(tmp_path, rng)
        cache = LocalScoreCache()
        config = ScoreConfig("bdeu")
        a = local_log_score(data, 2, (0, 1), config, cache)
        b = local_log_score(data, 2, (1, 0), config, cache)
        assert a == b
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_bound_to_first_dataset(self):
        # the key holds no dataset, so a shared cache would hand the first
        # dataset's scores to the second
        _, first = generate(GenConfig(n_nodes=3, seed=1))
        _, second = generate(GenConfig(n_nodes=3, seed=2))
        config = ScoreConfig("bdeu")
        cache = LocalScoreCache()
        warm = local_log_score(first, 0, (), config, cache)
        assert local_log_score(first, 0, (), config, cache) == warm
        with pytest.raises(ValueError):
            local_log_score(second, 0, (), config, cache)
        assert local_log_score(second, 0, (), config) != warm


class TestScoreConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ScoreConfig("aic")

    def test_bad_iss(self):
        with pytest.raises(ValueError):
            ScoreConfig("bdeu", iss=-1.0)

    @pytest.mark.parametrize("kind", ["bdeu", "bic", "bhd"])
    def test_non_finite_iss_and_s0_rejected(self, kind):
        # an infinite iss or s0 would make every Dirichlet score NaN
        with pytest.raises(ValueError, match="iss must be positive and finite"):
            ScoreConfig(kind, iss=float("inf"))
        with pytest.raises(ValueError, match="s0 must be positive and finite"):
            ScoreConfig(kind, s0=float("inf"))
        # an int too large for a float is not finite either, and a bool is no number
        with pytest.raises(ValueError, match="iss must be positive and finite"):
            ScoreConfig(kind, iss=10 ** 400)
        with pytest.raises(ValueError, match="iss must be a number, got True"):
            ScoreConfig(kind, iss=True)
        with pytest.raises(ValueError, match="s0 must be a number, got True"):
            ScoreConfig(kind, s0=True)

    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    @pytest.mark.parametrize("settings", [{"vb_tol": 0.0}, {"vb_tol": -1e-6},
                                          {"vb_tol": float("nan")}, {"vb_max_iters": 0},
                                          {"vb_tol": float("inf")}, {"vb_tol": True},
                                          {"vb_tol": 10 ** 400}])
    def test_bad_vb_settings(self, kind, settings):
        # checked for every kind, so a setting no fit could use never passes silently
        with pytest.raises(ValueError, match="vb_"):
            ScoreConfig(kind, **settings)

    @pytest.mark.parametrize("kind", ["bdeu", "bhd"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", float("nan")])
    def test_non_integer_vb_max_iters_rejected(self, kind, value):
        # a float cap would enter the bhd cache key, and True would allow one step
        with pytest.raises(ValueError, match="vb_max_iters must be an integer"):
            ScoreConfig(kind, vb_max_iters=value)

    def test_numpy_integer_vb_max_iters_accepted(self):
        assert ScoreConfig("bhd", vb_max_iters=np.int64(20)).vb_max_iters == 20

    def test_cache_key_includes_vb_settings_only_for_bhd(self):
        a = ScoreConfig("bdeu", vb_tol=1e-6)
        b = ScoreConfig("bdeu", vb_tol=1e-3)
        assert a.cache_key() == b.cache_key()
        c = ScoreConfig("bhd", vb_tol=1e-6)
        d = ScoreConfig("bhd", vb_tol=1e-3)
        assert c.cache_key() != d.cache_key()

    def test_family_counts_accepted_by_scorers(self, tmp_path):
        rng = np.random.default_rng(37)
        data = random_csv(tmp_path, rng)
        counts = family_counts(data, 0, (1,))
        direct = bdeu_local_log_score(counts.pooled, 1.0)
        assert bdeu_local_log_score(counts, 1.0) == direct
        assert bic_local_log_score(counts) == bic_local_log_score(counts.pooled)


def local_oracle(data, child, parents, config):
    """One family's local score from row-by-row counts: bdeu by the
    one-table float kernel, bic by the package's penalty, bhd by
    ``oracles.fixed_point_fit_oracle``, which scores each observed configuration
    alone and folds their evidences in configuration order. The parents are
    taken in sorted order, the order the package scores in."""
    parents = tuple(sorted(parents))
    table = family_counts_oracle(data, child, parents)
    _, n_configs, child_card = table.shape
    if config.kind == "bdeu":
        alpha = np.full((n_configs, child_card), config.iss / (n_configs * child_card))
        return bd_local_float_oracle(table.sum(axis=0), alpha)
    cards = data.cardinalities()
    counts = FamilyCounts(child_card, tuple(cards[p] for p in parents), table)
    if config.kind == "bic":
        return bic_local_log_score(counts)
    prior = HierPrior.uniform((n_configs, child_card), s=config.iss, s0=config.s0)
    return fixed_point_fit_oracle(counts, prior, tol=config.vb_tol, max_iters=config.vb_max_iters)[1]


BATCH_CONFIGS = [ScoreConfig("bdeu"), ScoreConfig("bdeu", iss=7.5), ScoreConfig("bic"),
                 ScoreConfig("bhd"), ScoreConfig("bhd", iss=7.5)]


def cross_child_families():
    """Families of every child of ``mixed_dataset``, shuffled, then four
    repeated: children of equal cardinality give tables of equal shape."""
    families = []
    for child in range(5):
        others = [v for v in range(5) if v != child]
        families += ([(child, ())] + [(child, (u,)) for u in others]
                     + [(child, tuple(others[:2])), (child, tuple(others[:1:-1]))])
    order = np.random.default_rng(3).permutation(len(families))
    return [families[i] for i in order] + families[:4]


class TestBatchedScores:
    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_kernel_matches_one_table_formula(self, seed):
        rng = np.random.default_rng(seed)
        tables = rng.integers(0, 9, size=(6, 5, 3))
        tables[2] = 0
        shared = rng.uniform(0.05, 3.0, size=(5, 3))
        each = rng.uniform(0.05, 3.0, size=(6, 5, 3))
        for alpha, alphas in ((shared, [shared] * 6), (each, each)):
            got = bd_local_log_scores(tables, alpha).tolist()
            assert got == [bd_local_float_oracle(t, a) for t, a in zip(tables, alphas)]
            assert got == [bd_local_log_score(t, a) for t, a in zip(tables, alphas)]

    def test_stacked_kernel_rejects_bad_alpha(self):
        tables = np.ones((2, 3, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            bd_local_log_scores(tables, np.ones((3, 3)))
        with pytest.raises(ValueError):
            bd_local_log_scores(tables, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            bd_local_log_scores(tables[0], np.ones((3, 2)))

    @pytest.mark.parametrize("config", BATCH_CONFIGS, ids=lambda c: f"{c.kind}-{c.iss}")
    @pytest.mark.parametrize("seed", range(2))
    def test_batch_equals_cold_per_family_bitwise(self, config, seed):
        data = mixed_dataset(seed)
        batched = local_log_scores(data, [(2, parents) for parents in MIXED_SETS], config)
        assert batched == [local_log_score(data, 2, parents, config) for parents in MIXED_SETS]
        assert batched == [local_oracle(data, 2, parents, config) for parents in MIXED_SETS]
        assert all(type(value) is float for value in batched)

    @pytest.mark.parametrize("config", BATCH_CONFIGS[:3], ids=lambda c: f"{c.kind}-{c.iss}")
    def test_every_child_and_group_layout(self, config):
        for seed, sizes in enumerate([(40, 0, 25), (0, 30), (17,)]):
            data = mixed_dataset(seed, group_sizes=sizes)
            for child in range(data.n_variables):
                others = [v for v in range(data.n_variables) if v != child]
                sets = [()] + [(u,) for u in others] + [tuple(others[:2]), tuple(others[::-1])]
                assert (local_log_scores(data, [(child, parents) for parents in sets], config)
                        == [local_oracle(data, child, parents, config) for parents in sets])

    def test_cache_counts_as_the_per_family_path(self):
        data = mixed_dataset(1)
        config = ScoreConfig("bdeu", iss=7.5)
        # both orders of {1, 4} are scored as (1, 4), so either may be cached
        assert local_log_score(data, 2, (1, 4), config) == local_log_score(data, 2, (4, 1), config)
        requests = [MIXED_SETS + [(1, 4), (4, 1)], MIXED_SETS[::-1] + [(0, 3)], [(3, 0), (4,)]]
        batched, single, looked_up = LocalScoreCache(), LocalScoreCache(), LocalScoreCache()
        for sets in requests:
            got = local_log_scores(data, [(2, parents) for parents in sets], config, batched)
            want = [local_log_score(data, 2, parents, config, single) for parents in sets]
            for parents in sets:
                looked_up.get_or_compute((2, tuple(sorted(parents))) + config.cache_key(), float)
            assert got == want
            assert ((batched.hits, batched.misses) == (single.hits, single.misses)
                    == (looked_up.hits, looked_up.misses))
        assert batched._store.keys() == single._store.keys()
        assert batched.hits > 0

    @pytest.mark.parametrize("config", BATCH_CONFIGS, ids=lambda c: f"{c.kind}-{c.iss}")
    def test_families_of_several_children_equal_cold_per_family(self, config):
        data = mixed_dataset(2)
        families = cross_child_families()
        got = local_log_scores(data, families, config)
        assert got == [local_log_score(data, child, parents, config)
                       for child, parents in families]
        assert got == [local_oracle(data, child, parents, config) for child, parents in families]
        assert all(type(value) is float for value in got)

    @pytest.mark.parametrize("config", BATCH_CONFIGS[1::2], ids=lambda c: f"{c.kind}-{c.iss}")
    def test_cache_counts_across_children_as_the_per_family_path(self, config):
        data = mixed_dataset(1)
        families = cross_child_families()
        requests = [families[:20], families[10:] + [(2, (4, 1))], families[::3]]
        batched, single = LocalScoreCache(), LocalScoreCache()
        for request in requests:
            got = local_log_scores(data, request, config, batched)
            want = [local_log_score(data, child, parents, config, single)
                    for child, parents in request]
            assert got == want
            assert (batched.hits, batched.misses) == (single.hits, single.misses)
        assert batched._store.keys() == single._store.keys()
        assert batched.hits > 0

    @pytest.mark.parametrize("config", BATCH_CONFIGS[:3], ids=lambda c: f"{c.kind}-{c.iss}")
    def test_uncached_request_counts_a_repeated_family_once(self, monkeypatch, config):
        data = mixed_dataset(3)
        count_tables, counted = scores_mod._count_tables, []

        def spy(data, families):
            counted.extend(families)
            return count_tables(data, families)

        monkeypatch.setattr(scores_mod, "_count_tables", spy)
        families = [(2, (1, 4)), (0, ()), (2, (4, 1)), (2, (1, 4)), (0, ())]
        got = local_log_scores(data, families, config)
        assert counted == [(2, (1, 4)), (0, ())]
        assert got == [local_oracle(data, child, parents, config) for child, parents in families]

    def test_bhd_fits_equal_shapes_of_every_child_as_one_stack(self, monkeypatch):
        stacks = []
        fixed_point_fit = hier._fixed_point_fit

        def recording(n, a0, a, tol, max_iters, traces=None):
            stacks.append(n.shape)
            return fixed_point_fit(n, a0, a, tol, max_iters, traces)

        monkeypatch.setattr(hier, "_fixed_point_fit", recording)
        data = mixed_dataset(2)
        # v0 and v3 have 2 levels, v1 and v4 have 3: four (3, 2) tables,
        # whose observed configurations are fitted as one (P, F, K) stack
        families = [(0, (1,)), (3, (4,)), (2, ()), (0, (4,)), (3, (1,))]
        local_log_scores(data, families, ScoreConfig("bhd"))
        observed = sum(int((family_counts_oracle(data, child, parents).sum(axis=(0, 2)) > 0).sum())
                       for child, parents in families if child != 2)
        assert sorted(stacks) == [(1, 3, 4), (observed, 3, 2)]
        assert observed > 4

    @pytest.mark.parametrize("iss", [1.0, 7.5])
    def test_bdeu_scores_equal_shapes_of_every_child_in_one_call(self, monkeypatch, iss):
        config, stacks = ScoreConfig("bdeu", iss=iss), []
        kernel = scores_mod.bd_local_log_scores

        def recording(tables, alpha):
            stacks.append(tables.shape)
            return kernel(tables, alpha)

        monkeypatch.setattr(scores_mod, "bd_local_log_scores", recording)
        data = mixed_dataset(2)
        # v0 and v3 have 2 levels, v1 and v4 have 3: four (3, 2) tables
        families = [(0, (1,)), (3, (4,)), (2, ()), (0, (4,)), (3, (1,))]
        got = local_log_scores(data, families, config)
        assert sorted(stacks) == [(1, 1, 4), (4, 3, 2)]
        stacks.clear()
        assert got == [local_log_score(data, child, parents, config)
                       for child, parents in families]
        assert len(stacks) == len(families)
        assert got == [local_oracle(data, child, parents, config) for child, parents in families]

    def test_bic_scores_equal_shapes_of_every_child_in_one_call(self, monkeypatch):
        config, stacks = ScoreConfig("bic"), []
        kernel = scores_mod.bic_local_log_scores

        def recording(tables):
            stacks.append(tables.shape)
            return kernel(tables)

        monkeypatch.setattr(scores_mod, "bic_local_log_scores", recording)
        data = mixed_dataset(2)
        # v0 and v3 have 2 levels, v1 and v4 have 3: four (3, 2) tables
        families = [(0, (1,)), (3, (4,)), (2, ()), (0, (4,)), (3, (1,))]
        got = local_log_scores(data, families, config)
        assert sorted(stacks) == [(1, 1, 4), (4, 3, 2)]
        stacks.clear()
        assert got == [local_log_score(data, child, parents, config)
                       for child, parents in families]
        assert len(stacks) == len(families)
        assert got == [local_oracle(data, child, parents, config) for child, parents in families]

    @pytest.mark.parametrize("cap", [None, 20])
    def test_bhd_scores_each_fit_stack_in_one_kernel_call(self, monkeypatch, cap):
        # the fixed-point fit of a stack is its scoring call: it returns the
        # evidences, and the Dirichlet kernel is not called
        config, fits, kernels = ScoreConfig("bhd"), [], []
        fixed_point_fit, kernel = hier._fixed_point_fit, hier.bd_local_log_scores

        def fitting(n, a0, a, tol, max_iters, traces=None):
            fits.append(n.shape)
            return fixed_point_fit(n, a0, a, tol, max_iters, traces)

        def scoring(tables, alpha):
            kernels.append(tables.shape)
            return kernel(tables, alpha)

        monkeypatch.setattr(hier, "_fixed_point_fit", fitting)
        monkeypatch.setattr(hier, "bd_local_log_scores", scoring)
        if cap is not None:
            # a (3, 2) configuration holds 6 cells: three per stack
            monkeypatch.setattr(hier, "_STACK_CELLS", cap)
        data = mixed_dataset(2)
        # v0 and v3 have 2 levels, v1 and v4 have 3: four (3, 2) tables
        families = [(0, (1,)), (3, (4,)), (2, ()), (0, (4,)), (3, (1,))]
        got = local_log_scores(data, families, config)
        observed = sum(int((family_counts_oracle(data, child, parents).sum(axis=(0, 2)) > 0).sum())
                       for child, parents in families if child != 2)
        size = observed if cap is None else 3
        assert sorted(fits) == sorted([(1, 3, 4)] + [(min(size, observed - i), 3, 2)
                                                     for i in range(0, observed, size)])
        assert kernels == []
        assert got == [local_oracle(data, child, parents, config) for child, parents in families]

    @pytest.mark.parametrize("config", BATCH_CONFIGS[1:], ids=lambda c: f"{c.kind}-{c.iss}")
    def test_warm_score_is_the_cold_sorted_score_in_either_order(self, config):
        data = mixed_dataset(1)
        for parents in [(1, 4), (0, 3, 4)]:
            cold = local_log_score(data, 2, parents, config)
            assert cold == local_oracle(data, 2, parents, config)
            for first in (parents, parents[::-1]):
                cache = LocalScoreCache()
                warm = [local_log_score(data, 2, asked, config, cache)
                        for asked in (first, parents[::-1], parents)]
                assert warm == [cold] * 3
                assert (cache.hits, cache.misses) == (2, 1)

    def test_request_holds_one_count_batch_at_a_time(self, monkeypatch):
        # 320 families of (2, 256, 2) tables, 16 to a batch at a cap of 2**14
        # cells (128 KiB of counts): the request's peak is a few batches, not
        # the 20 it counts, and its bits are the uncapped request's
        import hierbn.data as data_mod
        variables = [VariableMeta(f"v{i}", ("0", "1")) for i in range(16)]
        rng = np.random.default_rng(5)
        data = GroupedDataset(variables, ["a", "b"],
                              [rng.integers(0, 2, (100, 16)) for _ in range(2)])
        families = [(0, parents) for parents in
                    itertools.islice(itertools.combinations(range(1, 16), 8), 320)]
        config = ScoreConfig("bdeu")
        expected = local_log_scores(data, families, config)
        batch_bytes = 2 ** 14 * 8
        monkeypatch.setattr(data_mod, "MAX_COUNT_CELLS", 2 ** 14)
        tracemalloc.start()
        try:
            got = local_log_scores(data, families, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 6 * batch_bytes

    def test_cache_bound_to_another_dataset_rejected(self):
        first, second = mixed_dataset(1), mixed_dataset(2)
        cache = LocalScoreCache()
        local_log_scores(first, [(2, parents) for parents in MIXED_SETS], ScoreConfig("bdeu"),
                         cache)
        with pytest.raises(ValueError, match="another dataset"):
            local_log_scores(second, [(2, parents) for parents in MIXED_SETS],
                             ScoreConfig("bdeu"), cache)


def lone_bhd(table, config):
    """One family's bhd local alone: by ``bhd_local_log_scores`` on a stack
    of one, and by ``oracles.fixed_point_fit_oracle``, one configuration at a
    time."""
    _, n_configs, child_card = table.shape
    counts = FamilyCounts(child_card, (n_configs,) if n_configs > 1 else (), table)
    prior = HierPrior.uniform((n_configs, child_card), s=config.iss, s0=config.s0)
    lone = hier.bhd_local_log_scores(table[None], config.iss, config.s0, config.vb_tol,
                                     config.vb_max_iters)[0]
    return lone, fixed_point_fit_oracle(counts, prior, tol=config.vb_tol,
                                   max_iters=config.vb_max_iters)[1]


def bhd_stacks():
    """Equal-shape stacks: K = 5, F = 1, all-zero members, sparse tables
    and a lone family."""
    rng = np.random.default_rng(73)
    stacks = [rng.integers(0, 9, size=shape) for shape in
              [(5, 1, 4, 5), (6, 3, 3, 2), (3, 2, 5, 5), (1, 4, 2, 3), (4, 1, 1, 2)]]
    stacks[0][2] = 0
    stacks[1][[0, 4]] = 0
    stacks[2] *= rng.random(stacks[2].shape) < 0.3
    return stacks


BHD_CONFIGS = [ScoreConfig("bhd"), ScoreConfig("bhd", iss=7.5), ScoreConfig("bhd", s0=3.0),
               ScoreConfig("bhd", iss=7.5, s0=0.5, vb_tol=1e-9)]


def bhd_id(config):
    return f"iss{config.iss}-s0{config.s0}-tol{config.vb_tol}"


class TestBhdStackScores:
    @pytest.mark.parametrize("cap", [None, 40])
    @pytest.mark.parametrize("config", BHD_CONFIGS, ids=bhd_id)
    def test_each_family_gets_its_lone_fit_and_score(self, monkeypatch, config, cap):
        sizes = []
        fixed_point_fit = hier._fixed_point_fit

        def recording(n, a0, a, tol, max_iters, traces=None):
            sizes.append(len(n))
            return fixed_point_fit(n, a0, a, tol, max_iters, traces)

        if cap is not None:
            monkeypatch.setattr(hier, "_STACK_CELLS", cap)
        split = 0
        for stack in bhd_stacks():
            with monkeypatch.context() as patch:
                patch.setattr(hier, "_fixed_point_fit", recording)
                sizes.clear()
                got = hier.bhd_local_log_scores(stack, config.iss, config.s0, config.vb_tol,
                                                config.vb_max_iters)
            # stacks of at most cap // (F * K) observed configurations, one
            # at least; a stack without any is fitted as one empty stack
            size = max(1, (cap or 2 ** 16) // (stack.shape[1] * stack.shape[3]))
            observed = int((stack.sum(axis=(1, 3)) > 0).sum())
            assert sizes == ([min(size, observed - i) for i in range(0, observed, size)]
                             or [0])
            split += len(sizes) > 1
            lone = [lone_bhd(table, config) for table in stack]
            assert got.tolist() == [score for score, _ in lone]
            assert got.tolist() == [oracle for _, oracle in lone]
        assert split == (0 if cap is None else 3)

    @pytest.mark.parametrize("config", BHD_CONFIGS, ids=bhd_id)
    @pytest.mark.parametrize("layout", [{}, {"group_sizes": (17,)},
                                        {"cards": (2, 5, 3, 5, 2)}], ids=["F3", "F1", "K5"])
    def test_counted_tables_score_as_the_local_oracle(self, config, layout):
        data = mixed_dataset(4, **layout)
        for child in range(data.n_variables):
            others = [v for v in range(data.n_variables) if v != child]
            sets = [()] + [(u,) for u in others] + [tuple(others[:2]), tuple(others[1:3])]
            for positions, tables in _count_tables(data, [(child, parents) for parents in sets]):
                got = hier.bhd_local_log_scores(tables, config.iss, config.s0, config.vb_tol,
                                                config.vb_max_iters)
                assert got.tolist() == [local_oracle(data, child, sets[i], config)
                                        for i in positions]

    def test_bad_stacks_rejected(self):
        with pytest.raises(ValueError, match="stack of count tables"):
            hier.bhd_local_log_scores(np.ones((2, 2, 2), int), 1.0)
        with pytest.raises(ValueError, match="s must be positive"):
            hier.bhd_local_log_scores(np.ones((2, 1, 2, 2), int), 0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            hier.bhd_local_log_scores(np.ones((2, 1, 2, 2), int), 1.0, tol=0.0)
        assert hier.bhd_local_log_scores(np.ones((0, 1, 2, 2), int), 1.0).shape == (0,)


class TestDatasetWithoutGroups:
    """A dataset with no groups has only empty configurations, each adding
    exactly 0, so every family scores 0.0 under every score."""

    @pytest.fixture
    def data(self):
        variables = [VariableMeta(f"v{i}", tuple(map(str, range(c))))
                     for i, c in enumerate((2, 3, 2))]
        return GroupedDataset(variables, [], [])

    @pytest.mark.parametrize("kind", ["bdeu", "bic", "bhd"])
    def test_every_family_scores_zero(self, data, kind):
        config = ScoreConfig(kind)
        families = [(0, (1,)), (1, ()), (2, (0, 1)), (1, (0, 2))]
        assert local_log_scores(data, families, config) == [0.0] * len(families)
        assert local_log_score(data, 0, (1,), config) == 0.0
        result = run_hill_climb(data, config)
        assert result.dag.arc_count == 0 and result.score == 0.0

    def test_empty_stacks_score_and_fit(self):
        assert hier.bhd_local_log_scores(np.zeros((2, 0, 3, 2), int), 1.0).tolist() == [0.0, 0.0]
        counts = FamilyCounts(2, (3,), np.zeros((0, 3, 2), dtype=np.int64))
        fit = hier.fit_variational(counts, HierPrior.uniform((3, 2), s=1.0))
        np.testing.assert_array_equal(fit.kappa, np.full((3, 2), 1 / 6))
        assert fit.nu.shape == (0, 3, 2) and fit.converged
