"""The per-configuration fixed-point fit of the centres, its Laplace
evidence and the per-group family score."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import digamma, gammaln, softmax

import oracles
from hierbn import hier
from hierbn.data import FamilyCounts, family_counts, load_csv
from hierbn.graph import Dag
from hierbn.hier import (HierPrior, VariationalConvergenceWarning,
                         VariationalFit, bhd_local_log_score, fit_variational,
                         hier_posterior_means)
from hierbn.scores import (ScoreConfig, bd_local_log_score,
                           bdeu_local_log_score, local_log_score,
                           total_log_score)
from hierbn.simgen import GenConfig, generate


def make_counts(arr):
    arr = np.asarray(arr, dtype=np.int64)
    f, j, k = arr.shape
    return FamilyCounts(k, (j,) if j > 1 else (), arr)


def random_counts(rng, max_groups=4, max_configs=4, max_levels=4, top=25):
    f = int(rng.integers(1, max_groups + 1))
    j = int(rng.integers(1, max_configs + 1))
    k = int(rng.integers(2, max_levels + 1))
    return make_counts(rng.integers(0, top, size=(f, j, k)))


class TestHierPrior:
    def test_uniform_factory(self):
        prior = HierPrior.uniform((2, 3), s=1.0)
        assert prior.s == 1.0
        assert prior.alpha0.shape == (2, 3)
        assert np.all(prior.alpha0 == 1.0)
        assert prior.s0 == 6.0

    def test_explicit_s0(self):
        prior = HierPrior.uniform((1, 2), s=1.0, s0=4.0)
        assert np.allclose(prior.alpha0, 2.0)
        assert prior.s0 == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HierPrior(0.0, np.ones((1, 2)))
        with pytest.raises(ValueError, match="s must be a number, got True"):
            HierPrior(True, np.ones((1, 2)))
        with pytest.raises(ValueError):
            HierPrior(1.0, np.zeros((1, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="alpha0"):
            HierPrior(1.0, np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="s must"):
            HierPrior(np.nan, np.ones((1, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="s must be positive and finite"):
            HierPrior(np.inf, np.ones((1, 2)))
        with pytest.raises(ValueError, match="alpha0 must be a positive, finite"):
            HierPrior(1.0, np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError, match="s0 must be positive and finite"):
            HierPrior.uniform((1, 2), s=1.0, s0=np.inf)


class TestFitVariational:
    def test_all_zero_counts_returns_prior(self):
        counts = make_counts(np.zeros((3, 2, 2), dtype=int))
        prior = HierPrior.uniform((2, 2), s=1.0)
        fit = fit_variational(counts, prior)
        assert np.array_equal(fit.kappa, prior.alpha0 / prior.s0)
        assert fit.tau == prior.s
        assert fit.elbo_trace == (0.0,)
        assert fit.converged

    def test_mirrored_groups_force_symmetric_centre(self):
        counts = make_counts([[[9, 1]], [[1, 9]]])
        fit = fit_variational(counts, HierPrior.uniform((1, 2), s=1.0))
        assert fit.converged
        assert abs(fit.kappa[0, 0] - 0.5) < 1e-6
        assert abs(fit.kappa[0, 1] - 0.5) < 1e-6

    def test_group_permutation_invariance(self):
        rng = np.random.default_rng(4)
        arr = rng.integers(0, 20, size=(3, 2, 2))
        fit = fit_variational(make_counts(arr), HierPrior.uniform((2, 2), s=1.0))
        fit_perm = fit_variational(make_counts(arr[[2, 0, 1]]),
                                   HierPrior.uniform((2, 2), s=1.0))
        assert np.allclose(fit.kappa, fit_perm.kappa, atol=1e-9)
        assert fit.tau == pytest.approx(fit_perm.tau, rel=1e-9)

    def test_cell_permutation_equivariance(self):
        # uniform hyperprior fixes nothing, so relabelling child levels
        # must relabel the centre the same way
        rng = np.random.default_rng(6)
        arr = rng.integers(0, 20, size=(2, 2, 3))
        fit = fit_variational(make_counts(arr), HierPrior.uniform((2, 3), s=1.0))
        fit_perm = fit_variational(make_counts(arr[:, :, [2, 0, 1]]),
                                   HierPrior.uniform((2, 3), s=1.0))
        assert np.allclose(fit.kappa[:, [2, 0, 1]], fit_perm.kappa, atol=1e-8)

    def test_fixed_point_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            counts = random_counts(rng)
            s = float(rng.uniform(0.5, 3.0))
            prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=s)
            fit = fit_variational(counts, prior)
            residual = fit.nu - s * fit.kappa[None] - counts.per_group
            assert np.abs(residual).max() <= 1e-8

    def test_elbo_trace_non_decreasing(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            counts = random_counts(rng)
            prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
            fit = fit_variational(counts, prior)
            steps = np.diff(fit.elbo_trace)
            assert steps.size == 0 or steps.min() >= -1e-9

    def test_centre_on_simplex(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            counts = random_counts(rng)
            prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
            fit = fit_variational(counts, prior)
            assert np.all(fit.kappa > 0)
            assert fit.kappa.sum() == pytest.approx(1.0, abs=1e-12)
            assert fit.tau > 0

    def test_warns_when_iteration_budget_too_small(self):
        for arr in (CAPPED_PAIR, CAPPED_PAIR[::-1]):
            counts, prior = make_counts(arr), HierPrior.uniform((2, 2), s=CAPPED_S)
            fit = fit_variational(counts, prior)
            assert fit.converged and len(fit.elbo_trace) - 1 == 18
            with pytest.warns(VariationalConvergenceWarning):
                capped = fit_variational(counts, prior, max_iters=CAP)
            assert not capped.converged and len(capped.elbo_trace) == CAP + 1

    def test_nan_settings_rejected(self):
        counts = make_counts([[[3, 1], [0, 2]], [[1, 1], [4, 0]]])
        prior = HierPrior.uniform((2, 2), s=1.0)
        with pytest.raises(ValueError, match="tol"):
            fit_variational(counts, prior, tol=np.nan)
        with pytest.raises(ValueError, match="max_iters"):
            fit_variational(counts, prior, max_iters=np.nan)

    @pytest.mark.parametrize("max_iters", [2.5, True, np.float64(3.0), 3.0, "3", None],
                             ids=["2.5", "True", "float64", "3.0", "str", "None"])
    def test_non_integer_max_iters_rejected(self, max_iters):
        # a float or bool cap would run int(max_iters) or int(max_iters) + 1 steps
        stack = np.array([[[[30, 3], [4, 20]], [[2, 25], [18, 6]]]])
        counts, prior = make_counts(stack[0]), HierPrior.uniform((2, 2), s=1.0)
        for fit in (lambda: fit_variational(counts, prior, max_iters=max_iters),
                    lambda: hier.bhd_local_log_scores(stack, 1.0, max_iters=max_iters)):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                fit()

    @pytest.mark.parametrize("max_iters", [0, -1, np.int64(0)])
    def test_max_iters_below_one_rejected(self, max_iters):
        counts = make_counts([[[3, 1], [0, 2]], [[1, 1], [4, 0]]])
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            fit_variational(counts, HierPrior.uniform((2, 2), s=1.0), max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self):
        counts = make_counts(CAPPED_PAIR)
        prior = HierPrior.uniform((2, 2), s=CAPPED_S)
        with pytest.warns(VariationalConvergenceWarning):
            fit = fit_variational(counts, prior, max_iters=np.int32(CAP))
        with pytest.warns(VariationalConvergenceWarning):
            plain = fit_variational(counts, prior, max_iters=CAP)
        assert same_fit(fit, plain)
        assert len(fit.elbo_trace) == CAP + 1

    def test_infinite_tol_rejected(self):
        # every gradient is within an infinite tolerance, so the start point
        # would come back flagged as converged
        counts = make_counts([[[3, 1], [0, 2]], [[1, 1], [4, 0]]])
        prior = HierPrior.uniform((2, 2), s=1.0)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fit_variational(counts, prior, tol=np.inf)
        with pytest.raises(ValueError, match="tol must be a number, got True"):
            fit_variational(counts, prior, tol=True)

    def test_deterministic(self):
        counts = make_counts([[[7, 2], [1, 5]], [[3, 3], [2, 8]]])
        prior = HierPrior.uniform((2, 2), s=1.0)
        a = fit_variational(counts, prior)
        b = fit_variational(counts, prior)
        assert np.array_equal(a.kappa, b.kappa)
        assert a.tau == b.tau
        assert a.elbo_trace == b.elbo_trace

    def test_prior_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="prior shape"):
            fit_variational(make_counts([[[1, 2, 3]]]), HierPrior.uniform((1, 2), s=1.0))

    def test_capped_fit_warns_at_its_caller(self):
        # the default filter shows a warning once per location, so a
        # location inside the package would show a process's first capped
        # fit only
        counts, prior = make_counts(CAPPED_PAIR), HierPrior.uniform((2, 2), s=CAPPED_S)
        with pytest.warns(VariationalConvergenceWarning) as record:
            fit_variational(counts, prior, max_iters=CAP)
        assert len(record) == 1 and record[0].filename == __file__

    def test_results_read_only(self):
        counts = make_counts([[[5, 5]]])
        fit = fit_variational(counts, HierPrior.uniform((1, 2), s=1.0))
        with pytest.raises(ValueError):
            fit.kappa[0, 0] = 0.9


def log_posterior(tallies, alpha0, a, p):
    """g of one configuration at the centre p: scipy's log-Gamma terms of
    each group's Dirichlet-multinomial at weights a * p, and the log
    Dirichlet(alpha0) density of p with the log-ratio basis's Jacobian."""
    value = gammaln(alpha0.sum()) - gammaln(alpha0).sum() + (alpha0 * np.log(p)).sum()
    for tally in tallies:
        value += (gammaln(a) - gammaln(a + tally.sum())
                  + (gammaln(a * p + tally) - gammaln(a * p)).sum())
    return value


def reference_fit(counts, prior):
    """Tight scipy L-BFGS-B maximum of each configuration's log posterior
    in the log-ratio basis, from numerical gradients.

    Restarted from its own optimum until g stops rising, so it is an
    oracle for where the package's fit should land. The fit's one trace
    value is the summed maximum over the observed configurations.
    """
    from scipy.optimize import minimize
    n_configs = counts.n_configs
    a = prior.s / n_configs
    kappa = prior.alpha0 / prior.alpha0.sum(axis=1, keepdims=True)
    total = 0.0
    for j in range(n_configs):
        tallies, alpha0 = counts.per_group[:, j, :], prior.alpha0[j]
        if tallies.sum() == 0:
            continue

        def negative(x):
            return -log_posterior(tallies, alpha0, a, softmax(np.append(x, 0.0)))

        start = tallies.sum(axis=0) + alpha0
        x, best = np.log(start[:-1] / start[-1]), np.inf
        while True:
            result = minimize(negative, x, method="L-BFGS-B",
                              options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-10,
                                       "maxcor": 20})
            if not result.fun < best:
                break
            x, best = result.x, result.fun
        kappa[j] = softmax(np.append(x, 0.0))
        total -= best
    kappa /= n_configs
    return VariationalFit(kappa, prior.s, prior.s * kappa[None] + counts.per_group, (total,),
                          True)


def k5_f10_family():
    """A K5 family with two parents (25 configurations) in 10 groups of
    1000 rows."""
    _, data = generate(GenConfig(n_nodes=3, card=5, arc_ratio=1.0, n_groups=10,
                                 rows_per_group=1000, seed=1))
    return family_counts(data, 0, (1, 2))


@pytest.fixture(scope="module")
def oracle_cases():
    """(counts, prior, reference fit): 30 random families and one K5 F10
    family with two parents (25 configurations, 1000 rows per group)."""
    rng = np.random.default_rng(41)
    families = [(random_counts(rng, top=int(rng.choice([5, 25, 200]))),
                 float(rng.choice([0.5, 1.0, 2.0]))) for _ in range(30)]
    families.append((k5_f10_family(), 1.0))
    cases = []
    for counts, s in families:
        prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=s)
        cases.append((counts, prior, reference_fit(counts, prior)))
    return cases


def stall_counts():
    """Four groups of 1e5 rows over 12 cells."""
    rng = np.random.default_rng(43)
    return make_counts(rng.multinomial(100000, rng.dirichlet(np.ones(12)),
                                       size=4).reshape(4, 3, 4))


class TestFitAgainstReference:
    def test_score_within_a_twentieth_nat_of_reference(self, oracle_cases):
        # at the default tolerance, the groups' evidence at the fitted
        # centres and at the reference's
        for counts, prior, ref in oracle_cases:
            fit = fit_variational(counts, prior)
            error = abs(bhd_local_log_score(counts, fit, prior.s)
                        - bhd_local_log_score(counts, ref, prior.s))
            assert fit.converged
            assert error <= 0.05

    def test_bound_reaches_reference_at_float_precision(self, oracle_cases):
        # a fit run until g stalls must reach the reference optimum itself
        for counts, prior, ref in oracle_cases:
            fit = fit_variational(counts, prior, tol=1e-15)
            bound, best = fit.elbo_trace[-1], ref.elbo_trace[-1]
            assert fit.converged
            assert bound >= best - 1e-9 * abs(bound)

    def test_large_counts_stall_at_float_precision_without_warning(self):
        # 1e5 rows per group: no gradient can reach 1e-15 |g| in floats, so
        # the fit ends when a step leaves the centre unchanged, and that is
        # converged
        counts = stall_counts()
        prior = HierPrior.uniform((3, 4), s=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", VariationalConvergenceWarning)
            fit = fit_variational(counts, prior, tol=1e-15)
        assert fit.converged


def oracle_families():
    """(counts, prior, fit options) of 154 families for the bit-for-bit
    comparison with ``oracles.fixed_point_fit_oracle``."""
    rng = np.random.default_rng(47)
    families = []
    for i in range(140):
        f, j, k = int(rng.integers(1, 11)), int(rng.integers(1, 26)), int(rng.integers(2, 6))
        arr = rng.integers(0, int(rng.choice([3, 25, 300])), size=(f, j, k))
        if i % 7 == 0:
            # some groups without a row; with one group, a family without any
            arr[rng.random(f) < 0.5] = 0
        s = float(rng.choice([0.5, 1.0, 7.5]))
        s0 = float(rng.uniform(0.5, 20.0)) if i % 10 == 3 else None
        families.append((make_counts(arr), HierPrior.uniform((j, k), s=s, s0=s0), {}))
    families.append((make_counts(np.zeros((4, 3, 2), dtype=int)),
                     HierPrior.uniform((3, 2), s=1.0), {}))
    families.append((make_counts([[[30, 3], [4, 20]], [[0, 0], [0, 0]], [[2, 25], [18, 6]]]),
                     HierPrior.uniform((2, 2), s=1.0, s0=3.0), {}))
    families.append((make_counts(CAPPED_PAIR), HierPrior.uniform((2, 2), s=CAPPED_S),
                     {"max_iters": CAP}))
    families.append((stall_counts(), HierPrior.uniform((3, 4), s=1.0), {"tol": 1e-15}))
    for arr in EXTREME_FAMILIES:
        arr = np.asarray(arr)
        families.append((make_counts(arr), HierPrior.uniform(arr.shape[1:], s=1e4, s0=1e-3), {}))
    for i in range(8):
        counts = random_counts(rng, max_groups=10, max_configs=25, max_levels=5, top=50)
        prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
        families.append((counts, prior, {"tol": 1e-12}))
    return families


# families fitted under a huge group weight and a tiny hyperprior
EXTREME_FAMILIES = ([[[0, 2]]], [[[1, 3], [0, 1]]])
# a family of two groups whose two configurations each take 18 fixed-point
# steps under group weight CAPPED_S / 2, alone or with its groups swapped,
# so both reach a cap of CAP steps unconverged
CAPPED_PAIR = [[[71, 393], [194, 18]], [[26, 335], [285, 65]]]
CAPPED_S = 7.5
CAP = 1


def fit_recording(fit, counts, prior, options):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(counts, prior, **options)
    return result, [w.category for w in caught]


def oracle_fit(counts, prior, **options):
    return oracles.fixed_point_fit_oracle(counts, prior, **options)[0]


class TestFitMatchesOracle:
    def test_same_bits_on_every_family(self):
        families = oracle_families()
        assert len(families) >= 150
        capped = 0
        for counts, prior, options in families:
            fit, warned = fit_recording(fit_variational, counts, prior, options)
            ref, ref_warned = fit_recording(oracle_fit, counts, prior, options)
            assert same_fit(fit, ref)
            assert warned == ref_warned
            capped += warned == [VariationalConvergenceWarning]
        assert capped == 1

    def test_one_evaluation_per_trial_point(self, monkeypatch):
        # the oracle takes each configuration's steps one at a time; the
        # package takes the same steps, one call of u per step with a row
        # for every configuration still searching
        calls = count_steps(monkeypatch)
        counts = k5_f10_family()
        prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
        fit_variational(counts, prior)
        a = prior.s / counts.n_configs
        steps = [len(oracles._fixed_point_config_oracle(counts.per_group[:, j], prior.alpha0[j],
                                                        a, 1e-6, 500)[2]) - 1
                 for j in range(counts.n_configs)]
        assert calls == [sum(taken > i for taken in steps) for i in range(max(steps))]
        assert calls[0] == counts.n_configs


def count_steps(monkeypatch):
    """A list that receives the row count of every call of
    ``hier._scaled_gradient``: one call per step of a stack's fit."""
    calls = []
    scaled_gradient = hier._scaled_gradient

    def counting(n, a0, a, p):
        calls.append(len(p))
        return scaled_gradient(n, a0, a, p)

    monkeypatch.setattr(hier, "_scaled_gradient", counting)
    return calls


def stack_cases():
    """(stack, s, s0, fit options) of stacks of equal-shape families for
    the comparison with lone fits: random stacks with sparse and all-zero
    members, capped stacks, the extreme families among others of their
    shape, and stacks fitted to 1e-12."""
    rng = np.random.default_rng(59)
    cases = []
    for i in range(60):
        b, f = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        j, k = int(rng.integers(1, 26)), int(rng.integers(2, 6))
        stack = rng.integers(0, int(rng.choice([3, 25, 300])), size=(b, f, j, k))
        if i % 3 == 0:
            stack *= rng.random(stack.shape) < 0.2
        if i % 5 == 0:
            stack[rng.random(b) < 0.4] = 0
        s = float(rng.choice([0.5, 1.0, 7.5]))
        s0 = float(rng.uniform(0.5, 20.0)) if i % 4 == 1 else None
        options = {"tol": 1e-12} if i % 6 == 5 else {}
        cases.append((stack, s, s0, options))
    cases.append((np.array([CAPPED_PAIR, np.zeros((2, 2, 2), int), CAPPED_PAIR[::-1]]),
                  CAPPED_S, None, {"max_iters": CAP}))
    for arr in EXTREME_FAMILIES:
        arr = np.asarray(arr)
        others = rng.integers(0, 6, size=(3,) + arr.shape)
        cases.append((np.concatenate([others[:1], arr[None], others[1:]]), 1e4, 1e-3, {}))
    for options in ({}, {"tol": 1e-12}):
        cases.append((np.array([[[[2, 9]]], [[[13, 5]]], [[[40, 1]]]]), 1.0, None, options))
    return cases


def same_fit(a, b):
    return (a.kappa.tobytes() == b.kappa.tobytes() and a.tau == b.tau
            and a.elbo_trace == b.elbo_trace and a.converged == b.converged
            and a.nu.tobytes() == b.nu.tobytes())


class TestFitStack:
    def test_each_family_gets_its_lone_and_oracle_bits(self):
        # the stacked score gives each family the local of its lone score
        # and of the oracle, and warns once per capped family in stack
        # order; the family's own fit has the oracle's bits and warnings
        zero_members = capped_stacks = 0
        for stack, s, s0, options in stack_cases():
            prior = HierPrior.uniform(stack.shape[2:], s=s, s0=s0)

            def score(tables, _, **settings):
                return hier.bhd_local_log_scores(tables, s, s0, **settings).tolist()

            locals_, warned = fit_recording(score, stack, None, options)
            assert len(locals_) == len(stack)
            lone_warned = []
            for table, local in zip(stack, locals_):
                counts = make_counts(table)
                [lone], lone_warning = fit_recording(score, table[None], None, options)
                fit, fit_warning = fit_recording(fit_variational, counts, prior, options)
                (ref, ref_local), ref_warning = fit_recording(oracles.fixed_point_fit_oracle,
                                                              counts, prior, options)
                assert local == lone == ref_local
                assert same_fit(fit, ref)
                assert lone_warning == fit_warning == ref_warning
                lone_warned += lone_warning
                zero_members += counts.total == 0 and len(stack) > 1
            assert warned == lone_warned
            capped_stacks += len(warned) == 2
        assert zero_members >= 3 and capped_stacks >= 1

    def test_each_round_evaluates_every_searching_family_once(self, monkeypatch):
        # one call per step, with one row per configuration still
        # searching: as many calls as the longest lone score makes, as many
        # rows as all make
        calls = count_steps(monkeypatch)
        rng = np.random.default_rng(61)
        stack = rng.integers(0, 40, size=(6, 4, 5, 3)) * np.array([1, 2, 3, 30, 1, 300])[:, None, None, None]
        stack[4] *= rng.random(stack[4].shape) < 0.3
        lone, lone_rows = [], []
        for table in stack:
            calls.clear()
            hier.bhd_local_log_scores(table[None], 1.0)
            lone.append(len(calls))
            lone_rows.append(sum(calls))
        calls.clear()
        hier.bhd_local_log_scores(stack, 1.0)
        assert len(calls) == max(lone) and sum(calls) == sum(lone_rows)
        assert len(set(lone)) > 1


def random_rows(rng, n_rows=12, max_groups=4, max_levels=5, top=30):
    """(P, F, K) counts, (P, K) hyperpriors and a group weight of random
    configurations, for evaluating ``hier``'s row functions directly."""
    f, k = int(rng.integers(1, max_groups + 1)), int(rng.integers(2, max_levels + 1))
    tallies = rng.integers(0, top, size=(n_rows, f, k))
    a0 = rng.uniform(0.3, 2.0, size=(n_rows, k))
    a = float(rng.uniform(0.2, 3.0))
    return tallies, a0, a


def posterior_at(tallies, a0, a, p):
    """``hier``'s g, u and log det(-H) of (P, F, K) tallies at the centres
    p, the constant of g from ``log_posterior``'s terms."""
    n = np.ascontiguousarray(np.swapaxes(tallies, 1, 2), dtype=float)
    const = np.array([gammaln(a0_row.sum()) - gammaln(a0_row).sum()
                      + sum(gammaln(a) - gammaln(a + tally.sum()) for tally in rows)
                      for rows, a0_row in zip(tallies, a0)])
    return (hier._log_posterior(n, a0, a, const, p), hier._scaled_gradient(n, a0, a, p),
            hier._log_det(n, a0, a, p))


def alr_second_differences(g, x, h=1e-4):
    """The Hessian of g at x by central second differences."""
    dims = np.eye(len(x))
    return np.array([[(g(x + h * (e + d)) - g(x + h * (e - d)) - g(x - h * (e - d))
                       + g(x - h * (e + d))) / (4 * h * h) for d in dims] for e in dims])


class TestElboGradient:
    def test_matches_finite_differences(self):
        # in the log-ratio basis x (the last level the reference): g against
        # log_posterior and its gradient u - p * sum(u) against central
        # differences at random points; at the fitted mode, the Laplace
        # term's log det(-H) against the finite-difference Hessian's, and
        # the evidence against g and that log det
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(12):
            tallies, a0, a = random_rows(rng, n_rows=4)
            k = tallies.shape[2]
            x = rng.normal(size=(len(tallies), k - 1))
            p = softmax(np.append(x, np.zeros((4, 1)), axis=1), axis=1)
            value, u, _ = posterior_at(tallies, a0, a, p)
            grad = (u - p * u.sum(axis=1, keepdims=True))[:, :-1]
            for row in range(len(tallies)):
                def g(point):
                    return log_posterior(tallies[row], a0[row], a, softmax(np.append(point, 0.0)))

                h = 1e-4
                assert value[row] == pytest.approx(g(x[row]), rel=1e-12)
                fd = np.array([(g(x[row] + h * e) - g(x[row] - h * e)) / (2 * h)
                               for e in np.eye(k - 1)])
                worst = max(worst, float(np.abs(fd - grad[row]).max())
                            / max(1.0, float(np.abs(fd).max())))
        assert worst < 1e-5
        for _ in range(4):
            k = int(rng.integers(2, 5))
            counts = make_counts(rng.integers(0, 30, size=(3, 1, k)))
            prior = HierPrior.uniform((1, k), s=1.0)
            fit = fit_variational(counts, prior, tol=1e-13)
            value, _, log_det = posterior_at(counts.per_group[None, :, 0], prior.alpha0, 1.0,
                                             fit.kappa)

            def g(point):
                return log_posterior(counts.per_group[:, 0], prior.alpha0[0], 1.0,
                                     softmax(np.append(point, 0.0)))

            x = np.log(fit.kappa[0, :-1] / fit.kappa[0, -1])
            assert log_det[0] == pytest.approx(
                np.linalg.slogdet(-alr_second_differences(g, x))[1], abs=1e-5)
            local = hier.bhd_local_log_scores(counts.per_group[None], 1.0, tol=1e-13)[0]
            assert local == pytest.approx(value[0] + (k - 1) * oracles.HALF_LOG_2PI
                                          - 0.5 * log_det[0], rel=1e-12)


class TestElbo:
    def test_finite_on_random_states(self):
        # g, u and the Laplace term's log det are finite wherever p is
        # representable, however far from the mode
        rng = np.random.default_rng(9)
        for _ in range(20):
            tallies, a0, a = random_rows(rng)
            x = rng.normal(size=(len(tallies), tallies.shape[2])) * float(rng.choice([1.0, 30.0]))
            for part in posterior_at(tallies, a0, a, softmax(x, axis=1)):
                assert np.all(np.isfinite(part))


class TestBhdLocal:
    def test_zero_counts(self):
        counts = make_counts(np.zeros((2, 2, 2), dtype=int))
        prior = HierPrior.uniform((2, 2), s=1.0)
        fit = fit_variational(counts, prior)
        assert bhd_local_log_score(counts, fit, 1.0) == 0.0

    def test_uniform_centre_reduces_to_per_group_uniform_scores(self):
        # the same evaluation kernel runs on identical alpha arrays, so the
        # reduction is exact at s = 1, not merely close
        rng = np.random.default_rng(3)
        for _ in range(30):
            counts = random_counts(rng)
            j, k = counts.n_configs, counts.child_card
            uniform = np.full((j, k), 1.0 / (j * k))
            pinned = VariationalFit(uniform, 1.0, 1.0 * uniform + counts.per_group,
                                    (0.0,), True)
            lhs = bhd_local_log_score(counts, pinned, 1.0)
            rhs = sum(bdeu_local_log_score(counts.single_group(f), 1.0)
                      for f in range(counts.n_groups))
            assert lhs == rhs

    def test_single_group_is_plain_bd(self):
        rng = np.random.default_rng(5)
        for s in (1.0, 2.5):
            arr = rng.integers(0, 15, size=(1, 3, 2))
            counts = make_counts(arr)
            kappa = rng.dirichlet(np.ones(6)).reshape(3, 2)
            pinned = VariationalFit(kappa, 2.0, s * kappa[None] + arr, (0.0,), True)
            want = bd_local_log_score(counts.per_group[0], s * kappa)
            assert bhd_local_log_score(counts, pinned, s) == want

    def test_shape_mismatch_rejected(self):
        counts = make_counts([[[1, 2], [3, 4]]])
        bad = VariationalFit(np.full((1, 2), 0.5), 1.0,
                             np.ones((1, 1, 2)), (0.0,), True)
        with pytest.raises(ValueError):
            bhd_local_log_score(counts, bad, 1.0)

    def test_not_asserted_score_equivalent_but_deterministic(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(31)
        lines = ["g,a,b"]
        for i in range(60):
            lines.append(f"g{i % 3},v{rng.integers(0, 2)},v{rng.integers(0, 2)}")
        lines += ["g0,v0,v0", "g0,v1,v1"]
        path.write_text("\n".join(lines) + "\n")
        data = load_csv(str(path), "g")
        config = ScoreConfig("bhd")
        fwd = total_log_score(Dag(2, frozenset({(0, 1)})), data, config)
        fwd2 = total_log_score(Dag(2, frozenset({(0, 1)})), data, config)
        assert fwd == fwd2

    def test_node_decomposability(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(33)
        lines = ["g,a,b,c"]
        for i in range(90):
            lines.append(emit(rng, i))
        lines += ["g0,v0,v0,v0", "g0,v1,v1,v1"]
        path.write_text("\n".join(lines) + "\n")
        data = load_csv(str(path), "g")
        config = ScoreConfig("bhd")
        dag = Dag(3, frozenset({(0, 1), (1, 2)}))
        total = total_log_score(dag, data, config)
        parts = [local_log_score(data, i, dag.parents(i), config) for i in range(3)]
        assert total == pytest.approx(sum(parts), abs=1e-12)
        # a node's local score ignores arcs elsewhere in the graph
        other = Dag(3, frozenset({(0, 1), (0, 2)}))
        assert (local_log_score(data, 1, dag.parents(1), config)
                == local_log_score(data, 1, other.parents(1), config))


def emit(rng, i):
    return f"g{i % 3},v{rng.integers(0, 2)},v{rng.integers(0, 2)},v{rng.integers(0, 2)}"


class TestPosteriorMeans:
    def test_zero_counts_return_centre(self):
        counts = make_counts(np.zeros((2, 1, 2), dtype=int))
        prior = HierPrior.uniform((1, 2), s=1.0)
        fit = fit_variational(counts, prior)
        means = hier_posterior_means(counts, fit, 1.0)
        for f in range(2):
            assert np.allclose(means[f], fit.kappa, atol=1e-15)

    def test_each_group_table_normalized(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            counts = random_counts(rng)
            prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
            fit = fit_variational(counts, prior)
            means = hier_posterior_means(counts, fit, 1.0)
            assert np.allclose(means.sum(axis=(1, 2)), 1.0, atol=1e-12)
            assert np.all(means > 0)

    def test_shrinks_between_group_frequency_and_centre(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            counts = random_counts(rng, top=40)
            prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
            fit = fit_variational(counts, prior)
            means = hier_posterior_means(counts, fit, 1.0)
            n = counts.per_group.astype(float)
            totals = n.sum(axis=(1, 2), keepdims=True)
            with np.errstate(invalid="ignore"):
                freq = np.where(totals > 0, n / np.where(totals > 0, totals, 1.0),
                                fit.kappa[None])
            lo = np.minimum(freq, fit.kappa[None]) - 1e-12
            hi = np.maximum(freq, fit.kappa[None]) + 1e-12
            assert np.all(means >= lo)
            assert np.all(means <= hi)

    def test_large_sample_limit(self):
        # 100000 draws at fixed proportions pin the estimate to them
        p = np.array([[0.6, 0.4]])
        arr = np.array([np.round(100000 * p).astype(int),
                        np.round(100000 * p).astype(int)])
        counts = make_counts(arr)
        prior = HierPrior.uniform((1, 2), s=1.0)
        fit = fit_variational(counts, prior)
        means = hier_posterior_means(counts, fit, 1.0)
        assert np.abs(means - p[None]).max() < 1e-3


def lone_config_local(tallies, s=1.0):
    """The bhd local of one configuration's (F, K) tallies: a (1, F, 1, K) stack."""
    return float(hier.bhd_local_log_scores(np.asarray(tallies)[None, :, None, :], s)[0])


# K = 2 tallies per group, each with its s
K2_TALLIES = [([[1, 0], [1, 0]], 1.0), ([[1, 0], [0, 1]], 1.0), ([[5, 0], [5, 0]], 1.0),
              ([[3, 1], [0, 4]], 0.5), ([[30, 10], [25, 15]], 1.0),
              ([[2, 1], [1, 2], [3, 0], [0, 1], [1, 1]], 1.0)]
K3_TALLIES = [[[3, 1, 0], [0, 2, 2]], [[5, 5, 5], [1, 0, 9]], [[10, 3, 2]],
              [[1, 0, 0], [0, 1, 0]], [[300, 100, 2], [250, 150, 0]]]


class TestLaplaceEvidence:
    def test_k2_within_a_tenth_nat_of_exact(self):
        rng = np.random.default_rng(71)
        cases = list(K2_TALLIES)
        for _ in range(14):
            f = int(rng.integers(1, 6))
            cases.append((rng.integers(0, int(rng.choice([3, 20, 200])), size=(f, 2)),
                          float(rng.choice([0.25, 1.0, 4.0]))))
        for tallies, s in cases:
            if np.sum(tallies) == 0:
                continue
            error = lone_config_local(tallies, s) - oracles.exact_config_evidence(tallies, s)
            assert abs(error) <= 0.1

    def test_k3_within_a_quarter_nat_of_exact(self):
        for tallies in K3_TALLIES:
            error = lone_config_local(tallies) - oracles.exact_config_evidence(tallies, 1.0)
            assert abs(error) <= 0.25

    def test_weight_of_each_configuration_is_iss_over_configs(self):
        # a family's J configurations each get group weight s / J and their
        # own hyperprior row; its local is their evidences' sum
        table = np.array([[[4, 1], [0, 0], [2, 7]], [[3, 3], [0, 0], [0, 5]]])
        local = hier.bhd_local_log_scores(table[None], 3.0, s0=12.0)[0]
        exact = sum(oracles.exact_config_evidence(table[:, j], 1.0, [2.0, 2.0]) for j in (0, 2))
        assert abs(local - exact) <= 0.2


def local_of(table, s=1.0, max_iters=500):
    return float(hier.bhd_local_log_scores(np.asarray(table)[None], s, max_iters=max_iters)[0])


class TestInvariance:
    def test_permutations_move_a_local_by_at_most_1e_12(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            f, j, k = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(2, 6))
            table = rng.integers(0, int(rng.choice([3, 30, 300])), size=(f, j, k))
            table *= rng.random(table.shape) < 0.7
            s = float(rng.choice([0.5, 1.0, 7.5]))
            local = local_of(table, s)
            for moved in (table[rng.permutation(f)], table[:, rng.permutation(j)],
                          table[:, :, rng.permutation(k)]):
                assert abs(local_of(moved, s) - local) <= 1e-12 * max(1.0, abs(local))

    def test_empty_groups_leave_a_local_unchanged(self):
        rng = np.random.default_rng(79)
        tables = [np.array([[[30, 10]], [[25, 15]]])]
        tables += [rng.integers(0, 40, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                                             int(rng.integers(2, 5)))) for _ in range(40)]
        for table in tables:
            local = local_of(table)
            for empty in (1, 2, 3):
                padded = np.concatenate([table, np.zeros((empty,) + table.shape[1:], int)])
                assert abs(local_of(padded) - local) <= 1e-12 * max(1.0, abs(local))
                inside = np.insert(table, 0, 0, axis=0)
                assert abs(local_of(inside) - local) <= 1e-12 * max(1.0, abs(local))

    def test_configuration_without_rows_adds_exactly_zero(self, monkeypatch):
        for shape in [(1, 1, 2), (3, 4, 2), (2, 5, 5)]:
            assert local_of(np.zeros(shape, int)) == 0.0
        fitted = []
        fixed_point_fit = hier._fixed_point_fit

        def recording(n, *args):
            fitted.append(n.copy())
            return fixed_point_fit(n, *args)

        monkeypatch.setattr(hier, "_fixed_point_fit", recording)
        table = np.array([[[0, 0], [4, 1], [0, 0], [2, 2]], [[0, 0], [0, 3], [0, 0], [1, 0]]])
        local = local_of(table)
        # only the observed configurations reach the fit, in order
        assert [rows.tolist() for rows in fitted] == [[table[:, 1].tolist(), table[:, 3].tolist()]]
        prior = HierPrior.uniform((4, 2), s=1.0)
        assert local == oracles.fixed_point_fit_oracle(make_counts(table), prior)[1]


class TestStackLocals:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_stack_equals_each_lone_local_bitwise(self, monkeypatch, k):
        # stacks whose configurations stop converged and capped: every
        # family's local is its lone local and the oracle's, bit for bit
        stopped = []
        fixed_point_fit = hier._fixed_point_fit

        def recording(*args):
            result = fixed_point_fit(*args)
            stopped.extend(result[2].tolist())
            return result

        monkeypatch.setattr(hier, "_fixed_point_fit", recording)
        rng = np.random.default_rng(83 + k)
        stack = rng.integers(0, 30, size=(7, 3, 4, k)) * np.array([0, 1, 1, 5, 30, 300, 1])[:, None, None, None]
        stack[1, :, :2] = 0
        stack[6] = 0
        stack[6, 0, 0, 0] = 1
        # at this weight only the last family's configuration, one row that
        # starts at its mode, stops converged within 2 steps
        s = 20.0
        prior = HierPrior.uniform((4, k), s=s)
        for max_iters in (1, 2, 500):
            stopped.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = hier.bhd_local_log_scores(stack, s, max_iters=max_iters).tolist()
                capped = len(caught)
                lone = [local_of(table, s, max_iters=max_iters) for table in stack]
                oracle = [oracles.fixed_point_fit_oracle(make_counts(table), prior,
                                                    max_iters=max_iters)[1] for table in stack]
            assert got == lone == oracle
            if max_iters == 1:
                assert 0 < capped < len(stack)
                assert any(stopped) and not all(stopped)


def seeded_stacks(card):
    """The families of a seeded 3-node dataset of ``card`` levels in 10
    groups of 300 rows, as two stacks: its six one-parent families and its
    three two-parent ones."""
    _, data = generate(GenConfig(n_nodes=3, card=card, arc_ratio=1.0, n_groups=10,
                                 rows_per_group=300, seed=card))
    one = [family_counts(data, c, (p,)) for c in range(3) for p in range(3) if p != c]
    two = [family_counts(data, c, tuple(q for q in range(3) if q != c)) for c in range(3)]
    return [one, two]


def exact_gain(tallies, a0, a, p, q):
    """g(q) - g(p) of one configuration's (F, K) tallies in mpmath, at the
    centres p and q each divided by its exact sum: the terms of g that
    depend on the centre, in 30 digits."""
    def part(centre):
        centre = [mp.mpf(float(v)) for v in centre]
        total = mp.fsum(centre)
        value = mp.mpf(0)
        for b, v, column in zip(a0, centre, np.transpose(tallies)):
            w = mp.mpf(a) * v / total
            value += mp.mpf(float(b)) * mp.log(v / total)
            value += mp.fsum(mp.loggamma(w + int(n)) - mp.loggamma(w) for n in column if n)
        return value

    with mp.workdps(30):
        return part(q) - part(p)


class TestMonotoneSteps:
    def test_log_posterior_never_falls(self):
        # each fixed-point step maximises a minorizer of g, so g never
        # falls. Its float value may: g sums log-Gamma terms far larger
        # than |g| (about 8e4 for the extreme families, where |g| is 8), so
        # every step whose float trace falls by more than 4 eps |g| is
        # evaluated again in mpmath, where it must not fall by that much
        rng = np.random.default_rng(97)
        families = [(counts, HierPrior.uniform((counts.n_configs, counts.child_card), s=iss))
                    for card in (2, 5) for stack in seeded_stacks(card) for counts in stack
                    for iss in (1.0, 7.5, 50.0)]
        families += [(make_counts(arr), HierPrior.uniform(np.shape(arr)[1:], s=1e4, s0=1e-3))
                     for arr in EXTREME_FAMILIES]
        families.append((make_counts(CAPPED_PAIR), HierPrior.uniform((2, 2), s=CAPPED_S)))
        for _ in range(30):
            counts = random_counts(rng, max_groups=10, max_configs=5, max_levels=5,
                                   top=int(rng.choice([3, 30, 300, 3000])))
            families.append((counts, HierPrior.uniform((counts.n_configs, counts.child_card),
                                                       s=float(rng.choice([0.1, 1.0, 10.0, 100.0])))))
        rechecked = 0
        for counts, prior in families:
            assert same_fit(fit_variational(counts, prior, tol=1e-12),
                            oracle_fit(counts, prior, tol=1e-12))
            a = prior.s / counts.n_configs
            for j in np.flatnonzero(counts.per_group.sum(axis=(0, 2))):
                tallies, path = counts.per_group[:, j], []
                trace = oracles._fixed_point_config_oracle(tallies, prior.alpha0[j], a, 1e-12,
                                                           500, path)[2]
                for i in range(len(trace) - 1):
                    bound = 4 * np.finfo(float).eps * abs(trace[i])
                    if trace[i + 1] < trace[i] - bound:
                        rechecked += 1
                        assert exact_gain(tallies, prior.alpha0[j], a, path[i], path[i + 1]) >= -bound
        assert rechecked > 0

    @pytest.mark.parametrize("iss", [1.0, 7.5, 50.0])
    @pytest.mark.parametrize("card", [2, 5])
    def test_seeded_stacks_converge_within_twenty_steps(self, card, iss):
        # at the default tolerance every configuration stops converged
        # within 20 steps (18 at most when this was written)
        for families in seeded_stacks(card):
            prior = HierPrior.uniform((families[0].n_configs, families[0].child_card), s=iss)
            with warnings.catch_warnings():
                warnings.simplefilter("error", VariationalConvergenceWarning)
                fits = [fit_variational(counts, prior, max_iters=20) for counts in families]
            assert all(fit.converged for fit in fits)


class TestWarmStart:
    def test_converged_centre_is_its_fixed_point(self):
        # the mode is where u / sum(u) = p, u_k = a0_k + sum_f w_k
        # [digamma(w_k + n_fk) - digamma(w_k)] at w = (s / J) p; fitted to a
        # tolerance well below the gradient's scale, every observed
        # configuration's centre satisfies it to 1e-6
        rng = np.random.default_rng(89)
        families = [counts for stacks in (seeded_stacks(2), seeded_stacks(5))
                    for stack in stacks for counts in stack]
        families += [random_counts(rng, top=int(rng.choice([5, 50, 500]))) for _ in range(20)]
        for i, counts in enumerate(families):
            s = (1.0, 7.5, 50.0)[i % 3]
            prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=s)
            fit = fit_variational(counts, prior, tol=1e-10)
            assert fit.converged
            p = fit.kappa * counts.n_configs
            w = s / counts.n_configs * p
            n = counts.per_group
            u = w * (digamma(w[None] + n) - digamma(w)[None]).sum(axis=0) + prior.alpha0
            observed = n.sum(axis=(0, 2)) > 0
            assert np.abs(u / u.sum(axis=1, keepdims=True) - p)[observed].max() <= 1e-6

    def test_extreme_families_finite_without_warning(self):
        for arr in EXTREME_FAMILIES:
            arr = np.asarray(arr)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                local = hier.bhd_local_log_scores(arr[None], 1e4, 1e-3)
                fit = fit_variational(make_counts(arr), HierPrior.uniform(arr.shape[1:], s=1e4,
                                                                         s0=1e-3))
            assert np.all(np.isfinite(local)) and fit.converged
            assert np.all(np.isfinite(fit.kappa)) and np.all(fit.kappa > 0)
