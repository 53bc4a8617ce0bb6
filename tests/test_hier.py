"""Variational fit of the shared centre and the per-group family score."""

import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.special import softmax

import oracles
from hierbn import hier
from hierbn.data import FamilyCounts, family_counts, load_csv
from hierbn.graph import Dag
from hierbn.hier import (HierPrior, VariationalConvergenceWarning,
                         VariationalFit, _bound_and_grad, _softmax,
                         bhd_local_log_score, elbo, fit_variational,
                         fit_variational_stack, hier_posterior_means)
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
        assert fit.tau == prior.s0
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
        counts = make_counts([[[30, 3], [4, 20]], [[2, 25], [18, 6]]])
        prior = HierPrior.uniform((2, 2), s=1.0)
        with pytest.warns(VariationalConvergenceWarning):
            fit = fit_variational(counts, prior, max_iters=1)
        assert not fit.converged

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
                    lambda: fit_variational_stack(stack, prior, max_iters=max_iters),
                    lambda: hier.bhd_local_log_scores(stack, 1.0, max_iters=max_iters)):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                fit()

    @pytest.mark.parametrize("max_iters", [0, -1, np.int64(0)])
    def test_max_iters_below_one_rejected(self, max_iters):
        counts = make_counts([[[3, 1], [0, 2]], [[1, 1], [4, 0]]])
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            fit_variational(counts, HierPrior.uniform((2, 2), s=1.0), max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self):
        counts = make_counts([[[30, 3], [4, 20]], [[2, 25], [18, 6]]])
        prior = HierPrior.uniform((2, 2), s=1.0)
        with pytest.warns(VariationalConvergenceWarning):
            fit = fit_variational(counts, prior, max_iters=np.int32(2))
            lone = fit_variational_stack(counts.per_group[None], prior, max_iters=2)[0]
        assert same_fit(fit, lone)
        assert len(fit.elbo_trace) <= 3

    def test_infinite_tol_rejected(self):
        # every gradient is within an infinite tolerance, so the start point
        # would come back flagged as converged
        counts = make_counts([[[3, 1], [0, 2]], [[1, 1], [4, 0]]])
        prior = HierPrior.uniform((2, 2), s=1.0)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fit_variational(counts, prior, tol=np.inf)
        with pytest.raises(ValueError, match="tol must be a number, got True"):
            fit_variational_stack(counts.per_group[None], prior, tol=True)

    def test_deterministic(self):
        counts = make_counts([[[7, 2], [1, 5]], [[3, 3], [2, 8]]])
        prior = HierPrior.uniform((2, 2), s=1.0)
        a = fit_variational(counts, prior)
        b = fit_variational(counts, prior)
        assert np.array_equal(a.kappa, b.kappa)
        assert a.tau == b.tau
        assert a.elbo_trace == b.elbo_trace

    def test_results_read_only(self):
        counts = make_counts([[[5, 5]]])
        fit = fit_variational(counts, HierPrior.uniform((1, 2), s=1.0))
        with pytest.raises(ValueError):
            fit.kappa[0, 0] = 0.9


def reference_fit(counts, prior):
    """Tight scipy L-BFGS-B maximum of the bound with nu profiled out.

    Restarted from its own optimum until the bound stops rising, so it is
    an oracle for where the package's fit should land.
    """
    from scipy.optimize import minimize
    n_groups = counts.n_groups
    shape = (counts.n_configs, counts.child_card)
    m = shape[0] * shape[1]
    n = counts.per_group.reshape(n_groups, m).astype(float)
    a0 = prior.alpha0.reshape(m)
    s = prior.s

    def decode(x):
        kappa = np.maximum(softmax(x[:-1]), 1e-12)
        return kappa / kappa.sum(), float(np.exp(x[-1]))

    def negative(x):
        kappa, tau = decode(x)
        nu = s * kappa + n
        value, g_rho, g_tau = _bound_and_grad(n, a0, s, kappa, tau, nu)
        return -value, -np.append(g_rho, g_tau * tau)

    start = n.sum(axis=0) + a0
    x = np.append(np.log(start / start.sum()), np.log(a0.sum()))
    best = np.inf
    while True:
        result = minimize(negative, x, jac=True, method="L-BFGS-B",
                          options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-10,
                                   "maxcor": 20})
        if not result.fun < best:
            break
        x, best = result.x, result.fun
    kappa, tau = decode(x)
    return VariationalFit(kappa.reshape(shape), tau,
                          (s * kappa + n).reshape((n_groups,) + shape), (-best,), True)


def k5_f10_family():
    """A K5 family with two parents (125 cells) in 10 groups of 1000 rows."""
    _, data = generate(GenConfig(n_nodes=3, card=5, arc_ratio=1.0, n_groups=10,
                                 rows_per_group=1000, seed=1))
    return family_counts(data, 0, (1, 2))


@pytest.fixture(scope="module")
def oracle_cases():
    """(counts, prior, reference fit): 30 random families and one K5 F10
    family with two parents (125 cells, 1000 rows per group)."""
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
        # at the default tolerance
        for counts, prior, ref in oracle_cases:
            fit = fit_variational(counts, prior)
            error = abs(bhd_local_log_score(counts, fit, prior.s)
                        - bhd_local_log_score(counts, ref, prior.s))
            assert fit.converged
            assert error <= 0.05

    def test_bound_reaches_reference_at_float_precision(self, oracle_cases):
        # the default tolerance bounds the largest gradient component, which
        # leaves up to ~1e-8 |bound| on the 125-cell family; a fit run until
        # the bound stalls must reach the reference optimum itself
        for counts, prior, ref in oracle_cases:
            fit = fit_variational(counts, prior, tol=1e-15)
            bound, best = fit.elbo_trace[-1], ref.elbo_trace[-1]
            assert fit.converged
            assert bound >= best - 1e-9 * abs(bound)

    def test_large_counts_stall_at_float_precision_without_warning(self):
        # 1e5 rows per group: no gradient can reach 1e-15 |bound| in floats,
        # so the fit ends when no step raises the bound, and that is converged
        counts = stall_counts()
        prior = HierPrior.uniform((3, 4), s=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", VariationalConvergenceWarning)
            fit = fit_variational(counts, prior, tol=1e-15)
        assert fit.converged


def oracle_families():
    """(counts, prior, fit options) of 154 families for the bit-for-bit
    comparison with ``oracles.fit_variational_oracle``."""
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
    families.append((make_counts([[[30, 3], [4, 20]], [[2, 25], [18, 6]]]),
                     HierPrior.uniform((2, 2), s=1.0), {"max_iters": 3}))
    families.append((stall_counts(), HierPrior.uniform((3, 4), s=1.0), {"tol": 1e-15}))
    for arr in CLIP_FAMILIES:
        arr = np.asarray(arr)
        families.append((make_counts(arr), HierPrior.uniform(arr.shape[1:], s=1e4, s0=1e-3), {}))
    for i in range(8):
        counts = random_counts(rng, max_groups=10, max_configs=25, max_levels=5, top=50)
        prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
        families.append((counts, prior, {"tol": 1e-12}))
    return families


# families whose trial points reach the largest and the smallest tau
CLIP_FAMILIES = ([[[0, 2]]], [[[1, 3], [0, 1]]])


def fit_recording(fit, counts, prior, options):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(counts, prior, **options)
    return result, [w.category for w in caught]


class TestFitMatchesOracle:
    def test_same_bits_on_every_family(self):
        families = oracle_families()
        assert len(families) >= 150
        capped = 0
        for counts, prior, options in families:
            fit, warned = fit_recording(fit_variational, counts, prior, options)
            ref, ref_warned = fit_recording(oracles.fit_variational_oracle, counts, prior,
                                            options)
            assert fit.kappa.tobytes() == ref.kappa.tobytes()
            assert fit.tau == ref.tau
            assert fit.elbo_trace == ref.elbo_trace
            assert fit.converged == ref.converged
            assert fit.nu.tobytes() == ref.nu.tobytes()
            assert warned == ref_warned
            capped += warned == [VariationalConvergenceWarning]
        assert capped == 1

    def test_clip_families_reach_both_tau_bounds(self, monkeypatch):
        # the bit-for-bit comparison covers the clip of log tau only if some
        # trial point lands on it
        taus = []

        def recording(n, a0, s, kappa, tau, nu):
            taus.extend(np.ravel(tau).tolist())  # one tau per family of the stack
            return _bound_and_grad(n, a0, s, kappa, tau, nu)

        monkeypatch.setattr(hier, "_bound_and_grad", recording)
        reached = set()
        for arr in CLIP_FAMILIES:
            arr = np.asarray(arr)
            taus.clear()
            fit_variational(make_counts(arr), HierPrior.uniform(arr.shape[1:], s=1e4, s0=1e-3))
            reached |= {tau for tau in taus
                        if tau in (float(np.exp(hier._LOG_TAU_MIN)),
                                   float(np.exp(hier._LOG_TAU_MAX)))}
        assert len(reached) == 2

    def test_softmax_matches_scipy_bitwise(self):
        rng = np.random.default_rng(53)
        for _ in range(10000):
            logits = rng.normal(size=int(rng.integers(1, 130))) * float(rng.choice([0.1, 3.0, 40.0]))
            logits += float(rng.normal()) * 100.0
            assert _softmax(logits).tobytes() == softmax(logits).tobytes()

    def test_one_evaluation_per_trial_point(self, monkeypatch):
        # the oracle evaluates the bound at every trial point and the gradient
        # again at every accepted one; the package's fit must evaluate each
        # trial point once, bound and gradient together
        calls = Counter()

        def counting(name, function):
            def counted(*args):
                calls[name] += 1
                return function(*args)
            return counted

        monkeypatch.setattr(hier, "_bound_and_grad", counting("fit", _bound_and_grad))
        monkeypatch.setattr(oracles, "_profiled_elbo",
                            counting("oracle bound", oracles._profiled_elbo))
        monkeypatch.setattr(oracles, "_profiled_grad",
                            counting("oracle gradient", oracles._profiled_grad))
        counts = k5_f10_family()
        prior = HierPrior.uniform((counts.n_configs, counts.child_card), s=1.0)
        fit = fit_variational(counts, prior)
        oracles.fit_variational_oracle(counts, prior)
        accepted = len(fit.elbo_trace) - 1
        rejected = calls["oracle bound"] - calls["oracle gradient"]
        assert accepted > 0 and rejected >= 0
        assert calls["oracle gradient"] == 1 + accepted
        assert calls["fit"] == 1 + accepted + rejected


# a family one of whose trial points has a tau where (tau + 1) ** 2 by pow
# and (tau + 1) * (tau + 1) differ in the last bit
POW_FAMILY = [[[13, 5]]]


def stack_cases():
    """(stack, prior, fit options) of stacks of equal-shape families for
    the comparison with lone fits: random stacks with sparse and all-zero
    members, capped stacks, the clip and pow families among others of their
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
        cases.append((stack, HierPrior.uniform((j, k), s=s, s0=s0), options))
    pair = [[[30, 3], [4, 20]], [[2, 25], [18, 6]]]
    cases.append((np.array([pair, np.zeros((2, 2, 2), int), pair[::-1]]),
                  HierPrior.uniform((2, 2), s=1.0), {"max_iters": 3}))
    for arr in CLIP_FAMILIES:
        arr = np.asarray(arr)
        others = rng.integers(0, 6, size=(3,) + arr.shape)
        cases.append((np.concatenate([others[:1], arr[None], others[1:]]),
                      HierPrior.uniform(arr.shape[1:], s=1e4, s0=1e-3), {}))
    for options in ({}, {"tol": 1e-12}):
        cases.append((np.array([[[[2, 9]]], POW_FAMILY, [[[40, 1]]]]),
                      HierPrior.uniform((1, 2), s=1.0), options))
    return cases


def same_fit(a, b):
    return (a.kappa.tobytes() == b.kappa.tobytes() and a.tau == b.tau
            and a.elbo_trace == b.elbo_trace and a.converged == b.converged
            and a.nu.tobytes() == b.nu.tobytes())


class TestFitStack:
    def test_each_family_gets_its_lone_and_oracle_bits(self):
        cases = stack_cases()
        zero_members = capped_stacks = 0
        for stack, prior, options in cases:
            fits, warned = fit_recording(fit_variational_stack, stack, prior, options)
            assert len(fits) == len(stack)
            lone_warned = []
            for table, fit in zip(stack, fits):
                counts = make_counts(table)
                lone, lone_warning = fit_recording(fit_variational, counts, prior, options)
                ref, ref_warning = fit_recording(oracles.fit_variational_oracle, counts, prior,
                                                 options)
                assert same_fit(fit, lone)
                assert same_fit(fit, ref)
                assert lone_warning == ref_warning
                lone_warned += lone_warning
                zero_members += counts.total == 0 and len(stack) > 1
            # each capped family warns once, in stack order
            assert warned == lone_warned
            capped_stacks += len(warned) == 2
        assert zero_members >= 3 and capped_stacks >= 1

    def test_pow_family_squares_tau_plus_one_where_pow_and_product_differ(self, monkeypatch):
        # the comparison above catches squaring by ** on an array only if a
        # trial point lands on such a tau
        taus = []

        def recording(n, a0, s, kappa, tau, nu):
            taus.extend(np.ravel(tau).tolist())
            return _bound_and_grad(n, a0, s, kappa, tau, nu)

        monkeypatch.setattr(hier, "_bound_and_grad", recording)
        arr = np.asarray(POW_FAMILY)
        fit_variational_stack(arr[None], HierPrior.uniform(arr.shape[1:], s=1.0))
        assert any((t + 1.0) ** 2 != (t + 1.0) * (t + 1.0) for t in taus)

    def test_each_round_evaluates_every_searching_family_once(self, monkeypatch):
        # one bound call per round, with one row per family still searching:
        # as many calls as the longest lone fit makes, as many rows as all make
        calls = []

        def counting(n, a0, s, kappa, tau, nu):
            calls.append(np.size(tau))
            return _bound_and_grad(n, a0, s, kappa, tau, nu)

        monkeypatch.setattr(hier, "_bound_and_grad", counting)
        rng = np.random.default_rng(61)
        stack = rng.integers(0, 40, size=(6, 4, 5, 3)) * np.array([1, 2, 3, 30, 1, 300])[:, None, None, None]
        stack[4] *= rng.random(stack[4].shape) < 0.3
        prior = HierPrior.uniform((5, 3), s=1.0)
        lone = []
        for table in stack:
            calls.clear()
            fit_variational(make_counts(table), prior)
            lone.append(len(calls))
        calls.clear()
        fit_variational_stack(stack, prior)
        assert len(calls) == max(lone) and sum(calls) == sum(lone)
        assert len(set(lone)) > 1

    def test_bad_stacks_rejected(self):
        prior = HierPrior.uniform((2, 2), s=1.0)
        with pytest.raises(ValueError, match="stack of count tables"):
            fit_variational_stack(np.ones((2, 2, 2), int), prior)
        with pytest.raises(ValueError, match="prior shape"):
            fit_variational_stack(np.ones((2, 1, 2, 3), int), prior)
        with pytest.raises(ValueError, match="tol"):
            fit_variational_stack(np.ones((2, 1, 2, 2), int), prior, tol=0.0)
        assert fit_variational_stack(np.ones((0, 1, 2, 2), int), prior) == []


class TestElboGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(12):
            f = int(rng.integers(1, 4))
            m = int(rng.integers(2, 9))
            n = rng.integers(0, 30, size=(f, m)).astype(float)
            a0 = rng.uniform(0.3, 2.0, size=m)
            s = float(rng.uniform(0.5, 3.0))
            rho = rng.normal(size=m)
            kappa = softmax(rho)
            tau = float(rng.uniform(0.5, 20.0))
            nu = s * kappa + n + rng.uniform(0, 1, size=(f, m))
            _, g_rho, g_tau = _bound_and_grad(n, a0, s, kappa, tau, nu)
            h = 1e-6
            fd_rho = np.zeros(m)
            for a in range(m):
                up, down = rho.copy(), rho.copy()
                up[a] += h
                down[a] -= h
                fd_rho[a] = (_bound_and_grad(n, a0, s, softmax(up), tau, nu)[0]
                             - _bound_and_grad(n, a0, s, softmax(down), tau, nu)[0]) / (2 * h)
            fd_tau = (_bound_and_grad(n, a0, s, kappa, tau + h, nu)[0]
                      - _bound_and_grad(n, a0, s, kappa, tau - h, nu)[0]) / (2 * h)
            scale = max(1.0, float(np.abs(fd_rho).max()), abs(fd_tau))
            err = max(float(np.abs(fd_rho - g_rho).max()), abs(fd_tau - g_tau)) / scale
            worst = max(worst, err)
        assert worst < 1e-5


class TestElbo:
    def test_finite_on_random_states(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            counts = random_counts(rng)
            shape = (counts.n_configs, counts.child_card)
            prior = HierPrior.uniform(shape, s=1.0)
            kappa = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
            tau = float(rng.uniform(0.1, 50.0))
            nu = rng.uniform(0.2, 5.0, size=counts.per_group.shape)
            assert np.isfinite(elbo(counts, prior, kappa, tau, nu))

    def test_closed_form_group_update_is_conditional_maximizer(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            counts = random_counts(rng)
            shape = (counts.n_configs, counts.child_card)
            prior = HierPrior.uniform(shape, s=1.0)
            kappa = prior.alpha0 / prior.s0
            tau = float(rng.uniform(0.5, 10.0))
            best_nu = prior.s * kappa[None] + counts.per_group
            at_best = elbo(counts, prior, kappa, tau, best_nu)
            for _ in range(5):
                noise = rng.uniform(-0.1, 0.1, size=best_nu.shape)
                trial = np.maximum(best_nu + noise, 1e-3)
                assert elbo(counts, prior, kappa, tau, trial) <= at_best + 1e-10


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
