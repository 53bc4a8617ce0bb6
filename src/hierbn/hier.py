"""Hierarchical pooling of a family's parameters across groups.

One family (child plus parent set) observed in F groups is modelled with a
shared latent Dirichlet mean: the joint cell probabilities of group f are
drawn around a common centre, and the centre itself carries a Dirichlet
prior. The posterior over the centre is approximated with a factorized
variational family,

    q(centre) = Dirichlet(tau * kappa),   q(theta_f) = Dirichlet(nu_f),

where kappa lives on the simplex over the (parent config, child level) cells
and tau is a concentration. The fitted kappa feeds a closed-form per-group
marginal-likelihood score.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .data import check_count, check_positive
from .scores import bd_local_log_scores, fold_total

KAPPA_FLOOR = 1e-12
_LOG_TAU_MIN = np.log(1e-8)
_LOG_TAU_MAX = np.log(1e10)
_LBFGS_PAIRS = 10
_EPS = np.finfo(float).eps
# a fit stack holds at most this many count cells (one family at least):
# stacking saves per-call overhead on small tables, and large ones have none
# to save
_STACK_CELLS = 2 ** 16


class VariationalConvergenceWarning(RuntimeWarning):
    """Emitted when the fit takes ``max_iters`` L-BFGS steps without its
    gradient falling to tolerance or the bound stalling at float precision."""


@dataclass(frozen=True)
class HierPrior:
    """Hyperparameters of the hierarchical family model.

    ``s`` is the concentration given to each group's Dirichlet around the
    shared centre; ``alpha0`` the Dirichlet hyperprior on the centre itself,
    shaped like the family's (configs, child levels) cell grid.
    """

    s: float
    alpha0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", check_positive("s", self.s))
        alpha0 = np.ascontiguousarray(np.asarray(self.alpha0, dtype=float))
        if alpha0.ndim != 2 or not np.all((alpha0 > 0) & np.isfinite(alpha0)):
            raise ValueError("alpha0 must be a positive, finite (configs, levels) array")
        alpha0.flags.writeable = False
        object.__setattr__(self, "alpha0", alpha0)

    @property
    def s0(self):
        return float(self.alpha0.sum())

    @staticmethod
    def uniform(shape, s, s0=None):
        """Flat hyperprior: every cell gets s0 / n_cells (1.0 when s0 is None)."""
        n_cells = int(shape[0]) * int(shape[1])
        fill = 1.0 if s0 is None else check_positive("s0", s0) / n_cells
        return HierPrior(s, np.full(shape, fill))


@dataclass(frozen=True)
class VariationalFit:
    """Converged variational parameters for one family.

    kappa: shared-centre mean, strictly positive, sums to 1 over all cells.
    tau: centre concentration.
    nu: per-group Dirichlet parameters, shape (F, configs, levels); at the
        fixed point nu = s * kappa + counts holds exactly.
    """

    kappa: np.ndarray
    tau: float
    nu: np.ndarray
    elbo_trace: tuple
    converged: bool

    def __post_init__(self):
        for name in ("kappa", "nu"):
            arr = np.ascontiguousarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _bound_and_grad(n, a0, s, kappa, tau, nu):
    """The bound at (kappa, tau, nu) and its analytic gradient, for one
    family or a stack of families that share ``a0`` and ``s``.

    ``n`` and ``nu`` are (..., F, M), ``kappa`` is (..., M) and ``tau`` is
    (...). Returns (bound, g_rho, g_tau) per family: g_rho is the gradient
    with respect to the softmax logits of kappa, g_tau the plain tau
    derivative. Every array the bound and the gradient share is computed
    once. A family's sums run along its own cells in the order a lone
    family's do, and tau + 1 is squared by ``pow`` as a Python float is, so
    each family gets the same bits alone or in any stack.
    """
    n_groups, m = n.shape[-2:]
    tau = np.asarray(tau, dtype=float)
    tau_col, tau1 = tau[..., None], tau + 1.0
    sk = s * kappa
    tk = tau_col * kappa
    one_minus_kappa = 1.0 - kappa
    a0_minus_1 = a0 - 1.0
    dg_nu = digamma(nu)
    nu_tot = nu.sum(axis=-1)
    dg_nu_tot = digamma(nu_tot)
    e_log_theta = dg_nu - dg_nu_tot[..., None]
    # polygamma(1, x) = zeta(2, x) and polygamma(2, x) = -2 zeta(3, x), the
    # same values from a cheaper call
    pg1_sk = zeta(2, sk)
    pg1_tk = zeta(2, tk)
    pg1_tau = zeta(2, tau)
    dg_tk = digamma(tk)
    tk_tot = tk.sum(axis=-1)
    # E[lnGamma(s * centre_m)] has no closed form: a second-order expansion
    # about the mean, with the Dirichlet(tau * kappa) variance of each coordinate
    var = s * s * kappa * one_minus_kappa / tau1[..., None]
    expected_lgamma = gammaln(sk) + 0.5 * pg1_sk * var
    pg1_ss = pg1_sk * s * s
    tk_minus_1 = tk - 1.0

    # one pairwise sum over each family's F * M cells, as a lone family's .sum()
    cells = (n + sk[..., None, :] - 1.0) * e_log_theta
    value = cells.reshape(cells.shape[:-2] + (n_groups * m,)).sum(axis=-1)
    value += n_groups * float(gammaln(s)) - n_groups * expected_lgamma.sum(axis=-1)
    value += float(gammaln(a0.sum())) - float(gammaln(a0).sum())
    value += (a0_minus_1 * (dg_tk - digamma(tau)[..., None])).sum(axis=-1)
    # entropies of the group Dirichlets and of the centre's
    value += (gammaln(nu).sum(axis=-1) - gammaln(nu_tot) + (nu_tot - m) * dg_nu_tot
              - ((nu - 1.0) * dg_nu).sum(axis=-1)).sum(axis=-1)
    value += (gammaln(tk).sum(axis=-1) - gammaln(tk_tot) + (tk_tot - m) * digamma(tk_tot)
              - (tk_minus_1 * dg_tk).sum(axis=-1))

    d_eg = (s * digamma(sk)
            + 0.5 * (s * (-2.0 * zeta(3, sk)) * var
                     + pg1_ss * (1.0 - 2.0 * kappa) / tau1[..., None]))
    g_kappa = s * e_log_theta.sum(axis=-2) - n_groups * d_eg + (a0 - tk) * tau_col * pg1_tk
    g_rho = kappa * (g_kappa - (g_kappa * kappa).sum(axis=-1, keepdims=True))
    # float_power squares by pow; an array's ** 2 multiplies, which can differ
    g_tau = (n_groups * 0.5 * (pg1_ss * kappa * one_minus_kappa).sum(axis=-1)
             / np.float_power(tau1, 2.0)
             + (a0_minus_1 * (kappa * pg1_tk - pg1_tau[..., None])).sum(axis=-1)
             + (tau - m) * pg1_tau
             - (tk_minus_1 * kappa * pg1_tk).sum(axis=-1))
    return value, g_rho, g_tau


def elbo(counts, prior, kappa, tau, nu):
    """Evidence lower bound of the variational state on a family's counts."""
    n_groups = counts.n_groups
    m = counts.n_configs * counts.child_card
    n = counts.per_group.reshape(n_groups, m).astype(float)
    return float(_bound_and_grad(n, prior.alpha0.reshape(m), prior.s,
                                 np.asarray(kappa, float).reshape(m), float(tau),
                                 np.asarray(nu, float).reshape(n_groups, m))[0])


def _clamp_simplex(kappa):
    kappa = np.maximum(kappa, KAPPA_FLOOR)
    return kappa / kappa.sum(axis=-1, keepdims=True)


def _softmax(logits):
    """scipy.special.softmax's arithmetic along the last axis without its
    array-API dispatch: shift by the max, exponentiate, divide by the sum."""
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _centre(x):
    """(kappa, tau) from x = (softmax logits of kappa, log tau), per row."""
    return _clamp_simplex(_softmax(x[..., :-1])), np.exp(x[..., -1])


def _profiled(n, a0, s, x):
    """(bound, gradient in x) of each row of x with every nu_f at its
    conditional maximiser s * kappa + n_f, where x = (softmax logits of
    kappa, log tau).

    By the envelope theorem the bound is stationary in nu there, so its
    partial gradient in (kappa, tau) is the profiled gradient.
    """
    kappa, tau = _centre(x)
    value, g_rho, g_tau = _bound_and_grad(n, a0, s, kappa, tau, s * kappa[:, None, :] + n)
    return value, np.concatenate([g_rho, (g_tau * tau)[:, None]], axis=1)


def _lbfgs_directions(grad, steps, dgrads, rhos, counts):
    """Two-loop recursion, row by row: each family's inverse-Hessian
    estimate applied to its gradient.

    ``steps`` and ``dgrads`` (pairs, rows, D) and ``rhos`` (pairs, rows, 1)
    hold each row's (step, gradient decrease, 1 / curvature), newest first;
    row b uses its first ``counts[b]`` and holds zeros after them. A row
    with none gets its gradient scaled to unit length. A pass that a row
    has no pair for leaves its q as it is: it subtracts +0.0 or adds -0.0.
    """
    q = grad.copy()
    counts = counts[:, None]
    fewest, most = int(counts.min()), int(counts.max())
    alphas = []
    for j in range(most):  # newest pair first
        alpha = rhos[j] * np.vecdot(steps[j], q, keepdims=True)
        if j >= fewest:
            alpha = np.where(counts > j, alpha, 0.0)
        alphas.append(alpha)
        q -= alpha * dgrads[j]
    if most:
        curvature = np.vecdot(steps[0], dgrads[0], keepdims=True)
        scale = np.vecdot(dgrads[0], dgrads[0], keepdims=True)
        q *= (curvature / scale if fewest else
              np.divide(curvature, scale, out=np.ones_like(scale), where=counts > 0))
    for j in reversed(range(most)):  # oldest pair first
        coef = alphas[j] - rhos[j] * np.vecdot(dgrads[j], q, keepdims=True)
        if j >= fewest:
            coef = np.where(counts > j, coef, -0.0)
        q += coef * steps[j]
    if not fewest:
        bare = counts[:, 0] == 0
        q[bare] = grad[bare] / np.sqrt(np.vecdot(grad[bare], grad[bare], keepdims=True))
    return q


def _max1(values):
    """max(1.0, v) of each value as Python's max takes it: v only if v > 1."""
    return np.where(values > 1.0, values, 1.0)


def fit_variational_stack(per_group, prior, tol=1e-6, max_iters=500):
    """Maximise the bound over the shared centre of each family in a stack.

    ``per_group`` is a (B, F, J, K) stack of count tables, all under the one
    (J, K) ``prior``; returns the B fits in stack order. Each nu_f is held at
    its closed-form conditional maximiser s * kappa + n_f, which leaves the
    bound a function of (kappa, tau) alone; L-BFGS (Nocedal 1980) ascends it
    in the softmax logits of kappa and log tau. A step is accepted only if
    it raises the bound, so ``elbo_trace`` (the start value, then each
    accepted iterate) never decreases. A fit has converged when the largest
    gradient component is at most ``tol * max(1, |initial bound|)``, or when
    no step raises the bound at float precision; after ``max_iters`` steps
    without either it returns the last iterate with a warning.

    The families run in lockstep: each keeps its own L-BFGS pairs, Armijo
    step and stop rule, and each round evaluates one trial point of every
    family still searching, in one call. A family leaves the lockstep when
    it stops, and gets the same bits as it would fitted alone.
    """
    tol = check_positive("tol", tol)
    check_count("max_iters", max_iters, 1)
    per_group = np.asarray(per_group)
    if per_group.ndim != 4:
        raise ValueError("expected a (families, groups, configs, levels) stack of count tables")
    n_fam, n_groups = per_group.shape[:2]
    shape = per_group.shape[2:]
    if prior.alpha0.shape != shape:
        raise ValueError("prior shape does not match the family's cell grid")
    m = shape[0] * shape[1]
    counts = per_group.reshape(n_fam, n_groups, m).astype(float)
    a0 = prior.alpha0.reshape(m)
    s = prior.s
    s0 = float(a0.sum())

    x_out = np.empty((n_fam, m + 1))
    x_out[:, :-1] = np.log(_clamp_simplex(counts.sum(axis=1) + a0))
    x_out[:, -1] = np.log(s0)
    empty = per_group.sum(axis=(1, 2, 3)) == 0
    converged = empty.copy()
    traces = [None] * n_fam

    # the lockstep's state, one row per family still searching
    ids = np.flatnonzero(~empty)
    n, x = counts[ids], x_out[ids]
    value, grad = _profiled(n, a0, s, x) if ids.size else (np.zeros(0), x)
    for b, v in zip(ids.tolist(), value.tolist()):
        traces[b] = [v]
    gtol = tol * _max1(np.abs(value))
    # each row's last _LBFGS_PAIRS pairs, newest first, zeros after them
    steps, dgrads = np.zeros((2, _LBFGS_PAIRS, len(ids), m + 1))
    rhos = np.zeros((_LBFGS_PAIRS, len(ids), 1))
    count = np.zeros(len(ids), dtype=np.intp)
    taken = np.zeros(len(ids), dtype=np.intp)  # accepted steps
    direction = np.zeros_like(x)
    slope, resolution, t = np.zeros((3, len(ids)))
    turn = np.ones(len(ids), dtype=bool)  # at a new iterate: test it, then pick a direction

    while ids.size:
        # families at a new iterate: test the stop rules, then pick directions
        met = turn & (np.abs(grad).max(axis=1) <= gtol)
        converged[ids[met]] = True
        leave = met | (turn & (taken + 1 > max_iters))
        turn &= ~leave
        if turn.any():
            pick = slice(None) if turn.all() else turn
            g = grad[pick]
            direction[pick] = d = _lbfgs_directions(g, steps[:, pick], dgrads[:, pick],
                                                    rhos[:, pick], count[pick])
            slope[pick] = np.vecdot(g, d)
            resolution[pick] = 4.0 * _EPS * _max1(np.abs(value[pick]))
            t[pick] = 1.0
        # a family whose remaining first-order gain is below the float
        # resolution of its bound has converged
        flat = ~leave & ~(t * slope > resolution)
        leave |= flat
        if leave.any():
            converged[ids[flat]] = True
            x_out[ids[leave]] = x[leave]
            stay = ~leave
            ids, n, x, value, grad, gtol = ids[stay], n[stay], x[stay], value[stay], grad[stay], gtol[stay]
            steps, dgrads, rhos = steps[:, stay], dgrads[:, stay], rhos[:, stay]
            count, taken = count[stay], taken[stay]
            direction, slope, resolution, t = direction[stay], slope[stay], resolution[stay], t[stay]
            if not ids.size:
                break

        trial_x = x + t[:, None] * direction
        trial_x[:, -1] = np.minimum(np.maximum(trial_x[:, -1], _LOG_TAU_MIN), _LOG_TAU_MAX)
        trial, trial_grad = _profiled(n, a0, s, trial_x)
        turn = (trial > value) & (trial >= value + 1e-4 * t * slope)
        if turn.all():
            up = slice(None)
        else:
            t[~turn] *= 0.5
            up = np.flatnonzero(turn)
        step, dgrad = trial_x[up] - x[up], grad[up] - trial_grad[up]
        curvature = np.vecdot(step, dgrad)
        keep = curvature > 1e-10 * np.vecdot(dgrad, dgrad)
        if keep.all():
            kept = up
        else:
            kept = np.arange(len(ids))[up][keep]
            step, dgrad, curvature = step[keep], dgrad[keep], curvature[keep]
        steps[1:, kept], dgrads[1:, kept], rhos[1:, kept] = (
            steps[:-1, kept], dgrads[:-1, kept], rhos[:-1, kept])
        steps[0, kept], dgrads[0, kept], rhos[0, kept, 0] = step, dgrad, 1.0 / curvature
        count[kept] = np.minimum(count[kept] + 1, _LBFGS_PAIRS)
        x[up], value[up], grad[up] = trial_x[up], trial[up], trial_grad[up]
        taken[up] += 1
        for b, v in zip(ids[up].tolist(), trial[up].tolist()):
            traces[b].append(v)

    kappa, tau = _centre(x_out)
    if empty.any():
        # no evidence in any group: posterior centre equals the prior centre
        kappa[empty] = _clamp_simplex(a0 / s0)
        tau[empty] = s0
        bound = _bound_and_grad(counts[empty], a0, s, kappa[empty], tau[empty],
                                s * kappa[empty][:, None, :] + counts[empty])[0]
        for b, v in zip(np.flatnonzero(empty).tolist(), bound.tolist()):
            traces[b] = [v]
    nu = s * kappa[:, None, :] + counts
    fits = []
    for b in range(n_fam):
        if not converged[b]:
            warnings.warn("variational fit stopped at max_iters without meeting tol",
                          VariationalConvergenceWarning, stacklevel=2)
        fits.append(VariationalFit(kappa[b].reshape(shape), float(tau[b]),
                                   nu[b].reshape((n_groups,) + shape), tuple(traces[b]),
                                   bool(converged[b])))
    return fits


def fit_variational(counts, prior, tol=1e-6, max_iters=500):
    """Maximise the bound over the shared centre of one family's groups:
    the one-family case of ``fit_variational_stack``."""
    return fit_variational_stack(counts.per_group[None], prior, tol, max_iters)[0]


def _group_scores(per_group, kappa, s):
    """bhd locals of a (B, F, J, K) stack under its B fitted centres kappa
    (B, J, K): every group term in one kernel call, with cell weights
    s * kappa repeated per group, and each family's F terms folded in group
    order."""
    n_fam, n_groups = per_group.shape[:2]
    terms = bd_local_log_scores(per_group.reshape((-1,) + per_group.shape[2:]),
                                np.repeat(s * kappa, n_groups, axis=0))
    return fold_total(terms.reshape(n_fam, n_groups).T)


def bhd_local_log_score(counts, fit, s=1.0):
    """Per-group marginal likelihood of a family under the fitted centre.

    Each group contributes a closed-form Dirichlet-multinomial term with
    cell weights s * kappa; the group terms are summed in group order. With
    a uniform kappa this reduces exactly to the sum of per-group uniform-
    prior scores, since both run through the same evaluation kernel. It
    scores a stack of one family the way ``bhd_local_log_scores`` scores
    each of its fit stacks.
    """
    if fit.kappa.shape != (counts.n_configs, counts.child_card):
        raise ValueError("fit shape does not match the family's cell grid")
    return float(_group_scores(counts.per_group[None], fit.kappa[None], s)[0])


def bhd_local_log_scores(per_group, s, s0=None, tol=1e-6, max_iters=500):
    """bhd locals of a (B, F, J, K) stack of count tables, as B floats.

    Every family is fitted under the flat hyperprior ``HierPrior.uniform((J,
    K), s, s0)`` with ``fit_variational_stack``, in stacks of at most
    ``_STACK_CELLS`` count cells, and scored as ``bhd_local_log_score``
    scores it; each family gets the same bits as fitted and scored alone.
    """
    per_group = np.asarray(per_group)
    if per_group.ndim != 4:
        raise ValueError("expected a (families, groups, configs, levels) stack of count tables")
    prior = HierPrior.uniform(per_group.shape[2:], s=s, s0=s0)
    size = max(1, _STACK_CELLS // math.prod(per_group.shape[1:]))
    out = np.empty(len(per_group))
    for start in range(0, len(per_group), size):
        stack = per_group[start:start + size]
        fits = fit_variational_stack(stack, prior, tol, max_iters)
        out[start:start + size] = _group_scores(stack, np.array([fit.kappa for fit in fits]), s)
    return out


def hier_posterior_means(counts, fit, s=1.0):
    """Posterior mean joint cell probabilities per group, shape (F, J, K).

    Every group's table is a convex combination of the shared centre kappa
    and the group's empirical frequencies, so each estimate lies between
    the two; tables sum to 1 over all cells of a group.
    """
    if fit.kappa.shape != (counts.n_configs, counts.child_card):
        raise ValueError("fit shape does not match the family's cell grid")
    n = counts.per_group.astype(float)
    totals = n.sum(axis=(1, 2), keepdims=True)
    return (s * fit.kappa[None, :, :] + n) / (s + totals)
