"""Hierarchical pooling of a family's parameters across groups.

One family (child plus parent set) observed in F groups gets one centre
p_j on the simplex over the K child levels for each of its J parent
configurations. Group f's child distribution in configuration j is
Dirichlet((s / J) * p_j), and p_j has the Dirichlet hyperprior
``alpha0[j]`` (one per level by default). This is the hierarchical
Dirichlet over conditional tables of Azzimonti, Corani & Zaffalon (2019).
The configurations are independent a priori, so a family's evidence is a
product over them, and a configuration with no rows contributes exactly 1.

An observed configuration's evidence is the Laplace approximation
(Tierney & Kadane 1986) at the mode of the centre's log posterior in the
additive-log-ratio basis x = (log p_k - log p_K), k < K (MacKay 1998):

    g(x) = sum_f log DM(n_fj | (s / J) * p) + log Dir(p | alpha0_j) + sum_k log p_k,
    log evidence = g(x*) + (K - 1) / 2 * log(2 pi) - log det(-H(x*)) / 2,

where DM is the Dirichlet-multinomial and the last sum of g is the
Jacobian of the basis. g is concave in p, so the mode is unique. The fit
starts with ``_FIXED_POINT_STEPS`` fixed-point steps on the mode's
stationarity condition (Minka 2000), which walk from the pooled
frequencies most of the way to the mode, and Newton steps polish the
result and give the Hessian of the Laplace term. A
``VariationalFit`` reports a family's centres as one (J, K) ``kappa``
whose row j is p_j / J, so that ``s * kappa`` holds every configuration's
Dirichlet weights.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .data import check_count, check_positive
from .scores import bd_local_log_scores, fold_total

_EPS = np.finfo(float).eps
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# a fit stack holds at most this many count cells (one configuration at
# least): stacking saves per-call overhead on small tables, and large ones
# have none to save
_STACK_CELLS = 2 ** 16
# fixed-point steps on the mode's stationarity condition that start every
# centre fit before its Newton steps
_FIXED_POINT_STEPS = 5


class VariationalConvergenceWarning(RuntimeWarning):
    """Emitted when a centre's fit takes ``max_iters`` Newton steps without
    its gradient falling to tolerance or its log posterior stalling at
    float precision."""


@dataclass(frozen=True)
class HierPrior:
    """Hyperparameters of the hierarchical family model.

    ``s`` is the concentration shared by a family's J configurations: each
    group's Dirichlet around configuration j's centre has total weight s /
    J. ``alpha0`` is shaped like the family's (configs, child levels) cell
    grid, and row j is the Dirichlet hyperprior on configuration j's centre.
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
    """The fitted centres of one family.

    kappa: (configs, levels); row j is configuration j's centre at its
        posterior mode divided by J, or its hyperprior mean divided by J
        when it has no rows, so kappa is strictly positive and sums to 1.
    tau: the concentration s the centres were fitted under.
    nu: per-group Dirichlet parameters, shape (F, configs, levels): each
        group's posterior given the centres, nu = s * kappa + counts.
    elbo_trace: the summed log posterior of the observed configurations,
        at the warmed-up start and after each Newton step (a configuration
        that has stopped keeps its last value); it never decreases.
    converged: every configuration met the stop rule within the step cap.
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


def _log_centre(x):
    """log p from softmax logits x, row by row: the arithmetic of
    scipy.special.log_softmax."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _posterior(n, a0, a, const, x):
    """(g, gradient, Newton step, log det(-H)) of each row at the softmax
    logits x of its centre p.

    ``n`` is (P, K, F), each cell's group counts contiguous, ``a0`` (P, K)
    and ``const`` (P,) the part of g that does not depend on p. With u_k =
    p_k dg/dp_k and s_k = -p_k^2 d2g/dp_k^2 (positive: g is concave in p),
    the gradient in x is u - p * sum(u). The Newton step is the one of the
    constrained problem in p, dp = p * (u + lam * p) / s with lam fixing
    sum(dp) = 0, returned as r = dp / p: the logits move by t * r, which is
    the step dx_l = r_l - r_K in the log-ratio basis with any level as its
    reference K. There it solves -H dx = gradient, with -H = J' diag(s /
    p^2) J for J = dp/dx: the Hessian less its terms in the gradient, so
    positive definite everywhere and equal to the Hessian at the mode. Its
    log determinant is sum(log s) + log sum(p^2 / s), the same for every
    reference level. Every sum runs along a row's own contiguous last axis,
    so a row gets the same bits in any stack.
    """
    log_p = _log_centre(x)
    p = np.exp(log_p)
    ap = a * p
    # each cell's weight a * p_k, then a * p_k + n_fk for every group f: one
    # call of each special function on both
    both = np.concatenate([ap[..., None], ap[..., None] + n], axis=-1)
    # a cell without rows adds exactly 0 to g and to each derivative
    lg, dg = gammaln(both), digamma(both)
    dm = lg[..., 1:] - lg[..., :1]
    value = const + dm.reshape(len(n), math.prod(n.shape[1:])).sum(axis=1) + (a0 * log_p).sum(axis=1)
    u = ap * (dg[..., 1:] - dg[..., :1]).sum(axis=-1) + a0
    # polygamma(1, x) = zeta(2, x), the same values from a cheaper call
    pg1 = zeta(2, both)
    s = ap * ap * (pg1[..., :1] - pg1[..., 1:]).sum(axis=-1) + a0
    spread = (p * p / s).sum(axis=1, keepdims=True)
    step = (u - (u * p / s).sum(axis=1, keepdims=True) / spread * p) / s
    return (value, u - p * u.sum(axis=1, keepdims=True), step,
            np.log(s).sum(axis=1) + np.log(spread[:, 0]))


def _warm_start(n, a0, a):
    """Logits of each row's centre after ``_FIXED_POINT_STEPS`` fixed-point
    steps from the pooled frequencies, for (P, K, F) counts ``n``.

    With u_k = p_k dg/dp_k = a0_k + sum_f w_k [digamma(w_k + n_fk) -
    digamma(w_k)] at w = a * p (the ``u`` of ``_posterior``), g's gradient
    in the logits is u - p * sum(u), so the mode is the fixed point of p <-
    u / sum(u) (Minka 2000). The pooled frequencies are the mode only when
    a is large; from them the steps walk most of the way to it, one digamma
    per cell each, and leave Newton the polish. Every sum runs along a
    row's own contiguous last axis.
    """
    p = n.sum(axis=2) + a0
    p /= p.sum(axis=1, keepdims=True)
    for _ in range(_FIXED_POINT_STEPS):
        ap = a * p
        u = ap * (digamma(ap[..., None] + n) - digamma(ap)[..., None]).sum(axis=-1) + a0
        p = u / u.sum(axis=1, keepdims=True)
    return np.log(p)


def _newton_fit(n, a0, a, tol, max_iters, traces=None):
    """Fit the centre of each configuration of a (P, F, K) stack of group
    counts, under its row of the (P, K) hyperpriors ``a0`` and the group
    weight ``a``; returns (p, log evidence, converged), one row each.

    Each row starts at its ``_warm_start`` point, and Newton steps run from
    there in lockstep: each row keeps its own Armijo backtracking, step
    count and stop rule, and each round evaluates one trial point of every
    row still searching in one call, its value, gradient and Newton step
    together. A row has converged when the largest component of its
    gradient in the logits is at most ``tol * max(1, |g at the start|)``,
    g at the warmed-up point, or when no step raises g at float precision;
    it stops unconverged after ``max_iters`` Newton steps, the warm-up's
    not counted. The warm-up, logits, steps and stop rule treat every
    child level alike, so relabelling the levels moves no row's path. A row
    leaves the lockstep when it stops and gets the same bits as it would
    fitted alone. With a list for ``traces``, it receives each row's list
    of g, at the warmed-up start and after each Newton step.
    """
    n_rows, _, k = n.shape
    totals = n.sum(axis=2)
    n = np.ascontiguousarray(np.swapaxes(n, 1, 2), dtype=float)
    const = ((gammaln(a) - gammaln(a + totals)).sum(axis=1)
             + gammaln(a0.sum(axis=1)) - gammaln(a0).sum(axis=1))
    x = _warm_start(n, a0, a)
    value, grad, direction, log_det = _posterior(n, a0, a, const, x)
    history = None if traces is None else [[v] for v in value.tolist()]
    gtol = tol * np.maximum(np.abs(value), 1.0)
    x_out, value_out, log_det_out = np.empty_like(x), np.empty(n_rows), np.empty(n_rows)
    converged = np.zeros(n_rows, dtype=bool)

    # the lockstep's state, one row per configuration still searching
    ids = np.arange(n_rows)
    taken = np.zeros(n_rows, dtype=np.intp)  # accepted steps
    t = np.ones(n_rows)
    turn = np.ones(n_rows, dtype=bool)  # at a new iterate: test it, then start its line search
    while ids.size:
        met = turn & (np.abs(grad).max(axis=1) <= gtol)
        leave = met | (turn & (taken >= max_iters))
        # both change only at a new iterate
        slope = np.vecdot(grad, direction)
        resolution = 4.0 * _EPS * np.maximum(np.abs(value), 1.0)
        t[turn] = 1.0
        # a row whose remaining first-order gain is below the float
        # resolution of g has converged
        flat = ~leave & ~(t * slope > resolution)
        converged[ids[met | flat]] = True
        leave |= flat
        if leave.any():
            done = ids[leave]
            x_out[done], value_out[done], log_det_out[done] = x[leave], value[leave], log_det[leave]
            stay = ~leave
            ids, n, a0, const, gtol, taken = ids[stay], n[stay], a0[stay], const[stay], gtol[stay], taken[stay]
            x, value, grad, direction, log_det = x[stay], value[stay], grad[stay], direction[stay], log_det[stay]
            slope, t = slope[stay], t[stay]
            if not ids.size:
                break
        trial_x = x + t[:, None] * direction
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            trial = _posterior(n, a0, a, const, trial_x)
        turn = (trial[0] > value) & (trial[0] >= value + 1e-4 * t * slope)
        t[~turn] *= 0.5
        x[turn] = trial_x[turn]
        for mine, new in zip((value, grad, direction, log_det), trial):
            mine[turn] = new[turn]
        taken[turn] += 1
        if history is not None:
            for b, v in zip(ids[turn].tolist(), trial[0][turn].tolist()):
                history[b].append(v)

    if history is not None:
        traces.extend(history)
    evidence = value_out + (k - 1) * _HALF_LOG_2PI - 0.5 * log_det_out
    return np.exp(_log_centre(x_out)), evidence, converged


def _checked_stack(per_group, tol, max_iters):
    per_group = np.asarray(per_group)
    if per_group.ndim != 4:
        raise ValueError("expected a (families, groups, configs, levels) stack of count tables")
    check_positive("tol", tol)
    check_count("max_iters", max_iters, 1)
    return per_group


def _fit_stack(per_group, prior, tol, max_iters, traces=None):
    """Fit every observed configuration of a (B, F, J, K) stack under
    ``prior``, in stacks of at most ``_STACK_CELLS`` count cells. Returns
    the (B, J) mask of observed configurations and, for them in stack
    order, (p, log evidence, converged)."""
    observed = per_group.sum(axis=(1, 3)) > 0
    rows = np.swapaxes(per_group, 1, 2)[observed]
    a0 = np.broadcast_to(prior.alpha0, observed.shape + prior.alpha0.shape[1:])[observed]
    a = prior.s / per_group.shape[2]
    size = max(1, _STACK_CELLS // math.prod(per_group.shape[1::2]))
    parts = [_newton_fit(rows[i:i + size], a0[i:i + size], a, tol, max_iters, traces)
             for i in range(0, max(len(rows), 1), size)]
    return (observed,) + tuple(np.concatenate(part) for part in zip(*parts))


def _warn_capped(observed, converged):
    """One warning per family, in stack order, with a capped configuration;
    returns each family's flag."""
    capped = np.zeros(observed.shape, dtype=bool)
    capped[observed] = ~converged
    for _ in np.flatnonzero(capped.any(axis=1)):
        warnings.warn("centre fit stopped at max_iters without meeting tol",
                      VariationalConvergenceWarning, stacklevel=3)
    return ~capped.any(axis=1)


def fit_variational_stack(per_group, prior, tol=1e-6, max_iters=500):
    """Fit the centres of each family in a (B, F, J, K) stack of count
    tables, all under the one (J, K) ``prior``; returns the B fits in stack
    order. Every observed configuration of the stack is fitted by
    ``_newton_fit`` in one lockstep, so each family gets the same bits
    alone or in any stack; a configuration without rows keeps its
    hyperprior mean. A family with a configuration capped at ``max_iters``
    steps warns once.
    """
    per_group = _checked_stack(per_group, tol, max_iters)
    n_fam, shape = len(per_group), per_group.shape[2:]
    if prior.alpha0.shape != shape:
        raise ValueError("prior shape does not match the family's cell grid")
    traces = []
    observed, p, _, converged = _fit_stack(per_group, prior, tol, max_iters, traces)
    kappa = np.repeat((prior.alpha0 / prior.alpha0.sum(axis=1, keepdims=True))[None], n_fam, axis=0)
    kappa[observed] = p
    kappa /= shape[0]
    nu = prior.s * kappa[:, None] + per_group
    fine = _warn_capped(observed, converged)
    fits, start = [], 0
    for b in range(n_fam):
        mine = traces[start:start + int(observed[b].sum())]
        start += len(mine)
        length = max(map(len, mine), default=1)
        trace = tuple(fold_total([values[min(i, len(values) - 1)] for values in mine])
                      for i in range(length))
        fits.append(VariationalFit(kappa[b], prior.s, nu[b], trace, bool(fine[b])))
    return fits


def fit_variational(counts, prior, tol=1e-6, max_iters=500):
    """Fit the centres of one family's configurations: the one-family case
    of ``fit_variational_stack``."""
    return fit_variational_stack(counts.per_group[None], prior, tol, max_iters)[0]


def bhd_local_log_score(counts, fit, s=1.0):
    """The groups' Dirichlet-multinomial evidence at the given centre.

    Each group contributes a closed-form term with cell weights s * kappa,
    and the group terms are summed in group order. With a uniform kappa
    this reduces exactly to the sum of per-group uniform-prior scores,
    since both run through the same evaluation kernel. This is the
    evidence given the centre, not the family's score: ``--score bhd`` is
    the Laplace evidence of ``bhd_local_log_scores``, which integrates
    over each configuration's centre.
    """
    if fit.kappa.shape != (counts.n_configs, counts.child_card):
        raise ValueError("fit shape does not match the family's cell grid")
    return float(fold_total(bd_local_log_scores(counts.per_group, s * fit.kappa)))


def bhd_local_log_scores(per_group, s, s0=None, tol=1e-6, max_iters=500):
    """bhd locals of a (B, F, J, K) stack of count tables, as B floats.

    Every observed configuration is fitted under its row of the flat
    hyperprior ``HierPrior.uniform((J, K), s, s0)`` by ``_newton_fit``, in
    stacks of at most ``_STACK_CELLS`` count cells, and scored by its
    Laplace evidence; a family's local folds its configurations' evidences
    in configuration order with ``fold_total``, an empty one adding 0. Each
    family gets the same bits alone or in any stack, and a family with a
    configuration capped at ``max_iters`` steps warns once.
    """
    per_group = _checked_stack(per_group, tol, max_iters)
    prior = HierPrior.uniform(per_group.shape[2:], s=s, s0=s0)
    observed, _, evidence, converged = _fit_stack(per_group, prior, tol, max_iters)
    _warn_capped(observed, converged)
    locals_ = np.zeros(observed.shape)
    locals_[observed] = evidence
    return fold_total(locals_.T)


def hier_posterior_means(counts, fit, s=1.0):
    """Posterior mean joint cell probabilities per group, shape (F, J, K).

    Every group's table is a convex combination of the centres kappa and
    the group's empirical frequencies, so each estimate lies between the
    two; tables sum to 1 over all cells of a group.
    """
    if fit.kappa.shape != (counts.n_configs, counts.child_card):
        raise ValueError("fit shape does not match the family's cell grid")
    n = counts.per_group.astype(float)
    totals = n.sum(axis=(1, 2), keepdims=True)
    return (s * fit.kappa[None, :, :] + n) / (s + totals)
