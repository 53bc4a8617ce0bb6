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
Jacobian of the basis. g is concave in p, so the mode is unique. Each
centre is fitted from the pooled frequencies by the fixed-point step p <-
u / sum(u) on the mode's stationarity condition (Minka 2000), a
minorize-maximize step (Hunter & Lange 2004) under which g never falls,
until its gradient meets the tolerance or the step stops moving p; the
Laplace term's Hessian has a closed form at the result. A
``VariationalFit`` reports a family's centres as one (J, K) ``kappa``
whose row j is p_j / J, so that ``s * kappa`` holds every configuration's
Dirichlet weights.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import check_count, check_positive
from .scores import bd_local_log_scores, fold_total

# scipy.special is imported inside the functions that call it, as in
# scores.bd_local_log_scores: a process that never scores does not load it

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# a fit stack holds at most this many count cells (one configuration at
# least): stacking saves per-call overhead on small tables, and large ones
# have none to save
_STACK_CELLS = 2 ** 16


class VariationalConvergenceWarning(RuntimeWarning):
    """Emitted when a centre's fit takes ``max_iters`` fixed-point steps
    without its gradient falling to tolerance or a step leaving its centre
    unchanged in floats."""


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
        at the pooled start and after each fixed-point step (a
        configuration that has stopped keeps its last value); it never
        decreases beyond rounding.
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


def _log_posterior(n, a0, a, const, p):
    """g of each row at its centre p, for (P, K, F) counts ``n``, (P, K)
    hyperpriors ``a0`` and (P,) ``const``, the part of g that does not
    depend on p; a cell without rows adds exactly 0."""
    from scipy.special import gammaln
    ap = a * p
    dm = gammaln(ap[..., None] + n) - gammaln(ap)[..., None]
    return (const + dm.reshape(len(n), math.prod(n.shape[1:])).sum(axis=1)
            + (a0 * np.log(p)).sum(axis=1))


def _scaled_gradient(n, a0, a, p):
    """u_k = p_k dg/dp_k = a0_k + sum_f w_k [digamma(w_k + n_fk) -
    digamma(w_k)] of each row at w = a * p; g's gradient in the logits of
    p is u - p * sum(u)."""
    from scipy.special import digamma
    ap = a * p
    return ap * (digamma(ap[..., None] + n) - digamma(ap)[..., None]).sum(axis=-1) + a0


def _log_det(n, a0, a, p):
    """log det(-H) of each row at its centre p, in the log-ratio basis
    with any level as its reference: with s_k = a0_k + w_k^2 sum_f
    [trigamma(w_k) - trigamma(w_k + n_fk)], positive as g is concave in p,
    it is sum(log s) + log sum(p^2 / s). -H here is the Hessian less its
    terms in the gradient, so it equals the Hessian at the mode."""
    from scipy.special import zeta
    ap = a * p
    # polygamma(1, x) = zeta(2, x), the same values from a cheaper call
    s = ap * ap * (zeta(2, ap)[..., None] - zeta(2, ap[..., None] + n)).sum(axis=-1) + a0
    return np.log(s).sum(axis=1) + np.log((p * p / s).sum(axis=1))


def _fixed_point_fit(n, a0, a, tol, max_iters, traces=None):
    """Fit the centre of each configuration of a (P, F, K) stack of group
    counts, under its row of the (P, K) hyperpriors ``a0`` and the group
    weight ``a``; returns (p, log evidence, converged), one row each.

    Every row starts at its pooled frequencies p = (sum_f n_f + a0) /
    total, and each step takes u = ``_scaled_gradient`` at p and moves to
    p <- u / sum(u), whose fixed point is the mode. The step maximises a
    minorizer of g built from the convexity of lnGamma(x + n) - lnGamma(x)
    in log x (Minka 2000), so g never falls and needs no line search. A
    row has converged when the largest component of its gradient u - p *
    sum(u) is at most ``tol * max(1, |g at the pooled start|)`` or when a
    step leaves its p unchanged in floats; either way it keeps that step's
    u / sum(u) and leaves the stack. A row still searching after
    ``max_iters`` steps stops unconverged. Every sum runs along a row's own
    contiguous last axis, so a row gets the same bits in any stack, and no
    child level is singled out. The evidence is the Laplace approximation
    at the final p, g and ``_log_det`` evaluated there once. With a list
    for ``traces``, it receives each row's list of g, at the start and
    after each step.
    """
    from scipy.special import gammaln
    n_rows, _, k = n.shape
    totals = n.sum(axis=2)
    n = np.ascontiguousarray(np.swapaxes(n, 1, 2), dtype=float)
    const = ((gammaln(a) - gammaln(a + totals)).sum(axis=1)
             + gammaln(a0.sum(axis=1)) - gammaln(a0).sum(axis=1))
    p = n.sum(axis=2) + a0
    p /= p.sum(axis=1, keepdims=True)
    start = _log_posterior(n, a0, a, const, p)
    history = None if traces is None else [[v] for v in start.tolist()]
    gtol = tol * np.maximum(np.abs(start), 1.0)
    fitted, converged = np.empty_like(p), np.zeros(n_rows, dtype=bool)

    # the rows still searching
    ids, rows, row_a0, row_const = np.arange(n_rows), n, a0, const
    for _ in range(max_iters):
        u = _scaled_gradient(rows, row_a0, a, p)
        total = u.sum(axis=1, keepdims=True)
        met = np.abs(u - p * total).max(axis=1) <= gtol
        step = u / total
        met |= (step == p).all(axis=1)
        p = step
        if history is not None:
            for b, v in zip(ids.tolist(), _log_posterior(rows, row_a0, a, row_const, p).tolist()):
                history[b].append(v)
        if met.any():
            fitted[ids[met]], converged[ids[met]] = p[met], True
            stay = ~met
            ids, p, rows, row_a0, row_const, gtol = (ids[stay], p[stay], rows[stay], row_a0[stay],
                                                      row_const[stay], gtol[stay])
        if not ids.size:
            break
    fitted[ids] = p

    if history is not None:
        traces.extend(history)
    evidence = (_log_posterior(n, a0, a, const, fitted) + (k - 1) * _HALF_LOG_2PI
                - 0.5 * _log_det(n, a0, a, fitted))
    return fitted, evidence, converged


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
    size = max(1, _STACK_CELLS // max(1, math.prod(per_group.shape[1::2])))  # F may be 0
    parts = [_fixed_point_fit(rows[i:i + size], a0[i:i + size], a, tol, max_iters, traces)
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
    ``_fixed_point_fit`` on its own path, so each family gets the same bits
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
    hyperprior ``HierPrior.uniform((J, K), s, s0)`` by ``_fixed_point_fit``, in
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
