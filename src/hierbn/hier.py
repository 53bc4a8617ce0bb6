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

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, zeta

KAPPA_FLOOR = 1e-12
_LOG_TAU_MIN = np.log(1e-8)
_LOG_TAU_MAX = np.log(1e10)
_LBFGS_PAIRS = 10
_EPS = np.finfo(float).eps


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
        if not (self.s > 0 and np.isfinite(self.s)):
            raise ValueError("s must be positive and finite")
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
        fill = 1.0 if s0 is None else float(s0) / n_cells
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
    """The bound at (kappa, tau, nu) and its analytic gradient.

    Returns (bound, g_rho, g_tau): g_rho is the gradient with respect to the
    softmax logits of kappa, g_tau the plain tau derivative. Every array the
    bound and the gradient share is computed once.
    """
    n_groups, m = n.shape
    sk = s * kappa
    tk = tau * kappa
    one_minus_kappa = 1.0 - kappa
    a0_minus_1 = a0 - 1.0
    dg_nu = digamma(nu)
    nu_tot = nu.sum(axis=1)
    dg_nu_tot = digamma(nu_tot)
    e_log_theta = dg_nu - dg_nu_tot[:, None]
    # polygamma(1, x) = zeta(2, x) and polygamma(2, x) = -2 zeta(3, x), the
    # same values from a cheaper call
    pg1_sk = zeta(2, sk)
    pg1_tk = zeta(2, tk)
    pg1_tau = zeta(2, tau)
    dg_tk = digamma(tk)
    tk_tot = tk.sum()
    # E[lnGamma(s * centre_m)] has no closed form: a second-order expansion
    # about the mean, with the Dirichlet(tau * kappa) variance of each coordinate
    var = s * s * kappa * one_minus_kappa / (tau + 1.0)
    expected_lgamma = gammaln(sk) + 0.5 * pg1_sk * var

    value = float(((n + sk - 1.0) * e_log_theta).sum())
    value += n_groups * float(gammaln(s)) - n_groups * float(expected_lgamma.sum())
    value += float(gammaln(a0.sum())) - float(gammaln(a0).sum())
    value += float((a0_minus_1 * (dg_tk - digamma(tau))).sum())
    # entropies of the group Dirichlets and of the centre's
    value += float((gammaln(nu).sum(axis=1) - gammaln(nu_tot) + (nu_tot - m) * dg_nu_tot
                    - ((nu - 1.0) * dg_nu).sum(axis=1)).sum())
    value += float(gammaln(tk).sum() - gammaln(tk_tot) + (tk_tot - m) * digamma(tk_tot)
                   - ((tk - 1.0) * dg_tk).sum())

    d_eg = (s * digamma(sk)
            + 0.5 * (s * (-2.0 * zeta(3, sk)) * var
                     + pg1_sk * s * s * (1.0 - 2.0 * kappa) / (tau + 1.0)))
    g_kappa = s * e_log_theta.sum(axis=0) - n_groups * d_eg + (a0 - tk) * tau * pg1_tk
    g_rho = kappa * (g_kappa - float((g_kappa * kappa).sum()))
    g_tau = (n_groups * 0.5 * float((pg1_sk * s * s * kappa * one_minus_kappa).sum()) / (tau + 1.0) ** 2
             + float((a0_minus_1 * (kappa * pg1_tk - pg1_tau)).sum())
             + (tau - m) * float(pg1_tau)
             - float(((tk - 1.0) * kappa * pg1_tk).sum()))
    return value, g_rho, float(g_tau)


def elbo(counts, prior, kappa, tau, nu):
    """Evidence lower bound of the variational state on a family's counts."""
    n_groups = counts.n_groups
    m = counts.n_configs * counts.child_card
    n = counts.per_group.reshape(n_groups, m).astype(float)
    return _bound_and_grad(n, prior.alpha0.reshape(m), prior.s,
                           np.asarray(kappa, float).reshape(m), float(tau),
                           np.asarray(nu, float).reshape(n_groups, m))[0]


def _clamp_simplex(kappa):
    kappa = np.maximum(kappa, KAPPA_FLOOR)
    return kappa / kappa.sum()


def _softmax(logits):
    """scipy.special.softmax's arithmetic without its array-API dispatch:
    shift by the max, exponentiate, divide by the sum."""
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def _centre(x):
    """(kappa, tau) from x = (softmax logits of kappa, log tau)."""
    return _clamp_simplex(_softmax(x[:-1])), float(np.exp(x[-1]))


def _profiled(n, a0, s, x):
    """(bound, gradient in x) with every nu_f at its conditional maximiser
    s * kappa + n_f, where x = (softmax logits of kappa, log tau).

    By the envelope theorem the bound is stationary in nu there, so its
    partial gradient in (kappa, tau) is the profiled gradient.
    """
    kappa, tau = _centre(x)
    value, g_rho, g_tau = _bound_and_grad(n, a0, s, kappa, tau, s * kappa + n)
    return value, np.append(g_rho, g_tau * tau)


def _lbfgs_direction(grad, pairs):
    """Two-loop recursion: the inverse-Hessian estimate applied to grad.

    ``pairs`` holds (step, gradient decrease, 1 / curvature), oldest first;
    with none stored the direction is grad scaled to unit length.
    """
    if not pairs:
        return grad / np.linalg.norm(grad)
    q = grad.copy()
    alphas = []
    for step, dgrad, rho in reversed(pairs):
        alphas.append(rho * float(step @ q))
        q -= alphas[-1] * dgrad
    step, dgrad, _ = pairs[-1]
    q *= float(step @ dgrad) / float(dgrad @ dgrad)
    for (step, dgrad, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(dgrad @ q)) * step
    return q


def _armijo_step(n, a0, s, x, value, grad, direction):
    """Backtrack along direction until the bound rises by the Armijo margin.

    Returns (x, bound, gradient) of the accepted point, or None once the
    first-order gain of the remaining steps is below the float resolution of
    the bound. Each trial point is evaluated once, bound and gradient
    together.
    """
    slope = float(grad @ direction)
    resolution = 4.0 * _EPS * max(1.0, abs(value))
    t = 1.0
    while t * slope > resolution:
        trial_x = x + t * direction
        trial_x[-1] = min(max(trial_x[-1], _LOG_TAU_MIN), _LOG_TAU_MAX)
        trial, trial_grad = _profiled(n, a0, s, trial_x)
        if trial > value and trial >= value + 1e-4 * t * slope:
            return trial_x, trial, trial_grad
        t *= 0.5
    return None


def fit_variational(counts, prior, tol=1e-6, max_iters=500):
    """Maximise the bound over the shared centre of one family's groups.

    Each nu_f is held at its closed-form conditional maximiser
    s * kappa + n_f, which leaves the bound a function of (kappa, tau) alone;
    L-BFGS ascends it in the softmax logits of kappa and log tau. A step is
    accepted only if it raises the bound, so ``elbo_trace`` (the start value,
    then each accepted iterate) never decreases. The fit has converged when
    the largest gradient component is at most ``tol * max(1, |initial
    bound|)``, or when no step raises the bound at float precision; after
    ``max_iters`` steps without either it returns the last iterate with a
    warning.
    """
    if not (tol > 0 and np.isfinite(tol)) or not max_iters >= 1:
        raise ValueError("tol must be positive and finite, and max_iters at least 1")
    n_groups = counts.n_groups
    shape = (counts.n_configs, counts.child_card)
    if prior.alpha0.shape != shape:
        raise ValueError("prior shape does not match the family's cell grid")
    m = shape[0] * shape[1]
    n = counts.per_group.reshape(n_groups, m).astype(float)
    a0 = prior.alpha0.reshape(m)
    s = prior.s
    s0 = float(a0.sum())

    if counts.total == 0:
        # no evidence in any group: posterior centre equals the prior centre
        kappa = _clamp_simplex(a0 / s0)
        nu = s * kappa + n
        trace = (_bound_and_grad(n, a0, s, kappa, s0, nu)[0],)
        return VariationalFit(kappa.reshape(shape), s0, nu.reshape((n_groups,) + shape),
                              trace, True)

    x = np.append(np.log(_clamp_simplex(n.sum(axis=0) + a0)), np.log(s0))
    value, grad = _profiled(n, a0, s, x)
    gtol = tol * max(1.0, abs(value))
    trace = [value]
    pairs = deque(maxlen=_LBFGS_PAIRS)
    converged = False
    while True:
        if np.abs(grad).max() <= gtol:
            converged = True
            break
        if len(trace) > max_iters:
            break
        accepted = _armijo_step(n, a0, s, x, value, grad,
                                _lbfgs_direction(grad, pairs))
        if accepted is None:
            converged = True
            break
        x_new, value, grad_new = accepted
        step, dgrad = x_new - x, grad - grad_new
        curvature = float(step @ dgrad)
        if curvature > 1e-10 * float(dgrad @ dgrad):
            pairs.append((step, dgrad, 1.0 / curvature))
        x, grad = x_new, grad_new
        trace.append(value)
    if not converged:
        warnings.warn("variational fit stopped at max_iters without meeting tol",
                      VariationalConvergenceWarning, stacklevel=2)
    kappa, tau = _centre(x)
    return VariationalFit(kappa.reshape(shape), tau,
                          (s * kappa + n).reshape((n_groups,) + shape), tuple(trace),
                          converged)


def bhd_local_log_score(counts, fit, s=1.0):
    """Per-group marginal likelihood of a family under the fitted centre.

    Each group contributes a closed-form Dirichlet-multinomial term with
    cell weights s * kappa; the group terms are summed in group order. With
    a uniform kappa this reduces exactly to the sum of per-group uniform-
    prior scores, since both run through the same evaluation kernel.
    """
    from .scores import bd_local_log_scores, fold_total
    if fit.kappa.shape != (counts.n_configs, counts.child_card):
        raise ValueError("fit shape does not match the family's cell grid")
    return fold_total(bd_local_log_scores(counts.per_group, s * fit.kappa).tolist())


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
