"""Decomposable structure scores over family count tables.

All scores are log-space and higher-is-better. The classic scores pool the
group dimension away before evaluating; the hierarchical score keeps groups
separate and is dispatched from here but implemented alongside the
variational fit.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import FamilyCounts, family_counts

SCORE_KINDS = ("bdeu", "bic", "bhd")


def _pooled_table(counts):
    if isinstance(counts, FamilyCounts):
        return counts.pooled
    table = np.asarray(counts)
    if table.ndim != 2:
        raise ValueError("expected a (configs, levels) count table")
    return table


def bd_local_log_score(counts, alpha):
    """Dirichlet-multinomial log marginal likelihood of one family.

    ``alpha`` gives a positive pseudo-count per (config, level) cell. Counts
    may be a FamilyCounts (pooled over groups) or a plain (J, K) table. This
    is the single evaluation kernel shared by every Dirichlet-family score,
    so algebraic reductions between them hold bit-for-bit.
    """
    table = _pooled_table(counts)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != table.shape:
        raise ValueError("alpha shape must match the count table")
    if np.any(alpha <= 0):
        raise ValueError("alpha must be strictly positive")
    alpha_j = alpha.sum(axis=1)
    n_j = table.sum(axis=1)
    value = (gammaln(alpha_j) - gammaln(alpha_j + n_j)).sum()
    value += (gammaln(alpha + table) - gammaln(alpha)).sum()
    return float(value)


def bdeu_local_log_score(counts, s=1.0):
    """Uniform-mass special case: every cell gets s / (configs * levels)."""
    if not s > 0:
        raise ValueError("imaginary sample size must be positive")
    table = _pooled_table(counts)
    n_configs, child_card = table.shape
    alpha = np.full(table.shape, s / (n_configs * child_card))
    return bd_local_log_score(table, alpha)


def bic_local_log_score(counts):
    """Penalized maximum log likelihood of one family on pooled counts.

    Zero-count cells contribute nothing to the likelihood; the penalty is
    (ln n)/2 per free parameter, defined as 0 when there is no data.
    """
    table = _pooled_table(counts)
    n_configs, child_card = table.shape
    n = int(table.sum())
    if n == 0:
        return 0.0
    n_j = table.sum(axis=1, keepdims=True)
    mask = table > 0
    ll = float((table[mask] * (np.log(table[mask]) - np.log(np.broadcast_to(n_j, table.shape)[mask]))).sum())
    penalty = 0.5 * np.log(n) * n_configs * (child_card - 1)
    return ll - float(penalty)


def classic_posterior_mean(counts, alpha):
    """Conditional posterior means (alpha + n) / (alpha_j + n_j), shape (J, K)."""
    table = _pooled_table(counts)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != table.shape:
        raise ValueError("alpha shape must match the count table")
    if np.any(alpha <= 0):
        raise ValueError("alpha must be strictly positive")
    denom = (alpha.sum(axis=1) + table.sum(axis=1))[:, None]
    return (alpha + table) / denom


@dataclass(frozen=True)
class ScoreConfig:
    """Which score to use and its hyperparameters.

    ``iss`` is the imaginary sample size shared by the Dirichlet scores.
    The vb_* fields and s0 only affect the hierarchical score; they are part
    of the cache identity for it. Its variational fit has converged when the
    largest component of the bound's gradient is at most ``vb_tol *
    max(1, |initial bound|)``, or when no step raises the bound in floating
    point; ``vb_max_iters`` caps its L-BFGS steps, and a fit that reaches
    the cap unconverged warns.
    """

    kind: str = "bdeu"
    iss: float = 1.0
    vb_tol: float = 1e-6
    vb_max_iters: int = 500
    s0: float = None

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if not self.iss > 0:
            raise ValueError("imaginary sample size must be positive")
        if not self.vb_tol > 0:
            raise ValueError("vb_tol must be positive")
        if not self.vb_max_iters >= 1:
            raise ValueError("vb_max_iters must be at least 1")
        if self.s0 is not None and not self.s0 > 0:
            raise ValueError("s0 must be positive when given")

    def cache_key(self):
        if self.kind == "bhd":
            return (self.kind, self.iss, self.vb_tol, self.vb_max_iters, self.s0)
        return (self.kind, self.iss)


class LocalScoreCache:
    """Memo table of one dataset's local scores, keyed by (child, parent
    set, score identity); the first scored dataset binds it."""

    def __init__(self):
        self._store = {}
        self.data = None
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._store)

    def get_or_compute(self, key, compute):
        try:
            value = self._store[key]
        except KeyError:
            value = compute()
            self._store[key] = value
            self.misses += 1
            return value
        self.hits += 1
        return value


def _compute_local(data, child, parents, config):
    counts = family_counts(data, child, parents)
    if config.kind == "bdeu":
        return bdeu_local_log_score(counts, config.iss)
    if config.kind == "bic":
        return bic_local_log_score(counts)
    from . import hier  # deferred: hier shares this module's kernel
    prior = hier.HierPrior.uniform((counts.n_configs, counts.child_card),
                                   s=config.iss, s0=config.s0)
    fit = hier.fit_variational(counts, prior, tol=config.vb_tol,
                               max_iters=config.vb_max_iters)
    return hier.bhd_local_log_score(counts, fit, config.iss)


def local_log_score(data, child, parents, config, cache=None):
    """Score one family under ``config``, consulting ``cache`` if given."""
    parents = tuple(parents)
    if cache is None:
        return _compute_local(data, child, parents, config)
    if cache.data is None:
        cache.data = data
    elif cache.data is not data:
        raise ValueError("the cache holds scores of another dataset")
    key = (child, tuple(sorted(parents))) + config.cache_key()
    return cache.get_or_compute(key, lambda: _compute_local(data, child, parents, config))


def fold_total(local_scores):
    """Network total: local scores added left to right from 0.0.

    Every total the package reports (search, cold rescore, ``hierbn score``)
    goes through this fold, so equal locals give bit-equal totals.
    """
    total = 0.0
    for value in local_scores:
        total += value
    return total


def total_log_score(dag, data, config, cache=None):
    """Network score: the local scores folded in node order."""
    if dag.node_count != data.n_variables:
        raise ValueError("graph size does not match the dataset")
    return fold_total(local_log_score(data, node, dag.parents(node), config, cache)
                      for node in range(dag.node_count))
