"""Decomposable structure scores over family count tables.

All scores are log-space and higher-is-better. The classic scores pool the
group dimension away before evaluating; the hierarchical score keeps groups
separate and is dispatched from here but implemented in ``hier``, with the
fit of its centres.
"""

from dataclasses import dataclass

import numpy as np

from .data import FamilyCounts, _count_tables, check_count, check_indices, check_positive

SCORE_KINDS = ("bdeu", "bic", "bhd")


def _pooled_table(counts):
    if isinstance(counts, FamilyCounts):
        return counts.pooled
    table = np.asarray(counts)
    if table.ndim != 2:
        raise ValueError("expected a (configs, levels) count table")
    return table


def _checked_alpha(alpha, shapes):
    """``alpha`` as floats, if its shape is one of ``shapes`` and every
    pseudo-count is positive and finite (an infinite one scores NaN)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape not in shapes:
        raise ValueError("alpha shape must match the count table")
    if not np.all((alpha > 0) & np.isfinite(alpha)):
        raise ValueError("alpha must be strictly positive and finite")
    return alpha


def bd_local_log_scores(tables, alpha):
    """Dirichlet-multinomial log marginal likelihoods of stacked families.

    ``tables`` is a (B, J, K) stack of count tables; ``alpha`` gives a
    positive, finite pseudo-count per (config, level) cell, shape (J, K)
    for every table or (B, J, K). Returns the B scores. This is the single
    evaluation kernel shared by every Dirichlet-family score, and each
    table's sums run along the contiguous last axis, so a family scores bit
    for bit the same alone or in any stack and algebraic reductions between
    the scores hold bit for bit.
    """
    # imported here, not with the module: importing hierbn loads numpy alone,
    # and scipy loads with a process's first score
    from scipy.special import gammaln
    tables = np.asarray(tables)
    if tables.ndim != 3:
        raise ValueError("expected a (families, configs, levels) stack of count tables")
    alpha = _checked_alpha(alpha, (tables.shape, tables.shape[1:]))
    alpha_j = alpha.sum(axis=-1)
    n_j = tables.sum(axis=-1)
    value = (gammaln(alpha_j) - gammaln(alpha_j + n_j)).sum(axis=-1)
    value += (gammaln(alpha + tables) - gammaln(alpha)).reshape(len(tables), -1).sum(axis=-1)
    return value


def bd_local_log_score(counts, alpha):
    """Dirichlet-multinomial log marginal likelihood of one family.

    Counts may be a FamilyCounts (pooled over groups) or a plain (J, K)
    table; the one-table case of ``bd_local_log_scores``.
    """
    table = _pooled_table(counts)
    if np.shape(alpha) != table.shape:
        raise ValueError("alpha shape must match the count table")
    return float(bd_local_log_scores(table[None], alpha)[0])


def _uniform_alpha(shape, s):
    return np.full(shape, check_positive("iss", s) / (shape[0] * shape[1]))


def bdeu_local_log_score(counts, s=1.0):
    """Uniform-mass special case: every cell gets s / (configs * levels)."""
    table = _pooled_table(counts)
    return bd_local_log_score(table, _uniform_alpha(table.shape, s))


def bic_local_log_scores(tables):
    """Penalized maximum log likelihoods of a (B, J, K) stack of pooled
    count tables, as B floats.

    Zero-count cells contribute nothing to the likelihood; the penalty is
    (ln n)/2 per free parameter, and a table without data scores 0. Each
    table's likelihood terms are summed along its own contiguous cells, so
    a family scores bit for bit the same alone or in any stack.
    """
    tables = np.asarray(tables)
    if tables.ndim != 3:
        raise ValueError("expected a (families, configs, levels) stack of count tables")
    n_tables, n_configs, child_card = tables.shape
    n_j = tables.sum(axis=-1, keepdims=True)
    n = n_j.reshape(n_tables, -1).sum(axis=1)
    # an empty cell or row takes log 1 = 0 and adds a zero term
    terms = tables * (np.log(np.where(tables > 0, tables, 1)) - np.log(np.where(n_j > 0, n_j, 1)))
    penalty = 0.5 * np.log(np.where(n > 0, n, 1)) * n_configs * (child_card - 1)
    return np.where(n > 0, terms.reshape(n_tables, -1).sum(axis=1) - penalty, 0.0)


def bic_local_log_score(counts):
    """BIC of one family on pooled counts; the one-table case of
    ``bic_local_log_scores``."""
    return float(bic_local_log_scores(_pooled_table(counts)[None])[0])


def classic_posterior_mean(counts, alpha):
    """Conditional posterior means (alpha + n) / (alpha_j + n_j), shape (J, K)."""
    table = _pooled_table(counts)
    alpha = _checked_alpha(alpha, (table.shape,))
    denom = (alpha.sum(axis=1) + table.sum(axis=1))[:, None]
    return (alpha + table) / denom


@dataclass(frozen=True)
class ScoreConfig:
    """Which score to use and its hyperparameters.

    ``iss`` is the imaginary sample size shared by the Dirichlet scores;
    it, ``vb_tol`` and ``s0`` are kept as floats. The vb_* fields and s0
    only affect the hierarchical score; they are part of the cache identity
    for it. That score fits each parent configuration's centre by
    fixed-point steps p <- u / sum(u) on its log posterior g, from the
    pooled frequencies (``hier``); a fit has converged when the largest
    component of g's gradient is at most ``vb_tol * max(1, |g at the
    start|)`` or when a step leaves the centre unchanged in floating point.
    ``vb_max_iters`` caps the fixed-point steps, and a fit that reaches the
    cap unconverged warns. ``s0`` is the total mass of the flat hyperprior
    over a family's cells (one per cell when None).
    """

    kind: str = "bdeu"
    iss: float = 1.0
    vb_tol: float = 1e-6
    vb_max_iters: int = 500
    s0: float = None

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        for name in ("iss", "vb_tol") + (() if self.s0 is None else ("s0",)):
            object.__setattr__(self, name, check_positive(name, getattr(self, name)))
        check_count("vb_max_iters", self.vb_max_iters, 1)

    def cache_key(self):
        if self.kind == "bhd":
            return (self.kind, self.iss, self.vb_tol, self.vb_max_iters, self.s0)
        return (self.kind, self.iss)


class LocalScoreCache:
    """Memo table of one dataset's local scores, keyed by (child, parent
    set, score identity); the first scored dataset binds it.
    ``local_log_scores`` answers a request's keys from the table in one pass
    and counts ``hits`` and ``misses`` as ``get_or_compute`` would, one key
    at a time."""

    def __init__(self):
        self._store = {}
        self.data = None
        self.hits = 0
        self.misses = 0

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


def _compute_locals(data, families, config):
    # one kernel call per count batch, whose families share a table shape
    # whatever their child: bdeu and bic on tables pooled over the groups,
    # bhd on the groups' tables. Each batch is scored as it is counted and
    # released before the next is, so a request holds one batch's tables,
    # not all of them.
    out = np.empty(len(families))
    for where, tables in _count_tables(data, families):
        if config.kind == "bhd":
            from . import hier  # deferred: hier imports this module's kernel
            out[where] = hier.bhd_local_log_scores(tables, config.iss, config.s0,
                                                   config.vb_tol, config.vb_max_iters)
        elif config.kind == "bdeu":
            out[where] = bd_local_log_scores(tables.sum(axis=1),
                                             _uniform_alpha(tables.shape[2:], config.iss))
        else:
            out[where] = bic_local_log_scores(tables.sum(axis=1))
        del tables  # before the next batch is counted
    return out.tolist()


def local_log_scores(data, families, config, cache=None):
    """Scores of several families under ``config``, as a list in order;
    each family is a (child, parents) pair, and the children may differ.

    Every index is checked first (``data.check_indices``), before any cache
    lookup. Each family is scored with its parents in sorted order, the
    order of its cache key, so its score does not depend on the order the
    parents are given in. Only the distinct families missing from ``cache``
    (a fresh one when None) are counted and scored, in count batches of at
    most ``data.MAX_COUNT_CELLS`` cells, each scored before the next is
    counted; hits and misses count as if the families were looked up one
    by one.
    """
    families = [(child, tuple(parents)) for child, parents in families]
    # before the keys: a bool or float index would find its integer's entry
    check_indices(families, data.n_variables)
    return _local_log_scores(data, [(child, tuple(sorted(parents)))
                                    for child, parents in families], config, cache)


def _local_log_scores(data, families, config, cache):
    # local_log_scores past its checks: each family valid and its parents a
    # sorted tuple, as the climb builds them; without a cache, a fresh one
    # counts a repeated family once
    cache = LocalScoreCache() if cache is None else cache
    if cache.data is None:
        cache.data = data
    elif cache.data is not data:
        raise ValueError("the cache holds scores of another dataset")
    identity = config.cache_key()
    keys = [family + identity for family in families]
    store = cache._store
    missing = list(dict.fromkeys(key for key in keys if key not in store))
    store.update(zip(missing, _compute_locals(data, [key[:2] for key in missing], config)))
    cache.misses += len(missing)
    cache.hits += len(keys) - len(missing)
    return list(map(store.__getitem__, keys))


def local_log_score(data, child, parents, config, cache=None):
    """Score one family under ``config``, consulting ``cache`` if given."""
    return local_log_scores(data, [(child, parents)], config, cache)[0]


def fold_total(local_scores):
    """Network total: local scores added left to right from 0.0.

    Every total the package reports (search, cold rescore, ``hierbn score``)
    goes through this fold, so equal locals give bit-equal totals. Given an
    (N, M) array it folds the M columns at once, each with the additions it
    would get folded alone.
    """
    total = 0.0
    for value in local_scores:
        total += value
    return total


def total_log_score(dag, data, config, cache=None):
    """Network score: the local scores folded in node order."""
    if dag.node_count != data.n_variables:
        raise ValueError("graph size does not match the dataset")
    return fold_total(local_log_scores(data, [(node, dag.parents(node))
                                              for node in range(dag.node_count)],
                                       config, cache))
