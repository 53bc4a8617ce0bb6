"""Greedy structure search over single-arc moves."""

from dataclasses import dataclass

import numpy as np

from .data import check_count
from .graph import Dag, _arc_matrix, _joins, _reachability
from .scores import LocalScoreCache, _local_log_scores, fold_total

MOVE_KINDS = ("add", "delete", "reverse")  # sorted, so moves read off kind by kind are too


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the greedy climb; ``max_parents`` of None means unbounded."""

    max_parents: int = None
    max_iterations: int = 1000

    def __post_init__(self):
        check_count("max_iterations", self.max_iterations, 1)
        if self.max_parents is not None:
            check_count("max_parents", self.max_parents, 0)


@dataclass(frozen=True)
class SearchResult:
    dag: "Dag"
    score: float
    trace: tuple  # total score after the start state and each applied move


def _legal_masks(arcs, below, max_parents):
    """N x N bool masks of the legal add, delete and reverse moves of the DAG
    with arc matrix ``arcs`` and reachability ``below`` (see _reachability);
    entry [u, v] is the move on the arc u->v, and the delete mask is
    ``arcs`` itself. Only acyclicity-preserving (and parent-limit-respecting)
    moves are legal."""
    room = np.full(len(arcs), True) if max_parents is None else arcs.sum(axis=0) < max_parents
    add = ~arcs & ~below.T & room
    np.fill_diagonal(add, False)
    # reversing u->v cycles iff another child of u reaches v
    reverse = arcs & ~_joins(arcs, below) & room[:, None]
    return add, arcs, reverse


def neighbourhood(dag, max_parents=None):
    """All legal single-arc moves, deterministically ordered.

    Moves are (kind, from, to) with kind in add/delete/reverse. Read row-major
    off each kind's mask, the list is sorted lexicographically, which fixes
    tie-breaking downstream.
    """
    SearchConfig(max_parents=max_parents)  # checks max_parents as the climb's config does
    arcs = _arc_matrix(dag)
    masks = _legal_masks(arcs, _reachability(arcs), max_parents)
    return [(kind, u, v) for kind, mask in zip(MOVE_KINDS, masks)
            for u, v in np.argwhere(mask).tolist()]


def apply_move(dag, move):
    kind, u, v = move
    if kind == "add":
        return dag.with_arc(u, v)
    if kind == "delete":
        return dag.without_arc(u, v)
    if kind == "reverse":
        return dag.with_reversed(u, v)
    raise ValueError(f"unknown move kind {kind!r}")


def _apply_to_matrices(arcs, below, move):
    """Apply a legal move in place to the arc matrix and the reachability
    matrix of a DAG. An added u->v makes v and its descendants descendants
    of u and of u's ancestors; a deletion or a reversal recomputes
    reachability from the arcs."""
    kind, u, v = move
    if kind == "add":
        arcs[u, v] = True
        gained = below[v].copy()
        gained[v] = True
        below[below[:, u]] |= gained
        below[u] |= gained
    else:
        arcs[u, v] = False
        if kind == "reverse":
            arcs[v, u] = True
        below[:] = _reachability(arcs)


def run_hill_climb(data, score_config, search_config=None, start=None, cache=None):
    """Greedy ascent applying the best strictly improving single-arc move.

    The graph is kept as arc and reachability matrices, updated in place by
    each applied move; the one ``Dag`` built is the result. A third N x N
    table holds each node's local on its diagonal, whose fold is the total,
    and its locals with one parent toggled off it, rescored when the node's
    parents change, in one batched call per step; every family is read
    valid and sorted off the arc matrix, so the scoring core takes it
    unchecked. Each step lays out, for every legal move, the locals the move
    leaves as one column of an N x M array and folds all columns at once:
    the additions of a cold evaluation, bit for bit. The highest total
    strictly above the current one wins, ties falling to the
    lexicographically first move, for at most ``max_iterations`` moves.
    Returns the climbed DAG, its total score (so it matches a cold
    evaluation of the final graph, and short of the cap no neighbour folds
    higher), and the score trace.
    """
    cfg = search_config or SearchConfig()
    n = data.n_variables
    start = start if start is not None else Dag(n)
    if start.node_count != n:
        raise ValueError("start graph size does not match the dataset")
    if cache is None:
        cache = LocalScoreCache()
    arcs = _arc_matrix(start)
    below = _reachability(arcs)
    # toggled[u, v]: local of v with u dropped from its parents if it is one,
    # added if not; toggled[v, v]: local of v under its parents
    toggled = np.full((n, n), np.nan)
    trace = []

    for step in range(cfg.max_iterations + 1):
        masks = add, delete, reverse = _legal_masks(arcs, below, cfg.max_parents)
        # refill the diagonal and, unless the budget's moves are all applied,
        # every entry a legal move needs: all columns in one batched call
        wanted = add | delete | reverse.T if step < cfg.max_iterations else np.zeros_like(add)
        np.fill_diagonal(wanted, True)
        need_v, need_u = np.nonzero((wanted & np.isnan(toggled)).T)
        if need_v.size:
            sets = arcs.T[need_v]  # row k: the parents of need_v[k], toggled below
            sets[np.arange(need_v.size), need_u] ^= need_u != need_v
            rows, members = np.nonzero(sets)  # row by row, each ascending
            ends = np.cumsum(np.bincount(rows, minlength=need_v.size)).tolist()
            members = members.tolist()
            families = [(v, tuple(members[a:b]))
                        for v, a, b in zip(need_v.tolist(), [0] + ends, ends)]
            toggled[need_u, need_v] = _local_log_scores(data, families, score_config, cache)
        total = fold_total(toggled.diagonal().tolist())
        trace.append(total)
        if step == cfg.max_iterations:
            break
        # every legal move: kinds in MOVE_KINDS order, each mask row-major,
        # which is neighbourhood's order
        kind, u, v = np.nonzero(np.stack(masks))
        rev = kind == 2
        # column k: the locals that move k leaves, folded as a cold rescore folds them
        cols = np.empty((n, len(kind)))
        cols[:] = toggled.diagonal()[:, None]
        cols[v, np.arange(len(kind))] = toggled[u, v]
        cols[u[rev], np.flatnonzero(rev)] = toggled[v[rev], u[rev]]
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as float addition is
            totals = fold_total(cols)
        better = np.flatnonzero(totals > total)  # NaN never compares greater
        if not better.size:
            break
        best = better[np.argmax(totals[better])]  # the first of the maximal totals
        _apply_to_matrices(arcs, below, (MOVE_KINDS[kind[best]], int(u[best]), int(v[best])))
        changed = [u[best], v[best]] if rev[best] else [v[best]]  # nodes whose parents changed
        toggled[:, changed] = np.nan

    return SearchResult(Dag(n, frozenset(zip(*np.nonzero(arcs)))), total, tuple(trace))
