"""Greedy structure search over single-arc moves."""

from dataclasses import dataclass

import numpy as np

from .data import check_count
from .graph import Dag
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


def _joins(a, b):
    """Boolean matrix product: [u, w] is whether a[u, v] and b[v, w] for some
    v. Counted in float32, which is exact for fewer than 2**24 nodes."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _reachability(arcs):
    """N x N bool matrix of a DAG's N x N arc matrix: entry [v, w] is whether
    w is a proper descendant of v. Squares the path relation until it stops
    growing, so paths of every length up to N - 1 are in."""
    below = arcs.copy()
    while True:
        grown = below | _joins(below, below)
        if (grown == below).all():
            return below
        below = grown


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


def _arc_matrix(dag):
    arcs = np.zeros((dag.node_count, dag.node_count), dtype=bool)
    if dag.arcs:
        arcs[tuple(zip(*dag.arcs))] = True
    return arcs


def neighbourhood(dag, max_parents=None):
    """All legal single-arc moves, deterministically ordered.

    Moves are (kind, from, to) with kind in add/delete/reverse. Read row-major
    off each kind's mask, the list is sorted lexicographically, which fixes
    tie-breaking downstream.
    """
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


def _apply_to_matrices(arcs, below, parents, move):
    """Apply a legal move in place to the arc matrix, the reachability
    matrix and the sorted parent tuples of a DAG. An added u->v makes v and
    its descendants descendants of u and of u's ancestors; a deletion or a
    reversal recomputes reachability from the arcs."""
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
    for w in (u, v):
        parents[w] = tuple(np.flatnonzero(arcs[:, w]).tolist())


def run_hill_climb(data, score_config, search_config=None, start=None, cache=None):
    """Greedy ascent applying the best strictly improving single-arc move.

    The graph is kept as arc and reachability matrices and sorted parent
    tuples, updated in place by each applied move; the one ``Dag`` built is
    the result. One N x N table holds each node's locals with one parent
    toggled, rescored only when that node's parents change, in one batched
    call per step; every family is valid and sorted as built, so the scoring
    core takes it unchecked. Each step lays out, for every legal move, the
    locals the move leaves as one column of an N x M array and folds all
    columns at once: the additions of a cold evaluation, bit for bit. The
    highest total strictly above the current one wins, ties falling to the
    lexicographically first move. Returns the climbed DAG, its total score
    (so it matches a cold evaluation of the final graph, and no neighbour
    folds higher), and the score trace.
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
    parents = [start.parents(i) for i in range(n)]

    locals_ = _local_log_scores(data, list(enumerate(parents)), score_config, cache)
    total = fold_total(locals_)
    trace = [total]
    # toggled[u, v]: local of v with u dropped from its parents if it is one, added if not
    toggled = np.full((n, n), np.nan)

    for _ in range(cfg.max_iterations):
        masks = add, delete, reverse = _legal_masks(arcs, below, cfg.max_parents)
        # refill every entry a legal move needs, all columns in one batched call
        need_v, need_u = np.nonzero(((add | delete | reverse.T) & np.isnan(toggled)).T)
        if need_v.size:
            families = [(v, tuple(p for p in parents[v] if p != u) if u in parents[v]
                         else tuple(sorted(parents[v] + (u,))))
                        for v, u in zip(need_v.tolist(), need_u.tolist())]
            toggled[need_u, need_v] = _local_log_scores(data, families, score_config, cache)
        # every legal move: kinds in MOVE_KINDS order, each mask row-major,
        # which is neighbourhood's order
        kind, u, v = np.nonzero(np.stack(masks))
        rev = kind == 2
        # column k: the locals that move k leaves, folded as a cold rescore folds them
        cols = np.empty((n, len(kind)))
        cols[:] = np.array(locals_)[:, None]
        cols[v, np.arange(len(kind))] = toggled[u, v]
        cols[u[rev], np.flatnonzero(rev)] = toggled[v[rev], u[rev]]
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as float addition is
            totals = fold_total(cols)
        better = np.flatnonzero(totals > total)  # NaN never compares greater
        if not better.size:
            break
        best = better[np.argmax(totals[better])]  # the first of the maximal totals
        move = (MOVE_KINDS[kind[best]], int(u[best]), int(v[best]))
        _apply_to_matrices(arcs, below, parents, move)
        locals_ = cols[:, best].tolist()
        total = float(totals[best])
        trace.append(total)
        changed = [u[best], v[best]] if rev[best] else [v[best]]  # nodes whose parents changed
        toggled[:, changed] = np.nan

    return SearchResult(Dag(n, frozenset(zip(*np.nonzero(arcs)))), total, tuple(trace))
