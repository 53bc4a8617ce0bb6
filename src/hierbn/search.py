"""Greedy structure search over single-arc moves."""

from dataclasses import dataclass

import numpy as np

from .graph import Dag
from .scores import LocalScoreCache, fold_total, local_log_scores

MOVE_KINDS = ("add", "delete", "reverse")  # sorted, so moves read off kind by kind are too


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the greedy climb; ``max_parents`` of None means unbounded."""

    max_parents: int = None
    max_iterations: int = 1000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_parents is not None and self.max_parents < 0:
            raise ValueError("max_parents cannot be negative")


@dataclass(frozen=True)
class SearchResult:
    dag: "Dag"
    score: float
    trace: tuple  # total score after the start state and each applied move


def _legal_masks(dag, max_parents):
    """N x N bool masks of the legal add, delete and reverse moves; entry
    [u, v] is the move on the arc u->v. Only acyclicity-preserving (and
    parent-limit-respecting) moves are legal."""
    n = dag.node_count
    width = (n + 7) // 8
    packed = b"".join(bits.to_bytes(width, "little") for bits in dag.descendants())
    # below[v, w]: w is a proper descendant of v
    below = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(n, width), axis=1,
                          count=n, bitorder="little").astype(bool)
    arcs = np.zeros((n, n), dtype=bool)
    if dag.arcs:
        arcs[tuple(zip(*dag.arcs))] = True
    room = np.full(n, True) if max_parents is None else arcs.sum(axis=0) < max_parents
    add = ~arcs & ~below.T & room
    np.fill_diagonal(add, False)
    # reversing u->v cycles iff another child of u reaches v
    reverse = arcs & ~(arcs @ below) & room[:, None]
    return add, arcs, reverse


def neighbourhood(dag, max_parents=None):
    """All legal single-arc moves, deterministically ordered.

    Moves are (kind, from, to) with kind in add/delete/reverse. Read row-major
    off each kind's mask, the list is sorted lexicographically, which fixes
    tie-breaking downstream.
    """
    return [(kind, u, v) for kind, mask in zip(MOVE_KINDS, _legal_masks(dag, max_parents))
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


def run_hill_climb(data, score_config, search_config=None, start=None, cache=None):
    """Greedy ascent applying the best strictly improving single-arc move.

    Each node's locals with one parent added or dropped are kept in N x N
    tables, rescored only when that node's parents change, in one batched
    call per node. Each step lays out, for every legal move, the locals the
    move leaves as one column of an N x M array and folds all columns at
    once: the additions of a cold evaluation, bit for bit. The highest total
    strictly above the current one wins, ties falling to the
    lexicographically first move. Returns the climbed DAG, its total score
    (so it matches a cold evaluation of the final graph, and no neighbour
    folds higher), and the score trace.
    """
    cfg = search_config or SearchConfig()
    n = data.n_variables
    dag = start if start is not None else Dag(n)
    if dag.node_count != n:
        raise ValueError("start graph size does not match the dataset")
    if cache is None:
        cache = LocalScoreCache()

    locals_ = local_log_scores(data, [(i, dag.parents(i)) for i in range(n)], score_config,
                               cache)
    total = fold_total(locals_)
    trace = [total]
    # grown[u, v]: local of v with parent u added; shrunk[u, v]: with u dropped
    grown, shrunk = np.full((n, n), np.nan), np.full((n, n), np.nan)

    for _ in range(cfg.max_iterations):
        masks = add, arcs, reverse = _legal_masks(dag, cfg.max_parents)
        # refill every entry a legal move needs, all columns in one batched call
        grow_v, grow_u = np.nonzero(((add | reverse.T) & np.isnan(grown)).T)
        shrink_v, shrink_u = np.nonzero((arcs & np.isnan(shrunk)).T)
        families = ([(v, dag.parents(v) + (u,))
                     for v, u in zip(grow_v.tolist(), grow_u.tolist())]
                    + [(v, tuple(p for p in dag.parents(v) if p != u))
                       for v, u in zip(shrink_v.tolist(), shrink_u.tolist())])
        if families:
            values = local_log_scores(data, families, score_config, cache)
            grown[grow_u, grow_v] = values[:len(grow_v)]
            shrunk[shrink_u, shrink_v] = values[len(grow_v):]
        # every legal move: kinds in MOVE_KINDS order, each mask row-major,
        # which is neighbourhood's order
        kind, u, v = np.nonzero(np.stack(masks))
        rev = kind == 2
        # column k: the locals that move k leaves, folded as a cold rescore folds them
        cols = np.empty((n, len(kind)))
        cols[:] = np.array(locals_)[:, None]
        cols[v, np.arange(len(kind))] = np.concatenate([grown[add], shrunk[arcs], shrunk[reverse]])
        cols[u[rev], np.flatnonzero(rev)] = grown.T[reverse]
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as float addition is
            totals = fold_total(cols)
        better = np.flatnonzero(totals > total)  # NaN never compares greater
        if not better.size:
            break
        best = better[np.argmax(totals[better])]  # the first of the maximal totals
        move = (MOVE_KINDS[kind[best]], int(u[best]), int(v[best]))
        dag = apply_move(dag, move)
        locals_ = cols[:, best].tolist()
        total = float(totals[best])
        trace.append(total)
        changed = [u[best], v[best]] if rev[best] else [v[best]]  # nodes whose parents changed
        grown[:, changed] = shrunk[:, changed] = np.nan

    return SearchResult(dag, total, tuple(trace))
