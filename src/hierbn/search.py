"""Greedy structure search over single-arc moves."""

from dataclasses import dataclass

from .graph import Dag
from .scores import LocalScoreCache, fold_total, local_log_score


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


def neighbourhood(dag, max_parents=None):
    """All legal single-arc moves, deterministically ordered.

    Moves are (kind, from, to) with kind in add/delete/reverse; only
    acyclicity-preserving (and parent-limit-respecting) moves appear. The
    list is sorted lexicographically, which fixes tie-breaking downstream.
    """
    n = dag.node_count
    below = dag.descendants()  # bit w of below[v] is set iff w is a proper descendant of v
    room = [max_parents is None or len(dag.parents(v)) < max_parents for v in range(n)]
    moves = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if (u, v) in dag.arcs:
                moves.append(("delete", u, v))
                # reversing u->v cycles iff another child of u reaches v
                if room[u] and not any(below[c] >> v & 1 for c in dag.children(u)):
                    moves.append(("reverse", u, v))
            elif not below[v] >> u & 1 and room[v]:
                moves.append(("add", u, v))
    moves.sort()
    return moves


def apply_move(dag, move):
    kind, u, v = move
    if kind == "add":
        return dag.with_arc(u, v)
    if kind == "delete":
        return dag.without_arc(u, v)
    if kind == "reverse":
        return dag.with_reversed(u, v)
    raise ValueError(f"unknown move kind {kind!r}")


def _moved_families(move, dag):
    """(node, new parents sorted as ``Dag.parents`` gives them) per changed family."""
    kind, u, v = move
    if kind == "add":
        return ((v, tuple(sorted(dag.parents(v) + (u,)))),)
    dropped = (v, tuple(p for p in dag.parents(v) if p != u))
    return (dropped,) if kind == "delete" else ((u, tuple(sorted(dag.parents(u) + (v,)))), dropped)


def run_hill_climb(data, score_config, search_config=None, start=None, cache=None):
    """Greedy ascent applying the best strictly improving single-arc move.

    A move is scored from the families it changes (one for add or delete,
    both endpoints' for reverse); those locals are reused until one of the
    families changes. Ties between equal improvements fall to the
    lexicographically first move. Returns the climbed DAG, its total score
    (the per-node locals folded by ``fold_total``, so it matches a cold
    evaluation of the final graph), and the score trace.
    """
    cfg = search_config or SearchConfig()
    n = data.n_variables
    dag = start if start is not None else Dag(n)
    if dag.node_count != n:
        raise ValueError("start graph size does not match the dataset")
    if cache is None:
        cache = LocalScoreCache()

    locals_ = [local_log_score(data, i, dag.parents(i), score_config, cache)
               for i in range(n)]
    total = fold_total(locals_)
    trace = [total]
    table = {}  # move -> ((node, new local), ...) under the current parents

    for _ in range(cfg.max_iterations):
        # candidates are compared on the folded total, the same arithmetic a
        # cold rescore of the candidate uses, so termination means no
        # neighbour scores higher even at the last floating-point bit
        best_total = total
        best = None
        for move in neighbourhood(dag, cfg.max_parents):
            changes = table.get(move)
            if changes is None:
                changes = table[move] = tuple(
                    (node, local_log_score(data, node, pa, score_config, cache))
                    for node, pa in _moved_families(move, dag))
            new_locals = list(locals_)
            for node, value in changes:
                new_locals[node] = value
            new_total = fold_total(new_locals)
            if new_total > best_total:
                best_total = new_total
                best = (move, new_locals)
        if best is None:
            break
        move, locals_ = best
        dag = apply_move(dag, move)
        total = best_total
        trace.append(total)
        changed = {node for node, _ in table[move]}
        table = {m: c for m, c in table.items()
                 if not any(node in changed for node, _ in c)}

    return SearchResult(dag, total, tuple(trace))
