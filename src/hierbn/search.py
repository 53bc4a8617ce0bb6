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


def _reverse_keeps_acyclic(dag, u, v):
    # reversing u->v cycles iff another directed path u ~> v survives
    return not dag.without_arc(u, v).has_path(u, v)


def neighbourhood(dag, max_parents=None):
    """All legal single-arc moves, deterministically ordered.

    Moves are (kind, from, to) with kind in add/delete/reverse; only
    acyclicity-preserving (and parent-limit-respecting) moves appear. The
    list is sorted lexicographically, which fixes tie-breaking downstream.
    """
    moves = []
    n = dag.node_count
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if dag.has_arc(u, v):
                moves.append(("delete", u, v))
                if _reverse_keeps_acyclic(dag, u, v) and (
                        max_parents is None or len(dag.parents(u)) < max_parents):
                    moves.append(("reverse", u, v))
            elif not dag.has_arc(v, u):
                if not dag.has_path(v, u) and (
                        max_parents is None or len(dag.parents(v)) < max_parents):
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


def run_hill_climb(data, score_config, search_config=None, start=None, cache=None):
    """Greedy ascent applying the best strictly improving single-arc move.

    A reversal is evaluated as delete plus add, rescoring only the two
    endpoints' families. Ties between equal improvements fall to the
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

    for _ in range(cfg.max_iterations):
        # candidates are compared on the folded total, the same arithmetic a
        # cold rescore of the candidate uses, so termination means no
        # neighbour scores higher even at the last floating-point bit
        best_total = total
        best = None
        for move in neighbourhood(dag, cfg.max_parents):
            kind, u, v = move
            affected = (v,) if kind in ("add", "delete") else (u, v)
            candidate = apply_move(dag, move)
            new_locals = list(locals_)
            for node in affected:
                new_locals[node] = local_log_score(data, node,
                                                   candidate.parents(node),
                                                   score_config, cache)
            new_total = fold_total(new_locals)
            if new_total > best_total:
                best_total = new_total
                best = (candidate, new_locals)
        if best is None:
            break
        dag, locals_ = best
        total = best_total
        trace.append(total)

    return SearchResult(dag, total, tuple(trace))

