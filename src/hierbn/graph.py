"""Directed acyclic graphs, their equivalence-class representatives, and
structural distance metrics.

Nodes are integer indices 0..n-1; name mapping is left to callers. Dag values
are immutable snapshots: mutating operations return new values.
"""

import heapq
import itertools
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .data import check_count, is_integer


class CycleError(ValueError):
    """Raised when an arc set admits no topological order."""


def _smallest_first_order(children):
    """Kahn's walk over child lists, always taking the smallest ready node;
    the order is shorter than the node count iff the graph has a cycle."""
    indegree = [0] * len(children)
    for kids in children:
        for v in kids:
            indegree[v] += 1
    ready = [v for v, k in enumerate(indegree) if k == 0]  # ascending, so a heap
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in children[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heapq.heappush(ready, v)
    return order


def is_acyclic(node_count, arcs):
    """Whether the arc set over ``node_count`` nodes admits a topological order."""
    children = [[] for _ in range(node_count)]
    for u, v in arcs:
        children[u].append(v)
    return len(_smallest_first_order(children)) == node_count


def _arc_matrix(dag):
    arcs = np.zeros((dag.node_count, dag.node_count), dtype=bool)
    if dag.arcs:
        arcs[tuple(zip(*dag.arcs))] = True
    return arcs


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


@dataclass(frozen=True)
class Dag:
    """Immutable directed acyclic graph over ``node_count`` labelled nodes."""

    node_count: int
    arcs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        check_count("node_count", self.node_count, 0)
        if not all(is_integer(end) for arc in self.arcs for end in arc):
            raise ValueError("arc ends must be integer node indices")
        arcs = frozenset((int(u), int(v)) for u, v in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        parents = [[] for _ in range(self.node_count)]
        children = [[] for _ in range(self.node_count)]
        for u, v in sorted(arcs):
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"arc ({u}, {v}) out of range")
            parents[v].append(u)
            children[u].append(v)
        if len(_smallest_first_order(children)) != self.node_count:
            raise CycleError("arc set contains a cycle")
        object.__setattr__(self, "_parents", tuple(map(tuple, parents)))
        object.__setattr__(self, "_children", tuple(map(tuple, children)))

    def _node(self, v):
        """``v``; a ValueError unless it is an integer (``is_integer``) in
        [0, node_count)."""
        if not is_integer(v) or not 0 <= v < self.node_count:
            raise ValueError(f"node index {v!r} is not an integer in [0, {self.node_count})")
        return v

    def parents(self, v):
        return self._parents[self._node(v)]

    def children(self, u):
        return self._children[self._node(u)]

    def adjacent(self, u, v):
        return (u, v) in self.arcs or (v, u) in self.arcs

    def has_path(self, source, target):
        source, target = self._node(source), self._node(target)
        return source == target or bool(_reachability(_arc_matrix(self))[source, target])

    def with_arc(self, u, v):
        return Dag(self.node_count, self.arcs | {(u, v)})

    def without_arc(self, u, v):
        if (u, v) not in self.arcs:
            raise ValueError(f"arc ({u}, {v}) not present")
        return Dag(self.node_count, self.arcs - {(u, v)})

    def with_reversed(self, u, v):
        if (u, v) not in self.arcs:
            raise ValueError(f"arc ({u}, {v}) not present")
        return Dag(self.node_count, (self.arcs - {(u, v)}) | {(v, u)})

    def topological_order(self):
        """Smallest index first: simgen samples in this order, so it fixes every dataset."""
        return tuple(_smallest_first_order(self._children))

    @property
    def arc_count(self):
        return len(self.arcs)

    def sorted_arcs(self):
        return tuple(sorted(self.arcs))


@dataclass(frozen=True)
class Cpdag:
    """Partially directed representative of a Markov equivalence class.

    ``directed`` holds compelled arcs (u, v); ``undirected`` holds reversible
    adjacencies as sorted pairs (min, max). The two sets are disjoint by
    construction.
    """

    node_count: int
    directed: frozenset
    undirected: frozenset

    def __post_init__(self):
        und = frozenset((min(u, v), max(u, v)) for u, v in self.undirected)
        object.__setattr__(self, "undirected", und)
        for u, v in self.directed:
            if (min(u, v), max(u, v)) in und:
                raise ValueError(f"pair ({u}, {v}) both directed and undirected")

    def skeleton(self):
        pairs = {(min(u, v), max(u, v)) for u, v in self.directed}
        return frozenset(pairs | set(self.undirected))

    def pair_status(self, u, v):
        """One of 'none', 'fwd' (u->v), 'rev' (v->u), 'und'."""
        if (u, v) in self.directed:
            return "fwd"
        if (v, u) in self.directed:
            return "rev"
        if (min(u, v), max(u, v)) in self.undirected:
            return "und"
        return "none"

    @property
    def edge_count(self):
        return len(self.directed) + len(self.undirected)


def _v_structures(dag):
    out = set()
    for z in range(dag.node_count):
        pa = dag.parents(z)
        for x, y in itertools.combinations(pa, 2):
            if not dag.adjacent(x, y):
                out.add((x, z, y))
    return frozenset(out)


def to_cpdag(dag):
    """Skeleton plus v-structures, closed under the orientation rules.

    Three propagation rules suffice to orient every compelled arc when the
    starting point is the pattern of an actual DAG (no background
    knowledge); the remaining skeleton edges stay undirected.
    """
    n = dag.node_count
    adj = [set() for _ in range(n)]
    for u, v in dag.arcs:
        adj[u].add(v)
        adj[v].add(u)
    directed = set()
    for x, z, y in _v_structures(dag):
        directed.add((x, z))
        directed.add((y, z))

    def und_neighbours(a):
        return [b for b in adj[a] if (a, b) not in directed and (b, a) not in directed]

    changed = True
    while changed:
        changed = False
        # R1: a->b, b-c, a and c non-adjacent  =>  b->c
        for a, b in list(directed):
            for c in und_neighbours(b):
                if c != a and c not in adj[a]:
                    directed.add((b, c))
                    changed = True
        # R2: a->c->b with a-b undirected  =>  a->b
        for a in range(n):
            for b in und_neighbours(a):
                if any((a, c) in directed and (c, b) in directed for c in adj[a]):
                    directed.add((a, b))
                    changed = True
        # R3: a-b, a-c, a-d, c->b, d->b, c and d non-adjacent  =>  a->b
        for a in range(n):
            for b in und_neighbours(a):
                into_b = [c for c in und_neighbours(a) if (c, b) in directed]
                if any(d not in adj[c] and c != d
                       for c, d in itertools.combinations(into_b, 2)):
                    directed.add((a, b))
                    changed = True

    undirected = set()
    for u in range(n):
        for v in adj[u]:
            if u < v and (u, v) not in directed and (v, u) not in directed:
                undirected.add((u, v))
    return Cpdag(n, frozenset(directed), frozenset(undirected))


def _shared_cpdags(estimated, truth):
    """Both graphs as equivalence-class representatives; a ValueError unless
    they have the same node count."""
    a, b = (g if isinstance(g, Cpdag) else to_cpdag(g) for g in (estimated, truth))
    if a.node_count != b.node_count:
        raise ValueError("graphs must share the node set")
    return a, b


def shd(estimated, truth):
    """Structural Hamming distance between the equivalence classes.

    Both inputs are reduced to their equivalence-class representatives, then
    every node pair whose status differs (absent / directed either way /
    undirected) counts as one edit.
    """
    a, b = _shared_cpdags(estimated, truth)
    count = 0
    for u, v in itertools.combinations(range(a.node_count), 2):
        if a.pair_status(u, v) != b.pair_status(u, v):
            count += 1
    return count


def arc_confusion(estimated, truth):
    """Skeleton-level (tp, fp, fn) of the equivalence-class representatives."""
    a, b = (g.skeleton() for g in _shared_cpdags(estimated, truth))
    tp = len(a & b)
    fp = len(a - b)
    fn = len(b - a)
    return tp, fp, fn


def _check_names(names):
    if not all(isinstance(name, str) for name in names) or len(set(names)) < len(names):
        raise ValueError("node names must be distinct strings")


def _names_to_write(dag, names):
    """X0, X1, ... when ``names`` is None, else ``names`` as a list; a
    ValueError unless they are ``dag.node_count`` distinct strings, the
    names a reader accepts."""
    if names is None:
        return [f"X{i}" for i in range(dag.node_count)]
    names = list(names)
    _check_names(names)
    if len(names) != dag.node_count:
        raise ValueError(f"{len(names)} node names for {dag.node_count} nodes")
    return names


def dag_to_json(dag, names=None):
    """Serialize as a versioned JSON document with named nodes."""
    names = _names_to_write(dag, names)
    doc = {
        "schema": 1,
        "nodes": list(names),
        "arcs": [[names[u], names[v]] for u, v in dag.sorted_arcs()],
    }
    return json.dumps(doc, indent=2)


def _named_dag(names, arcs):
    """The Dag over ``names``, in order, with the named ``(from, to)`` arcs; a
    ValueError unless the names are distinct strings and every arc joins two."""
    _check_names(names)
    index = {name: i for i, name in enumerate(names)}
    if not all(isinstance(end, str) and end in index for arc in arcs for end in arc):
        raise ValueError("every arc must join two of the nodes")
    return Dag(len(names), frozenset((index[u], index[v]) for u, v in arcs))


def dag_from_json(text):
    """Inverse of dag_to_json; returns (Dag, node names)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a graph must be a JSON object")
    if not isinstance(doc.get("nodes"), list) or not isinstance(doc.get("arcs"), list):
        raise ValueError('a graph needs "nodes" and "arcs" lists')
    if not all(isinstance(arc, list) and len(arc) == 2 for arc in doc["arcs"]):
        raise ValueError("every arc must be a [from, to] pair")
    return _named_dag(doc["nodes"], doc["arcs"]), doc["nodes"]


def dag_to_dot(dag, names=None):
    """DOT text: a quoted line per node in order, then one per arc, sorted.
    A quote or backslash in a name is escaped with a backslash; a name
    holding a line break is a ValueError, since a DOT line cannot hold it."""
    names = _names_to_write(dag, names)
    broken = [name for name in names if "\n" in name or "\r" in name]
    if broken:
        raise ValueError(f"a DOT name cannot hold a line break: {broken[0]!r}")
    quoted = ['"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"' for name in names]
    lines = ["digraph g {"]
    lines += [f"  {name};" for name in quoted]
    lines += [f"  {quoted[u]} -> {quoted[v]};" for u, v in dag.sorted_arcs()]
    lines.append("}")
    return "\n".join(lines) + "\n"


# a DOT name: quoted, with \" and \\ escapes; bare, no space, quote, ";", "->" or "--"
_DOT_NAME = r'\s*("(?:[^"\\]|\\.)*"|(?:[^\s";-]|-(?![->]))+)\s*'
_DOT_LINE = re.compile(_DOT_NAME + "(?:(->|--)" + _DOT_NAME + ")?;?")
_DOT_ESCAPE = re.compile(r'\\([\\"])')


def _dot_name(token):
    if token.startswith('"'):
        return _DOT_ESCAPE.sub(r"\1", token[1:-1])
    return token


def dag_from_dot(text):
    """Inverse of dag_to_dot; returns (Dag, node names). Reads ``"a";`` node and
    ``"a" -> "b";`` arc lines, quotes optional, and ``\\"`` and ``\\\\`` in a
    quoted name as ``"`` and ``\\``; a ``--`` outside quotes is a ValueError.
    With no node lines, the nodes are the arc ends in first-seen order."""
    names, arcs = [], []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("digraph", "}")):
            continue
        match = _DOT_LINE.fullmatch(line)
        if not match:
            raise ValueError(f"line {number}: neither a node nor an arc: {raw!r}")
        first, op, second = match.groups()
        first, second = _dot_name(first), second and _dot_name(second)
        if op == "--":
            raise ValueError(f"line {number}: an undirected edge; a DAG has only -> arcs")
        if op:
            arcs.append((first, second))
        else:
            names.append(first)
    if not names:
        names = list(dict.fromkeys(end for arc in arcs for end in arc))
    return _named_dag(names, arcs), names
