"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own evaluation paths:
scores are recomputed with arbitrary-precision arithmetic (or, where a
test pins bits, with the one-table float formula), counts row by row, equivalence
classes by exhaustive enumeration, distances by breadth-first search
over single-edge edits, and CSV files are read and written row by row.
"""

import csv
import itertools
import os
from collections import Counter, deque

import mpmath as mp
import numpy as np
from scipy.special import gammaln

from hierbn.data import DataError, GroupedDataset, VariableMeta
from hierbn.graph import Dag

mp.mp.dps = 50


def bd_local_oracle(table, alpha):
    """Direct log-Gamma summation of the family marginal likelihood."""
    total = mp.mpf(0)
    n_configs, child_card = len(table), len(table[0])
    for j in range(n_configs):
        a_j = sum(mp.mpf(alpha[j][k]) for k in range(child_card))
        n_j = sum(mp.mpf(int(table[j][k])) for k in range(child_card))
        total += mp.loggamma(a_j) - mp.loggamma(a_j + n_j)
        for k in range(child_card):
            a = mp.mpf(alpha[j][k])
            total += mp.loggamma(a + int(table[j][k])) - mp.loggamma(a)
    return total


def bdeu_local_oracle(table, s):
    n_configs, child_card = len(table), len(table[0])
    a = mp.mpf(s) / (n_configs * child_card)
    alpha = [[a] * child_card for _ in range(n_configs)]
    return bd_local_oracle(table, alpha)


def bd_local_float_oracle(table, alpha):
    """The family marginal likelihood of one (J, K) table in float64, summed
    as a lone table's arrays sum: per-row totals, then each whole 2-D array."""
    table, alpha = np.asarray(table), np.asarray(alpha, dtype=float)
    alpha_j, n_j = alpha.sum(axis=1), table.sum(axis=1)
    value = (gammaln(alpha_j) - gammaln(alpha_j + n_j)).sum()
    value += (gammaln(alpha + table) - gammaln(alpha)).sum()
    return float(value)


def family_counts_oracle(data, child, parents):
    """(F, J, K) counts of one family, tallied row by row in Python."""
    cards = data.cardinalities()
    n_configs = int(np.prod([cards[p] for p in parents], dtype=np.int64))
    table = np.zeros((data.n_groups, n_configs, cards[child]), dtype=np.int64)
    for f, block in enumerate(data.group_rows):
        for row in block.tolist():
            config = 0
            for p in parents:
                config = config * cards[p] + row[p]
            table[f, config, row[child]] += 1
    return table


def all_dags(n):
    """Every DAG on n nodes, by enumerating the 3 states of each node pair."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = set()
        for (u, v), state in zip(pairs, states):
            if state == 1:
                arcs.add((u, v))
            elif state == 2:
                arcs.add((v, u))
        try:
            out.append(Dag(n, frozenset(arcs)))
        except ValueError:
            continue
    return out


def class_signature(dag):
    """(skeleton, v-structures): equal signatures mean Markov equivalence."""
    skeleton = frozenset(frozenset(arc) for arc in dag.arcs)
    colliders = set()
    for z in range(dag.node_count):
        for x, y in itertools.combinations(dag.parents(z), 2):
            if not dag.adjacent(x, y):
                colliders.add((x, z, y))
    return skeleton, frozenset(colliders)


def equivalence_classes(n):
    classes = {}
    for dag in all_dags(n):
        classes.setdefault(class_signature(dag), []).append(dag)
    return classes


def cpdag_oracle(dag, classes=None):
    """Pair statuses agreed by every member of the equivalence class."""
    if classes is None:
        classes = equivalence_classes(dag.node_count)
    members = classes[class_signature(dag)]
    directed, undirected = set(), set()
    for pair in class_signature(dag)[0]:
        u, v = sorted(pair)
        if all((u, v) in d.arcs for d in members):
            directed.add((u, v))
        elif all((v, u) in d.arcs for d in members):
            directed.add((v, u))
        else:
            undirected.add((u, v))
    return frozenset(directed), frozenset(undirected)


def _status_vector(cpdag, pairs):
    return tuple(cpdag.pair_status(u, v) for u, v in pairs)


def shd_oracle(cpdag_a, cpdag_b):
    """Minimum single-pair edit operations between two class representatives.

    An operation rewrites one node pair's status (absent, either direction,
    undirected); BFS guarantees minimality.
    """
    pairs = list(itertools.combinations(range(cpdag_a.node_count), 2))
    start = _status_vector(cpdag_a, pairs)
    goal = _status_vector(cpdag_b, pairs)
    seen = {start: 0}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if current == goal:
            return seen[current]
        for i in range(len(pairs)):
            for status in ("none", "fwd", "rev", "und"):
                if status == current[i]:
                    continue
                nxt = current[:i] + (status,) + current[i + 1:]
                if nxt not in seen:
                    seen[nxt] = seen[current] + 1
                    queue.append(nxt)
    raise AssertionError("unreachable")


def random_dag_uniform_pairs(n, rng, p=0.4):
    """A random DAG by orienting random pairs along a random order."""
    order = rng.permutation(n)
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                arcs.add((int(order[i]), int(order[j])))
    return Dag(n, frozenset(arcs))


def load_csv_oracle(path, group_column):
    """Read a header-named CSV into a GroupedDataset.

    Every column except ``group_column`` becomes a variable whose levels are
    the distinct observed strings, sorted lexicographically. Groups are the
    distinct labels of ``group_column``, also sorted. Passing
    ``group_column=None`` places all rows in a single unnamed group.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, newline="") as fh:
        # a blank line parses to [] unless a quote left open swallows it
        rows = list(csv.reader(itertools.chain(fh, ["\n"])))
    if rows.pop() != []:
        raise DataError(f"{path}: quoted cell left open at the end of the file")
    if not rows:
        raise DataError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    repeated = sorted(name for name, k in Counter(header).items() if k > 1)
    if repeated:
        raise DataError(f"repeated column names: {repeated}")
    if group_column is not None and group_column not in header:
        raise DataError(f"unknown group column {group_column!r}")
    if not rows:
        raise DataError(f"{path}: no data rows")

    group_idx = header.index(group_column) if group_column is not None else None
    var_names = [name for i, name in enumerate(header) if i != group_idx]
    if not var_names:
        raise DataError("no variable columns besides the group column")

    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {r + 2}: expected {len(header)} cells, got {len(row)}")
        for cell in row:
            if cell == "":
                raise DataError(f"row {r + 2}: incomplete data (empty cell)")

    var_cols = [i for i in range(len(header)) if i != group_idx]
    levels = []
    for i in var_cols:
        observed = sorted({row[i] for row in rows})
        if len(observed) < 2:
            raise DataError(f"degenerate variable {header[i]!r}: fewer than 2 observed levels")
        levels.append(observed)
    variables = [VariableMeta(header[i], tuple(lv)) for i, lv in zip(var_cols, levels)]
    level_index = [{label: k for k, label in enumerate(lv)} for lv in levels]

    if group_idx is None:
        group_labels = [""]
        by_group = {"": rows}
    else:
        group_labels = sorted({row[group_idx] for row in rows})
        by_group = {g: [] for g in group_labels}
        for row in rows:
            by_group[row[group_idx]].append(row)

    blocks = []
    for g in group_labels:
        block = np.empty((len(by_group[g]), len(var_cols)), dtype=np.int64)
        for r, row in enumerate(by_group[g]):
            for c, i in enumerate(var_cols):
                block[r, c] = level_index[c][row[i]]
        blocks.append(block)
    return GroupedDataset(variables, group_labels, blocks)


def write_replicate_csv_oracle(path, dataset):
    """Write ``dataset`` as ``hierbn simulate`` does, one cell lookup at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = [v.name for v in dataset.variables]
        writer.writerow(["group"] + names)
        for label, block in zip(dataset.groups, dataset.group_rows):
            for row in block:
                writer.writerow([label] + [dataset.variables[i].levels[row[i]]
                                           for i in range(len(names))])
