"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own evaluation paths:
scores are recomputed with arbitrary-precision arithmetic (or, where a
test pins bits, with the one-table float formula), counts row by row, equivalence
classes by exhaustive enumeration, distances by breadth-first search
over single-edge edits, and CSV files are read and written row by row
(and split into lines in text mode). The data sampler sums each row's
gathered probabilities, as first written.
The per-configuration fixed-point fit is written one configuration at a
time, to pin the package's stacked fit bit for bit; its Laplace evidence is
checked against an mpmath quadrature of the exact evidence. The exact
optimum of a score comes from a dynamic programme over parent subsets.
"""

import csv
import itertools
import math
import os
import warnings
from collections import Counter, deque

import mpmath as mp
import numpy as np
from scipy.special import digamma, gammaln, polygamma

from hierbn.data import DataError, GroupedDataset, VariableMeta
from hierbn.graph import Dag
from hierbn.hier import VariationalConvergenceWarning, VariationalFit
from hierbn.scores import local_log_scores, total_log_score

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


def line_pass_oracle(path):
    """The line pass of hierbn.data.load_csv as first written: text mode,
    one dict call per line. Returns (id of each line in file order, the
    distinct lines), ids in order of first appearance."""
    line_ids = {}
    with open(path, newline="") as fh:
        ids = np.fromiter((line_ids.setdefault(line, len(line_ids)) for line in fh), np.int64)
    return ids, list(line_ids)


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
        lines = fh.readlines()
    if lines and lines[0].startswith("\ufeff"):  # a byte-order mark is not header text
        lines[0] = lines[0][1:]
    # a blank line parses to [] unless a quote left open swallows it
    rows = list(csv.reader(lines + ["\n"]))
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

def sample_data_oracle(truth, rows_per_group, rng):
    """``simgen.sample_data`` as first written: each row's gathered
    probabilities summed again, one (rows, N) block a group."""
    rng = np.random.default_rng(rng)
    card, n = truth.config.card, truth.master.node_count
    variables = [VariableMeta(f"X{i + 1:02d}", tuple(f"v{k}" for k in range(card)))
                 for i in range(n)]
    groups = [f"g{f + 1:02d}" for f in range(truth.config.n_groups)]
    blocks = []
    for f, gdag in enumerate(truth.group_dags):
        block = np.zeros((rows_per_group, n), dtype=np.int64)
        for node in gdag.topological_order():
            config_idx = np.zeros(rows_per_group, dtype=np.int64)
            for p in gdag.parents(node):
                config_idx = config_idx * card + block[:, p]
            cumulative = np.cumsum(truth.group_params[f][node][config_idx], axis=1)
            u = rng.random(rows_per_group)
            block[:, node] = np.minimum((u[:, None] > cumulative).sum(axis=1), card - 1)
        blocks.append(block)
    return GroupedDataset(variables, groups, blocks)


def _log_posterior_float(x, tallies, a, alpha0):
    """g of one configuration at the log-ratio point x, in Python floats:
    the log Dirichlet-multinomial of each group's tallies at weights a * p,
    the log Dirichlet(alpha0) density of p and the basis's Jacobian."""
    xs = list(x) + [0.0]
    top = max(xs)
    log_p = [v - top - math.log(math.fsum(math.exp(w - top) for w in xs)) for v in xs]
    value = math.lgamma(math.fsum(alpha0)) + math.fsum(
        b * lp - math.lgamma(b) for b, lp in zip(alpha0, log_p))
    for tally in tallies:
        value += math.lgamma(a) - math.lgamma(a + sum(tally))
        for lp, n in zip(log_p, tally):
            ap = a * math.exp(lp)
            if n and ap == 0.0:
                return -math.inf  # far in a tail, where the density is 0
            if n:
                value += math.lgamma(ap + n) - math.lgamma(ap)
    return value


def exact_config_evidence(tallies, a, alpha0=None):
    """The exact log evidence of one parent configuration: the integral of
    exp(g) over the log-ratio coordinates x of its centre p, by mpmath's
    tanh-sinh quadrature, 1-D for K = 2 and 2-D for K = 3.

    ``tallies`` is (F, K) counts, group f's child distribution is
    Dirichlet(a * p) and p is Dirichlet(``alpha0``), one per level by
    default. The integrand is evaluated in floats, shifted by its value at
    the pooled frequencies so that it neither overflows nor underflows, and
    each axis is split at that point.
    """
    tallies = [[int(n) for n in tally] for tally in tallies]
    k = len(tallies[0])
    if k not in (2, 3):
        raise ValueError("exact evidence is computed for 2 or 3 child levels only")
    alpha0 = [1.0] * k if alpha0 is None else [float(b) for b in alpha0]
    pooled = [sum(tally[i] for tally in tallies) + alpha0[i] for i in range(k)]
    centre = [math.log(pooled[i] / pooled[-1]) for i in range(k - 1)]
    shift = _log_posterior_float(centre, tallies, a, alpha0)

    def density(*x):
        return mp.exp(_log_posterior_float([float(v) for v in x], tallies, a, alpha0) - shift)

    with mp.workdps(15):
        area = mp.quad(density, *[[-mp.inf, c, mp.inf] for c in centre])
        return shift + float(mp.log(area))


HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _config_log_posterior(n, a0, a, const, p):
    """g of one configuration at its centre p, with n its (K, F) counts."""
    ap = a * p
    return const + (gammaln(ap[:, None] + n) - gammaln(ap)[:, None]).sum() + (a0 * np.log(p)).sum()


def _fixed_point_config_oracle(tallies, a0, a, tol, max_iters, path=None):
    """Fixed-point fit of one configuration's centre, (F, K) tallies, one
    step p <- u / sum(u) at a time from the pooled frequencies, the
    curvature of its Laplace term from polygamma. Returns (p, log evidence,
    trace of g, converged); with a list for ``path``, it receives p at the
    start and after each step."""
    totals = tallies.sum(axis=1)
    n = np.ascontiguousarray(tallies.T, dtype=float)
    const = ((gammaln(a) - gammaln(a + totals)).sum()
             + gammaln(a0.sum()) - gammaln(a0).sum())
    p = n.sum(axis=1) + a0
    p = p / p.sum()
    trace = [_config_log_posterior(n, a0, a, const, p)]
    gtol = tol * max(abs(trace[0]), 1.0)
    if path is not None:
        path.append(p)
    converged = False
    for _ in range(max_iters):
        ap = a * p
        u = ap * (digamma(ap[:, None] + n) - digamma(ap)[:, None]).sum(axis=1) + a0
        total = u.sum()
        step = u / total
        converged = bool(np.abs(u - p * total).max() <= gtol or np.all(step == p))
        p = step
        trace.append(_config_log_posterior(n, a0, a, const, p))
        if path is not None:
            path.append(p)
        if converged:
            break
    ap = a * p
    s = ap * ap * (polygamma(1, ap)[:, None] - polygamma(1, ap[:, None] + n)).sum(axis=1) + a0
    log_det = np.log(s).sum() + np.log((p * p / s).sum())
    evidence = trace[-1] + (len(a0) - 1) * HALF_LOG_2PI - 0.5 * log_det
    return p, evidence, trace, converged


def fixed_point_fit_oracle(counts, prior, tol=1e-6, max_iters=500):
    """``hier.fit_variational`` and the family's bhd local, one
    configuration at a time: each observed configuration is fitted alone,
    its evidence folded in configuration order (an empty one adds nothing,
    its centre is its hyperprior mean), and its trace of g is held at its
    last value once it stops. Returns (fit, local)."""
    n_configs = counts.n_configs
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive and max_iters at least 1")
    if prior.alpha0.shape != (n_configs, counts.child_card):
        raise ValueError("prior shape does not match the family's cell grid")
    a = prior.s / n_configs
    kappa = prior.alpha0 / prior.alpha0.sum(axis=1, keepdims=True)
    local, traces, converged = 0.0, [], True
    for j in range(n_configs):
        tallies = counts.per_group[:, j, :]
        if tallies.sum() == 0:
            continue
        p, evidence, trace, done = _fixed_point_config_oracle(tallies, prior.alpha0[j], a, tol,
                                                              max_iters)
        kappa[j] = p
        local += evidence
        traces.append(trace)
        converged &= done
    kappa /= n_configs
    if not converged:
        warnings.warn("centre fit stopped at max_iters without meeting tol",
                      VariationalConvergenceWarning, stacklevel=2)
    trace = []
    for i in range(max(map(len, traces), default=1)):
        total = 0.0
        for values in traces:
            total += values[min(i, len(values) - 1)]
        trace.append(total)
    fit = VariationalFit(kappa, prior.s, prior.s * kappa[None] + counts.per_group, tuple(trace),
                         converged)
    return fit, local


def exact_optimum(data, config):
    """The best DAG under ``config`` and its score, by the dynamic
    programme over parent subsets of Silander & Myllymaki (2006): the best
    parent set of each node within every candidate set, then the best sink
    of every node subset. The total is refolded in node order, as the
    package folds every total."""
    n = data.n_variables
    full = (1 << n) - 1
    members = [[v for v in range(n) if mask >> v & 1] for mask in range(1 << n)]
    families = [(v, tuple(members[mask])) for v in range(n) for mask in range(1 << n)
                if not mask >> v & 1]
    local = dict(zip(families, local_log_scores(data, families, config)))
    best_set = {}  # (v, candidates) -> (score, parents), over subsets of candidates
    for v in range(n):
        for mask in range(1 << n):
            if mask >> v & 1:
                continue
            best = (local[(v, tuple(members[mask]))], mask)
            for u in members[mask]:
                best = max(best, best_set[(v, mask & ~(1 << u))], key=lambda b: b[0])
            best_set[(v, mask)] = best
    network = {0: (0.0, None)}  # node subset -> (score, its last sink)
    for mask in range(1, 1 << n):
        network[mask] = max(((network[mask & ~(1 << v)][0] + best_set[(v, mask & ~(1 << v))][0], v)
                             for v in members[mask]), key=lambda b: b[0])
    arcs, mask = set(), full
    while mask:
        sink = network[mask][1]
        mask &= ~(1 << sink)
        arcs |= {(u, sink) for u in members[best_set[(sink, mask)][1]]}
    dag = Dag(n, frozenset(arcs))
    return dag, total_log_score(dag, data, config)
