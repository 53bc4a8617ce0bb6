"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own evaluation paths:
scores are recomputed with arbitrary-precision arithmetic (or, where a
test pins bits, with the one-table float formula), counts row by row, equivalence
classes by exhaustive enumeration, distances by breadth-first search
over single-edge edits, and CSV files are read and written row by row
(and split into lines in text mode).
The per-configuration fixed-point fit is written one configuration at a
time, to pin the package's stacked fit bit for bit; its Laplace evidence is
checked against an mpmath quadrature of the exact evidence. The joint-cell
variational fit that the package used before is kept as first written, as
the reference of that removed score. The exact optimum of a score comes
from a dynamic programme over parent subsets.
"""

import csv
import itertools
import math
import os
import warnings
from collections import Counter, deque

import mpmath as mp
import numpy as np
from scipy.special import digamma, gammaln, polygamma, softmax, zeta

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


# The variational fit of hierbn.hier as first written (L-BFGS on the profiled
# bound), constants included, so a change to the package's fit or its
# settings cannot move this reference with it.
KAPPA_FLOOR = 1e-12
_LOG_TAU_MIN = np.log(1e-8)
_LOG_TAU_MAX = np.log(1e10)
_LBFGS_PAIRS = 10


def _dirichlet_entropy(params):
    """Entropy of Dirichlet rows; params has shape (..., M)."""
    m = params.shape[-1]
    tot = params.sum(axis=-1)
    return (gammaln(params).sum(axis=-1) - gammaln(tot)
            + (tot - m) * digamma(tot)
            - ((params - 1.0) * digamma(params)).sum(axis=-1))


def _expected_lgamma_alpha(s, kappa, tau):
    """Second-order expansion of E[lnGamma(s * centre_m)] about the mean.

    The exact expectation has no closed form; the quadratic term uses the
    Dirichlet(tau * kappa) variance of each coordinate.
    """
    var = s * s * kappa * (1.0 - kappa) / (tau + 1.0)
    return gammaln(s * kappa) + 0.5 * zeta(2, s * kappa) * var


def _elbo_flat(n, a0, s, kappa, tau, nu):
    n_groups, m = n.shape
    s0 = a0.sum()
    e_log_theta = digamma(nu) - digamma(nu.sum(axis=1, keepdims=True))
    tk = tau * kappa
    value = float(((n + s * kappa - 1.0) * e_log_theta).sum())
    value += n_groups * float(gammaln(s)) - n_groups * float(_expected_lgamma_alpha(s, kappa, tau).sum())
    value += float(gammaln(s0)) - float(gammaln(a0).sum())
    value += float(((a0 - 1.0) * (digamma(tk) - digamma(tau))).sum())
    value += float(_dirichlet_entropy(nu).sum())
    value += float(_dirichlet_entropy(tk[None, :])[0])
    return value


def _elbo_grad_flat(n, a0, s, kappa, tau, nu):
    """Analytic gradient in the unconstrained parameterization.

    Returns (g_rho, g_tau): g_rho is the gradient with respect to the
    softmax logits of kappa, g_tau the plain tau derivative.
    """
    n_groups, m = n.shape
    e_log_theta_sum = (digamma(nu) - digamma(nu.sum(axis=1, keepdims=True))).sum(axis=0)
    sk = s * kappa
    tk = tau * kappa
    # polygamma(1, x) = zeta(2, x) and polygamma(2, x) = -2 zeta(3, x), the
    # same values from a cheaper call
    pg1_sk = zeta(2, sk)
    pg1_tk = zeta(2, tk)
    pg2_sk = -2.0 * zeta(3, sk)
    var = s * s * kappa * (1.0 - kappa) / (tau + 1.0)
    d_eg = (s * digamma(sk)
            + 0.5 * (s * pg2_sk * var + pg1_sk * s * s * (1.0 - 2.0 * kappa) / (tau + 1.0)))
    g_kappa = s * e_log_theta_sum - n_groups * d_eg + (a0 - tk) * tau * pg1_tk
    g_rho = kappa * (g_kappa - float((g_kappa * kappa).sum()))
    g_tau = (n_groups * 0.5 * float((pg1_sk * s * s * kappa * (1.0 - kappa)).sum()) / (tau + 1.0) ** 2
             + float(((a0 - 1.0) * (kappa * pg1_tk - zeta(2, tau))).sum())
             + (tau - m) * float(zeta(2, tau))
             - float(((tk - 1.0) * kappa * pg1_tk).sum()))
    return g_rho, float(g_tau)


def _clamp_simplex(kappa):
    kappa = np.maximum(kappa, KAPPA_FLOOR)
    return kappa / kappa.sum()


def _centre(x):
    """(kappa, tau) from x = (softmax logits of kappa, log tau)."""
    return _clamp_simplex(softmax(x[:-1])), float(np.exp(x[-1]))


def _profiled_elbo(n, a0, s, x):
    """The bound with every nu_f at its conditional maximiser s * kappa + n_f."""
    kappa, tau = _centre(x)
    return _elbo_flat(n, a0, s, kappa, tau, s * kappa + n)


def _profiled_grad(n, a0, s, x):
    # envelope theorem: the bound is stationary in nu at s * kappa + n, so its
    # partial gradient in (kappa, tau) there is the profiled gradient
    kappa, tau = _centre(x)
    g_rho, g_tau = _elbo_grad_flat(n, a0, s, kappa, tau, s * kappa + n)
    return np.append(g_rho, g_tau * tau)


def _lbfgs_direction(grad, pairs):
    """Two-loop recursion: the inverse-Hessian estimate applied to grad.

    ``pairs`` holds (step, gradient decrease, 1 / curvature), oldest first;
    with none stored the direction is grad scaled to unit length.
    """
    if not pairs:
        return grad / np.linalg.norm(grad)
    q = grad.copy()
    alphas = []
    for step, dgrad, rho in reversed(pairs):
        alphas.append(rho * float(step @ q))
        q -= alphas[-1] * dgrad
    step, dgrad, _ = pairs[-1]
    q *= float(step @ dgrad) / float(dgrad @ dgrad)
    for (step, dgrad, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(dgrad @ q)) * step
    return q


def _armijo_step(n, a0, s, x, value, grad, direction):
    """Backtrack along direction until the bound rises by the Armijo margin.

    Returns (x, bound) of the accepted point, or None once the first-order
    gain of the remaining steps is below the float resolution of the bound.
    """
    slope = float(grad @ direction)
    resolution = 4.0 * np.finfo(float).eps * max(1.0, abs(value))
    t = 1.0
    while t * slope > resolution:
        trial_x = x + t * direction
        trial_x[-1] = np.clip(trial_x[-1], _LOG_TAU_MIN, _LOG_TAU_MAX)
        trial = _profiled_elbo(n, a0, s, trial_x)
        if trial > value and trial >= value + 1e-4 * t * slope:
            return trial_x, trial
        t *= 0.5
    return None


def fit_variational_oracle(counts, prior, tol=1e-6, max_iters=500):
    """``hier.fit_variational`` as the L-BFGS fit was first written, kept
    as its bit-for-bit reference: scipy's softmax, ``np.clip`` on log tau,
    and the bound and its gradient in separate calls, so every accepted
    point is evaluated twice. The package's fit must return the same
    kappa, tau, elbo_trace and converged flag on every family.
    """
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be positive and max_iters at least 1")
    n_groups = counts.n_groups
    shape = (counts.n_configs, counts.child_card)
    if prior.alpha0.shape != shape:
        raise ValueError("prior shape does not match the family's cell grid")
    m = shape[0] * shape[1]
    n = counts.per_group.reshape(n_groups, m).astype(float)
    a0 = prior.alpha0.reshape(m)
    s = prior.s
    s0 = float(a0.sum())

    if counts.total == 0:
        # no evidence in any group: posterior centre equals the prior centre
        kappa = _clamp_simplex(a0 / s0)
        nu = s * kappa + n
        trace = (_elbo_flat(n, a0, s, kappa, s0, nu),)
        return VariationalFit(kappa.reshape(shape), s0, nu.reshape((n_groups,) + shape),
                              trace, True)

    x = np.append(np.log(_clamp_simplex(n.sum(axis=0) + a0)), np.log(s0))
    value = _profiled_elbo(n, a0, s, x)
    grad = _profiled_grad(n, a0, s, x)
    gtol = tol * max(1.0, abs(value))
    trace = [value]
    pairs = deque(maxlen=_LBFGS_PAIRS)
    converged = False
    while True:
        if np.abs(grad).max() <= gtol:
            converged = True
            break
        if len(trace) > max_iters:
            break
        accepted = _armijo_step(n, a0, s, x, value, grad,
                                _lbfgs_direction(grad, pairs))
        if accepted is None:
            converged = True
            break
        x_new, value = accepted
        grad_new = _profiled_grad(n, a0, s, x_new)
        step, dgrad = x_new - x, grad - grad_new
        curvature = float(step @ dgrad)
        if curvature > 1e-10 * float(dgrad @ dgrad):
            pairs.append((step, dgrad, 1.0 / curvature))
        x, grad = x_new, grad_new
        trace.append(value)
    if not converged:
        warnings.warn("variational fit stopped at max_iters without meeting tol",
                      VariationalConvergenceWarning, stacklevel=2)
    kappa, tau = _centre(x)
    return VariationalFit(kappa.reshape(shape), tau,
                          (s * kappa + n).reshape((n_groups,) + shape), tuple(trace),
                          converged)
