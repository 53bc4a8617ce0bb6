"""Synthetic ground truth: random structures, grouped parameters, sampled data.

Three regimes control how the groups' parameter tables relate:

  hier: one concentration vector is drawn per node over the joint
        (child, parents) cell grid, and every group draws its joint table
        around it, so groups are similar but not equal;
  iid:  every group draws its joint table independently from a flat
        Dirichlet;
  id:   a single flat draw is shared verbatim by all groups.

Joint tables are turned into conditional tables by row normalization. In
scenario "b" some groups lose arcs; their tables are the exact cell-sums of
the full joint table over the dropped parents (aggregating a Dirichlet draw
is again a Dirichlet draw, so the regimes keep their meaning).
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import GroupedDataset, VariableMeta, check_count, is_number
from .graph import Dag

REGIMES = ("hier", "iid", "id")
SCENARIOS = ("a", "b")

# concentration mass of the shared draw in the hier regime
_HIER_MASS = 10.0
_TABLE_FLOOR = 1e-12


def derive_rng(root_seed, *path):
    """Independent generator for one branch of the derivation tree.

    Every (root seed, path) pair maps to its own stream, so any replicate
    can be regenerated in isolation without replaying the ones before it.
    """
    return np.random.default_rng(np.random.SeedSequence(int(root_seed), spawn_key=tuple(path)))


# integer field -> its least value
_COUNT_FIELDS = {"n_nodes": 2, "card": 2, "n_groups": 1, "rows_per_group": 1,
                 "n_perturbed": 0, "n_removed": 0, "seed": 0}


@dataclass(frozen=True)
class GenConfig:
    """One simulation cell plus the seed of a single replicate."""

    n_nodes: int
    card: int = 2
    arc_ratio: float = 1.0
    n_groups: int = 2
    rows_per_group: int = 100
    regime: str = "hier"
    scenario: str = "a"
    n_perturbed: int = 0
    n_removed: int = 0
    seed: int = 0

    def __post_init__(self):
        for name, least in _COUNT_FIELDS.items():
            check_count(name, getattr(self, name), least)
        if not is_number(self.arc_ratio):
            raise ValueError(f"arc_ratio must be a number, got {self.arc_ratio!r}")
        if not 0 <= self.arc_ratio < math.inf:
            raise ValueError(f"arc_ratio must be finite and at least 0, got {self.arc_ratio!r}")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        n_arcs = round(self.arc_ratio * self.n_nodes)  # the arcs random_dag places
        if n_arcs > self.n_nodes * (self.n_nodes - 1) // 2:
            raise ValueError("arc_ratio requests more arcs than any order admits")
        if self.scenario == "a":
            if self.n_perturbed or self.n_removed:
                raise ValueError("scenario 'a' perturbs no structures")
        else:
            if not 1 <= self.n_perturbed <= self.n_groups:
                raise ValueError("scenario 'b' needs 1 <= n_perturbed <= n_groups")
            if not 1 <= self.n_removed <= n_arcs:
                raise ValueError(f"scenario 'b' needs 1 <= n_removed <= {n_arcs}, the arc count")


@dataclass(frozen=True)
class GroundTruth:
    """Everything the generator decided for one replicate.

    group_params[f][i] is the conditional table of node i in group f, shape
    (configs, levels) with configs indexed row-major over that group's
    sorted parent tuple; every row is a probability vector.
    """

    config: GenConfig
    master: Dag
    group_dags: tuple
    group_params: tuple


def random_dag(n_nodes, arc_ratio, rng):
    """Uniform topological order, then round(arc_ratio * n) distinct arcs.

    Arcs are drawn uniformly without replacement among the order-consistent
    pairs. ``rng`` may be a Generator or an integer seed.
    """
    rng = np.random.default_rng(rng)
    n_arcs = round(arc_ratio * n_nodes)
    pairs_available = n_nodes * (n_nodes - 1) // 2
    if not 0 <= n_arcs <= pairs_available:
        raise ValueError(f"cannot place {n_arcs} arcs on {n_nodes} nodes")
    order = rng.permutation(n_nodes)
    pairs = [(order[i], order[j])
             for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    chosen = rng.choice(pairs_available, size=n_arcs, replace=False)
    return Dag(n_nodes, frozenset(pairs[int(k)] for k in chosen))


def perturb_structures(master, n_groups, n_perturbed, n_removed, rng):
    """Per-group structures: n_perturbed groups each lose n_removed arcs.

    The affected groups and the removed arcs (independently per group) are
    drawn uniformly without replacement; with n_perturbed = 0 all groups
    share the master unchanged.
    """
    rng = np.random.default_rng(rng)
    if not 0 <= n_perturbed <= n_groups:
        raise ValueError("n_perturbed must lie in [0, n_groups]")
    dags = [master] * n_groups
    if n_perturbed == 0:
        return tuple(dags)
    if not 1 <= n_removed <= master.arc_count:
        raise ValueError("n_removed must lie in [1, number of master arcs]")
    arcs = master.sorted_arcs()
    affected = rng.choice(n_groups, size=n_perturbed, replace=False)
    for f in sorted(int(g) for g in affected):
        drop = rng.choice(len(arcs), size=n_removed, replace=False)
        kept = frozenset(a for k, a in enumerate(arcs) if k not in set(int(d) for d in drop))
        dags[f] = Dag(master.node_count, kept)
    return tuple(dags)


def _draw_joint_tables(master, card, regime, n_groups, rng):
    """Per node, per group: joint tables over the (parents..., child) grid."""
    tables = [[None] * master.node_count for _ in range(n_groups)]
    for node in range(master.node_count):
        n_parents = len(master.parents(node))
        m = card ** (n_parents + 1)
        shape = (card,) * n_parents + (card,)
        if regime == "hier":
            centre = rng.dirichlet(np.ones(m))
            draws = [rng.dirichlet(_HIER_MASS * centre) for _ in range(n_groups)]
        elif regime == "iid":
            draws = [rng.dirichlet(np.ones(m)) for _ in range(n_groups)]
        else:  # id: one draw, shared verbatim
            shared = rng.dirichlet(np.ones(m))
            draws = [shared] * n_groups
        for f, draw in enumerate(draws):
            table = np.maximum(draw, _TABLE_FLOOR)  # guard against underflow to 0
            table = table / table.sum()
            tables[f][node] = table.reshape(shape)
    return tables


def _conditional_table(joint, master_parents, group_parents):
    """Aggregate a joint table onto a reduced parent set, then normalize rows."""
    card = joint.shape[-1]
    drop_axes = tuple(i for i, p in enumerate(master_parents) if p not in group_parents)
    reduced = joint.sum(axis=drop_axes) if drop_axes else joint
    flat = reduced.reshape(card ** len(group_parents), card)
    return flat / flat.sum(axis=1, keepdims=True)


def sample_params(dag, card, regime, n_groups, rng):
    """Per-group conditional tables for every node of ``dag``.

    Returns a tuple over groups of tuples over nodes, each entry a
    (configs, levels) row-stochastic array.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    rng = np.random.default_rng(rng)
    joint = _draw_joint_tables(dag, card, regime, n_groups, rng)
    return _group_conditionals(dag, (dag,) * n_groups, joint)


def _group_conditionals(master, group_dags, joint):
    return tuple(tuple(_conditional_table(joint[f][node], master.parents(node),
                                          gdag.parents(node))
                       for node in range(master.node_count))
                 for f, gdag in enumerate(group_dags))


def sample_data(truth, rows_per_group, rng):
    """Ancestral sampling of every group under its own structure and tables.

    Each group takes its uniforms in one (nodes, rows) draw, the j-th node
    of the group's topological order reading the j-th row. A row's level is
    the number of its table row's cumulative probabilities, all but the
    last, that its uniform exceeds; the sums never fall, so this is the
    count over all K of them clipped to K - 1.
    """
    rng = np.random.default_rng(rng)
    config = truth.config
    card = config.card
    n = truth.master.node_count
    variables = [VariableMeta(f"X{i + 1:02d}", tuple(f"v{k}" for k in range(card)))
                 for i in range(n)]
    groups = [f"g{f + 1:02d}" for f in range(config.n_groups)]
    blocks = []
    for f, gdag in enumerate(truth.group_dags):
        block = np.empty((n, rows_per_group), dtype=np.int64)  # a variable's levels a row
        uniforms = rng.random((n, rows_per_group))
        for u, node in zip(uniforms, gdag.topological_order(), strict=True):
            # each row's offset into the flattened cumulative table
            offset = 0
            for p in gdag.parents(node):
                offset = offset * card + block[p]
            offset = offset * card
            cumulative = np.cumsum(truth.group_params[f][node], axis=1).ravel()
            level = block[node]
            level[...] = u > cumulative[offset]
            for k in range(1, card - 1):
                level += u > cumulative[k:][offset]
        blocks.append(block.T)
    return GroupedDataset(variables, groups, blocks)


def generate(config):
    """One replicate: (GroundTruth, GroupedDataset) from config.seed alone.

    The seed fans out into independent streams for structure, perturbation,
    parameters and data, so each stage is reproducible on its own.
    """
    master = random_dag(config.n_nodes, config.arc_ratio, derive_rng(config.seed, 0))
    group_dags = perturb_structures(master, config.n_groups, config.n_perturbed,
                                    config.n_removed, derive_rng(config.seed, 1))
    joint = _draw_joint_tables(master, config.card, config.regime, config.n_groups,
                               derive_rng(config.seed, 2))
    group_params = _group_conditionals(master, group_dags, joint)
    truth = GroundTruth(config, master, group_dags, group_params)
    data = sample_data(truth, config.rows_per_group, derive_rng(config.seed, 3))
    return truth, data
