"""Loading and counting of complete discrete data observed in named groups.

A dataset is a collection of rows over categorical variables, where every row
belongs to exactly one group. The group label conditions the analysis: it is
never treated as a candidate variable itself.
"""

import csv
import functools
import itertools
import locale
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised when an input file is malformed or a dataset violates the
    complete-data contract."""


# bytes the line pass of load_csv reads at a time
_BLOCK_BYTES = 1 << 16

# largest array one family_count_tables batch allocates: its count tables, or
# one block's row codes or row weights (2**26 cells of 8 bytes, 512 MiB); the
# float copy of the blocks that counting reads is the dataset's, not a batch's
MAX_COUNT_CELLS = 2 ** 26


@dataclass(frozen=True)
class VariableMeta:
    """Name and ordered level labels of one categorical variable."""

    name: str
    levels: tuple

    @property
    def card(self):
        return len(self.levels)


@dataclass(frozen=True)
class FamilyCounts:
    """Per-group contingency table for one child given a parent set.

    ``per_group`` has shape (F, J, K): F groups, J parent configurations in
    row-major order over the parent level tuples (J = 1 for an empty parent
    set), K child levels. Entries are non-negative int64 counts; rows that
    were never observed are kept as explicit zeros.
    """

    child_card: int
    parent_cards: tuple
    per_group: np.ndarray

    def __post_init__(self):
        f, j, k = self.per_group.shape
        expected_j = int(np.prod(self.parent_cards, dtype=np.int64)) if self.parent_cards else 1
        if j != expected_j or k != self.child_card:
            raise ValueError("count table shape does not match declared cardinalities")

    @property
    def n_groups(self):
        return self.per_group.shape[0]

    @property
    def n_configs(self):
        return self.per_group.shape[1]

    @property
    def pooled(self):
        """Counts summed over groups, shape (J, K)."""
        return self.per_group.sum(axis=0)

    @property
    def total(self):
        return int(self.per_group.sum())

    def single_group(self, f):
        """The same family restricted to group index ``f``."""
        return FamilyCounts(self.child_card, self.parent_cards, self.per_group[f:f + 1].copy())


class GroupedDataset:
    """Complete categorical data split by group label.

    Each group is held as one block: a read-only int64 array of level
    indices, shape (m_f, N), and the multiplicity of each of its rows as a
    read-only int64 array, or None when every row counts once. Counts run
    over a group's block rows, each weighted by its multiplicity. The
    constructor takes every row of each group, so its multiplicities are
    None; ``load_csv`` holds a group as its distinct records, each with the
    number of data rows it stands for, when they are at most half its rows,
    and as its rows otherwise.

    ``group_rows`` holds every row of each group in input order, shape
    (n_f, N), read-only; a loaded dataset builds it on first access.
    Variable order and level order are fixed at construction, so counting is
    invariant to row order within a group.

    The first count builds a read-only float64 copy of each block with a
    trailing column of ones, shape (m_f, N + 1): the size of the block plus
    one column. Every later count of the dataset reads it.
    """

    def __init__(self, variables, groups, group_rows):
        if len(groups) != len(group_rows):
            raise ValueError("one row block required per group")
        variables = tuple(variables)
        blocks = []
        for block in group_rows:
            arr = np.ascontiguousarray(np.asarray(block, dtype=np.int64))
            if arr.ndim != 2 or arr.shape[1] != len(variables):
                raise ValueError("row block shape must be (n_f, n_variables)")
            for i, var in enumerate(variables):
                col = arr[:, i]
                if col.size and (col.min() < 0 or col.max() >= var.card):
                    raise ValueError(f"level index out of range for variable {var.name!r}")
            arr.flags.writeable = False
            blocks.append(arr)
        self._setup(variables, groups, [(arr, None) for arr in blocks])
        self._group_rows = tuple(blocks)

    @classmethod
    def _from_blocks(cls, variables, groups, blocks, file_rows):
        """A dataset of checked (rows, multiplicities) blocks. ``file_rows``
        is (table, group of each table row, table row of each data row in
        file order), from which ``group_rows`` is built when first read."""
        data = object.__new__(cls)
        data._setup(variables, groups, blocks)
        data._group_rows, data._file_rows = None, file_rows
        return data

    def _setup(self, variables, groups, blocks):
        self.variables = tuple(variables)
        self.groups = tuple(groups)
        self.blocks = tuple(blocks)
        self._cards = tuple(v.card for v in self.variables)

    @property
    def group_rows(self):
        if self._group_rows is None:
            self._group_rows = self._expand_rows()
        return self._group_rows

    @functools.cached_property
    def _float_blocks(self):
        blocks = tuple(np.hstack([rows, np.ones((len(rows), 1))]) for rows, _ in self.blocks)
        for block in blocks:
            block.flags.writeable = False
        return blocks

    def _expand_rows(self):
        table, table_groups, row_ids = self._file_rows
        rows, row_groups = table[row_ids], table_groups[row_ids]
        blocks = tuple(rows[row_groups == g] for g in range(self.n_groups))
        for block in blocks:
            block.flags.writeable = False
        return blocks

    @property
    def n_variables(self):
        return len(self.variables)

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def n_rows(self):
        return sum(rows.shape[0] if weights is None else int(weights.sum())
                   for rows, weights in self.blocks)

    def cardinalities(self):
        return self._cards


def load_csv(path, group_column):
    """Read a header-named CSV into a GroupedDataset.

    Every column except ``group_column`` becomes a variable whose levels are
    the distinct observed strings, sorted lexicographically. Groups are the
    distinct labels of ``group_column``, also sorted. Passing
    ``group_column=None`` places all rows in a single unnamed group.

    The file is read as bytes in fixed blocks and split into lines where
    text mode with ``newline=""`` splits it (at ``\\n``, ``\\r\\n`` and a lone
    ``\\r``); only the distinct lines are decoded, in the platform's default
    text encoding. An undecodable line or a directory is a DataError.
    Each distinct line is parsed, checked and encoded once, and a group
    whose distinct records are at most half its rows keeps them with the
    number of rows of each, so memory and counting time grow with the
    distinct rows.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    ids, lines = _line_pass(path)
    texts = {}  # one object per distinct cell text, so later passes touch few strings

    def parse(source):
        return (tuple(map(texts.setdefault, rec, rec)) for rec in csv.reader(source))

    try:
        # the sentinel parses to () unless a quote left open swallows it;
        # no row id refers to that last record
        records = list(parse(lines + ["\n"]))
        one_per_line = len(records) == len(lines) + 1 and records[-1] == ()
    except csv.Error:
        one_per_line = False
    if not one_per_line:
        # a quoted cell spans lines: parse the lines in file order, dedupe the
        # records; the same sentinel ends the last record unless a quote is open
        record_ids = {}
        in_order = itertools.chain(map(lines.__getitem__, ids.tolist()), ["\n"])
        try:
            ids = np.fromiter((record_ids.setdefault(rec, len(record_ids))
                               for rec in parse(in_order)), np.int64)
        except csv.Error as exc:  # e.g. a cell past csv.field_size_limit()
            raise DataError(f"{path}: {exc}") from exc
        records = list(record_ids)
        if records[ids[-1]] != ():
            raise DataError(f"{path}: quoted cell left open at the end of the file")
        ids = ids[:-1]
    if not ids.size:
        raise DataError(f"{path}: empty file")
    header, ids = records[ids[0]], ids[1:]
    repeated = sorted(name for name, k in Counter(header).items() if k > 1)
    if repeated:
        raise DataError(f"repeated column names: {repeated}")
    if group_column is not None and group_column not in header:
        raise DataError(f"unknown group column {group_column!r}")
    if not ids.size:
        raise DataError(f"{path}: no data rows")

    group_idx = header.index(group_column) if group_column is not None else None
    var_cols = [i for i in range(len(header)) if i != group_idx]
    if not var_cols:
        raise DataError("no variable columns besides the group column")

    bad = np.array([len(rec) != len(header) or "" in rec for rec in records])
    first_bad = np.flatnonzero(bad[ids])
    if first_bad.size:
        r = int(first_bad[0])
        width = len(records[ids[r]])
        if width != len(header):
            raise DataError(f"row {r + 2}: expected {len(header)} cells, got {width}")
        raise DataError(f"row {r + 2}: incomplete data (empty cell)")

    # each distinct record the data rows use is encoded once, and carries the
    # number of rows that use it; the group label is one of its cells, so
    # with the table sorted by group a group's records are one slice of it
    counts = np.bincount(ids)
    kept = np.flatnonzero(counts)

    def encode(values):
        levels = sorted(set(values))
        index = dict(zip(levels, range(len(levels))))
        return levels, np.fromiter(map(index.__getitem__, values), np.int64, len(values))

    columns = list(zip(*(records[k] for k in kept.tolist())))
    variables, table = [], np.empty((len(kept), len(var_cols)), dtype=np.int64)
    for c, i in enumerate(var_cols):
        levels, table[:, c] = encode(columns[i])
        if len(levels) < 2:
            raise DataError(f"degenerate variable {header[i]!r}: fewer than 2 observed levels")
        variables.append(VariableMeta(header[i], tuple(levels)))
    if group_idx is None:
        group_labels, group_codes = [""], np.zeros(len(kept), dtype=np.int64)
    else:
        group_labels, group_codes = encode(columns[group_idx])
        order = np.argsort(group_codes, kind="stable")
        table, kept, group_codes = table[order], kept[order], group_codes[order]
    weights = counts[kept]
    table.flags.writeable = weights.flags.writeable = False
    bounds = np.cumsum(np.bincount(group_codes, minlength=len(group_labels)))[:-1]
    blocks = []
    for rows, w in zip(np.split(table, bounds), np.split(weights, bounds)):
        # a weighted bincount costs about half as much again per row as a
        # plain one, so a group's distinct records stand in for its rows
        # only when they are at most half as many; a slice of distinct rows
        # already is its group's rows
        if (w == 1).all():
            w = None
        elif 2 * len(w) > w.sum():
            rows, w = np.repeat(rows, w, axis=0), None
            rows.flags.writeable = False
        blocks.append((rows, w))
    table_row = np.empty(len(counts), dtype=np.int64)
    table_row[kept] = np.arange(len(kept))
    return GroupedDataset._from_blocks(variables, group_labels, blocks,
                                       (table, group_codes, table_row[ids]))


class _LineIds(dict):
    """Line -> id, a line not yet seen taking the next id."""

    def __missing__(self, line):
        self[line] = n = len(self)
        return n


def _line_pass(path):
    """(id of each line in file order, the distinct lines decoded), ids in
    order of first appearance, as text mode with ``newline=""`` reads them."""
    line_ids, ids, tail = _LineIds(), [], b""

    def number(lines):
        ids.append(np.fromiter(map(line_ids.__getitem__, lines), np.int64, len(lines)))

    try:
        with open(path, "rb") as fh:
            for block in iter(functools.partial(fh.read, _BLOCK_BYTES), b""):
                # a last line without its \n goes on in the next block
                # (after a \r, the next block may start with its \n)
                block = (tail + block).splitlines(keepends=True)
                tail = b"" if block[-1].endswith(b"\n") else block.pop()
                number(block)
    except IsADirectoryError as exc:
        raise DataError(f"{path}: is a directory") from exc
    number([tail] if tail else [])
    ids, lines = np.concatenate(ids), list(line_ids)
    line_ids.clear()
    encoding = locale.getpreferredencoding(False)
    # in place, so each line's bytes are freed as its text is made
    for i, line in enumerate(lines):
        try:
            lines[i] = line.decode(encoding)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: line {int(np.argmax(ids == i)) + 1} cannot be decoded "
                            f"as {encoding}: {exc.reason} at byte {exc.start} of the line") from exc
    return ids, lines


def is_integer(value):
    """True for a Python or numpy integer; bools and floats are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value):
    """True for a Python or numpy real number; bools and strings are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name, value, least):
    """Raise a ValueError unless ``value`` is an integer (``is_integer``) of
    at least ``least``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def check_positive(name, value):
    """``value`` as a float; a ValueError unless it is a number (``is_number``)
    that is positive and finite. An int too large for a float is not finite."""
    if not is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (number > 0 and math.isfinite(number)):
        raise ValueError(f"{name} must be positive and finite")
    return number


def check_indices(families, n_variables):
    """Raise a ValueError naming the first index of the (child, parents
    tuple) families that is not a Python or numpy integer (bools are not) in
    [0, n_variables), or that repeats within its family."""
    for child, parents in families:
        for index in (child, *parents):
            if not is_integer(index) or not 0 <= index < n_variables:
                raise ValueError(f"variable index {index!r} is not an integer in "
                                 f"[0, {n_variables})")
        if child in parents:
            raise ValueError("child cannot be its own parent")
        if len(set(parents)) < len(parents):
            repeated = next(p for i, p in enumerate(parents) if p in parents[:i])
            raise ValueError(f"parent set {parents} repeats variable index {repeated}")


def family_count_tables(data, child, parent_sets):
    """Contingency counts of one child given each of several parent sets.

    ``parent_sets`` is a sequence of parent index tuples (order within a set
    fixes its row-major configuration indexing). Before anything is
    allocated, every index is checked (a Python or numpy integer, not a
    bool, in range, not repeated within a set, and not the child: a
    ValueError names it) and so is every set's cell count. Sets with one
    number of configurations are counted together, from one matrix product
    per group block. No batch holds an array of more than
    ``MAX_COUNT_CELLS`` elements unless one set alone needs more.

    Returns ``(positions, tables)`` pairs covering every set once:
    ``tables[i]`` is the (F, J, K) count table of ``parent_sets[positions[i]]``.
    """
    sets = [tuple(parents) for parents in parent_sets]
    check_indices(zip(itertools.repeat(child), sets), data.n_variables)
    return _count_tables(data, child, sets)


def _count_tables(data, child, sets):
    # family_count_tables once every index is checked; the scores, whose
    # families are checked before their cache lookup, count through here
    cards = data.cardinalities()
    child_card, n_groups = cards[child], data.n_groups
    by_configs = {}
    for position, parents in enumerate(sets):
        n_configs = math.prod(map(cards.__getitem__, parents))
        if n_groups * n_configs * child_card > MAX_COUNT_CELLS:
            raise DataError(f"count table of {data.variables[child].name!r} given "
                            f"{len(parents)} parents needs {n_groups * n_configs * child_card} "
                            f"cells, more than {MAX_COUNT_CELLS}")
        by_configs.setdefault(n_configs, []).append(position)
    rows = max((block.shape[0] for block, _ in data.blocks), default=0)
    out = []
    for n_configs, positions in by_configs.items():
        # a batch's tables, and one block's row codes and weights, fit under
        # the cap
        per_set = max(rows, n_groups * n_configs * child_card)
        step = max(1, MAX_COUNT_CELLS // max(1, per_set))
        out.extend((batch, _count_joint(data, child, [sets[i] for i in batch], n_configs))
                   for batch in (positions[i:i + step] for i in range(0, len(positions), step)))
    return out


def _count_joint(data, child, sets, n_configs):
    # The (S, F, J, K) tables of sets with J configurations each. A row's
    # cell in set s's table is s * J * K (times its ones column), plus its
    # child level, plus its parent levels times the set's row-major strides:
    # one product of a block's float copy with an (N + 1, S) stride matrix,
    # exact since every sum is an integer below S * J * K. One bincount per
    # block counts every set, weighing each row by its multiplicity (float
    # sums of integers below 2**53, stored as int64).
    cards = data.cardinalities()
    child_card = cards[child]
    strides = np.zeros((data.n_variables + 1, len(sets)))
    strides[child] = 1
    strides[-1] = np.arange(len(sets)) * (n_configs * child_card)
    for s, parents in enumerate(sets):
        stride = child_card
        for p in reversed(parents):
            strides[p, s] = stride
            stride *= cards[p]
    tables = np.empty((len(sets), data.n_groups, n_configs, child_card), dtype=np.int64)
    for f, (block, (_, weights)) in enumerate(zip(data._float_blocks, data.blocks)):
        codes = (block @ strides).astype(np.int64)
        if weights is not None:
            weights = np.repeat(weights, len(sets))
        counted = np.bincount(codes.ravel(), weights, minlength=len(sets) * n_configs * child_card)
        tables[:, f] = counted.reshape(len(sets), n_configs, child_card)
    return tables


def family_counts(data, child, parents):
    """Contingency counts of one child variable given a parent set, per group.

    ``child`` is a variable index; ``parents`` an iterable of variable
    indices (order matters for the configuration indexing, which is
    row-major over the parent level tuples). Counts are dense: parent
    configurations never observed stay as zero rows.
    """
    parents = tuple(parents)
    [(_, tables)] = family_count_tables(data, child, [parents])
    cards = data.cardinalities()
    return FamilyCounts(cards[child], tuple(cards[p] for p in parents), tables[0])
