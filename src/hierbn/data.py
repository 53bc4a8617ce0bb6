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

# most cells one count batch's tables hold (2**26 cells of 8 bytes, 512 MiB);
# the row codes and weights a batch holds at once are no more than its tables
# or one product slice, and the float copy of the rows that counting reads is
# the dataset's, not a batch's
MAX_COUNT_CELLS = 2 ** 26

# multiply-adds one slice of a counting product takes at most: a larger
# product may run on two OpenBLAS threads, and on a loaded two-core machine a
# threaded product often waits a scheduler slice for its second thread
_PRODUCT_MADDS = 2 ** 19

# rows a counting product's slice spans at least, when the dataset has as
# many: a wide batch's families are counted in blocks narrow enough for it,
# so that no bincount adds a few rows into every family's table
_SLICE_ROWS = 256


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

    ``rows`` is one read-only int64 matrix of level indices, shape (m, N),
    sorted by group; ``row_groups`` holds each row's group index and
    ``weights`` its multiplicity, both read-only int64, ``weights`` None
    when every row counts once. Counts run over the matrix rows, each
    weighted by its multiplicity. The constructor takes every row of each
    group, so its weights are None; ``load_csv`` holds the file's distinct
    records, each with the number of data rows it stands for, when they are
    at most half its rows, and its rows otherwise.

    ``group_rows`` holds every row of each group in input order, shape
    (n_f, N), read-only; a loaded dataset builds it on first access.
    Variable order and level order are fixed at construction, so counting is
    invariant to row order within a group.

    The first count builds a read-only float64 copy of the matrix with each
    row's group index and a column of ones appended, shape (m, N + 2). Every
    later count of the dataset reads it.
    """

    def __init__(self, variables, groups, group_rows):
        if len(groups) != len(group_rows):
            raise ValueError("one row block required per group")
        variables = tuple(variables)
        blocks = [np.asarray(block, dtype=np.int64) for block in group_rows]
        if any(block.ndim != 2 or block.shape[1] != len(variables) for block in blocks):
            raise ValueError("row block shape must be (n_f, n_variables)")
        rows = np.concatenate([np.empty((0, len(variables)), dtype=np.int64), *blocks])
        cards = [var.card for var in variables]
        bad = np.flatnonzero((rows.min(0, initial=0) < 0) | (rows.max(0, initial=-1) >= cards))
        if bad.size:
            raise ValueError(f"level index out of range for variable {variables[bad[0]].name!r}")
        sizes = [len(block) for block in blocks]
        self._setup(variables, groups, rows, np.repeat(np.arange(len(sizes)), sizes), None)
        starts = itertools.accumulate(sizes, initial=0)
        self.group_rows = tuple(self.rows[a:a + n] for a, n in zip(starts, sizes))

    @classmethod
    def _loaded(cls, variables, groups, rows, row_groups, weights, file_rows):
        """A dataset of checked rows; ``file_rows`` is the matrix row of each
        data row in file order, from which ``group_rows`` is built when
        first read."""
        data = object.__new__(cls)
        data._setup(variables, groups, rows, row_groups, weights)
        data._file_rows = file_rows
        return data

    def _setup(self, variables, groups, rows, row_groups, weights):
        self.variables, self.groups = tuple(variables), tuple(groups)
        for array in (rows, row_groups, weights):
            if array is not None:
                array.flags.writeable = False
        self.rows, self.row_groups, self.weights = rows, row_groups, weights
        self._cards = tuple(v.card for v in self.variables)

    @functools.cached_property
    def group_rows(self):
        rows, groups = self.rows[self._file_rows], self.row_groups[self._file_rows]
        blocks = tuple(rows[groups == g] for g in range(self.n_groups))
        for block in blocks:
            block.flags.writeable = False
        return blocks

    @functools.cached_property
    def _float_rows(self):
        copy = np.column_stack([self.rows, self.row_groups, np.ones(len(self.rows))])
        copy.flags.writeable = False
        return copy

    @property
    def n_variables(self):
        return len(self.variables)

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def n_rows(self):
        return len(self.rows) if self.weights is None else int(self.weights.sum())

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
    text encoding; one byte-order mark (U+FEFF) that starts the first line
    is dropped. An undecodable line or a directory is a DataError. Each
    distinct line is parsed, checked and encoded once. When the distinct
    records are at most half the data rows, the dataset holds them with the
    number of rows of each, so memory and counting time grow with the
    distinct rows; otherwise it holds the rows.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    ids, lines = _line_pass(path)
    if lines and lines[0].startswith("\ufeff"):  # the first line alone loses the mark
        ids[0], lines = len(lines), lines + [lines[0][1:]]
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
    # number of rows that use it
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
    if 2 * len(kept) > len(ids):
        # a weighted bincount costs about half as much again per row as a plain
        # one, so distinct records stand in for the rows only when at most half
        # as many; otherwise each record is repeated, its first copy at first
        first = np.cumsum(weights) - weights
        if len(kept) < len(ids):
            table, group_codes = np.repeat(table, weights, axis=0), np.repeat(group_codes, weights)
        weights = None
    else:
        first = np.arange(len(kept))
    matrix_row = np.empty(len(counts), dtype=np.int64)
    matrix_row[kept] = first
    return GroupedDataset._loaded(variables, group_labels, table, group_codes, weights,
                                  matrix_row[ids])


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


def _count_tables(data, families):
    # The count tables of (child, parents) families of any children, once
    # every index is checked, as (positions, (S, F, J, K) tables) batches
    # that cover every family once, yielded one batch at a time: the scores,
    # whose families are checked before their cache lookup, count through
    # here and score each batch before the next is counted, so a request
    # holds one batch. The table shape (F, J, K) is the one batching key:
    # families of one shape share a count, in batches whose tables hold at
    # most MAX_COUNT_CELLS cells. Every shape is checked against the cap (a
    # DataError) before the first batch is counted.
    cards, n_groups, by_shape = data.cardinalities(), data.n_groups, {}
    for position, (child, parents) in enumerate(families):
        shape = (n_groups, math.prod(map(cards.__getitem__, parents)), cards[child])
        if shape not in by_shape and math.prod(shape) > MAX_COUNT_CELLS:
            raise DataError(f"count table of {data.variables[child].name!r} given "
                            f"{len(parents)} parents needs {math.prod(shape)} "
                            f"cells, more than {MAX_COUNT_CELLS}")
        by_shape.setdefault(shape, []).append(position)
    for shape, positions in by_shape.items():
        step = MAX_COUNT_CELLS // max(1, math.prod(shape))  # a table may have no cells
        for start in range(0, len(positions), step):
            batch = positions[start:start + step]
            yield batch, _count_joint(data, [families[i] for i in batch], shape)


def _count_joint(data, families, shape):
    # The (S, F, J, K) tables of families whose tables have one shape,
    # counted in blocks of W families, W the most that lets a product slice
    # of _PRODUCT_MADDS span _SLICE_ROWS rows (or every row). A row's cell
    # in the tables of a block's family w is w * F * J * K (times its ones
    # column), plus its group times J * K, plus its child level (stride 1 in
    # the family's own column), plus its parent levels times the family's
    # row-major strides: the product of the dataset's float copy with the
    # block's (N + 2, W) stride columns, exact since every sum is an integer
    # below W * F * J * K. Each bincount adds a chunk of rows into its
    # block's tables, weighing a row by its multiplicity (float sums of
    # integers below 2**53, stored as int64). A bincount touches every cell
    # of its block, so a chunk holds as many whole slices as those tables
    # have cells of codes, one at least: a batch's memory is its tables,
    # whatever the number of rows.
    cards, n_sets, cells = data.cardinalities(), len(families), math.prod(shape)
    rows, counted = data._float_rows, np.zeros(n_sets * cells)
    slice_rows = max(1, min(_SLICE_ROWS, len(rows)))
    width = min(n_sets, max(1, _PRODUCT_MADDS // (rows.shape[1] * slice_rows)))
    strides = np.zeros((data.n_variables + 2, n_sets))
    strides[-2] = shape[1] * shape[2]
    strides[-1] = np.arange(n_sets) % width * cells
    for s, (child, parents) in enumerate(families):
        strides[child, s], stride = 1, shape[2]
        for p in reversed(parents):
            strides[p, s] = stride
            stride *= cards[p]
    step = max(1, _PRODUCT_MADDS // (rows.shape[1] * width))
    chunk = step * max(1, cells // step)
    for first in range(0, n_sets, width):
        columns = np.ascontiguousarray(strides[:, first:first + width])
        tables = counted[first * cells:(first + width) * cells]
        for start in range(0, len(rows), chunk):
            block = rows[start:start + chunk]
            codes = np.empty((len(block), columns.shape[1]), dtype=np.int64)
            for i in range(0, len(block), step):
                codes[i:i + step] = block[i:i + step] @ columns
            weights = None if data.weights is None else np.repeat(
                data.weights[start:start + chunk], columns.shape[1])
            tables += np.bincount(codes.ravel(), weights, minlength=len(tables))
    return counted.astype(np.int64).reshape(n_sets, *shape)


def family_counts(data, child, parents):
    """Contingency counts of one child variable given a parent set, per group.

    ``child`` is a variable index; ``parents`` an iterable of variable
    indices (order matters for the configuration indexing, which is
    row-major over the parent level tuples). Counts are dense: parent
    configurations never observed stay as zero rows. Every index is checked
    (``check_indices``, a ValueError) and so is the table's cell count (a
    DataError above ``MAX_COUNT_CELLS``) before anything is counted.
    """
    parents = tuple(parents)
    check_indices([(child, parents)], data.n_variables)
    [(_, tables)] = _count_tables(data, [(child, parents)])
    cards = data.cardinalities()
    return FamilyCounts(cards[child], tuple(cards[p] for p in parents), tables[0])
