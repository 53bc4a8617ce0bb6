"""Structure-recovery metrics, replicate records, and paired comparisons."""

import csv
import os
from dataclasses import dataclass, fields

import numpy as np

from .data import DataError
from .graph import arc_confusion, shd, to_cpdag

# column order of the results CSV; every field round-trips exactly
CSV_COLUMNS = ("config_id", "scenario", "regime", "N", "F", "card", "c", "n_f",
               "N_F", "N_A", "seed", "score", "iss", "shd", "tp", "fp", "fn",
               "logscore", "wall_time_s")


@dataclass(frozen=True)
class RunRecord:
    """Metrics of one learned structure on one simulated replicate.

    The (config_id, seed) pair identifies the replicate; ``score`` names the
    scoring method and ``iss`` its imaginary sample size, so records of
    different methods on the same replicate align on (config_id, seed). The
    cell fields are named as GenConfig's.
    """

    config_id: str
    scenario: str
    regime: str
    n_nodes: int
    n_groups: int
    card: int
    arc_ratio: float
    rows_per_group: int
    n_perturbed: int
    n_removed: int
    seed: int
    score: str
    iss: float
    shd: int
    tp: int
    fp: int
    fn: int
    logscore: float
    wall_time_s: float

    def to_row(self):
        """Stringified CSV cells; floats use repr so they read back bit-exactly."""
        values = [getattr(self, f.name) for f in fields(self)]
        return [repr(v) if isinstance(v, float) else str(v) for v in values]

    @staticmethod
    def from_row(row):
        columns = fields(RunRecord)
        if len(row) != len(columns):
            raise ValueError(f"expected {len(columns)} cells in a result row, got {len(row)}")
        return RunRecord(*(f.type(cell) for f, cell in zip(columns, row)))


def evaluate(learned, truth):
    """(shd, tp, fp, fn) of a learned DAG against the true one.

    Distance is measured between equivalence classes; the confusion counts
    are skeleton-level, so tp + fn always equals the true skeleton size.
    """
    learned, truth = to_cpdag(learned), to_cpdag(truth)
    tp, fp, fn = arc_confusion(learned, truth)
    return shd(learned, truth), tp, fp, fn


def write_records(path, records, append=False):
    mode = "a" if append and os.path.exists(path) else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.to_row())
        fh.flush()


def read_records(path):
    """The records of a results file, as a stopped run may leave it: an
    empty file holds none, and a last line without its line terminator is
    a partial write and is dropped. A foreign header or a malformed complete
    row is a DataError naming the file and line, and so is a file that
    cannot be decoded."""
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: cannot be decoded as {exc.encoding}: {exc.reason}") from exc
    if lines and not lines[-1].endswith("\n"):
        lines.pop()
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        return []
    if tuple(header) != CSV_COLUMNS:
        raise DataError(f"{path}: line 1: unexpected results header")
    records = []
    for row in reader:
        try:
            records.append(RunRecord.from_row(row))
        except ValueError as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    return records


def record_sort_key(record):
    """Canonical ordering making result files comparable across runs: by
    replicate, then score and iss, which a plan never repeats together."""
    return (record.config_id, record.seed, record.score, record.iss)


@dataclass(frozen=True)
class PairedDifference:
    """Replicate-aligned metric differences between two record sets (a - b)."""

    metric: str
    differences: tuple          # (config_id, seed, diff) per replicate
    by_config: dict             # config_id -> (median, q1, q3)


def paired_difference(records_a, records_b, metric="shd"):
    """Per-replicate ``metric`` difference of method a minus method b.

    Records are aligned on (config_id, seed) and must match one-to-one;
    each side must hold one iss value, or the ValueError names the values it
    mixes. Also returns median and quartiles of the differences per
    configuration.
    """
    for side, records in (("first", records_a), ("second", records_b)):
        values = sorted({r.iss for r in records})
        if len(values) > 1:
            raise ValueError(f"{side} records mix iss values {values}; "
                             f"compare one iss at a time")
    index_b = {(r.config_id, r.seed): r for r in records_b}
    if len(index_b) != len(records_b):
        raise ValueError("duplicate (config_id, seed) among second records")
    seen = set()
    diffs = []
    for a in records_a:
        key = (a.config_id, a.seed)
        if key in seen:
            raise ValueError("duplicate (config_id, seed) among first records")
        seen.add(key)
        if key not in index_b:
            raise ValueError(f"no matching record for {key}")
        b = index_b[key]
        diffs.append((a.config_id, a.seed, getattr(a, metric) - getattr(b, metric)))
    if len(seen) != len(index_b):
        raise ValueError("second records contain unmatched replicates")
    by_config = {}
    for config_id in sorted({d[0] for d in diffs}):
        values = np.array([d[2] for d in diffs if d[0] == config_id], dtype=float)
        by_config[config_id] = (float(np.median(values)),
                                float(np.percentile(values, 25)),
                                float(np.percentile(values, 75)))
    return PairedDifference(metric, tuple(diffs), by_config)
