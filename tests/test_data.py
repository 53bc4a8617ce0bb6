"""Dataset loading and family counting."""

import csv
import io
import itertools
import locale
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierbn.data as data_mod
from hierbn.data import (DataError, FamilyCounts, GroupedDataset, VariableMeta,
                         family_count_tables, family_counts, load_csv)
from oracles import family_counts_oracle, line_pass_oracle, load_csv_oracle


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = """site,a,b
s1,yes,0
s1,no,1
s1,yes,1
s2,no,0
s2,no,1
s2,yes,0
"""


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        assert data.n_groups == 2
        assert data.groups == ("s1", "s2")
        assert [v.name for v in data.variables] == ["a", "b"]
        assert data.n_rows == 6
        assert data.group_rows[0].shape == (3, 2)

    def test_levels_sorted_lexicographically(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        assert data.variables[0].levels == ("no", "yes")
        assert data.variables[1].levels == ("0", "1")

    def test_group_column_not_a_variable(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        assert all(v.name != "site" for v in data.variables)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nowhere.csv", "site")

    def test_empty_cell_rejected(self, tmp_path):
        path = write(tmp_path, "site,a,b\ns1,,0\ns1,no,1\ns2,yes,0\n")
        with pytest.raises(DataError, match="incomplete"):
            load_csv(path, "site")

    def test_degenerate_variable_rejected(self, tmp_path):
        path = write(tmp_path, "site,a,b\ns1,yes,0\ns1,yes,1\ns2,yes,0\n")
        with pytest.raises(DataError, match="degenerate"):
            load_csv(path, "site")

    @pytest.mark.parametrize("header", ["site,a,a", "site,a,site", "a,b,a"])
    def test_repeated_column_name_rejected(self, tmp_path, header):
        path = write(tmp_path, header + "\ns1,no,0\ns1,yes,1\ns2,yes,0\n")
        with pytest.raises(DataError, match="repeated column"):
            load_csv(path, "site" if header.startswith("site") else None)

    def test_unknown_group_column(self, tmp_path):
        with pytest.raises(DataError, match="group column"):
            load_csv(write(tmp_path, SMALL), "nope")

    def test_no_group_column_gives_single_group(self, tmp_path):
        path = write(tmp_path, "a,b\nyes,0\nno,1\nyes,1\n")
        data = load_csv(path, None)
        assert data.n_groups == 1
        assert data.n_rows == 3

    def test_rows_immutable(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        with pytest.raises(ValueError):
            data.group_rows[0][0, 0] = 1

    def test_field_past_csv_limit_is_data_error(self, tmp_path):
        path = write(tmp_path, "g,a\ns1," + "x" * (csv.field_size_limit() + 1) + "\ns1,y\n")
        with pytest.raises(DataError, match="field larger than field limit"):
            load_csv(path, "g")


def outcome(loader, path, group_column):
    """Everything a load shows: the dataset's contents, or the error raised."""
    try:
        data = loader(path, group_column)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return (data.variables, data.groups,
            [(b.dtype, b.shape, b.tolist(), b.flags.writeable, b.flags.c_contiguous)
             for b in data.group_rows])


def assert_matches_oracle(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    for group_column in ("g", None):
        expected = outcome(load_csv_oracle, str(path), group_column)
        assert outcome(load_csv, str(path), group_column) == expected
    return outcome(load_csv, str(path), "g")


ORACLE_CASES = {
    "quoted": 'g,a,b\n1,"x,y",p\n1,"he said ""hi""",q\n2,"x,y",q\n2,plain,p\n1,"x,y",p\n',
    "quoted_header": '"g","a,b",c\n1,x,p\n2,y,q\n',
    "spanning": 'g,a,b\n1,"two\nlines",p\n2,x,q\n1,"two\nlines",q\n2,x,p\n',
    "closed_after_repeat": 'g,a,b\n1,x,p\n2,"y\n1,x,p\n",q\n1,x,p\n',
    "open_last_distinct": 'g,a,b\n1,x,p\n2,y,q\n1,x,"open\n1,x,p\n2,y,q\n',
    "open_last_distinct_short": 'g,a,b\n1,x,p\n2,y,q\n1,"open\n1,x,p\n2,y,q\n',
    "open_at_end": 'g,a,b\n1,x,p\n2,y,q\n1,x,"open',
    "crlf": 'g,a,b\r\n1,x,p\r\n2,y,q\r\n1,x,p\r\n',
    "bare_cr": 'g,a,b\r1,x,p\r2,y,q\r1,x,q\r',
    "mixed_ends": 'g,a,b\n1,x,p\r\n2,y,q\r1,x,p\n2,y,q',
    "no_final_newline": 'g,a,b\n1,x,p\n2,y,q\n1,x,p',
    "blank_line": 'g,a,b\n1,x,p\n\n2,y,q\n',
    "header_as_row": 'g,a,b\n1,x,p\ng,a,b\n2,y,q\n1,x,p\n',
    "short_row": 'g,a,b\n1,x,p\n2,y,q\n2,y\n1,x,q\n',
    "long_row": 'g,a,b\n1,x,p\n2,y,q,r\n',
    "empty_cell": 'g,a,b\n1,x,p\n2,y,q\n2,,q\n',
    "short_before_empty": 'g,a,b\n1,x,p\n1,x\n2,,q\n',
    "empty_before_short": 'g,a,b\n1,x,p\n2,,q\n1,x\n',
    "short_and_empty_in_row": 'g,a,b\n1,x,p\n2,\n',
    "repeat_of_bad_row": 'g,a,b\n1,x,p\n2,y,q\n1,x,p\n2,y,q\n1,,p\n1,,p\n',
    "header_only": 'g,a,b\n',
    "empty_file": '',
    "blank_header": '\n1,x,p\n',
    "repeated_name": 'g,a,a\n1,x,p\n2,y,q\n',
    "degenerate": 'g,a,b\n1,x,p\n2,x,q\n1,x,q\n',
    "group_only": 'g\n1\n2\n1\n',
    # two different lines that parse to one record
    "quoted_same_record": 'g,a,b\n1,x,p\n1,"x",p\n2,y,q\n1,x,p\n2,"y",q\n1,y,p\n',
    # every line of group 1 distinct, group 2 repeating its lines, group 3
    # repeating one of three
    "distinct_next_to_repeats": ('g,a,b\n1,x,p\n1,y,q\n1,x,q\n2,x,p\n2,x,p\n2,y,q\n2,x,p\n'
                                 '3,y,p\n3,x,q\n3,y,p\n'),
    # a byte-order mark before the header, as spreadsheet programs write
    # UTF-8 CSV; a later copy of the first line keeps its mark
    "bom": '\ufeffg,a,b\n1,x,p\n2,y,q\n1,x,q\n',
    "bom_quoted_header": '\ufeff"g",a,b\n1,x,p\n2,y,q\n1,y,q\n',
    "bom_first_line_repeated": '\ufeffg,a,b\n1,x,p\n\ufeffg,a,b\n2,y,q\n1,x,q\n',
}


class TestLoadCsvMatchesOracle:
    """load_csv against the row-by-row reader it replaced: the same dataset,
    or the same exception type and message, with and without the group column."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_case(self, tmp_path, name):
        assert_matches_oracle(tmp_path, ORACLE_CASES[name])

    def test_cases_reach_both_outcomes(self, tmp_path):
        # the cases are not all errors: quoted, spanning and repeated rows load
        for name in ("quoted", "spanning", "closed_after_repeat", "bare_cr", "header_as_row"):
            variables, _, _ = assert_matches_oracle(tmp_path, ORACLE_CASES[name])
        assert variables[0].levels == ("a", "x", "y")
        spanning = assert_matches_oracle(tmp_path, ORACLE_CASES["spanning"])
        assert spanning[0][0].levels == ("two\nlines", "x")
        closed = assert_matches_oracle(tmp_path, ORACLE_CASES["closed_after_repeat"])
        assert closed[0][0].levels == ("x", "y\n1,x,p\n")
        # the open quote swallows the repeated lines after it and is never closed
        open_last = assert_matches_oracle(tmp_path, ORACLE_CASES["open_last_distinct"])
        assert open_last[0] is DataError and "left open" in open_last[1]

    def test_byte_order_mark_dropped_from_the_first_line_only(self, tmp_path):
        for name in ("bom", "bom_quoted_header", "bom_first_line_repeated"):
            variables, groups, _ = assert_matches_oracle(tmp_path, ORACLE_CASES[name])
            assert [v.name for v in variables] == ["a", "b"]
        assert groups == ("1", "2", "\ufeffg") and variables[0].levels == ("a", "x", "y")

    def test_field_past_csv_limit_only_in_distinct_order(self, tmp_path):
        # the line that closes the quote opened by "2,"y" repeats an earlier
        # line, so parsed as distinct lines the quote swallows every long line
        # after it, past the csv field limit; in file order each is a row
        long_lines = "".join(f"k,{i}{'e' * 1000},p\n" for i in range(200))
        text = 'g,a,b\n1,"w\n",q\n2,"y\n",q\n' + long_lines
        variables, groups, blocks = assert_matches_oracle(tmp_path, text)
        assert groups == ("1", "2", "k") and len(variables[0].levels) == 202

    @pytest.mark.parametrize("seed", range(12))
    def test_random_repetitive_csv(self, tmp_path, seed):
        loaded = assert_matches_oracle(tmp_path, random_repetitive_text(seed))
        assert not isinstance(loaded[0], type)


def random_repetitive_text(seed):
    """A CSV of 50-800 rows drawn from a few distinct rows in three groups;
    every fourth seed leaves out the final line end."""
    rng = np.random.default_rng(seed)
    pool = ["0", "1", "yes", "no", "a b", "x,y", 'say "hi"', "é", "two\nlines", "Z"]
    n_cols = int(rng.integers(2, 6))
    # a few distinct rows, each column showing at least two values
    distinct = rng.choice(pool[:6] if seed % 3 else pool, size=(int(rng.integers(2, 12)), n_cols))
    distinct[0], distinct[1] = "0", "1"
    rows = distinct[rng.integers(0, len(distinct), size=int(rng.integers(50, 800)))]
    groups = rng.choice(["s1", "s2", "s3"], size=len(rows))
    buf = io.StringIO(newline="")
    csv.writer(buf, lineterminator=("\n", "\r\n", "\r")[seed % 3]).writerows(
        [["g"] + [f"v{j}" for j in range(n_cols)]] + [[g, *row] for g, row in zip(groups, rows)])
    text = buf.getvalue()
    return text[:-1] if seed % 4 == 0 else text


# labels of two- and three-byte UTF-8 characters, lines ending in \r\n, \n
# and a lone \r, and no final line end
NON_ASCII = ("g,a,b\r\n1,é,日本\r\n2,日本,é\r\n1,é,é\n2,日本,日本\r1,é,日本\r\n"
             "2,x,é\r\n1,é,日本\r\n2,日本,é")


class TestLinePass:
    """The line pass of load_csv against the text-mode pass it replaced
    (oracles.line_pass_oracle): the same line ids in file order and the same
    distinct lines, with blocks of 1, 2, 3 and 7 bytes and the default."""

    def assert_matches_text_mode(self, monkeypatch, path):
        want_ids, want_lines = line_pass_oracle(path)
        for size in (1, 2, 3, 7, data_mod._BLOCK_BYTES):
            monkeypatch.setattr(data_mod, "_BLOCK_BYTES", size)
            ids, lines = data_mod._line_pass(path)
            assert ids.dtype == np.int64 and ids.tolist() == want_ids.tolist()
            assert lines == want_lines

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_case(self, tmp_path, monkeypatch, name):
        self.assert_matches_text_mode(monkeypatch, write(tmp_path, ORACLE_CASES[name]))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_repetitive_csv(self, tmp_path, monkeypatch, seed):
        self.assert_matches_text_mode(monkeypatch, write(tmp_path, random_repetitive_text(seed)))

    def test_non_ascii_lines_across_block_edges(self, tmp_path, monkeypatch):
        raw = NON_ASCII.encode("utf-8")
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        # with 7-byte blocks, some \r\n and some character are cut in two
        edges = range(7, len(raw), 7)
        assert any(raw[e - 1:e + 1] == b"\r\n" for e in edges)
        assert any(0x80 <= raw[e] < 0xC0 for e in edges)
        self.assert_matches_text_mode(monkeypatch, str(path))
        monkeypatch.setattr(data_mod, "_BLOCK_BYTES", 7)
        loaded = outcome(load_csv, str(path), "g")
        assert loaded == outcome(load_csv_oracle, str(path), "g")
        assert loaded[0][0].levels == ("x", "é", "日本") and loaded[1] == ("1", "2")


class TestUndecodableCsv:
    def test_undecodable_byte_is_data_error_naming_first_line(self, tmp_path, monkeypatch):
        # lines 3 and 4 cannot be decoded and line 5 repeats line 3: the
        # message names line 3, the first in file order
        monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
        path = tmp_path / "data.csv"
        path.write_bytes(b"g,a\n1,x\n2,\xffy\n1,\xfe\n2,\xffy\n")
        with pytest.raises(DataError, match=r"data\.csv: line 3 cannot be decoded as utf-8: "
                                            r"invalid start byte at byte 2 of the line"):
            load_csv(str(path), "g")

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="is a directory"):
            load_csv(str(tmp_path), "g")


class TestFamilyCounts:
    def test_counts_by_hand(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        counts = family_counts(data, 0, ())
        # group s1: a = yes,no,yes -> (no=1, yes=2); s2: no,no,yes -> (2,1)
        assert counts.per_group.tolist() == [[[1, 2]], [[2, 1]]]
        assert counts.pooled.tolist() == [[3, 3]]

    def test_conditional_counts(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        counts = family_counts(data, 1, (0,))
        # config order: a=no, a=yes; child levels 0,1
        assert counts.per_group.shape == (2, 2, 2)
        # s1 rows: (yes,0) (no,1) (yes,1)
        assert counts.per_group[0].tolist() == [[0, 1], [1, 1]]
        # s2 rows: (no,0) (no,1) (yes,0)
        assert counts.per_group[1].tolist() == [[1, 1], [1, 0]]

    def test_zero_configurations_retained(self):
        variables = [VariableMeta("x", ("0", "1", "2")), VariableMeta("y", ("0", "1"))]
        rows = np.array([[0, 0], [0, 1]])
        data = GroupedDataset(variables, ["g"], [rows])
        counts = family_counts(data, 1, (0,))
        assert counts.per_group.shape == (1, 3, 2)
        assert counts.per_group[0, 1:].sum() == 0  # x=1 and x=2 never observed

    def test_row_order_invariance(self):
        rng = np.random.default_rng(42)
        variables = [VariableMeta(f"v{i}", ("0", "1", "2")) for i in range(3)]
        rows = rng.integers(0, 3, size=(40, 3))
        data1 = GroupedDataset(variables, ["g"], [rows])
        data2 = GroupedDataset(variables, ["g"], [rows[rng.permutation(40)]])
        for child in range(3):
            parents = tuple(p for p in range(3) if p != child)
            c1 = family_counts(data1, child, parents)
            c2 = family_counts(data2, child, parents)
            np.testing.assert_array_equal(c1.per_group, c2.per_group)

    def test_parent_permutation_consistency(self):
        rng = np.random.default_rng(7)
        variables = [VariableMeta("a", ("0", "1")), VariableMeta("b", ("0", "1", "2")),
                     VariableMeta("c", ("0", "1"))]
        rows = np.column_stack([rng.integers(0, 2, 30), rng.integers(0, 3, 30),
                                rng.integers(0, 2, 30)])
        data = GroupedDataset(variables, ["g"], [rows])
        c12 = family_counts(data, 2, (0, 1))
        c21 = family_counts(data, 2, (1, 0))
        # config (i, j) under (a, b) equals config (j, i) under (b, a)
        t12 = c12.per_group[0].reshape(2, 3, 2)
        t21 = c21.per_group[0].reshape(3, 2, 2)
        np.testing.assert_array_equal(t12, t21.transpose(1, 0, 2))

    def test_group_totals(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        counts = family_counts(data, 1, (0,))
        np.testing.assert_array_equal(counts.per_group.sum(axis=(1, 2)), [3, 3])

    def test_child_in_parents_rejected(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        with pytest.raises(ValueError):
            family_counts(data, 0, (0,))

    def test_dtype_is_64bit(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        assert family_counts(data, 0, (1,)).per_group.dtype == np.int64

    def test_single_group_helper(self, tmp_path):
        data = load_csv(write(tmp_path, SMALL), "site")
        counts = family_counts(data, 0, ())
        sub = counts.single_group(1)
        assert sub.n_groups == 1
        np.testing.assert_array_equal(sub.per_group[0], counts.per_group[1])

    def test_oversize_table_rejected_before_allocation(self):
        # 62 binary parents of a binary child: 2**63 cells, beyond numpy's shapes
        variables = [VariableMeta(f"v{i}", ("0", "1")) for i in range(63)]
        data = GroupedDataset(variables, ["g"], [np.zeros((2, 63), dtype=np.int64)])
        with pytest.raises(DataError, match=f"'v62' given 62 parents needs {2 ** 63} cells"):
            family_counts(data, 62, range(62))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FamilyCounts(2, (3,), np.zeros((1, 2, 2), dtype=np.int64))


def mixed_dataset(seed, group_sizes=(40, 0, 25), cards=(2, 3, 4, 2, 3)):
    """Random rows over variables of 2-4 levels; a size of 0 gives an empty group."""
    rng = np.random.default_rng(seed)
    variables = [VariableMeta(f"v{i}", tuple(map(str, range(c)))) for i, c in enumerate(cards)]
    blocks = [np.stack([rng.integers(0, c, n) for c in cards], axis=1) for n in group_sizes]
    return GroupedDataset(variables, [f"g{f}" for f in range(len(group_sizes))], blocks)


# parent sets of child 2 (4 levels): every length from 0 to 4, unsorted
# tuples, a repeat, and runs of equal configuration counts with and without
# shared parents
MIXED_SETS = [(), (0,), (1, 3), (3, 1), (0, 1), (4, 0, 1), (1,), (0, 3, 4, 1), (0,), (3,),
              (1, 0)]


def count_tables(data, child, sets):
    """``family_count_tables`` of ``sets``, in the order of ``sets``; each
    set is counted exactly once."""
    tables = [None] * len(sets)
    for positions, stacked in family_count_tables(data, child, sets):
        assert stacked.shape[0] == len(positions)
        for position, table in zip(positions, stacked):
            assert tables[position] is None
            tables[position] = table
    return tables


class TestFamilyCountTables:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_row_by_row_oracle(self, seed):
        data = mixed_dataset(seed)
        for position, table in enumerate(count_tables(data, 2, MIXED_SETS)):
            want = family_counts_oracle(data, 2, MIXED_SETS[position])
            assert table.dtype == np.int64 and table.shape == want.shape
            np.testing.assert_array_equal(table, want)
            np.testing.assert_array_equal(family_counts(data, 2, MIXED_SETS[position]).per_group,
                                          want)

    def test_every_group_empty(self):
        data = mixed_dataset(3, group_sizes=(0, 0))
        for table in count_tables(data, 2, MIXED_SETS):
            assert table.shape[0] == 2 and not table.any()

    def test_no_sets(self):
        assert family_count_tables(mixed_dataset(0), 2, []) == []

    def test_child_among_parents_rejected(self):
        with pytest.raises(ValueError):
            family_count_tables(mixed_dataset(0), 2, [(0,), (1, 2)])

    def test_oversize_family_among_small_ones_rejected_before_counting(self, monkeypatch):
        variables = [VariableMeta(f"v{i}", ("0", "1")) for i in range(63)]
        data = GroupedDataset(variables, ["g"], [np.zeros((2, 63), dtype=np.int64)])

        def no_counting(*args):
            raise AssertionError("counted before every family was checked")

        monkeypatch.setattr(data_mod, "_count_joint", no_counting)
        with pytest.raises(DataError, match=f"'v62' given 62 parents needs {2 ** 63} cells, "
                                            f"more than {data_mod.MAX_COUNT_CELLS}"):
            family_count_tables(data, 62, [(0,), (1, 2), tuple(range(62)), (3,)])

    @pytest.mark.parametrize("cap", [60, 200])
    def test_batches_stay_under_the_cell_cap(self, monkeypatch, cap):
        data = mixed_dataset(5, group_sizes=(30, 0, 20))
        monkeypatch.setattr(data_mod, "MAX_COUNT_CELLS", cap)
        count_joint, cards = data_mod._count_joint, data.cardinalities()
        sizes = []

        def spy(data, families, shape):
            # the batch's tables
            sizes.append(len(families) * int(np.prod(shape)))
            return count_joint(data, families, shape)

        monkeypatch.setattr(data_mod, "_count_joint", spy)
        sets = [s for s in MIXED_SETS if 3 * int(np.prod([cards[p] for p in s])) * 4 <= cap]
        for position, table in enumerate(count_tables(data, 2, sets)):
            np.testing.assert_array_equal(table, family_counts_oracle(data, 2, sets[position]))
        assert len(sizes) > len({int(np.prod([cards[p] for p in s])) for s in sets})
        assert all(size <= cap for size in sizes)


@st.composite
def count_cases(draw):
    """Variables of 2-4 levels, groups of 0-30 rows drawn from a few distinct
    rows (so a loaded file often holds weighted blocks), and parent sets of
    0-3 parents for one child: unsorted, some repeated."""
    cards = draw(st.lists(st.integers(2, 4), min_size=2, max_size=6))
    child = draw(st.integers(0, len(cards) - 1))
    others = [v for v in range(len(cards)) if v != child]
    sets = draw(st.lists(st.lists(st.sampled_from(others), unique=True,
                                  max_size=min(3, len(others))).map(tuple), max_size=8))
    sets += draw(st.lists(st.sampled_from(sets), max_size=3)) if sets else []
    group_sizes = draw(st.lists(st.integers(0, 30), min_size=1, max_size=3))
    return cards, child, sets, group_sizes, draw(st.integers(1, 12)), draw(st.integers(0, 2 ** 32))


class TestFamilyCountTablesProperty:
    @settings(max_examples=150, deadline=None, database=None)
    @given(count_cases())
    def test_tables_equal_row_by_row_oracle(self, case):
        cards, child, sets, group_sizes, n_distinct, seed = case
        rng = np.random.default_rng(seed)
        distinct = np.stack([rng.integers(0, c, n_distinct) for c in cards], axis=1)
        blocks = [distinct[rng.integers(0, n_distinct, n)] for n in group_sizes]
        variables = [VariableMeta(f"v{i}", tuple(map(str, range(c)))) for i, c in enumerate(cards)]
        data = GroupedDataset(variables, [f"g{f}" for f in range(len(blocks))], blocks)
        for parents, table in zip(sets, count_tables(data, child, sets)):
            assert table.dtype == np.int64
            np.testing.assert_array_equal(table, family_counts_oracle(data, child, parents))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([["g", *(v.name for v in variables)]] + [
                    [f"g{f}", *row] for f, block in enumerate(blocks) for row in block.tolist()])
            try:
                rows = load_csv_oracle(path, "g")
            except DataError:  # no rows, or a variable seen at one level
                return
            loaded = load_csv(path, "g")
            for parents, table in zip(sets, count_tables(loaded, child, sets)):
                np.testing.assert_array_equal(table, family_counts_oracle(rows, child, parents))


def assert_counts_match_rows(path, group_column):
    """Every family of up to two parents counted on the loaded dataset
    equals the row-by-row tally of the file's rows; returns the dataset."""
    rows = load_csv_oracle(path, group_column)
    data = load_csv(path, group_column)
    assert data.n_rows == rows.n_rows
    for child in range(data.n_variables):
        others = [p for p in range(data.n_variables) if p != child]
        sets = [s for k in range(3) for s in itertools.permutations(others, k)]
        for parents, table in zip(sets, count_tables(data, child, sets)):
            assert table.dtype == np.int64
            np.testing.assert_array_equal(table, family_counts_oracle(rows, child, parents))
            np.testing.assert_array_equal(table, family_counts_oracle(data, child, parents))
            assert table.sum() == data.n_rows
    return data


class TestLoadedCountsMatchRowOracle:
    """A loaded dataset counts each group's distinct records weighted by
    their multiplicities; the counts must equal a row-by-row tally of every
    row the file holds."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_case(self, tmp_path, name):
        path = tmp_path / "data.csv"
        path.write_bytes(ORACLE_CASES[name].encode())
        for group_column in ("g", None):
            try:
                load_csv_oracle(str(path), group_column)
            except DataError:  # a case that does not load counts nothing
                continue
            assert_counts_match_rows(str(path), group_column)

    @pytest.mark.parametrize("seed", range(4))
    def test_repetitive_file(self, tmp_path, seed):
        path = repetitive_csv(tmp_path, n_rows=int(np.random.default_rng(seed).integers(40, 400)),
                              seed=seed)
        for group_column in ("g", None):
            data = assert_counts_match_rows(path, group_column)
            assert data.weights is not None and len(data.rows) * 2 <= data.n_rows

    def test_lines_parsing_to_one_record(self, tmp_path):
        data = load_csv(write(tmp_path, ORACLE_CASES["quoted_same_record"]), "g")
        assert data.variables[0].levels == ("x", "y")
        # group 1: a = x, x, x, y; group 2: a = y, y
        assert family_counts(data, 0, ()).per_group.tolist() == [[[3, 1]], [[0, 2]]]
        assert data.n_rows == 6

    def test_distinct_group_next_to_repeating_group(self, tmp_path):
        data = load_csv(write(tmp_path, ORACLE_CASES["distinct_next_to_repeats"]), "g")
        # 8 distinct lines among 10 rows, more than half: the dataset holds
        # every row, group 2's repeated line three times, unweighted
        assert data.rows.shape == (10, 2) and data.weights is None
        assert data.row_groups.tolist() == [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        assert sorted(map(tuple, data.rows[3:7].tolist())) == sorted(
            map(tuple, data.group_rows[1].tolist()))
        assert data.rows.dtype == data.row_groups.dtype == np.int64
        assert not data.rows.flags.writeable and not data.row_groups.flags.writeable
        assert family_counts(data, 1, (0,)).per_group.tolist() == [
            [[1, 1], [0, 1]], [[3, 0], [0, 1]], [[0, 1], [2, 0]]]

    @pytest.mark.parametrize("text, weighted", [
        # 4 distinct records among 12 rows: weighted, group s1's three
        # distinct rows too
        ("g,a,b\ns1,x,x\ns1,x,y\ns1,y,x\n" + "s2,y,y\n" * 9, True),
        # 6 distinct records among 9 rows: every row, group s1's four
        # copies of one line too
        ("g,a,b\n" + "s1,x,x\n" * 4 + "s2,x,x\ns2,x,y\ns2,y,x\ns2,y,y\ns2,x,z\n", False),
    ])
    def test_one_row_form_for_the_whole_dataset(self, tmp_path, text, weighted):
        path = write(tmp_path, text)
        data, rows = load_csv(path, "g"), load_csv_oracle(path, "g")
        n_distinct = len(set(text.splitlines()[1:]))
        assert data.n_rows == rows.n_rows
        if weighted:
            assert len(data.rows) == n_distinct and data.weights.sum() == data.n_rows
            assert data.weights[data.row_groups == 0].tolist() == [1, 1, 1]
            assert not data.weights.flags.writeable
        else:
            assert len(data.rows) == data.n_rows and data.weights is None
            assert data.rows[data.row_groups == 0].tolist() == [[0, 0]] * 4
        assert data.row_groups.tolist() == sorted(data.row_groups.tolist())
        for parents in ((), (1,)):
            np.testing.assert_array_equal(family_counts(data, 0, parents).per_group,
                                          family_counts_oracle(rows, 0, parents))

    def test_constructed_dataset_counts_every_row_once(self):
        data = mixed_dataset(0)
        assert data.weights is None and data.row_groups.tolist() == [0] * 40 + [2] * 25
        np.testing.assert_array_equal(data.rows, np.concatenate(data.group_rows))
        assert all(np.shares_memory(data.rows, block) for block in data.group_rows if block.size)


def repetitive_csv(tmp_path, n_rows=300, seed=3):
    """A CSV of ``n_rows`` rows drawn from a few distinct lines in two groups."""
    rng = np.random.default_rng(seed)
    lines = [f"s{rng.integers(0, 2)},{rng.integers(0, 2)},{rng.integers(0, 3)},"
             f"{rng.integers(0, 2)}" for _ in range(n_rows)]
    return write(tmp_path, "g,a,b,c\n" + "\n".join(lines) + "\n")


class TestLoadedMemoryGuard:
    def test_oversize_message_unchanged(self, tmp_path, monkeypatch):
        path = repetitive_csv(tmp_path)
        monkeypatch.setattr(data_mod, "MAX_COUNT_CELLS", 20)
        errors = []
        for data in (load_csv(path, "g"), load_csv_oracle(path, "g")):
            with pytest.raises(DataError) as caught:
                family_count_tables(data, 0, [(1,), (1, 2)])
            errors.append(str(caught.value))
        assert errors[0] == errors[1] == "count table of 'a' given 2 parents needs 24 cells, " \
                                         "more than 20"

    def test_batches_sized_from_the_row_matrix(self, tmp_path, monkeypatch):
        # a weighted file of fewer matrix rows than the cap and more data
        # rows: neither row count sizes a batch, its tables alone do
        path = repetitive_csv(tmp_path, n_rows=200)
        data, rows = load_csv(path, "g"), load_csv_oracle(path, "g")
        cap = 60
        assert len(data.rows) < cap < data.n_rows
        monkeypatch.setattr(data_mod, "MAX_COUNT_CELLS", cap)
        count_joint = data_mod._count_joint
        batches = []

        def spy(data, families, shape):
            batches.append(len(families))
            assert len(families) * np.prod(shape) <= cap
            return count_joint(data, families, shape)

        monkeypatch.setattr(data_mod, "_count_joint", spy)
        # 4 to 24 cells a table, at most 48 a shape: one batch a shape
        sets = [(1,), (2,), (1, 2), (2, 1), (), (1,)]
        for parents, table in zip(sets, count_tables(data, 0, sets)):
            np.testing.assert_array_equal(table, family_counts_oracle(rows, 0, parents))
        assert sorted(batches) == [1, 1, 2, 2]


# child 0 with parents 2 and 5 in common: a sorted set places a third
# parent before both (variable 1, 3 levels), between them (3, 2 levels, and
# 4, 3 levels) or after them (6, 3 levels)
WIDE_CARDS = (2, 3, 4, 2, 3, 2, 3)


def grown_sets(base, extras):
    """``base`` plus each of ``extras``, sorted, as the climb asks for them."""
    return [tuple(sorted(base + (u,))) for u in extras]


class TestJointCounting:
    """Families whose tables have one shape (F, J, K) are counted together,
    one stride column each, whatever their child, their parents and their
    order; every table must equal the row-by-row tally."""

    def assert_oracle(self, data, child, sets):
        for parents, table in zip(sets, count_tables(data, child, sets)):
            assert table.dtype == np.int64
            np.testing.assert_array_equal(table, family_counts_oracle(data, child, parents))

    @pytest.mark.parametrize("seed", range(3))
    def test_extras_before_between_and_after_the_base(self, seed):
        data = mixed_dataset(seed, group_sizes=(30, 17), cards=WIDE_CARDS)
        sets = grown_sets((2, 5), [1, 3, 4, 6])
        assert sets == [(1, 2, 5), (2, 3, 5), (2, 4, 5), (2, 5, 6)]
        self.assert_oracle(data, 0, sets)

    def test_extras_of_different_cardinalities_in_one_call(self):
        data = mixed_dataset(3, group_sizes=(25, 40), cards=WIDE_CARDS)
        # 2-, 3- and 4-level extras: three configuration counts
        sets = grown_sets((1,), [2, 3, 4, 5, 6])
        assert len({int(np.prod([WIDE_CARDS[p] for p in s])) for s in sets}) == 3
        self.assert_oracle(data, 0, sets)

    def test_empty_base_a_start_column(self):
        data = mixed_dataset(4, cards=WIDE_CARDS)
        self.assert_oracle(data, 3, [(u,) for u in range(7) if u != 3])

    def test_one_batch_per_configuration_count_in_any_order(self, monkeypatch):
        data = mixed_dataset(5, cards=WIDE_CARDS)
        count_joint = data_mod._count_joint
        batches = []

        def spy(data, families, shape):
            batches.append((shape[1], sorted(parents for _, parents in families)))
            return count_joint(data, families, shape)

        monkeypatch.setattr(data_mod, "_count_joint", spy)
        # 24 configurations: three parents with their shared ones in one
        # order or in two; 16: (5, 3, 2); 4: one parent or two, either order
        for sets in ([(5, 2, 1), (5, 3, 2), (4, 5, 2), (5, 2, 6), (2,), (5, 3), (3, 5)],
                     [(5, 2, 1), (5, 3, 2), (4, 5, 2), (2, 5, 6), (3, 5), (2,), (5, 3)]):
            batches.clear()
            self.assert_oracle(data, 0, sets)
            assert sorted(batches) == [
                (4, sorted(s for s in sets if len(s) < 3)), (16, [(5, 3, 2)]),
                (24, sorted(s for s in sets if len(s) == 3 and s != (5, 3, 2)))]

    def test_empty_groups(self):
        data = mixed_dataset(6, group_sizes=(0, 33, 0), cards=WIDE_CARDS)
        self.assert_oracle(data, 0, grown_sets((2, 5), [1, 3, 4, 6]))
        every_group_empty = mixed_dataset(6, group_sizes=(0, 0), cards=WIDE_CARDS)
        for table in count_tables(every_group_empty, 0, grown_sets((2,), [1, 3, 5])):
            assert table.shape[0] == 2 and not table.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_blocks_of_a_loaded_file(self, tmp_path, seed):
        path = repetitive_csv(tmp_path, n_rows=200, seed=seed)
        data, rows = load_csv(path, "g"), load_csv_oracle(path, "g")
        assert data.weights is not None
        for child in range(3):
            others = [p for p in range(3) if p != child]
            for base in ((), (others[0],)):
                sets = grown_sets(base, [u for u in others if u not in base])
                sets += [(), tuple(others)]
                for parents, table in zip(sets, count_tables(data, child, sets)):
                    np.testing.assert_array_equal(table,
                                                  family_counts_oracle(rows, child, parents))

    @pytest.mark.parametrize("madds", [1, 100, 1000])
    def test_product_in_row_slices(self, tmp_path, monkeypatch, madds):
        # one row a slice, a few rows, or about a fifth of the 65 rows
        monkeypatch.setattr(data_mod, "_PRODUCT_MADDS", madds)
        sets = grown_sets((2,), [1, 3, 5]) + [(), (6, 1)]
        self.assert_oracle(mixed_dataset(10, cards=WIDE_CARDS), 0, sets)
        path = repetitive_csv(tmp_path, n_rows=200)
        data, rows = load_csv(path, "g"), load_csv_oracle(path, "g")
        assert data.weights is not None
        sets = [(1,), (2,), (1, 2)]
        for parents, table in zip(sets, count_tables(data, 0, sets)):
            np.testing.assert_array_equal(table, family_counts_oracle(rows, 0, parents))

    def test_shared_base_among_unrelated_and_repeated_sets(self):
        data = mixed_dataset(7, group_sizes=(40, 0, 25), cards=WIDE_CARDS)
        grown = grown_sets((2, 5), [1, 3, 4, 6])
        sets = [(), (3,), grown[0], (6, 1), grown[1], (4, 3, 1), grown[2], grown[0],
                (1, 3), grown[3], (2, 5), (5, 2), (3,)]
        self.assert_oracle(data, 0, sets)

    @pytest.mark.parametrize("cap", [60, 120])
    def test_cap_splits_a_shared_base_batch(self, monkeypatch, cap):
        data = mixed_dataset(8, group_sizes=(30, 0, 20), cards=WIDE_CARDS)
        monkeypatch.setattr(data_mod, "MAX_COUNT_CELLS", cap)
        count_joint = data_mod._count_joint
        batches = []

        def spy(data, families, shape):
            batches.append(families)
            return count_joint(data, families, shape)

        monkeypatch.setattr(data_mod, "_count_joint", spy)
        # child 1 (3 levels) on a base of variable 6 (3 levels) plus each
        # 2-level variable, one of them twice: 54 cells a table
        sets = grown_sets((6,), [0, 3, 5, 3])
        self.assert_oracle(data, 1, sets)
        assert sorted(map(len, batches)) == ([1, 1, 1, 1] if cap == 60 else [2, 2])

    def test_cap_splits_a_batch_by_its_row_codes(self, monkeypatch):
        data = mixed_dataset(9, group_sizes=(40, 30), cards=(2, 2, 2, 2, 2))
        assert len(data.rows) > 60
        monkeypatch.setattr(data_mod, "MAX_COUNT_CELLS", 60)
        count_joint = data_mod._count_joint
        batches = []

        def spy(data, families, shape):
            batches.append([parents for _, parents in families])
            return count_joint(data, families, shape)

        monkeypatch.setattr(data_mod, "_count_joint", spy)
        # 70 row codes a set, more than the cap, are taken in row chunks and
        # split no batch; 16 cells a table: three sets fit, whatever their
        # parents
        sets = [(0, 1), (1, 0), (2, 3), (3, 2)]
        self.assert_oracle(data, 4, sets)
        assert batches == [[(0, 1), (1, 0), (2, 3)], [(3, 2)]]

    def test_two_children_of_one_table_shape_in_one_call(self, monkeypatch):
        data = mixed_dataset(11, cards=WIDE_CARDS)
        count_joint = data_mod._count_joint
        batches = []

        def spy(data, families, shape):
            batches.append((shape, families))
            return count_joint(data, families, shape)

        monkeypatch.setattr(data_mod, "_count_joint", spy)
        # children 0 and 3 have 2 levels: (3, 6, 2) tables given a 2- and a
        # 3-level parent, in either order; child 1 (3 levels) alone
        families = [(0, (1, 3)), (3, (6, 5)), (1, (0, 4)), (0, (5, 4)), (3, (1, 0))]
        tables = [None] * len(families)
        for positions, stacked in data_mod._count_tables(data, families):
            for position, table in zip(positions, stacked):
                tables[position] = table
        for (child, parents), table in zip(families, tables):
            np.testing.assert_array_equal(table, family_counts_oracle(data, child, parents))
        assert sorted(batches) == [((3, 6, 2), [families[i] for i in (0, 1, 3, 4)]),
                                   ((3, 6, 3), [families[2]])]

    def test_a_bincount_reads_at_least_the_tables_in_codes(self, monkeypatch):
        # one row and one set a product slice: each of 2 sets of 3 * 2 * 2
        # cells takes a bincount per 12 of the 65 rows, not per row, and the
        # last takes the 5 left
        data = mixed_dataset(12, cards=WIDE_CARDS)
        monkeypatch.setattr(data_mod, "_PRODUCT_MADDS", 1)
        bincount, codes = np.bincount, []

        def spy(x, *args, **kwargs):
            codes.append(len(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(data_mod.np, "bincount", spy)
        self.assert_oracle(data, 0, [(3,), (5,)])
        assert codes == ([12] * 5 + [5]) * 2

    def test_wide_batch_counted_in_blocks_of_columns(self, monkeypatch):
        # 9 columns (7 variables, group, ones) and a slice of 20 rows: 4 sets
        # a block, so 15 sets of (3, 4, 2) tables take blocks of 4, 4, 4 and
        # 3, each a bincount per 20 of the 95 rows
        data = mixed_dataset(13, group_sizes=(50, 0, 45), cards=(2,) * 7)
        monkeypatch.setattr(data_mod, "_SLICE_ROWS", 20)
        monkeypatch.setattr(data_mod, "_PRODUCT_MADDS", 9 * 20 * 4)
        bincount, codes = np.bincount, []

        def spy(x, *args, **kwargs):
            codes.append(len(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(data_mod.np, "bincount", spy)
        self.assert_oracle(data, 0, list(itertools.combinations(range(1, 7), 2)))
        assert codes == ([80] * 4 + [60]) * 3 + [60] * 4 + [45]

    def test_weighted_rows_counted_in_blocks_of_columns(self, tmp_path, monkeypatch):
        # fewer matrix rows than _SLICE_ROWS: a slice spans them all, 2 sets
        # a block, each row's weight repeated once per set of its block
        path = repetitive_csv(tmp_path, n_rows=200)
        data, rows = load_csv(path, "g"), load_csv_oracle(path, "g")
        m = len(data.rows)
        assert data.weights is not None and m < data_mod._SLICE_ROWS
        monkeypatch.setattr(data_mod, "_PRODUCT_MADDS", 5 * m * 2)
        bincount, codes = np.bincount, []

        def spy(x, *args, **kwargs):
            codes.append(len(x))
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(data_mod.np, "bincount", spy)
        sets = [(1, 2), (2, 1), (2, 1)]
        for parents, table in zip(sets, count_tables(data, 0, sets)):
            np.testing.assert_array_equal(table, family_counts_oracle(rows, 0, parents))
        assert codes == [2 * m, m]


class TestFloatCopy:
    """Counting reads one float64 copy of the row matrix, each row's group
    and a ones column after its levels, built on the dataset's first count;
    the int64 rows and group rows stay as they are."""

    @pytest.fixture
    def builds(self, monkeypatch):
        prop = GroupedDataset.__dict__["_float_rows"]
        build, built = prop.func, []

        def spy(data):
            built.append(data)
            return build(data)

        monkeypatch.setattr(prop, "func", spy)
        return built

    def test_built_once_and_reused_by_counts_and_a_climb(self, tmp_path, builds):
        from hierbn.scores import ScoreConfig
        from hierbn.search import run_hill_climb

        for data in (mixed_dataset(10), load_csv(repetitive_csv(tmp_path), "g")):
            rows, row_groups, group_rows = data.rows, data.row_groups, data.group_rows
            count_tables(data, 2, [(1,), (0, 1)])
            copy = data._float_rows
            count_tables(data, 1, [(0,), ()])
            run_hill_climb(data, ScoreConfig("bdeu"))
            assert builds.count(data) == 1 and data._float_rows is copy
            assert copy.dtype == np.float64 and not copy.flags.writeable
            assert copy.shape == (len(rows), data.n_variables + 2)
            np.testing.assert_array_equal(copy[:, :-2], rows)
            np.testing.assert_array_equal(copy[:, -2], row_groups)
            assert (copy[:, -1] == 1).all()
            assert data.rows is rows and data.row_groups is row_groups
            assert data.group_rows is group_rows
            assert data.rows.dtype == np.int64
            assert all(block.dtype == np.int64 for block in data.group_rows)
        assert len(builds) == 2

    def test_not_built_before_the_first_count(self, builds):
        data = mixed_dataset(11)
        assert data.group_rows and data.n_rows == 65
        assert builds == [] and "_float_rows" not in vars(data)
        count_tables(data, 0, [()])
        assert builds == [data]


class TestIndexChecks:
    """Every child and parent index is a Python or numpy integer (not a
    bool) in range, and no set repeats one; anything else is refused with a
    ValueError naming it, before anything is counted."""

    @pytest.fixture
    def no_counting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("counted before every index was checked")

        monkeypatch.setattr(data_mod, "_count_joint", refuse, raising=False)

    @pytest.mark.parametrize("child, sets, named", [
        (0, [(1, 1)], "repeats variable index 1"),
        (0, [(2,), (1, 3), (3, 1, 3)], "repeats variable index 3"),
        (0, [(2, 3), (2, 4), (2, 2)], "repeats variable index 2"),
        (0, [(1, 1, 2), (1, 1, 3)], "repeats variable index 1"),  # in a shared base
        (0, [(-1,)], "index -1 "),
        (-1, [(1,)], "index -1 "),
        (0, [(True,)], "index True "),
        (True, [(2,)], "index True "),
        (0, [(5,)], "index 5 "),
        (5, [()], "index 5 "),
        (0, [(1,), (2.0,)], r"index 2\.0 "),
        (0, [(np.int64(1), np.bool_(True))], r"index (np\.)?True_? "),
    ])
    def test_refused_before_counting(self, no_counting, child, sets, named):
        data = mixed_dataset(0)
        with pytest.raises(ValueError, match=named):
            family_count_tables(data, child, sets)

    def test_numpy_integers_count_as_their_values(self):
        data = mixed_dataset(1)
        sets = [(np.int64(0), np.int32(3)), (np.uint8(4),)]
        for parents, table in zip(sets, count_tables(data, np.int64(2), sets)):
            np.testing.assert_array_equal(table, family_counts_oracle(data, 2, tuple(
                map(int, parents))))

    def test_scores_refuse_what_counting_refuses(self):
        from hierbn.scores import ScoreConfig, local_log_score
        from hierbn.simgen import GenConfig, generate

        _, data = generate(GenConfig(n_nodes=5, rows_per_group=100, seed=3))
        config = ScoreConfig("bdeu")
        for child, parents in [(0, (1, 1)), (0, (-1,)), (-1, (1,)), (0, (True,)), (0, (7,))]:
            with pytest.raises(ValueError):
                local_log_score(data, child, parents, config)
        # the last variable is named by its index, not by a negative one
        assert local_log_score(data, 0, (4,), config) != local_log_score(data, 0, (3,), config)

    def test_cached_scores_refuse_what_counting_refuses(self):
        from hierbn.scores import LocalScoreCache, ScoreConfig, local_log_score
        from hierbn.simgen import GenConfig, generate

        _, data = generate(GenConfig(n_nodes=5, rows_per_group=100, seed=3))
        config, cache = ScoreConfig("bdeu"), LocalScoreCache()
        local_log_score(data, 0, (1,), config, cache)
        local_log_score(data, 1, (0,), config, cache)
        # each of these equals and hashes as a cached key's integer
        for index in (True, np.bool_(True), 1.0, np.float64(1.0)):
            for child, parents in [(0, (index,)), (index, (0,))]:
                with pytest.raises(ValueError, match="is not an integer"):
                    local_log_score(data, child, parents, config, cache)
        assert (cache.hits, cache.misses) == (0, 2)


class TestNumberRules:
    """``check_count`` and ``check_positive`` are the package's one rule for
    a count and for a positive setting."""

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3),
                                       pytest.param(10 ** 400, id="10**400")])
    def test_count_accepts_integers_at_or_above_least(self, value):
        data_mod.check_count("n", value, 3)

    @pytest.mark.parametrize("value, message", [
        (2, "n must be at least 3"), (np.int32(-1), "n must be at least 3"),
        (3.0, r"n must be an integer, got 3\.0"), (True, "n must be an integer, got True"),
        ("3", "n must be an integer, got '3'"), (None, "n must be an integer, got None")])
    def test_count_refuses(self, value, message):
        with pytest.raises(ValueError, match=message):
            data_mod.check_count("n", value, 3)

    @pytest.mark.parametrize("value", [1, 2.5, np.float32(0.5), np.int64(7), 5e-324,
                                       pytest.param(10 ** 300, id="10**300")])
    def test_positive_returns_the_float(self, value):
        got = data_mod.check_positive("x", value)
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value, message", [
        (0, "x must be positive and finite"), (-1.0, "x must be positive and finite"),
        (float("nan"), "x must be positive and finite"),
        (float("inf"), "x must be positive and finite"),
        pytest.param(10 ** 400, "x must be positive and finite", id="10**400"),
        pytest.param(-10 ** 400, "x must be positive and finite", id="-10**400"),
        (True, "x must be a number, got True"), ("1", "x must be a number, got '1'"),
        (None, "x must be a number, got None"), (1j, r"x must be a number, got 1j")])
    def test_positive_refuses(self, value, message):
        with pytest.raises(ValueError, match=message):
            data_mod.check_positive("x", value)
