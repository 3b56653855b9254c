from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcov import (
    DenseMatrix,
    build_schedule,
    centralized_covariance,
    hjoin,
    load_table,
    mfeat_preset,
    partition_vertical,
    run_distributed,
    synthetic_table,
)
from distcov.cli import main as cli_main
from distcov.errors import DistCovError
from distcov.ingest import MFEAT_FILES, MFEAT_WIDTHS, PartitionSpec, even_preset

from conftest import raises_exactly


# --- load_table -------------------------------------------------------------

def test_load_whitespace(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1 2\n3  4\n5\t6\n")
    m = load_table(p)
    assert m.rows == 3 and m.cols == 2
    assert m.values.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_load_csv_with_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1.5,-2\n3,0.1\n")
    m = load_table(p, format="csv")
    assert m.values.tolist() == [[1.5, -2.0], [3.0, 0.1]]
    p.write_text('"a","b"\n"1.5","-2"\n')  # quoted header, quoted fields
    assert load_table(p, format="csv").values.tolist() == [[1.5, -2.0]]
    p.write_text("\n\na,b\n1.5,-2\n")  # the lines skipped count the blank ones
    assert load_table(p, format="csv").values.tolist() == [[1.5, -2.0]]


def test_load_csv_without_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,4\n")
    m = load_table(p, format="csv")
    assert m.values.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("text", ["1,nan,3\n4,5,6\n7,8,9\n", "inf,2,3\n4,5,6\n"])
def test_load_csv_first_row_with_a_non_finite_value_is_data(tmp_path, text):
    # Every field parses as a number, so the row is data, not a header to skip.
    p = tmp_path / "d.csv"
    p.write_text(text)
    with raises_exactly(DistCovError, match=r": row 1 field [12]: '(nan|inf)' is not finite$"):
        load_table(p, format="csv")


def test_load_non_finite(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1 2\n3 nan\n")
    with raises_exactly(DistCovError, match="row 2 field 2: 'nan' is not finite$"):
        load_table(p)


@pytest.mark.parametrize("format, text, fault", [
    ("whitespace", "1 2\n\n3 4\n5 -inf\n", "row 3 field 2: '-inf'"),  # blank lines uncounted
    ("csv", 'a,b\n1,2\n"1e999",4\n', "row 3 field 1: '1e999'"),  # the header counts
], ids=["whitespace", "csv"])
def test_a_non_finite_value_is_named_by_file_row_and_field(tmp_path, format, text, fault):
    p = tmp_path / "d.txt"
    p.write_text(text)
    with raises_exactly(DistCovError, match=f"^{re.escape(str(p))}: {fault} is not finite$"):
        load_table(p, format=format)


def test_load_whitespace_matches_per_field_parse_on_gen_file(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert cli_main(["gen", "--rows", "40", "--cols", "9", "--seed", "5", "--out", str(out)]) == 0
    per_field = [[float(f) for f in line.split()] for line in out.read_text().splitlines()]
    loaded = load_table(out)
    assert loaded == DenseMatrix(per_field)
    assert loaded == synthetic_table(40, 9, seed=5)


@pytest.mark.parametrize("format, text, fault", [
    ("whitespace", "1_0 2\n3 4\n", "row 1 field 1: '1_0'"),
    ("csv", "1,2\n3,\u0664\n", "row 2 field 2: '\u0664'"),
], ids=["whitespace", "csv"])
def test_load_refuses_what_numpy_cannot_parse(tmp_path, format, text, fault):
    # Python's float() reads 1_0 and the Arabic-Indic digit 4; numpy does
    # not, and the row pass judges fields by numpy's grammar too.
    p = tmp_path / "d.txt"
    p.write_text(text, encoding="utf-8")
    with raises_exactly(DistCovError, match=f"^{re.escape(str(p))}: {fault} is not a number$"):
        load_table(p, format=format)


_FIELDS = st.one_of(
    st.text(alphabet="0123456789.eE+-_xnaifINF\u0664", min_size=1, max_size=6),
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=4),
).filter(lambda field: not any(c.isspace() for c in field))


@settings(max_examples=300, deadline=None)
@given(field=_FIELDS)
def test_a_field_loads_exactly_when_numpy_reads_a_finite_number(tmp_path_factory, field):
    p = tmp_path_factory.mktemp("grammar") / "d.txt"
    p.write_text(field + "\n", encoding="utf-8")
    try:
        value = np.loadtxt([field], comments=None).reshape(1, 1)
    except ValueError:
        value = None
    if value is not None and np.isfinite(value).all():
        assert load_table(p) == DenseMatrix(value)
    else:
        with raises_exactly(DistCovError, match=f"^{re.escape(str(p))}: row 1 field 1: "):
            load_table(p)


def test_a_csv_header_is_judged_by_the_loaders_grammar(tmp_path):
    # 1_0 is not a number to numpy, so the first row is a header.
    p = tmp_path / "d.csv"
    p.write_text("1_0,2\n3,4\n5,6\n")
    assert load_table(p, format="csv").values.tolist() == [[3, 4], [5, 6]]


def test_load_undecodable_file(tmp_path):
    p = tmp_path / "d.txt"
    p.write_bytes(b"\xff\xfe1 2\n3 4\n")
    for format in ("whitespace", "csv"):
        with raises_exactly(DistCovError, match=f"^cannot read {re.escape(str(p))}: "):
            load_table(p, format=format)


def test_load_errors_name_row_and_field(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("1 2\n3\n")
    with raises_exactly(DistCovError, match="row 2 has 1 fields, expected 2"):
        load_table(p)
    p.write_text("1 2\n3 oops\n")
    with raises_exactly(DistCovError, match="row 2 field 2: 'oops' is not a number"):
        load_table(p)
    p.write_text("a,b,c\n1,2\n3,4\n")  # a header is a row too
    with raises_exactly(DistCovError, match="row 1 has 3 fields, expected 2"):
        load_table(p, format="csv")
    p.write_text("a,b\n1,2\n3,oops\n")
    with raises_exactly(DistCovError, match="row 3 field 2: 'oops' is not a number"):
        load_table(p, format="csv")
    p.write_text("1,2\n3\f4,5\n")  # a form feed ends no line, for numpy or the pass
    with raises_exactly(DistCovError, match=r"row 2 field 1: '3\\x0c4' is not a number$"):
        load_table(p, format="csv")


def test_load_missing_file(tmp_path):
    with raises_exactly(DistCovError, match="cannot read"):
        load_table(tmp_path / "absent.txt")


def test_load_empty_file(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("")
    with raises_exactly(DistCovError, match="no data rows"):
        load_table(p)
    p.write_text("a,b\n")  # a CSV header alone
    with raises_exactly(DistCovError, match="no data rows"):
        load_table(p, format="csv")


def test_load_unknown_format(tmp_path):
    with raises_exactly(DistCovError, match="unknown format 'parquet'"):
        load_table(tmp_path / "d.txt", format="parquet")


# --- hjoin ------------------------------------------------------------------

def test_hjoin_concatenates(tmp_path):
    a = synthetic_table(3, 2, seed=1)
    b = synthetic_table(3, 1, seed=2)
    joined = hjoin([a, b])
    assert joined.rows == 3 and joined.cols == 3
    assert joined.values[:, :2].tobytes() == a.values.tobytes()


def test_hjoin_row_mismatch():
    with raises_exactly(DistCovError, match="^table 1 has 3 rows, table 0 has 2$"):
        hjoin([synthetic_table(2, 1), synthetic_table(3, 1)])


def test_hjoin_single_table_is_bit_identical():
    a = synthetic_table(4, 3, seed=9)
    assert hjoin([a]) == a


# --- PartitionSpec ----------------------------------------------------------

def test_spec_validation():
    PartitionSpec(total_cols=3, groups=((0, 2), (1,)))  # disjoint exact cover: fine
    with raises_exactly(DistCovError, match="column 1 held by two sites"):
        PartitionSpec(total_cols=3, groups=((0, 1), (1, 2)))  # overlap
    with raises_exactly(DistCovError, match="column 2 held by no site"):
        PartitionSpec(total_cols=3, groups=((0, 1),))  # gap
    with raises_exactly(DistCovError, match="group 1 is empty"):
        PartitionSpec(total_cols=2, groups=((0, 1), ()))  # empty group
    with raises_exactly(DistCovError, match=r"group 0 references column 2, valid range is \[0, 2\)"):
        PartitionSpec(total_cols=2, groups=((0, 2), (1,)))  # out of range


@pytest.mark.parametrize("transport", ["in-process", "tcp"])
def test_a_group_in_any_order_is_stored_sorted_and_runs_to_the_oracle(transport):
    # A group is a set of columns: the order it is listed in changes nothing.
    spec = PartitionSpec(total_cols=7, groups=((5, 0, 3), (6, 1), (4, 2)))
    assert spec.groups == ((0, 3, 5), (1, 6), (2, 4))
    table = synthetic_table(30, 7, seed=8)
    cov, _, _ = run_distributed(partition_vertical(table, spec), build_schedule(3),
                                transport=transport)
    assert cov.matrix == centralized_covariance(table).matrix


def test_spec_from_widths():
    assert PartitionSpec.from_widths([2, 1, 3]) == PartitionSpec(
        total_cols=6, groups=((0, 1), (2,), (3, 4, 5))
    )
    with raises_exactly(DistCovError, match="group 1 is empty"):
        PartitionSpec.from_widths([2, 0, 3])
    with raises_exactly(DistCovError, match="total_cols must be >= 1, got 0"):
        PartitionSpec.from_widths([])


def test_spec_json_roundtrip():
    text = (
        '{"total_cols": 4, "groups": [{"site": 1, "cols": [2, 3], "name": "right"},'
        ' {"site": 0, "cols": [0, 1], "name": "left"}]}'
    )
    spec = PartitionSpec.from_json(text)
    assert spec == PartitionSpec(total_cols=4, groups=((0, 1), (2, 3)))


def test_spec_from_json_errors():
    with raises_exactly(DistCovError, match="malformed partition spec: JSONDecodeError"):
        PartitionSpec.from_json("not json")
    with raises_exactly(DistCovError, match="malformed partition spec: KeyError"):
        PartitionSpec.from_json('{"groups": []}')
    with raises_exactly(DistCovError, match=r"group site-ids must be 0\.\.1 in order"):
        PartitionSpec.from_json(
            '{"total_cols": 2, "groups": [{"site": 1, "cols": [0]}, {"site": 3, "cols": [1]}]}'
        )


# --- partition_vertical -----------------------------------------------------

def test_partition_trivial_spec():
    m = synthetic_table(5, 4, seed=3)
    spec = PartitionSpec(total_cols=4, groups=(tuple(range(4)),))
    [block] = partition_vertical(m, spec)
    assert block.site == 0
    assert block.data == m


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_one_site_partition_preserves_column_bytes(xs):
    m = DenseMatrix(np.array(xs).reshape(-1, 1))
    [block] = partition_vertical(m, PartitionSpec(total_cols=1, groups=((0,),)))
    assert block.data == m


def test_partition_selects_a_group_of_non_adjacent_columns():
    m = DenseMatrix(np.reshape([1, 2, 3, 4, 5, 6], (2, 3)))
    blocks = partition_vertical(m, PartitionSpec(total_cols=3, groups=((0, 2), (1,))))
    assert [b.data.values.tolist() for b in blocks] == [[[1.0, 3.0], [4.0, 6.0]], [[2.0], [5.0]]]
    assert [b.global_cols for b in blocks] == [(0, 2), (1,)]


def test_partition_spec_mismatch():
    m = synthetic_table(5, 4, seed=3)
    with raises_exactly(DistCovError, match="spec covers 3 columns, matrix has 4"):
        partition_vertical(m, PartitionSpec(total_cols=3, groups=((0, 1, 2),)))


def test_partition_round_trip():
    m = synthetic_table(7, 10, seed=4)
    spec = even_preset(10, 3)
    blocks = partition_vertical(m, spec)
    rejoined = hjoin([b.data for b in blocks])
    assert rejoined == m


def test_partition_mfeat_layout_widths():
    m = synthetic_table(5, sum(MFEAT_WIDTHS), seed=5)
    blocks = partition_vertical(m, mfeat_preset(6))
    assert [b.data.cols for b in blocks] == list(MFEAT_WIDTHS)


# --- mfeat_preset -----------------------------------------------------------

@pytest.mark.parametrize(
    "partitions,widths",
    [
        (2, [356, 293]),
        (3, [216, 140, 293]),
        (4, [216, 140, 246, 47]),
        (5, [216, 76, 64, 246, 47]),
        (6, [216, 76, 64, 6, 240, 47]),
    ],
)
def test_preset_group_widths(partitions, widths):
    spec = mfeat_preset(partitions)
    assert [len(g) for g in spec.groups] == widths
    assert [c for g in spec.groups for c in g] == list(range(649))
    assert spec.total_cols == 649


def test_preset_unsupported_count():
    with raises_exactly(DistCovError, match="no preset for 7 partitions"):
        mfeat_preset(7)
    with raises_exactly(DistCovError, match="no preset for 1 partitions"):
        mfeat_preset(1)


def test_even_preset():
    spec = even_preset(10, 4)
    assert [len(g) for g in spec.groups] == [2, 3, 2, 3]
    with raises_exactly(DistCovError, match="cannot split 2 columns across 3 sites"):
        even_preset(2, 3)


# --- synthetic data ---------------------------------------------------------

def test_synthetic_is_seed_deterministic():
    a = synthetic_table(50, 8, seed=21)
    b = synthetic_table(50, 8, seed=21)
    c = synthetic_table(50, 8, seed=22)
    assert a == b
    assert a != c


def test_synthetic_columns_have_distinct_scales():
    m = synthetic_table(400, 8, seed=23)
    stds = np.std(m.values, axis=0)
    assert stds.max() / stds.min() > 2.0


# --- real feature files -------------------------------------------------------

def test_load_mfeat_joins_the_six_files_in_canonical_order(tmp_path):
    from distcov import load_mfeat

    table = synthetic_table(3, sum(MFEAT_WIDTHS), seed=9)
    edges = np.cumsum((0, *MFEAT_WIDTHS))
    paths = [tmp_path / fname for _, fname, _ in MFEAT_FILES]
    for path, lo, hi in reversed(list(zip(paths, edges, edges[1:]))):  # written last to first
        np.savetxt(path, table.values[:, lo:hi], fmt="%.17g")
    loaded = load_mfeat(tmp_path)
    assert (loaded.rows, loaded.cols) == (3, 649)
    assert loaded == hjoin([load_table(p, format="whitespace") for p in paths])
    assert loaded == table
    np.savetxt(paths[-1], table.values[:2, edges[-2]:], fmt="%.17g")  # a row short
    with raises_exactly(DistCovError, match="^mfeat-zer has 2 rows, mfeat-fac has 3$"):
        load_mfeat(tmp_path)


def test_load_mfeat_missing_file(tmp_path):
    from distcov import load_mfeat

    with raises_exactly(DistCovError, match="cannot read"):
        load_mfeat(tmp_path)


def test_load_mfeat_rejects_wrong_width(tmp_path):
    from distcov import load_mfeat

    (tmp_path / "mfeat-fac").write_text("1 2\n3 4\n")  # 2 cols, expected 216
    with raises_exactly(DistCovError, match="mfeat-fac: expected 216 columns"):
        load_mfeat(tmp_path)
