import csv
import io
import random

import numpy as np
import pytest

from citerank import CitationNetwork, ScoreTable
from citerank.errors import CiteRankError, TableFormatError
from citerank.network import INT64_MAX
from citerank.fileio import (
    _BLOCK_ROWS,
    fmt,
    read_correlation_csv,
    read_edge_list,
    read_score_table,
    write_correlation_csv,
    write_csv,
    write_edge_list,
    write_ranking_csv,
)

from conftest import (
    columns,
    reference_from_edges,
    reference_read_edge_list,
    reference_write_edge_list,
    weight_dict,
)


def test_fmt_15_significant_digits():
    assert fmt(1 / 3) == "0.333333333333333"
    assert fmt(7) == "7"
    assert fmt(np.float64(2.5)) == "2.5"


def test_edge_list_round_trip(tmp_path):
    net = CitationNetwork.from_edges(["b", "a", "a"], ["a", "b", "c"], [2, 7, 1])
    path = tmp_path / "edges.csv"
    write_edge_list(net, path)
    back = CitationNetwork.from_edges(*read_edge_list(path))
    assert back.node_ids == net.node_ids
    assert weight_dict(back) == weight_dict(net)


def test_edge_list_rejects_bad_rows(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,w\na,b,1\n")
    with pytest.raises(TableFormatError, match="header"):
        read_edge_list(path)
    path.write_text("source,target,weight\na,b,0\n")
    with pytest.raises(TableFormatError, match="positive"):
        read_edge_list(path)
    path.write_text("source,target,weight\na,b\n")
    with pytest.raises(TableFormatError, match="3 fields"):
        read_edge_list(path)


def test_edge_list_rejects_weight_beyond_int64(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\na,b,9223372036854775807\nb,a,9223372036854775808\n")
    with pytest.raises(TableFormatError, match=r"edges\.csv:3: weight 9223372036854775808 is beyond"):
        read_edge_list(path)


def test_edge_list_errors_name_the_file_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text('source,target,weight\n"a\nb",c,1\n\nx,y,zero\n')
    with pytest.raises(TableFormatError, match=r"edges\.csv:5: weight 'zero' is not an integer"):
        read_edge_list(path)


def test_from_edges_ignores_row_order(tmp_path):
    rng = random.Random(2000)
    ids = [f"inst-{k:04d}" for k in range(2000)]
    rows = [(rng.choice(ids), rng.choice(ids), rng.randint(1, 5)) for _ in range(6000)]
    rows += rows[:1500]  # repeated rows accumulate
    shuffled = rows[:]
    rng.shuffle(shuffled)
    nets = [CitationNetwork.from_edges(*columns(r)) for r in (rows, shuffled)]
    for name in ("source", "target", "weight"):
        assert np.array_equal(getattr(nets[0], name), getattr(nets[1], name))
    assert nets[0].node_ids == nets[1].node_ids
    assert nets[0] == nets[1]
    assert nets[0] != CitationNetwork.from_edges(*columns(rows[1:]))
    written = []
    for k, net in enumerate(nets):
        write_edge_list(net, tmp_path / f"edges{k}.csv")
        written.append((tmp_path / f"edges{k}.csv").read_bytes())
    assert written[0] == written[1]


def test_edge_list_rows_sorted_by_id_with_csv_quoting(tmp_path):
    ids = ["zeta", 'say "hi"', "b,c", "alpha", "b", 'q,"x"']
    rng = np.random.default_rng(6)
    src = rng.integers(0, len(ids), size=60)
    dst = rng.integers(0, len(ids), size=60)
    w = rng.integers(1, 4, size=60)
    net = CitationNetwork.build(ids, src, dst, w)
    path = tmp_path / "edges.csv"
    write_edge_list(net, path)
    expected = io.StringIO(newline="")
    out = csv.writer(expected)
    out.writerow(["source", "target", "weight"])
    out.writerows(sorted((ids[i], ids[j], x) for (i, j), x in weight_dict(net).items()))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_ranking_orders_ties_by_id_whatever_the_id_order(tmp_path, dtype):
    ids = ("zeta", "b", "alpha", "B", "mu", "a,c")
    scores = np.array([3, 5, 3, 5, 1, 3], dtype=dtype)
    normalized = scores / 5
    path = tmp_path / "ranking.csv"
    write_ranking_csv(path, ids, scores, normalized)
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
    assert [row[1] for row in rows[1:]] == ["B", "b", "a,c", "alpha", "zeta", "mu"]
    # the row-wise rule it replaces, each value written by fmt
    order = sorted(range(len(ids)), key=lambda k: (-scores[k], ids[k]))
    expected = io.StringIO(newline="")
    out = csv.writer(expected)
    out.writerow(["rank", "institution", "pagerank_score", "normalized_score"])
    out.writerows([r, ids[k], fmt(scores[k]), fmt(normalized[k])] for r, k in enumerate(order, 1))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def _edge_list_outcome(read, path):
    """What a reader makes of a file: its network, or its error message."""
    try:
        return read(path)
    except TableFormatError as exc:
        return str(exc)


def test_edge_list_columns_match_row_wise_reference(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    plain = st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=6)
    awkward = st.sampled_from(
        ["", "a,b", 'say "hi"', "a\rb", "a\nb", "a\r\nb", "\r\n", " pad", "pad ", " pad ",
         "Zürich", "東京大学", "x", "x ", ","]
    )
    ids = st.lists(st.one_of(awkward, plain), min_size=1, max_size=8, unique=True)
    write_path, ref_path = tmp_path / "edges.csv", tmp_path / "reference.csv"

    def read_columns(path):
        return CitationNetwork.from_edges(*read_edge_list(path))

    def read_rows(path):
        return reference_from_edges(reference_read_edge_list(path))

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(ids, st.data())
    def check(node_ids, data):
        n = len(node_ids)
        index = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=20))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(pairs), max_size=len(pairs)))
        if weights:  # one weight as large as the int64 total allows
            big = data.draw(st.integers(1, INT64_MAX))
            weights[0] = max(1, min(big, INT64_MAX - sum(weights[1:])))
        net = CitationNetwork.build(node_ids, [i for i, _ in pairs], [j for _, j in pairs], weights)
        write_edge_list(net, write_path)
        reference_write_edge_list(net, ref_path)
        assert write_path.read_bytes() == ref_path.read_bytes()
        outcome = _edge_list_outcome(read_columns, write_path)
        assert outcome == _edge_list_outcome(read_rows, write_path)

    check()


GOOD_ROWS = 'source,target,weight\n"a\nb",c,1\n\n'  # a quoted two-line field, then a blank line


@pytest.mark.parametrize(
    "bad_value, message",
    [
        ("x,y,zero", "weight 'zero' is not an integer"),
        ("x,y,0", "weight must be positive, got 0"),
        ("x,y,-9223372036854775809", "weight must be positive, got -9223372036854775809"),
        ("x,y,9223372036854775808", "weight 9223372036854775808 is beyond the int64 range"),
        ("x, ,2", "empty institution id"),
    ],
)
def test_edge_list_reports_first_bad_row_in_file_order(tmp_path, bad_value, message):
    path = tmp_path / "edges.csv"
    for rows, expected in (
        ([bad_value, "q,r,1,2"], f"edges.csv:6: {message}"),
        (["q,r,1,2", bad_value], "edges.csv:6: expected 3 fields, got 4"),
    ):
        path.write_text(GOOD_ROWS + "\n".join(["p,q,1", "\n".join(rows), "y,z,zero"]) + "\n")
        for read in (read_edge_list, reference_read_edge_list):
            with pytest.raises(TableFormatError) as exc:
                read(path)
            assert str(exc.value).endswith(expected)


@pytest.mark.parametrize(
    "read, header, bad_value, message",
    [
        (read_score_table, "institution,a,b", "i2,1.0,", "missing value in column 'b'"),
        (read_correlation_csv, "variable,x,y", "y,0.2,one", "bad number 'one' in column 'y'"),
    ],
)
def test_tables_report_first_bad_row_in_file_order(tmp_path, read, header, bad_value, message):
    path = tmp_path / "table.csv"
    head = f'{header}\n"i\n1",1.0,2.0\n'  # a quoted two-line field first
    path.write_text(head + f"{bad_value}\ni3,1.0\n")
    with pytest.raises(TableFormatError, match=rf"table\.csv:4: {message}$"):
        read(path)
    path.write_text(head + f"i3,1.0\n{bad_value}\n")
    with pytest.raises(TableFormatError, match=r"table\.csv:4: expected 3 fields, got 2$"):
        read(path)


def test_bad_value_is_reported_before_a_later_field_past_the_csv_limit(tmp_path):
    path = tmp_path / "edges.csv"
    huge = "x" * (csv.field_size_limit() + 1)
    path.write_text(f"source,target,weight\na,b,zero\n\nb,{huge},1\n")
    with pytest.raises(TableFormatError, match=r"edges\.csv:2: weight 'zero' is not an integer$"):
        read_edge_list(path)


SEAM_DEFECTS = [
    pytest.param(b"a,b,zero", "{line}: weight 'zero' is not an integer", id="bad-weight"),
    pytest.param(b"a, ,1", "{line}: empty institution id", id="empty-id"),
    pytest.param(b"a,b,1,1", "{line}: expected 3 fields, got 4", id="width"),
    pytest.param(
        b"a,%s,1" % (b"x" * (csv.field_size_limit() + 1)),
        f"{{line}}: field larger than field limit ({csv.field_size_limit()})",
        id="field-limit",
    ),
    pytest.param(b"a\xff,b,1", ": not valid UTF-8 (invalid start byte)", id="not-utf8"),
]


@pytest.mark.parametrize("row", [_BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS * 3 // 2])
@pytest.mark.parametrize("defect, message", SEAM_DEFECTS)
def test_edge_list_errors_at_block_seams(tmp_path, row, defect, message):
    # the last row of the first block, the first of the second, and one inside it
    path = tmp_path / "edges.csv"
    rows = [b"i%d,i%d,1" % (k, k + 1) for k in range(2 * _BLOCK_ROWS)]
    rows[row - 1] = defect
    rows[-1] = b"y,z,zero"  # a later bad value is not the one reported
    path.write_bytes(b"\n".join([b"source,target,weight", *rows]) + b"\n")
    with pytest.raises(CiteRankError) as exc:
        read_edge_list(path)
    assert str(exc.value) == f"{path}" + message.format(line=f":{row + 1}")
    rows[9] = b"p,q,-1"  # a bad value on an earlier row comes first
    path.write_bytes(b"\n".join([b"source,target,weight", *rows]) + b"\n")
    with pytest.raises(TableFormatError) as exc:
        read_edge_list(path)
    assert str(exc.value) == f"{path}:11: weight must be positive, got -1"


def test_edge_list_keeps_one_str_per_distinct_id(tmp_path):
    rng = np.random.default_rng(4)
    ids = [f"inst {k:04d}" for k in range(300)]
    rows = [f"{ids[i]},{ids[j]},{w + 1}" for i, j, w in rng.integers(0, 300, (3 * _BLOCK_ROWS, 3))]
    rows[5] = f" {ids[7]} ,{ids[8]},12"  # padding is stripped before ids are shared
    path = tmp_path / "edges.csv"
    path.write_text("\n".join(["source,target,weight", *rows]) + "\n")
    sources, targets, weights = read_edge_list(path)
    assert len({id(x) for x in sources + targets}) == len(set(sources + targets))
    assert (sources[5], targets[5], weights[5]) == (ids[7], ids[8], 12)


def test_edge_list_round_trip_at_benchmark_scale(tmp_path):
    rng = np.random.default_rng(10**5)
    awkward = ["a,b", 'say "hi"', "a\nb", "Zürich", "東京"]
    ids = sorted([f"inst {k:05d}" for k in range(3000)] + awkward)
    m = 100_000
    net = CitationNetwork.build(
        ids, rng.integers(0, len(ids), m), rng.integers(0, len(ids), m), rng.integers(1, 50, m)
    )
    path, ref_path = tmp_path / "edges.csv", tmp_path / "reference.csv"
    write_edge_list(net, path)
    reference_write_edge_list(net, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    sources, targets, weights = read_edge_list(path)
    assert len(sources) == net.n_edges > 95_000
    assert CitationNetwork.from_edges(sources, targets, weights) == net


def test_score_table_round_trip(tmp_path):
    table = ScoreTable(
        ("i1", "i2", "i3"),
        {"PUB": np.array([1.5, 2.0, 3.25]), "CNCI": np.array([0.0, 10.0, 5.5])},
    )
    path = tmp_path / "table.csv"
    rows = zip(table.institutions, *(map(fmt, col) for col in table.columns.values()))
    write_csv(path, ["institution", *table.column_names], rows)
    back = read_score_table(path)
    assert back.institutions == table.institutions
    assert back.column_names == table.column_names
    for name in table.column_names:
        assert np.array_equal(back.columns[name], table.columns[name])


def test_score_table_missing_value_forbidden(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("institution,a\ni1,1.0\ni2,\n")
    with pytest.raises(TableFormatError, match="missing value"):
        read_score_table(path)


def test_score_table_duplicate_columns_rejected(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("institution,a,a\ni1,1.0,2.0\n")
    with pytest.raises(TableFormatError, match="duplicate"):
        read_score_table(path)


def test_correlation_round_trip(tmp_path):
    matrix = np.array([[1.0, 0.25], [0.25, 1.0]])
    path = tmp_path / "corr.csv"
    write_correlation_csv(matrix, ("x", "y"), path)
    back, names = read_correlation_csv(path)
    assert names == ("x", "y")
    assert np.array_equal(back, matrix)


def test_correlation_rejects_label_mismatch(tmp_path):
    path = tmp_path / "corr.csv"
    path.write_text("variable,x,y\ny,1.0,0.2\nx,0.2,1.0\n")
    with pytest.raises(TableFormatError, match="labels"):
        read_correlation_csv(path)
