import csv
import io
import random

import numpy as np
import pytest

from citerank import CitationNetwork, ScoreTable
from citerank.errors import TableFormatError
from citerank.fileio import (
    fmt,
    read_correlation_csv,
    read_edge_list,
    read_score_table,
    write_correlation_csv,
    write_csv,
    write_edge_list,
)

from conftest import weight_dict


def test_fmt_15_significant_digits():
    assert fmt(1 / 3) == "0.333333333333333"
    assert fmt(7) == "7"
    assert fmt(np.float64(2.5)) == "2.5"


def test_edge_list_round_trip(tmp_path):
    net = CitationNetwork.from_edges([("b", "a", 2), ("a", "b", 7), ("a", "c", 1)])
    path = tmp_path / "edges.csv"
    write_edge_list(net, path)
    back = CitationNetwork.from_edges(read_edge_list(path))
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
    nets = [CitationNetwork.from_edges(r) for r in (rows, shuffled)]
    for name in ("source", "target", "weight"):
        assert np.array_equal(getattr(nets[0], name), getattr(nets[1], name))
    assert nets[0].node_ids == nets[1].node_ids
    assert nets[0] == nets[1]
    assert nets[0] != CitationNetwork.from_edges(rows[1:])
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
