import codecs
import csv
import io
import random
import sys
import tracemalloc

import numpy as np
import pytest

from citerank import CitationNetwork, ScoreTable
from citerank import _edgescan, network
from citerank._edgescan import _BLOCK_BYTES, scan_edge_list
from citerank.errors import CiteRankError, EncodingError, InputError, TableFormatError
from citerank.network import INT64_MAX
from citerank.fileio import (
    _BLOCK_ROWS,
    _read_edge_csv,
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


def _coded_rows(ids, sources, targets, weights) -> list[tuple[str, str, int]]:
    """read_edge_list's columns as (source, target, weight) triples.

    Checks its promise first: the ids are stripped and distinct, so fields
    that strip alike share a code, and every code is in range(len(ids)).
    """
    assert len(set(ids)) == len(ids) and all(x == x.strip() for x in ids)
    for column in (sources, targets):
        assert column.dtype == np.int32 and column.size == weights.size
        assert ((0 <= column) & (column < len(ids))).all()
    return [(ids[i], ids[j], w) for i, j, w in zip(sources.tolist(), targets.tolist(), weights.tolist())]


def _read_network(path, extra_nodes=()) -> CitationNetwork:
    ids, sources, targets, weights = read_edge_list(path)
    return CitationNetwork.from_edges(sources, targets, weights, extra_nodes, ids=ids)


def test_edge_list_round_trip(tmp_path):
    net = CitationNetwork.from_edges(["b", "a", "a"], ["a", "b", "c"], [2, 7, 1])
    path = tmp_path / "edges.csv"
    write_edge_list(net, path)
    back = _read_network(path)
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
        outcome = _edge_list_outcome(_read_network, write_path)
        assert outcome == _edge_list_outcome(read_rows, write_path)

    check()


def _raw_edge_list_outcome(read, path):
    """The network a reader makes of a file, or its error; coded columns are checked by _coded_rows."""
    try:
        read_columns = read(path)
    except (TableFormatError, EncodingError) as exc:
        return str(exc)
    except UnicodeDecodeError as exc:  # the row-wise reference does not wrap it
        return str(EncodingError(path, exc))
    try:
        if read is _reference_columns:
            return CitationNetwork.from_edges(*read_columns)
        _coded_rows(*read_columns)
        ids, sources, targets, weights = read_columns
        return CitationNetwork.from_edges(sources, targets, weights, ids=ids)
    except CiteRankError as exc:  # a total weight beyond int64
        return str(exc)


def _reference_columns(path):
    return columns(reference_read_edge_list(path))


def test_edge_list_bytes_match_row_wise_reference(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ids = [b"a", b"b", b" a", b"a ", b"\ta", b"univ 00001", b"Z\xc3\xbcrich", b"\xe6\x9d\xb1\xe4\xba\xac",
           b"x" * 17, b"y" * 30 + b"\xc3\xa9", b"\xc2\xa0a"]
    weights = [b"1", b"1", b"2", b"12", b"07", b"+3", b"1_0", b" 4 ", b"\xd9\xa3", b"10000000000000000"]
    endings = [b"\n", b"\r\n"]
    headers = [b"source,target,weight", codecs.BOM_UTF8 + b"source,target,weight"]
    odd_ids = [b"", b" ", b'"a,b"', b'"q"', b'say "hi"', b"a\x00b", b"\xff", b"\xc3", b"a\rb", b"\xc2\x85"]
    odd_weights = [b"0", b"-1", b"9223372036854775807", b"9223372036854775808", b"x", b"", b"1.0", b"\xff"]
    odd_endings = [b"\r"]
    odd_headers = [b" source , target,weight", b"source,target", b"src,dst,w"]
    path = tmp_path / "edges.csv"

    def rows(ids, weights, endings, odd_rows):
        field = st.sampled_from(ids)
        row = st.one_of(
            st.tuples(field, field, st.sampled_from(weights)).map(b",".join),
            st.tuples(field, field, st.sampled_from(weights)).map(b",".join),
            st.sampled_from([b"", *odd_rows]),
        )
        return st.lists(st.tuples(row, st.sampled_from(endings)), max_size=12)

    clean = st.tuples(st.sampled_from(headers), rows(ids, weights, endings, []))
    odd = st.tuples(
        st.sampled_from(headers + odd_headers),
        # whitespace-only lines are rows of one field; then rows of two and four fields
        rows(ids + odd_ids, weights + odd_weights, endings + odd_endings, [b" ", b"\t", b"a,b", b"a,b,1,2"]),
    )

    @hypothesis.settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @hypothesis.given(st.one_of(clean, odd), st.booleans())
    def check(drawn, last_ending):
        head, lines = drawn
        data = head + b"\n" + b"".join(row + ending for row, ending in lines)
        if lines and not last_ending:
            data = data[: -len(lines[-1][1])]
        path.write_bytes(data)
        outcome = _raw_edge_list_outcome(read_edge_list, path)
        assert outcome == _raw_edge_list_outcome(_read_edge_csv, path)
        # the reference keeps a BOM, and Python 3.10's csv rejects NUL with an error of its own
        if not data.startswith(codecs.BOM_UTF8) and (b"\0" not in data or sys.version_info >= (3, 11)):
            assert outcome == _raw_edge_list_outcome(_reference_columns, path)

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


# rows of 16 bytes with their \n after a 21-byte header: row k starts at byte 21 + 16 * k,
# so the row that starts 16 bytes before the end of the bulk scan's first block is this one
BYTE_SEAM_ROW = _BLOCK_BYTES // 16


@pytest.mark.parametrize("row", [_BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS * 3 // 2, BYTE_SEAM_ROW])
@pytest.mark.parametrize("defect, message", SEAM_DEFECTS)
def test_edge_list_errors_at_block_seams(tmp_path, row, defect, message):
    # the last row of the first block of rows, the first of the second, one inside it,
    # and one that the end of the first block of bytes cuts in two
    path = tmp_path / "edges.csv"
    rows = [b"i%05d,i%05d,1" % (k, k + 1) for k in range(BYTE_SEAM_ROW + _BLOCK_ROWS)]
    rows[row - 1] = b" " * 14 + defect if row == BYTE_SEAM_ROW else defect  # the padding is stripped
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
    rows[5] = f" {ids[7]} ,{ids[8]},12"  # padding is stripped before ids are coded
    rows[6] = f"{ids[7]},{ids[8]}  ,3"
    path = tmp_path / "edges.csv"
    path.write_text("\n".join(["source,target,weight", *rows]) + "\n")
    for read in (read_edge_list, _read_edge_csv):
        ids_read, sources, targets, weights = read(path)
        assert _coded_rows(ids_read, sources, targets, weights)[5:7] == [(ids[7], ids[8], 12), (ids[7], ids[8], 3)]
        assert sources[5] == sources[6] and targets[5] == targets[6]


def _edge_list_across_byte_seam(rows: list[bytes], at: int, ending: bytes) -> bytes:
    """An edge list whose rows[0] holds the end of the bulk scan's first block `at` bytes in."""
    header = b"source,target,weight" + ending
    gap = _BLOCK_BYTES - at  # bytes of the rows before rows[0]
    filler = []
    while gap > 64:
        filler.append(b"u%05d,u%05d,1" % (len(filler) % 97, len(filler) * 7 % 97) + ending)
        gap -= len(filler[-1])
    last = b"u00000,u00001,1" + ending
    filler.append(b"u00000,u00001," + b"0" * (gap - len(last)) + b"1" + ending)  # 0...01 pads it to fit
    return header + b"".join(filler) + b"".join(row + ending for row in rows)


@pytest.mark.parametrize(
    "rows, at, ending",
    [
        pytest.param([b"left,right,3"], 6, b"\n", id="row"),
        pytest.param([b"left,right,3"], len(b"left,right,3\r"), b"\r\n", id="crlf"),
        pytest.param(["Zürich,東京大学,2".encode(), "東京大学,Zürich,5".encode()], 2, b"\n", id="utf8-2"),
        pytest.param(["Zürich,東京大学,2".encode()], 9, b"\r\n", id="utf8-3"),
        pytest.param([b"left,right,3", b'"u00003",q,4'], 6, b"\n", id="quote-in-last-block"),
    ],
)
def test_edge_list_keeps_one_str_per_distinct_id_across_byte_blocks(tmp_path, rows, at, ending):
    path = tmp_path / "edges.csv"
    path.write_bytes(_edge_list_across_byte_seam(rows, at, ending))
    assert (scan_edge_list(path) is None) == any(b'"' in row for row in rows)
    assert _coded_rows(*read_edge_list(path)) == reference_read_edge_list(path)


LONG_A, LONG_B = b"aaaaaaaa" + b"A" + b"zzzzzzzz", b"aaaaaaaa" + b"B" + b"zzzzzzzz"  # equal but in the middle


def _colliding_edge_list(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(_edgescan, "_MIX", np.int64(0))  # every field hashes to 0
    monkeypatch.setattr(_edgescan, "_BLOCK_BYTES", 80)
    path = tmp_path / "edges.csv"
    path.write_bytes(b"\n".join([b"source,target,weight", *rows]) + b"\n")
    return path


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([b"a,b,1", b"b,a,1"], id="in-a-block"),
        pytest.param([LONG_A + b"," + LONG_A + b",1", LONG_B + b"," + LONG_B + b",1"], id="long-in-a-block"),
    ],
)
def test_edge_list_fields_whose_hashes_collide_are_read_through_csv(tmp_path, monkeypatch, rows):
    path = _colliding_edge_list(tmp_path, monkeypatch, rows)
    assert scan_edge_list(path) is None
    assert _coded_rows(*read_edge_list(path)) == reference_read_edge_list(path)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([b"a,a,1"] * 13 + [b"b,b,1"] * 13, id="across-blocks"),  # 13 rows of 6 bytes a block
        pytest.param([LONG_A + b"," + LONG_A + b",1"] * 2 + [LONG_B + b"," + LONG_B + b",1"] * 2,
                     id="long-across-blocks"),  # 2 rows of 38 bytes a block
    ],
)
def test_edge_list_fields_whose_hashes_collide_across_blocks_are_read_in_bulk(tmp_path, monkeypatch, rows):
    # each block groups equal fields only, and the file-wide table is keyed by bytes, not by hash
    path = _colliding_edge_list(tmp_path, monkeypatch, rows)
    assert _coded_rows(*scan_edge_list(path)) == reference_read_edge_list(path)
    assert _coded_rows(*read_edge_list(path)) == reference_read_edge_list(path)


def _benchmark_scale_network(ids: list[str]) -> CitationNetwork:
    rng = np.random.default_rng(10**5)
    m = 100_000
    return CitationNetwork.build(
        ids, rng.integers(0, len(ids), m), rng.integers(0, len(ids), m), rng.integers(1, 50, m)
    )


PLAIN_IDS = [f"inst {k:05d}" for k in range(3000)]
AWKWARD_IDS = sorted(PLAIN_IDS + ["a,b", 'say "hi"', "a\nb", "Zürich", "東京"])


def test_edge_list_round_trip_at_benchmark_scale(tmp_path):
    net = _benchmark_scale_network(AWKWARD_IDS)
    path, ref_path = tmp_path / "edges.csv", tmp_path / "reference.csv"
    write_edge_list(net, path)
    reference_write_edge_list(net, ref_path)
    assert path.read_bytes() == ref_path.read_bytes()
    ids, sources, targets, weights = read_edge_list(path)
    assert len(sources) == net.n_edges > 95_000
    assert CitationNetwork.from_edges(sources, targets, weights, ids=ids) == net


def test_edge_list_matches_row_wise_reference_at_benchmark_size(tmp_path):
    # 10^5 rows over 1,200 ids, each also written padded; read in bulk, then,
    # with one id quoted, through csv; the ids of the second shape are over
    # 16 bytes, so the bulk read checks their middle words in every block
    for shape in ("inst {:04d}", "university of place {:05d}"):
        rng = np.random.default_rng(26)
        ids = [shape.format(k) for k in range(1200)]
        spellings = ids + [f" {x}" for x in ids[::2]] + [f"{x}  " for x in ids[1::2]]
        src, dst = rng.integers(0, len(spellings), (2, 10**5)).tolist()
        weights = rng.integers(1, 50, 10**5).tolist()
        rows = [f"{spellings[i]},{spellings[j]},{w}" for i, j, w in zip(src, dst, weights)]
        extra = ["zz in no edge", ids[5], "aa in no edge", "zz in no edge", ids[0]]  # two endpoints; one id twice
        path = tmp_path / "edges.csv"
        for quoted in (False, True):
            if quoted:
                rows[7] = f'"{ids[3]}",{ids[4]},2'
            path.write_text("\n".join(["source,target,weight", *rows]) + "\n")
            assert (scan_edge_list(path) is None) == quoted
            expected = reference_from_edges(reference_read_edge_list(path), extra)
            assert expected.n_nodes == 1202 and expected.n_edges > 95_000
            assert _read_network(path, extra) == expected


@pytest.mark.parametrize("quote", [b"", b'"'], ids=["bulk", "csv"])
def test_edge_list_past_the_index_limit_is_an_input_error(tmp_path, monkeypatch, quote):
    monkeypatch.setattr(network, "INDEX_LIMIT", 3)  # codes are 32-bit positions
    path = tmp_path / "edges.csv"
    path.write_bytes(b"source,target,weight\na,b,1\nc,%sd%s,1\n" % (quote, quote))
    with pytest.raises(InputError, match="more than 3 nodes: positions are 32-bit"):
        read_edge_list(path)
    path.write_bytes(b"source,target,weight\na,b,1\nc,%sb%s,1\n" % (quote, quote))
    assert _coded_rows(*read_edge_list(path)) == [("a", "b", 1), ("c", "b", 1)]


@pytest.mark.parametrize(
    "ids, bare_cr",
    [(PLAIN_IDS, False), (AWKWARD_IDS, False), (PLAIN_IDS, True)],
    ids=["bulk", "csv", "bare-cr"],
)
def test_edge_list_read_holds_a_bounded_number_of_blocks(tmp_path, ids, bare_cr):
    path = tmp_path / "edges.csv"
    write_edge_list(_benchmark_scale_network(ids), path)
    if bare_cr:  # rows end in a bare \r after a \r\n header: csv reads it, the scan gives up in a block or two
        header, rows = path.read_bytes().split(b"\r\n", 1)
        path.write_bytes(header + b"\r\n" + rows.replace(b"\r\n", b"\r"))
    assert (scan_edge_list(path) is None) == (ids is AWKWARD_IDS or bare_cr)
    tracemalloc.start()
    try:
        ids_read, sources, targets, weights = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sources.nbytes + targets.nbytes + weights.nbytes
    returned += sys.getsizeof(ids_read) + sum(map(sys.getsizeof, ids_read))
    assert len(sources) > 95_000 and path.stat().st_size > 16 * _BLOCK_BYTES
    assert peak <= returned + 16 * _BLOCK_BYTES
    assert _coded_rows(ids_read, sources, targets, weights) == reference_read_edge_list(path)


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
