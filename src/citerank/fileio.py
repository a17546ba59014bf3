"""CSV and JSON readers/writers for every file format the CLI speaks.

All numeric output is printed with 15 significant digits and rows are
emitted in a fixed order, so identical inputs always produce byte-identical
files.

The CSV readers read rows in blocks. read_edge_list reads an edge list
with no quote, which is what write_edge_list writes unless an id needs
quoting, as bytes through _edgescan: it finds the separators of each block
with numpy and decodes each distinct id and weight spelling once. Any other
file, and any file it cannot read that way, it reads through csv from the
start, which gives every error its file line. Either way it returns each
distinct id once, the id columns as int32 codes into them and the weights
as int64. read_score_table and read_correlation_csv keep each cell as
read, as their cells seldom repeat, until the columns become float64.
"""

from __future__ import annotations

import csv
import json
from array import array
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EncodingError, InputError, TableFormatError
from .network import INT64_MAX, CitationNetwork, numbering
from .scoring import ScoreTable

__all__ = [
    "fmt",
    "bundled_data",
    "write_csv",
    "read_edge_list",
    "write_edge_list",
    "write_nodes_csv",
    "write_distribution_csv",
    "write_ranking_csv",
    "read_score_table",
    "read_correlation_csv",
    "write_correlation_csv",
    "write_loadings_csv",
    "write_json",
]

# CSV rows per block read or written: 4,096 raised the peak RSS of `build` by
# 0.2 MB on a 16k-edge network, and 1,024 writes as fast
_BLOCK_ROWS = 1024


def fmt(x) -> str:
    """Render a number with 15 significant digits (ints stay ints)."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return format(float(x), ".15g")


def bundled_data(name: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(__file__).parent / "data" / name


def write_csv(path, header: Sequence, rows: Iterable[Sequence], lineterminator="\r\n") -> None:
    """Write a header and rows as UTF-8 CSV, quoting fields per RFC 4180 where needed."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        sink = handle
        if lineterminator != "\r\n":
            # csv quotes only the characters of its own terminator, so a field
            # holding a bare \r would end the row early: end rows with \r\n,
            # which quotes both, and swap the ending on the way out
            sink = SimpleNamespace(write=lambda row: handle.write(row[:-2] + lineterminator))
        out = csv.writer(sink)
        out.writerow(header)
        out.writerows(rows)


def _read_rows(path, books: Sequence[dict] = ()) -> tuple[list[str], list, Exception | None]:
    """Read a CSV into its stripped header and one list of stripped fields per column.

    Blank rows are skipped; every other row must have as many fields as the
    header. Reading stops at the first row that has another width or cannot
    be read, and that row's error is returned, not raised: _check_rows
    reports a bad value on an earlier line first. Rows are split into the
    columns in blocks of _BLOCK_ROWS, so no per-row object outlives its
    block; column k < len(books) holds, as C ints, the codes books[k] gives its fields.
    """
    unread = header = None
    block: list[str] = []

    def flush():
        fields = list(map(str.strip, block))
        for k, column in enumerate(columns):
            part = fields[k :: len(columns)]
            column.extend(map(books[k].__getitem__, part) if k < len(books) else part)
        block.clear()

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [field.strip() for field in next(reader, [])]
            width = len(header)
            columns = [array("i") if k < len(books) else [] for k in range(width)]
            while unread is None:
                line = reader.line_num
                for row in islice(reader, _BLOCK_ROWS):
                    if len(row) == width:
                        block += row
                    elif row:
                        unread = TableFormatError(f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}")
                        break
                flush()
                if reader.line_num == line:  # the file is read to the end
                    break
        except csv.Error as exc:  # a field past csv.field_size_limit()
            unread = TableFormatError(f"{path}:{reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            unread = EncodingError(path, exc)
    if header is None:  # not even the header could be read
        raise unread
    flush()
    return header, columns, unread


def _check_rows(path, columns: Sequence[Iterable[str]], problem, unread: Exception | None) -> None:
    """Raise the first error in file order, if there is one.

    That is a TableFormatError, with its file line, for the first row for
    which problem(*fields) returns a message, or else `unread`, the error
    that stopped _read_rows.
    """
    for k, fields in enumerate(zip(*columns)):
        message = problem(*fields)
        if message:
            with open(path, newline="", encoding="utf-8-sig") as handle:
                reader = csv.reader(handle)
                next(reader, None)
                next(islice(filter(None, reader), k, None))  # the k-th non-blank row
                raise TableFormatError(f"{path}:{reader.line_num}: {message}")
    if unread is not None:
        raise unread


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def _edge_weight(text: str) -> int:
    """The weight a stripped field spells: an integer in 1..2**63 - 1, or ValueError saying why not."""
    try:
        w = int(text)
    except ValueError:
        raise ValueError(f"weight {text!r} is not an integer") from None
    if w <= 0:
        raise ValueError(f"weight must be positive, got {w}")
    if w > INT64_MAX:
        raise ValueError(f"weight {w} is beyond the int64 range")
    return w


def _edge_problem(src: str, dst: str, raw_w: str) -> str | None:
    try:
        _edge_weight(raw_w)
    except ValueError as exc:
        return str(exc)
    if not src or not dst:
        return "empty institution id"
    return None


def read_edge_list(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    r"""Read a `source,target,weight` CSV into the ids, sources, targets and weights from_edges takes.

    `ids` holds each distinct stripped id once, sources and targets are
    int32 codes into it, and weights are int64. A file that holds no
    quote, as write_edge_list writes when no id needs quoting, is read in
    bulk by _edgescan.scan_edge_list, which decodes and parses each
    distinct id or weight spelling once. The file is read again through
    csv, which reports each error with its file line, where a block has a
    quote, a NUL, a \r not followed by \n or bytes that are not UTF-8; a
    line that is neither blank nor three fields, or that is longer than a
    block of 128 KiB; a field longer than csv.field_size_limit(); an empty
    id or a weight that _edge_weight rejects; or where the header, after an
    optional BOM, is not exactly `source,target,weight`. Blank lines and
    \r\n line ends stay in bulk.
    """
    from . import _edgescan  # loads here, so commands that read no edge list do not compile it

    columns = _edgescan.scan_edge_list(path)
    return _read_edge_csv(path) if columns is None else columns


def _read_edge_csv(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """read_edge_list through csv: any file, and every error with its file line."""
    ids, spellings = numbering("nodes"), numbering("weight spellings")
    header, columns, unread = _read_rows(path, books=(ids, ids, spellings))
    if header != ["source", "target", "weight"]:
        raise TableFormatError(f"{path}: expected header 'source,target,weight'")
    sources, targets, codes = (np.frombuffer(column, np.intc) for column in columns)
    try:
        weights = np.array(list(map(_edge_weight, spellings)), np.int64)[codes]  # each spelling parsed once
        valid = "" not in ids
    except ValueError:
        valid = False
    if not valid or unread is not None:
        keys = [list(ids), list(ids), list(spellings)]  # the field of each code, by column
        _check_rows(path, [map(k.__getitem__, c) for k, c in zip(keys, columns)], _edge_problem, unread)
    return list(ids), sources, targets, weights


def _csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as write_csv writes it inside a row, quoted where needed."""
    out = csv.writer(SimpleNamespace(write=str))  # writerow returns what write returns: the row
    # a lone empty field would be written as "", so write a second field and cut it off
    return [out.writerow((value, ""))[:-3] for value in values]


def write_edge_list(net: CitationNetwork, path) -> None:
    """`source,target,weight` rows sorted by (source id, target id).

    Each id is quoted once, each block spells each of its distinct weights
    once, and rows are written in blocks, which keeps the file
    byte-identical to write_csv's without a full-length list of rows.
    """
    n = net.n_nodes
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=net.node_ids.__getitem__)] = np.arange(n)
    order = np.argsort(rank[net.source] * n + rank[net.target])  # keys are distinct
    ids = np.array([field + "," for field in _csv_fields(net.node_ids)], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write("source,target,weight\r\n")
        for start in range(0, order.size, _BLOCK_ROWS):
            block = order[start : start + _BLOCK_ROWS]
            weights = net.weight[block].tolist()
            spelling = {w: str(w) for w in set(weights)}
            rows = map(
                "".join,
                zip(ids[net.source[block]].tolist(), ids[net.target[block]].tolist(), map(spelling.get, weights)),
            )
            handle.write("\r\n".join(rows))
            handle.write("\r\n")


def write_nodes_csv(net: CitationNetwork, path, in_degree, centrality) -> None:
    """`institution,in_degree,degree_centrality` rows sorted by institution id."""
    order = sorted(range(net.n_nodes), key=net.node_ids.__getitem__)
    rows = ([net.node_ids[k], int(in_degree[k]), fmt(centrality[k])] for k in order)
    write_csv(path, ["institution", "in_degree", "degree_centrality"], rows)


def write_distribution_csv(pairs: Sequence[tuple[float, float]], path) -> None:
    """Write (value, probability) pairs as a `value,probability` CSV."""
    write_csv(path, ["value", "probability"], ([fmt(v), fmt(p)] for v, p in pairs))


def write_ranking_csv(path, node_ids: Sequence[str], scores, normalized) -> None:
    """Ranked scores, descending; ties broken lexicographically by id. Scores are written as fmt writes floats."""
    scores, normalized = np.asarray(scores, dtype=np.float64), np.asarray(normalized, dtype=np.float64)
    order = np.lexsort((np.array(node_ids, dtype=object), -scores))
    columns = ([format(x, ".15g") for x in column[order].tolist()] for column in (scores, normalized))
    rows = zip(range(1, order.size + 1), map(node_ids.__getitem__, order.tolist()), *columns)
    write_csv(path, ["rank", "institution", "pagerank_score", "normalized_score"], rows)


# ---------------------------------------------------------------------------
# Score tables
# ---------------------------------------------------------------------------


def _read_labeled(path, label: str) -> tuple[list[str], list[str], list[np.ndarray]]:
    """Column names, row labels and float64 columns of a `<label>,<column>,...` CSV."""
    header, columns, unread = _read_rows(path)
    if len(header) < 2 or header[0] != label:
        raise TableFormatError(f"{path}: expected header '{label},<column>,...'")
    names = header[1:]
    if len(set(names)) != len(names):
        raise TableFormatError(f"{path}: duplicate column names")

    def problem(row_label, *cells):
        if not row_label:
            return f"empty {label} id"
        for name, cell in zip(names, cells):
            if not cell:
                return f"missing value in column {name!r}"
            try:
                float(cell)
            except ValueError:
                return f"bad number {cell!r} in column {name!r}"
        return None

    labels, *cells = columns
    try:
        values = [
            np.fromiter(map(float, column), dtype=np.float64, count=len(column)) for column in cells
        ]
        valid = all(labels)
    except ValueError:
        valid = False
    if not valid or unread is not None:
        _check_rows(path, columns, problem, unread)
    return names, labels, values


def read_score_table(path) -> ScoreTable:
    """Read an `institution,<column>,...` CSV; every cell must be present."""
    names, institutions, values = _read_labeled(path, "institution")
    try:
        return ScoreTable(tuple(institutions), dict(zip(names, values)))
    except InputError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Correlation matrices and loadings
# ---------------------------------------------------------------------------


def read_correlation_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a labeled square matrix: header `variable,<v1>,...`, one row per variable."""
    names, labels, values = _read_labeled(path, "variable")
    if labels != names:
        raise TableFormatError(f"{path}: row labels must match column order {tuple(names)}")
    return np.column_stack(values), tuple(names)


def _labeled_matrix_csv(path, header: list[str], labels: Sequence[str], matrix) -> None:
    rows = ([name] + [fmt(x) for x in row] for name, row in zip(labels, matrix, strict=True))
    write_csv(path, header, rows)


def write_correlation_csv(matrix: np.ndarray, names: Sequence[str], path) -> None:
    _labeled_matrix_csv(path, ["variable"] + list(names), names, matrix)


def write_loadings_csv(variables: Sequence[str], loadings: np.ndarray, path) -> None:
    """`variable,component1,...` CSV of a loadings matrix."""
    header = ["variable"] + [f"component{k + 1}" for k in range(loadings.shape[1])]
    _labeled_matrix_csv(path, header, variables, loadings)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _round15(obj):
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".15g"))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round15(v) for v in obj.tolist()]
    return obj


def write_json(obj: Mapping, path) -> None:
    """Deterministic JSON: sorted keys, floats at 15 significant digits."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_round15(dict(obj)), handle, indent=2, sort_keys=True)
        handle.write("\n")
