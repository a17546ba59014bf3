"""CSV and JSON readers/writers for every file format the CLI speaks.

All numeric output is printed with 15 significant digits and rows are
emitted in a fixed order, so identical inputs always produce byte-identical
files.

The CSV readers read a file once, in blocks of rows, and check each block
as it comes, so an error names the line of the first bad row in the file.
read_edge_list reads an edge list with no quote, which is what
write_edge_list writes unless an id needs quoting, as bytes through
_edgescan: it finds the separators of each block with numpy and decodes
each distinct id and weight spelling once. Any other file, and any file it
cannot read that way, it reads through csv from the start. Either way it
returns each distinct id once, the id columns as int32 codes into them and
the weights as int64. read_score_table and read_correlation_csv turn each
block's cells into float64 as they read it.
"""

from __future__ import annotations

import csv
import json
from array import array
from contextlib import closing
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


def _read_rows(path):
    """Yield a CSV's stripped header, then its rows in blocks of up to _BLOCK_ROWS.

    A block is the file line each row ends on, as csv counts lines, and its
    stripped fields, one list per column. Blank rows are skipped; every
    other row must have as many fields as the header. A row of another
    width, a field past csv.field_size_limit() or bytes that are not UTF-8
    raise once the rows before it were yielded, so a caller that checks
    each block as it comes reports a bad value on an earlier line first.
    """
    lines, fields, error = [], [], None
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [field.strip() for field in next(reader, [])]
            yield header
            for row in reader:
                if len(row) == len(header):
                    lines.append(reader.line_num)
                    fields += row
                elif row:
                    error = TableFormatError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                    break
                if len(lines) == _BLOCK_ROWS:
                    yield lines, _columns(fields, len(header))
                    lines, fields = [], []
        except csv.Error as exc:  # a field past csv.field_size_limit()
            error = TableFormatError(f"{path}:{reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            error = EncodingError(path, exc)
    if lines:
        yield lines, _columns(fields, len(header))
    if error is not None:
        raise error


def _columns(fields: list[str], width: int) -> list[list[str]]:
    fields = list(map(str.strip, fields))
    return [fields[k::width] for k in range(width)]


def _raise_at(path, lines: Sequence[int], columns: Sequence[list[str]], rule) -> None:
    """Raise a TableFormatError, with its file line, for the first row of a block that rule(*fields) rejects."""
    for line, row in zip(lines, zip(*columns)):
        try:
            rule(*row)
        except ValueError as exc:
            raise TableFormatError(f"{path}:{line}: {exc}") from None


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


def _edge_row(src: str, dst: str, raw_w: str) -> None:
    """ValueError saying why a row of stripped edge-list fields is not an edge, checking its weight first."""
    _edge_weight(raw_w)
    if not src or not dst:
        raise ValueError("empty institution id")


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
    ids, parsed = numbering("nodes"), {}  # each weight spelling is parsed once
    sources, targets, weights = array("i"), array("i"), array("q")
    with closing(_read_rows(path)) as blocks:
        if next(blocks) != ["source", "target", "weight"]:
            raise TableFormatError(f"{path}: expected header 'source,target,weight'")
        for lines, columns in blocks:
            src, dst, raw = columns
            try:
                parsed.update((w, _edge_weight(w)) for w in set(raw).difference(parsed))
                if not (all(src) and all(dst)):
                    raise ValueError
            except ValueError:
                _raise_at(path, lines, columns, _edge_row)
            sources.extend(map(ids.__getitem__, src))
            targets.extend(map(ids.__getitem__, dst))
            weights.extend(map(parsed.__getitem__, raw))
    return list(ids), np.frombuffer(sources, np.intc), np.frombuffer(targets, np.intc), np.frombuffer(weights, np.int64)


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
    with closing(_read_rows(path)) as blocks:
        header = next(blocks)
        if len(header) < 2 or header[0] != label:
            raise TableFormatError(f"{path}: expected header '{label},<column>,...'")
        names = header[1:]
        if len(set(names)) != len(names):
            raise TableFormatError(f"{path}: duplicate column names")

        def rule(row_label, *cells):
            if not row_label:
                raise ValueError(f"empty {label} id")
            for name, cell in zip(names, cells):
                if not cell:
                    raise ValueError(f"missing value in column {name!r}")
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"bad number {cell!r} in column {name!r}") from None

        labels: list[str] = []
        values = [array("d") for _ in names]
        for lines, (row_labels, *cells) in blocks:
            try:
                for column, part in zip(values, cells):
                    column.extend(map(float, part))
                if not all(row_labels):
                    raise ValueError
            except ValueError:
                _raise_at(path, lines, [row_labels, *cells], rule)
            labels += row_labels
    return names, labels, [np.frombuffer(column, np.float64) for column in values]


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
    if isinstance(obj, (float, np.floating)):
        return float(format(float(obj), ".15g"))
    if isinstance(obj, np.ndarray):
        return [_round15(v) for v in obj.tolist()]
    return obj


def write_json(obj: Mapping, path) -> None:
    """Deterministic JSON: sorted keys, floats at 15 significant digits."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_round15(dict(obj)), handle, indent=2, sort_keys=True)
        handle.write("\n")
