"""CSV and JSON readers/writers for every file format the CLI speaks.

All numeric output is printed with 15 significant digits and rows are
emitted in a fixed order, so identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError, TableFormatError
from .network import INT64_MAX, CitationNetwork
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


def _read_rows(path, width: int | None = None) -> Iterator:
    """Yield the stripped header, then (file line number, stripped fields) per non-blank row.

    Every row must have `width` fields, by default as many as the header.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [field.strip() for field in next(reader, [])]
        yield header
        width = width or len(header)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise TableFormatError(
                    f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}"
                )
            yield reader.line_num, [field.strip() for field in row]


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def read_edge_list(path) -> list[tuple[str, str, int]]:
    """Read a `source,target,weight` CSV into edge triples."""
    rows = _read_rows(path, width=3)
    if next(rows)[:3] != ["source", "target", "weight"]:
        raise TableFormatError(f"{path}: expected header 'source,target,weight'")
    edges: list[tuple[str, str, int]] = []
    for line_no, (src, dst, raw_w) in rows:
        try:
            w = int(raw_w)
        except ValueError:
            raise TableFormatError(f"{path}:{line_no}: weight {raw_w!r} is not an integer") from None
        if w <= 0:
            raise TableFormatError(f"{path}:{line_no}: weight must be positive, got {w}")
        if w > INT64_MAX:
            raise TableFormatError(f"{path}:{line_no}: weight {w} is beyond the int64 range")
        if not src or not dst:
            raise TableFormatError(f"{path}:{line_no}: empty institution id")
        edges.append((src, dst, w))
    return edges


def write_edge_list(net: CitationNetwork, path) -> None:
    """`source,target,weight` rows sorted by (source id, target id)."""
    n = net.n_nodes
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=net.node_ids.__getitem__)] = np.arange(n)
    order = np.argsort(rank[net.source] * n + rank[net.target])  # keys are distinct
    ids = np.array(net.node_ids, dtype=object)
    rows = zip(
        ids[net.source[order]].tolist(), ids[net.target[order]].tolist(), net.weight[order].tolist()
    )
    write_csv(path, ["source", "target", "weight"], rows)


def write_nodes_csv(net: CitationNetwork, path, in_degree, centrality) -> None:
    """`institution,in_degree,degree_centrality` rows sorted by institution id."""
    order = sorted(range(net.n_nodes), key=net.node_ids.__getitem__)
    rows = ([net.node_ids[k], int(in_degree[k]), fmt(centrality[k])] for k in order)
    write_csv(path, ["institution", "in_degree", "degree_centrality"], rows)


def write_distribution_csv(pairs: Sequence[tuple[float, float]], path) -> None:
    """Write (value, probability) pairs as a `value,probability` CSV."""
    write_csv(path, ["value", "probability"], ([fmt(v), fmt(p)] for v, p in pairs))


def write_ranking_csv(path, node_ids: Sequence[str], scores, normalized) -> None:
    """Ranked scores, descending; ties broken lexicographically by id."""
    order = sorted(range(len(node_ids)), key=lambda k: (-scores[k], node_ids[k]))
    rows = (
        [rank, node_ids[k], fmt(scores[k]), fmt(normalized[k])]
        for rank, k in enumerate(order, start=1)
    )
    write_csv(path, ["rank", "institution", "pagerank_score", "normalized_score"], rows)


# ---------------------------------------------------------------------------
# Score tables
# ---------------------------------------------------------------------------


def read_score_table(path) -> ScoreTable:
    """Read an `institution,<column>,...` CSV; every cell must be present."""
    rows = _read_rows(path)
    header = next(rows)
    if len(header) < 2 or header[0] != "institution":
        raise TableFormatError(f"{path}: expected header 'institution,<column>,...'")
    names = header[1:]
    if len(set(names)) != len(names):
        raise TableFormatError(f"{path}: duplicate column names")
    institutions: list[str] = []
    values: list[list[float]] = [[] for _ in names]
    for line_no, (inst, *cells) in rows:
        if not inst:
            raise TableFormatError(f"{path}:{line_no}: empty institution id")
        institutions.append(inst)
        for name, column, cell in zip(names, values, cells):
            if not cell:
                raise TableFormatError(f"{path}:{line_no}: missing value in column {name!r}")
            try:
                column.append(float(cell))
            except ValueError:
                raise TableFormatError(
                    f"{path}:{line_no}: bad number {cell!r} in column {name!r}"
                ) from None
    try:
        return ScoreTable(tuple(institutions), dict(zip(names, values)))
    except InputError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Correlation matrices and loadings
# ---------------------------------------------------------------------------


def read_correlation_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a labeled square matrix: header `variable,<v1>,...`, one row per variable."""
    rows = _read_rows(path)
    header = next(rows)
    if len(header) < 2 or header[0] != "variable":
        raise TableFormatError(f"{path}: expected header 'variable,<name>,...'")
    names = tuple(header[1:])
    matrix: list[list[float]] = []
    labels: list[str] = []
    for line_no, (label, *cells) in rows:
        labels.append(label)
        try:
            matrix.append([float(cell) for cell in cells])
        except ValueError:
            raise TableFormatError(f"{path}:{line_no}: non-numeric matrix entry") from None
    if tuple(labels) != names:
        raise TableFormatError(f"{path}: row labels must match column order {names}")
    return np.array(matrix), names


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
