"""CSV and JSON readers/writers for every file format the CLI speaks.

All numeric output is printed with 15 significant digits and rows are
emitted in a fixed order, so identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import TableFormatError
from .network import INT64_MAX, CitationNetwork
from .scoring import ScoreTable

__all__ = [
    "fmt",
    "bundled_data",
    "read_edge_list",
    "write_edge_list",
    "write_nodes_csv",
    "write_distribution_csv",
    "write_ranking_csv",
    "read_score_table",
    "write_score_table",
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


def _writer(path):
    return open(path, "w", newline="", encoding="utf-8")


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def read_edge_list(path) -> list[tuple[str, str, int]]:
    """Read a `source,target,weight` CSV into edge triples."""
    edges: list[tuple[str, str, int]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["source", "target", "weight"]:
            raise TableFormatError(f"{path}: expected header 'source,target,weight'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise TableFormatError(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
            src, dst, raw_w = (field.strip() for field in row)
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
    order = net.id_order()
    ids = np.array(net.node_ids, dtype=object)
    rows = zip(
        ids[net.source[order]].tolist(), ids[net.target[order]].tolist(), net.weight[order].tolist()
    )
    with _writer(path) as handle:
        out = csv.writer(handle)
        out.writerow(["source", "target", "weight"])
        out.writerows(rows)


def write_nodes_csv(net: CitationNetwork, path, in_degree=None, centrality=None) -> None:
    with _writer(path) as handle:
        out = csv.writer(handle)
        header = ["institution"]
        if in_degree is not None:
            header.append("in_degree")
        if centrality is not None:
            header.append("degree_centrality")
        out.writerow(header)
        for idx in sorted(range(net.n_nodes), key=lambda k: net.node_ids[k]):
            row: list = [net.node_ids[idx]]
            if in_degree is not None:
                row.append(int(in_degree[idx]))
            if centrality is not None:
                row.append(fmt(centrality[idx]))
            out.writerow(row)


def write_distribution_csv(pairs: Sequence[tuple[float, float]], path) -> None:
    """Write (value, probability) pairs as a `value,probability` CSV."""
    with _writer(path) as handle:
        out = csv.writer(handle)
        out.writerow(["value", "probability"])
        for value, prob in pairs:
            out.writerow([fmt(value), fmt(prob)])


def write_ranking_csv(path, node_ids: Sequence[str], scores, normalized=None) -> None:
    """Ranked scores, descending; ties broken lexicographically by id."""
    order = sorted(range(len(node_ids)), key=lambda k: (-scores[k], node_ids[k]))
    with _writer(path) as handle:
        out = csv.writer(handle)
        header = ["rank", "institution", "pagerank_score"]
        if normalized is not None:
            header.append("normalized_score")
        out.writerow(header)
        for rank, idx in enumerate(order, start=1):
            row: list = [rank, node_ids[idx], fmt(scores[idx])]
            if normalized is not None:
                row.append(fmt(normalized[idx]))
            out.writerow(row)


# ---------------------------------------------------------------------------
# Score tables
# ---------------------------------------------------------------------------


def read_score_table(path, subject: str = "") -> ScoreTable:
    """Read an `institution,<column>...` CSV; every cell must be present."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0].strip() != "institution" or len(header) < 2:
            raise TableFormatError(f"{path}: expected header 'institution,<column>,...'")
        names = [h.strip() for h in header[1:]]
        if len(set(names)) != len(names):
            raise TableFormatError(f"{path}: duplicate column names")
        institutions: list[str] = []
        values: list[list[float]] = [[] for _ in names]
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TableFormatError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            inst = row[0].strip()
            if not inst:
                raise TableFormatError(f"{path}:{line_no}: empty institution id")
            institutions.append(inst)
            for k, cell in enumerate(row[1:]):
                cell = cell.strip()
                if not cell:
                    raise TableFormatError(
                        f"{path}:{line_no}: missing value in column {names[k]!r}"
                    )
                try:
                    values[k].append(float(cell))
                except ValueError:
                    raise TableFormatError(
                        f"{path}:{line_no}: bad number {cell!r} in column {names[k]!r}"
                    ) from None
    try:
        return ScoreTable(
            subject=subject,
            institutions=tuple(institutions),
            columns={name: np.array(col) for name, col in zip(names, values)},
        )
    except ValueError as exc:
        raise TableFormatError(f"{path}: {exc}") from exc


def write_score_table(table: ScoreTable, path) -> None:
    with _writer(path) as handle:
        out = csv.writer(handle)
        names = list(table.column_names)
        out.writerow(["institution"] + names)
        for idx, inst in enumerate(table.institutions):
            out.writerow([inst] + [fmt(table.columns[name][idx]) for name in names])


# ---------------------------------------------------------------------------
# Correlation matrices and loadings
# ---------------------------------------------------------------------------


def read_correlation_csv(path) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a labeled square matrix: header `variable,<v1>,...`, one row per variable."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0].strip() != "variable" or len(header) < 2:
            raise TableFormatError(f"{path}: expected header 'variable,<name>,...'")
        names = tuple(h.strip() for h in header[1:])
        rows: list[list[float]] = []
        labels: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TableFormatError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}"
                )
            labels.append(row[0].strip())
            try:
                rows.append([float(cell) for cell in row[1:]])
            except ValueError:
                raise TableFormatError(f"{path}:{line_no}: non-numeric matrix entry") from None
    if tuple(labels) != names:
        raise TableFormatError(f"{path}: row labels must match column order {names}")
    return np.array(rows), names


def write_correlation_csv(matrix: np.ndarray, names: Sequence[str], path) -> None:
    with _writer(path) as handle:
        out = csv.writer(handle)
        out.writerow(["variable"] + list(names))
        for idx, name in enumerate(names):
            out.writerow([name] + [fmt(x) for x in matrix[idx]])


def write_loadings_csv(variables: Sequence[str], loadings: np.ndarray, path) -> None:
    """`variable,component1,...` CSV of a loadings matrix."""
    n_comp = loadings.shape[1]
    with _writer(path) as handle:
        out = csv.writer(handle)
        out.writerow(["variable"] + [f"component{k + 1}" for k in range(n_comp)])
        for idx, name in enumerate(variables):
            out.writerow([name] + [fmt(x) for x in loadings[idx]])


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
