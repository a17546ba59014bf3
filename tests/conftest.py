import csv
import json
from collections import Counter

import numpy as np
import pytest

from citerank import CitationNetwork, DanglingPolicy, PageRankConfig, PublicationRecord
from citerank.errors import CiteRankError, EmptyNetworkError, InputError, ParseError, TableFormatError
from citerank.ingest import ParseIssue, ParseResult
from citerank.network import INT64_MAX

ORACLE_MAX_NODES = 200


class OracleSizeError(CiteRankError):
    """The dense reference solver refuses networks above its size cap."""


def build_from_dict(node_ids, weights) -> CitationNetwork:
    """CitationNetwork.build from a {(source index, target index): weight} dict."""
    pairs = list(weights.items())
    return CitationNetwork.build(
        node_ids,
        [i for (i, _j), _w in pairs],
        [j for (_i, j), _w in pairs],
        [w for _pair, w in pairs],
    )


def weight_dict(net: CitationNetwork) -> dict[tuple[int, int], int]:
    """{(source index, target index): weight} in the network's (source, target) order."""
    pairs = zip(net.source.tolist(), net.target.tolist())
    return dict(zip(pairs, net.weight.tolist()))


def dense(net: CitationNetwork) -> np.ndarray:
    """Dense int64 weight matrix of a network; for small networks and oracles."""
    mat = np.zeros((net.n_nodes, net.n_nodes), dtype=np.int64)
    mat[net.source, net.target] = net.weight
    return mat


def pagerank_oracle(net: CitationNetwork, cfg: PageRankConfig | None = None) -> np.ndarray:
    """Dense direct solve of the PageRank fixed point; test reference only.

    Builds the full N x N transition matrix under the same dangling policy
    and solves the linear system exactly. Refuses networks with more than
    ORACLE_MAX_NODES nodes.
    """
    if cfg is None:
        cfg = PageRankConfig()
    n = net.n_nodes
    if n == 0:
        raise EmptyNetworkError("cannot compute PageRank of an empty network")
    if n > ORACLE_MAX_NODES:
        raise OracleSizeError(f"dense oracle capped at {ORACLE_MAX_NODES} nodes, got {n}")
    weights = dense(net).astype(np.float64)
    out_sum = weights.sum(axis=1)
    trans = np.zeros((n, n))
    for i in range(n):
        if out_sum[i] > 0:
            trans[:, i] = weights[i, :] / out_sum[i]
        elif cfg.dangling_policy is DanglingPolicy.UNIFORM:
            trans[:, i] = 1.0 / n
    d = cfg.damping
    rhs = np.full(n, (1.0 - d) / n)
    return np.linalg.solve(np.eye(n) - d * trans, rhs)


@pytest.fixture
def three_node_net() -> CitationNetwork:
    """A -> B, C -> B, B -> C with unit weights."""
    return CitationNetwork.from_edges(["a", "c", "b"], ["b", "b", "c"], [1, 1, 1])


@pytest.fixture
def cycle3() -> CitationNetwork:
    return CitationNetwork.from_edges(["a", "b", "c"], ["b", "c", "a"], [1, 1, 1])


def make_random_network(rng: np.random.Generator, n: int, edge_prob: float = 0.2,
                        max_weight: int = 9) -> CitationNetwork:
    """Random directed network; leaves some nodes dangling by construction."""
    weights = {}
    for i in range(n):
        if rng.random() < 0.25:
            continue  # dangling node: no out-edges
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                weights[(i, j)] = int(rng.integers(1, max_weight + 1))
    ids = [f"n{i:03d}" for i in range(n)]
    return build_from_dict(ids, weights)


# ---------------------------------------------------------------------------
# Row-wise edge-list references: fileio and from_edges work on columns and
# must give the same bytes, networks and errors as these per-row versions
# ---------------------------------------------------------------------------


def columns(edges) -> tuple[list, list, list]:
    """The (sources, targets, weights) columns of (source, target, weight) triples."""
    return [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges]


def reference_from_edges(edges, extra_nodes=()) -> CitationNetwork:
    """CitationNetwork from (source id, target id, weight) triples, one edge at a time."""
    sources, targets, weights = columns(list(edges))
    ordered = tuple(sorted(set(sources).union(targets, extra_nodes)))
    index = dict(zip(ordered, range(len(ordered))))
    return CitationNetwork.build(
        ordered, [index[s] for s in sources], [index[t] for t in targets], weights
    )


def reference_read_edge_list(path) -> list[tuple[str, str, int]]:
    """Read a `source,target,weight` CSV row by row into edge triples."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if [field.strip() for field in next(reader, [])][:3] != ["source", "target", "weight"]:
            raise TableFormatError(f"{path}: expected header 'source,target,weight'")
        edges = []
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
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


def reference_write_edge_list(net: CitationNetwork, path) -> None:
    """Write `source,target,weight` rows sorted by (source id, target id) with csv.writer."""
    ids = net.node_ids
    rows = sorted(
        (ids[i], ids[j], w)
        for i, j, w in zip(net.source.tolist(), net.target.tolist(), net.weight.tolist())
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        out = csv.writer(handle)
        out.writerow(["source", "target", "weight"])
        out.writerows(rows)


# ---------------------------------------------------------------------------
# Per-record ingest references: parse_records fills a columnar RecordTable,
# and filter_records, apply_threshold and build_network work on its arrays;
# they must give the same issues, records, retained sets and networks as
# these versions, which handle one record and one reference at a time
# ---------------------------------------------------------------------------


def _reference_institutions(names, what: str) -> tuple[str, ...]:
    """Distinct canonical ids of a JSON affiliation list, in first-seen order."""
    if not isinstance(names, list):
        raise ValueError(f"{what} must be a list of strings")
    ids: list[str] = []
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{what} must be a list of strings")
        canon = name.strip().casefold()
        if not canon:
            continue
        try:
            canon.encode()
        except UnicodeEncodeError as exc:
            raise ValueError(f"{what} must be valid Unicode: {name!r} ({exc.reason})") from None
        if canon not in ids:
            ids.append(canon)
    return tuple(ids)


def _reference_parse_line(line: str) -> PublicationRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer literal past the interpreter's digit limit
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError as exc:  # nested deeper than the recursion limit
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    pub_id = obj.get("pub_id")
    if not isinstance(pub_id, str) or not pub_id.strip():
        raise ValueError("pub_id must be a non-empty string")
    year = obj.get("year")
    if not isinstance(year, int) or isinstance(year, bool):
        raise ValueError("year must be an integer")
    category = obj.get("category")
    if not isinstance(category, str) or not category.strip():
        raise ValueError("category must be a non-empty string")
    affiliations = _reference_institutions(obj.get("affiliations"), "affiliations")
    if not affiliations:
        raise ValueError("affiliations must be non-empty")
    raw_refs = obj.get("references")
    if not isinstance(raw_refs, list):
        raise ValueError("references must be a list")
    references = []
    for ref in raw_refs:
        if not isinstance(ref, dict):
            raise ValueError("each reference must be an object")
        ref_id = ref.get("pub_id")
        if ref_id is not None and not isinstance(ref_id, str):
            raise ValueError("reference pub_id must be a string or null")
        ref_affiliations = _reference_institutions(ref.get("affiliations"), "reference affiliations")
        references.append((ref_id if ref_id is None else ref_id.strip(), ref_affiliations))
    return PublicationRecord(pub_id.strip(), year, category.strip(), affiliations, tuple(references))


def reference_parse_records(stream, strict: bool = False) -> ParseResult:
    """ParseResult whose records are a list of PublicationRecord, parsed line by line.

    A reference id, once trimmed, that names no parsed record reads as None,
    as it does in a RecordTable.
    """
    records: list[PublicationRecord] = []
    issues: list[ParseIssue] = []
    first_line_of: dict[str, int] = {}
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = _reference_parse_line(line)
        except ValueError as exc:
            message = str(exc)
        else:
            first = first_line_of.setdefault(record.pub_id, line_no)
            if first == line_no:
                records.append(record)
                continue
            message = f"duplicate pub_id {record.pub_id!r} (first seen on line {first})"
        if strict:
            raise ParseError(f"line {line_no}: {message}")
        issues.append(ParseIssue(line_no, message))
    pub_ids = {rec.pub_id for rec in records}
    records = [
        rec._replace(references=tuple(
            (ref_id if ref_id in pub_ids else None, affiliations)
            for ref_id, affiliations in rec.references
        ))
        for rec in records
    ]
    return ParseResult(records, issues)


def reference_filter_records(records, profile) -> list[PublicationRecord]:
    category = profile.category.strip().casefold()
    low, high = profile.year_range
    return [
        rec
        for rec in records
        if rec.category.strip().casefold() == category and low <= rec.year <= high
    ]


def reference_apply_threshold(records, profile) -> set[str]:
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(rec.affiliations)
    return {inst for inst, n in counts.items() if n >= profile.publication_threshold}


def reference_build_network(records, retained: set[str], keep_self_loops: bool = False) -> CitationNetwork:
    """One weight-1 pair per (citing, cited) retained affiliation of each reference inside the set."""
    if not retained:
        raise InputError("retained institution set is empty; nothing to build")
    nodes = tuple(sorted(retained))
    index = {inst: k for k, inst in enumerate(nodes)}
    dataset_ids = {rec.pub_id for rec in records}
    sources: list[int] = []
    targets: list[int] = []
    for rec in records:
        citing = [index[a] for a in rec.affiliations if a in index]
        for ref_id, ref_affiliations in rec.references:
            if ref_id not in dataset_ids:
                continue
            for a in citing:
                for b in ref_affiliations:
                    if b in index and (keep_self_loops or a != index[b]):
                        sources.append(a)
                        targets.append(index[b])
    return CitationNetwork.build(nodes, sources, targets, [1] * len(sources))
