"""Output checks that do not import citerank.

Every check returns a list of problems, empty when the output is right.
Files are parsed here with the csv and json modules; the references are a
sparse direct PageRank solve, scipy.stats and the generator's own recount.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.stats
from scipy.sparse.linalg import spsolve

PAGERANK_L1 = 1e-10
STATS_TOL = 1e-12
DAMPING = 0.85  # the CLI default, which the benchmark does not override


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def read_edges(path) -> dict[tuple[str, str], int]:
    rows = read_rows(path)
    if rows[0] != ["source", "target", "weight"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return {(s, t): int(w) for s, t, w in rows[1:]}


def in_citations(edges: dict[tuple[str, str], int]) -> dict[str, int]:
    cit: dict[str, int] = {}
    for (_s, t), w in edges.items():
        cit[t] = cit.get(t, 0) + w
    return cit


def sparse_pagerank(edges: dict[tuple[str, str], int], damping: float = DAMPING):
    """PageRank with uniform teleport and dangling redistribution, solved directly.

    With the dangling vector equal to the teleport vector the scores are
    x / sum(x) for (I - d P) x = 1, where P is the column-substochastic
    matrix of out-weight shares (Langville & Meyer, "Deeper Inside
    PageRank", Internet Math. 1(3), 2004).
    """
    nodes = sorted({s for s, _ in edges} | {t for _, t in edges})
    index = {node: k for k, node in enumerate(nodes)}
    src = np.array([index[s] for s, _ in edges], dtype=np.int64)
    dst = np.array([index[t] for _, t in edges], dtype=np.int64)
    weight = np.array(list(edges.values()), dtype=np.float64)
    n = len(nodes)
    out_sum = np.bincount(src, weights=weight, minlength=n)
    share = sp.csc_matrix((weight / out_sum[src], (dst, src)), shape=(n, n))
    x = spsolve(sp.identity(n, format="csc") - damping * share, np.ones(n))
    return nodes, x / x.sum()


def check_ranking(edges: dict[tuple[str, str], int], ranking_path) -> list[str]:
    rows = read_rows(ranking_path)
    if rows[0] != ["rank", "institution", "pagerank_score", "normalized_score"]:
        return [f"ranking.csv: unexpected header {rows[0]}"]
    body = rows[1:]
    scores = {row[1]: float(row[2]) for row in body}
    nodes, expected = sparse_pagerank(edges)
    problems = []
    if sorted(scores) != nodes or len(body) != len(nodes):
        return [f"ranking.csv ranks {len(body)} institutions, the edge list has {len(nodes)}"]
    l1 = float(np.abs(np.array([scores[v] for v in nodes]) - expected).sum())
    if not l1 <= PAGERANK_L1:
        problems.append(f"ranking.csv is {l1:.3e} L1 from the sparse direct solve")
    # ties at the printed 15 digits may differ in full precision, so only the
    # printed scores' order is checked, not the lexicographic tie-break
    printed = [float(row[2]) for row in body]
    if any(a < b for a, b in zip(printed, printed[1:])):
        problems.append("ranking.csv rows are not in descending score order")
    if [row[0] for row in body] != [str(k) for k in range(1, len(body) + 1)]:
        problems.append("ranking.csv ranks are not 1..N")
    return problems


def check_build(build_dir: Path, corpus) -> list[str]:
    """Compare `citerank build` outputs with the generator's recount."""
    problems = []
    summary = json.loads((build_dir / "summary.json").read_text())
    expected = {
        "nodes": len(corpus.nodes),
        "edges": len(corpus.edges),
        "citations": sum(corpus.edges.values()),
        "records_parsed": corpus.records_parsed,
        "records_used": corpus.records_used,
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            problems.append(f"summary.json {key} = {summary.get(key)}, recount {value}")
    if read_edges(build_dir / "edges.csv") != corpus.edges:
        problems.append("edges.csv differs from the recounted edges")
    nodes = [row[0] for row in read_rows(build_dir / "nodes.csv")[1:]]
    if nodes != corpus.nodes:
        problems.append(f"nodes.csv lists {len(nodes)} institutions, recount {len(corpus.nodes)}")
    issues_path = build_dir / "parse_issues.csv"
    issues = len(read_rows(issues_path)) - 1 if issues_path.exists() else 0
    if issues != corpus.issues:
        problems.append(f"parse_issues.csv has {issues} rows, {corpus.issues} lines are malformed")
    return problems


def check_synth(synth_dir: Path, stdout: str, nodes: int, cartel_size: int, boost: int) -> list[str]:
    """Check `citerank synth` outputs against its flags and its own report."""
    problems = []
    edges = read_edges(synth_dir / "edges.csv")
    width = len(str(nodes - 1))
    valid = {f"inst-{i:0{width}d}" for i in range(nodes)}
    if any(s not in valid or t not in valid or s == t for s, t in edges):
        problems.append("edges.csv has an unknown node id or a self-loop")
    members = json.loads((synth_dir / "manifest.json").read_text())["flags"]["cartel_members"]
    if len(set(members)) != cartel_size:
        problems.append(f"manifest names {len(set(members))} cartel members, not {cartel_size}")
    if any(edges.get((a, b), 0) < boost for a in members for b in members if a != b):
        problems.append(f"a cartel pair carries fewer than {boost} citations")
    reported = f"generated network: {nodes} nodes, {len(edges)} edges, {sum(edges.values())} citations"
    if reported not in stdout:
        problems.append(f"synth reported {stdout.strip()!r}, recount {reported!r}")
    return problems


def check_compare(report_path, table: dict[str, np.ndarray], col_a: str, col_b: str) -> list[str]:
    """Pearson and Spearman of `citerank compare` against scipy.stats."""
    report = json.loads(Path(report_path).read_text())
    a, b = table[col_a], table[col_b]
    pearson = scipy.stats.pearsonr(a, b)
    spearman = scipy.stats.spearmanr(a, b)
    pairs = {
        "pearson r": (report["pearson"]["r"], pearson.statistic),
        "pearson p": (report["pearson"]["p"], pearson.pvalue),
        "spearman rho": (report["spearman"]["rho"], spearman.statistic),
        "spearman p": (report["spearman"]["p"], spearman.pvalue),
    }
    return [
        f"report.json {name} = {got!r}, scipy.stats {want!r}"
        for name, (got, want) in pairs.items()
        if not abs(got - want) <= STATS_TOL
    ]


def check_pca(pca_dir: Path, table: dict[str, np.ndarray]) -> list[str]:
    """Correlations and eigenvalues of `citerank pca --table`, recomputed.

    citerank uses `np.corrcoef` and `np.linalg.eigh`; the reference takes
    another route: the standardised columns Z give R = ZᵀZ/(n−1), and the
    eigenvalues of R are the squared singular values of Z/√(n−1).
    """
    rows = read_rows(pca_dir / "derived_correlations.csv")
    names = rows[0][1:]
    got = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    data = np.column_stack([table[name] for name in names])
    z = (data - data.mean(axis=0)) / data.std(axis=0, ddof=1) / np.sqrt(len(data) - 1)
    want = z.T @ z
    problems = []
    if not np.abs(got - want).max() <= STATS_TOL:
        problems.append("derived_correlations.csv differs from the standardised cross-product")
    eig = json.loads((pca_dir / "pca.json").read_text())["eigenvalues"]
    singular = np.linalg.svd(z, compute_uv=False)
    if not np.abs(np.array(eig) - singular**2).max() <= 1e-10:
        problems.append("pca.json eigenvalues differ from the squared singular values")
    return problems


def read_table(path) -> dict[str, np.ndarray]:
    """The numeric columns of an `institution,<column>,...` table, by name."""
    rows = read_rows(path)
    values = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    return {name: values[:, k] for k, name in enumerate(rows[0][1:])}


def dropped_nodes(node_ids, ranking_path) -> int:
    """Institutions in the built node set that ranking.csv leaves out."""
    ranked = {row[1] for row in read_rows(ranking_path)[1:]}
    return sum(1 for node in node_ids if node not in ranked)
