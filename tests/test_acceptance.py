"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s, and always
printed before the assertion fires), so the whole gate reads as a checklist:

    pytest tests/test_acceptance.py -s
"""

import csv
import json
import statistics
import time

import numpy as np
import pytest

from citerank import (
    CartelSpec,
    CitationNetwork,
    DanglingPolicy,
    PageRankConfig,
    SynthConfig,
    apply_threshold,
    average_rank,
    build_network,
    compress,
    composite_score,
    default_profiles,
    filter_records,
    generate_traced,
    kendall_w,
    normalize_pagerank,
    pagerank,
    parse_records,
    pearson,
    partial_correlation,
    rank_displacement,
    spearman,
)
from citerank.cli import main
from citerank.fileio import bundled_data
from citerank.ingest import SubjectProfile
from citerank.rankstats import partial_from_pairwise
from citerank.scoring import ScoreTable

from conftest import build_from_dict, make_random_network, pagerank_oracle, weight_dict
from test_rankstats import (
    displacement_oracle,
    kendall_w_oracle,
    partial_oracle,
    pearson_oracle,
    spearman_oracle,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. PCA on the bundled six-metric correlation matrix
# ---------------------------------------------------------------------------


def test_criterion_1_pca_variance_targets(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "pca"
    rc = main(["pca", "--corr", str(bundled_data("metric_correlations.csv")),
               "--retain", "2", "--out", str(out)])
    elapsed = time.perf_counter() - start
    with open(out / "variance.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    shares = [float(r[2]) for r in rows]
    rotated = sorted((float(r[3]) for r in rows if r[3]), reverse=True)
    top2 = shares[0] + shares[1]
    ok = (
        rc == 0
        and top2 >= 0.89
        and abs(rotated[0] - 0.61) <= 0.05
        and abs(rotated[1] - 0.26) <= 0.05
        and elapsed < 1.0
    )
    _report(
        "criterion 1: PCA variance targets",
        ok,
        f"top2={top2:.4f}, rotated={rotated[0]:.4f}/{rotated[1]:.4f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Iterative PageRank equals the dense linear-solve reference
# ---------------------------------------------------------------------------


def test_criterion_2_pagerank_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for k in range(100):
        net = make_random_network(rng, int(rng.integers(2, 51)))
        policy = DanglingPolicy.TELEPORT if k % 5 == 0 else DanglingPolicy.UNIFORM
        cfg = PageRankConfig(dangling_policy=policy)
        res = pagerank(net, cfg)
        assert res.converged
        worst = max(worst, float(np.abs(res.scores - pagerank_oracle(net, cfg)).sum()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(
        "criterion 2: PageRank oracle equivalence over 100 networks",
        ok,
        f"worst L1 {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. PageRank invariants
# ---------------------------------------------------------------------------


def test_criterion_3_pagerank_invariants():
    rng = np.random.default_rng(314)
    ok = True
    detail = []

    # normalization and positivity floor across random networks and dampings
    for _ in range(15):
        net = make_random_network(rng, int(rng.integers(2, 50)))
        d = float(rng.uniform(0.0, 0.95))
        res = pagerank(net, PageRankConfig(damping=d))
        ok &= abs(res.scores.sum() - 1.0) < 1e-12
        ok &= bool(np.all(res.scores >= (1.0 - d) / net.n_nodes))
    detail.append("sum/floor")

    # damping zero is exactly uniform
    net = make_random_network(rng, 30)
    res = pagerank(net, PageRankConfig(damping=0.0))
    ok &= bool(np.allclose(res.scores, 1 / 30, rtol=0, atol=1e-15))
    detail.append("d=0 uniform")

    # directed 3-cycle is exactly uniform
    cycle = CitationNetwork.from_edges(["a", "b", "c"], ["b", "c", "a"], [1, 1, 1])
    res = pagerank(cycle)
    ok &= bool(np.allclose(res.scores, 1 / 3, rtol=0, atol=1e-14))
    detail.append("3-cycle")

    # permutation equivariance on 20 random relabelings
    net = make_random_network(rng, 32)
    base = pagerank(net).scores
    for _ in range(20):
        perm = rng.permutation(net.n_nodes)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(net.n_nodes)
        permuted = build_from_dict(
            tuple(net.node_ids[k] for k in perm),
            {(int(inverse[i]), int(inverse[j])): w for (i, j), w in weight_dict(net).items()},
        )
        ok &= float(np.max(np.abs(pagerank(permuted).scores[inverse] - base))) < 1e-12
    detail.append("20 relabelings")

    _report("criterion 3: PageRank invariants", ok, ", ".join(detail))


# ---------------------------------------------------------------------------
# 4. Statistics vs independent oracles
# ---------------------------------------------------------------------------


def test_criterion_4_statistics_oracle_suite():
    rng = np.random.default_rng(2718)
    checked = dict.fromkeys(
        ["pearson", "spearman", "kendall_w", "partial", "displacement"], 0
    )
    worst = 0.0

    def track(actual, expected, key):
        nonlocal worst
        worst = max(worst, abs(actual - expected))
        assert abs(actual - expected) <= 1e-12, key
        checked[key] += 1

    for _ in range(200):
        n = int(rng.integers(4, 13))
        draw = lambda: (
            np.round(rng.uniform(-9, 9, n)) if rng.random() < 0.3 else rng.uniform(-9, 9, n)
        )
        x, y, z = draw(), draw(), draw()
        xs, ys, zs = list(x), list(y), list(z)
        try:
            track(pearson(x, y)[0], pearson_oracle(xs, ys), "pearson")
            track(spearman(x, y)[0], spearman_oracle(xs, ys), "spearman")
            track(kendall_w([x, y]), kendall_w_oracle([xs, ys]), "kendall_w")
            track(partial_correlation(x, y, z)[0], partial_oracle(xs, ys, zs), "partial")
        except Exception as exc:  # degenerate draws (all-tied etc.) are skipped
            if "undefined" not in str(exc).lower():
                raise
        d = rank_displacement(x, y)
        n_o, mean_o, std_o, p50_o, p75_o, p90_o = displacement_oracle(xs, ys)
        assert d.n == n_o
        track(d.mean, mean_o, "displacement")
        assert abs(d.std - std_o) <= 1e-12
        assert (d.p50, d.p75, d.p90) == (p50_o, p75_o, p90_o)

    # hand-derived exact cases
    assert kendall_w([[1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 3.0, 4.0]]) == 0.9
    assert partial_from_pairwise(0.9, 0.8, 0.8) == pytest.approx(0.26 / 0.36, rel=1e-12)
    assert pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])[0] == pytest.approx(0.8, abs=1e-15)
    assert spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])[0] == pytest.approx(0.5, abs=1e-15)

    ok = all(count >= 100 for count in checked.values()) and worst <= 1e-12
    _report(
        "criterion 4: statistics oracle suite",
        ok,
        f"worst |delta| {worst:.2e}, checks {checked}",
    )


# ---------------------------------------------------------------------------
# 5. Ingestion fixture matches its hand-counted manifest
# ---------------------------------------------------------------------------


def test_criterion_5_ingestion_fixture():
    manifest = json.loads(bundled_data("sample_records_manifest.json").read_text())
    with open(bundled_data("sample_records.jsonl"), encoding="utf-8") as fh:
        records = parse_records(fh, strict=True).records
    profile = SubjectProfile(
        manifest["subject"],
        manifest["category"],
        publication_threshold=manifest["threshold"],
        year_range=tuple(manifest["year_range"]),
        indicator_weights={"PUB": 1},
    )
    rows = filter_records(records, profile)
    retained = apply_threshold(records, rows, profile)
    net = build_network(records, rows, retained)

    edges = sorted([net.node_ids[i], net.node_ids[j], w] for (i, j), w in weight_dict(net).items())
    ok = (
        len(records) == 20
        and sorted(retained) == manifest["retained"]
        and net.n_nodes == manifest["nodes"]
        and edges == sorted(manifest["edges"])
        and net.total_weight == manifest["total_weight"]
    )

    previous = None
    for t in range(1, 11):
        profile_t = SubjectProfile(
            "t", manifest["category"], publication_threshold=t, indicator_weights={"PUB": 1}
        )
        kept = apply_threshold(records, rows, profile_t)
        expected = manifest["retained_count_by_threshold"][str(t)]
        ok &= len(kept) == expected
        if previous is not None:
            ok &= kept <= previous
        previous = kept

    _report(
        "criterion 5: ingestion fixture vs hand count",
        ok,
        f"{net.n_nodes} nodes, {net.n_edges} edges, weight {net.total_weight}",
    )


# ---------------------------------------------------------------------------
# 6. Scoring invariants
# ---------------------------------------------------------------------------


def test_criterion_6_scoring_invariants():
    rng = np.random.default_rng(161803)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 40))
        raw = rng.uniform(0.0, 1000.0, n)
        raw[int(rng.integers(n))] = float(rng.uniform(1.0, 1000.0))
        scale = float(rng.uniform(0.01, 100.0))

        out = compress(raw)
        ok &= bool(np.allclose(out, compress(raw * scale), rtol=1e-12, atol=0))
        order = np.argsort(raw)
        ok &= bool(np.all(np.diff(out[order])[np.diff(raw[order]) > 0] > 0))
        ok &= bool(np.all((out >= 0) & (out <= 100.0)))

        pi = rng.uniform(1e-8, 1.0, n)
        npr = normalize_pagerank(pi)
        ok &= bool(np.allclose(npr, normalize_pagerank(pi * scale), rtol=1e-12, atol=0))
        order = np.argsort(pi)
        ok &= bool(np.all(np.diff(npr[order])[np.diff(pi[order]) > 0] > 0))
        ok &= bool(np.all((npr > 0) & (npr <= 100.0)))

    identity_ok = True
    for profile in default_profiles().values():
        cols = {ind: np.full(4, 100.0) for ind, w in profile.indicator_weights.items() if w > 0}
        table = ScoreTable(("a", "b", "c", "d"), cols)
        identity_ok &= bool(np.allclose(composite_score(table, profile), 100.0, atol=1e-12))
    ok &= identity_ok

    _report("criterion 6: scoring invariants", ok, "100 vectors + 5 profile identities")


# ---------------------------------------------------------------------------
# 7. Cartels gain less under PageRank than under raw citation counts
# ---------------------------------------------------------------------------


def _ordinal_positions(net, scores):
    order = sorted(range(net.n_nodes), key=lambda k: (-scores[k], net.node_ids[k]))
    position = {}
    for pos, idx in enumerate(order, start=1):
        position[net.node_ids[idx]] = pos
    return position


def _in_strength(net):
    received = np.zeros(net.n_nodes)
    for (_i, j), w in weight_dict(net).items():
        received[j] += w
    return received


def test_criterion_7_cartel_discounting():
    start = time.perf_counter()
    citation_gains = []
    pagerank_gains = []
    for seed in range(30):
        base_cfg = SynthConfig(n_nodes=100, mean_out_citations=5.0, seed=seed)
        cartel_cfg = SynthConfig(
            n_nodes=100,
            mean_out_citations=5.0,
            seed=seed,
            cartel=CartelSpec(member_count=5, internal_weight_boost=20),
        )
        base = generate_traced(base_cfg).network
        traced = generate_traced(cartel_cfg)
        boosted = traced.network

        by_citations_before = _ordinal_positions(base, _in_strength(base))
        by_citations_after = _ordinal_positions(boosted, _in_strength(boosted))
        by_pagerank_before = _ordinal_positions(base, pagerank(base).scores)
        by_pagerank_after = _ordinal_positions(boosted, pagerank(boosted).scores)

        citation_gains.append(
            statistics.median(
                by_citations_before[m] - by_citations_after[m] for m in traced.cartel_members
            )
        )
        pagerank_gains.append(
            statistics.median(
                by_pagerank_before[m] - by_pagerank_after[m] for m in traced.cartel_members
            )
        )
    elapsed = time.perf_counter() - start
    med_cit = statistics.median(citation_gains)
    med_pr = statistics.median(pagerank_gains)
    ok = med_cit > med_pr and elapsed < 30.0
    _report(
        "criterion 7: cartel discounting",
        ok,
        f"median gain citations {med_cit} > pagerank {med_pr}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Byte-identical CLI reruns
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    records = bundled_data("sample_records.jsonl")
    corr = bundled_data("metric_correlations.csv")
    shared = tmp_path / "shared"
    assert main(["build", str(records), "--subject", "TEL", "--threshold", "3",
                 "--out", str(shared)]) == 0
    table = tmp_path / "table.csv"
    table.write_text(
        "institution,a,b\n"
        + "\n".join(f"i{k},{float(k + 1)!r},{float((k * 7) % 5 + 1)!r}" for k in range(8))
        + "\n"
    )

    def run_all(root):
        assert main(["build", str(records), "--subject", "TEL", "--threshold", "3",
                     "--out", str(root / "net")]) == 0
        assert main(["pagerank", str(shared / "edges.csv"), "--out", str(root / "pr")]) == 0
        assert main(["compare", str(table), "--col-a", "a", "--col-b", "b",
                     "--out", str(root / "cmp")]) == 0
        assert main(["pca", "--corr", str(corr), "--retain", "2",
                     "--out", str(root / "pca")]) == 0
        assert main(["synth", "--nodes", "60", "--seed", "5", "--cartel-size", "4",
                     "--cartel-boost", "9", "--out", str(root / "syn")]) == 0

    roots = (tmp_path / "run1", tmp_path / "run2")
    for root in roots:
        run_all(root)

    ok = True
    compared = 0
    for path1 in sorted(roots[0].rglob("*")):
        if not path1.is_file():
            continue
        rel = path1.relative_to(roots[0])
        path2 = roots[1] / rel
        ok &= path2.is_file()
        if rel.name == "manifest.json":
            a = json.loads(path1.read_text())
            b = json.loads(path2.read_text())
            a.pop("created_utc")
            b.pop("created_utc")
            ok &= a == b
        else:
            ok &= path1.read_bytes() == path2.read_bytes()
        compared += 1
    _report("criterion 8: CLI byte determinism", ok, f"{compared} files compared")
