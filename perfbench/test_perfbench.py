"""Self-tests of the benchmark: tracing hooks, seeded inputs and oracles.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from citerank import cli  # noqa: E402
from citerank.fileio import bundled_data  # noqa: E402

SMALL = workloads.RecordSpec(
    records=300, institutions=200, refs=(2, 6), affiliations=(1, 3), outside_share=0.5,
    off_subject_share=0.2, malformed_share=0.02, threshold=2,
)


def _fixture_chain(out: Path) -> list[list[str]]:
    table = out / "table.csv"
    rng = np.random.default_rng(3)
    rows = [f"inst-{k},{a:.6f},{b:.6f},{c:.6f}" for k, (a, b, c) in enumerate(rng.random((8, 3)))]
    table.write_text("institution,x,y,z\n" + "\n".join(rows) + "\n")
    records = bundled_data("sample_records.jsonl")
    return [
        ["build", str(records), "--subject", "TEL", "--threshold", "3", "--out", str(out / "build")],
        ["pagerank", str(out / "build" / "edges.csv"), "--out", str(out / "rank")],
        ["compare", str(table), "--col-a", "x", "--col-b", "y", "--control", "z", "--out", str(out / "cmp")],
        ["pca", "--table", str(table), "--retain", "2", "--out", str(out / "pca")],
        ["synth", "--nodes", "40", "--cartel-size", "4", "--cartel-boost", "5", "--out", str(out / "syn")],
    ]


def _data_files(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_every_span_fires_and_tracing_changes_no_output(tmp_path, capsys):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for root in (plain, traced):
        root.mkdir()
    for argv in _fixture_chain(plain):
        assert cli.main(argv) == 0
    tracer = spans.Tracer()
    with spans.traced(tracer):
        for argv in _fixture_chain(traced):
            assert tracer.call(f"cli.{argv[0]}", cli.main, argv) == 0
    capsys.readouterr()

    names = spans.span_names()
    assert sorted(names) == sorted({n for group in spans.COMMAND_SPANS.values() for n in group})
    assert [n for n in names if tracer.calls[n] == 0] == []
    for command, group in spans.COMMAND_SPANS.items():
        opened = {span for (root, span) in tracer.self_s if root == f"cli.{command}"}
        assert opened == {f"cli.{command}", *group}
        accounted = sum(t for (root, _span), t in tracer.self_s.items() if root == f"cli.{command}")
        assert abs(accounted - tracer.wall_s[f"cli.{command}"]) < 1e-9
    assert tracer.counts["ingest.parse_records.records"] == 20
    assert tracer.counts["network.edges"] == 11
    assert _data_files(traced) == _data_files(plain)
    # the hooks are gone again
    assert cli.pagerank is sys.modules["citerank.pagerank"].pagerank


def test_same_seed_same_bytes_other_seed_other_bytes():
    one, again, other = (workloads.make_corpus(SMALL, seed) for seed in (7, 7, 8))
    assert one.lines == again.lines and one.edges == again.edges
    assert one.lines != other.lines
    assert one.issues == round(SMALL.malformed_share * SMALL.records)
    assert workloads.synth_seed(7) == workloads.synth_seed(7) != workloads.synth_seed(8)


def test_oracles_accept_the_cli_and_reject_a_perturbed_ranking(tmp_path, capsys):
    corpus = workloads.make_corpus(SMALL, 5)
    records = tmp_path / "records.jsonl"
    workloads.write_lines(corpus.lines, records)
    build, rank = tmp_path / "build", tmp_path / "rank"
    assert cli.main(["build", str(records), "--subject", "TEL", "--threshold", "2", "--out", str(build)]) == 0
    assert cli.main(["pagerank", str(build / "edges.csv"), "--out", str(rank)]) == 0
    capsys.readouterr()
    assert oracles.check_build(build, corpus) == []
    edges = oracles.read_edges(build / "edges.csv")
    assert oracles.check_ranking(edges, rank / "ranking.csv") == []

    rows = oracles.read_rows(rank / "ranking.csv")
    rows[1][2] = repr(float(rows[1][2]) + 1e-9)
    (rank / "ranking.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert oracles.check_ranking(edges, rank / "ranking.csv")
    corpus.edges[next(iter(corpus.edges))] += 1
    assert oracles.check_build(build, corpus)
