import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import citerank
from citerank import compare_columns, correlation_matrix, pca
from citerank.cli import main
from citerank.fileio import bundled_data, read_correlation_csv, write_ranking_csv

RECORDS = bundled_data("sample_records.jsonl")
CORR = bundled_data("metric_correlations.csv")
MANIFEST = json.loads(bundled_data("sample_records_manifest.json").read_text())


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _strip_timestamp(manifest_path):
    data = json.loads(manifest_path.read_text())
    data.pop("created_utc")
    return data


def _tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root)] = path.read_bytes()
    return out


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_fixture_matches_manifest(tmp_path):
    out = tmp_path / "out"
    rc = main(["build", str(RECORDS), "--subject", "TEL", "--threshold", "3", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nodes"] == MANIFEST["nodes"]
    assert summary["edges"] == MANIFEST["edge_count"]
    assert summary["citations"] == MANIFEST["total_weight"]
    edges = [[r[0], r[1], int(r[2])] for r in _read_csv(out / "edges.csv")[1:]]
    assert sorted(edges) == sorted(MANIFEST["edges"])
    nodes = _read_csv(out / "nodes.csv")
    assert nodes[0] == ["institution", "in_degree", "degree_centrality"]
    assert {row[0]: int(row[1]) for row in nodes[1:]} == MANIFEST["in_degree"]
    dist = _read_csv(out / "centrality_distribution.csv")
    assert dist[0] == ["value", "probability"]
    assert json.loads((out / "manifest.json").read_text())["command"] == "build"


def test_build_empty_input_fails_with_no_records(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["build", str(empty), "--subject", "TEL", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "no records" in capsys.readouterr().err


def test_build_reports_too_deeply_nested_line_as_parse_issue(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text(RECORDS.read_text() + "[" * 100_000 + "\n")
    line_no = len(RECORDS.read_text().splitlines()) + 1
    rc = main(["build", str(path), "--subject", "TEL", "--out", str(tmp_path / "o")])
    assert rc == 0
    issues = _read_csv(tmp_path / "o" / "parse_issues.csv")
    assert [row[0] for row in issues[1:]] == [str(line_no)]
    assert issues[1][1].startswith("invalid JSON: maximum recursion depth exceeded")
    capsys.readouterr()
    rc = main(["build", str(path), "--subject", "TEL", "--strict", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert f"line {line_no}: invalid JSON: maximum recursion depth" in capsys.readouterr().err


def test_build_past_the_index_limit_exits_1(tmp_path, capsys, monkeypatch):
    # a table of more institutions than 32-bit positions hold is an input
    # error, not a wrapped index or a traceback; the limit is lowered to 2
    monkeypatch.setattr(citerank.network, "INDEX_LIMIT", 2)
    rc = main(["build", str(RECORDS), "--subject", "TEL", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "more than 2 institutions: positions are 32-bit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_build_strict_mode_names_bad_line(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    good = RECORDS.read_text().splitlines()[0]
    path.write_text(good + "\nnot json\n")
    rc = main(["build", str(path), "--subject", "TEL", "--strict", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_build_lenient_mode_records_issues(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(RECORDS.read_text() + "not json\n")
    out = tmp_path / "o"
    rc = main(["build", str(path), "--subject", "TEL", "--out", str(out)])
    assert rc == 0
    issues = _read_csv(out / "parse_issues.csv")
    assert issues[0] == ["line", "message"]
    assert issues[1][0] == "21"


@pytest.fixture
def surrogate_records(tmp_path):
    """The sample records and, on line 21, an affiliation with a lone surrogate.

    "\\ud800" is valid JSON, but no UTF-8 output file can hold what it decodes to.
    """
    bad = json.dumps({"pub_id": "pS", "year": 2012, "category": "Telecommunications",
                      "affiliations": ["A\ud800"], "references": []})
    path = tmp_path / "records.jsonl"
    path.write_text(RECORDS.read_text() + bad + "\n", encoding="utf-8")
    return path


def test_build_skips_a_lone_surrogate_as_a_parse_issue(tmp_path, surrogate_records):
    clean, out = tmp_path / "clean", tmp_path / "o"
    assert main(["build", str(RECORDS), "--subject", "TEL", "--out", str(clean)]) == 0
    assert main(["build", str(surrogate_records), "--subject", "TEL", "--out", str(out)]) == 0
    issues = _read_csv(out / "parse_issues.csv")
    assert issues[1:] == [["21", "affiliations must be valid Unicode: 'A\\ud800' (surrogates not allowed)"]]
    written, expected = _tree_bytes(out), _tree_bytes(clean)
    del written[Path("parse_issues.csv")], written[Path("manifest.json")], expected[Path("manifest.json")]
    assert written == expected  # every data file whole, and no other file left


def test_build_strict_stops_at_a_lone_surrogate(tmp_path, surrogate_records, capsys):
    out = tmp_path / "o"
    rc = main(["build", str(surrogate_records), "--subject", "TEL", "--strict", "--out", str(out)])
    assert rc == 1
    assert "line 21: affiliations must be valid Unicode: 'A\\ud800'" in capsys.readouterr().err
    assert not out.exists()


PHYSICS = {"pub_id": "p1", "year": 2012, "category": "Physics", "affiliations": ["A"], "references": []}
LONE_TEL = {"pub_id": "t1", "year": 2012, "category": "Telecommunications", "affiliations": ["A"],
            "references": [{"pub_id": "t1", "affiliations": ["A"]}]}


@pytest.mark.parametrize(
    "lines, flags, message",
    [
        ([json.dumps(PHYSICS)], [], "no records match subject 'TEL'"),
        (None, ["--threshold", "99"], "no institution reaches the publication threshold 99"),
        (["not json", "{}", "[1]"], [], "no records parsed from input"),
        ([json.dumps(LONE_TEL)], ["--threshold", "1"], "degree centrality needs at least 2 nodes, got 1"),
    ],
    ids=["no-match", "threshold-99", "all-lines-malformed", "one-institution"],
)
def test_build_input_error_creates_no_out_directory(tmp_path, capsys, lines, flags, message):
    path = tmp_path / "records.jsonl"
    path.write_text(RECORDS.read_text() if lines is None else "\n".join(lines) + "\n")
    rc = main(["build", str(path), "--subject", "TEL", *flags, "--out", str(tmp_path / "fx" / "net")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""  # no "see parse_issues.csv" for a file never written
    assert not (tmp_path / "fx").exists()


def test_build_unknown_subject_fails(tmp_path, capsys):
    rc = main(["build", str(RECORDS), "--subject", "NOPE", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown subject" in capsys.readouterr().err


def test_build_threshold_too_high_fails(tmp_path, capsys):
    rc = main(
        ["build", str(RECORDS), "--subject", "TEL", "--threshold", "99", "--out", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "threshold" in capsys.readouterr().err


def test_build_missing_input_fails(tmp_path, capsys):
    rc = main(["build", str(tmp_path / "nope.jsonl"), "--subject", "TEL", "--out", str(tmp_path / "o")])
    assert rc == 1


def test_profiles_via_env_var(tmp_path, monkeypatch):
    config = tmp_path / "profiles.json"
    config.write_text(
        json.dumps(
            [
                {
                    "name": "CUSTOM",
                    "category": "Telecommunications",
                    "threshold": 3,
                    "indicator_weights": {"PUB": 1},
                }
            ]
        )
    )
    monkeypatch.setenv("CITERANK_PROFILES", str(config))
    out = tmp_path / "o"
    rc = main(["build", str(RECORDS), "--subject", "CUSTOM", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["nodes"] == 4


def test_profiles_file_starting_with_a_utf8_bom_reads_as_without(tmp_path):
    text = json.dumps([{"name": "CUSTOM", "category": "Telecommunications", "threshold": 3,
                        "indicator_weights": {"PUB": 1}}])
    outputs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        config = tmp_path / f"{name}.json"
        config.write_bytes(data)
        out = tmp_path / name
        assert main(["build", str(RECORDS), "--subject", "CUSTOM", "--profiles", str(config),
                     "--out", str(out)]) == 0
        outputs.append({k: v for k, v in _tree_bytes(out).items() if k.name != "manifest.json"})
    assert outputs[0] == outputs[1] and outputs[0]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"threshold": 3.9}, "publication threshold must be an integer in profile 'CUSTOM'"),
        ({"threshold": "3"}, "publication threshold must be an integer in profile 'CUSTOM'"),
        ({"treshold": 5}, "unknown keys ['treshold'] in profile 'CUSTOM'"),
        ({"indicator_weights": {"PUB": True}}, "indicator weights must be integers in profile 'CUSTOM'"),
        ({"indicator_weights": {"PUB": 1.5}}, "indicator weights must be integers in profile 'CUSTOM'"),
        ({"indicator_weights": ["PUB"]}, "indicator weights must be integers in profile 'CUSTOM'"),
        ({"category": 7}, "name and category must be non-empty strings in profile 'CUSTOM'"),
        ({"name": 5}, "name and category must be non-empty strings in profile 5"),
    ],
)
def test_profile_values_are_taken_as_written(tmp_path, capsys, change, message):
    entry = {"name": "CUSTOM", "category": "Telecommunications", "threshold": 3,
             "indicator_weights": {"PUB": 1}}
    config = tmp_path / "profiles.json"
    config.write_text(json.dumps([{**entry, **change}]))
    rc = main(["build", str(RECORDS), "--subject", "CUSTOM", "--profiles", str(config),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("year_range", [[2010], [2010, 2012, 2014], ["2010", "2014"], "20"])
def test_profile_year_range_must_be_two_integers(tmp_path, capsys, year_range):
    config = tmp_path / "profiles.json"
    config.write_text(json.dumps([{"name": "CUSTOM", "category": "Telecommunications",
                                   "year_range": year_range, "indicator_weights": {"PUB": 1}}]))
    rc = main(["build", str(RECORDS), "--subject", "CUSTOM", "--profiles", str(config),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "year range must be two integers in profile 'CUSTOM'" in capsys.readouterr().err


def test_profile_listed_twice_in_one_file_exits_one(tmp_path, capsys):
    entry = {"name": "X", "category": "Telecommunications", "indicator_weights": {"PUB": 1}}
    config = tmp_path / "profiles.json"
    config.write_text(json.dumps([entry, {**entry, "category": "Other"}]))
    rc = main(["build", str(RECORDS), "--subject", "X", "--profiles", str(config),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: profile config {config}: profile 'X' is listed twice\n"


@pytest.mark.parametrize("year", [10**30, -(10**30)])
def test_build_keeps_a_year_beyond_int64_out_of_the_window(tmp_path, year):
    far = json.dumps({"pub_id": "FAR", "year": year, "category": "Telecommunications",
                      "affiliations": ["Uni-A"],
                      "references": [{"pub_id": "P01", "affiliations": ["Uni-A"]}]})
    path = tmp_path / "records.jsonl"
    path.write_text(RECORDS.read_text() + far + "\n")
    out = tmp_path / "o"
    assert main(["build", str(path), "--subject", "TEL", "--threshold", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["records_parsed"], summary["records_used"]) == (21, 20)
    assert summary["citations"] == MANIFEST["total_weight"]
    assert not (out / "parse_issues.csv").exists()


# ---------------------------------------------------------------------------
# pagerank
# ---------------------------------------------------------------------------


@pytest.fixture
def cycle_edges(tmp_path):
    path = tmp_path / "cycle.csv"
    path.write_text("source,target,weight\na,b,1\nb,c,1\nc,a,1\n")
    return path


def test_pagerank_cycle_three_equal_scores(cycle_edges, tmp_path):
    out = tmp_path / "pr"
    rc = main(["pagerank", str(cycle_edges), "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "ranking.csv")
    assert rows[0] == ["rank", "institution", "pagerank_score", "normalized_score"]
    scores = {row[1]: float(row[2]) for row in rows[1:]}
    assert scores == pytest.approx({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}, abs=1e-12)
    # equal scores -> ties broken lexicographically
    assert [row[1] for row in rows[1:]] == ["a", "b", "c"]
    assert [float(row[3]) for row in rows[1:]] == [100.0, 100.0, 100.0]


def test_pagerank_zero_damping_uniform(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\na,b,5\nc,b,2\nb,c,1\n")
    out = tmp_path / "pr"
    rc = main(["pagerank", str(path), "--damping", "0", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "ranking.csv")
    assert [float(r[2]) for r in rows[1:]] == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_pagerank_deterministic_output(cycle_edges, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["pagerank", str(cycle_edges), "--out", str(out1)]) == 0
    assert main(["pagerank", str(cycle_edges), "--out", str(out2)]) == 0
    assert (out1 / "ranking.csv").read_bytes() == (out2 / "ranking.csv").read_bytes()
    assert _strip_timestamp(out1 / "manifest.json") == _strip_timestamp(out2 / "manifest.json")


def test_pagerank_teleport_policy_flag(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\na,b,1\n")  # b dangling
    out = tmp_path / "pr"
    rc = main(["pagerank", str(path), "--dangling", "teleport_only", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "ranking.csv")
    assert sum(float(r[2]) for r in rows[1:]) < 1.0


def test_pagerank_non_convergence_exits_one(cycle_edges, tmp_path, capsys):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\na,b,1\nb,a,2\na,c,1\nc,a,3\n")
    rc = main(["pagerank", str(path), "--max-iter", "2", "--out", str(tmp_path / "pr")])
    assert rc == 1
    assert "converge" in capsys.readouterr().err


def test_pagerank_bad_edge_list_exits_one(tmp_path, capsys):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\na,b,zero\n")
    rc = main(["pagerank", str(path), "--out", str(tmp_path / "pr")])
    assert rc == 1
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        (["a,b,9223372036854775808"], "edges.csv:2: weight 9223372036854775808 is beyond the int64 range"),
        (["a,b,4611686018427387904", "a,b,4611686018427387904"],
         "total weight 9223372036854775808 is beyond the int64 range"),
    ],
)
def test_pagerank_weights_beyond_int64_exit_one(tmp_path, capsys, rows, message):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,weight\n" + "\n".join(rows) + "\n")
    out = tmp_path / "pr"
    assert main(["pagerank", str(edges), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "ranking.csv").exists()


def test_pagerank_field_past_the_csv_limit_names_its_line(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,weight\na,b,1\n\n" + f"b,{'x' * 200_000},1\n")
    assert main(["pagerank", str(edges), "--out", str(tmp_path / "pr")]) == 1
    err = capsys.readouterr().err
    assert f"{edges}:4: field larger than field limit" in err
    assert "Traceback" not in err


def test_pagerank_header_must_name_exactly_three_columns(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,weight,note\na,b,1\nb,a,2\n")
    assert main(["pagerank", str(edges), "--out", str(tmp_path / "pr")]) == 1
    assert f"error: {edges}: expected header 'source,target,weight'\n" == capsys.readouterr().err


def test_pagerank_bad_damping_exits_one(cycle_edges, tmp_path, capsys):
    rc = main(["pagerank", str(cycle_edges), "--damping", "1.5", "--out", str(tmp_path / "pr")])
    assert rc == 1
    assert "damping" in capsys.readouterr().err


def test_pagerank_with_nodes_ranks_what_the_library_ranks(tmp_path):
    # uni-c publishes but only cites itself: an isolated node
    records = tmp_path / "records.jsonl"
    cites = {"p1": ("Uni-A", "p2", "Uni-B"), "p2": ("Uni-B", "p1", "Uni-A"), "p3": ("Uni-C", "p3", "Uni-C")}
    records.write_text("".join(
        json.dumps({"pub_id": pub_id, "year": 2012, "category": "Telecommunications",
                    "affiliations": [inst], "references": [{"pub_id": ref, "affiliations": [cited]}]}) + "\n"
        for pub_id, (inst, ref, cited) in cites.items()
    ))
    net_dir, pr_dir = tmp_path / "net", tmp_path / "pr"
    assert main(["build", str(records), "--subject", "TEL", "--threshold", "1", "--out", str(net_dir)]) == 0
    assert main(["pagerank", str(net_dir / "edges.csv"), "--nodes", str(net_dir / "nodes.csv"),
                 "--out", str(pr_dir)]) == 0

    profile = citerank.default_profiles()["TEL"]
    with open(records, encoding="utf-8") as fh:
        table = citerank.parse_records(fh, strict=True).records
    rows = citerank.filter_records(table, profile)
    net = citerank.build_network(table, rows, citerank.apply_threshold(table, rows, profile))
    assert net.node_ids == ("uni-a", "uni-b", "uni-c")
    result = citerank.pagerank(net)
    library = tmp_path / "library.csv"
    write_ranking_csv(library, net.node_ids, result.scores, citerank.normalize_pagerank(result.scores))
    assert (pr_dir / "ranking.csv").read_bytes() == library.read_bytes()
    manifest = json.loads((pr_dir / "manifest.json").read_text())
    assert manifest["inputs"]["nodes"] == str(net_dir / "nodes.csv")
    # without --nodes the edge list alone sets the node set
    assert main(["pagerank", str(net_dir / "edges.csv"), "--out", str(tmp_path / "pr0")]) == 0
    assert len(_read_csv(tmp_path / "pr0" / "ranking.csv")) == 3
    assert "nodes" not in json.loads((tmp_path / "pr0" / "manifest.json").read_text())["inputs"]


def test_self_loops_chosen_at_build_reach_the_ranking(tmp_path):
    net_dir, pr_dir = tmp_path / "net", tmp_path / "pr"
    assert main(["build", str(RECORDS), "--subject", "TEL", "--threshold", "1", "--self-loops",
                 "--out", str(net_dir)]) == 0
    edges = _read_csv(net_dir / "edges.csv")[1:]
    assert any(source == target for source, target, _ in edges)
    assert main(["pagerank", str(net_dir / "edges.csv"), "--nodes", str(net_dir / "nodes.csv"),
                 "--out", str(pr_dir)]) == 0

    profile = replace(citerank.default_profiles()["TEL"], publication_threshold=1)
    with open(RECORDS, encoding="utf-8") as fh:
        table = citerank.parse_records(fh).records
    rows = citerank.filter_records(table, profile)
    retained = citerank.apply_threshold(table, rows, profile)
    net = citerank.build_network(table, rows, retained, keep_self_loops=True)
    result = citerank.pagerank(net)
    library = tmp_path / "library.csv"
    write_ranking_csv(library, net.node_ids, result.scores, citerank.normalize_pagerank(result.scores))
    assert (pr_dir / "ranking.csv").read_bytes() == library.read_bytes()


def test_pagerank_self_loops_flag_is_unknown(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,weight\na,a,1\na,b,1\n")
    assert main(["pagerank", str(edges), "--self-loops", "--out", str(tmp_path / "pr")]) == 1
    assert "--self-loops" in capsys.readouterr().err


def test_pagerank_with_nodes_ranks_a_network_without_edges(tmp_path):
    edges, nodes = tmp_path / "edges.csv", tmp_path / "nodes.csv"
    edges.write_text("source,target,weight\n")
    nodes.write_text("institution,in_degree,degree_centrality\nb,0,0\na,0,0\n")
    assert main(["pagerank", str(edges), "--nodes", str(nodes), "--out", str(tmp_path / "pr")]) == 0
    rows = _read_csv(tmp_path / "pr" / "ranking.csv")[1:]
    assert [(inst, float(score)) for _rank, inst, score, _norm in rows] == [("a", 0.5), ("b", 0.5)]


def test_pagerank_nodes_file_needs_institution_ids(tmp_path, cycle_edges, capsys):
    for text, message in [
        ("name,x\na,1\n", "expected header 'institution,<column>,...'"),
        ("institution,x\na,1\n ,2\n", "empty institution id"),
    ]:
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(text)
        argv = ["pagerank", str(cycle_edges), "--nodes", str(nodes), "--out", str(tmp_path / "pr")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


@pytest.fixture
def score_table(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "table.csv"
    rows = ["institution,arwu_score,pagerank_score,citations"]
    arwu = rng.uniform(20, 100, 10)
    pr = np.clip(arwu + rng.normal(0, 15, 10), 1, None)
    cit = rng.uniform(0, 1000, 10)
    for k in range(10):
        rows.append(f"inst{k:02d},{float(arwu[k])!r},{float(pr[k])!r},{float(cit[k])!r}")
    path.write_text("\n".join(rows) + "\n")
    return path, arwu, pr, cit


def test_compare_identical_columns(tmp_path, score_table):
    path, arwu, _, _ = score_table
    # the same values under a second name: naming one column twice is an error
    header, *rows = path.read_text().splitlines()
    rows = [f"{row},{float(value)!r}" for row, value in zip(rows, arwu)]
    path.write_text("\n".join([f"{header},arwu_copy", *rows]) + "\n")
    out = tmp_path / "cmp"
    rc = main(["compare", str(path), "--col-a", "arwu_score", "--col-b", "arwu_copy",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pearson"]["r"] == 1.0
    assert report["spearman"]["rho"] == 1.0
    assert report["kendall_w"] == 1.0
    assert report["displacement"]["mean"] == 0.0
    assert report["displacement"]["p90"] == 0.0


def test_compare_reversed_column(tmp_path):
    path = tmp_path / "t.csv"
    lines = ["institution,a,b"]
    for k, (x, y) in enumerate(zip([1.0, 2.0, 3.0, 4.0], [9.0, 8.0, 7.0, 6.0])):
        lines.append(f"i{k},{x},{y}")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cmp"
    rc = main(["compare", str(path), "--col-a", "a", "--col-b", "b", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pearson"]["r"] == -1.0
    assert report["kendall_w"] == 0.0


def test_compare_matches_in_process_battery(tmp_path, score_table):
    path, arwu, pr, cit = score_table
    out = tmp_path / "cmp"
    rc = main(["compare", str(path), "--col-a", "arwu_score", "--col-b", "pagerank_score",
               "--control", "citations", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    expected = compare_columns(arwu, pr, {"citations": cit})
    assert report["pearson"]["r"] == pytest.approx(expected.pearson_r, rel=1e-14)
    assert report["spearman"]["rho"] == pytest.approx(expected.spearman_rho, rel=1e-14)
    assert report["kendall_w"] == pytest.approx(expected.kendall_w, rel=1e-14)
    assert report["partial"]["citations"]["r"] == pytest.approx(
        expected.partial["citations"][0], rel=1e-14
    )
    stats = dict(
        (row[0], float(row[1])) for row in _read_csv(out / "report.csv")[1:]
    )
    assert stats["displacement_mean"] == pytest.approx(expected.displacement.mean, rel=1e-14)


def test_compare_report_csv_rows_follow_the_report(tmp_path):
    values = np.random.default_rng(4).uniform(1, 100, size=(12, 4))
    path = tmp_path / "table.csv"
    rows = (f"i{k:02d}," + ",".join(map(repr, row)) for k, row in enumerate(values.tolist()))
    path.write_text("\n".join(["institution,a,b,z,c", *rows]) + "\n")
    out = tmp_path / "cmp"
    rc = main(["compare", str(path), "--col-a", "a", "--col-b", "b", "--control", "z",
               "--control", "c", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    expected = [
        ("pearson_r", report["pearson"]["r"]),
        ("pearson_p", report["pearson"]["p"]),
        ("spearman_rho", report["spearman"]["rho"]),
        ("spearman_p", report["spearman"]["p"]),
        ("kendall_w", report["kendall_w"]),
        ("partial_r_given_c", report["partial"]["c"]["r"]),
        ("partial_p_given_c", report["partial"]["c"]["p"]),
        ("partial_r_given_z", report["partial"]["z"]["r"]),
        ("partial_p_given_z", report["partial"]["z"]["p"]),
        *((f"displacement_{key}", report["displacement"][key])
          for key in ("n", "mean", "std", "p50", "p75", "p90")),
    ]
    header, *rows = _read_csv(out / "report.csv")
    assert header == ["statistic", "value"]
    assert rows == [[name, format(value, ".15g")] for name, value in expected]


def test_compare_missing_column_names_it(tmp_path, score_table, capsys):
    path, *_ = score_table
    rc = main(["compare", str(path), "--col-a", "arwu_score", "--col-b", "nope",
               "--out", str(tmp_path / "cmp")])
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_compare_missing_value_rejected(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("institution,a,b\ni1,1.0,\ni2,2.0,3.0\ni3,3.0,4.0\n")
    rc = main(["compare", str(path), "--col-a", "a", "--col-b", "b", "--out", str(tmp_path / "c")])
    assert rc == 1
    assert "missing value" in capsys.readouterr().err


def test_compare_keeps_every_digit_at_extreme_magnitudes(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("institution,a,b\ni1,1e200,1e200\ni2,2e200,2e200\ni3,3e200,3e200\ni4,4e200,4.5e200\n")
    rc = main(["compare", str(path), "--col-a", "a", "--col-b", "b", "--out", str(tmp_path / "c")])
    assert rc == 0
    assert "pearson 0.9944," in capsys.readouterr().out
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["pearson"]["r"] == pytest.approx(0.99437671268437, rel=1e-14)


@pytest.mark.parametrize(
    "command", [["compare", "--col-a", "a", "--col-b", "b"], ["pca", "--retain", "1", "--table"]]
)
def test_score_table_header_past_the_csv_limit_exits_one(tmp_path, capsys, command):
    table = tmp_path / "table.csv"
    table.write_text(f"institution,a,b,{'x' * 200_000}\ni1,1,2,3\ni2,2,1,3\ni3,3,3,1\n")
    assert main([*command, str(table), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{table}:1: field larger than field limit" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# pca
# ---------------------------------------------------------------------------


def test_pca_identity_matrix_equal_shares(tmp_path):
    path = tmp_path / "id.csv"
    names = ["v1", "v2", "v3", "v4", "v5", "v6"]
    lines = ["variable," + ",".join(names)]
    for i, name in enumerate(names):
        row = ["1" if i == j else "0" for j in range(6)]
        lines.append(name + "," + ",".join(row))
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pca"
    rc = main(["pca", "--corr", str(path), "--retain", "2", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "variance.csv")
    shares = [float(r[2]) for r in rows[1:]]
    assert shares == pytest.approx([1 / 6] * 6, abs=1e-12)


def test_pca_bundled_matrix_meets_variance_targets(tmp_path):
    out = tmp_path / "pca"
    rc = main(["pca", "--corr", str(CORR), "--retain", "2", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "variance.csv")
    shares = [float(r[2]) for r in rows[1:]]
    assert shares[0] + shares[1] >= 0.89
    rotated = [float(r[3]) for r in rows[1:] if r[3]]
    assert len(rotated) == 2
    loadings = _read_csv(out / "loadings_rotated.csv")
    assert loadings[0] == ["variable", "component1", "component2"]
    assert [r[0] for r in loadings[1:]] == list(read_correlation_csv(CORR)[1])


def test_pca_from_table_matches_direct_call(tmp_path, score_table=None):
    rng = np.random.default_rng(8)
    cols = {"a": rng.normal(size=30), "b": rng.normal(size=30), "c": rng.normal(size=30)}
    cols = {k: np.abs(v) * 10 for k, v in cols.items()}
    path = tmp_path / "table.csv"
    lines = ["institution,a,b,c"]
    for k in range(30):
        lines.append(
            f"i{k:02d},{float(cols['a'][k])!r},{float(cols['b'][k])!r},{float(cols['c'][k])!r}"
        )
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pca"
    rc = main(["pca", "--table", str(path), "--retain", "2", "--out", str(out)])
    assert rc == 0
    matrix, names = read_correlation_csv(out / "derived_correlations.csv")
    expected = pca(np.corrcoef(np.column_stack(list(cols.values())), rowvar=False), retain=2)
    rows = _read_csv(out / "variance.csv")
    eigen = [float(r[1]) for r in rows[1:]]
    assert eigen == pytest.approx(list(expected.eigenvalues), rel=1e-9)


def test_pca_columns_are_stripped_like_the_header(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "table.csv"
    values = rng.uniform(1, 10, size=(12, 3)).tolist()
    rows = (f"i{k},{x!r},{y!r},{z!r}" for k, (x, y, z) in enumerate(values))
    path.write_text("\n".join(["institution,a,b,c", *rows]) + "\n")
    outputs = []
    for name, columns in (("plain", "a,b"), ("spaced", "a, b")):
        out = tmp_path / name
        rc = main(["pca", "--table", str(path), "--columns", columns, "--retain", "1", "--out", str(out)])
        assert rc == 0
        files = {k: v for k, v in _tree_bytes(out).items() if k.name != "manifest.json"}
        outputs.append((files, _strip_timestamp(out / "manifest.json")))
    assert outputs[0] == outputs[1] and outputs[0][0]


def test_pca_retain_larger_than_dimension_exits_one(tmp_path, capsys):
    rc = main(["pca", "--corr", str(CORR), "--retain", "7", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "retain" in capsys.readouterr().err


def test_pagerank_on_a_header_only_edge_list_creates_no_out_directory(tmp_path, capsys):
    path = tmp_path / "edges.csv"
    path.write_text("source,target,weight\r\n")
    rc = main(["pagerank", str(path), "--out", str(tmp_path / "fx" / "pr")])
    assert rc == 1
    assert capsys.readouterr().err == "error: edge list is empty\n"
    assert not (tmp_path / "fx").exists()


def test_pca_names_a_constant_column(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_text("institution,a,flat,c\ni1,1.0,0.7,3.0\ni2,2.0,0.7,1.0\ni3,4.0,0.7,2.0\n")
    rc = main(["pca", "--table", str(path), "--retain", "1", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "zero-variance column 'flat'" in capsys.readouterr().err


def test_pca_columns_with_corr_exits_one(tmp_path, capsys):
    out = tmp_path / "p"
    rc = main(["pca", "--corr", str(CORR), "--columns", "a", "--retain", "2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --columns needs --table")
    assert not out.exists()


def test_pca_empty_corr_path_exits_one(tmp_path, capsys):
    rc = main(["pca", "--corr", "", "--retain", "2", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: input file not found")


@pytest.mark.parametrize(
    "source, content",
    [("--corr", None), ("--table", "institution,a,b\ni1,1.0,\ni2,2.0,3.0\n")],
    ids=["missing-corr", "bad-table"],
)
def test_pca_input_error_creates_no_out_directory(tmp_path, capsys, source, content):
    path = tmp_path / "input.csv"
    if content is not None:
        path.write_text(content)
    rc = main(["pca", source, str(path), "--retain", "2", "--out", str(tmp_path / "fx" / "pca")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "fx").exists()


def test_pca_invalid_matrix_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("variable,a,b\na,1.0,0.5\nb,0.4,1.0\n")
    rc = main(["pca", "--corr", str(path), "--retain", "1", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "symmetric" in capsys.readouterr().err


def test_pca_corr_with_a_repeated_variable_exits_one(tmp_path, capsys):
    path = tmp_path / "corr.csv"
    path.write_text("variable,a,a\na,1.0,0.5\na,0.5,1.0\n")
    rc = main(["pca", "--corr", str(path), "--retain", "1", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: duplicate column names\n"


def test_pca_and_compare_name_a_missing_column_alike(tmp_path, score_table, capsys):
    path, *_ = score_table
    errors = []
    for command in (
        ["compare", str(path), "--col-a", "arwu_score", "--col-b", "zz"],
        ["pca", "--table", str(path), "--columns", "arwu_score,zz", "--retain", "1"],
    ):
        assert main([*command, "--out", str(tmp_path / command[0])]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: table has no column 'zz'; available: arwu_score, pagerank_score, citations\n"
    )


@pytest.mark.parametrize(
    "command, repeated",
    [
        (["compare", "--col-a", "arwu_score", "--col-b", "arwu_score"], "arwu_score"),
        (["compare", "--col-a", "arwu_score", "--col-b", "pagerank_score",
          "--control", "citations", "--control", "citations"], "citations"),
        (["compare", "--col-a", "arwu_score", "--col-b", "pagerank_score",
          "--control", "pagerank_score"], "pagerank_score"),
        (["pca", "--retain", "1", "--columns", "arwu_score,arwu_score,citations"], "arwu_score"),
    ],
    ids=["col-b", "control", "control-is-col-b", "columns"],
)
def test_a_column_named_twice_exits_one(tmp_path, score_table, capsys, command, repeated):
    path, *_ = score_table
    table = [str(path)] if command[0] == "compare" else ["--table", str(path)]
    assert main([command[0], *table, *command[1:], "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: column {repeated!r} is named twice\n"
    assert not (tmp_path / "o" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_deterministic_edge_list(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["synth", "--nodes", "50", "--mean-out", "4", "--seed", "17"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "edges.csv").read_bytes() == (out2 / "edges.csv").read_bytes()


def test_synth_cartel_flags_require_both(tmp_path, capsys):
    rc = main(["synth", "--nodes", "20", "--cartel-size", "3", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "cartel-boost" in capsys.readouterr().err


def test_synth_feeds_pagerank(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--nodes", "30", "--seed", "3", "--out", str(out)]) == 0
    pr_out = tmp_path / "pr"
    assert main(["pagerank", str(out / "edges.csv"), "--out", str(pr_out)]) == 0
    rows = _read_csv(pr_out / "ranking.csv")
    assert len(rows) == 31


def test_synth_edge_list_stream_is_pinned(tmp_path):
    # digest of the edge list written by the rng.choice generator; the tree
    # sampler must reproduce its random stream byte for byte
    out = tmp_path / "s"
    args = ["synth", "--nodes", "500", "--mean-out", "4", "--seed", "17",
            "--cartel-size", "5", "--cartel-boost", "10", "--out", str(out)]
    assert main(args) == 0
    digest = hashlib.sha256((out / "edges.csv").read_bytes()).hexdigest()
    assert digest == "77a4363a4c91ba4a47aac2aa11c59ca4406b6e7c9f8cee53c94107572e2d5eba"


def test_pagerank_ranking_of_synth_network_is_pinned(tmp_path):
    out = tmp_path / "s"
    args = ["synth", "--nodes", "500", "--mean-out", "4", "--seed", "17",
            "--cartel-size", "5", "--cartel-boost", "10", "--out", str(out)]
    assert main(args) == 0
    assert main(["pagerank", str(out / "edges.csv"), "--out", str(tmp_path / "pr")]) == 0
    digest = hashlib.sha256((tmp_path / "pr" / "ranking.csv").read_bytes()).hexdigest()
    assert digest == "fa49374405a044a244fefde65e797c310b05687f825f893ed04573272414b8d0"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--exponent", "nan"], "attachment_exponent must be finite"),
        (["--exponent", "inf"], "attachment_exponent must be finite"),
        (["--mean-out", "inf"], "mean_out_citations must be finite"),
        (["--exponent", "400"], "overflow"),
        (["--cartel-size", "1", "--cartel-boost", "5"], "a cartel needs at least 2 members"),
        (["--cartel-boost", "5"], "--cartel-boost requires --cartel-size"),
        (["--seed", "-1"], "seed must be non-negative, got -1"),
        (["--mean-out", "1e19"], "mean_out_citations"),
    ],
)
def test_synth_bad_parameters_exit_one(tmp_path, capsys, flags, message):
    out = tmp_path / "s"
    assert main(["synth", "--nodes", "50", *flags, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "edges.csv").exists()


# ---------------------------------------------------------------------------
# global behaviour
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_one(capsys):
    assert main(["pagerank", "--bogus"]) == 1


def test_user_errors_print_one_line_and_exit_one(tmp_path, capsys):
    empty, off_subject = tmp_path / "empty.jsonl", tmp_path / "off.jsonl"
    empty.write_text("")
    off_subject.write_text(json.dumps({"pub_id": "p1", "year": 2012, "category": "Physics",
                                       "affiliations": ["A"], "references": []}) + "\n")
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,weight\na,b,1\nb,a,2\na,c,1\nc,a,3\n")
    out = str(tmp_path / "o")
    for argv, message in [
        (["build", empty, "--subject", "TEL", "--out", out], "no records parsed from input"),
        (["build", off_subject, "--subject", "TEL", "--out", out],
         "no records match subject 'TEL' (category 'Telecommunications', years (2010, 2014))"),
        (["build", RECORDS, "--subject", "TEL", "--threshold", "99", "--out", out],
         "no institution reaches the publication threshold 99"),
        (["pagerank", edges, "--max-iter", "2", "--out", out],
         "PageRank did not converge in 2 iterations (last delta 4.817e-01); raise --max-iter or --tol"),
        (["pagerank", edges, "--damping", "x", "--out", out],
         "argument --damping: invalid float value: 'x'"),
        (["pagerank", edges, "--tol", "inf", "--out", out], "tolerance must be finite, got inf"),
        (["pagerank"], "the following arguments are required: network, --out"),
    ]:
        assert main([str(arg) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_internal_error_exits_two(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(citerank.rankstats, "pca", boom)
    rc = main(["pca", "--corr", str(CORR), "--retain", "2", "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "simulated bug" in capsys.readouterr().err


def test_stray_value_error_exits_two(tmp_path, monkeypatch, capsys, score_table):
    # a ValueError that no input check raised is a bug, not a user error
    def boom(*args, **kwargs):
        raise ValueError("simulated stray ValueError")

    monkeypatch.setattr(citerank.rankstats, "compare_columns", boom)
    path, *_ = score_table
    argv = ["compare", str(path), "--col-a", "arwu_score", "--col-b", "pagerank_score",
            "--out", str(tmp_path / "cmp")]
    assert main(argv) == 2
    assert "simulated stray ValueError" in capsys.readouterr().err


def test_non_utf8_inputs_exit_one(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_bytes(b"source,target,weight\nuniversit\xe9,b,1\n")
    assert main(["pagerank", str(edges), "--out", str(tmp_path / "pr")]) == 1
    assert capsys.readouterr().err == f"error: {edges}: not valid UTF-8 (invalid continuation byte)\n"
    records = tmp_path / "records.jsonl"
    records.write_bytes(RECORDS.read_bytes() + b'{"pub_id": "p\xe9"}\n')
    argv = ["build", str(records), "--subject", "TEL", "--out", str(tmp_path / "net")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {records}: not valid UTF-8 (invalid continuation byte)\n"


@pytest.mark.parametrize("kind", ["nodes", "table", "corr", "profiles"])
def test_undecodable_byte_names_its_file(tmp_path, capsys, kind):
    good = {
        "edges": b"source,target,weight\na,b,1\n",
        "nodes": b"institution,in_degree,degree_centrality\na,0,0\nb,1,1\n",
        "table": b"institution,x,y\na,1,2\nb,2,1\nc,3,3\n",
        "corr": b"variable,x,y\nx,1,0.5\ny,0.5,1\n",
        "profiles": b'[{"name": "T", "category": "Telecommunications", "indicator_weights": {"PUB": 1}}]',
    }
    files = {}
    for name, data in good.items():
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_bytes(data.replace(b"1", b"1\xff", 1) if name == kind else data)
    argv = {
        "nodes": ["pagerank", files["edges"], "--nodes", files["nodes"]],
        "table": ["compare", files["table"], "--col-a", "x", "--col-b", "y"],
        "corr": ["pca", "--corr", files["corr"], "--retain", "1"],
        "profiles": ["build", RECORDS, "--subject", "T", "--profiles", files["profiles"]],
    }[kind]
    assert main([*map(str, argv), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {files[kind]}: not valid UTF-8 (invalid start byte)\n"


def test_full_pipeline_byte_determinism(tmp_path):
    # stage inputs once so repeated runs see byte-identical input paths
    shared_net = tmp_path / "net0"
    assert main(["build", str(RECORDS), "--subject", "TEL", "--threshold", "3",
                 "--out", str(shared_net)]) == 0
    results = []
    for run in ("one", "two"):
        root = tmp_path / run
        assert main(["build", str(RECORDS), "--subject", "TEL", "--threshold", "3",
                     "--out", str(root / "net")]) == 0
        assert main(["pagerank", str(shared_net / "edges.csv"),
                     "--out", str(root / "pr")]) == 0
        assert main(["pca", "--corr", str(CORR), "--retain", "2",
                     "--out", str(root / "pca")]) == 0
        results.append(root)
    one, two = (_tree_bytes(r) for r in results)
    assert set(one) == set(two)
    for rel in one:
        if rel.name == "manifest.json":
            a = json.loads(one[rel]); a.pop("created_utc")
            b = json.loads(two[rel]); b.pop("created_utc")
            assert a == b
        else:
            assert one[rel] == two[rel], rel


def test_each_manifest_lists_every_file_its_command_wrote(tmp_path, score_table):
    records = tmp_path / "records.jsonl"
    records.write_text(RECORDS.read_text() + "not json\n")  # so build writes parse_issues.csv
    table, out = score_table[0], tmp_path / "out"
    runs = {
        "net": ["build", records, "--subject", "TEL", "--threshold", "3"],
        "pr": ["pagerank", out / "net" / "edges.csv", "--nodes", out / "net" / "nodes.csv"],
        "cmp": ["compare", table, "--col-a", "arwu_score", "--col-b", "pagerank_score", "--control", "citations"],
        "pca-corr": ["pca", "--corr", CORR, "--retain", "2"],
        "pca-table": ["pca", "--table", table, "--retain", "2"],
        "synth": ["synth", "--nodes", "50", "--seed", "7", "--cartel-size", "5", "--cartel-boost", "20"],
    }
    for name, argv in runs.items():
        assert main([*map(str, argv), "--out", str(out / name)]) == 0
        listed = json.loads((out / name / "manifest.json").read_text())["outputs"]
        assert sorted([*listed, "manifest.json"]) == sorted(p.name for p in (out / name).iterdir()), name
    assert "parse_issues.csv" in json.loads((out / "net" / "manifest.json").read_text())["outputs"]


def test_every_csv_written_parses_to_rows_of_header_width(tmp_path):
    # columns named "x,y" and "x\ry" must stay one field in every table that names them
    records = tmp_path / "records.jsonl"
    records.write_text(RECORDS.read_text() + "not json\n")
    table = tmp_path / "table.csv"
    values = np.random.default_rng(5).random((10, 4))
    rows = [f"inst-{k}," + ",".join(f"{v:.6f}" for v in row) for k, row in enumerate(values)]
    table.write_text('institution,x,y,"x,y","x\ry"\n' + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    for argv in (
        ["build", str(records), "--subject", "TEL", "--threshold", "3", "--out", str(out / "net")],
        ["pagerank", str(out / "net" / "edges.csv"), "--out", str(out / "pr")],
        ["compare", str(table), "--col-a", "x", "--col-b", "y", "--control", "x,y",
         "--control", "x\ry", "--out", str(out / "cmp")],
        ["pca", "--table", str(table), "--retain", "2", "--out", str(out / "pca")],
    ):
        assert main(argv) == 0
    written = sorted(out.rglob("*.csv"))
    assert (out / "net" / "parse_issues.csv") in written
    for path in written:
        header, *body = _read_csv(path)
        assert all(len(row) == len(header) for row in body), path
    statistics = [row[0] for row in _read_csv(out / "cmp" / "report.csv")[1:]]
    assert "partial_r_given_x,y" in statistics
    assert "partial_r_given_x\ry" in statistics


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(*argv, path=(), **variables):
    # a new interpreter with citerank (after `path`) importable; OpenBLAS reads its thread
    # variables once, when numpy loads, and none of them is set there unless given here
    src = str(Path(citerank.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    path = [*map(str, path), src, env.get("PYTHONPATH")]
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, (argv, done.stderr)
    return done.stdout


def test_cli_chain_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: a scipy that cannot be imported breaks nothing
    stub = tmp_path / "stub" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("scipy is not installed")\n')

    def cli(*argv):
        _fresh_python("-m", "citerank.cli", *argv, path=[stub.parent])

    out = tmp_path / "out"
    cli("build", RECORDS, "--subject", "TEL", "--threshold", "3", "--out", out / "net")
    cli("pagerank", out / "net" / "edges.csv", "--out", out / "pr")
    in_degree = {row[0]: row[1] for row in _read_csv(out / "net" / "nodes.csv")[1:]}
    rows = [f"{inst},{score},{in_degree[inst]},{MANIFEST['publication_counts'][inst]}"
            for _rank, inst, score, _norm in _read_csv(out / "pr" / "ranking.csv")[1:]]
    table = tmp_path / "table.csv"
    table.write_text("institution,pagerank,CIT,PUB\n" + "\n".join(rows) + "\n")
    cli("compare", table, "--col-a", "pagerank", "--col-b", "CIT", "--control", "PUB",
        "--out", out / "cmp")
    cli("pca", "--table", table, "--retain", "2", "--out", out / "pca")
    report = json.loads((out / "cmp" / "report.json").read_text())
    assert 0.0 <= report["pearson"]["p"] <= 1.0
    assert "PUB" in report["partial"]


# ---------------------------------------------------------------------------
# Statistics that do not depend on the BLAS thread count
# ---------------------------------------------------------------------------

# a sitecustomize that records, in the file named by THREAD_EVENTS, every write of a
# *_NUM_THREADS variable and the moment numpy loads (audit events see the real launch)
_THREAD_AUDIT = """
import atexit, os, sys
_seen = []
def _hook(event, args):
    if event in ("os.putenv", "os.unsetenv") and os.fsdecode(args[0]).endswith("_NUM_THREADS"):
        _seen.append(" ".join([event, *map(os.fsdecode, args)]))
    elif event == "import" and args[0] == "numpy":
        _seen.append("import numpy")
sys.addaudithook(_hook)
_path = os.environ["THREAD_EVENTS"]
atexit.register(lambda: open(_path, "w", encoding="utf-8").write("\\n".join(_seen)))
"""


@pytest.mark.parametrize("argv", [
    ["-m", "citerank.cli", "--help"],
    ["-c", "import sys; sys.argv[0] = '/bin/citerank'; import citerank"],
    ["-c", "import citerank"],
], ids=["python-m", "console-script", "library"])
def test_no_launch_writes_a_thread_variable(tmp_path, argv):
    # exact sums make the results independent of the thread count, so neither the CLI nor
    # the library touches numpy's threads: they stay as the caller's environment sets them
    (tmp_path / "sitecustomize.py").write_text(_THREAD_AUDIT)
    events = tmp_path / "events.txt"
    _fresh_python(*argv, path=[tmp_path], THREAD_EVENTS=str(events))
    assert events.read_text().split("\n") == ["import numpy"]


def _lognormal_table(tmp_path):
    # above 10,000 rows OpenBLAS may split a dot product across threads, which moved the last
    # digits of r before the sums were exactly rounded (compare differed at 1 and 2 threads)
    values = np.random.default_rng(12000).lognormal(size=(12000, 3))
    table = tmp_path / "table.csv"
    table.write_text("institution,a,b,c\n" + "".join(
        f"i{k},{','.join(map(repr, map(float, row)))}\n" for k, row in enumerate(values)))
    return table, values


# the library battery on the columns saved in the .npy file named by the first argument
_LIBRARY_CALLS = """
import sys, numpy as np
from citerank import compare_columns, correlation_matrix, kendall_w
a, b, c = np.load(sys.argv[1]).T
print(repr(compare_columns(a, b, {"c": c})))
print(repr(kendall_w([a, b, c])))
print(repr(correlation_matrix({"a": a, "b": b, "c": c})[0].tolist()))
"""


def test_statistics_do_not_depend_on_the_blas_thread_count(tmp_path):
    table, values = _lognormal_table(tmp_path)
    np.save(tmp_path / "values.npy", values)
    outputs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / threads
        _fresh_python("-m", "citerank.cli", "compare", table, "--col-a", "a", "--col-b", "b",
                      "--control", "c", "--out", out / "compare", OPENBLAS_NUM_THREADS=threads)
        _fresh_python("-m", "citerank.cli", "pca", "--table", table, "--retain", "2",
                      "--out", out / "pca", OPENBLAS_NUM_THREADS=threads)
        files = {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*"))
                 if path.is_file() and path.name != "manifest.json"}
        library = _fresh_python("-c", _LIBRARY_CALLS, tmp_path / "values.npy", OPENBLAS_NUM_THREADS=threads)
        outputs.append((files, library))
    assert len(outputs[0][0]) == 7
    assert outputs[0] == outputs[1] == outputs[2]


def test_correlation_matrix_is_symmetric_bit_for_bit(tmp_path):
    # np.corrcoef's two halves differed by 1.7e-18 on this table
    table, values = _lognormal_table(tmp_path)
    matrix, _names = correlation_matrix(dict(zip("abc", values.T)))
    assert np.array_equal(matrix, matrix.T)
    assert np.diag(matrix).tolist() == [1.0, 1.0, 1.0]
    assert main(["pca", "--table", str(table), "--retain", "2", "--out", str(tmp_path / "pca")]) == 0
    cells = [row[1:] for row in _read_csv(tmp_path / "pca" / "derived_correlations.csv")[1:]]
    assert cells == [list(column) for column in zip(*cells)]
    assert [cells[k][k] for k in range(3)] == ["1"] * 3


_TABLE = "institution,a,b\ni1,1.0,2.0\ni2,2.0,1.5\ni3,3.0,4.0\ni4,4.5,3.0\n"


@pytest.mark.parametrize("argv, text", [
    (["compare", "{}", "--col-a", "a", "--col-b", "b"], _TABLE),
    (["pca", "--table", "{}", "--retain", "1"], _TABLE),
    (["pagerank", "{}"], "source,target,weight\na,b,1\nb,c,2\nc,a,1\n"),
    (["build", "{}", "--subject", "TEL", "--threshold", "3"], RECORDS.read_text(encoding="utf-8")),
], ids=["compare", "pca-table", "pagerank", "build"])
def test_input_starting_with_a_utf8_bom_reads_as_without(tmp_path, argv, text):
    # spreadsheet programs save "CSV UTF-8" with a byte order mark in front
    outputs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / f"{name}.in"
        path.write_bytes(data)
        out = tmp_path / name
        assert main([arg.format(path) for arg in argv] + ["--out", str(out)]) == 0
        outputs.append({k: v for k, v in _tree_bytes(out).items() if k.name != "manifest.json"})
    assert outputs[0] == outputs[1] and outputs[0]


def test_bad_row_after_a_utf8_bom_names_its_line(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_bytes(b"\xef\xbb\xbf" + b"institution,a,b\ni1,1.0,2.0\ni2,x,1.5\n")
    assert main(["compare", str(path), "--col-a", "a", "--col-b", "b", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}:3: bad number 'x' in column 'a'\n"


# ---------------------------------------------------------------------------
# Start-up: the modules each command loads
# ---------------------------------------------------------------------------

# a sitecustomize that writes the names in sys.modules, at exit, to the file named by MODULES_OUT
_MODULE_DUMP = """
import atexit, os, sys
atexit.register(lambda: open(os.environ["MODULES_OUT"], "w", encoding="utf-8").write("\\n".join(sys.modules)))
"""


def _loaded_modules(tmp_path, *argv):
    (tmp_path / "sitecustomize.py").write_text(_MODULE_DUMP)
    dump = tmp_path / "modules.txt"
    _fresh_python(*argv, path=[tmp_path], MODULES_OUT=dump)
    return set(dump.read_text(encoding="utf-8").split("\n"))


@pytest.mark.parametrize("argv, loads", [
    (["--help"], set()),
    (["build", RECORDS, "--subject", "TEL", "--threshold", "3"], {"citerank.ingest"}),
    (["pagerank", "{edges}"], set()),
    (["compare", "{table}", "--col-a", "a", "--col-b", "b"], {"citerank.rankstats"}),
    (["pca", "--corr", CORR, "--retain", "2"], {"citerank.rankstats"}),
    (["synth", "--nodes", "20", "--seed", "1"], {"citerank.synthnet"}),
], ids=["help", "build", "pagerank", "compare", "pca", "synth"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads):
    inputs = {"edges": tmp_path / "edges.csv", "table": tmp_path / "table.csv"}
    inputs["edges"].write_text("source,target,weight\na,b,1\nb,c,2\nc,a,1\n")
    inputs["table"].write_text(_TABLE)
    argv = [str(arg).format(**inputs) for arg in argv]
    if argv != ["--help"]:
        argv += ["--out", str(tmp_path / "out")]
    loaded = _loaded_modules(tmp_path, "-m", "citerank.cli", *argv)
    assert loaded & {"citerank.ingest", "citerank.rankstats", "citerank.synthnet"} == loads


def test_only_a_command_that_reads_an_edge_list_loads_the_edge_scan(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,weight\na,b,1\nb,c,2\nc,a,1\n")
    pagerank = ["-m", "citerank.cli", "pagerank", edges, "--out", tmp_path / "pr"]
    synth = ["-m", "citerank.cli", "synth", "--nodes", "20", "--seed", "1", "--out", tmp_path / "syn"]
    assert "citerank._edgescan" in _loaded_modules(tmp_path, *map(str, pagerank))
    assert "citerank._edgescan" not in _loaded_modules(tmp_path, *map(str, synth))


def test_cli_import_loads_only_stdlib_numpy_and_citerank(tmp_path):
    added = _loaded_modules(tmp_path, "-c", "import citerank.cli") - _loaded_modules(tmp_path, "-c", "pass")
    allowed = {*sys.stdlib_module_names, "numpy", "citerank"}
    assert "citerank.cli" in added
    assert sorted(name for name in added if name.partition(".")[0] not in allowed) == []


def test_library_names_load_on_first_use():
    for name in set(citerank.__all__) - {"__version__"}:
        value = getattr(citerank, name)
        assert value.__module__.startswith("citerank.")
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from citerank import *", namespace)
    assert set(citerank.__all__) <= set(namespace)
    assert set(citerank.__all__) <= set(dir(citerank))
    with pytest.raises(AttributeError, match=r"^module 'citerank' has no attribute 'x'$"):
        citerank.x


def test_plain_import_reaches_every_submodule_and_keeps_the_pagerank_function():
    script = "\n".join([
        "import citerank",
        "print(*(getattr(citerank, m).__name__ for m in ('ingest', 'scoring', 'rankstats', 'synthnet')))",
        "import citerank.cli",
        "print(type(citerank.pagerank).__name__)",
        "import citerank.pagerank",
        "print(type(citerank.pagerank).__name__)",
    ])
    assert _fresh_python("-c", script).split("\n") == [
        "citerank.ingest citerank.scoring citerank.rankstats citerank.synthnet", "function", "function", "",
    ]
