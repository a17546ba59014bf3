import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import citerank
from citerank import compare_columns, pca
from citerank.cli import main
from citerank.fileio import bundled_data, read_correlation_csv

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
         "edge (0, 1) from 'a' to 'b' has total weight 9223372036854775808, beyond the int64 range"),
    ],
)
def test_pagerank_weights_beyond_int64_exit_one(tmp_path, capsys, rows, message):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,weight\n" + "\n".join(rows) + "\n")
    out = tmp_path / "pr"
    assert main(["pagerank", str(edges), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "ranking.csv").exists()


def test_pagerank_bad_damping_exits_one(cycle_edges, tmp_path, capsys):
    rc = main(["pagerank", str(cycle_edges), "--damping", "1.5", "--out", str(tmp_path / "pr")])
    assert rc == 1
    assert "damping" in capsys.readouterr().err


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
    path, _, _, _ = score_table
    out = tmp_path / "cmp"
    rc = main(["compare", str(path), "--col-a", "arwu_score", "--col-b", "arwu_score",
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


def test_pca_retain_larger_than_dimension_exits_one(tmp_path, capsys):
    rc = main(["pca", "--corr", str(CORR), "--retain", "7", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "retain" in capsys.readouterr().err


def test_pca_invalid_matrix_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("variable,a,b\na,1.0,0.5\nb,0.4,1.0\n")
    rc = main(["pca", "--corr", str(path), "--retain", "1", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "symmetric" in capsys.readouterr().err


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


def test_internal_error_exits_two(tmp_path, monkeypatch, capsys):
    import citerank.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(cli_mod.rankstats, "pca", boom)
    rc = main(["pca", "--corr", str(CORR), "--retain", "2", "--out", str(tmp_path / "p")])
    assert rc == 2
    assert "simulated bug" in capsys.readouterr().err


def test_stray_value_error_exits_two(tmp_path, monkeypatch, capsys, score_table):
    # a ValueError that no input check raised is a bug, not a user error
    import citerank.cli as cli_mod

    def boom(*args, **kwargs):
        raise ValueError("simulated stray ValueError")

    monkeypatch.setattr(cli_mod.rankstats, "compare_columns", boom)
    path, *_ = score_table
    argv = ["compare", str(path), "--col-a", "arwu_score", "--col-b", "pagerank_score",
            "--out", str(tmp_path / "cmp")]
    assert main(argv) == 2
    assert "simulated stray ValueError" in capsys.readouterr().err


def test_non_utf8_inputs_exit_one(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_bytes(b"source,target,weight\nuniversit\xe9,b,1\n")
    assert main(["pagerank", str(edges), "--out", str(tmp_path / "pr")]) == 1
    assert "can't decode byte 0xe9" in capsys.readouterr().err
    records = tmp_path / "records.jsonl"
    records.write_bytes(RECORDS.read_bytes() + b'{"pub_id": "p\xe9"}\n')
    argv = ["build", str(records), "--subject", "TEL", "--out", str(tmp_path / "net")]
    assert main(argv) == 1
    assert "can't decode byte 0xe9" in capsys.readouterr().err


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


def test_cli_import_loads_no_scipy():
    # scipy costs ~0.3 s per process; only p-values need it, imported on use
    src = str(Path(citerank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, citerank.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert "citerank" in loaded
    assert "scipy" not in loaded
