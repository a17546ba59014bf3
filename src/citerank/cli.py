"""Command-line frontend.

Subcommands mirror the pipeline stages so every intermediate artifact lands
on disk and can be inspected or reused:

    citerank build     records.jsonl --subject TEL --out DIR
    citerank pagerank  edges.csv --nodes nodes.csv --out DIR
    citerank compare   table.csv --col-a arwu_score --col-b pagerank_score --out DIR
    citerank pca       --corr matrix.csv --retain 2 --out DIR
    citerank synth     --nodes 100 --seed 7 --out DIR

Whether same-institution citations count is decided once, by build
--self-loops; pagerank ranks the edge list exactly as written, so it gives
the same ranking as the library pipeline with or without self-loop rows.

Exit codes: 0 on success, 1 on user/input errors, 2 on internal errors.
Every run writes a manifest.json recording inputs, flags and the package
version; apart from the manifest timestamp, outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

# every command needs these; each command imports the rest it runs itself, so a
# command's start-up compiles only its own modules
from . import __version__, fileio, network, scoring
from .errors import CiteRankError, EmptyNetworkError, EncodingError, InputError
from .errors import MissingColumnError, NumericError
from .pagerank import DanglingPolicy, PageRankConfig, pagerank

if TYPE_CHECKING:
    from . import ingest

PROFILE_ENV_VAR = "CITERANK_PROFILES"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; we reserve 2 for bugs
    def error(self, message):
        raise InputError(message)


@dataclass
class RunManifest:
    """Record of one CLI invocation; making one creates --out, and path(name) lists each output."""

    command: str
    out: Path
    inputs: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self.out = Path(self.out)
        self.out.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        """Where to write the output `name`, now listed in the manifest."""
        self.outputs.append(name)
        return self.out / name

    def write(self) -> None:
        payload = {
            "command": self.command,
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "flags": self.flags,
            "outputs": sorted(self.outputs),
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        fileio.write_json(payload, self.out / "manifest.json")


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"input file not found: {p}")
    return p


def _load_profiles(explicit_path: str | None) -> dict[str, ingest.SubjectProfile]:
    from . import ingest
    profiles = ingest.default_profiles()
    path = explicit_path or os.environ.get(PROFILE_ENV_VAR)
    if path:
        profiles.update(ingest.load_profiles(_require_file(path)))
    return profiles


def _pick_profile(profiles: dict[str, ingest.SubjectProfile], name: str) -> ingest.SubjectProfile:
    if name not in profiles:
        raise InputError(f"unknown subject {name!r}; available: {', '.join(sorted(profiles))}")
    return profiles[name]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    from . import ingest
    profile = _pick_profile(_load_profiles(args.profiles), args.subject)
    if args.threshold is not None:
        profile = replace(profile, publication_threshold=args.threshold)
    records_path = _require_file(args.records)
    try:
        with open(records_path, encoding="utf-8-sig") as handle:
            parsed = ingest.parse_records(handle, strict=args.strict)
    except UnicodeDecodeError as exc:
        raise EncodingError(records_path, exc) from exc
    if not parsed.records:
        raise InputError("no records parsed from input")

    rows = ingest.filter_records(parsed.records, profile)
    if not rows.any():
        raise InputError(
            f"no records match subject {profile.name!r} "
            f"(category {profile.category!r}, years {profile.year_range})"
        )
    retained = ingest.apply_threshold(parsed.records, rows, profile)
    if not retained:
        raise InputError(
            f"no institution reaches the publication threshold {profile.publication_threshold}"
        )
    net = ingest.build_network(parsed.records, rows, retained, keep_self_loops=args.self_loops)
    report = network.degree_report(net)

    manifest = RunManifest(
        command="build",
        out=args.out,
        inputs={"records": records_path},
        flags={
            "subject": profile.name,
            "threshold": profile.publication_threshold,
            "year_range": list(profile.year_range),
            "self_loops": args.self_loops,
            "strict": args.strict,
        },
    )
    if parsed.issues:
        issues = ([issue.line, issue.message] for issue in parsed.issues)
        fileio.write_csv(manifest.path("parse_issues.csv"), ["line", "message"], issues)
        print(f"skipped {len(parsed.issues)} malformed line(s); see parse_issues.csv")
    fileio.write_edge_list(net, manifest.path("edges.csv"))
    fileio.write_nodes_csv(net, manifest.path("nodes.csv"), report.in_degree, report.degree_centrality)
    fileio.write_distribution_csv(report.centrality_distribution, manifest.path("centrality_distribution.csv"))
    fileio.write_json(
        {
            "subject": profile.name,
            "nodes": net.n_nodes,
            "citations": net.total_weight,
            "edges": net.n_edges,
            "self_loops_included": args.self_loops,
            "records_used": int(rows.sum()),
            "records_parsed": len(parsed.records),
        },
        manifest.path("summary.json"),
    )
    manifest.write()
    print(
        f"built {profile.name} network: {net.n_nodes} institutions, "
        f"{net.n_edges} edges, {net.total_weight} citations"
    )
    return 0


def _cmd_pagerank(args) -> int:
    ids, sources, targets, weights = fileio.read_edge_list(_require_file(args.network))
    nodes = fileio.read_score_table(_require_file(args.nodes)).institutions if args.nodes else ()
    if not ids and not nodes:
        raise EmptyNetworkError("edge list is empty")
    net = network.CitationNetwork.from_edges(sources, targets, weights, extra_nodes=nodes, ids=ids)
    del ids, sources, targets, weights, nodes  # the network has its own copy; free these before ranking
    cfg = PageRankConfig(
        damping=args.damping,
        tolerance=args.tol,
        max_iterations=args.max_iter,
        dangling_policy=DanglingPolicy(args.dangling),
    )
    result = pagerank(net, cfg)
    if not result.converged:
        raise NumericError(
            f"PageRank did not converge in {cfg.max_iterations} iterations "
            f"(last delta {result.final_delta:.3e}); raise --max-iter or --tol"
        )
    normalized = scoring.normalize_pagerank(result.scores)
    manifest = RunManifest(
        command="pagerank",
        out=args.out,
        inputs={"network": args.network},
        flags={
            "damping": args.damping,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "dangling": cfg.dangling_policy.value,
            "iterations_used": result.iterations_used,
        },
    )
    if args.nodes:
        manifest.inputs["nodes"] = args.nodes
    fileio.write_ranking_csv(manifest.path("ranking.csv"), net.node_ids, result.scores, normalized)
    manifest.write()
    print(f"ranked {net.n_nodes} institutions in {result.iterations_used} iterations")
    return 0


def _columns(table: scoring.ScoreTable, names) -> list:
    """The named columns of a score table, in the order given; each may be named once."""
    for k, name in enumerate(names):
        if name not in table.columns:
            raise MissingColumnError(
                f"table has no column {name!r}; available: {', '.join(table.column_names)}"
            )
        if name in names[:k]:
            raise InputError(f"column {name!r} is named twice")
    return [table.columns[name] for name in names]


def _cmd_compare(args) -> int:
    from . import rankstats
    table = fileio.read_score_table(_require_file(args.table))
    a, b, *controls = _columns(table, [args.col_a, args.col_b, *args.control])
    report = rankstats.compare_columns(a, b, dict(zip(args.control, controls)))
    manifest = RunManifest(
        command="compare",
        out=args.out,
        inputs={"table": args.table},
        flags={"col_a": args.col_a, "col_b": args.col_b, "controls": list(args.control)},
    )
    fileio.write_json(report.to_dict(), manifest.path("report.json"))
    stats = asdict(report)  # the scalars, in field order, then the partials and displacement
    partial, displacement = stats.pop("partial"), stats.pop("displacement")
    for name, (r, p) in sorted(partial.items()):
        stats[f"partial_r_given_{name}"], stats[f"partial_p_given_{name}"] = r, p
    stats.update((f"displacement_{key}", value) for key, value in displacement.items())
    fileio.write_csv(
        manifest.path("report.csv"),
        ["statistic", "value"],
        ([name, fileio.fmt(value)] for name, value in stats.items()),
        lineterminator="\n",
    )
    manifest.write()
    print(
        f"compared {args.col_a!r} vs {args.col_b!r}: "
        f"pearson {report.pearson_r:.4f}, spearman {report.spearman_rho:.4f}, "
        f"W {report.kendall_w:.4f}"
    )
    return 0


def _cmd_pca(args) -> int:
    from . import rankstats
    if args.corr is not None and args.columns is not None:
        raise InputError("--columns needs --table; --corr reads every variable of the matrix")
    if args.corr is not None:
        matrix, names = fileio.read_correlation_csv(_require_file(args.corr))
        inputs, flags = {"corr": args.corr}, {}
    else:
        table = fileio.read_score_table(_require_file(args.table))
        names = [n.strip() for n in args.columns.split(",")] if args.columns else table.column_names
        matrix, names = rankstats.correlation_matrix(dict(zip(names, _columns(table, names))))
        inputs, flags = {"table": args.table}, {"columns": list(names)}
    result = rankstats.pca(matrix, retain=args.retain, variables=names)
    manifest = RunManifest(command="pca", out=args.out, inputs=inputs, flags={"retain": args.retain, **flags})
    if args.table is not None:
        fileio.write_correlation_csv(matrix, names, manifest.path("derived_correlations.csv"))

    rotated = [fileio.fmt(share) for share in result.rotated_variance_share[: result.retained]]
    fileio.write_csv(
        manifest.path("variance.csv"),
        ["component", "eigenvalue", "explained_share", "rotated_variance_share"],
        (
            [k + 1, fileio.fmt(value), fileio.fmt(share), rotated[k] if k < len(rotated) else ""]
            for k, (value, share) in enumerate(zip(result.eigenvalues, result.explained_share))
        ),
        lineterminator="\n",
    )
    fileio.write_loadings_csv(result.variables, result.loadings, manifest.path("loadings_initial.csv"))
    fileio.write_loadings_csv(result.variables, result.rotated_loadings, manifest.path("loadings_rotated.csv"))
    fileio.write_json(asdict(result), manifest.path("pca.json"))
    manifest.write()
    top = float(result.explained_share[: args.retain].sum())
    print(
        f"retained {args.retain} of {len(result.eigenvalues)} components "
        f"explaining {top:.4f} of the variance"
    )
    return 0


def _cmd_synth(args) -> int:
    from . import synthnet
    cartel = None
    if args.cartel_boost is not None and args.cartel_size is None:
        raise InputError("--cartel-boost requires --cartel-size")
    if args.cartel_size is not None:
        if args.cartel_boost is None:
            raise InputError("--cartel-size requires --cartel-boost")
        cartel = synthnet.CartelSpec(args.cartel_size, args.cartel_boost)
    cfg = synthnet.SynthConfig(
        n_nodes=args.nodes,
        mean_out_citations=args.mean_out,
        attachment_exponent=args.exponent,
        cartel=cartel,
        seed=args.seed,
    )
    traced = synthnet.generate_traced(cfg)
    manifest = RunManifest(
        command="synth",
        out=args.out,
        flags={
            "nodes": args.nodes,
            "mean_out": args.mean_out,
            "exponent": args.exponent,
            "cartel_size": args.cartel_size,
            "cartel_boost": args.cartel_boost,
            "seed": args.seed,
            "cartel_members": list(traced.cartel_members),
        },
    )
    fileio.write_edge_list(traced.network, manifest.path("edges.csv"))
    manifest.write()
    net = traced.network
    print(f"generated network: {net.n_nodes} nodes, {net.n_edges} edges, {net.total_weight} citations")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citerank",
        description="Institution citation networks, PageRank scores, and ranking comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a citation network from JSONL records")
    p_build.set_defaults(run=_cmd_build)
    p_build.add_argument("records", help="JSON Lines publication records")
    p_build.add_argument("--subject", required=True, help="subject profile name (e.g. TEL)")
    p_build.add_argument("--profiles", help=f"profile config JSON (or ${PROFILE_ENV_VAR})")
    p_build.add_argument("--threshold", type=int, help="override the publication threshold")
    p_build.add_argument("--self-loops", action="store_true", help="keep same-institution citations")
    p_build.add_argument("--strict", action="store_true", help="fail on the first malformed line")
    p_build.add_argument("--out", required=True, help="output directory")

    p_pr = sub.add_parser("pagerank", help="rank institutions in an edge-list network")
    p_pr.set_defaults(run=_cmd_pagerank)
    p_pr.add_argument("network", help="edge list CSV (source,target,weight)")
    p_pr.add_argument("--nodes", help="nodes.csv of the network: rank every institution it lists")
    p_pr.add_argument("--damping", type=float, default=PageRankConfig.damping)
    p_pr.add_argument("--tol", type=float, default=PageRankConfig.tolerance)
    p_pr.add_argument("--max-iter", type=int, default=PageRankConfig.max_iterations)
    p_pr.add_argument(
        "--dangling",
        choices=[p.value for p in DanglingPolicy],
        default=PageRankConfig.dangling_policy.value,
        help="how to spread the mass of institutions with no outgoing citations",
    )
    p_pr.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", help="run the comparison battery on two score columns")
    p_cmp.set_defaults(run=_cmd_compare)
    p_cmp.add_argument("table", help="score table CSV (institution,<column>,...)")
    p_cmp.add_argument("--col-a", required=True)
    p_cmp.add_argument("--col-b", required=True)
    p_cmp.add_argument(
        "--control", action="append", default=[], help="partial-correlation control column (repeatable)"
    )
    p_cmp.add_argument("--out", required=True)

    p_pca = sub.add_parser("pca", help="principal components of a correlation matrix")
    p_pca.set_defaults(run=_cmd_pca)
    source = p_pca.add_mutually_exclusive_group(required=True)
    source.add_argument("--corr", help="correlation matrix CSV (variable,<name>,...)")
    source.add_argument("--table", help="score table CSV to standardize and correlate")
    p_pca.add_argument("--columns", help="comma-separated table columns (default: all)")
    p_pca.add_argument("--retain", type=int, required=True, help="components to retain and rotate")
    p_pca.add_argument("--out", required=True)

    p_syn = sub.add_parser("synth", help="generate a seeded synthetic citation network")
    p_syn.set_defaults(run=_cmd_synth)
    p_syn.add_argument("--nodes", type=int, required=True)
    p_syn.add_argument("--mean-out", type=float, default=5.0)
    p_syn.add_argument("--exponent", type=float, default=1.0)
    p_syn.add_argument("--cartel-size", type=int)
    p_syn.add_argument("--cartel-boost", type=int)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (CiteRankError, OSError) as exc:  # an input that is not UTF-8 raises EncodingError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
