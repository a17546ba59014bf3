"""Closed-loop benchmark of the citerank CLI pipeline.

    python3 perfbench/run.py --workload dense-network --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs the workload's chain of `python -m citerank.cli` commands,
one subprocess at a time, each waiting for the previous one, again and again
until `--seconds` have passed. Inputs are drawn from `--seed`; citerank sees
only the generated files (and, for `synth`, a seed derived from it). Every
output is checked against oracles in oracles.py, and every chain of a run
must reproduce the first chain's data files byte for byte.

With `--trace 1` the chain runs in this process through `citerank.cli.main`,
alternating untraced chains with chains traced by spans.py, and the run
reports per-layer self times and counts instead of end-to-end metrics.

The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; with `--workload all` it sums the counts
of every workload and names each metric `<workload>.<metric>`. A CLI
invocation fails when it exits non-zero or one of its outputs fails a check,
and the benchmark then exits with code 1. Each run writes its inputs,
outputs and a `record.json` with their SHA-256 under perfbench/work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
from workloads import SUBJECT, Corpus, RecordSpec, SynthSpec, make_corpus, synth_seed, write_lines

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
MIN_CHAINS = 3
MIN_SETUP_SAMPLES = 5
PROBE_LOOP = 200_000
PROBE_REFERENCE_S = 0.015  # probe time of the reference host speed


# why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS: dict[str, RecordSpec | SynthSpec] = {
    "dense-network": RecordSpec(
        records=4000, institutions=2000, refs=(10, 10), affiliations=(2, 2), outside_share=0.0,
        off_subject_share=0.0, malformed_share=0.0, threshold=3, skew=0.5,
    ),
    "ingest-wide": RecordSpec(
        records=8000, institutions=20000, refs=(10, 30), affiliations=(1, 3), outside_share=0.9,
        off_subject_share=0.2, malformed_share=0.005, threshold=2,
    ),
    "synth-cartel": SynthSpec(nodes=4000, mean_out=5.0, cartel_size=10, cartel_boost=20),
}

END_TO_END = {
    "pipeline_s": "s", "edges_s": "s", "rank_s": "s", "stats_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


@dataclass
class Step:
    command: str
    argv: list[str]


@dataclass
class Plan:
    """One workload at one seed: inputs on disk, the chain and its checks."""

    seed: int
    work: Path
    steps: list[Step]
    compared: tuple[str, str]  # the --col-a and --col-b of `compare`
    inputs: list[Path]
    node_ids: list[str]
    corpus: Corpus | None = None
    synth: SynthSpec | None = None

    @property
    def table(self) -> Path:
        return self.work / "table.csv"

    def out(self, command: str) -> Path:
        return self.work / "out" / command

    def write_table(self) -> None:
        """Score table for `compare` and `pca`: PageRank next to other indicators."""
        ranking = oracles.read_rows(self.out("pagerank") / "ranking.csv")[1:]
        ranked = sorted((row[1], row[2]) for row in ranking)
        if self.corpus is None:
            cit = oracles.in_citations(oracles.read_edges(self.out("synth") / "edges.csv"))
            rows = [[inst, score, str(cit.get(inst, 0))] for inst, score in ranked]
            header = ["institution", "pagerank_score", "CIT"]
        else:
            cit = oracles.in_citations(self.corpus.edges)
            # an institution missing from the recount is a build error that
            # the checks report; it gets 0 here so the chain can go on
            pubs = [self.corpus.publications.get(inst, 0) for inst, _score in ranked]
            noise = np.random.default_rng([self.seed, 1]).lognormal(0.0, 0.3, size=len(ranked))
            rows = [
                [inst, score, repr(float(np.sqrt(pub) * k)), str(pub), str(cit.get(inst, 0))]
                for (inst, score), pub, k in zip(ranked, pubs, noise)
            ]
            header = ["institution", "pagerank_score", "ind_score", "PUB", "CIT"]
        with open(self.table, "w", encoding="utf-8") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(",".join(row) + "\n" for row in rows)

    def check(self, stdout: dict[str, str]) -> dict[str, list[str]]:
        """Problems found in the current outputs, by the command that wrote them."""
        problems: dict[str, list[str]] = {}
        if self.corpus is not None:
            problems["build"] = oracles.check_build(self.out("build"), self.corpus)
            edges = oracles.read_edges(self.out("build") / "edges.csv")
        else:
            spec = self.synth
            problems["synth"] = oracles.check_synth(
                self.out("synth"), stdout["synth"], spec.nodes, spec.cartel_size, spec.cartel_boost
            )
            edges = oracles.read_edges(self.out("synth") / "edges.csv")
        problems["pagerank"] = oracles.check_ranking(edges, self.out("pagerank") / "ranking.csv")
        table = oracles.read_table(self.table)
        problems["compare"] = oracles.check_compare(self.out("compare") / "report.json", table, *self.compared)
        if "pca" in stdout:
            problems["pca"] = oracles.check_pca(self.out("pca"), table)
        return {command: found for command, found in problems.items() if found}

    def dropped_nodes(self) -> int:
        return oracles.dropped_nodes(self.node_ids, self.out("pagerank") / "ranking.csv")


def prepare(name: str, seed: int) -> Plan:
    """Generate the workload's inputs under perfbench/work/<name>/."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    source = WORKLOADS[name]

    def out(command: str) -> str:
        return str(work / "out" / command)

    table = str(work / "table.csv")
    if isinstance(source, RecordSpec):
        records = work / "records.jsonl"
        corpus = make_corpus(source, seed)
        write_lines(corpus.lines, records)
        corpus.lines = []  # on disk now; the checks need only the recount
        steps = [
            Step("build", ["build", str(records), "--subject", SUBJECT,
                           "--threshold", str(source.threshold), "--out", out("build")]),
            Step("pagerank", ["pagerank", f"{out('build')}/edges.csv", "--out", out("pagerank")]),
            Step("compare", ["compare", table, "--col-a", "ind_score", "--col-b", "pagerank_score",
                             "--control", "PUB", "--control", "CIT", "--out", out("compare")]),
            Step("pca", ["pca", "--table", table, "--retain", "2", "--out", out("pca")]),
        ]
        return Plan(seed, work, steps, ("ind_score", "pagerank_score"), [records], corpus.nodes, corpus=corpus)
    steps = [
        Step("synth", ["synth", "--nodes", str(source.nodes), "--mean-out", str(source.mean_out),
                       "--cartel-size", str(source.cartel_size), "--cartel-boost", str(source.cartel_boost),
                       "--seed", str(synth_seed(seed)), "--out", out("synth")]),
        Step("pagerank", ["pagerank", f"{out('synth')}/edges.csv", "--out", out("pagerank")]),
        Step("compare", ["compare", table, "--col-a", "CIT", "--col-b", "pagerank_score", "--out", out("compare")]),
    ]
    width = len(str(source.nodes - 1))
    node_ids = [f"inst-{i:0{width}d}" for i in range(source.nodes)]
    return Plan(seed, work, steps, ("CIT", "pagerank_score"), [], node_ids, synth=source)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(plan: Plan) -> dict[str, str]:
    """SHA-256 of every data output; manifests carry a timestamp and are left out."""
    root = plan.work / "out"
    return {
        str(path.relative_to(root)): sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


@dataclass
class StepResult:
    seconds: float
    returncode: int
    stdout: str
    rss_mb: float = 0.0
    probe_s: float = PROBE_REFERENCE_S  # host speed probe around the step

    @property
    def adjusted(self) -> float:
        """Wall time scaled to the reference host speed."""
        return self.seconds * PROBE_REFERENCE_S / self.probe_s


def probe() -> float:
    """This host's current speed: median time of a fixed pure-Python loop, run 3 times."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_subprocess(argv: list[str], logs: Path) -> StepResult:
    """Run `python argv...` through launch.py, which times it and reads its peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    measured = logs / "launch.json"
    launcher = [sys.executable, "-I", "-S", str(LAUNCH), str(measured), sys.executable, *argv]
    with open(logs / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(logs / "stderr.txt", "w+", encoding="utf-8") as err:
        subprocess.run(launcher, stdout=out, stderr=err, env=env, cwd=ROOT, check=True)
        result = json.loads(measured.read_text())
        out.seek(0)
        err.seek(0)
        stdout = out.read()
        if result["returncode"] != 0:
            sys.stderr.write(err.read())
    return StepResult(result["seconds"], result["returncode"], stdout, result["maxrss_kb"] / 1024.0)


class Chains:
    """Runs a plan's chain repeatedly and keeps score of invocations."""

    def __init__(self, plan: Plan, run_step) -> None:
        self.plan = plan
        self.run_step = run_step
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.stdout: dict[str, str] = {}

    def run(self) -> dict[str, StepResult] | None:
        """One pass over the chain; None if a command exited non-zero."""
        results = {}
        for step in self.plan.steps:
            self.attempted += 1
            result = self.run_step(step)
            results[step.command] = result
            if result.returncode != 0:
                self.failed += 1
                self.problems.append(f"{step.command} exited {result.returncode}")
                return None
            if step.command == "pagerank" and not self.plan.table.exists():
                self.plan.write_table()
        digests = output_digests(self.plan)
        if self.digests is None:
            self.digests = digests
            self.stdout = {command: r.stdout for command, r in results.items()}
        elif digests != self.digests:
            changed = sorted(k for k in digests.keys() | self.digests.keys()
                             if digests.get(k) != self.digests.get(k))
            self.failed += len({k.split("/")[0] for k in changed})
            self.problems.append(f"outputs differ from the first chain: {', '.join(changed)}")
            return None
        return results

    def verify(self) -> None:
        """Check the outputs, which every chain reproduced byte for byte."""
        found = self.plan.check(self.stdout)
        self.failed += len(found)
        self.problems += [f"{command}: {p}" for command, found_ in found.items() for p in found_]


def loop(seconds: float, once) -> None:
    """Call `once` while another call fits in `seconds`, at least MIN_CHAINS times."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done < MIN_CHAINS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if not once():
            return
        last = time.perf_counter() - began
        done += 1


def median(values) -> float:
    return float(statistics.median(values))


def measure(plan: Plan, seconds: float) -> tuple[Chains, dict, dict]:
    """Untraced run: CLI subprocesses and fresh-interpreter import samples.

    The host this runs on changes speed by up to 40% over minutes, in step
    on both cores. A probe before and after every subprocess measures that
    speed, and the bounded metrics scale each wall time to the reference
    speed, so that runs at different times compare. Raw wall times are
    printed and recorded next to them.
    """
    logs = plan.work / "logs"
    logs.mkdir()
    last_probe = [probe()]

    def run_probed(argv: list[str]) -> StepResult:
        result = run_subprocess(argv, logs)
        after = probe()
        result.probe_s = (last_probe[0] + after) / 2
        last_probe[0] = after
        return result

    chains = Chains(plan, lambda step: run_probed(["-m", "citerank.cli", *step.argv]))
    setup: list[StepResult] = []

    def setup_sample() -> StepResult:
        result = run_probed(["-c", "import citerank.cli"])
        if result.returncode != 0:
            raise SystemExit("error: cannot import citerank.cli")
        return result

    setup_sample()  # writes the bytecode caches, which users pay once per install
    samples: list[dict[str, StepResult]] = []

    def once() -> bool:
        results = chains.run()
        if results is None:
            return False
        samples.append(results)
        if len(samples) % 2:
            setup.append(setup_sample())
        return True

    loop(seconds, once)
    if not samples:
        return chains, {}, {}
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample())

    def times(seconds_of) -> dict[str, list[float]]:
        steps = {f"{command}_s": [seconds_of(s[command]) for s in samples] for command in samples[0]}
        return {
            "pipeline_s": [sum(seconds_of(r) for r in s.values()) for s in samples],
            "edges_s": steps.get("build_s") or steps["synth_s"],
            "rank_s": steps["pagerank_s"],
            "stats_s": [sum(seconds_of(r) for c, r in s.items() if c in ("compare", "pca")) for s in samples],
            "setup_s": [seconds_of(r) for r in setup],
            **steps,
        }

    series = times(lambda r: r.adjusted)
    series["peak_rss_mb"] = [max(r.rss_mb for r in s.values()) for s in samples]
    metrics = {key: (median(series[key]), unit) for key, unit in END_TO_END.items()}
    raw = {f"raw.{key}": values for key, values in times(lambda r: r.seconds).items()}
    probes = {"probe_s": [r.probe_s for s in samples for r in s.values()]}
    return chains, metrics, {"samples": {**series, **raw, **probes}}


def trace_run(plan: Plan, seconds: float) -> tuple[Chains, dict, dict]:
    """In-process run alternating untraced and traced chains."""
    sys.path.insert(0, str(SRC))
    import citerank.cli
    import spans

    tracer: spans.Tracer | None = None

    def run_step(step: Step) -> StepResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is None:
                rc = citerank.cli.main(step.argv)
            else:
                rc = tracer.call(f"cli.{step.command}", citerank.cli.main, step.argv)
            elapsed = time.perf_counter() - start
        if rc != 0:
            sys.stderr.write(err.getvalue())
        return StepResult(elapsed, rc, out.getvalue())

    chains = Chains(plan, run_step)
    commands = [step.command for step in plan.steps]
    expected = sorted({name for command in commands for name in spans.COMMAND_SPANS[command]})
    plain: list[float] = []
    traced: list[float] = []
    tracers: list[spans.Tracer] = []
    if chains.run() is None:  # warm-up: lazy imports and first-touch allocation
        return chains, {}, {}

    def once() -> bool:
        nonlocal tracer
        results = chains.run()
        if results is None:
            return False
        plain.append(sum(r.seconds for r in results.values()))
        tracer = spans.Tracer()
        with spans.traced(tracer):
            results = chains.run()
        current, tracer = tracer, None
        if results is None:
            return False
        missing = [name for name in expected if current.calls[name] == 0]
        if missing:
            chains.failed += 1
            chains.problems.append(f"spans never opened: {', '.join(missing)}")
            return False
        traced.append(sum(r.seconds for r in results.values()))
        tracers.append(current)
        return True

    loop(seconds, once)
    if not tracers:
        return chains, {}, {}
    metrics: dict[str, tuple[float, str]] = {}
    for name in spans.span_names():
        metrics[f"{name}.s"] = (median([t.self_time(name) for t in tracers]), "s")
    for command in spans.COMMAND_SPANS:
        root = f"cli.{command}"
        metrics[f"{root}.self_s"] = (median([t.self_time(root) for t in tracers]), "s")
        metrics[f"{root}.wall_s"] = (median([t.wall_s.get(root, 0.0) for t in tracers]), "s")
    counts = tracers[-1].counts
    for key, unit in (
        ("ingest.parse_records.records", "count"), ("ingest.parse_records.issues", "count"),
        ("ingest.build_network.citations", "count"), ("network.edges", "count"),
        ("pagerank.iterations", "count"), ("fileio.bytes_written", "B"),
        ("fileio.bytes_read", "B"), ("synthnet.citations", "count"),
    ):
        metrics[key] = (float(counts[key]), unit)
    refs = counts["ingest.references_read"]
    metrics["ingest.kept_ref_ratio"] = (counts["ingest.build_network.citations"] / refs if refs else 0.0, "ratio")
    metrics["cli.rank_dropped_nodes"] = (float(plan.dropped_nodes()), "count")
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    by_command = {
        root: {span: median([t.self_s[(root, span)] for t in tracers])
               for (r, span) in tracers[-1].self_s if r == root}
        for root in tracers[-1].wall_s
    }
    extra = {"by_command": by_command, "samples": {"inprocess_pipeline_s": plain, "traced_pipeline_s": traced}}
    return chains, metrics, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload; return its result, or None if nothing was measured."""
    start = time.perf_counter()
    plan = prepare(name, seed)
    generated = time.perf_counter() - start
    chains, metrics, extra = (trace_run if trace else measure)(plan, seconds)
    if chains.digests is not None:
        chains.verify()
    for problem in chains.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    inputs = {str(p.relative_to(plan.work)): sha256(p) for p in [*plan.inputs, plan.table] if p.exists()}
    record = {
        "workload": name, "seed": seed, "trace": trace,
        "inputs": inputs, "outputs": chains.digests,
        "metrics": {key: value for key, (value, _unit) in metrics.items()},
        "attempted": chains.attempted, "failed": chains.failed, "problems": chains.problems,
        **extra,
    }
    (plan.work / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {name} seed={seed} trace={int(trace)}: inputs generated in {generated:.2f} s")
    for rel, digest in inputs.items():
        print(f"#   input  {rel} sha256={digest}")
    for rel, digest in (chains.digests or {}).items():
        print(f"#   output {rel} sha256={digest}")
    rate = chains.failed / chains.attempted if chains.attempted else 0.0
    print(f"#   {'error_rate':<36} {rate:12.4f} ratio   n={chains.attempted} invocations")
    if chains.digests is not None and not trace:
        print(f"#   {'cli.rank_dropped_nodes':<36} {plan.dropped_nodes():12d} count")
    for key, values in extra.get("samples", {}).items():
        unit = END_TO_END.get(key, "s")
        print(f"#   {key:<36} {median(values):12.4f} {unit:<7} n={len(values)} (median)")
    for key, (value, unit) in metrics.items():
        if key not in END_TO_END:
            print(f"#   {key:<36} {value:12.6f} {unit}")
    if not metrics:
        return None
    return {
        "correct": chains.failed == 0,
        "attempted": chains.attempted,
        "failed": chains.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "citerank" / "cli.py").is_file():
        print(f"error: no citerank sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"error: {name} produced no measurement", file=sys.stderr)
            return 1
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        # one line for every workload: counts summed, metrics named <workload>.<metric>
        for name, result in results.items():
            print(f"# {name}: {json.dumps(result)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
