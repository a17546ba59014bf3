"""Record the benchmark's baseline at the current commit.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs every workload of BENCHMARK.json ten times untraced, on seeds 1-10,
and once traced. Writes the environment, each end-to-end
metric's median and quartile spread next to its bound, the per-layer
numbers, and each layer's share of the CLI step it runs in, next to the
re-anchor stage table of ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ROADMAP.md re-anchor, 50k records, 10 refs each, 2,000 institutions, 1.57M edges
ROADMAP_STAGES_S = {
    "parse": 5.3,
    "build_network": 9.3,
    "normalize_weights": 7.0,
    "solver": 0.5,
    "degree_report": 1.5,
    "write_edge_list": 7.0,
    "read_edge_list": 3.9,
    "from_edges": 6.5,
    "cli_build": 20.3,
    "cli_pagerank": 11.8,
}

RUNS = 10
FIRST_SEED = 1

# layer groups of each CLI step, by span name prefix
LAYERS = ("ingest", "network", "pagerank", "fileio", "scoring", "rankstats", "synthnet")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: outputs failed their checks\n{done.stderr}")
    record = json.loads((HERE / "work" / workload / "record.json").read_text())
    return {"result": result, "record": record}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "platform": platform.platform(),
    }


def layer_shares(by_command: dict, step_medians: dict) -> dict:
    """Each layer's share of its command, from one traced run.

    Layer self times divide the command's in-process wall time, measured in
    the same traced chains. `startup` is the fresh interpreter's share of
    the command as a subprocess, from the untraced medians.
    """
    shares = {}
    for root, spans in by_command.items():
        command = root.removeprefix("cli.")
        wall = sum(spans.values())
        row = {layer: sum(t for name, t in spans.items() if name.startswith(layer + ".")) / wall
               for layer in LAYERS}
        row["cli_self"] = spans[root] / wall
        row = {k: round(v, 4) for k, v in row.items() if v}
        row["inprocess_s"] = round(wall, 4)
        row["startup"] = round(step_medians["setup_s"] / step_medians[f"{command}_s"], 4)
        shares[command] = row
    return shares


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out: dict = {"environment": environment(), "run_seconds": seconds, "runs": RUNS,
                 "roadmap_reanchor_s": ROADMAP_STAGES_S, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            runs.append(run(name, seed, seconds, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{name} seed {seed}: {values}", flush=True)
        metrics = {}
        for metric, bound in bounds.items():
            stats = spread([r["result"]["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bound
            stats["steady"] = stats["spread"] < bound / 3
            metrics[metric] = stats
            print(f"{name:14} {metric:12} median {stats['median']:9.4f} spread {stats['spread']:.4f} "
                  f"bound {bound} {'ok' if stats['steady'] else 'NOT STEADY'}", flush=True)
        step_medians = {key: statistics.median(v for r in runs for v in r["record"]["samples"][key])
                        for key in runs[0]["record"]["samples"] if key.endswith("_s")}
        traced = run(name, FIRST_SEED, seconds, 1)
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        out["workloads"][name] = {
            "end_to_end": metrics,
            "step_medians_s": step_medians,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "per_layer": layers,
            "layer_shares": layer_shares(traced["record"]["by_command"], step_medians),
            "tracing_overhead": {
                "overhead_s": layers["trace.overhead_s"],
                "inprocess_pipeline_s": statistics.median(traced["record"]["samples"]["inprocess_pipeline_s"]),
            },
            "inputs_sha256": runs[0]["record"]["inputs"],
        }
    out["contrasts"] = contrasts(out["workloads"])
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    print(json.dumps(out["contrasts"], indent=2))
    return 0


def contrasts(workloads: dict) -> dict:
    """Whether the workloads separate the layers they were chosen for.

    The ingest share is of the in-process `build`; `startup` in the layer
    shares says how much interpreter start adds on top in the subprocess.
    """
    found = {}
    shares = {name: w["layer_shares"] for name, w in workloads.items()}
    if {"dense-network", "ingest-wide"} <= shares.keys():
        wide = shares["ingest-wide"]["build"].get("ingest", 0.0)
        dense = shares["dense-network"]["build"].get("ingest", 0.0)
        found["ingest_share_of_build"] = {"ingest-wide": wide, "dense-network": dense, "holds": wide > dense}
    synth = {name: w["per_layer"]["synthnet.generate_traced.s"] for name, w in workloads.items()}
    found["synthnet_only_on_synth_cartel"] = {
        "synthnet.generate_traced.s": synth,
        "holds": all((v > 0) == (name == "synth-cartel") for name, v in synth.items()),
    }
    return found


if __name__ == "__main__":
    sys.exit(main())
