"""Paired benchmark runs of two dpl checkouts, written to one BENCH json.

The changed checkout is the one holding this script. For every workload of
its BENCHMARK.json, runs `perfbench/run.py` of each checkout in turn for N
pairs of runs of the benchmark's `run_seconds`, one seed per pair,
alternating which side goes first, then TRACED_RUNS pairs of traced runs on
the first seeds, alternating too. Each run uses the perfbench/ and src/ of
its own checkout, as the benchmark does, compiled from source: every run
gets a new empty PYTHONPYCACHEPREFIX, so that neither side reads bytecode
from a __pycache__ beside its sources or from an earlier run (importing
dpl.reduction from cached bytecode peaks some 5 MB lower than compiling
it, more than peak_rss_mb's bound). Usage:

    python3 tools/bench_pairs.py --parent ../parent --pairs 10 --seeds 41 \\
        --out BENCH_<n>.json

The output holds, per workload and end-to-end metric of BENCHMARK.json, each
side's runs, median and quartiles, and how many pairs the change won; the
failed-operation counts and the correctness verdict of every run; per pass
of the workload (its operation set, run once per pass in the order of the
run's seed), each side's seconds and seconds over the run's kernel mean
(wall_ref), with runs, median and quartiles, read from the run's details in
`<checkout>/.perfbench_out/`, so that a first pass of new points shows apart
from a second that repeats it; and per side, each per-layer total's median
over the traced runs (per_layer), with the runs themselves
(per_layer_runs): one traced sample of a self time can read 20% off its
neighbours. perfbench/run.py exits 0 even when a run's outputs are
wrong, so this script exits 1, after writing the output, when any run of
either side (traced runs included) was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]   # the changed checkout
TRACED_RUNS = 3     # traced runs per side, whose per-layer medians are reported
PYCACHE_PREFIX = "bench-pairs-pycache-"     # a run's new, empty bytecode directory


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run, compiled from source; the JSON object of its last
    line of output."""
    with tempfile.TemporaryDirectory(prefix=PYCACHE_PREFIX) as pycache:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True,
            env={**os.environ, "PYTHONPYCACHEPREFIX": pycache})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def pass_seconds(checkout: Path, workload: str, seed: int) -> tuple:
    """(seconds of each pass, kernel_mean_s) of the untraced run just made:
    its details list every op's seconds in pass order, a pass being one of
    each op."""
    detail = json.loads((checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text())
    ops = detail["ops"]
    n = len({o["op"] for o in ops})
    return [sum(o["seconds"] for o in ops[i:i + n]) for i in range(0, len(ops), n)], \
        detail["kernel_mean_s"]


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def revision(checkout: Path) -> dict:
    """The checkout's git HEAD (None outside git) and whether its working
    tree differs from HEAD."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return {"revision": head,
            "modified": bool(git("status", "--porcelain", "--untracked-files=no"))
            if head else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=41, help="seed of the first pair")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    seeds = list(range(args.seeds, args.seeds + args.pairs))
    report = {
        "parent": revision(sides["parent"]),
        "change": revision(sides["change"]),
        "pairs": args.pairs, "seeds": seeds, "seconds": seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0))},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    incorrect = []
    for name in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        passes = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = run_bench(sides[side], name, seed, seconds, 0)
                runs[side].append(out)
                passes[side].append(pass_seconds(sides[side], name, seed))
                print(f"{name} seed {seed} {side}: "
                      + ", ".join(f"{m} {out['metrics'][m]['value']:.4g}" for m in metrics),
                      file=sys.stderr, flush=True)
        traced = {"parent": [], "change": []}
        for i in range(TRACED_RUNS):
            seed = seeds[i % len(seeds)]
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                traced[side].append(run_bench(sides[side], name, seed, seconds, 1))
                if not traced[side][-1]["correct"]:
                    incorrect.append(f"{name} {side} traced seed {seed}")
        entry = {"end_to_end": {}, "failed": {}, "correct": {}, "attempted": {},
                 "passes": {}, "per_layer": {}, "per_layer_runs": {}}
        for metric, better in metrics.items():
            vals = {side: [r["metrics"][metric]["value"] for r in runs[side]] for side in runs}
            wins = sum((c < p) if better == "lower" else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            entry["end_to_end"][metric] = {
                "better": better,
                "parent": summary(vals["parent"]),
                "change": summary(vals["change"]),
                "change_wins": wins,
                "change_over_parent": statistics.median(vals["change"])
                / statistics.median(vals["parent"]),
            }
        for side in runs:
            count = min(len(secs) for (secs, _) in passes[side])
            entry["passes"][side] = [
                {"seconds": summary([secs[k] for (secs, _) in passes[side]]),
                 "wall_ref": summary([secs[k] / kernel for (secs, kernel) in passes[side]])}
                for k in range(count)]
            entry["failed"][side] = [r["failed"] for r in runs[side]]
            entry["correct"][side] = [r["correct"] for r in runs[side]]
            entry["attempted"][side] = [r["attempted"] for r in runs[side]]
            layers = {k: [t["metrics"][k]["value"] for t in traced[side]]
                      for k in traced[side][0]["metrics"]}
            entry["per_layer"][side] = {k: statistics.median(v) for k, v in layers.items()}
            entry["per_layer_runs"][side] = layers
            incorrect += [f"{name} {side} seed {seed}"
                          for (seed, r) in zip(seeds, runs[side]) if not r["correct"]]
        report["workloads"][name] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for run in incorrect:
        print(f"bench_pairs: incorrect outputs: {run}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
