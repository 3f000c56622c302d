"""Reference figures: run the benchmark over seeds and summarise each metric.

Run from the root of a dpl checkout:

    python3 perfbench/figures.py --runs 10 [--workload NAME ...] [--seconds 15]
                                 [--first-seed 1] [--traced-runs 0]

With --runs 1 it runs each of the four workloads once. For each workload it
makes --runs untraced runs with seeds first-seed, first-seed+1, ..., and
prints one markdown row per end-to-end metric and one for wall_s: the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is
the distance between the quartiles over the median. With --traced-runs N it
also makes a traced run right after each of the first N untraced runs, and
prints the tracing overhead: the median over those pairs of traced wall_s
over untraced wall_s, minus one. Pairing keeps the host's drift out of it.
It exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = str(Path(__file__).resolve().parent / "run.py")


def run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:       # wall_s carries no bound, so it is read from the run's details
        detail = json.loads(Path(f".perfbench_out/{workload}-seed{seed}-trace0.json").read_text())
        result["metrics"]["wall_s"] = {"value": detail["wall_s"], "unit": "s"}
    return result


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced-runs", type=int, default=0)
    args = ap.parse_args(argv)

    print("| workload | metric | median | q1 | q3 | spread | failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    overhead_lines = []
    for name in args.workload or list(WORKLOADS):
        results, overheads = [], []
        for i, seed in enumerate(range(args.first_seed, args.first_seed + args.runs)):
            results.append(run(name, seed, args.seconds, 0))
            if i < args.traced_runs:
                traced = run(name, seed, args.seconds, 1)["metrics"]["traced.wall_s"]["value"]
                overheads.append(traced / results[-1]["metrics"]["wall_s"]["value"] - 1)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, spread = summary(values)
            print(f"| {name} | {metric} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} "
                  f"| {', '.join(shares)} |", flush=True)
        if overheads:
            overhead_lines.append(
                f"- {name}: tracing overhead {statistics.median(overheads):+.3f} (median of "
                f"{len(overheads)} pairs; min {min(overheads):+.3f}, max {max(overheads):+.3f})")
    print("\n" + "\n".join(overhead_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
