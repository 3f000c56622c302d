"""The dpl benchmark: one workload, its end-to-end or per-layer figures.

Run from the root of a dpl checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: interior, unit-circle, b-derivative, direct-oracle (workloads.py).
With --trace 0 it prints setup_s, wall_ref and peak_rss_mb, and wall_s on a
line of its own; with --trace 1 it prints the per-layer metrics of
tracer.py. Each workload runs in a fresh single-threaded worker process.
Set-up time is the median of fresh interpreter probes, scaled to the
reference speed of the kernel. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Run details go
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = (8, 8)       # timed probes before and after the worker; one untimed first
DEADLINE_S = 170            # the whole run ends within this
# The reference kernel's time at the reference speed (its median on the host
# of perfbench/README.md). setup_s is the probes' median time scaled by this
# over the kernel's mean time during the run, i.e. set-up seconds at the
# reference speed: raw set-up medians of one commit moved by up to 29%
# between sets of ten runs as the host's speed drifted.
KERNEL_REFERENCE_S = 0.0015
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, env, deadline) -> dict:
    """Runs a child Python to its end and returns the JSON of its last line."""
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "dpl" / "__init__.py").is_file():
        print("perfbench: run from the root of a dpl checkout (no src/dpl here)",
              file=sys.stderr)
        return 2
    # Byte-compile up front, so that no child compiles source: set-up time and
    # peak memory are then the same in a fresh checkout as in a used one.
    for tree in (root / "src" / "dpl", HERE):
        compileall.compile_dir(tree, quiet=2)
    env = worker_env(root)
    route = "direct" if args.workload == "direct-oracle" else "reduction"
    probe = [str(HERE / "probe.py"), route, str(args.trace)]
    worker = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            probes = [run_child(probe, env, deadline)]
            result = run_child(worker, env, deadline)
        else:
            run_child(probe, env, deadline)
            before, after = SETUP_PROBES
            probes = [run_child(probe, env, deadline) for _ in range(before)]
            result = run_child(worker, env, deadline)
            probes += [run_child(probe, env, deadline) for _ in range(after)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = {**result["per_layer"], **probes[0]["per_layer"]}
        absent = result["absent"] + probes[0]["absent"]
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in metric_names().items()}
        if absent:
            print(f"perfbench: absent targets (reported as 0): {', '.join(absent)}")
    else:
        result["setup_raw_s"] = statistics.median(p["setup_s"] for p in probes)
        result["setup_s"] = result["setup_raw_s"] * KERNEL_REFERENCE_S / result["kernel_mean_s"]
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        # Raw times follow the host's drift too closely to carry a bound; they
        # are printed and kept in the run's details.
        print(f"perfbench: wall_s {result['wall_s']:.3f} s, "
              f"set-up median {result['setup_raw_s']:.4f} s")

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    detail = {"args": vars(args), "probes": probes, **result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    for name in result["unexpected_failures"]:
        print(f"perfbench: unexpected failure: {name}")
    print(json.dumps({"correct": not result["unexpected_failures"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
