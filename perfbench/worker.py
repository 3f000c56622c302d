"""Runs one workload in a fresh process and prints its figures as JSON.

run.py starts it from the root of a dpl checkout, with the checkout's src/
on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It runs the workload's warm-up operation untimed, then whole timed passes
over the operation set, with the reference kernel timed from a wall-clock
timer throughout each pass (DriftSampler). With --trace 1 the per-layer
tracer is installed for the passes instead. After the passes it checks every
output against mpmath-only values.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from mpmath import mpf

import checks
import reference
from tracer import Tracer
from workloads import WORKLOADS


def context(digits: int):
    """The precision context `dpl verify --digits` uses."""
    from dpl.specfun import PrecisionContext

    guard = 10
    output = min(max(digits - guard, digits * 3 // 5), digits - guard)
    return PrecisionContext(working_digits=digits, guard_digits=guard, output_digits=output)


def tolerance(op):
    from dpl.registry import registry_get

    entry = registry_get(op.ident)
    if op.route == "direct":
        return entry.direct_tolerance or entry.tolerance
    return entry.tolerance


def run_op(op):
    """One operation through dpl's public API."""
    from dpl.evaluator import eval_identity, numeric_derivative_b, side_evaluator
    from dpl.registry import registry_get

    entry = registry_get(op.ident)
    ctx = context(op.digits)
    if op.kind == "derivative":
        func = side_evaluator(entry.spec, op.side, op.param_dict, ctx, strategy=entry.strategy)
        return numeric_derivative_b(func, 1, Fraction(op.param_dict["b"]), ctx)
    strategy = "direct" if op.route == "direct" else entry.strategy
    return eval_identity(entry, op.param_dict, ctx, strategy=strategy,
                         tolerance=mpf(tolerance(op)))


class DriftSampler:
    """Times the reference kernel every `interval` seconds of wall time.

    The host's speed changes within a second by up to 2x. A kernel timed only
    between operations samples too few of those phases to follow it, so the
    kernel runs from a timer signal instead, interleaved with the operations
    in the same thread, and its samples cover the same time as the pass. The
    time spent sampling is kept in `spent`, to be taken out of the pass.
    """

    def __init__(self, dps: int, interval: float = 0.05):
        self.dps, self.interval = dps, interval
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            reference.kernel(self.dps)
        finally:
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt
            self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_pass(order, sampler=None):
    """Runs each operation once; returns (outputs, seconds per operation).

    An operation's seconds exclude the time the sampler spent inside it.
    """
    outputs, op_s = [], []
    for op in order:
        spent = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            out = run_op(op)
        except Exception as exc:        # a failed operation is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - t0
        op_s.append(elapsed - ((sampler.spent - spent) if sampler else 0.0))
        outputs.append(out)
    return outputs, op_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    import dpl
    src = (Path.cwd() / "src").resolve()
    if src not in Path(dpl.__file__).resolve().parents:
        print(f"dpl was imported from {dpl.__file__}, not from {src}", file=sys.stderr)
        return 2

    run_op(wl.warmup)
    reference.kernel(wl.kernel_dps)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    records, walls, refs, kernel_s = [], [], [], []
    for order in wl.orders(args.seed, wl.passes(args.seconds)):
        if tracer is None:
            with DriftSampler(wl.kernel_dps) as sampler:
                outputs, op_s = timed_pass(order, sampler)
            refs.append(sum(op_s) / statistics.mean(sampler.samples))
            kernel_s += sampler.samples
        else:
            outputs, op_s = timed_pass(order)
        walls.append(sum(op_s))
        records += [(op, out, t) for op, out, t in zip(order, outputs, op_s)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    references = {op: checks.reference_value(op) for op in wl.ops}
    ops, unexpected = [], []
    for op, out, seconds in records:
        if isinstance(out, Exception):
            failed = [f"raised {type(out).__name__}: {out}"]
        else:
            failed = checks.check(op, out, references[op], tolerance(op))
        ops.append({"op": op.label, "seconds": seconds, "failed": failed,
                    "known_fault": op.known_fault})
        if failed and not op.known_fault:
            unexpected.append(op.label)

    result = {
        "workload": wl.name,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["failed"]),
        "unexpected_failures": unexpected,
        "wall_s": statistics.median(walls),
        "wall_ref": statistics.median(refs) if refs else None,
        "peak_rss_mb": peak_rss_mb,
        "kernel_samples": len(kernel_s),
        "kernel_mean_s": statistics.mean(kernel_s) if kernel_s else None,
        "ops": ops,
    }
    if tracer is not None:
        result["per_layer"] = {**tracer.metrics(), "traced.wall_s": statistics.median(walls)}
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
