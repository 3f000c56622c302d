"""Time the Euler-Maclaurin row kernel over one pass of a perfbench workload.

perfbench's tracer has no span for specfun.euler_maclaurin_row, so its time
shows only as self time of its callers. This script runs, in one process,
the workload's warm-up operation and then one pass over its operations in
their listed order, with the row kernel and reduction.EvalCache.base_sums
wrapped, and prints:

- the row builds by kind, with count, seconds, the corrections their
  columns took in all (ZetaRow.corrections) and the distinct lengths N of
  their direct blocks (ZetaRow.block; "-" for a checkout whose rows do not
  record them): "tail" rows are built for base_sums (the outer-sum tails),
  "other" rows for single columns;
- the base_sums calls, how many of them had arguments not seen before in
  their EvalCache (what a memo of the sums per cache would have had to
  form), and the seconds base_sums spent outside row builds;
- the wall time of the pass.

Usage, from the root of a dpl checkout (--checkout runs another checkout's
src/ and perfbench/ instead, such as a parent commit):

    python3 tools/row_profile.py unit-circle [--checkout ../parent]
"""

from __future__ import annotations

import argparse
import sys
import time
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]

    import dpl.reduction as reduction
    import dpl.specfun as specfun
    from worker import run_op
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    run_op(wl.warmup)

    rows = {"tail": [0, 0.0, 0, set()], "other": [0, 0.0, 0, set()]}
    bases = {"calls": 0, "distinct": 0, "seconds": 0.0}
    seen = weakref.WeakKeyDictionary()      # EvalCache -> argument tuples
    in_bases = [False]
    real_row, real_bases = specfun.euler_maclaurin_row, reduction.EvalCache.base_sums

    def row(*a, **kw):
        t0 = time.perf_counter()
        out = real_row(*a, **kw)
        dt = time.perf_counter() - t0
        kind = rows["tail" if in_bases[0] else "other"]
        kind[0] += 1
        kind[1] += dt
        kind[2] = sum(out.corrections) + kind[2] if hasattr(out, "corrections") else "-"
        kind[3] = kind[3] | {out.block} if hasattr(out, "block") else "-"
        bases["seconds"] -= dt if in_bases[0] else 0.0
        return out

    def base_sums(self, *a, **kw):
        keys = seen.setdefault(self, set())
        bases["distinct"] += a not in keys
        keys.add(a)
        in_bases[0] = True
        t0 = time.perf_counter()
        try:
            return real_bases(self, *a, **kw)
        finally:
            bases["seconds"] += time.perf_counter() - t0
            in_bases[0] = False
            bases["calls"] += 1

    specfun.euler_maclaurin_row = reduction.euler_maclaurin_row = row
    reduction.EvalCache.base_sums = base_sums
    t0 = time.perf_counter()
    failed = 0
    for op in wl.ops:
        try:
            run_op(op)
        except Exception:       # counted, as perfbench counts a failed operation
            failed += 1
    wall = time.perf_counter() - t0

    print(f"{args.workload}: one pass of {len(wl.ops)} operations in {wall:.3f} s "
          f"({failed} failed), {checkout}")
    for kind, (n, s, m, blocks) in rows.items():
        blocks = ", ".join(map(str, sorted(blocks))) if isinstance(blocks, set) else blocks
        print(f"  row builds, {kind:5s}: {n:4d} in {s:.3f} s, {m} column corrections, "
              f"blocks N = {blocks or '-'}")
    print(f"  row builds, all  : {rows['tail'][0] + rows['other'][0]:4d} in "
          f"{rows['tail'][1] + rows['other'][1]:.3f} s")
    print(f"  base_sums: {bases['calls']} calls, {bases['distinct']} with new arguments, "
          f"{bases['seconds']:.3f} s outside row builds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
