"""Time the Euler-Maclaurin row kernel over one pass of a perfbench workload.

perfbench's tracer has no span for specfun.euler_maclaurin_row, so its time
shows only as self time of its callers. This script runs, in one process,
the workload's warm-up operation and then one pass over its operations in
their listed order, with the row kernel and reduction.base_sums wrapped
(reduction.EvalCache.base_sums in a checkout that has it), and prints:

- the row builds by kind, with count, seconds, the corrections their
  columns took in all (ZetaRow.corrections) and the distinct lengths N of
  their direct blocks (ZetaRow.block; "-" for a checkout whose rows do not
  record them): "tail" rows are built for base_sums (the outer-sum tails),
  "other" rows for single columns (specfun's hurwitz_zeta, digamma and
  log_zeta_sum, and a checkout's inner zeta/psi values where they read
  rows);
- the inner zeta/psi values of a checkout that reads them from the lattice
  tables (reduction._inner_value; "-" elsewhere): how many were read, how
  many zeta/psi tables those reads built, and their seconds, table builds
  included;
- the base_sums calls, how many of them had arguments not seen before in
  the pass (in a checkout with EvalCache, not seen before in their cache),
  and the seconds base_sums spent outside row builds;
- the lattice tables of the direct blocks, power tables
  and zeta/psi tables apart: the builds and the extensions of a table
  already built, each with its count, the ints it made and its seconds (a
  zeta/psi build with its top's expansion);
- the seconds spent in reduction._direct_block, table builds included,
  which perfbench's tracer shows only as self time of its callers;
- the wall time of the pass;
- reduction.STORE's entries and estimated bytes per kind after the pass
  (its entries only, for a checkout whose keys carry no kind).

Rows, base sums, shape sums and tables live per process, in
reduction.STORE (bounded by its estimated bytes, the least recently used
dropped first), as in the benchmark's worker: the pass builds no row that
the warm-up or an earlier operation built at the same precision, and an
operation whose shape sums are stored forms no base sums for them, so the
counts and times of an operation depend on the operations before it. A
checkout without lattice tables prints "-" for them.

Usage, from the root of a dpl checkout (--checkout runs another checkout's
src/ and perfbench/ instead, such as a parent commit):

    python3 tools/row_profile.py unit-circle [--checkout ../parent]
"""

from __future__ import annotations

import argparse
import sys
import time
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
    inner = {"reads": 0, "builds": 0, "seconds": 0.0}
    in_inner = [False]
    seen = set()        # (EvalCache or ctx, arguments) of the calls so far
    in_bases = [False]
    owner = getattr(reduction, "EvalCache", reduction)
    real_row, real_bases = specfun.euler_maclaurin_row, owner.base_sums

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

    def base_sums(*a, **kw):
        # a[0] is the cache, or the ctx of the module function
        bases["distinct"] += a not in seen
        seen.add(a)
        in_bases[0] = True
        t0 = time.perf_counter()
        try:
            return real_bases(*a, **kw)
        finally:
            bases["seconds"] += time.perf_counter() - t0
            in_bases[0] = False
            bases["calls"] += 1

    specfun.euler_maclaurin_row = reduction.euler_maclaurin_row = row
    owner.base_sums = base_sums

    # [count, ints, seconds] per kind of table and whether it is a build
    tables = {(kind, build): [0, 0, 0.0] for kind in ("power", "zeta/psi")
              for build in (True, False)}
    block = [0, 0.0]

    def timed(name, record):
        real = getattr(reduction, name, None)
        if real is None:
            return False

        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            out = real(*a, **kw)
            record(a, out, time.perf_counter() - t0)
            return out

        setattr(reduction, name, wrapper)
        return True

    def power_table(a, out, dt):
        # _power_table(tab, ...): tab None for a build
        entry = tables["power", a[0] is None]
        entry[0] += 1
        entry[1] += len(out.vals) - (0 if a[0] is None else len(a[0].vals))
        entry[2] += dt

    def trans_table(a, out, dt):
        # _trans_table(trans, Phi, lo, hi, top, err, P): a build runs down
        # from a table's top, whose own error is err = 0
        entry = tables["zeta/psi", a[5] == 0]
        entry[0] += 1
        entry[1] += len(out[0])
        entry[2] += dt

    def trans_top(a, out, dt):
        tables["zeta/psi", True][2] += dt
        inner["builds"] += in_inner[0]

    def inner_value(*a, **kw):
        in_inner[0] = True
        t0 = time.perf_counter()
        try:
            return real_inner(*a, **kw)
        finally:
            inner["seconds"] += time.perf_counter() - t0
            in_inner[0] = False
            inner["reads"] += 1

    def direct_block(a, out, dt):
        block[0] += 1
        block[1] += dt

    lattice = all([timed("_power_table", power_table), timed("_trans_table", trans_table),
                   timed("_trans_top", trans_top)])
    timed("_direct_block", direct_block)
    real_inner = getattr(reduction, "_inner_value", None)
    if real_inner is not None:
        reduction._inner_value = inner_value
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
    print("  inner-value reads: " + (f"{inner['reads']:4d} in {inner['seconds']:.3f} s, "
                                     f"{inner['builds']} zeta/psi table builds"
                                     if real_inner is not None else "-"))
    print(f"  base_sums: {bases['calls']} calls, {bases['distinct']} with new arguments, "
          f"{bases['seconds']:.3f} s outside row builds")
    for (kind, build), (n, ints, s) in tables.items():
        what = f"{kind} table {'builds' if build else 'extensions'}"
        print(f"  {what:27s}: " + (f"{n:4d} in {s:.3f} s, {ints} ints" if lattice else "-"))
    print(f"  _direct_block: {block[0]} calls in {block[1]:.3f} s")
    store, weigh = reduction.STORE, getattr(reduction, "_weigh", None)
    print(f"  STORE: {len(store)} entries" + (f", {store.weight} of {store.limit} estimated bytes"
                                            if weigh else ""))
    kinds = {}
    for key, value in store.items() if weigh else ():
        n, w = kinds.get(key[0], (0, 0))
        kinds[key[0]] = n + 1, w + weigh(key, value)
    for kind, (n, w) in sorted(kinds.items()):
        print(f"    {kind:6s}: {n:5d} entries, {w / 1e3:7.1f} KB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
