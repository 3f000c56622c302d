"""Side-by-side fingerprint of two dpl checkouts over the registry batteries.

The changed checkout is the one holding this script. For the first 3
battery points of every registry identity, each checkout's own src/ is run
in a subprocess that evaluates the identity at 50 digits with its
registered strategy and records, for each side, its value (70 digits), its
error bound and its method, and the identity's verdict. Usage:

    python3 tools/fingerprint.py --parent ../parent --out fingerprint.json

The output holds both checkouts' records and a summary: how many sides are
bit-identical in value, bound and method; the worst relative change in
value; the worst bound ratio (change over parent, farthest from 1); and
every point whose verdict changed. The script exits 1, after writing the
output, when any side moved by more than the sum of its two bounds, or
evaluated on one checkout but raised on the other.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from mpmath import mp, mpc, mpf

ROOT = Path(__file__).resolve().parents[1]   # the changed checkout
POINTS = 3
DIGITS = 50

# Runs inside a checkout's own src/; prints one JSON object of records.
WORKER = f"""
import json
from mpmath import mp
from dpl.evaluator import eval_identity
from dpl.registry import registry_get, registry_ids
from dpl.specfun import PrecisionContext

ctx = PrecisionContext(working_digits={DIGITS})
out = []
for ident in registry_ids():
    entry = registry_get(ident)
    for assignment in entry.battery[:{POINTS}]:
        rec = {{"id": ident, "params": assignment, "strategy": entry.strategy}}
        try:
            rep = eval_identity(entry, assignment, ctx, strategy=entry.strategy)
        except Exception as exc:
            rec["error"] = f"{{type(exc).__name__}}: {{exc}}"
        else:
            with mp.workdps(80):
                rec["passed"] = bool(rep.passed)
                for side in ("lhs", "rhs"):
                    r = getattr(rep, side)
                    v = mp.mpc(r.value)
                    rec[side] = {{"value": [mp.nstr(v.real, 70), mp.nstr(v.imag, 70)],
                                  "bound": mp.nstr(r.abs_error_bound, 70),
                                  "method": r.method}}
        out.append(rec)
print(json.dumps(out))
"""


def records(checkout: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", WORKER], cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def compare(parent: list, change: list) -> tuple[dict, bool]:
    """The summary of two checkouts' records, and whether any side moved
    beyond its bounds (or evaluated on one checkout only)."""
    identical = sides = 0
    worst_rel, worst_ratio = mpf(0), mpf(1)
    verdicts, moved = [], []
    for p, c in zip(parent, change, strict=True):
        point = f"{p['id']} {p['params']}"
        if ("error" in p) != ("error" in c):
            moved.append(f"{point}: {p.get('error', 'evaluates')} -> {c.get('error', 'evaluates')}")
            continue
        if "error" in p:
            continue
        if p["passed"] != c["passed"]:
            verdicts.append(f"{point}: passed {p['passed']} -> {c['passed']}")
        for side in ("lhs", "rhs"):
            ps, cs = p[side], c[side]
            sides += 1
            identical += ps == cs
            vp, vc = (mpc(*map(mpf, s["value"])) for s in (ps, cs))
            bp, bc = mpf(ps["bound"]), mpf(cs["bound"])
            diff = abs(vc - vp)
            if diff:
                worst_rel = max(worst_rel, diff / abs(vp) if vp else mpf("inf"))
            if bp and bc and abs(mp.log(bc / bp)) > abs(mp.log(worst_ratio)):
                worst_ratio = bc / bp
            if diff > bp + bc:
                moved.append(f"{point} {side}: moved {mp.nstr(diff, 3)} "
                             f"> bounds {mp.nstr(bp + bc, 3)}")
    summary = {"points": len(parent), "sides": sides, "bit_identical": identical,
               "worst_relative_value_change": mp.nstr(worst_rel, 3),
               "worst_bound_ratio": mp.nstr(worst_ratio, 6),
               "verdict_changes": verdicts, "moved_beyond_bounds": moved}
    return summary, bool(moved)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    recs = {"parent": records(args.parent.resolve()), "change": records(ROOT)}
    with mp.workdps(80):
        summary, failed = compare(recs["parent"], recs["change"])
    args.out.write_text(json.dumps({"summary": summary, **recs}, indent=1) + "\n")
    print(json.dumps(summary, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
